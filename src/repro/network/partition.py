"""Network partitioning: partial collapse into supernodes (Section IV.A).

Manipulating one global BDD is impractical for large circuits (the
paper cites Bryant's multiplier lower bound), so BDS preprocesses the
input network by *partially collapsing* it into supernodes, each small
enough for comfortable local-BDD manipulation.  This module implements
that preprocessing with an eliminate-style greedy:

* walking from the outputs toward the inputs, every node joins the
  cluster of its fanout(s) when the merged cluster stays within the
  support budget;
* small nodes may be *duplicated* into a few fanout clusters (the
  eliminate transform of [21] also duplicates cheap logic);
* nodes that cannot be absorbed become supernode outputs themselves.

Every supernode then receives a local BDD (over its boundary signals);
clusters whose BDD exceeds the node budget are demoted to single-node
supernodes, which keeps the flow total and robust.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bdd import BDD
from .bdds import BddSizeExceeded, supernode_bdd
from .netlist import LogicNetwork


@dataclass
class PartitionConfig:
    """Partial-collapse budgets.

    ``max_support`` bounds a supernode's boundary-signal count (local
    BDD variables).  ``max_bdd_nodes`` bounds the local BDD size;
    overflowing clusters are demoted.  A node with at most
    ``duplication_literals`` literals may be duplicated into up to
    ``max_duplication`` distinct fanout clusters instead of becoming a
    boundary."""

    max_support: int = 12
    max_bdd_nodes: int = 450
    max_duplication: int = 2
    duplication_literals: int = 4
    #: Node names that must stay supernode outputs and are never
    #: absorbed or duplicated (e.g. XOR gates the DC-like flow keeps).
    hard_signals: frozenset[str] = frozenset()


@dataclass
class Supernode:
    """A partition cluster: ``members`` collapse into one local function
    rooted at ``output``; ``inputs`` are its boundary signals in the
    DFS order used for the local BDD."""

    output: str
    members: set[str]
    inputs: list[str] = field(default_factory=list)


def partition(network: LogicNetwork, config: PartitionConfig | None = None) -> list[Supernode]:
    """Partition ``network`` into supernodes, returned in topological
    order (fanin supernodes first)."""
    if config is None:
        config = PartitionConfig()

    order = network.topological_order()
    fanouts = network.fanouts()
    output_set = set(network.outputs)

    clusters: dict[str, Supernode] = {}
    membership: dict[str, list[Supernode]] = {}

    def cluster_support(cluster: Supernode) -> set[str]:
        support: set[str] = set()
        for member in cluster.members:
            for fanin in network.node(member).fanins:
                if fanin not in cluster.members:
                    support.add(fanin)
        return support

    def can_absorb(cluster: Supernode, name: str) -> bool:
        members = cluster.members | {name}
        support: set[str] = set()
        for member in members:  # bdslint: disable=DET001 -- order-insensitive: the loop only accumulates into a set whose len() is compared
            for fanin in network.node(member).fanins:
                if fanin not in members:
                    support.add(fanin)
        return len(support) <= config.max_support

    for name in reversed(order):
        node = network.node(name)
        reader_clusters: list[Supernode] = []
        seen_ids: set[int] = set()
        for reader in fanouts.get(name, ()):
            for cluster in membership.get(reader, ()):
                if id(cluster) not in seen_ids:
                    seen_ids.add(id(cluster))
                    reader_clusters.append(cluster)

        must_own = (
            name in output_set
            or name in config.hard_signals
            or not reader_clusters
        )
        if not must_own:
            # Hard supernodes are kept verbatim by their flow, so they
            # must stay singletons: never absorb into them.
            soft_readers = [
                c for c in reader_clusters if c.output not in config.hard_signals
            ]
            if len(soft_readers) != len(reader_clusters):
                cluster = Supernode(name, {name})
                clusters[name] = cluster
                membership.setdefault(name, []).append(cluster)
                continue
            if len(reader_clusters) == 1:
                target = reader_clusters[0]
                if can_absorb(target, name):
                    target.members.add(name)
                    membership.setdefault(name, []).append(target)
                    continue
            elif (
                len(reader_clusters) <= config.max_duplication
                and node.num_literals <= config.duplication_literals
                and all(can_absorb(c, name) for c in reader_clusters)
            ):
                for cluster in reader_clusters:
                    cluster.members.add(name)
                    membership.setdefault(name, []).append(cluster)
                continue
        cluster = Supernode(name, {name})
        clusters[name] = cluster
        membership.setdefault(name, []).append(cluster)

    result = [clusters[name] for name in order if name in clusters]
    for supernode in result:
        supernode.inputs = _input_order(network, supernode)
    return result


def _input_order(network: LogicNetwork, supernode: Supernode) -> list[str]:
    """Boundary signals in DFS-from-output order (a decent static BDD
    variable order that follows the cone's structure).

    Iterative: a supernode can absorb arbitrarily long single-fanout
    chains, far exceeding the recursion limit.
    """
    order: list[str] = []
    seen: set[str] = set()
    stack = [supernode.output]
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        if name not in supernode.members:
            order.append(name)
            continue
        # Reversed so the DFS visits fanins left-to-right.
        stack.extend(reversed(network.node(name).fanins))
    return order


def structure_key(network: LogicNetwork, supernode: Supernode) -> tuple:
    """All that :func:`supernode_bdd` reads of ``supernode``.

    Every member's cover, ``inverted`` flag and fanin wiring, in the
    build's post-order, with each boundary input renamed to its position
    in ``supernode.inputs`` and each member to its build index after
    them.  Supernodes with equal keys build the same BDD store, node ids
    included, and hit a node budget at the same member.
    """
    index = {name: i for i, name in enumerate(supernode.inputs)}
    key: list = [len(index)]
    # The traversal of supernode_bdd, so indices follow its build order.
    stack: list[tuple[str, bool]] = [(supernode.output, False)]
    while stack:
        name, expanded = stack.pop()
        if name in index:
            continue
        node = network.node(name)
        if not expanded:
            stack.append((name, True))
            stack.extend((fanin, False) for fanin in node.fanins if fanin not in index)
            continue
        index[name] = len(index)
        key.append((node.cover, node.inverted, tuple(index[f] for f in node.fanins)))
    return tuple(key)


def partition_with_bdds(
    network: LogicNetwork,
    config: PartitionConfig | None = None,
    firsts: dict[str, Supernode] | None = None,
) -> list[tuple[Supernode, BDD, int]]:
    """Partition and build every local BDD, demoting oversized clusters
    to single-node supernodes (robust default used by the flows).

    Guarantees closure: every supernode input is either a primary input
    or the output of another returned supernode — demotion and node
    duplication can orphan internal signals, which are materialized
    here as additional singleton supernodes.

    With ``firsts`` (a dict, filled in), each distinct
    :func:`structure_key` is built, or demoted, once: a later supernode
    with the key shares the first one's manager and root, and
    ``firsts`` maps every supernode output to the supernode its manager
    was built for (itself for a first).  The manager's variables are
    that supernode's inputs.  Both BDD-partitioned flows pass it: the
    BDS flows' ``build-bdds`` stage and the DC flow's ``collapse``.
    """
    if config is None:
        config = PartitionConfig()
    built: dict[str, tuple[Supernode, BDD, int]] = {}
    # (node budget, structure) -> first build, or None once demoted.  A
    # one-member cluster can share a singleton's structure, not its budget.
    builds: dict[tuple, tuple[Supernode, BDD, int] | None] = {}

    def build(supernode: Supernode, max_nodes: int | None) -> bool:
        """Enter ``supernode``'s local BDD into ``built``; False when it
        crosses ``max_nodes``."""
        key = None
        if firsts is not None:
            key = (max_nodes, structure_key(network, supernode))
            if key in builds:
                first = builds[key]
                if first is None:
                    return False
                built[supernode.output] = (supernode, first[1], first[2])
                firsts[supernode.output] = first[0]
                return True
        try:
            mgr, root = supernode_bdd(
                network,
                supernode.output,
                supernode.members,
                supernode.inputs,
                max_nodes=max_nodes,
            )
        except BddSizeExceeded:
            if key is not None:
                builds[key] = None
            return False
        # Only the cone root survives the build: collect the member
        # signals' intermediate BDDs so downstream sifting/decomposition
        # starts from a store holding exactly the live function.
        mgr.gc([root])
        built[supernode.output] = (supernode, mgr, root)
        if key is not None:
            builds[key] = built[supernode.output]
            firsts[supernode.output] = supernode
        return True

    def build_singleton(name: str) -> None:
        singleton = Supernode(name, {name})
        singleton.inputs = _input_order(network, singleton)
        # Single SOP nodes cannot blow up: no node budget.
        build(singleton, None)

    for supernode in partition(network, config):
        if not build(supernode, config.max_bdd_nodes):
            for member in _members_topological(network, supernode):
                if member not in built:
                    build_singleton(member)

    # Closure pass: materialize referenced-but-unemitted signals.
    emitted = set(network.inputs) | set(built)
    pending = [
        signal
        for entry in built.values()
        for signal in entry[0].inputs
        if signal not in emitted
    ]
    while pending:
        name = pending.pop()
        if name in emitted:
            continue
        build_singleton(name)
        emitted.add(name)
        for signal in built[name][0].inputs:
            if signal not in emitted:
                pending.append(signal)

    position = {name: i for i, name in enumerate(network.topological_order())}
    return [built[name] for name in sorted(built, key=position.__getitem__)]


def _members_topological(network: LogicNetwork, supernode: Supernode) -> list[str]:
    position = {name: i for i, name in enumerate(network.topological_order())}
    return sorted(supernode.members, key=position.__getitem__)


def partition_statistics(
    network: LogicNetwork, supernodes: list[Supernode]
) -> dict[str, float]:
    """Summary used by tests and the experiment logs."""
    sizes = [len(s.members) for s in supernodes]
    supports = [len(s.inputs) for s in supernodes]
    return {
        "supernodes": len(supernodes),
        "collapsed_nodes": sum(sizes),
        "original_nodes": network.num_nodes,
        "max_members": max(sizes, default=0),
        "max_support": max(supports, default=0),
        "mean_members": sum(sizes) / len(sizes) if sizes else 0.0,
    }
