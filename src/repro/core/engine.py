"""The BDS-MAJ decomposition engine (paper Section IV.B).

Recursively decomposes a BDD into a factoring tree:

1. constants and literals terminate the recursion;
2. **majority decomposition is tried first** — a radix-3 split is
   potentially much more advantageous than the radix-2 ones — and is
   accepted under the *global majority selection* metric (k = 1.6
   against the original BDD size).  It is skipped when the BDD has
   one node per support variable (``size == support``): the metric
   must reject every triple of such a function (see
   :func:`~repro.core.majority.accepts_globally`);
3. otherwise the best certified simple-dominator decomposition
   (AND / OR / XOR) is applied;
4. as a last resort the function is cofactored against its top
   variable (MUX / Shannon expansion).

Setting ``enable_majority=False`` turns the engine into the BDS-PGA
baseline: identical machinery minus step 2, which is exactly the
comparison Table I draws.

Results are memoized three times.  Per BDD edge, so logic sharing
inside a supernode is detected through BDD canonicity (Section IV.C),
and the shared :class:`~repro.core.tree.TreeBuilder` extends the sharing
across supernodes of the same network.  Per function *shape*
(:meth:`~repro.bdd.BDD.support_shape`: the canonical BDD with node ids
and levels renamed), across every supernode manager of one flow run:
the same small function recurs once per bit slice over other input
names, and its decision — which split, with the children as shapes over
the parent's support — is taken once, then replayed in each manager.
Every tie-break of the decision is structural, so a replay builds
exactly the tree a fresh decision would.  And, above the engine, per
supernode *structure* (:func:`~repro.network.partition.structure_key`):
the ``decompose`` stage runs the engine once per distinct structure on
a :class:`~repro.core.tree.TreeTape`, and replays the tape's builder
calls for every supernode with that structure, so a repeated bit slice
is never built, sifted or decomposed again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bdd import BDD
from ..bdd.dominators import (
    KIND_AND,
    KIND_OR,
    best_simple_decomposition,
    find_simple_decompositions,
)
from ..bdd.manager import Shape
from .majority import MajorityConfig, accepts_globally, decompose_majority
from .tree import TreeBuilder, TreeTape


@dataclass
class EngineConfig:
    """Engine tunables; defaults follow Section IV.B."""

    #: Attempt majority decomposition (False = BDS-PGA baseline).
    enable_majority: bool = True
    #: Global majority selection sizing factor (paper: 1.6).
    global_k: float = 1.6
    #: Algorithm 1 configuration (local k = 1.5, 5 balancing iterations).
    majority: MajorityConfig = field(default_factory=MajorityConfig)
    #: Skip the majority search above this BDD size (runtime guard;
    #: Section III.F's "tight selection constraints").
    max_majority_size: int = 250


@dataclass
class EngineStats:
    """Counts of decomposition steps taken (for reporting and tests)."""

    majority: int = 0
    and_or: int = 0
    xor: int = 0
    mux: int = 0
    literal: int = 0
    constant: int = 0
    cache_hits: int = 0
    #: Decisions replayed from the shared shape memo.
    memo_hits: int = 0
    #: Snapshot of the BDD manager's unified operation-cache counters
    #: (see :meth:`repro.bdd.BDD.cache_stats`), refreshed by
    #: :meth:`DecompositionEngine.cache_report`.
    bdd_cache: dict[str, int | float] = field(default_factory=dict)


#: An engine decision: ``("maj", fa, fb, fc)``, ``(kind, upper, lower)``
#: for a simple-dominator split, or ``("mux",)``; children are
#: :data:`~repro.bdd.manager.Shape` values over the parent's support.
Decision = tuple


class DecompositionEngine:
    """Decompose functions of one BDD manager into factoring trees.

    ``builder`` receives the trees; a :class:`TreeTape` records them
    for replay instead.

    ``memo`` maps function shapes to decisions.  Engines of one flow
    run share it (one dict per run, so parallel reports stay
    byte-identical); every engine sharing it must have an equal
    ``config``.  Without it each engine keeps its own.
    """

    def __init__(
        self,
        mgr: BDD,
        builder: TreeBuilder | TreeTape | None = None,
        config: EngineConfig | None = None,
        memo: dict[Shape, Decision] | None = None,
    ) -> None:
        self.mgr = mgr
        self.builder = builder if builder is not None else TreeBuilder()
        self.config = config if config is not None else EngineConfig()
        self.stats = EngineStats()
        self._memo = memo if memo is not None else {}
        self._cache: dict[int, int] = {}

    def decompose(self, f: int) -> int:
        """Return the factoring-tree id computing the function ``f``."""
        builder = self.builder

        cached = self._cache.get(f)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        complement_cached = self._cache.get(f ^ 1)
        if complement_cached is not None:
            self.stats.cache_hits += 1
            result = builder.not_(complement_cached)
            self._cache[f] = result
            return result

        result = self._decompose_uncached(f)
        self._cache[f] = result
        return result

    def cache_report(self) -> dict[str, int | float]:
        """Snapshot the manager's unified op-cache counters into
        :attr:`stats` and return them (flows aggregate this per
        supernode for the paper tables and the batch service)."""
        stats = self.mgr.cache_stats()
        self.stats.bdd_cache = stats
        return stats

    def _decompose_uncached(self, f: int) -> int:
        mgr = self.mgr
        builder = self.builder

        if f == mgr.ONE:
            self.stats.constant += 1
            return builder.CONST1
        if f == mgr.ZERO:
            self.stats.constant += 1
            return builder.CONST0

        _, high, low = mgr.node_fields(f >> 1)
        if high >> 1 == 0 and low >> 1 == 0:
            # A node with two terminal children is a single-node
            # function, and canonical single-node functions are exactly
            # the literals.
            self.stats.literal += 1
            literal = builder.literal(mgr.top_var_name(f))
            return builder.not_(literal) if f & 1 else literal

        levels, shape = mgr.support_shape(f)
        return self._replay(f, self._decision(f, shape, levels), levels)

    def _decision(self, f: int, shape: Shape, levels: list[int]) -> Decision:
        """The memoized decision for ``f`` (whose shape is ``shape``)."""
        decision = self._memo.get(shape)
        if decision is None:
            decision = self._decide(f, shape, levels)
            self._memo[shape] = decision
        else:
            self.stats.memo_hits += 1
        return decision

    def _decide(self, f: int, shape: Shape, levels: list[int]) -> Decision:
        """Choose the split of ``f`` (whose shape is ``shape``);
        children are returned as shapes over ``levels``, the support of
        ``f``."""
        mgr = self.mgr
        config = self.config
        size = len(shape[1])
        # One scan serves both the AND/OR/XOR search and the
        # m-dominator exclusion filter (condition (i) of III.B); on at
        # most 12 support levels it builds no node until the winning
        # split's upper is read below.
        simple_candidates = find_simple_decompositions(mgr, f)
        # A function with no more nodes than support variables has no
        # triple that accepts_globally could take (the bound in its
        # docstring), so its search is skipped; ``<`` is tight.
        if config.enable_majority and len(levels) < size <= config.max_majority_size:
            simple_nodes = {d.node for d in simple_candidates}
            majority = decompose_majority(
                mgr, f, config.majority, simple_dominators=simple_nodes
            )
            if majority is not None and accepts_globally(
                mgr, size, majority, config.global_k
            ):
                return ("maj", *(mgr.shape(part, levels) for part in majority.parts()))

        simple = best_simple_decomposition(mgr, f, simple_candidates)
        if simple is not None:
            return (
                simple.kind,
                mgr.shape(simple.upper, levels),
                mgr.shape(simple.lower, levels),
            )
        # Last resort: Shannon cofactoring against the top variable.
        return ("mux",)

    def _replay(self, f: int, decision: Decision, levels: list[int]) -> int:
        """Carry out ``decision`` on ``f``: rebuild each child here and
        decompose it."""
        mgr = self.mgr
        builder = self.builder
        kind = decision[0]
        if kind == "mux":
            self.stats.mux += 1
            top_level = mgr.level_of_edge(f)
            high, low = mgr._cofactors(f, top_level)
            select = builder.literal(mgr.name_of(top_level))
            return builder.mux(select, self.decompose(high), self.decompose(low))

        trees = [self.decompose(mgr.from_shape(child, levels)) for child in decision[1:]]
        if kind == "maj":
            self.stats.majority += 1
            return builder.maj(*trees)
        if kind == KIND_AND:
            self.stats.and_or += 1
            return builder.and_(*trees)
        if kind == KIND_OR:
            self.stats.and_or += 1
            return builder.or_(*trees)
        self.stats.xor += 1
        return builder.xor(*trees)
