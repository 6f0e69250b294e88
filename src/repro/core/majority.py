"""Majority logic decomposition — Algorithm 1 of BDS-MAJ.

Given a function ``F``, find ``F = Maj(Fa, Fb, Fc)``:

α.  candidate ``Fa`` functions are rooted at non-trivial m-dominators
    (:mod:`repro.core.mdominators`);
β.  ``Fb`` and ``Fc`` are constructed per Theorem 3.2 with the
    Theorem 3.3 generalized-cofactor seeds (Coudert/Madre *restrict*)::

        Fb = ITE(Fa ⊕ F, F, F|Fa)
        Fc = ITE(Fa ⊕ F, F, F|Fa')

γ.  the triple is improved by *cyclic balancing* (Theorem 3.4): for a
    pair (X, Y), ``Fx = X ⊕ Y`` is XOR-decomposed into balanced (M, K)
    and the pair is restructured as ``Xopt = ITE(Fx, K, X)``,
    ``Yopt = ITE(Fx, M, Y)`` — on inputs where X ≠ Y only the third
    function matters, so the pair may be freely rewritten there as long
    as it keeps disagreeing;
ω.  the best triple across all candidates is selected with the
    sum-of-sizes metric refined by the k-balance condition
    (Section III.E; local k = 1.5).

The search runs on truth tables.  Every function Algorithm 1 forms is a
Boolean combination of ``F`` and its subfunctions (``Fa`` is a
subfunction of ``F``; the restrict seeds, the ``ITE`` rebalancing and
the ``v·f`` split products combine those), so its support lies inside
``supp(F)`` and a truth table over ``supp(F)`` represents it exactly.
While ``F`` has at most :data:`~repro.bdd.dominators.EXHAUSTIVE_LEVELS`
(12) support levels, a table is one int of at most 4,096 bits, and
:func:`decompose_majority` runs β, γ and ω on tables (:class:`_Tables`):

* one pass reads the tables of ``F`` and of every candidate ``Fa``; an
  edge with a level outside ``supp(F)`` is refused, never masked;
* :func:`repro.truthtable.restrict` takes the BDD ``restrict``'s
  branches, the table :func:`xor_split` tries the BDD split's candidates
  in the BDD split's order, and :mod:`repro.truthtable` reads BDD sizes
  and cut nodes off the tables, so every decision and size is the BDD
  search's;
* no node is built: the returned triple builds its edges on the first
  read of a part, which the engine does only after
  :func:`accepts_globally` has accepted the triple on its table sizes.

Above 12 levels a table is larger than the BDD and the search runs on
BDDs (:class:`_Edges`), as do :func:`construct` and :func:`optimize`
when they are called on edges.

Every triple is certified (disable via ``MajorityConfig.verify`` for
speed once trust is established — the test suite always verifies):

* after construction and after every balancing iteration, by
  ``Maj(Fa,Fb,Fc) == F`` in the search's own space: on tables, which is
  exhaustive over ``supp(F)``, or by canonical BDD equality;
* a table triple's edges, when they are built, by BDD equality again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bdd import BDD
from ..bdd.cofactor import restrict as restrict_edge
from ..bdd.dominators import EXHAUSTIVE_LEVELS
from ..bdd.dominators import xor_split as split_edge
from ..bdd.substitute import function_at
from ..truthtable import bdd_size, cut_functions, full_mask, level_columns
from ..truthtable import restrict as restrict_table
from .mdominators import MDominatorConfig, find_m_dominators


class MajorityDecompositionError(Exception):
    """Raised when a constructed triple fails the Maj == F certification."""


@dataclass
class MajorityConfig:
    """Tunables of Algorithm 1 with the paper's defaults."""

    #: Sizing factor of the local selection metric (Section IV.B).
    local_k: float = 1.5
    #: Maximum cyclic-optimization iterations (Section IV.B sets 5).
    max_balance_iterations: int = 5
    #: Certify Maj(Fa,Fb,Fc) == F after every construction step.
    verify: bool = True
    #: m-dominator selection constraints (α-phase).
    mdominator: MDominatorConfig = field(default_factory=MDominatorConfig)


class _Edges:
    """Algorithm 1's operations on the BDD edges of ``mgr``."""

    def __init__(self, mgr: BDD) -> None:
        self.mgr = mgr

    def value(self, edge: int) -> int:
        return edge

    def complement(self, x: int) -> int:
        return x ^ 1

    def xor(self, x: int, y: int) -> int:
        return self.mgr.xor(x, y)

    def ite(self, c: int, t: int, e: int) -> int:
        return self.mgr.ite(c, t, e)

    def restrict(self, f: int, care: int) -> int:
        return restrict_edge(self.mgr, f, care)

    def maj(self, a: int, b: int, c: int) -> int:
        return self.mgr.maj(a, b, c)

    def balance(self, x: int, y: int) -> tuple[int, int]:
        return balance_pair(self.mgr, x, y)

    def size(self, x: int) -> int:
        return self.mgr.size(x)

    def edges(self, triple: tuple[int, int, int]) -> tuple[int, int, int]:
        return triple


class _Tables:
    """Algorithm 1's operations on truth tables over the support
    ``levels`` of ``f``, for one search.

    One :meth:`BDD.edge_tables` pass reads the tables of ``f`` and of
    the ``candidates`` edges.  Sizes are memoized for the search only.
    :meth:`edges` builds a triple in ``mgr`` and, under ``verify``,
    certifies it by BDD equality.
    """

    def __init__(
        self, mgr: BDD, f: int, levels: list[int], candidates: list[int], verify: bool
    ) -> None:
        self.mgr = mgr
        self.f = f
        self.levels = levels
        self.verify = verify
        self.num_vars = len(levels)
        self.full = full_mask(self.num_vars)
        edges = [f, *candidates]
        self._tables = dict(zip(edges, mgr.edge_tables(edges, levels)))
        self._sizes: dict[int, int] = {}

    def value(self, edge: int) -> int:
        return self._tables[edge]

    def complement(self, x: int) -> int:
        return x ^ self.full

    def xor(self, x: int, y: int) -> int:
        return x ^ y

    def ite(self, c: int, t: int, e: int) -> int:
        return c & t | e & ~c

    def restrict(self, f: int, care: int) -> int:
        return restrict_table(f, care, self.num_vars)

    def maj(self, a: int, b: int, c: int) -> int:
        return a & b | a & c | b & c

    def balance(self, x: int, y: int) -> tuple[int, int]:
        return balance_tables(x, y, self.num_vars)

    def size(self, x: int) -> int:
        size = self._sizes.get(x)
        if size is None:
            size = self._sizes[x] = bdd_size(x, self.num_vars)
        return size

    def edges(self, triple: tuple[int, int, int]) -> tuple[int, int, int]:
        fa, fb, fc = (self.mgr.table_edge(table, self.levels) for table in triple)
        if self.verify:
            certify(self.mgr, self.f, MajorityDecomposition(fa, fb, fc))
        return fa, fb, fc


class MajorityDecomposition:
    """A certified decomposition ``F = Maj(fa, fb, fc)`` (edges in ``mgr``).

    A triple of Algorithm 1 holds the values of its search's ``space``:
    BDD edges, or truth tables whose sizes are read off the tables and
    whose edges are built (and certified) on the first read of a part.
    A triple made by hand holds edges and no space.
    """

    def __init__(
        self,
        fa: int,
        fb: int,
        fc: int,
        dominator_node: int = -1,
        space: _Edges | _Tables | None = None,
    ) -> None:
        self.values = (fa, fb, fc)
        self.dominator_node = dominator_node
        self.space = space
        self._edges: tuple[int, int, int] | None = None
        self._sizes: tuple[int, int, int] | None = None

    @property
    def fa(self) -> int:
        return self.parts()[0]

    @property
    def fb(self) -> int:
        return self.parts()[1]

    @property
    def fc(self) -> int:
        return self.parts()[2]

    def parts(self) -> tuple[int, int, int]:
        if self._edges is None:
            self._edges = self.values if self.space is None else self.space.edges(self.values)
        return self._edges

    def sizes(self, mgr: BDD) -> tuple[int, int, int]:
        if self._sizes is None:
            size = mgr.size if self.space is None else self.space.size
            fa, fb, fc = self.values
            self._sizes = (size(fa), size(fb), size(fc))
        return self._sizes

    def total_size(self, mgr: BDD) -> int:
        return sum(self.sizes(mgr))


def _check(space: _Edges | _Tables, f: int, triple: tuple[int, int, int], stage: str) -> None:
    """Raise unless ``Maj(triple) == f`` in ``space``."""
    if space.maj(*triple) != f:
        raise MajorityDecompositionError(f"the {stage} triple does not reproduce F")


# ----------------------------------------------------------------------
# β-phase: construction (Theorems 3.2 / 3.3)
# ----------------------------------------------------------------------
def construct(
    mgr: BDD,
    f: int,
    fa: int,
    config: MajorityConfig | None = None,
    space: _Edges | _Tables | None = None,
) -> MajorityDecomposition:
    """Build ``Fb``/``Fc`` for a given ``Fa`` candidate (Equation 1 + 3).

    ``f`` and ``fa`` are edges.  The construction runs in ``space``
    (the tables of :func:`decompose_majority`'s search), or on the BDD
    edges of ``mgr`` when it is ``None``.
    """
    if config is None:
        config = MajorityConfig()
    if mgr.is_constant(fa):
        raise MajorityDecompositionError("Fa must not be constant")
    if space is None:
        space = _Edges(mgr)
    f, fa = space.value(f), space.value(fa)
    disagreement = space.xor(fa, f)
    seed_h = space.restrict(f, fa)
    seed_w = space.restrict(f, space.complement(fa))
    triple = (fa, space.ite(disagreement, f, seed_h), space.ite(disagreement, f, seed_w))
    if config.verify:
        _check(space, f, triple, "constructed")
    return MajorityDecomposition(*triple, space=space)


def certify(mgr: BDD, f: int, decomposition: MajorityDecomposition) -> None:
    """Raise unless ``Maj(Fa, Fb, Fc) == F`` (canonical equality)."""
    rebuilt = mgr.maj(*decomposition.parts())
    if rebuilt != f:
        raise MajorityDecompositionError(
            "majority decomposition does not reproduce F "
            f"(sizes {decomposition.sizes(mgr)})"
        )


# ----------------------------------------------------------------------
# γ-phase: cyclic balancing (Theorem 3.4)
# ----------------------------------------------------------------------
def balance_pair(mgr: BDD, x: int, y: int) -> tuple[int, int]:
    """Restructure the pair (X, Y) of a majority triple.

    ``Fx = X ⊕ Y`` is split into (M, K) with ``M ⊕ K = Fx`` (Equation 5)
    and the pair becomes ``ITE(Fx, K, X)``, ``ITE(Fx, M, Y)``
    (Equation 4): untouched where X == Y, rebalanced where they differ.
    """
    fx = mgr.xor(x, y)
    if fx == mgr.ZERO:
        return x, y
    m, k = split_edge(mgr, fx)
    x_new = mgr.ite(fx, k, x)
    y_new = mgr.ite(fx, m, y)
    return x_new, y_new


def xor_split(table: int, num_vars: int, max_dominator_nodes: int = 150) -> tuple[int, int]:
    """:func:`repro.bdd.dominators.xor_split` on a truth table over
    ``num_vars`` variables in :func:`~repro.truthtable.level_columns`
    order: the same candidates, scored the same, in the same order, so
    it returns the tables of the BDD split's ``(M, K)``.

    1. the x-dominators, while the table's BDD has at most
       ``max_dominator_nodes`` nodes: for each cut node ``h``, top-down,
       ``M = table ⊕ h`` and ``K = h``;
    2. for each variable ``v`` the table depends on, top-down,
       ``M = v·table`` and ``K = v'·table``.
    """
    if table == 0 or table == full_mask(num_vars):
        return table, 0
    best_pair = (table, 0)
    best_score: tuple[int, int] | None = None
    size, cuts = cut_functions(table, num_vars)
    candidates = [(table ^ h, h) for h in cuts] if size <= max_dominator_nodes else []
    for position, column in enumerate(level_columns(num_vars)):
        high = table & column
        low = table & ~column
        if high >> (1 << (num_vars - 1 - position)) != low:
            candidates.append((high, low))
    for m, k in candidates:
        m_size = bdd_size(m, num_vars)
        if best_score is not None and m_size > best_score[0]:
            continue  # its score's first key exceeds the best's
        k_size = bdd_size(k, num_vars)
        score = (max(m_size, k_size), abs(m_size - k_size))
        if best_score is None or score < best_score:
            best_pair, best_score = (m, k), score
    return best_pair


def balance_tables(x: int, y: int, num_vars: int) -> tuple[int, int]:
    """:func:`balance_pair` on truth tables over ``num_vars`` variables."""
    fx = x ^ y
    if not fx:
        return x, y
    m, k = xor_split(fx, num_vars)
    return fx & k | x & ~fx, fx & m | y & ~fx


def optimize(
    mgr: BDD, f: int, decomposition: MajorityDecomposition, config: MajorityConfig | None = None
) -> MajorityDecomposition:
    """Iterate balancing over all pairs until no improvement or the
    iteration limit is reached; return the best certified triple seen.

    The iterations run in the triple's space: on the tables of a table
    search (see the module docstring), or on BDD edges of ``mgr``.
    """
    if config is None:
        config = MajorityConfig()
    space = decomposition.space or _Edges(mgr)
    f = space.value(f)
    best = decomposition
    best_size = decomposition.total_size(mgr)
    triple = decomposition.values
    for _ in range(config.max_balance_iterations):
        fa, fb, fc = triple
        # All pairs, in the order of Algorithm 1's inner loop.
        fb, fc = space.balance(fb, fc)
        fa, fb = space.balance(fa, fb)
        fa, fc = space.balance(fa, fc)
        triple = (fa, fb, fc)
        if config.verify:
            _check(space, f, triple, "balanced")
        current = MajorityDecomposition(*triple, decomposition.dominator_node, space)
        current_size = current.total_size(mgr)
        if current_size < best_size:
            best, best_size = current, current_size
        else:
            break  # no improvement this iteration
    return best


# ----------------------------------------------------------------------
# ω-phase: selection (Section III.E)
# ----------------------------------------------------------------------
def is_better(
    mgr: BDD,
    candidate: MajorityDecomposition,
    incumbent: MajorityDecomposition,
    k: float = 1.5,
) -> bool:
    """Local selection metric.

    The k-balance condition — every component of one triple being k
    times smaller than the other's — acts as a dominance certificate;
    otherwise the sum of sizes decides, with the largest component as
    tie-break (favouring balanced triples).
    """
    cand = candidate.sizes(mgr)
    inc = incumbent.sizes(mgr)
    if all(k * c <= i for c, i in zip(cand, inc)):
        return True
    if all(k * i <= c for c, i in zip(cand, inc)):
        return False
    if sum(cand) != sum(inc):
        return sum(cand) < sum(inc)
    return max(cand) < max(inc)


def accepts_globally(
    mgr: BDD, f_size: int, decomposition: MajorityDecomposition, k: float = 1.6
) -> bool:
    """Global selection metric (Section IV.B): compare against the size
    ``f_size`` of the original BDD with sizing factor k = 1.6.

    Requires the summed size to beat the original *and* every component
    to be k times smaller — the latter also guarantees structural
    progress, hence termination of the recursive engine.

    Support bound: no triple of ``f`` is accepted when ``f_size`` equals
    the support size of ``f``.  ``Maj(Fa, Fb, Fc) = f`` implies that
    every support variable of ``f`` is in the support of ``Fa``, ``Fb``
    or ``Fc``, and a reduced BDD has at least one node per support
    variable, so the summed size is at least ``|supp(f)|`` and the
    first test fails.  The engine skips
    Algorithm 1 on such functions.  The bound is tight: accepted
    triples with ``f_size = |supp(f)| + 1`` occur (e.g. on alu2).
    """
    sizes = decomposition.sizes(mgr)
    if sum(sizes) >= f_size:
        return False
    return all(k * s <= f_size for s in sizes)


# ----------------------------------------------------------------------
# Algorithm 1, assembled
# ----------------------------------------------------------------------
def decompose_majority(
    mgr: BDD,
    f: int,
    config: MajorityConfig | None = None,
    simple_dominators: set[int] | None = None,
) -> MajorityDecomposition | None:
    """Run Algorithm 1 on ``f``; return the best certified triple or
    ``None`` when no m-dominator candidate exists.

    While ``f`` has at most :data:`EXHAUSTIVE_LEVELS` support levels the
    search runs on truth tables over them and builds nothing; the
    returned triple builds its edges when a part is read (see the module
    docstring).  Above that it runs on BDDs.

    The caller decides acceptance (e.g. via :func:`accepts_globally`)
    — Algorithm 1 itself only ranks the candidates it found.
    ``simple_dominators`` is forwarded to the α-phase search.
    """
    if config is None:
        config = MajorityConfig()
    if mgr.is_constant(f):
        return None
    candidates = find_m_dominators(mgr, f, config.mdominator, simple_dominators)
    if not candidates:
        return None
    seeds = [function_at(mgr, candidate.node) for candidate in candidates]
    levels = sorted(mgr.support_levels(f))
    space = None
    if len(levels) <= EXHAUSTIVE_LEVELS:
        space = _Tables(mgr, f, levels, seeds, config.verify)

    best: MajorityDecomposition | None = None
    for candidate, fa in zip(candidates, seeds):
        decomposition = construct(mgr, f, fa, config, space)
        decomposition.dominator_node = candidate.node
        decomposition = optimize(mgr, f, decomposition, config)
        if best is None or is_better(mgr, decomposition, best, config.local_k):
            best = decomposition
    return best
