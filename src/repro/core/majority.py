"""Majority logic decomposition — Algorithm 1 of BDS-MAJ.

Given a function ``F``, find ``F = Maj(Fa, Fb, Fc)``:

α.  candidate ``Fa`` functions are rooted at non-trivial m-dominators
    (:mod:`repro.core.mdominators`);
β.  ``Fb`` and ``Fc`` are constructed per Theorem 3.2 with the
    Theorem 3.3 generalized-cofactor seeds::

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

γ runs on truth tables.  Every function Algorithm 1 forms is a Boolean
combination of ``F`` and its subfunctions (``Fa`` is a subfunction of
``F``; the generalized-cofactor seeds, the ``ITE`` rebalancing and the
``v·f`` split products combine those), so its support lies inside
``supp(F)`` and a truth table over ``supp(F)`` represents it exactly;
an edge with a level outside ``supp(F)`` is refused, never masked.
While ``F`` has at most :data:`~repro.bdd.dominators.EXHAUSTIVE_LEVELS`
(12) support levels, a table is one int of at most 4,096 bits, and
:func:`optimize` balances on tables (:mod:`repro.truthtable` reads BDD
sizes and cut nodes off them) and builds only the triple it returns.
The table :func:`xor_split` tries the BDD split's candidates in the BDD
split's order, so every decision and size is the BDD iteration's.
Above 12 levels a table is larger than the BDD and the iteration runs
on BDDs.

Every constructed triple is certified (disable via
``MajorityConfig.verify`` for speed once trust is established — the
test suite always verifies):

* after construction, by the canonical BDD equality
  ``Maj(Fa,Fb,Fc) == F``;
* after every balancing iteration, by ``Maj(Fa,Fb,Fc) == F`` on the
  tables, which is exhaustive over ``supp(F)`` (by BDD equality above
  12 levels);
* the triple :func:`optimize` builds back into the manager, by BDD
  equality again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bdd import BDD
from ..bdd.cofactor import generalized_cofactor
from ..bdd.dominators import EXHAUSTIVE_LEVELS
from ..bdd.dominators import xor_split as split_edge
from ..bdd.substitute import function_at
from ..truthtable import bdd_size, cut_functions, full_mask, level_columns
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
    #: Generalized cofactor used for the Theorem 3.3 seeds.
    cofactor_method: str = "restrict"
    #: Certify Maj(Fa,Fb,Fc) == F after every construction step.
    verify: bool = True
    #: m-dominator selection constraints (α-phase).
    mdominator: MDominatorConfig = field(default_factory=MDominatorConfig)


@dataclass
class MajorityDecomposition:
    """A certified decomposition ``F = Maj(fa, fb, fc)`` (edges in ``mgr``)."""

    fa: int
    fb: int
    fc: int
    dominator_node: int = -1
    #: :meth:`sizes`, once computed (the triple never changes).
    _sizes: tuple[int, int, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def parts(self) -> tuple[int, int, int]:
        return self.fa, self.fb, self.fc

    def sizes(self, mgr: BDD) -> tuple[int, int, int]:
        if self._sizes is None:
            self._sizes = (mgr.size(self.fa), mgr.size(self.fb), mgr.size(self.fc))
        return self._sizes

    def total_size(self, mgr: BDD) -> int:
        return sum(self.sizes(mgr))


# ----------------------------------------------------------------------
# β-phase: construction (Theorems 3.2 / 3.3)
# ----------------------------------------------------------------------
def construct(mgr: BDD, f: int, fa: int, config: MajorityConfig | None = None) -> MajorityDecomposition:
    """Build ``Fb``/``Fc`` for a given ``Fa`` candidate (Equation 1 + 3)."""
    if config is None:
        config = MajorityConfig()
    if mgr.is_constant(fa):
        raise MajorityDecompositionError("Fa must not be constant")
    disagreement = mgr.xor(fa, f)
    seed_h = generalized_cofactor(mgr, f, fa, config.cofactor_method)
    seed_w = generalized_cofactor(mgr, f, fa ^ 1, config.cofactor_method)
    fb = mgr.ite(disagreement, f, seed_h)
    fc = mgr.ite(disagreement, f, seed_w)
    decomposition = MajorityDecomposition(fa, fb, fc)
    if config.verify:
        certify(mgr, f, decomposition)
    return decomposition


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
    candidates: list[tuple[int, int]] = []
    if bdd_size(table, num_vars) <= max_dominator_nodes:
        candidates = [(table ^ h, h) for h in cut_functions(table, num_vars)]
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

    While ``f`` has at most :data:`EXHAUSTIVE_LEVELS` support levels the
    iterations run on truth tables over them (see the module docstring)
    and only the returned triple is built; above that they run on BDDs.
    """
    if config is None:
        config = MajorityConfig()
    levels = sorted(mgr.support_levels(f))
    if len(levels) > EXHAUSTIVE_LEVELS:
        return _optimize_edges(mgr, f, decomposition, config)
    num_vars = len(levels)
    table_f, *triple = mgr.edge_tables([f, *decomposition.parts()], levels)
    best = None
    best_size = decomposition.total_size(mgr)
    for _ in range(config.max_balance_iterations):
        fa, fb, fc = triple
        # All pairs, in the order of Algorithm 1's inner loop.
        fb, fc = balance_tables(fb, fc, num_vars)
        fa, fb = balance_tables(fa, fb, num_vars)
        fa, fc = balance_tables(fa, fc, num_vars)
        triple = [fa, fb, fc]
        if config.verify and (fa & fb | fa & fc | fb & fc) != table_f:
            raise MajorityDecompositionError(
                "balanced triple does not reproduce F on every input of its support"
            )
        size = sum(bdd_size(table, num_vars) for table in triple)
        if size < best_size:
            best, best_size = triple, size
        else:
            break  # no improvement this iteration
    if best is None:
        return decomposition
    result = MajorityDecomposition(
        *(mgr.table_edge(table, levels) for table in best), decomposition.dominator_node
    )
    if config.verify:
        certify(mgr, f, result)
    return result


def _optimize_edges(
    mgr: BDD, f: int, decomposition: MajorityDecomposition, config: MajorityConfig
) -> MajorityDecomposition:
    """:func:`optimize` on BDDs, certifying every iteration."""
    best = decomposition
    best_size = best.total_size(mgr)
    current = decomposition
    for _ in range(config.max_balance_iterations):
        fa, fb, fc = current.parts()
        # All pairs, in the order of Algorithm 1's inner loop.
        fb, fc = balance_pair(mgr, fb, fc)
        fa, fb = balance_pair(mgr, fa, fb)
        fa, fc = balance_pair(mgr, fa, fc)
        current = MajorityDecomposition(fa, fb, fc, current.dominator_node)
        if config.verify:
            certify(mgr, f, current)
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

    The caller decides acceptance (e.g. via :func:`accepts_globally`)
    — Algorithm 1 itself only ranks the candidates it found.
    ``simple_dominators`` is forwarded to the α-phase search.
    """
    if config is None:
        config = MajorityConfig()
    if mgr.is_constant(f):
        return None

    best: MajorityDecomposition | None = None
    for candidate in find_m_dominators(mgr, f, config.mdominator, simple_dominators):
        fa = function_at(mgr, candidate.node)
        try:
            decomposition = construct(mgr, f, fa, config)
        except MajorityDecompositionError:
            raise  # construction is proven correct; surface any violation
        decomposition.dominator_node = candidate.node
        decomposition = optimize(mgr, f, decomposition, config)
        if best is None or is_better(mgr, decomposition, best, config.local_k):
            best = decomposition
    return best
