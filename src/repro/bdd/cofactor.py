"""Generalized cofactors on BDDs: ``restrict`` and ``constrain``.

The BDS-MAJ paper (Section III.C, Equation 3) seeds the majority
decomposition with the generalized cofactors ``H = F|Fa`` and
``W = F|Fa'``, citing Coudert/Madre's *restrict* [17] and *constrain*
[18] operators.  Both operators compute a function ``g`` such that

    f AND c  <=  g  <=  f OR NOT c

i.e. ``g`` agrees with ``f`` everywhere ``c`` holds and is free
(chosen to shrink the BDD) elsewhere.  That interval property is exactly
what Theorem 3.3 needs and is property-tested in the suite.
"""

from __future__ import annotations

from .manager import BDD, BDDError


class CareSetError(BDDError):
    """Raised when a generalized cofactor is taken w.r.t. constant FALSE."""


def constrain(mgr: BDD, f: int, c: int) -> int:
    """Coudert/Madre *constrain* (a.k.a. the image-preserving generalized
    cofactor) of ``f`` w.r.t. care-set ``c``."""
    if c == mgr.ZERO:
        raise CareSetError("constrain w.r.t. the empty care set is undefined")

    cache: dict[tuple[int, int], int] = {}

    def walk(f_edge: int, c_edge: int) -> int:
        if c_edge == mgr.ONE or mgr.is_constant(f_edge):
            return f_edge
        if f_edge == c_edge:
            return mgr.ONE
        if f_edge == c_edge ^ 1:
            return mgr.ZERO
        key = (f_edge, c_edge)
        result = cache.get(key)
        if result is None:
            level = min(mgr.level_of_edge(f_edge), mgr.level_of_edge(c_edge))
            f1, f0 = mgr._cofactors(f_edge, level)
            c1, c0 = mgr._cofactors(c_edge, level)
            if c1 == mgr.ZERO:
                result = walk(f0, c0)
            elif c0 == mgr.ZERO:
                result = walk(f1, c1)
            else:
                result = mgr._mk(level, walk(f1, c1), walk(f0, c0))  # bdslint: disable=ENG002 -- sanctioned friend module: constrain rebuilds nodes through the manager's hash-consing entry point
            cache[key] = result
        return result

    return walk(f, c)


def restrict(mgr: BDD, f: int, c: int) -> int:
    """Coudert/Madre *restrict* (sibling-substitution) generalized
    cofactor of ``f`` w.r.t. care-set ``c``.

    Compared with :func:`constrain`, restrict existentially quantifies
    care-set variables that ``f`` does not depend on, which keeps the
    result's support within the support of ``f``.
    """
    if c == mgr.ZERO:
        raise CareSetError("restrict w.r.t. the empty care set is undefined")

    cache: dict[tuple[int, int], int] = {}

    def walk(f_edge: int, c_edge: int) -> int:
        if c_edge == mgr.ONE or mgr.is_constant(f_edge):
            return f_edge
        if f_edge == c_edge:
            return mgr.ONE
        if f_edge == c_edge ^ 1:
            return mgr.ZERO
        key = (f_edge, c_edge)
        result = cache.get(key)
        if result is None:
            f_level = mgr.level_of_edge(f_edge)
            c_level = mgr.level_of_edge(c_edge)
            if c_level < f_level:
                # The care set constrains a variable f does not test at
                # this point: drop it by existential quantification.
                c1, c0 = mgr._cofactors(c_edge, c_level)
                result = walk(f_edge, mgr.or_(c1, c0))
            else:
                level = f_level
                f1, f0 = mgr._cofactors(f_edge, level)
                c1, c0 = mgr._cofactors(c_edge, level)
                if c1 == mgr.ZERO:
                    result = walk(f0, c0)
                elif c0 == mgr.ZERO:
                    result = walk(f1, c1)
                else:
                    result = mgr._mk(level, walk(f1, c1), walk(f0, c0))  # bdslint: disable=ENG002 -- sanctioned friend module: restrict rebuilds nodes through the manager's hash-consing entry point
            cache[key] = result
        return result

    return walk(f, c)


def generalized_cofactor(mgr: BDD, f: int, c: int, method: str = "restrict") -> int:
    """The generalized cofactor named by ``method`` (``"restrict"`` or
    ``"constrain"``)."""
    if method == "restrict":
        return restrict(mgr, f, c)
    if method == "constrain":
        return constrain(mgr, f, c)
    raise BDDError(f"unknown generalized cofactor method {method!r}")
