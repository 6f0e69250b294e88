"""Equivalence checking between networks.

Three strategies, composed by :func:`check_equivalence` (and by
:func:`check_all_equivalent`, which checks several networks against one
reference on the same stimuli):

* **exhaustive simulation** for up to ``exhaustive_limit`` inputs —
  bit-parallel, so 2^n vectors cost 2^n / word-size network passes;
* **random simulation** beyond that (probabilistic, seeded);
* **BDD-based** formal check as an opt-in for medium circuits.

Every synthesis flow in this reproduction verifies its output against
its input with this module — the paper's correctness baseline is that
synthesis preserves function.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from ..truthtable import var_mask
from .bdds import BddSizeExceeded, global_bdds
from .netlist import LogicNetwork, NetworkError


@dataclass
class EquivalenceResult:
    equivalent: bool
    method: str
    vectors: int
    counterexample: dict[str, int] | None = None

    def __bool__(self) -> bool:
        return self.equivalent


def _interfaces_match(left: LogicNetwork, right: LogicNetwork) -> None:
    if set(left.inputs) != set(right.inputs):
        raise NetworkError(
            f"input mismatch: {sorted(set(left.inputs) ^ set(right.inputs))}"
        )
    if set(left.outputs) != set(right.outputs):
        raise NetworkError(
            f"output mismatch: {sorted(set(left.outputs) ^ set(right.outputs))}"
        )


#: Vectors simulated per bit-parallel pass.
_BATCH = 4096

#: One stimulus batch: packed vector per input, width, and the vector
#: count a failure in this batch reports.
_Batch = tuple[dict[str, int], int, int]


def _exhaustive_batches(inputs: Sequence[str]) -> Iterator[_Batch]:
    """All 2^n vectors, vector ``v`` in bit ``v % width`` of batch
    ``v // width``.  Input ``i`` below log2(width) takes the standard
    variable mask (runs of 2^i zeros then 2^i ones); a higher input is
    constant across a batch."""
    total = 1 << len(inputs)
    width = min(total, _BATCH)
    full = (1 << width) - 1
    low = width.bit_length() - 1
    masks = [var_mask(i, low) for i in range(min(len(inputs), low))]
    for base in range(0, total, width):
        stimulus = {
            name: masks[i] if i < low else (full if base >> i & 1 else 0)
            for i, name in enumerate(inputs)
        }
        yield stimulus, width, total


def _random_batches(inputs: Sequence[str], vectors: int, seed: int) -> Iterator[_Batch]:
    rng = random.Random(seed)
    width = min(vectors, _BATCH)
    tested = 0
    while tested < vectors:
        batch = min(width, vectors - tested)
        tested += batch
        yield {name: rng.getrandbits(batch) for name in inputs}, batch, tested


def _compare(
    reference: LogicNetwork,
    candidates: Sequence[LogicNetwork],
    method: str,
    batches: Iterator[_Batch],
) -> EquivalenceResult:
    """Simulate ``reference`` once per batch and compare every candidate
    against it.  A failure is reported as the separate checks of each
    candidate in turn would report it: the first failing candidate wins,
    with its first failing batch and output."""
    for candidate in candidates:
        _interfaces_match(reference, candidate)
    found: EquivalenceResult | None = None
    pending = len(candidates)  # later candidates can no longer be reported
    vectors = 0
    for stimulus, width, vectors in batches:
        expected = reference.simulate(stimulus, width)
        for position in range(pending):
            actual = candidates[position].simulate(stimulus, width)
            difference = next(
                (expected[o] ^ actual[o] for o in reference.outputs if expected[o] != actual[o]), 0
            )
            if difference:
                offset = (difference & -difference).bit_length() - 1
                counterexample = {name: value >> offset & 1 for name, value in stimulus.items()}
                found = EquivalenceResult(False, method, vectors, counterexample)
                pending = position
                break
        if pending == 0:
            break
    return EquivalenceResult(True, method, vectors) if found is None else found


def exhaustive_equivalent(left: LogicNetwork, right: LogicNetwork) -> EquivalenceResult:
    """Compare on all 2^n input vectors (bit-parallel batches of 4096)."""
    return _compare(left, (right,), "exhaustive", _exhaustive_batches(left.inputs))


def random_equivalent(
    left: LogicNetwork,
    right: LogicNetwork,
    vectors: int = 2048,
    seed: int = 2013,
) -> EquivalenceResult:
    """Compare on ``vectors`` random input vectors (probabilistic)."""
    return _compare(left, (right,), "random", _random_batches(left.inputs, vectors, seed))


def bdd_equivalent(
    left: LogicNetwork, right: LogicNetwork, max_nodes: int = 200_000
) -> EquivalenceResult:
    """Formal check via global BDDs (raises BddSizeExceeded when the
    circuits are too wide for monolithic BDDs)."""
    _interfaces_match(left, right)
    mgr, left_roots = global_bdds(left, max_nodes=max_nodes)
    mgr, right_roots = global_bdds(right, mgr=mgr, max_nodes=max_nodes)
    for output in left.outputs:
        if left_roots[output] != right_roots[output]:
            difference = mgr.xor(left_roots[output], right_roots[output])
            assignment = mgr.pick_assignment(difference) or {}
            counterexample = {
                name: int(assignment.get(name, 0)) for name in left.inputs
            }
            return EquivalenceResult(False, "bdd", 0, counterexample)
    return EquivalenceResult(True, "bdd", 0)


def check_equivalence(
    left: LogicNetwork,
    right: LogicNetwork,
    exhaustive_limit: int = 12,
    vectors: int = 2048,
    seed: int = 2013,
) -> EquivalenceResult:
    """Pick the strongest affordable strategy automatically."""
    return check_all_equivalent(left, (right,), exhaustive_limit, vectors, seed)


def check_all_equivalent(
    reference: LogicNetwork,
    candidates: Sequence[LogicNetwork],
    exhaustive_limit: int = 12,
    vectors: int = 2048,
    seed: int = 2013,
) -> EquivalenceResult:
    """:func:`check_equivalence` of ``reference`` against each candidate
    in turn, on one set of stimuli: ``reference`` is simulated once per
    batch, not once per candidate.  Returns the first candidate's
    failure, or the shared success."""
    inputs = reference.inputs
    if len(inputs) <= exhaustive_limit:
        return _compare(reference, candidates, "exhaustive", _exhaustive_batches(inputs))
    return _compare(reference, candidates, "random", _random_batches(inputs, vectors, seed))
