"""Tests for AIG optimization passes (balance / rewrite / refactor / resyn2)."""

from __future__ import annotations

import random

import pytest

from repro.aig import (
    Aig,
    aig_to_network,
    balance,
    network_to_aig,
    refactor,
    resyn2,
    rewrite,
)
from repro.benchgen import ripple_carry_adder, wallace_multiplier
from repro.benchgen.random_logic import random_control_network
from repro.network import check_equivalence


def random_aig(seed: int, num_inputs: int = 8, num_gates: int = 60) -> Aig:
    rng = random.Random(seed)
    aig = Aig()
    pool = [aig.add_input(f"x{i}") for i in range(num_inputs)]
    for _ in range(num_gates):
        a, b = rng.sample(pool, 2)
        literal = aig.and_(a ^ rng.getrandbits(1), b ^ rng.getrandbits(1))
        pool.append(literal)
    for index in range(6):
        aig.add_output(f"y{index}", pool[-(index + 1)] ^ rng.getrandbits(1))
    return aig


def equivalent(left: Aig, right: Aig, num_inputs: int, vectors: int = 256) -> bool:
    rng = random.Random(99)
    names = left.inputs
    assert names == right.inputs
    mask = (1 << vectors) - 1
    stimulus = {name: rng.getrandbits(vectors) for name in names}
    return left.simulate(stimulus, mask) == right.simulate(stimulus, mask)


class TestBalance:
    def test_balance_reduces_chain_depth(self):
        aig = Aig()
        literals = [aig.add_input(f"x{i}") for i in range(16)]
        chain = literals[0]
        for literal in literals[1:]:
            chain = aig.and_(chain, literal)
        aig.add_output("o", chain)
        balanced = balance(aig)
        assert balanced.depth() == 4  # log2(16)
        assert equivalent(aig, balanced, 16)

    def test_balance_preserves_function(self):
        for seed in range(5):
            aig = random_aig(seed)
            assert equivalent(aig, balance(aig), 8)

    def test_balance_does_not_duplicate_shared_logic(self):
        aig = Aig()
        a, b, c = (aig.add_input(n) for n in "abc")
        shared = aig.and_(a, b)
        aig.add_output("x", aig.and_(shared, c))
        aig.add_output("y", aig.and_(shared, c ^ 1))
        balanced = balance(aig)
        assert balanced.size() <= aig.size()


class TestRefactor:
    def test_refactor_removes_redundancy(self):
        # Build (a&b) | (a&~b) == a the hard way.
        aig = Aig()
        a, b = aig.add_input("a"), aig.add_input("b")
        redundant = aig.or_(aig.and_(a, b), aig.and_(a, b ^ 1))
        aig.add_output("o", redundant)
        optimized = refactor(aig, max_leaves=4)
        assert optimized.size() < aig.size()
        assert equivalent(aig, optimized, 2)

    def test_refactor_preserves_function(self):
        for seed in range(6):
            aig = random_aig(seed, num_gates=80)
            optimized = refactor(aig)
            assert equivalent(aig, optimized, 8), f"seed {seed}"

    def test_rewrite_preserves_function(self):
        for seed in range(6):
            aig = random_aig(seed + 100)
            optimized = rewrite(aig)
            assert equivalent(aig, optimized, 8), f"seed {seed}"

    def test_zero_cost_mode_never_grows(self):
        aig = random_aig(7)
        base = aig.cleanup().size()
        assert rewrite(aig, zero_cost=True).size() <= base


class TestResyn2:
    def test_resyn2_never_worse(self):
        for seed in (1, 2, 3):
            aig = random_aig(seed, num_gates=100)
            optimized = resyn2(aig)
            assert optimized.size() <= aig.cleanup().size()
            assert equivalent(aig, optimized, 8)

    def test_resyn2_on_adder_network(self):
        net = ripple_carry_adder(6)
        aig = network_to_aig(net)
        optimized = resyn2(aig)
        back = aig_to_network(optimized, name=net.name)
        assert check_equivalence(net, back).equivalent

    def test_resyn2_on_control_network(self):
        net = random_control_network("rc", 12, 6, 80, seed=42)
        aig = network_to_aig(net)
        optimized = resyn2(aig)
        back = aig_to_network(optimized, name=net.name)
        assert check_equivalence(net, back).equivalent

    @pytest.mark.slow
    def test_resyn2_on_multiplier(self):
        net = wallace_multiplier(4)
        aig = network_to_aig(net)
        optimized = resyn2(aig)
        back = aig_to_network(optimized, name=net.name)
        assert check_equivalence(net, back).equivalent
        assert optimized.size() <= aig.size()
