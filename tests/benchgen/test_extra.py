"""Functional verification of the extra circuit generators."""

from __future__ import annotations

import random

import pytest

from repro.benchgen.extra import (
    barrel_shifter,
    booth_multiplier,
    comparator,
    kogge_stone_adder,
    parity_tree,
)

from .test_arithmetic import drive, unpack_bus, unpack_scalar

RNG = random.Random(0xA5)
COUNT = 40


class TestKoggeStone:
    @pytest.mark.parametrize("width", [8, 16, 32])
    def test_addition(self, width):
        net = kogge_stone_adder(width)
        a = [RNG.getrandbits(width) for _ in range(COUNT)]
        b = [RNG.getrandbits(width) for _ in range(COUNT)]
        cin = [RNG.getrandbits(1) for _ in range(COUNT)]
        values = drive(net, {"a": (a, width), "b": (b, width), "cin": (cin, 0)}, COUNT)
        sums = unpack_bus(values, "sum", width, COUNT)
        couts = unpack_scalar(values, "cout", COUNT)
        for i in range(COUNT):
            total = a[i] + b[i] + cin[i]
            assert sums[i] == total % (1 << width)
            assert couts[i] == total >> width

    def test_log_depth(self):
        # Parallel prefix: depth grows logarithmically, not linearly.
        assert kogge_stone_adder(32).depth() < 20


class TestBooth:
    @pytest.mark.parametrize("width", [4, 8])
    def test_multiplication(self, width):
        net = booth_multiplier(width)
        a = [RNG.getrandbits(width) for _ in range(COUNT)]
        b = [RNG.getrandbits(width) for _ in range(COUNT)]
        values = drive(net, {"a": (a, width), "b": (b, width)}, COUNT)
        products = unpack_bus(values, "prod", 2 * width, COUNT)
        for i in range(COUNT):
            assert products[i] == a[i] * b[i], (a[i], b[i])

    def test_exhaustive_4bit(self):
        net = booth_multiplier(4)
        for a in range(16):
            for b in range(16):
                values = drive(net, {"a": ([a], 4), "b": ([b], 4)}, 1)
                assert unpack_bus(values, "prod", 8, 1)[0] == a * b


class TestBarrel:
    @pytest.mark.parametrize("width", [8, 16])
    def test_shift(self, width):
        net = barrel_shifter(width)
        select_bits = (width - 1).bit_length()
        data = [RNG.getrandbits(width) for _ in range(COUNT)]
        amount = [RNG.randrange(width) for _ in range(COUNT)]
        values = drive(
            net, {"d": (data, width), "s": (amount, select_bits)}, COUNT
        )
        outputs = unpack_bus(values, "q", width, COUNT)
        for i in range(COUNT):
            expected = (data[i] << amount[i]) & ((1 << width) - 1)
            assert outputs[i] == expected

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            barrel_shifter(12)


class TestComparator:
    def test_random(self):
        width = 12
        net = comparator(width)
        a = [RNG.getrandbits(width) for _ in range(COUNT)]
        b = [RNG.getrandbits(width) for _ in range(COUNT)]
        values = drive(net, {"a": (a, width), "b": (b, width)}, COUNT)
        lt = unpack_scalar(values, "lt", COUNT)
        eq = unpack_scalar(values, "eq", COUNT)
        gt = unpack_scalar(values, "gt", COUNT)
        for i in range(COUNT):
            assert lt[i] == int(a[i] < b[i])
            assert eq[i] == int(a[i] == b[i])
            assert gt[i] == int(a[i] > b[i])

    def test_exactly_one_flag(self):
        net = comparator(6)
        for _ in range(30):
            a, b = RNG.getrandbits(6), RNG.getrandbits(6)
            values = drive(net, {"a": ([a], 6), "b": ([b], 6)}, 1)
            assert values["lt"] + values["eq"] + values["gt"] == 1


class TestParity:
    @pytest.mark.parametrize("width", [3, 16, 32])
    def test_parity(self, width):
        net = parity_tree(width)
        xs = [RNG.getrandbits(width) for _ in range(COUNT)]
        values = drive(net, {"x": (xs, width)}, COUNT)
        result = unpack_scalar(values, "p", COUNT)
        for i in range(COUNT):
            assert result[i] == bin(xs[i]).count("1") % 2


class TestThroughFlows:
    """The extra circuits must synthesize and verify through BDS-MAJ."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: kogge_stone_adder(8),
            lambda: booth_multiplier(4),
            lambda: barrel_shifter(8),
            lambda: comparator(8),
            lambda: parity_tree(16),
        ],
    )
    def test_bdsmaj_flow(self, factory):
        from repro.api import get_pipeline

        net = factory()
        result = get_pipeline("bds-maj").run(net)
        assert result.equivalence is not None and result.equivalence.equivalent
