"""MCNC benchmark stand-ins used by Tables I and II.

The MCNC suite is not redistributable, so each circuit is re-created:

* where the function is documented (C6288 = 16x16 array multiplier,
  C1355 = 32-bit SEC circuit, alu2 = small ALU, f51m = 8-bit arithmetic
  block) the stand-in computes the real function;
* PLA/random-control benchmarks (vda, misex3, seq, apex6, bigkey) get
  seeded synthetic networks matched to the published PI/PO counts and
  logic character.

See DESIGN.md for the substitution rationale: all four compared flows
consume identical inputs, so relative results are preserved.
"""

from __future__ import annotations

from ..network import LogicNetwork
from .arithmetic import (
    _Namer,
    _bus,
    _mux_bus,
    _out_bus,
    _ripple_add,
    array_multiplier,
)
from .ecc import hamming_corrector
from .random_logic import (
    key_mixing_network,
    random_control_network,
    random_pla_network,
)


def alu2(name: str = "alu2") -> LogicNetwork:
    """A 3-bit, 8-operation ALU (10 PIs / 6 POs like MCNC alu2).

    Inputs: a[3], b[3], cin, op[3].  Outputs: r[3], cout, zero, ovf.
    Operations: ADD, SUB, AND, OR, XOR, XNOR, NOT-A, PASS-B.
    """
    net = LogicNetwork(name)
    namer = _Namer()
    a = _bus(net, "a", 3)
    b = _bus(net, "b", 3)
    cin = net.add_input("cin")
    op = _bus(net, "op", 3)

    add_sum, add_carry = _ripple_add(net, namer, a, b, cin=cin)
    not_b = [net.add_not(namer("nb"), bit) for bit in b]
    sub_sum, sub_carry = _ripple_add(net, namer, a, not_b, cin=cin)
    and_bits = [net.add_and(namer("andb"), a[i], b[i]) for i in range(3)]
    or_bits = [net.add_or(namer("orb"), a[i], b[i]) for i in range(3)]
    xor_bits = [net.add_xor(namer("xorb"), a[i], b[i]) for i in range(3)]
    xnor_bits = [net.add_xnor(namer("xnorb"), a[i], b[i]) for i in range(3)]
    nota_bits = [net.add_not(namer("na"), a[i]) for i in range(3)]

    # Operation select: op2 chooses arithmetic vs logic; op1/op0 pick
    # within the family (three levels of 2:1 muxes per result bit).
    arith = _mux_bus(net, namer, op[0], sub_sum, add_sum)
    logic_a = _mux_bus(net, namer, op[0], or_bits, and_bits)
    logic_b = _mux_bus(net, namer, op[0], xnor_bits, xor_bits)
    misc = _mux_bus(net, namer, op[0], b, nota_bits)
    low = _mux_bus(net, namer, op[1], logic_a, arith)
    high = _mux_bus(net, namer, op[1], misc, logic_b)
    result = _mux_bus(net, namer, op[2], high, low)

    carry = net.add_mux(namer("carrysel"), op[0], sub_carry, add_carry)
    is_arith = net.add_nor(namer("isarith"), op[1], op[2])
    cout = net.add_and("cout", carry, is_arith)
    zero = net.add_nor("zero", *result)
    # Signed overflow of the arithmetic result: carry into MSB != carry out.
    msb_a, msb_b = a[2], b[2]
    same_sign = net.add_xnor(namer("ss"), msb_a, msb_b)
    diff_res = net.add_xor(namer("dr"), msb_a, result[2])
    ovf_raw = net.add_and(namer("ovfr"), same_sign, diff_res)
    ovf = net.add_and("ovf", ovf_raw, is_arith)

    outputs = [net.add_buf(f"r{i}", bit) for i, bit in enumerate(result)]
    _out_bus(net, outputs)
    for extra in (cout, zero, ovf):
        net.add_output(extra)
    net.sweep_dangling()
    return net


def f51m(name: str = "f51m") -> LogicNetwork:
    """8-input / 8-output arithmetic block (MCNC f51m stand-in):
    a 4x4 multiplier, matching f51m's arithmetic character."""
    return array_multiplier(4, name=name)


def c6288(name: str = "C6288") -> LogicNetwork:
    """ISCAS C6288: a 16x16 array multiplier (functional re-creation)."""
    return array_multiplier(16, name=name)


def c1355(name: str = "C1355") -> LogicNetwork:
    """ISCAS C1355: 32-bit single-error correction (functional ECC
    stand-in with the same 41-PI / 32-PO interface)."""
    net = hamming_corrector(name=name)
    return net


def dalu(name: str = "dalu") -> LogicNetwork:
    """Dedicated ALU stand-in (75 PIs / 16 POs like MCNC dalu).

    Four 16-bit operands, a 4-bit opcode, carry-in and a 6-bit mask;
    16-bit result.  Mix of arithmetic (adds/sub/majority) and logic ops.
    """
    net = LogicNetwork(name)
    namer = _Namer()
    a = _bus(net, "a", 16)
    b = _bus(net, "b", 16)
    c = _bus(net, "c", 16)
    d = _bus(net, "d", 16)
    op = _bus(net, "op", 4)
    cin = net.add_input("cin")
    mask = _bus(net, "m", 6)

    add_ab, _ = _ripple_add(net, namer, a, b, cin=cin)
    not_b = [net.add_not(namer("nb"), bit) for bit in b]
    sub_ab, _ = _ripple_add(net, namer, a, not_b, cin=cin)
    add_cd, _ = _ripple_add(net, namer, c, d)
    maj_abc = [net.add_maj(namer("mj"), a[i], b[i], c[i]) for i in range(16)]
    and_ab = [net.add_and(namer("ab"), a[i], b[i]) for i in range(16)]
    or_cd = [net.add_or(namer("cd"), c[i], d[i]) for i in range(16)]
    xor_ab = [net.add_xor(namer("xab"), a[i], b[i]) for i in range(16)]
    xor_abcd = [net.add_xor(namer("xabcd"), xor_ab[i], net.add_xor(namer("xcd"), c[i], d[i])) for i in range(16)]

    level0_a = _mux_bus(net, namer, op[0], sub_ab, add_ab)
    level0_b = _mux_bus(net, namer, op[0], maj_abc, add_cd)
    level0_c = _mux_bus(net, namer, op[0], or_cd, and_ab)
    level0_d = _mux_bus(net, namer, op[0], xor_abcd, xor_ab)
    level1_a = _mux_bus(net, namer, op[1], level0_b, level0_a)
    level1_b = _mux_bus(net, namer, op[1], level0_d, level0_c)
    result = _mux_bus(net, namer, op[2], level1_b, level1_a)

    # op[3] conditionally XOR-masks the low bits (mask replicated).
    final = []
    for i in range(16):
        flip = net.add_and(namer("flipen"), op[3], mask[i % 6])
        final.append(net.add_xor(f"y{i}", result[i], flip))
    _out_bus(net, final)
    net.sweep_dangling()
    return net


def apex6(name: str = "apex6") -> LogicNetwork:
    """Random-control stand-in (135 PIs / 99 POs like MCNC apex6)."""
    return random_control_network(
        name, num_inputs=135, num_outputs=99, num_nodes=680, seed=0xA9E6
    )


def vda(name: str = "vda") -> LogicNetwork:
    """PLA-style stand-in (17 PIs / 39 POs like MCNC vda)."""
    return random_pla_network(
        name, num_inputs=17, num_outputs=39, num_terms=130, seed=0x7DA
    )


def misex3(name: str = "misex3") -> LogicNetwork:
    """PLA-style stand-in (14 PIs / 14 POs like MCNC misex3)."""
    return random_pla_network(
        name,
        num_inputs=14,
        num_outputs=14,
        num_terms=220,
        seed=0x3153,
        literals_per_term=(4, 8),
        terms_per_output=(10, 24),
    )


def seq(name: str = "seq") -> LogicNetwork:
    """PLA-style stand-in (41 PIs / 35 POs like MCNC seq)."""
    return random_pla_network(
        name,
        num_inputs=41,
        num_outputs=35,
        num_terms=320,
        seed=0x5E0,
        literals_per_term=(4, 9),
        terms_per_output=(8, 20),
    )


def bigkey(name: str = "bigkey") -> LogicNetwork:
    """Key-mixing stand-in for the bigkey benchmark's combinational
    core (XOR-rich crypto-style structure)."""
    return key_mixing_network(name, data_bits=64, key_bits=64, rounds=4, seed=0xB16)
