"""Additional arithmetic generators beyond the paper's benchmark set.

These widen the library's usefulness as a circuit-generation toolkit
(and stress the flows with structures the Table I/II set lacks):

* :func:`kogge_stone_adder` — parallel-prefix addition (log-depth
  carry tree, heavy fanout);
* :func:`booth_multiplier` — radix-4 Booth recoding (signed operands,
  MUX-rich partial products);
* :func:`barrel_shifter` — logarithmic shifter (pure MUX network);
* :func:`comparator` — magnitude comparator (long AND-OR chains);
* :func:`parity_tree` — wide XOR reduction.

All are verified against Python integer semantics in the test suite.
"""

from __future__ import annotations

from ..network import LogicNetwork
from .arithmetic import _Namer, _bus, _const, _out_bus, _reduce_columns


def kogge_stone_adder(width: int = 32, name: str = "ks") -> LogicNetwork:
    """Kogge-Stone parallel-prefix adder: a + b + cin."""
    net = LogicNetwork(name)
    namer = _Namer()
    a = _bus(net, "a", width)
    b = _bus(net, "b", width)
    cin = net.add_input("cin")

    generate = [net.add_and(namer("g"), a[i], b[i]) for i in range(width)]
    propagate = [net.add_xor(namer("p"), a[i], b[i]) for i in range(width)]

    # Prefix tree: (g, p) pairs combined with the carry operator
    #   (g, p) o (g', p') = (g + p·g', p·p')
    level_g = list(generate)
    level_p = list(propagate)
    distance = 1
    while distance < width:
        next_g = list(level_g)
        next_p = list(level_p)
        for i in range(distance, width):
            term = net.add_and(namer("ks_t"), level_p[i], level_g[i - distance])
            next_g[i] = net.add_or(namer("ks_g"), level_g[i], term)
            next_p[i] = net.add_and(namer("ks_p"), level_p[i], level_p[i - distance])
        level_g, level_p = next_g, next_p
        distance *= 2

    # Carry into position i: prefix(i-1) combined with cin.
    carries = [cin]
    for i in range(width):
        term = net.add_and(namer("cin_t"), level_p[i], cin)
        carries.append(net.add_or(namer("carry"), level_g[i], term))
    sums = [net.add_xor(f"sum{i}", propagate[i], carries[i]) for i in range(width)]
    net.add_buf("cout", carries[width])
    _out_bus(net, sums)
    net.add_output("cout")
    net.sweep_dangling()
    return net


def booth_multiplier(width: int = 8, name: str = "booth") -> LogicNetwork:
    """Radix-4 Booth multiplier for *unsigned* operands.

    Operands are zero-extended two bits so the standard signed Booth
    recoding computes the unsigned product; partial products use
    MUX/XOR rows (negation via XOR + correction bit), giving the
    characteristic Booth structure of select-invert-accumulate.
    """
    net = LogicNetwork(name)
    namer = _Namer()
    a = _bus(net, "a", width)
    b = _bus(net, "b", width)
    zero = _const(net, namer, False)

    ext_width = width + 2  # zero-extended multiplicand (for 2A and sign)
    multiplicand = [*a, zero, zero]
    # 2A: shifted left one.
    twice = [zero, *multiplicand[:-1]]

    product_columns: list[list[str]] = [[] for _ in range(2 * width + 4)]
    multiplier_bits = [zero, *b, zero, zero]  # b[-1] = 0 guard + zero-extend

    num_groups = (width + 2) // 2
    for group in range(num_groups):
        base = 2 * group
        b_low, b_mid, b_high = (
            multiplier_bits[base],
            multiplier_bits[base + 1],
            multiplier_bits[base + 2],
        )
        # Booth recoding of (b_high b_mid b_low):
        #   select_a   = b_mid xor b_low          (odd multiples)
        #   select_2a  = (b_high xor b_mid)·~select_a
        #   negative   = b_high (when the multiple is non-zero)
        select_a = net.add_xor(namer("sel_a"), b_mid, b_low)
        hm = net.add_xor(namer("hm"), b_high, b_mid)
        not_sel_a = net.add_not(namer("nsel_a"), select_a)
        select_2a = net.add_and(namer("sel_2a"), hm, not_sel_a)
        negative = b_high

        for position in range(ext_width):
            pick_a = net.add_and(namer("pa"), select_a, multiplicand[position])
            pick_2a = net.add_and(namer("p2a"), select_2a, twice[position])
            magnitude = net.add_or(namer("mag"), pick_a, pick_2a)
            signed_bit = net.add_xor(namer("sb"), magnitude, negative)
            product_columns[base + position].append(signed_bit)
        # Sign extension trick: extend the (possibly inverted) top bit.
        top = net.add_xor(
            namer("top"),
            net.add_or(
                namer("mag_top"),
                net.add_and(namer("pa_t"), select_a, multiplicand[-1]),
                net.add_and(namer("p2a_t"), select_2a, twice[-1]),
            ),
            negative,
        )
        for position in range(base + ext_width, 2 * width + 4):
            product_columns[position].append(top)
        # +1 correction for negated multiples.
        product_columns[base].append(negative)

    sums = _reduce_columns(net, namer, product_columns, total_width=2 * width + 4)
    outputs = [net.add_buf(f"prod{i}", s) for i, s in enumerate(sums[: 2 * width])]
    _out_bus(net, outputs)
    net.sweep_dangling()
    return net


def barrel_shifter(width: int = 16, name: str = "barrel") -> LogicNetwork:
    """Logarithmic left barrel shifter: ``out = data << amount``
    (zero fill; ``amount`` has log2(width) bits)."""
    if width & (width - 1):
        raise ValueError("barrel shifter width must be a power of two")
    net = LogicNetwork(name)
    namer = _Namer()
    data = _bus(net, "d", width)
    select_bits = _bus(net, "s", (width - 1).bit_length())
    zero = _const(net, namer, False)

    current = list(data)
    for stage, select in enumerate(select_bits):
        shift = 1 << stage
        shifted = [zero] * shift + current[: width - shift]
        current = [
            net.add_mux(namer(f"st{stage}"), select, shifted[i], current[i])
            for i in range(width)
        ]
    outputs = [net.add_buf(f"q{i}", bit) for i, bit in enumerate(current)]
    _out_bus(net, outputs)
    net.sweep_dangling()
    return net


def comparator(width: int = 16, name: str = "cmp") -> LogicNetwork:
    """Magnitude comparator: outputs ``lt``, ``eq``, ``gt`` for a ? b."""
    net = LogicNetwork(name)
    namer = _Namer()
    a = _bus(net, "a", width)
    b = _bus(net, "b", width)

    eq_bits = [net.add_xnor(namer("e"), a[i], b[i]) for i in range(width)]
    # gt = OR_i ( a_i·~b_i · AND_{j>i} eq_j )
    gt_terms = []
    lt_terms = []
    prefix_eq: str | None = None
    for i in range(width - 1, -1, -1):
        not_b = net.add_not(namer("nb"), b[i])
        not_a = net.add_not(namer("na"), a[i])
        gt_here = net.add_and(namer("gt_h"), a[i], not_b)
        lt_here = net.add_and(namer("lt_h"), not_a, b[i])
        if prefix_eq is None:
            gt_terms.append(gt_here)
            lt_terms.append(lt_here)
            prefix_eq = eq_bits[i]
        else:
            gt_terms.append(net.add_and(namer("gt_t"), gt_here, prefix_eq))
            lt_terms.append(net.add_and(namer("lt_t"), lt_here, prefix_eq))
            prefix_eq = net.add_and(namer("pe"), prefix_eq, eq_bits[i])

    net.add_or("gt", *gt_terms)
    net.add_or("lt", *lt_terms)
    net.add_buf("eq", prefix_eq)
    for output in ("lt", "eq", "gt"):
        net.add_output(output)
    net.sweep_dangling()
    return net


def parity_tree(width: int = 32, name: str = "parity") -> LogicNetwork:
    """Balanced XOR reduction of ``width`` inputs (even parity)."""
    net = LogicNetwork(name)
    namer = _Namer()
    level = _bus(net, "x", width)
    stage = 0
    while len(level) > 1:
        next_level = []
        for i in range(0, len(level) - 1, 2):
            next_level.append(
                net.add_xor(namer(f"x{stage}"), level[i], level[i + 1])
            )
        if len(level) % 2:
            next_level.append(level[-1])
        level = next_level
        stage += 1
    net.add_buf("p", level[0])
    net.add_output("p")
    net.sweep_dangling()
    return net
