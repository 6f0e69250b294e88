#!/usr/bin/env python3
"""Characterize your own cell library and map against it.

The paper's library is six cells at 22 nm; this example shows the
library API: build a custom library (here a hypothetical 7 nm point
with a fast MAJ cell), synthesize the same circuit against both, and
compare the mapped results — including the NAND-only ablation that
demonstrates why direct MAJ/XOR assignment needs the cells to exist.

Run:  python examples/custom_cell_library.py
"""

from repro.api import get_pipeline
from repro.benchgen import multiply_accumulate
from repro.flows import BdsFlowConfig
from repro.mapping import Cell, CellLibrary, cmos22_library, nand_only_library


def finfet7_library() -> CellLibrary:
    """A denser, faster (hypothetical) 7 nm characterization."""
    library = CellLibrary("finfet7")
    library.add(Cell("INV_7", "inv", 1, area=0.020, delay=0.004, load_delay=0.0008))
    library.add(Cell("NAND2_7", "nand2", 2, area=0.031, delay=0.006, load_delay=0.0009))
    library.add(Cell("NOR2_7", "nor2", 2, area=0.031, delay=0.008, load_delay=0.0011))
    library.add(Cell("XOR2_7", "xor2", 2, area=0.061, delay=0.011, load_delay=0.0011))
    library.add(Cell("XNOR2_7", "xnor2", 2, area=0.061, delay=0.011, load_delay=0.0011))
    # The point of this example: a MAJ cell that is *relatively* cheaper
    # than at 22 nm (majority gates shine in emerging technologies —
    # the motivation behind the MIG line of research).
    library.add(Cell("MAJ3_7", "maj3", 3, area=0.066, delay=0.012, load_delay=0.0012))
    library.add(Cell("TIE0_7", "tie0", 0, 0.0, 0.0, 0.0))
    library.add(Cell("TIE1_7", "tie1", 0, 0.0, 0.0, 0.0))
    return library


def main() -> None:
    network = multiply_accumulate(6, name="mac6")
    print(f"circuit: {network.name} ({network.num_nodes} nodes)\n")
    print(f"{'library':10s} {'area':>9s} {'gates':>6s} {'delay ns':>9s} {'MAJ3':>5s}")
    for library in (cmos22_library(), finfet7_library(), nand_only_library()):
        result = get_pipeline("bds-maj").run(network, BdsFlowConfig(library=library))
        area, gates, delay = result.table2_row()
        maj_cells = result.mapped.cell_histogram().get("maj3", 0)
        print(f"{library.name:10s} {area:9.3f} {gates:6d} {delay:9.4f} {maj_cells:5d}")
        assert result.equivalence is not None and result.equivalence.equivalent
    print(
        "\nNote how the NAND-only ablation loses the MAJ3/XOR2 cells and "
        "pays for it in area — the direct-assignment step of Section "
        "V.B.1 requires the library to cooperate."
    )


if __name__ == "__main__":
    main()
