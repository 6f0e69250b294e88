"""The Design-Compiler-like baseline flow (``compile -area`` stand-in).

Synopsys DC is commercial and unavailable; this flow emulates the
behaviour relevant to Table II (see DESIGN.md):

* XOR/XNOR gates written in the RTL survive to mapping (DC recognizes
  HDL operators), so datapath circuits keep their XOR cells;
* no majority extraction — MAJ-shaped SOP covers are treated as plain
  two-level logic (the very gap BDS-MAJ exploits; the paper's Table II
  shows DC as the closest but still trailing competitor);
* everything else is partially collapsed, minimized as two-level
  covers (BDD-based ISOP) and algebraically factored into gates —
  the classic SOP-factoring synthesis recipe DC descends from.

The stages live in :mod:`repro.api.stages` (``collapse`` and
``rewrite``); this module holds the flow's configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..mapping.library import CellLibrary
from ..network import PartitionConfig


@dataclass
class DcFlowConfig:
    #: DC collapses more conservatively than BDS (it keeps the HDL
    #: structure where flattening does not pay), hence the smaller
    #: support budget than the BDS flows use.
    partition: PartitionConfig = field(
        default_factory=lambda: PartitionConfig(max_support=6, max_bdd_nodes=150)
    )
    verify: bool = True
    library: CellLibrary | None = None

