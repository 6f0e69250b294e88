"""The ABC-like baseline flow: ``resyn2`` + structural mapping.

Matches the paper's baseline configuration "ABC resyn2 optimization
script and ABC mapper" (Section V.B.1).  Everything is strashed into an
AIG and optimized with the balance/rewrite/refactor script.  During
netlist emission the three-AND XOR pattern is recovered (ABC's Boolean
matcher does use the XOR2/XNOR2 library cells), but no MAJ matching is
attempted — majority structures stay hidden in the AND/INV mass, which
is exactly the gap the paper's direct assignment exploits.

The stages live in :mod:`repro.api.stages` (``strash``, ``rewrite`` and
``emit``); this module holds the flow's configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mapping.library import CellLibrary


@dataclass
class AbcFlowConfig:
    #: Use the short balance/rewrite/balance script instead of resyn2.
    quick: bool = False
    verify: bool = True
    library: CellLibrary | None = None

