"""Technology mapping: the 22 nm cell library, the polarity-aware
structural mapper with MAJ/XOR/XNOR direct assignment, and STA."""

from .library import Cell, CellLibrary, cmos22_library, nand_only_library
from .cut_mapper import cut_map_network
from .mapper import MappedCircuit, MappingError, classify_gate, map_network
from .sta import TimingReport, analyze

__all__ = [
    "Cell",
    "CellLibrary",
    "MappedCircuit",
    "MappingError",
    "TimingReport",
    "analyze",
    "classify_gate",
    "cmos22_library",
    "cut_map_network",
    "map_network",
    "nand_only_library",
]
