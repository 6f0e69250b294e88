"""repro — a reproduction of BDS-MAJ (Amarù, Gaillardon, De Micheli, DAC 2013).

BDS-MAJ is a BDD-based logic synthesis tool that adds *majority logic
decomposition* (``F = Maj(Fa, Fb, Fc)``) to the BDS/BDS-PGA family of
BDD decomposition systems.  This package reimplements the whole stack
in pure Python:

* :mod:`repro.bdd` — ROBDD engine with complemented 0-edges,
  generalized cofactors and dominator analysis;
* :mod:`repro.core` — the paper's contribution: m-dominators, majority
  decomposition (Algorithm 1, Theorems 3.1-3.4) and the combined
  BDS+MAJ decomposition engine with factoring trees;
* :mod:`repro.network` — Boolean networks, BLIF I/O, simulation,
  partitioning into supernodes;
* :mod:`repro.sop` — two-level covers and algebraic factoring
  (Design-Compiler-like baseline);
* :mod:`repro.aig` — AIG optimization (ABC-like baseline);
* :mod:`repro.mapping` — 22 nm-style cell library, structural and
  cut-based Boolean-matching mappers, STA;
* :mod:`repro.api` — the public composable pipeline API: stages,
  pipelines, the flow registry, pluggable input sources and observer
  hooks (start here: every flow runs through it);
* :mod:`repro.flows` — configuration, results and the batch service of
  the four synthesis flows compared in the paper;
* :mod:`repro.benchgen` — the 17 Table I/II benchmark circuits plus
  extra arithmetic generators;
* :mod:`repro.mig` — Majority-Inverter Graphs (the paper's future-work
  extension);
* :mod:`repro.experiments` — Table I / Table II / Figure harnesses.
"""

__version__ = "1.0.0"

from . import bdd

__all__ = ["bdd", "__version__"]
