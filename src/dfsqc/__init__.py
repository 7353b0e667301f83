"""Simulator for decoherence-free-subspace (DFS) quantum logic with neutral
atoms coupled to a single-sided optical cavity.

Subpackages
-----------
register   dense state-vector engine with seeded measurement
logical    two-atom DFS encoding, logical gates and measurements, dephasing
cavity     pulse-level cavity input-output model, CZ gate fidelity and map
noise      dephasing spectra, echo filter functions, transport noise
protocols  composite measurement-based protocols (Hadamard, BSM, CNOT, ...)
cli        scenario runner producing CSV artifacts and reports
"""

__version__ = "0.1.0"

from . import register, logical, cavity, noise, protocols  # noqa: F401
