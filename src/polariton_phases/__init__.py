"""Effective many-body physics of lattice-trapped stationary-light polaritons.

Pipeline: quantum-optics control parameters -> effective polariton parameters
(optics) -> dimensionless many-body coordinates and phase labels (many_body)
-> parameter sweeps and phase boundaries (sweep), with desk-scale checks via
a mean-field lattice NLSE solver (nlse) and small-chain Bose-Hubbard exact
diagonalization (bh_ed).
"""

__version__ = "0.1.0"
