"""Effective many-body physics of lattice-trapped stationary-light polaritons.

Pipeline: quantum-optics control parameters -> effective polariton parameters
(optics) -> dimensionless many-body coordinates and phase labels (many_body)
-> parameter sweeps and phase boundaries (sweep), with desk-scale checks via
a mean-field lattice NLSE solver (nlse) and small-chain Bose-Hubbard exact
diagonalization (bh_ed).
"""

from .optics import (
    OpticalConfig,
    EffectiveParams,
    validate_config,
    effective_params,
    lieb_liniger_gamma,
    lattice_depth_ratio,
)
from .many_body import (
    ManyBodyPoint,
    Phase,
    RegimeFlags,
    bh_params,
    classify,
    luttinger_k,
    make_point,
    sg_critical_depth,
)
from .sweep import (
    GridSpec,
    SweepRecord,
    find_mott_crossing,
    find_pinning_crossing,
    phase_boundaries,
    sweep_grid,
)
from . import bh_ed, nlse, errors

__all__ = [
    "OpticalConfig", "EffectiveParams",
    "validate_config", "effective_params", "lieb_liniger_gamma",
    "lattice_depth_ratio",
    "ManyBodyPoint", "Phase", "RegimeFlags", "bh_params", "classify",
    "luttinger_k", "make_point", "sg_critical_depth",
    "GridSpec", "SweepRecord", "find_mott_crossing",
    "find_pinning_crossing", "phase_boundaries", "sweep_grid",
    "bh_ed", "nlse", "errors",
]

__version__ = "0.1.0"
