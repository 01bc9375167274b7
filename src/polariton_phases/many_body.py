"""Sine-Gordon and Bose-Hubbard descriptions of the lattice polariton gas.

Takes the dimensionless coordinates (|gamma|, V1/E_R) produced by the optics
map and evaluates the Luttinger parameter, the two phase-transition lines and
a phase label.  Formulas live in their stated validity windows; outside them
classification returns INDETERMINATE rather than extrapolating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import NamedTuple

from .errors import DomainError

# Mott critical ratio of the 1D Bose-Hubbard chain at unit filling.
UJ_CRITICAL = 3.85
# Validity windows (see regime_flags).
GAMMA_K_MAX = 10.0
SG_GAMMA_MIN, SG_GAMMA_MAX, SG_DEPTH_MAX = 1.0, 5.0, 3.0
BH_GAMMA_MAX, BH_DEPTH_MIN = 1.0, 3.0


class Phase(Enum):
    SUPERFLUID = "SF"
    MOTT_PINNED_SG = "MOTT_SG"
    MOTT_BH = "MOTT_BH"
    INDETERMINATE = "INDETERMINATE"


@dataclass(frozen=True)
class RegimeFlags:
    sg_valid: bool
    bh_valid: bool
    k_formula_valid: bool
    sign_warning: bool

    def __post_init__(self):
        if self.sg_valid and self.bh_valid:
            raise DomainError("the sine-Gordon and Bose-Hubbard validity "
                              "windows cannot both hold")

    def label(self) -> str:
        """The names of the flags that hold, in field order, joined by ";"."""
        return ";".join(f.name for f in fields(self) if getattr(self, f.name))


@dataclass(frozen=True)
class ManyBodyPoint:
    gamma_abs: float
    v1_over_er: float
    k_luttinger: float      # NaN outside the K-formula domain
    j_over_er: float
    u_over_er: float
    u_over_j: float
    phase: Phase
    flags: RegimeFlags

    def to_dict(self) -> dict:
        """Each field by name in field order; phase and flags as text."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["phase"], d["flags"] = self.phase.value, self.flags.label()
        return d


class BhParams(NamedTuple):
    j_over_er: float
    u_over_er: float
    u_over_j: float


def luttinger_k(gamma_abs: float) -> float:
    """Luttinger parameter K = pi / sqrt(g - g^{3/2}/(2 pi)), valid for g <= 10."""
    if not (0 < gamma_abs <= GAMMA_K_MAX):
        raise DomainError(f"gamma = {gamma_abs} outside (0, {GAMMA_K_MAX}]")
    # g (1 - sqrt(g) / (2 pi)) >= 0.49 g > 0 here: sqrt(10) < 2 pi
    return math.pi / math.sqrt(gamma_abs - gamma_abs**1.5 / (2 * math.pi))


def sg_critical_depth(gamma_abs: float) -> float:
    """Critical lattice depth of the commensurate pinning transition.

    max(0, 2 pi / sqrt(g - g^{3/2}/(2 pi)) - 4), identically max(0, 2(K-2)):
    for K < 2 an arbitrarily shallow lattice pins the gas.
    """
    return max(0.0, 2 * luttinger_k(gamma_abs) - 4)


def bh_params(v1_over_er: float, gamma_abs: float) -> BhParams:
    """Tight-binding Bose-Hubbard parameters of the cos^2 lattice.

    J/E_R = 4 s^{3/4} exp(-2 sqrt(s)) / sqrt(pi) and
    U/E_R = sqrt(2/pi^3) s^{1/4} gamma, with s = V1/E_R.
    """
    if not (v1_over_er > 0):
        raise DomainError(f"v1_over_er must be positive, got {v1_over_er}")
    if gamma_abs < 0:
        raise DomainError(f"gamma_abs must be non-negative, got {gamma_abs}")
    s = v1_over_er
    j = 4 * s**0.75 * math.exp(-2 * math.sqrt(s)) / math.sqrt(math.pi)
    if j == 0:
        raise DomainError(f"J/E_R underflows to 0 at V1/E_R = {s}")
    u = math.sqrt(2 / math.pi**3) * s**0.25 * gamma_abs
    return BhParams(j, u, u / j)


def uj_closed_form(v1_over_er: float, gamma_abs: float) -> float:
    """U/J written as the single closed form sqrt(2) e^{2 sqrt(s)} g / (4 pi sqrt(s))."""
    s = v1_over_er
    return math.sqrt(2) * math.exp(2 * math.sqrt(s)) * gamma_abs / (
        4 * math.pi * math.sqrt(s)
    )


def regime_flags(gamma_abs: float, v1_over_er: float,
                 sign_warning: bool = False) -> RegimeFlags:
    """Validity windows at (|gamma|, V1/E_R).

    The sine-Gordon depth bound is strict: at the corner |gamma| = 1,
    V1/E_R = 3 both windows would hold, and the corner is Bose-Hubbard's.
    """
    sg = SG_GAMMA_MIN <= gamma_abs <= SG_GAMMA_MAX and v1_over_er < SG_DEPTH_MAX
    bh = gamma_abs <= BH_GAMMA_MAX and v1_over_er >= BH_DEPTH_MIN
    return RegimeFlags(
        sg_valid=sg,
        bh_valid=bh,
        k_formula_valid=0 < gamma_abs <= GAMMA_K_MAX,
        sign_warning=sign_warning,
    )


def make_point(gamma_abs: float, v1_over_er: float,
               sign_warning: bool = False) -> ManyBodyPoint:
    """Assemble a fully classified many-body point from its two coordinates.

    Negative gamma is rejected here; the optics layer supplies the magnitude
    together with the sign flag.
    """
    if not (math.isfinite(gamma_abs) and math.isfinite(v1_over_er)):
        raise DomainError(f"non-finite coordinates ({gamma_abs}, "
                          f"{v1_over_er})")
    if gamma_abs < 0:
        raise DomainError("gamma_abs must be non-negative; pass |gamma| "
                          "with sign_warning set")
    if v1_over_er < 0:
        raise DomainError(f"v1_over_er must be non-negative, got {v1_over_er}")
    flags = regime_flags(gamma_abs, v1_over_er, sign_warning)
    k = luttinger_k(gamma_abs) if flags.k_formula_valid else math.nan
    j, u, uj = (bh_params(v1_over_er, gamma_abs) if v1_over_er > 0
                else (0.0, 0.0, 0.0))
    point = ManyBodyPoint(
        gamma_abs=gamma_abs,
        v1_over_er=v1_over_er,
        k_luttinger=k,
        j_over_er=j,
        u_over_er=u,
        u_over_j=uj,
        phase=Phase.INDETERMINATE,
        flags=flags,
    )
    return ManyBodyPoint(**{**point.__dict__, "phase": classify(point)})


def classify(point: ManyBodyPoint) -> Phase:
    """Phase label from the two transition lines; ties break toward Mott."""
    if point.flags.bh_valid:
        return Phase.MOTT_BH if point.u_over_j >= UJ_CRITICAL else Phase.SUPERFLUID
    if point.flags.sg_valid:
        if point.v1_over_er > 0 and point.v1_over_er >= sg_critical_depth(
            point.gamma_abs
        ):
            return Phase.MOTT_PINNED_SG
        return Phase.SUPERFLUID
    return Phase.INDETERMINATE
