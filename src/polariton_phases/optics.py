"""Map quantum-optics control parameters to effective polariton parameters.

All detunings and Rabi frequencies are carried dimensionless, in units of the
total upper-level decay rate Gamma.  Densities are in 1/m, speeds in m/s.
Internally hbar = 1, so energies are rates; the derived potential and recoil
energies are reported in units of hbar*Gamma.  An OpticalConfig checks its
node-independent fields when it is built; the closed forms
(effective_params, lieb_liniger_gamma, lattice_depth_ratio) expect a config
whose node has also passed validate_config.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, asdict, fields
from operator import attrgetter
from typing import NamedTuple

from .errors import DomainError, ModulationWarning, PoleError, SingularMass

# Pole exclusion half-width, in Gamma^2 (Lambda) / Gamma (Xi) units.
EPS_POLE = 1e-9
# Threshold below which the real effective mass counts as singular (s/m^2).
EPS_MASS = 1e-30


@dataclass(frozen=True)
class OpticalConfig:
    """Experimental knobs of the atom-filled fiber.

    Defaults are the baseline parameter set used throughout: Gamma = 2e7 1/s,
    Gamma_1D = 0.2 Gamma, Delta_0 = 5 Gamma, delta = 0.01 Gamma, n0 = 1e7 /m,
    n1 = 0.1 n0, n_ph = 1e3 /m, with the fourth-level detuning at 50 Gamma.
    """

    gamma_total: float = 2e7          # total decay rate Gamma (1/s)
    gamma_1d_ratio: float = 0.2       # Gamma_1D / Gamma
    delta0: float = 5.0               # one-photon detuning of |b>, Gamma units
    delta_small: float = 0.01         # two-photon detuning of |c>, Gamma units
    delta_p: float = 50.0             # detuning of |d>, Gamma units
    omega: float = 1.0                # control Rabi frequency, Gamma units
    n0: float = 1e7                   # mean atomic density (1/m)
    n1_fraction: float = 0.1          # modulation amplitude n1/n0
    n_ph: float = 1e3                 # photon density (1/m)
    delta_omega: float = 0.0          # carrier mismatch (1/s)
    v: float = 299792458.0            # empty-waveguide light speed (m/s)
    fiber_length: float = 0.01        # fiber length (m)

    def __post_init__(self):
        """Check every field but the node (delta_p, omega).

        Raises DomainError for a field that is not a finite number, for
        non-positive rates/densities and for a product the closed forms
        divide by or a square they take that is 0 or overflows.  Emits
        ModulationWarning (non-fatal) for n1/n0 > 0.5.
        """
        try:
            finite = all(map(math.isfinite, _base_values(self)))
        except (TypeError, OverflowError):
            finite = False
        if not finite:
            raise DomainError(f"every field must be a finite number: {self}")
        # squares by *, as float ** raises OverflowError where * gives inf
        pi_n_ph = math.pi * self.n_ph
        _require_positive(
            self, gamma_total=self.gamma_total, n0=self.n0, n_ph=self.n_ph,
            v=self.v, fiber_length=self.fiber_length,
            abs_delta0_gamma=abs(self.delta0) * self.gamma_total,
            gamma_1d_n0=self.gamma_1d_ratio * self.gamma_total * self.n0,
            n_ph_sq=self.n_ph * self.n_ph, pi_n_ph_sq=pi_n_ph * pi_n_ph)
        if not (0 < self.gamma_1d_ratio <= 1):
            raise DomainError(
                f"gamma_1d_ratio must lie in (0, 1], got {self.gamma_1d_ratio}"
            )
        if not (0 <= self.n1_fraction < 1):
            raise DomainError(
                f"n1_fraction must lie in [0, 1), got {self.n1_fraction}"
            )
        if self.n1_fraction > 0.5:
            warnings.warn(
                f"n1/n0 = {self.n1_fraction} is not a small perturbation of "
                "the atomic density; effective-lattice formulas assume "
                "n0 >> n1",
                ModulationWarning,
                stacklevel=3,
            )


# Every field but the node coordinates (delta_p, omega), as a tuple.  Read by
# attribute: vars(cfg) would give the instance a dict and slow every later
# attribute read on it.
_base_values = attrgetter(*(f.name for f in fields(OpticalConfig)
                            if f.name not in ("delta_p", "omega")))


def validate_config(cfg: OpticalConfig) -> OpticalConfig:
    """Check the node (delta_p, omega) of a config and return the config.

    The config checked itself when it was built; this checks what depends
    on the node.  Raises DomainError for a node coordinate that is not a
    finite number and for a product the closed forms divide by or a square
    they take that is 0 or overflows, PoleError when the node sits within
    EPS_POLE of a pole of the Lambda or Xi dressing factor.  The sweep
    evaluator marks such nodes instead of raising.
    """
    try:
        finite = math.isfinite(cfg.delta_p) and math.isfinite(cfg.omega)
    except (TypeError, OverflowError):
        finite = False
    if not finite:
        raise DomainError(f"every field must be a finite number: {cfg}")
    om_sq = cfg.omega * cfg.omega
    lam_denom = om_sq - cfg.delta_small * cfg.delta0 / 2
    if abs(lam_denom) <= EPS_POLE:
        raise PoleError(
            "Omega^2 = delta*Delta_0/2 within epsilon: pole of the Lambda factor"
        )
    if abs(cfg.delta_p - cfg.delta_small) <= EPS_POLE:
        raise PoleError(
            "Delta_p = delta within epsilon: pole of the Xi factor"
        )
    om_gamma = cfg.omega * cfg.gamma_total
    # v_g of effective_params, for the denominators of the effective mass
    v_g = 4 * (om_gamma * om_gamma) / (cfg.gamma_1d_ratio * cfg.gamma_total
                                       * cfg.n0)
    _require_positive(
        cfg, abs_delta0_delta_p=abs(cfg.delta0 * cfg.delta_p),
        abs_delta_p_gamma=abs(cfg.delta_p) * cfg.gamma_total,
        omega_sq=om_sq, omega_gamma_sq=om_gamma * om_gamma,
        two_v_v_g=2 * cfg.v * v_g,
        four_abs_delta0_gamma_v_g=4 * abs(cfg.delta0 * cfg.gamma_total) * v_g)
    return cfg


def _require_positive(cfg: OpticalConfig, **terms: float) -> None:
    """DomainError unless every term lies in (0, inf)."""
    bad = [name for name, x in terms.items() if not 0 < x < math.inf]
    if bad:
        raise DomainError(f"{', '.join(bad)} must lie in (0, inf): {cfg}")


@dataclass(frozen=True)
class EffectiveParams:
    """Effective single-particle and interaction parameters of the polariton gas.

    mass is complex: the real part is the lossless effective mass (s/m^2 with
    hbar = 1), the imaginary part is the spontaneous-emission correction.
    v0, v1, e_recoil are in units of hbar*Gamma; chi in hbar*Gamma*m.
    """

    lambda_factor: float
    xi_factor: float
    v_g: float            # group velocity (m/s)
    mass: complex         # effective mass (s/m^2, hbar = 1)
    v0: float             # uniform potential offset (hbar*Gamma)
    v1: float             # lattice depth (hbar*Gamma)
    chi: float            # contact interaction strength (hbar*Gamma*m)
    e_recoil: float       # recoil energy (pi n_ph)^2 / 2|m| (hbar*Gamma)
    kappa: float          # polariton loss rate (1/s)
    od: float             # optical depth n0 L Gamma_1D/Gamma

    def to_dict(self) -> dict:
        d = asdict(self)
        d["mass"] = [self.mass.real, self.mass.imag]
        return d


class LiebLinigerGamma(NamedTuple):
    signed: float
    magnitude: float
    negative: bool


def _dressing_factors(cfg: OpticalConfig) -> tuple[float, float]:
    lam = cfg.omega**2 / (cfg.omega**2 - cfg.delta_small * cfg.delta0 / 2)
    xi = (cfg.delta_p - cfg.delta_small / 2) / (cfg.delta_p - cfg.delta_small)
    return lam, xi


def effective_params(cfg: OpticalConfig) -> EffectiveParams:
    """Evaluate the closed-form effective parameters of the polariton equation.

    Group velocity v_g = 4 Omega^2 / (Gamma_1D n0) in absolute units (the
    coupling g has been eliminated via Gamma_1D = 4 pi g^2 / v).
    """
    gamma = cfg.gamma_total
    gamma_1d = cfg.gamma_1d_ratio * gamma          # 1/s
    omega_abs = cfg.omega * gamma                  # 1/s
    delta0_abs = cfg.delta0 * gamma
    delta_p_abs = cfg.delta_p * gamma
    delta_small_abs = cfg.delta_small * gamma
    n1 = cfg.n1_fraction * cfg.n0

    lam, xi = _dressing_factors(cfg)

    v_g = 4 * omega_abs**2 / (gamma_1d * cfg.n0)
    if not (0 < v_g < cfg.v):
        raise DomainError(
            f"group velocity {v_g} m/s outside (0, v); check omega and densities"
        )

    m_real = -cfg.delta_omega / (2 * cfg.v * v_g) - gamma_1d * cfg.n0 / (
        4 * delta0_abs * v_g
    )
    m_loss = -cfg.delta_omega / (2 * cfg.v * v_g) - gamma_1d * cfg.n0 / (
        4 * delta0_abs * v_g + 2j * gamma * v_g
    )
    if abs(m_real) < EPS_MASS:
        raise SingularMass(f"|Re m| = {abs(m_real)} below {EPS_MASS}")
    mass = complex(m_real, m_loss.imag)

    # Potentials in absolute rate units, then reported in hbar*Gamma.
    v0_abs = cfg.delta_omega * v_g / cfg.v - (
        lam * gamma_1d * delta_small_abs * v_g * cfg.n0 / (4 * omega_abs**2)
    )
    v1_abs = -lam * gamma_1d * delta_small_abs * v_g * n1 / (4 * omega_abs**2)
    chi_abs = lam**2 * xi * gamma_1d * v_g / (2 * delta_p_abs)
    e_recoil_abs = (math.pi * cfg.n_ph) ** 2 / (2 * abs(m_real))

    kappa = cfg.n_ph**2 * v_g * gamma / (cfg.n0 * gamma_1d)
    od = cfg.n0 * cfg.fiber_length * cfg.gamma_1d_ratio

    return EffectiveParams(
        lambda_factor=lam,
        xi_factor=xi,
        v_g=v_g,
        mass=mass,
        v0=v0_abs / gamma,
        v1=v1_abs / gamma,
        chi=chi_abs / gamma,
        e_recoil=e_recoil_abs / gamma,
        kappa=kappa,
        od=od,
    )


def lieb_liniger_gamma(cfg: OpticalConfig) -> LiebLinigerGamma:
    """Dimensionless interaction-to-kinetic ratio of the polariton gas.

    gamma = -(Lambda^2 Xi / 8) (Gamma_1D^2 / (Delta_0 Delta_p)) (n0 / n_ph).
    With all detunings positive the closed form is negative; downstream
    consumers take the magnitude and carry the sign as a flag.
    """
    lam, xi = _dressing_factors(cfg)
    g1d = cfg.gamma_1d_ratio  # Gamma_1D/Gamma; ratio of ratios is scale-free
    signed = -(lam**2 * xi / 8) * (g1d**2 / (cfg.delta0 * cfg.delta_p)) * (
        cfg.n0 / cfg.n_ph
    )
    return LiebLinigerGamma(signed, abs(signed), signed < 0)


def lattice_depth_ratio(cfg: OpticalConfig) -> float:
    """Lattice depth over recoil energy, V1/E_R, from the closed form.

    (Lambda / 8 pi^2) (Gamma_1D/Omega)^2 (delta/Delta_0) (n0 n1 / n_ph^2).
    """
    lam, _ = _dressing_factors(cfg)
    n1 = cfg.n1_fraction * cfg.n0
    return (
        (lam / (8 * math.pi**2))
        * (cfg.gamma_1d_ratio**2 / cfg.omega**2)
        * (cfg.delta_small / cfg.delta0)
        * (cfg.n0 * n1 / cfg.n_ph**2)
    )


def assembled_depth_ratio(
    params: EffectiveParams, n_ph: float, gamma_total: float
) -> float:
    """V1/E_R assembled from effective-parameter fields.

    Uses the signed recoil denominator 2 m_real / (pi n_ph)^2 so that the
    negative lattice depth and the negative mass cancel; agrees with
    lattice_depth_ratio to machine precision when delta_omega = 0.
    """
    v1_abs = params.v1 * gamma_total
    return v1_abs * 2 * params.mass.real / (math.pi * n_ph) ** 2


def assembled_gamma(
    params: EffectiveParams, n_ph: float, gamma_total: float
) -> float:
    """gamma = m * chi / n_ph assembled from effective-parameter fields."""
    chi_abs = params.chi * gamma_total
    return params.mass.real * chi_abs / n_ph
