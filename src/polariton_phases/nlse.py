"""Lattice NLSE: split-step real-time evolution and its ground state.

Working equation (lattice units: xi = pi n_ph z, tau = E_R t / hbar):

    i d_tau psi = [ -d_xi^2 + s cos^2(xi) + g |psi|^2 - i kappa/2 ] psi

with s = V1/E_R, g = 4|gamma|/pi^2 when |psi|^2 is normalized to unit spatial
mean, and kappa the loss rate in recoil units.  Periodic box of n_periods
lattice periods, i.e. xi in [0, pi n_periods).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DimensionOverflow,
    DomainError,
    NoConvergence,
    NonFinite,
)

# Largest grid: 2^20 points stays under the 2 000 000 states bh_ed.BASIS_CAP
# allows an ED basis.
MAX_GRID_POINTS = 2**20
# Iterations ground_state may take: ~3x the slowest of 1119 inputs tried
# (s <= 1e4, g <= 1e5, 16 to 2^16 points), 720 at s = 1e4 on 16 points a
# period.
GROUND_MAX_STEPS = 2000
# ground_state stops when the residual |H psi - mu psi| / |psi| is at most
# GROUND_TOL * max(|mu|, 1) plus the rounding floor of H psi.
GROUND_TOL = 1e-10


def interaction_strength(gamma_abs: float) -> float:
    """Dimensionless NLSE coupling g = 4|gamma|/pi^2 for unit-mean density."""
    return 4 * gamma_abs / math.pi**2


@dataclass(frozen=True)
class NlseParams:
    v1_over_er: float = 0.0         # lattice depth s
    g_int: float = 0.0              # nonlinear coupling g
    kappa_dimless: float = 0.0      # loss rate in recoil units
    n_periods: int = 8
    grid_points: int = 256
    # optional ramp: (tau, s, g, kappa) control points, linearly interpolated
    schedule: tuple[tuple[float, float, float, float], ...] = ()

    def __post_init__(self):
        n = self.grid_points
        if n < 16 or n & (n - 1):
            raise ConfigError(f"grid_points must be a power of two >= 16, got {n}")
        if n > MAX_GRID_POINTS:
            raise DimensionOverflow(f"grid_points {n} exceeds cap "
                                    f"{MAX_GRID_POINTS}")
        if self.n_periods < 1:
            raise ConfigError(f"n_periods must be >= 1, got {self.n_periods}")
        if n % self.n_periods:
            raise ConfigError("grid_points must be divisible by n_periods "
                              "(commensurate grid)")
        taus = [point[0] for point in self.schedule]
        coefficients = (self.v1_over_er, self.g_int, self.kappa_dimless,
                        *(x for point in self.schedule for x in point[1:]))
        if not all(map(math.isfinite, taus)) \
                or not all(0 <= x < math.inf for x in coefficients):
            raise ConfigError("schedule times must be finite, and lattice "
                              "depth, coupling and loss finite and >= 0")
        if any(a >= b for a, b in zip(taus, taus[1:])):
            raise ConfigError("schedule times must strictly increase")

    def coefficients(self, tau: float) -> tuple[float, float, float]:
        """(s, g, kappa) at time tau, from the schedule if one is set."""
        if not self.schedule:
            return self.v1_over_er, self.g_int, self.kappa_dimless
        ts, *cols = zip(*self.schedule)
        return tuple(float(np.interp(tau, ts, col)) for col in cols)


@dataclass
class FieldState:
    psi: np.ndarray            # complex amplitudes, unit-mean |psi|^2 convention
    time: float = 0.0


@dataclass
class GroundState(FieldState):
    """The state ground_state returns, with the effort it took."""
    iterations: int = 0        # gradient steps taken
    residual: float = 0.0      # |H psi - mu psi| / |psi| of psi


@dataclass
class Observables:
    tau: np.ndarray
    norm: np.ndarray           # spatial mean of |psi|^2
    energy: np.ndarray
    contrast: np.ndarray


def grid(params: NlseParams) -> np.ndarray:
    """Spatial grid xi over the periodic box [0, pi n_periods)."""
    n = params.grid_points
    return np.arange(n) * (math.pi * params.n_periods / n)


def _box(params: NlseParams) -> tuple[np.ndarray, np.ndarray]:
    """k^2 of the FFT modes and cos^2(xi) on the grid of the periodic box."""
    n = params.grid_points
    k = 2 * math.pi * np.fft.fftfreq(n, d=math.pi * params.n_periods / n)
    return k**2, np.cos(grid(params)) ** 2


def norm_of(psi: np.ndarray) -> float:
    return float(np.mean(np.abs(psi) ** 2))


def _energy(spectrum: np.ndarray, psi: np.ndarray, k2: np.ndarray,
            cos2: np.ndarray, s: float, g: float) -> float:
    """Mean energy density of psi, whose FFT is spectrum.

    The kinetic term mean|d psi|^2 is sum k^2 |spectrum|^2 / n^2 (Parseval).
    """
    dens = np.abs(psi) ** 2
    kin = np.dot(k2, np.abs(spectrum) ** 2) / psi.size**2
    return float(kin + np.mean((s * cos2 + 0.5 * g * dens) * dens))


def energy_of(psi: np.ndarray, params: NlseParams, tau: float = 0.0) -> float:
    """Mean energy density: |d psi|^2 + s cos^2 |psi|^2 + (g/2)|psi|^4."""
    s, g, _ = params.coefficients(tau)
    return _energy(np.fft.fft(psi), psi, *_box(params), s, g)


def contrast_of(psi: np.ndarray, params: NlseParams) -> float:
    """Modulation contrast (max-min)/(max+min) of the period-averaged density."""
    dens = np.abs(psi) ** 2
    folded = dens.reshape(params.n_periods, -1).mean(axis=0)
    hi, lo = folded.max(), folded.min()
    if hi + lo == 0:
        return 0.0
    return float((hi - lo) / (hi + lo))


def evolve(state: FieldState, params: NlseParams, dt: float, steps: int,
           record_every: int = 1) -> tuple[FieldState, Observables]:
    """Real-time Strang-split evolution: half kinetic / full potential / half kinetic.

    The kinetic factor is the exact spectral phase; the loss enters the
    potential step as a pointwise exp(-kappa dt / 2) amplitude factor, which
    is exact for the linear loss term.  The closing half kinetic factor of
    one step and the opening one of the next merge into one full factor, so
    the field returns to real space at a whole step only to be recorded or
    returned: 1 + 2 steps + records FFTs, records counted after the start.

    Every stage is unimodular or, with kappa >= 0, damping, so the norm
    never grows and max|psi| <= sqrt(n) max|psi_0| on n grid points.  The
    only guard is therefore NonFinite: it reads the |psi|^2 of every
    nonlinear stage and the norm and energy of every record, the start's
    included.
    """
    if dt <= 0:
        raise DomainError(f"dt must be positive, got {dt}")
    if steps < 0 or record_every < 1:
        raise DomainError(f"need steps >= 0 and record_every >= 1, got "
                          f"{steps} and {record_every}")
    if norm_of(state.psi) <= 0:
        raise DomainError("initial state has zero norm")
    psi = np.asarray(state.psi, dtype=complex).copy()
    k2, cos2 = _box(params)
    taus, norms, energies, contrasts = [], [], [], []

    def record(step):
        norm = norm_of(psi)
        s, g, _ = params.coefficients(tau)
        energy = _energy(spectrum, psi, k2, cos2, s, g)
        if not (math.isfinite(norm) and math.isfinite(energy)):
            raise NonFinite(f"non-finite field or energy at step {step}")
        taus.append(tau)
        norms.append(norm)
        energies.append(energy)
        contrasts.append(contrast_of(psi, params))

    tau = state.time
    # an overflow (a huge dt, s or g) leaves a non-finite field or energy,
    # which the guard reads at the next step or record
    with np.errstate(over="ignore", invalid="ignore"):
        spectrum = np.fft.fft(psi)
        half_kin = np.exp(-1j * k2 * dt / 2)
        full_kin = half_kin * half_kin
        record(0)
        kin = half_kin
        for step in range(1, steps + 1):
            s, g, kap = params.coefficients(tau + dt / 2)
            field = np.fft.ifft(kin * spectrum)
            dens = np.abs(field) ** 2
            field *= np.exp(-1j * dt * (s * cos2 + g * dens)) \
                * math.exp(-kap * dt / 2)
            spectrum = np.fft.fft(field)
            tau += dt
            if not math.isfinite(dens.max()):
                raise NonFinite(f"non-finite field at step {step}")
            if step % record_every and step != steps:
                kin = full_kin
                continue
            spectrum *= half_kin
            psi = np.fft.ifft(spectrum)
            record(step)
            kin = half_kin

    obs = Observables(np.array(taus), np.array(norms),
                      np.array(energies), np.array(contrasts))
    return FieldState(psi, tau), obs


def ground_state(params: NlseParams) -> GroundState:
    """Mean-field ground state: the minimum of energy_of at unit mean density.

    Preconditioned gradient descent on that sphere (Antoine, Levitt & Tang,
    J. Comput. Phys. 343, 92 (2017)).  The state is real and positive, so
    it is carried in real FFTs.  Each iteration forms H psi = -psi'' +
    (s cos^2 + g psi^2) psi, mu = <psi, H psi> and the residual r = H psi -
    mu psi, steps along -P r with P = 1/(k^2 + s + 2g + 1) and the part of
    P r along P psi projected out, and renormalizes: three FFTs.  A density
    ripple on the uniform state has residual (k^2 + 2g) times its
    amplitude, so P brings every mode's step close to one even at large g.

    Stops when |r| / |psi| <= GROUND_TOL max(|mu|, 1) + eps (k_max^2 + s +
    g max psi^2); the second term is the float64 rounding of H psi on this
    grid.  Raises NonFinite as soon as the residual is not finite and
    NoConvergence after GROUND_MAX_STEPS iterations.  The state is returned
    complex, with the iterations taken and its residual.
    """
    if params.kappa_dimless != 0 or any(p[3] != 0 for p in params.schedule):
        raise DomainError("ground_state requires kappa = 0")
    n = params.grid_points
    k2, cos2 = _box(params)
    k2 = k2[:n // 2 + 1]                 # the modes np.fft.rfft keeps
    s, g, _ = params.coefficients(0.0)
    potential = s * cos2
    precond = 1 / (k2 + s + 2 * g + 1)
    # <a, P b> = sum(p_weight Re(conj(a_hat) b_hat)) / n^2 over the rfft
    # modes, each of which but k = 0 and the Nyquist mode stands for two
    p_weight = 2 * precond
    p_weight[[0, -1]] /= 2
    eps = np.finfo(float).eps

    # small symmetry-breaking seed so the lattice minima are found quickly
    psi = 1 + 0.05 * np.sin(grid(params)) ** 2
    psi /= math.sqrt(norm_of(psi))
    spectrum = np.fft.rfft(psi)
    # an overflow leaves a non-finite residual, which raises NonFinite
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(GROUND_MAX_STEPS + 1):
            dens = psi * psi
            h_psi = np.fft.irfft(k2 * spectrum, n) \
                + (potential + g * dens) * psi
            mu = float(np.dot(psi, h_psi)) / n
            r = h_psi - mu * psi
            residual = math.sqrt(float(np.dot(r, r)) / n)
            if not math.isfinite(residual):
                raise NonFinite(f"non-finite residual {residual} after "
                                f"{iterations} iterations")
            if residual <= GROUND_TOL * max(abs(mu), 1.0) \
                    + eps * (k2[-1] + s + g * dens.max()):
                return GroundState(psi.astype(complex), 0.0, iterations,
                                   residual)
            if iterations == GROUND_MAX_STEPS:
                raise NoConvergence(f"residual {residual:.3g} after "
                                    f"{GROUND_MAX_STEPS} iterations")
            r_hat = np.fft.rfft(r)
            along = np.dot(p_weight, (spectrum.conj() * r_hat).real) \
                / np.dot(p_weight, np.abs(spectrum) ** 2)
            spectrum -= precond * (r_hat - along * spectrum)
            psi = np.fft.irfft(spectrum, n)
            scale = math.sqrt(norm_of(psi))
            psi /= scale
            spectrum /= scale


def release_profile(state: FieldState, params: NlseParams, v_g: float,
                    n_ph: float) -> tuple[np.ndarray, np.ndarray]:
    """Map the spatial density to the outgoing intensity time series.

    Zeroth-order release model: the frozen density profile streams out at the
    group velocity, t = z / v_g with z = xi / (pi n_ph).  Returns (times in
    seconds, intensity); integrating intensity over time gives the state norm
    times the physical box length n_periods / n_ph.
    """
    if v_g <= 0:
        raise DomainError(f"v_g must be positive, got {v_g}")
    if n_ph <= 0:
        raise DomainError(f"n_ph must be positive, got {n_ph}")
    z = grid(params) / (math.pi * n_ph)
    times = z / v_g
    intensity = np.abs(state.psi) ** 2 * v_g
    return times, intensity
