"""Split-step spectral solver for the dimensionless lattice NLSE.

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
# First imaginary-time step of ground_state; each later stage quarters it.
GROUND_DT = 5e-3
# Imaginary-time steps ground_state may take over all four stages.
GROUND_MAX_STEPS = 200_000
# A ground_state stage stops when one step changes the energy E by at most
# GROUND_TOL * max(|E|, 1).
GROUND_TOL = 1e-12
# Imaginary time lowers the energy; a step that raises it by more than
# GROUND_MAX_RISE * max(|E|, 1) marks a stage whose g dt is too large to relax.
GROUND_MAX_RISE = 1e-3


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


def _split_step(spectrum: np.ndarray, kin: np.ndarray,
                potential: np.ndarray, g: float, z: complex,
                loss: float) -> tuple[np.ndarray, np.ndarray]:
    """One Strang step from spectrum, the FFT of the field, up to its
    closing half kinetic factor, which the caller applies.

    The opening kinetic factor kin, then the pointwise factor exp(z
    (potential + g |psi|^2)) times loss: two FFTs.  kin is the half step
    exp(z k^2 / 2), or the full one when it also closes the previous step.
    z = -dt steps in imaginary time, z = -i dt in real time.  Returns the
    FFT of the field after the pointwise factor and the |psi|^2 it read.
    """
    psi = np.fft.ifft(kin * spectrum)
    dens = np.abs(psi) ** 2
    psi *= np.exp(z * (potential + g * dens)) * loss
    return np.fft.fft(psi), dens


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
    nonlinear stage and the norm of every record, the start's included.
    """
    if dt <= 0:
        raise DomainError(f"dt must be positive, got {dt}")
    if steps < 0 or record_every < 1:
        raise DomainError(f"need steps >= 0 and record_every >= 1, got "
                          f"{steps} and {record_every}")
    if norm_of(state.psi) <= 0:
        raise DomainError("initial state has zero norm")
    psi = np.asarray(state.psi, dtype=complex).copy()
    spectrum = np.fft.fft(psi)
    k2, cos2 = _box(params)
    half_kin = np.exp(-1j * k2 * dt / 2)
    full_kin = half_kin * half_kin

    taus, norms, energies, contrasts = [], [], [], []

    def record(step):
        norm = norm_of(psi)
        if not math.isfinite(norm):
            raise NonFinite(f"non-finite field at step {step}")
        s, g, _ = params.coefficients(tau)
        taus.append(tau)
        norms.append(norm)
        energies.append(_energy(spectrum, psi, k2, cos2, s, g))
        contrasts.append(contrast_of(psi, params))

    tau = state.time
    record(0)
    kin = half_kin
    for step in range(1, steps + 1):
        s, g, kap = params.coefficients(tau + dt / 2)
        spectrum, dens = _split_step(spectrum, kin, s * cos2, g, -1j * dt,
                                     math.exp(-kap * dt / 2))
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


def ground_state(params: NlseParams) -> FieldState:
    """Imaginary-time relaxation to the mean-field ground state.

    Renormalizes |psi|^2 back to unit spatial mean after every step and stops
    when the relative energy change per step drops below GROUND_TOL.  It
    raises NonFinite as soon as the energy is not finite, and NoConvergence
    as soon as one step raises the energy by more than GROUND_MAX_RISE
    relative to max(|E|, 1), which an unstable stage does.  The time step
    is reduced in stages after each converged pass, removing the O(dt^2)
    splitting bias so the returned state is stationary under real-time
    evolution.  Each step starts from the spectrum the previous one ended
    on and closes with its half kinetic factor, which also gives the
    energy: three FFTs per step.
    """
    if params.kappa_dimless != 0 or any(p[3] != 0 for p in params.schedule):
        raise DomainError("ground_state requires kappa = 0")
    xi = grid(params)
    k2, cos2 = _box(params)
    s, g, _ = params.coefficients(0.0)
    potential = s * cos2

    # small symmetry-breaking seed so the lattice minima are found quickly
    psi = np.ones(params.grid_points, dtype=complex) + 0.05 * np.sin(xi) ** 2
    psi /= math.sqrt(norm_of(psi))
    spectrum = np.fft.fft(psi)
    e = _energy(spectrum, psi, k2, cos2, s, g)
    budget = GROUND_MAX_STEPS
    for stage_dt in (GROUND_DT, GROUND_DT / 4, GROUND_DT / 16, GROUND_DT / 64):
        half_kin = np.exp(-k2 * stage_dt / 2)
        e_prev = math.inf
        while not abs(e - e_prev) <= GROUND_TOL * max(abs(e), 1.0):
            if not math.isfinite(e):
                raise NonFinite(f"non-finite energy {e} after "
                                f"{GROUND_MAX_STEPS - budget} steps")
            if budget == 0:
                raise NoConvergence(
                    f"imaginary time did not converge in {GROUND_MAX_STEPS} "
                    "steps")
            budget -= 1
            spectrum, _ = _split_step(spectrum, half_kin, potential, g,
                                      -stage_dt, 1.0)
            spectrum *= half_kin
            psi = np.fft.ifft(spectrum)
            scale = math.sqrt(norm_of(psi))
            psi /= scale
            spectrum /= scale
            e_prev, e = e, _energy(spectrum, psi, k2, cos2, s, g)
            if e - e_prev > GROUND_MAX_RISE * max(abs(e), 1.0):
                raise NoConvergence(
                    f"imaginary-time step {GROUND_MAX_STEPS - budget} "
                    f"(dt = {stage_dt}) raised the energy by {e - e_prev:.3g}"
                    f" to {e:.6g}: the stage is unstable")
    return FieldState(psi, 0.0)


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
