"""Lattice NLSE: split-step real-time evolution and its ground state.

Working equation (lattice units: xi = pi n_ph z, tau = E_R t / hbar):

    i d_tau psi = [ -d_xi^2 + s cos^2(xi) + g |psi|^2 - i kappa/2 ] psi

with s = V1/E_R, g = 4|gamma|/pi^2 when |psi|^2 is normalized to unit spatial
mean, and kappa the loss rate in recoil units.  Periodic box of n_periods
lattice periods, i.e. xi in [0, pi n_periods).

A field that repeats on every period stays periodic under the equation,
and the ground state (the nondegenerate q = 0 Bloch state for g >= 0) is
one.  ground_state and evolve solve such a field on one period of the
box's grid spacing and tile it to the box: the lattice-periodic sector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

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
    """Box, grid and (s, g, kappa) from one table: the schedule's (tau, s,
    g, kappa) rows, or with none the static fields as one row at tau = 0."""
    v1_over_er: float = 0.0         # lattice depth s
    g_int: float = 0.0              # nonlinear coupling g
    kappa_dimless: float = 0.0      # loss rate in recoil units
    n_periods: int = 8
    grid_points: int = 256
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
        if any(len(point) != 4 for point in self.schedule):
            raise ConfigError("each schedule row must hold four numbers "
                              "(tau, s, g, kappa)")
        taus = [point[0] for point in self.schedule]
        coefficients = (self.v1_over_er, self.g_int, self.kappa_dimless,
                        *(x for point in self.schedule for x in point[1:]))
        if not all(map(math.isfinite, taus)) \
                or not all(0 <= x < math.inf for x in coefficients):
            raise ConfigError("schedule times must be finite, and lattice "
                              "depth, coupling and loss finite and >= 0")
        if any(a >= b for a, b in zip(taus, taus[1:])):
            raise ConfigError("schedule times must strictly increase")

    @cached_property
    def _table(self) -> tuple[np.ndarray, ...]:
        """The tau, s, g and kappa columns of the coefficient table."""
        static = (0.0, self.v1_over_er, self.g_int, self.kappa_dimless)
        return tuple(np.array(self.schedule or [static], float).T)

    def coefficients(self, tau: float) -> tuple[float, float, float]:
        """(s, g, kappa) at time tau: linear between the table's rows, the
        end rows' outside them; a one-row table's at every tau, bit for bit."""
        ts, *cols = self._table
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
    return _grid(params, params.n_periods)


def _grid(params: NlseParams, periods: int) -> np.ndarray:
    """xi on the first `periods` lattice periods of the box's grid."""
    n = params.grid_points
    return np.arange(n // params.n_periods * periods) \
        * (math.pi * params.n_periods / n)


def _box(params: NlseParams, periods: int) -> tuple[np.ndarray, np.ndarray]:
    """k^2 of the FFT modes and cos^2(xi) on the first `periods` lattice
    periods of the box's grid, periodic on them."""
    n = params.grid_points
    xi = _grid(params, periods)
    k = 2 * math.pi * np.fft.fftfreq(xi.size,
                                     d=math.pi * params.n_periods / n)
    return k**2, np.cos(xi) ** 2


@cache
def _fft_kernels() -> tuple:
    """The FFTs of this module, (fft, ifft, rfft, irfft): numpy's pocketfft
    gufuncs, called directly.

    Each is called as kernel(a, scale, out=buf): it writes the transform of
    a along its last axis, times scale, into buf and returns buf, so a
    (rows, n) a transforms its rows with the bits of one row at a time.
    Callers pass np.fft's own scales, 1 forward and 1/n inverse on n
    points.

    They are the kernels np.fft's wrappers call with the same scale, so the
    bits are np.fft's, without the ~10 us of Python each np.fft call spends
    before them.  rfft picks its kernel by parity as np.fft does:
    rfft_n_even for an even n, rfft_n_odd for the one point of a period of
    a single grid point.  The private module they live in exists from
    numpy 2.0; where it or a kernel is missing, np.fft behind the same call
    is used.  Resolved on first use: importing numpy.fft costs ~2 ms, which
    the subcommands that take no FFT need not pay.
    """
    try:
        from numpy.fft import _pocketfft_umath as pfu
        even, odd = pfu.rfft_n_even, pfu.rfft_n_odd
    except (ImportError, AttributeError):
        return _np_fft_kernels()

    def rfft(a, scale, out):
        return (odd if a.shape[-1] % 2 else even)(a, scale, out=out)
    return pfu.fft, pfu.ifft, rfft, pfu.irfft


def _np_fft_kernels() -> tuple:
    """np.fft.fft, ifft, rfft and irfft behind the kernels' call (numpy <
    2.0, whose np.fft takes no out=): each writes np.fft's result on n
    points, the longer last axis of a and out, into out, scaled by np.fft
    itself."""
    def into(transform):
        def kernel(a, scale, out):
            out[...] = transform(a, max(a.shape[-1], out.shape[-1]))
            return out
        return kernel
    return tuple(map(into, (np.fft.fft, np.fft.ifft, np.fft.rfft,
                            np.fft.irfft)))


def _check_box(psi: np.ndarray, params: NlseParams) -> None:
    """DomainError unless psi holds one value at each of the box's points."""
    if np.shape(psi) != (params.grid_points,):
        raise DomainError(f"psi has shape {np.shape(psi)}, not the box's "
                          f"({params.grid_points},)")


def norm_of(psi: np.ndarray) -> float:
    return float(np.mean(np.abs(psi) ** 2))


def _kinetic(spectrum: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """Mean |d psi|^2 of fields with FFT spectra spectrum, along the last
    axis: sum k^2 |spectrum|^2 / n^2 (Parseval)."""
    return (k2 * np.abs(spectrum) ** 2).sum(axis=-1) / spectrum.shape[-1]**2


def _potential(dens: np.ndarray, cos2: np.ndarray, s, g) -> np.ndarray:
    """Mean s cos^2 |psi|^2 + (g/2)|psi|^4 of densities dens along the last
    axis; s and g broadcast against dens."""
    return np.mean((s * cos2 + 0.5 * g * dens) * dens, axis=-1)


def energy_of(psi: np.ndarray, params: NlseParams, tau: float = 0.0) -> float:
    """Mean energy density: |d psi|^2 + s cos^2 |psi|^2 + (g/2)|psi|^4."""
    _check_box(psi, params)
    s, g, _ = params.coefficients(tau)
    fft, *_ = _fft_kernels()
    spectrum = fft(psi, 1.0, out=np.empty(np.shape(psi), dtype=complex))
    k2, cos2 = _box(params, params.n_periods)
    return float(_kinetic(spectrum, k2)
                 + _potential(np.abs(psi) ** 2, cos2, s, g))


def _contrast(dens: np.ndarray, n_periods: int) -> np.ndarray:
    """(max-min)/(max+min) of the densities dens averaged over the periods,
    along the last axis; 0 for a density that is zero everywhere."""
    folded = dens.reshape(*dens.shape[:-1], n_periods, -1).mean(axis=-2)
    hi, lo = folded.max(axis=-1), folded.min(axis=-1)
    total = hi + lo
    return np.divide(hi - lo, total, out=np.zeros_like(total),
                     where=total != 0)


def contrast_of(psi: np.ndarray, params: NlseParams) -> float:
    """Modulation contrast (max-min)/(max+min) of the period-averaged density."""
    _check_box(psi, params)
    return float(_contrast(np.abs(psi) ** 2, params.n_periods))


def evolve(state: FieldState, params: NlseParams, dt: float, steps: int,
           record_every: int = 1) -> tuple[FieldState, Observables]:
    """Real-time Strang-split evolution: half kinetic / full potential / half kinetic.

    The kinetic factor is the exact spectral phase; the loss enters the
    potential step as a pointwise exp(-kappa dt / 2) amplitude factor, which
    is exact for the linear loss term.  The closing half kinetic factor of
    one step and the opening one of the next merge into one full factor, so
    the field returns to real space at a whole step only to be recorded or
    returned: 1 + 2 steps + records transforms, records counted after the
    start.

    A step works in preallocated buffers: the spectrum and the field, which
    its two FFTs write, the real phase |psi|^2 (-g dt) + s cos^2 (-dt) and
    the rotation cos + i sin of that phase, times the loss factor only when
    kappa != 0 (the bits of the complex exp times that factor).  s, g and
    kappa come from the table of params.coefficients.  A one-row table's
    step is formed once; a longer table is interpolated for a block of at
    most max(1, 2^16 // m) steps at once, at midpoints accumulated as tau
    is, and s cos^2 (-dt) of each step is one row of that block.  A record
    copies the spectrum, its step and tau into a block of at most
    max(1, 2^16 // m) rows of the m points the run takes (~1 MiB); a full
    block, and the last one, is transformed back in place in one batched
    inverse FFT, and its norms, energies (at the table's s and g) and
    contrasts are read along the rows.  The start is recorded from the
    field it holds, and the returned psi is the last record's.

    A start that repeats bit for bit on every lattice period stays
    periodic, so the steps and records run on one period of m = n /
    n_periods points, m = 1 included, and the returned psi is that period
    tiled to the box.  Any other start runs on the whole box.

    Every stage is unimodular or, with kappa >= 0, damping, so the norm
    never grows and max|psi|^2 <= n norm(psi_0) on the n points of the
    box.  A step's phase is then at most dt (k_max^2 + max s + max g n
    norm(psi_0)), maxima over the table's rows, with the box's k_max = m
    and n also on one period; once that bound reaches 1/eps radians, where
    rounding alone exceeds a radian, DomainError is raised after the start
    is recorded, as it is for a start of zero norm.  Otherwise the only
    guard is NonFinite, raised for the first record, the start's included,
    whose norm or energy is not finite: a non-finite field spreads through
    the next FFT, and the last step is always recorded.
    """
    psi = np.asarray(state.psi, dtype=complex)
    _check_box(psi, params)
    if not dt > 0:
        raise DomainError(f"dt must be positive, got {dt}")
    if steps < 0 or record_every < 1:
        raise DomainError(f"need steps >= 0 and record_every >= 1, got "
                          f"{steps} and {record_every}")
    cells = psi.reshape(params.n_periods, -1)
    periods = 1 if (cells == cells[0]).all() else params.n_periods
    field = (cells[0] if periods == 1 else psi).copy()
    fft, ifft, _, _ = _fft_kernels()
    n = field.size
    k2, cos2 = _box(params, periods)
    phase = np.empty(n)
    rot = np.empty(n, dtype=complex)
    rot_cos, rot_sin = rot.real, rot.imag
    ts, s_col, g_col, kappa_col = params._table
    ramp = ts.size > 1
    # the records after the start: their spectra, transformed in place a
    # block of rows at a time; a ramp's coefficients, a span of steps at a
    # time (~0.5 MiB)
    span = max(1, 2**16 // n)
    block = min(-(-steps // record_every), span)
    spectra = np.empty((block, n), dtype=complex)
    row_tau, row_step = np.empty(block), np.empty(block, dtype=int)
    observed = []

    def scheduled_steps(tau, count):
        """(pot_dt, g_dt, kappa, loss) of the next `count` steps from tau,
        interpolated at their midpoints in one call per column; the
        midpoints accumulate dt as the loop accumulates tau."""
        mids = np.cumsum([tau] + [dt] * (count - 1)) + dt / 2
        s, g, kappa = (np.interp(mids, ts, col)
                       for col in (s_col, g_col, kappa_col))
        pot = np.multiply.outer(s, cos2)
        pot *= -dt
        kappa = kappa.tolist()
        return zip(pot, (g * -dt).tolist(), kappa,
                   [math.exp(-k * dt / 2) for k in kappa])

    def record(kinetic, fields, times, at):
        dens = np.abs(fields) ** 2
        norm = np.mean(dens, axis=-1)
        s, g = (np.interp(times, ts, col)[:, None] for col in (s_col, g_col))
        energy = kinetic + _potential(dens, cos2, s, g)
        bad = ~(np.isfinite(norm) & np.isfinite(energy))
        if bad.any():
            raise NonFinite(f"non-finite field or energy at step "
                            f"{at[bad.argmax()]}")
        observed.append((times.copy(), norm, energy,
                         _contrast(dens, periods)))

    tau = state.time
    # an overflow (a huge dt, s or g) leaves a non-finite field or energy,
    # which the guard reads at the next record
    with np.errstate(over="ignore", invalid="ignore"):
        spectrum = fft(field, 1.0, out=np.empty_like(field))
        half_kin = np.exp(-1j * k2 * dt / 2)
        full_kin = half_kin * half_kin
        record(_kinetic(spectrum, k2), field[None], np.array([tau]), [0])
        if not observed[0][1][0] > 0:
            raise DomainError("initial state has zero norm")
        # |phase| of a step <= dt (k^2 + s + g max|psi|^2), and max|psi|^2
        # <= n norm on the box's n points: from 1/eps radians on, rounding
        # alone is a radian.  k_max = n / n_periods is the box's Nyquist
        # mode, bit for bit its k2.max()
        bound = dt * ((params.grid_points / params.n_periods) ** 2
                      + s_col.max()
                      + g_col.max() * params.grid_points * observed[0][1][0])
        if not bound < 1 / np.finfo(float).eps:
            raise DomainError(f"a step's phase may reach {bound:.3g} rad "
                              "(dt, s or g too large): its rounding alone "
                              "exceeds a radian")
        if not ramp:
            s, g, kappa = params.coefficients(tau)
            pot_dt, g_dt = (s * cos2) * -dt, g * -dt
            loss = math.exp(-kappa * dt / 2)
        final, rows, kin = field, 0, half_kin
        for step in range(1, steps + 1):
            if ramp:
                if (step - 1) % span == 0:
                    ahead = scheduled_steps(tau, min(span, steps + 1 - step))
                pot_dt, g_dt, kappa, loss = next(ahead)
            # kin * spectrum, not spectrum * kin: the bits differ
            np.multiply(kin, spectrum, out=spectrum)
            ifft(spectrum, 1 / n, out=field)
            np.abs(field, out=phase)
            np.square(phase, out=phase)
            phase *= g_dt
            phase += pot_dt
            np.cos(phase, out=rot_cos)
            np.sin(phase, out=rot_sin)
            if kappa:
                rot *= loss
            field *= rot
            fft(field, 1.0, out=spectrum)
            tau += dt
            if step % record_every and step != steps:
                kin = full_kin
                continue
            spectrum *= half_kin
            spectra[rows] = spectrum
            row_tau[rows], row_step[rows] = tau, step
            rows += 1
            if rows == block or step == steps:
                kinetic = _kinetic(spectra[:rows], k2)
                ifft(spectra[:rows], 1 / n, out=spectra[:rows])
                record(kinetic, spectra[:rows], row_tau[:rows],
                       row_step[:rows])
                final, rows = spectra[rows - 1], 0
            kin = half_kin

    obs = Observables(*map(np.concatenate, zip(*observed)))
    return FieldState(np.tile(final, params.n_periods // periods), tau), obs


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
    The seed and every iterate repeat on each lattice period, so the
    descent runs on one period of the box's grid, m = n / n_periods points,
    and the state is tiled to the box: means, residual and stop are those
    of the box.

    Stops when |r| / |psi| <= GROUND_TOL max(|mu|, 1) + eps (k_max^2 + s +
    g max psi^2), with the box's k_max = m; the second term is the float64
    rounding of H psi on this grid.  Raises NonFinite as soon as the
    residual is not finite and NoConvergence after GROUND_MAX_STEPS
    iterations.  The state is returned complex, with the iterations taken
    and its residual.
    """
    if params._table[3].any():
        raise DomainError("ground_state requires kappa = 0")
    n = params.grid_points // params.n_periods
    k2_max = (params.grid_points / params.n_periods) ** 2
    _, _, rfft, irfft = _fft_kernels()
    k2, cos2 = _box(params, 1)
    k2 = k2[:n // 2 + 1]                 # the modes rfft keeps
    s, g, _ = params.coefficients(0.0)
    potential = s * cos2
    precond = 1 / (k2 + s + 2 * g + 1)
    # <a, P b> = sum(p_weight Re(conj(a_hat) b_hat)) / n^2 over the rfft
    # modes, each of which but k = 0 and the Nyquist mode stands for two
    p_weight = 2 * precond
    p_weight[[0, -1]] /= 2
    eps = np.finfo(float).eps

    # small symmetry-breaking seed so the lattice minima are found quickly
    psi = 1 + 0.05 * np.sin(_grid(params, 1)) ** 2
    psi /= math.sqrt(norm_of(psi))
    spectrum = rfft(psi, 1.0, out=np.empty(n // 2 + 1, dtype=complex))
    # an overflow leaves a non-finite residual, which raises NonFinite
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(GROUND_MAX_STEPS + 1):
            dens = psi * psi
            h_psi = irfft(k2 * spectrum, 1 / n, out=np.empty(n)) \
                + (potential + g * dens) * psi
            mu = float(np.dot(psi, h_psi)) / n
            r = h_psi - mu * psi
            residual = math.sqrt(float(np.dot(r, r)) / n)
            if not math.isfinite(residual):
                raise NonFinite(f"non-finite residual {residual} after "
                                f"{iterations} iterations")
            if residual <= GROUND_TOL * max(abs(mu), 1.0) \
                    + eps * (k2_max + s + g * dens.max()):
                psi = np.tile(psi.astype(complex), params.n_periods)
                return GroundState(psi, 0.0, iterations, residual)
            if iterations == GROUND_MAX_STEPS:
                raise NoConvergence(f"residual {residual:.3g} after "
                                    f"{GROUND_MAX_STEPS} iterations")
            r_hat = rfft(r, 1.0, out=np.empty_like(spectrum))
            along = np.dot(p_weight, (spectrum.conj() * r_hat).real) \
                / np.dot(p_weight, np.abs(spectrum) ** 2)
            spectrum -= precond * (r_hat - along * spectrum)
            psi = irfft(spectrum, 1 / n, out=np.empty(n))
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
    if not 0 < v_g < math.inf:
        raise DomainError(f"v_g must be positive and finite, got {v_g}")
    if not 0 < n_ph < math.inf:
        raise DomainError(f"n_ph must be positive and finite, got {n_ph}")
    _check_box(state.psi, params)
    times = grid(params) / (math.pi * n_ph) / v_g
    return times, np.abs(state.psi) ** 2 * v_g
