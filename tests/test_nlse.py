import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from polariton_phases import nlse, optics
from polariton_phases.config import default_config
from polariton_phases.errors import (
    ConfigError,
    DimensionOverflow,
    DomainError,
    NoConvergence,
    NonFinite,
)
from polariton_phases.nlse import (
    FieldState,
    NlseParams,
    contrast_of,
    energy_of,
    evolve,
    grid,
    ground_state,
    interaction_strength,
    norm_of,
    release_profile,
)

from conftest import check_ground_residual, with_


def _gaussian(params, sigma, k0=0.0):
    """Amplitude-width-sigma Gaussian centered in the box, optional boost."""
    xi = grid(params)
    x0 = math.pi * params.n_periods / 2
    psi = np.exp(-((xi - x0) ** 2) / (2 * sigma**2)) * np.exp(1j * k0 * xi)
    return FieldState(psi.astype(complex))


def _width_squared(psi, params):
    """Amplitude-width^2 from the density second moment (2 <xi^2>_dens)."""
    xi = grid(params)
    dens = np.abs(psi) ** 2
    com = (xi * dens).sum() / dens.sum()
    return 2 * ((xi - com) ** 2 * dens).sum() / dens.sum()


def _mathieu_ground_density(params):
    """Independent oracle: dense diagonalization of the banded fourth-order
    finite-difference Hamiltonian -d2/dxi2 + s cos^2(xi), periodic."""
    n = params.grid_points
    dx = math.pi * params.n_periods / n
    xi = grid(params)
    h = np.zeros((n, n))
    np.fill_diagonal(h, 30 / (12 * dx**2)
                     + params.v1_over_er * np.cos(xi) ** 2)
    idx = np.arange(n)
    h[idx, (idx + 1) % n] = h[idx, (idx - 1) % n] = -16 / (12 * dx**2)
    h[idx, (idx + 2) % n] = h[idx, (idx - 2) % n] = 1 / (12 * dx**2)
    w, v = scipy.linalg.eigh(h)
    dens = v[:, 0] ** 2
    return dens / dens.mean()


def _derivative_energy(psi, params, tau):
    """Oracle: the energy density with the gradient taken in real space,
    mean|ifft(ik fft psi)|^2 + s <cos^2 |psi|^2> + g/2 <|psi|^4>."""
    s, g, _ = params.coefficients(tau)
    n = params.grid_points
    k = 2 * math.pi * np.fft.fftfreq(n, d=math.pi * params.n_periods / n)
    dpsi = np.fft.ifft(1j * k * np.fft.fft(psi))
    return float(np.mean(np.abs(dpsi) ** 2)
                 + np.mean(s * np.cos(grid(params)) ** 2 * np.abs(psi) ** 2)
                 + 0.5 * g * np.mean(np.abs(psi) ** 4))


def _counting(calls, name, kernel):
    """The FFT kernel, counting in calls[name] the rows each call
    transforms: one for a 1-D input, r for an (r, n) batch."""
    calls.setdefault(name, 0)

    def wrapper(a, *args, **kwargs):
        calls[name] += math.prod(np.shape(a)[:-1])
        return kernel(a, *args, **kwargs)
    return wrapper


def _count_ffts(monkeypatch):
    """Counts every transform of nlse's fft, ifft, rfft and irfft kernels
    in the "fft" entry, each row of a batch as one."""
    calls = {}
    counted = tuple(_counting(calls, "fft", kernel)
                    for kernel in nlse._fft_kernels())
    monkeypatch.setattr(nlse, "_fft_kernels", lambda: counted)
    return calls


def _evolve_reference(state, params, dt, steps, record_every):
    """Oracle: evolve's step loop before it worked in place, kept verbatim,
    with the coefficient, norm, energy and contrast formulas it called
    inlined."""
    def coefficients(tau):
        if not params.schedule:
            return params.v1_over_er, params.g_int, params.kappa_dimless
        ts, *cols = zip(*params.schedule)
        return tuple(float(np.interp(tau, ts, col)) for col in cols)

    def norm_of(psi):
        return float(np.mean(np.abs(psi) ** 2))

    def _energy(spectrum, psi, k2, cos2, s, g):
        dens = np.abs(psi) ** 2
        kin = np.dot(k2, np.abs(spectrum) ** 2) / psi.size**2
        return float(kin + np.mean((s * cos2 + 0.5 * g * dens) * dens))

    def contrast_of(psi, params):
        dens = np.abs(psi) ** 2
        folded = dens.reshape(params.n_periods, -1).mean(axis=0)
        hi, lo = folded.max(), folded.min()
        if hi + lo == 0:
            return 0.0
        return float((hi - lo) / (hi + lo))

    psi = np.asarray(state.psi, dtype=complex).copy()
    n = params.grid_points
    k = 2 * math.pi * np.fft.fftfreq(n, d=math.pi * params.n_periods / n)
    k2, cos2 = k**2, np.cos(grid(params)) ** 2
    taus, norms, energies, contrasts = [], [], [], []

    def record(step):
        norm = norm_of(psi)
        s, g, _ = coefficients(tau)
        energy = _energy(spectrum, psi, k2, cos2, s, g)
        taus.append(tau)
        norms.append(norm)
        energies.append(energy)
        contrasts.append(contrast_of(psi, params))

    tau = state.time
    spectrum = np.fft.fft(psi)
    half_kin = np.exp(-1j * k2 * dt / 2)
    full_kin = half_kin * half_kin
    record(0)
    kin = half_kin
    for step in range(1, steps + 1):
        s, g, kap = coefficients(tau + dt / 2)
        field = np.fft.ifft(kin * spectrum)
        dens = np.abs(field) ** 2
        field *= np.exp(-1j * dt * (s * cos2 + g * dens)) \
            * math.exp(-kap * dt / 2)
        spectrum = np.fft.fft(field)
        tau += dt
        if step % record_every and step != steps:
            kin = full_kin
            continue
        spectrum *= half_kin
        psi = np.fft.ifft(spectrum)
        record(step)
        kin = half_kin

    obs = nlse.Observables(np.array(taus), np.array(norms),
                           np.array(energies), np.array(contrasts))
    return FieldState(psi, tau), obs


def _textbook_strang(psi, params, dt, steps):
    """Oracle: the Strang step as usually written, with four FFTs on the
    whole box: each half kinetic step transforms psi forward and back.
    Returns the final psi of steps steps from tau = 0."""
    n = params.grid_points
    k = 2 * math.pi * np.fft.fftfreq(n, d=math.pi * params.n_periods / n)
    half_kin = np.exp(-1j * k**2 * dt / 2)
    cos2 = np.cos(grid(params)) ** 2
    psi = psi.copy()
    for step in range(steps):
        s, g, kappa = params.coefficients((step + 0.5) * dt)
        psi = np.fft.ifft(half_kin * np.fft.fft(psi))
        psi *= np.exp(-1j * (s * cos2 + g * np.abs(psi) ** 2) * dt
                      - kappa * dt / 2)
        psi = np.fft.ifft(half_kin * np.fft.fft(psi))
    return psi


def _bdg_frequency(params, q):
    """Oracle: the lowest Bogoliubov-de Gennes frequency at Bloch momentum
    q about the ground state psi0, from a dense solve on one period of the
    box's grid.  L = [[A, B], [-B, -A]] with A = T_q + s cos^2 + 2 g psi0^2
    - mu and B = g psi0^2, T_q applying (k + q)^2 spectrally and mu =
    <psi0, H psi0> / <psi0, psi0>; omega(q) is L's smallest positive real
    eigenvalue."""
    m = params.grid_points // params.n_periods
    psi0 = ground_state(params).psi[:m].real
    k = 2 * math.pi * np.fft.fftfreq(m, d=math.pi / m)
    unit = np.fft.fft(np.eye(m), axis=0)

    def spectral(factor):
        return np.fft.ifft(factor[:, None] * unit, axis=0)
    s, g, _ = params.coefficients(0.0)
    potential = s * np.cos(grid(params)[:m]) ** 2 + g * psi0**2
    h = spectral(k**2).real + np.diag(potential)
    mu = psi0 @ h @ psi0 / (psi0 @ psi0)
    a = spectral((k + q) ** 2) + np.diag(potential + g * psi0**2 - mu)
    b = np.diag(g * psi0**2)
    omega = np.linalg.eigvals(np.block([[a, b], [-b, -a]]))
    real = omega[abs(omega.imag) <= 1e-9 * abs(omega.real)].real
    return real[real > 0].min()


def _fft_sizes(monkeypatch):
    """Lists the length of every transform nlse's fft, ifft, rfft and
    irfft kernels make, in call order and once for each row of a batch:
    the length of the real-space side."""
    sizes = []

    def sizing(kernel):
        def wrapper(a, scale, out):
            sizes.extend([max(a.shape[-1], out.shape[-1])]
                         * math.prod(a.shape[:-1]))
            return kernel(a, scale, out=out)
        return wrapper
    counted = tuple(map(sizing, nlse._fft_kernels()))
    monkeypatch.setattr(nlse, "_fft_kernels", lambda: counted)
    return sizes


def _periodic(psi, params):
    """Whether psi repeats bit for bit on every lattice period."""
    cells = psi.reshape(params.n_periods, -1)
    return bool((cells == cells[0]).all())


def _cli_default(**changes):
    """NlseParams at the CLI default's coupling, derived from the optics."""
    optics_cfg = default_config().optics
    return NlseParams(
        v1_over_er=optics.lattice_depth_ratio(optics_cfg),
        g_int=interaction_strength(
            optics.lieb_liniger_gamma(optics_cfg).magnitude), **changes)


_STATIC = NlseParams(v1_over_er=2.3, g_int=0.2, n_periods=8, grid_points=64)
_LOSSY = with_(_STATIC, kappa_dimless=0.1)
_SCHEDULED = NlseParams(n_periods=8, grid_points=64,
                        schedule=((0.0, 1.0, 0.2, 0.0),
                                  (0.1, 6.0, 0.9, 0.4)))
# the lossy ramp CI runs on the CLI
_CI_RAMP = dict(kappa_dimless=0.05,
                schedule=((0.0, 1.0, 0.2, 0.0), (2.0, 6.0, 0.9, 0.4)))
_ONE_POINT = NlseParams(v1_over_er=2.3, g_int=0.2, n_periods=16,
                        grid_points=16)
_SLOW_RAMP = with_(_SCHEDULED, schedule=((0.0, 1.0, 0.2, 0.0),
                                        (5.0, 6.0, 0.9, 0.4)))


class TestFftKernels:
    @pytest.mark.parametrize("resolver", ["_fft_kernels", "_np_fft_kernels"],
                             ids=["direct", "fallback"])
    def test_bits_equal_np_fft(self, rng, resolver):
        # every period length up to 4096: 1 to 8 points only as periods,
        # 16 and up also as grids
        fft, ifft, rfft, irfft = getattr(nlse, resolver)()
        for n in (2**e for e in range(13)):
            z = rng.normal(size=n) + 1j * rng.normal(size=n)
            x = rng.normal(size=n)
            half = z[:n // 2 + 1]
            assert np.array_equal(fft(z, 1.0, out=np.empty(n, complex)),
                                  np.fft.fft(z))
            assert np.array_equal(ifft(z, 1 / n, out=np.empty(n, complex)),
                                  np.fft.ifft(z))
            assert np.array_equal(
                rfft(x, 1.0, out=np.empty(n // 2 + 1, complex)),
                np.fft.rfft(x))
            assert np.array_equal(irfft(half, 1 / n, out=np.empty(n)),
                                  np.fft.irfft(half, n))

    @pytest.mark.parametrize("resolver", ["_fft_kernels", "_np_fft_kernels"],
                             ids=["direct", "fallback"])
    def test_batches_give_np_fft_bits_per_row(self, rng, resolver):
        # evolve transforms its records as (rows, m) blocks: each row must
        # carry np.fft's bits for that row alone, on both seams.  Two rows
        # of one point hold an even number of values, which picked the
        # even rfft kernel and, on the fallback, a length of 2
        fft, ifft, rfft, irfft = getattr(nlse, resolver)()
        for rows in (1, 2, 3):
            for m in (2**e for e in range(13)):
                x, y = rng.normal(size=(2, rows, m))
                z = x + 1j * y
                half = z[:, :m // 2 + 1].copy()
                for got, want in (
                        (fft(z, 1.0, out=np.empty((rows, m), complex)),
                         [np.fft.fft(row) for row in z]),
                        (ifft(z, 1 / m, out=np.empty((rows, m), complex)),
                         [np.fft.ifft(row) for row in z]),
                        (rfft(x, 1.0,
                              out=np.empty((rows, m // 2 + 1), complex)),
                         [np.fft.rfft(row) for row in x]),
                        (irfft(half, 1 / m, out=np.empty((rows, m))),
                         [np.fft.irfft(row, m) for row in half])):
                    assert np.array_equal(got, np.array(want))

    def test_direct_kernels_in_use(self, monkeypatch):
        # a numpy >= 2.0 that moves or renames the private module fails
        # here rather than silently running the np.fft fallback
        kernels = nlse._fft_kernels()
        if np.lib.NumpyVersion(np.__version__) < "2.0.0":
            assert not any(isinstance(k, np.ufunc) for k in kernels)
            return
        from numpy.fft import _pocketfft_umath as pfu
        fft, ifft, _, irfft = kernels
        assert (fft, ifft, irfft) == (pfu.fft, pfu.ifft, pfu.irfft)
        # rfft picks its kernel by parity, as np.fft does
        calls = []
        for name in ("rfft_n_even", "rfft_n_odd"):
            def spy(a, scale, out, kernel=getattr(pfu, name), name=name):
                calls.append((name, a.size))
                return kernel(a, scale, out=out)
            monkeypatch.setattr(pfu, name, spy)
        _, _, rfft, _ = nlse._fft_kernels.__wrapped__()
        for n in (1, 2, 4, 16):
            rfft(np.ones(n), 1.0, out=np.empty(n // 2 + 1, complex))
        assert calls == [("rfft_n_odd", 1), ("rfft_n_even", 2),
                         ("rfft_n_even", 4), ("rfft_n_even", 16)]

    @pytest.mark.parametrize("ramp", [False, True],
                             ids=["cli-default", "lossy-schedule"])
    def test_fallback_gives_the_same_bits(self, monkeypatch, ramp):
        # the CLI default's coupling, and the lossy ramp CI runs
        p = _cli_default(**_CI_RAMP) if ramp else _cli_default()

        def run():
            gs = ground_state(with_(p, kappa_dimless=0.0, schedule=()))
            final, obs = evolve(gs, p, dt=1e-3, steps=300, record_every=7)
            return (gs.psi, gs.iterations, gs.residual, energy_of(gs.psi, p),
                    final.psi, final.time, obs.tau, obs.norm, obs.energy,
                    obs.contrast)

        direct = run()
        monkeypatch.setattr(nlse, "_fft_kernels", nlse._np_fft_kernels)
        for want, got in zip(direct, run(), strict=True):
            assert np.array_equal(got, want)


class TestEnergy:
    @pytest.mark.parametrize("n", [64, 256])
    def test_parseval_matches_derivative_form(self, rng, n):
        p = NlseParams(n_periods=8, grid_points=n,
                       schedule=((0.0, 1.0, 0.2, 0.0),
                                 (2.0, 6.0, 0.9, 0.0)))
        for tau in (0.0, 0.7, 1.3, 2.5):
            psi = rng.normal(size=n) + 1j * rng.normal(size=n)
            assert energy_of(psi, p, tau) == pytest.approx(
                _derivative_energy(psi, p, tau), rel=1e-12)

    def test_input_validation(self):
        # a field off the box's 64 points ended in numpy's ValueError
        p = NlseParams(n_periods=8, grid_points=64)
        for shape in (60, 128, (8, 8)):
            psi = np.ones(shape, dtype=complex)
            with pytest.raises(DomainError, match="shape"):
                energy_of(psi, p)
            with pytest.raises(DomainError, match="shape"):
                contrast_of(psi, p)


class TestParamsValidation:
    def test_grid_must_be_power_of_two(self):
        with pytest.raises(ConfigError):
            NlseParams(grid_points=100)
        with pytest.raises(ConfigError):
            NlseParams(grid_points=8)

    def test_grid_cap(self):
        NlseParams(grid_points=nlse.MAX_GRID_POINTS)
        # rejected before the grid is allocated
        with pytest.raises(DimensionOverflow):
            NlseParams(grid_points=2 * nlse.MAX_GRID_POINTS, n_periods=1)
        with pytest.raises(DimensionOverflow):
            NlseParams(grid_points=2**40, n_periods=1)

    def test_periods_and_signs(self):
        with pytest.raises(ConfigError):
            NlseParams(n_periods=0)
        with pytest.raises(ConfigError):
            NlseParams(v1_over_er=-1.0)
        with pytest.raises(ConfigError):
            NlseParams(grid_points=64, n_periods=3)   # incommensurate

    @pytest.mark.parametrize("kw", [
        {"kappa_dimless": -0.1},
        {"schedule": ((0.0, -1.0, 0.1, 0.0),)},
        {"schedule": ((0.0, 1.0, -0.1, 0.0),)},
        {"schedule": ((0.0, 1.0, 0.1, -0.1),)},
        # np.interp needs increasing times
        {"schedule": ((1.0, 1.0, 0.1, 0.0), (0.0, 2.0, 0.1, 0.0))},
        {"schedule": ((0.0, 1.0, 0.1, 0.0), (0.0, 2.0, 0.1, 0.0))},
    ])
    def test_one_rule_for_static_and_schedule(self, kw):
        # s, g and kappa finite and >= 0 everywhere; times strictly increase
        with pytest.raises(ConfigError):
            NlseParams(**kw)

    @pytest.mark.parametrize("schedule", [
        ((0.0, 1.0, 0.2),),
        ((0.0, 1.0, 0.2, 0.0, 0.5),),
        ((0.0, 1.0, 0.2, 0.0), (1.0, 2.0, 0.3)),     # ragged
        ((0.0, 1.0, 0.2), (1.0, 2.0, 0.3, 0.0, 0.1)),
        ((),),
    ], ids=["three", "five", "four-three", "three-five", "empty-row"])
    def test_schedule_rows_hold_four_entries(self, schedule):
        # a row of another length would surface only in ground_state
        # (IndexError) or evolve (ValueError unpacking the table)
        with pytest.raises(ConfigError, match="four numbers"):
            NlseParams(n_periods=8, grid_points=64, schedule=schedule)

    @pytest.mark.parametrize("field", ["v1_over_er", "g_int",
                                       "kappa_dimless", "schedule"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_coefficients(self, field, value):
        # NaN passes the sign check, and ground_state would then spend its
        # whole step budget on a NaN field
        if field == "schedule":
            kw = {"schedule": ((0.0, 1.0, 0.1, 0.0), (1.0, value, 0.1, 0.0))}
        else:
            kw = {field: value}
        with pytest.raises(ConfigError):
            NlseParams(**kw)


class TestEvolve:
    def test_free_gaussian_dispersion(self):
        p = NlseParams(n_periods=16, grid_points=512)
        sigma0 = 1.0
        state = _gaussian(p, sigma0)
        tau = sigma0**2
        final, _ = evolve(state, p, dt=1e-3, steps=int(tau / 1e-3))
        expect = sigma0**2 * (1 + 4 * (tau / sigma0**2) ** 2)
        assert _width_squared(final.psi, p) == pytest.approx(expect, rel=0.01)

    def test_exponential_loss_decay(self):
        p = NlseParams(kappa_dimless=0.1, n_periods=8, grid_points=64)
        state = FieldState(np.ones(64, dtype=complex))
        final, obs = evolve(state, p, dt=1e-2, steps=500, record_every=100)
        assert np.allclose(obs.norm, np.exp(-0.1 * obs.tau), atol=1e-6)

    def test_norm_conservation_without_loss(self):
        p = NlseParams(v1_over_er=5.0, g_int=0.5, n_periods=8,
                       grid_points=128)
        state = _gaussian(p, 2.0)
        _, obs = evolve(state, p, dt=1e-3, steps=1000, record_every=100)
        assert abs(obs.norm - obs.norm[0]).max() < 1e-10

    def test_energy_drift_on_stationary_state(self):
        g = interaction_strength(0.21)
        p = NlseParams(v1_over_er=5.0, g_int=g, n_periods=8, grid_points=128)
        gs = ground_state(p)
        _, obs = evolve(gs, p, dt=1e-3, steps=10_000, record_every=1000)
        drift = abs(obs.energy - obs.energy[0]).max()
        assert drift / abs(obs.energy[0]) <= 1e-8

    def test_second_order_dt_convergence(self):
        p = NlseParams(v1_over_er=5.0, g_int=0.5, n_periods=8,
                       grid_points=128)
        state = _gaussian(p, 2.0)
        tau = 0.5
        ref, _ = evolve(state, p, dt=tau / 2**13, steps=2**13)
        dts, errs = [], []
        for k in (7, 8, 9, 10):   # 3 octaves
            steps = 2**k
            final, _ = evolve(state, p, dt=tau / steps, steps=steps)
            dts.append(tau / steps)
            errs.append(np.linalg.norm(final.psi - ref.psi)
                        / np.linalg.norm(ref.psi))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_spectral_accuracy_under_grid_doubling(self):
        results = []
        for n in (128, 256):
            p = NlseParams(v1_over_er=3.0, g_int=0.4, n_periods=8,
                           grid_points=n)
            xi = grid(p)
            psi = (1 + 0.1 * np.cos(xi)).astype(complex)
            psi /= math.sqrt(norm_of(psi))
            final, _ = evolve(FieldState(psi), p, dt=1e-3, steps=100)
            results.append((norm_of(final.psi), energy_of(final.psi, p),
                            contrast_of(final.psi, p)))
        assert np.allclose(results[0], results[1], rtol=0, atol=1e-8)

    def test_galilean_boost(self):
        p = NlseParams(n_periods=32, grid_points=1024)
        box = math.pi * p.n_periods
        k0 = 2 * math.pi * 8 / box        # integer mode, periodic-compatible
        state = _gaussian(p, 2.0, k0=k0)
        xi = grid(p)
        dens0 = np.abs(state.psi) ** 2
        com0 = (xi * dens0).sum() / dens0.sum()
        tau = 2.0
        final, _ = evolve(state, p, dt=1e-3, steps=int(tau / 1e-3))
        dens = np.abs(final.psi) ** 2
        com = (xi * dens).sum() / dens.sum()
        assert (com - com0) / tau == pytest.approx(2 * k0, rel=1e-3)

    def test_schedule_ramp_builds_contrast(self):
        p = NlseParams(n_periods=8, grid_points=128,
                       schedule=((0.0, 0.0, 0.0, 0.0),
                                 (5.0, 8.0, 0.0, 0.0)))
        state = FieldState(np.ones(128, dtype=complex))
        final, obs = evolve(state, p, dt=1e-3, steps=5000, record_every=500)
        assert contrast_of(final.psi, p) > 0.1
        assert obs.contrast[0] < 1e-12

    def test_constant_schedule_matches_static_run(self):
        kw = dict(n_periods=8, grid_points=128)
        static = NlseParams(v1_over_er=3.0, g_int=0.4, kappa_dimless=0.05,
                            **kw)
        flat = NlseParams(schedule=((0.0, 3.0, 0.4, 0.05),
                                    (1.0, 3.0, 0.4, 0.05)), **kw)
        state = _gaussian(static, 2.0)
        (f0, o0), (f1, o1) = [
            evolve(state, p, dt=1e-3, steps=2000, record_every=100)
            for p in (static, flat)]
        assert np.array_equal(f0.psi, f1.psi) and f0.time == f1.time
        for field in ("tau", "norm", "energy", "contrast"):
            assert np.array_equal(getattr(o0, field), getattr(o1, field))

    @pytest.mark.parametrize("kappa", [0.0, 0.1])
    @pytest.mark.parametrize("start", ["period", "box"])
    def test_one_row_schedule_is_the_static_run(self, start, kappa):
        # the static (s, g, kappa) are the coefficient table's one row at
        # tau = 0, and a one-row schedule is such a table too: every reader
        # gets the same bits, at any tau.  The scheduled twin's own static
        # fields are 0, which it never reads
        static = NlseParams(v1_over_er=2.3, g_int=0.2, kappa_dimless=kappa,
                            n_periods=8, grid_points=64)
        row = NlseParams(n_periods=8, grid_points=64,
                         schedule=((0.0, 2.3, 0.2, kappa),))
        psi = (ground_state(with_(static, kappa_dimless=0.0))
               if start == "period" else _gaussian(static, 2.0)).psi
        (f0, o0), (f1, o1) = [
            evolve(FieldState(psi, 0.5), p, dt=1e-3, steps=300,
                   record_every=7) for p in (static, row)]
        assert np.array_equal(f0.psi, f1.psi) and f0.time == f1.time
        for field in ("tau", "norm", "energy", "contrast"):
            assert np.array_equal(getattr(o0, field), getattr(o1, field))
        for tau in (0.0, 0.5, -3.0, math.inf, -math.inf, math.nan):
            assert static.coefficients(tau) == row.coefficients(tau) \
                == (2.3, 0.2, kappa)
            assert energy_of(f0.psi, static, tau) == energy_of(f0.psi, row,
                                                               tau)
        if kappa:
            for p in (static, row):
                with pytest.raises(DomainError, match="kappa = 0"):
                    ground_state(p)
        else:
            g0, g1 = ground_state(static), ground_state(row)
            assert np.array_equal(g0.psi, g1.psi)
            assert (g0.iterations, g0.residual) \
                == (g1.iterations, g1.residual)

    def test_phase_bound_reads_only_the_schedule(self):
        # a scheduled run never steps with the static s, so a static 1e300
        # beside a harmless schedule runs, as with a static 0 (the phase
        # bound once counted it and raised DomainError); the schedule's own
        # rows still count
        ramp = ((0.0, 1.0, 0.2, 0.0), (1.0, 2.0, 0.4, 0.0))
        p = NlseParams(v1_over_er=1e300, n_periods=8, grid_points=64,
                       schedule=ramp)
        state = _gaussian(p, 2.0)
        (f0, o0), (f1, o1) = [
            evolve(state, q, dt=1e-3, steps=50, record_every=7)
            for q in (p, with_(p, v1_over_er=0.0))]
        assert np.array_equal(f0.psi, f1.psi)
        assert np.array_equal(o0.energy, o1.energy)
        with pytest.raises(DomainError, match="rounding alone"):
            evolve(state, with_(p, schedule=(*ramp, (2.0, 1e300, 0.2, 0.0))),
                   dt=1e-3, steps=50)

    def test_nonfinite_detected(self):
        p = NlseParams(n_periods=8, grid_points=64)
        psi = np.ones(64, dtype=complex)
        psi[3] = np.inf
        with pytest.raises(NonFinite):
            evolve(FieldState(psi), p, dt=1e-3, steps=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_start_detected(self, bad):
        # with no step to take, the start is the only record
        p = NlseParams(n_periods=8, grid_points=64)
        psi = np.ones(64, dtype=complex)
        psi[3] = bad
        with pytest.raises(NonFinite, match="at step 0"):
            evolve(FieldState(psi), p, dt=1e-3, steps=0)

    def test_non_finite_energy_detected(self):
        # the field is finite, but the mean of s cos^2 |psi|^2 overflows;
        # the start repeats on every period, so this is read on one
        p = NlseParams(v1_over_er=1e308, n_periods=8, grid_points=64)
        with pytest.raises(NonFinite, match="at step 0"):
            evolve(FieldState(np.ones(64, dtype=complex)), p, dt=1e-3,
                   steps=3)

    @pytest.mark.parametrize("start, record_every, step", [
        ("period", 1, 45), ("period", 3, 45), ("period", 7, 49),
        ("box", 1, 6), ("box", 3, 6), ("box", 7, 7)])
    def test_later_record_energy_overflow_names_its_step(self, start,
                                                         record_every, step):
        # s ramps toward 1e308, but dt = 1e-300 keeps each step's phase
        # near 1e-292 rad: the field stays put at |psi|^2 = 1e298 while s =
        # 1e8 k at step k.  The energy's sum of s cos^2 |psi|^2 passes the
        # largest float from k = 45 on one 8-point period (sum cos^2 = 4),
        # from k = 6 on the 64-point box (32); the first record from there
        # on raises, as when records were read one at a time
        p = NlseParams(n_periods=8, grid_points=64,
                       schedule=((0.0, 0.0, 0.0, 0.0), (1.0, 1e308, 0.0, 0.0)))
        psi = np.full(64, 1e149, dtype=complex)
        if start == "box":
            psi *= 1 + 1e-3 * np.cos(grid(p) / 4)
        with pytest.raises(NonFinite, match=f"at step {step}$"):
            evolve(FieldState(psi), p, dt=1e-300, steps=100,
                   record_every=record_every)

    def test_record_block_capped(self):
        # the records after the start are held as a block of at most
        # 2^16 / m complex rows (~1 MiB): on a 2^16-point box, one row, so
        # a record every step peaks no higher than a single record; eight
        # rows would add at least 7 MiB
        p = NlseParams(v1_over_er=2.3, g_int=0.2, n_periods=8,
                       grid_points=2**16)
        psi = _gaussian(p, 20.0).psi
        peaks = []
        for record_every in (8, 1):
            tracemalloc.start()
            try:
                evolve(FieldState(psi), p, dt=1e-3, steps=8,
                       record_every=record_every)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2**18

    def test_total_loss_records_zero_contrast(self):
        # kappa = 1e300 damps the field to zero in the first step: every
        # later record has zero norm and a contrast of 0.0, not 0/0, and
        # no RuntimeWarning is raised
        p = NlseParams(v1_over_er=2.3, g_int=0.2, kappa_dimless=1e300,
                       n_periods=8, grid_points=64)
        for state in (ground_state(with_(p, kappa_dimless=0.0)),
                      _gaussian(p, 2.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                final, obs = evolve(state, p, dt=1e-3, steps=20,
                                    record_every=3)
                assert contrast_of(final.psi, p) == 0.0
            assert obs.contrast[0] > 0 and obs.norm[0] > 0
            assert np.array_equal(obs.contrast[1:], np.zeros(7))
            assert np.array_equal(obs.norm[1:], np.zeros(7))
            assert not final.psi.any()

    def test_overflowing_start_norm_is_non_finite(self):
        # mean |psi|^2 of 1e160 overflows: NonFinite at the start's record,
        # with no numpy RuntimeWarning from the zero-norm check before it
        p = NlseParams(n_periods=8, grid_points=64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match="at step 0"):
                evolve(FieldState(np.full(64, 1e160, dtype=complex)), p,
                       dt=1e-3, steps=3)

    def test_input_validation(self):
        p = NlseParams(n_periods=8, grid_points=64)
        state = FieldState(np.ones(64, dtype=complex))
        # record_every = 0 divided by zero; steps < 0 ran no step; a NaN
        # dt ran to the phase bound after recording the start
        for kw in ({"dt": 0.0}, {"dt": math.nan}, {"steps": -1},
                   {"record_every": 0}, {"record_every": -2}):
            with pytest.raises(DomainError):
                evolve(state, p, **{"dt": 1e-3, "steps": 3, **kw})
        with pytest.raises(DomainError):
            evolve(FieldState(np.zeros(64, dtype=complex)), p, dt=1e-3,
                   steps=1)
        # a start off the box's 64 points ended in numpy's ValueError
        for shape in (60, 128, 8, (8, 8)):
            with pytest.raises(DomainError, match="shape"):
                evolve(FieldState(np.ones(shape, dtype=complex)), p,
                       dt=1e-3, steps=1)

    @pytest.mark.parametrize("record_every", [1, 3, 7, 50])
    def test_two_ffts_per_step(self, monkeypatch, record_every):
        # one FFT of the initial field, then two a step, and one more for
        # each record after the start, which the last step always makes
        p = NlseParams(v1_over_er=2.3, g_int=0.2, kappa_dimless=0.1,
                       n_periods=8, grid_points=64)
        state = _gaussian(p, 2.0)
        calls = _count_ffts(monkeypatch)
        _, obs = evolve(state, p, dt=1e-3, steps=20,
                        record_every=record_every)
        records = -(-20 // record_every)
        assert len(obs.tau) == 1 + records
        assert calls["fft"] == 1 + 2 * 20 + records

    @pytest.mark.parametrize(
        "params, dt, steps, record_every, start",
        [(params, 1e-3, 150, record_every, 0.0)
         for params in (_STATIC, _LOSSY, _SCHEDULED)
         for record_every in (1, 7, 150)]
        # an int dt from a start off the step grid: the midpoints stay
        # 0.25 + dt (k + 1/2), accumulated in float
        + [(_SLOW_RAMP, 1, 6, 1, 0.25)]
        # 1024 points on one period: the schedule is read 64 steps at a
        # time, so 200 steps from a start off the grid span four blocks
        + [(with_(_SLOW_RAMP, n_periods=1, grid_points=1024), 1e-3, 200, 9,
            0.37)],
        ids=[f"{name}-every{record_every}"
             for name in ("static", "lossy", "scheduled")
             for record_every in (1, 7, 150)]
        + ["ramp-int-dt", "ramp-blocks"])
    def test_matches_pre_in_place_loop(self, params, dt, steps, record_every,
                                       start):
        # equal bits here; the margin is for CPUs whose trig or FFT rounds
        # differently
        state = FieldState(_gaussian(params, 2.0).psi, start)
        want_psi, want = _evolve_reference(state, params, dt, steps,
                                           record_every)
        got_psi, got = evolve(state, params, dt=dt, steps=steps,
                              record_every=record_every)
        assert got_psi.time == want_psi.time
        np.testing.assert_allclose(got_psi.psi, want_psi.psi,
                                   rtol=1e-14, atol=1e-14)
        for field in ("tau", "norm", "energy", "contrast"):
            np.testing.assert_allclose(getattr(got, field),
                                       getattr(want, field),
                                       rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("steps", [0, 1, 20])
    def test_returns_fresh_unaliased_field(self, steps):
        # a Gaussian runs on the box; the ground state, which repeats on
        # every period, on one period, and its psi is tiled to the box
        for state in (_gaussian(_LOSSY, 2.0), ground_state(_STATIC)):
            before = state.psi.copy()
            first, _ = evolve(state, _LOSSY, dt=1e-3, steps=steps,
                              record_every=7)
            second, _ = evolve(state, _LOSSY, dt=1e-3, steps=steps,
                               record_every=7)
            assert np.array_equal(state.psi, before)
            assert np.array_equal(first.psi, second.psi)
            assert first.psi.shape == state.psi.shape
            for psi in (first.psi, second.psi):
                assert not np.shares_memory(psi, state.psi)
            assert not np.shares_memory(first.psi, second.psi)

    def test_final_field_independent_of_record_every(self):
        # merged kinetic factors between records, split ones at a record
        p = NlseParams(v1_over_er=2.3, g_int=0.2, kappa_dimless=0.1,
                       n_periods=8, grid_points=128)
        state = _gaussian(p, 2.0)
        steps = 300
        finals = [evolve(state, p, dt=1e-3, steps=steps,
                         record_every=every)[0]
                  for every in (1, 7, steps)]
        for final in finals[1:]:
            assert final.time == finals[0].time
            assert np.abs(final.psi - finals[0].psi).max() <= 1e-12

    def test_matches_textbook_strang_step(self):
        kw = dict(n_periods=8, grid_points=128)
        for p in (NlseParams(schedule=((0.0, 1.0, 0.2, 0.0),
                                       (0.3, 6.0, 0.9, 0.4)), **kw),
                  NlseParams(v1_over_er=3.0, g_int=0.4, kappa_dimless=0.2,
                             **kw)):
            state = _gaussian(p, 2.0)
            dt, steps = 1e-3, 400
            psi = _textbook_strang(state.psi, p, dt, steps)
            final, _ = evolve(state, p, dt=dt, steps=steps, record_every=50)
            assert final.time == pytest.approx(steps * dt, rel=1e-12)
            assert np.abs(final.psi - psi).max() <= 1e-12


class TestGroundState:
    def test_free_ground_state_is_uniform(self):
        p = NlseParams(n_periods=8, grid_points=64)
        gs = ground_state(p)
        assert energy_of(gs.psi, p) < 1e-10
        assert contrast_of(gs.psi, p) < 1e-5

    def test_deep_lattice_localization(self):
        p = NlseParams(v1_over_er=10.0, n_periods=8, grid_points=256)
        gs = ground_state(p)
        assert contrast_of(gs.psi, p) >= 0.9
        dens = np.abs(gs.psi) ** 2
        # localized at the potential minima xi = pi/2 mod pi
        xi = grid(p)
        assert np.cos(xi[np.argmax(dens)]) ** 2 < 0.05
        oracle = _mathieu_ground_density(p)
        assert np.abs(dens / dens.mean() - oracle).max() < 5e-3

    def test_repulsion_flattens_density(self):
        p0 = NlseParams(v1_over_er=10.0, g_int=0.0, n_periods=8,
                        grid_points=128)
        p1 = NlseParams(v1_over_er=10.0, g_int=1.0, n_periods=8,
                        grid_points=128)
        c0 = contrast_of(ground_state(p0).psi, p0)
        c1 = contrast_of(ground_state(p1).psi, p1)
        assert c1 < c0

    def test_stationary_under_real_time(self):
        p = NlseParams(v1_over_er=10.0, g_int=1.0, n_periods=8,
                       grid_points=128)
        gs = ground_state(p)
        c0 = contrast_of(gs.psi, p)
        _, obs = evolve(gs, p, dt=2e-3, steps=5000, record_every=500)
        assert abs(obs.contrast - c0).max() < 1e-4

    @pytest.mark.parametrize("s,g,n,energy", [
        # bench/reference.py's self-consistent field on one period
        (5.0, 0.5, 128, 2.1755304452655744),
        (2.3, 0.2, 256, 1.1037094504638902),
    ])
    def test_energy_matches_frozen(self, s, g, n, energy):
        p = NlseParams(v1_over_er=s, g_int=g, n_periods=8, grid_points=n)
        assert energy_of(ground_state(p).psi, p) == pytest.approx(
            energy, rel=1e-10)

    def test_three_ffts_per_step(self, monkeypatch):
        # the seed's rfft and the irfft of its residual, then three real
        # FFTs an iteration, and no energy evaluation
        p = NlseParams(v1_over_er=2.3, g_int=0.2, n_periods=8,
                       grid_points=64)

        def no_energy_of(*args, **kwargs):
            raise AssertionError("ground_state called energy_of")

        calls = _count_ffts(monkeypatch)
        monkeypatch.setattr(nlse, "energy_of", no_energy_of)
        gs = ground_state(p)
        assert gs.iterations > 10
        assert calls["fft"] == 3 * gs.iterations + 2

    @pytest.mark.parametrize("s,g,n,steps", [
        # frozen from the first preconditioned-gradient solver
        (2.3, 0.2, 256, 25),
        (5.0, 0.5, 128, 31),
        (10.0, 1.0, 128, 36),
        (1.92, 0.2, 256, 23),
        (1.0, 100.0, 64, 5),
    ])
    def test_step_counts_frozen(self, s, g, n, steps):
        p = NlseParams(v1_over_er=s, g_int=g, n_periods=8, grid_points=n)
        gs = ground_state(p)
        assert gs.iterations == steps
        check_ground_residual(gs, p)
        assert gs.time == 0.0 and gs.psi.dtype == complex

    @pytest.mark.parametrize("s,g,n,periods", [
        (1.0, 205.0, 64, 8), (1.0, 1e3, 64, 8), (1.0, 1e3, 16, 1),
        (1.0, 300.0, 64, 8)])
    def test_strong_coupling_converges(self, s, g, n, periods):
        # g >> s: Thomas-Fermi psi^2 = 1 - (s/2g) cos(2 xi), so E = (s +
        # g)/2 - s^2/(16 g), up to a kinetic correction of order s^2/g^2
        p = NlseParams(v1_over_er=s, g_int=g, n_periods=periods,
                       grid_points=n)
        gs = ground_state(p)
        check_ground_residual(gs, p)
        assert energy_of(gs.psi, p) == pytest.approx(
            (s + g) / 2 - s**2 / (16 * g), rel=1e-7)

    def test_large_grid_converges(self):
        # the samples resolve H psi only to about eps k_max^2 = 9e-10 here,
        # above GROUND_TOL |mu|; the state is the one 256 points resolve
        p = NlseParams(v1_over_er=2.3, g_int=0.2, n_periods=8,
                       grid_points=2**14)
        gs = ground_state(p)
        check_ground_residual(gs, p)
        assert energy_of(gs.psi, p) == pytest.approx(1.1037094504638902,
                                                     rel=1e-12)

    def test_step_budget(self, monkeypatch):
        # the cap counts iterations: exactly enough converges, one fewer
        # raises
        p = NlseParams(v1_over_er=2.3, n_periods=8, grid_points=64)
        steps = ground_state(p).iterations
        monkeypatch.setattr(nlse, "GROUND_MAX_STEPS", steps)
        assert ground_state(p).iterations == steps
        monkeypatch.setattr(nlse, "GROUND_MAX_STEPS", steps - 1)
        with pytest.raises(NoConvergence,
                           match=f"after {steps - 1} iterations"):
            ground_state(p)

    @pytest.mark.parametrize("field", ["v1_over_er", "g_int"])
    def test_non_finite_energy_stops_at_once(self, monkeypatch, field):
        # H psi overflows on the seed; the budget is never spent
        monkeypatch.setattr(nlse, "GROUND_MAX_STEPS", 10)
        with pytest.raises(NonFinite, match="after 0 iterations"):
            ground_state(NlseParams(grid_points=16, n_periods=1,
                                    **{field: 1e308}))

    def test_rejects_lossy_params(self):
        with pytest.raises(DomainError):
            ground_state(NlseParams(kappa_dimless=0.1, n_periods=8,
                                    grid_points=64))

    def test_lossless_schedule_beside_static_loss_relaxes(self):
        # the refusal reads the coefficient table: a lossless schedule
        # relaxes at its tau = 0 row, as it did before, though the static
        # kappa it never reads is 0.1 (the refusal once read it and raised
        # DomainError); a lossy row anywhere in the schedule is refused
        ramp = ((0.0, 2.3, 0.2, 0.0), (1.0, 5.0, 0.9, 0.0))
        p = NlseParams(kappa_dimless=0.1, n_periods=8, grid_points=64,
                       schedule=ramp)
        gs = ground_state(p)
        want = ground_state(NlseParams(v1_over_er=2.3, g_int=0.2,
                                       n_periods=8, grid_points=64))
        assert np.array_equal(gs.psi, want.psi)
        with pytest.raises(DomainError, match="kappa = 0"):
            ground_state(with_(p, schedule=(*ramp, (2.0, 5.0, 0.9, 1e-3))))


class TestPeriodicSector:
    @pytest.mark.parametrize("params, steps, record_every", [
        (_STATIC, 150, 7),
        (with_(_STATIC, kappa_dimless=0.05), 150, 7),
        (_cli_default(**_CI_RAMP), 3000, 7),
        # the benchmark's evolve, at the middle of its drawn depths
        (NlseParams(v1_over_er=2.3, g_int=0.2, grid_points=1024), 4000, 10),
    ], ids=["static", "lossy", "ci-ramp", "bench-1024x4000"])
    def test_matches_box_oracles(self, params, steps, record_every):
        # the ground state repeats on every period, so evolve runs it on
        # one; both oracles step the whole box
        gs = ground_state(with_(params, kappa_dimless=0.0, schedule=()))
        assert _periodic(gs.psi, params)
        dt = 1e-3
        got_psi, got = evolve(gs, params, dt=dt, steps=steps,
                              record_every=record_every)
        want_psi, want = _evolve_reference(gs, params, dt, steps,
                                           record_every)
        assert _periodic(got_psi.psi, params)
        assert got_psi.time == want_psi.time
        np.testing.assert_allclose(got_psi.psi, want_psi.psi, rtol=0,
                                   atol=1e-12)
        for field in ("tau", "norm", "energy", "contrast"):
            np.testing.assert_allclose(getattr(got, field),
                                       getattr(want, field),
                                       rtol=0, atol=1e-12)
        textbook = _textbook_strang(gs.psi, params, dt, steps)
        assert np.abs(got_psi.psi - textbook).max() <= 1e-12

    @pytest.mark.parametrize("params, record_every", [
        (_STATIC, 1), (_STATIC, 7), (_ONE_POINT, 7)],
        ids=["1", "7", "cell1"])
    def test_periodic_start_transforms_one_period(self, monkeypatch, params,
                                                  record_every):
        # a periodic start: every FFT of ground_state and evolve has m = n /
        # n_periods points, m = 1 included; a Gaussian's FFTs still have n.
        # Both make 1 + 2 steps + records
        p = with_(params, kappa_dimless=0.05)
        m = p.grid_points // p.n_periods
        records = -(-20 // record_every)
        gs = ground_state(params)
        sizes = _fft_sizes(monkeypatch)
        ground_state(params)
        assert len(sizes) == 3 * gs.iterations + 2
        assert set(sizes) == {m}
        for state, points in ((gs, m), (_gaussian(p, 2.0), p.grid_points)):
            sizes.clear()
            evolve(state, p, dt=1e-3, steps=20, record_every=record_every)
            assert len(sizes) == 1 + 2 * 20 + records
            assert set(sizes) == {points}

    def test_start_off_by_one_bit_runs_on_the_box(self, monkeypatch):
        # one period differs in one bit of one point: the whole box runs
        gs = ground_state(_STATIC)
        psi = gs.psi.copy()
        psi[-1] = np.nextafter(psi[-1].real, 2.0)
        sizes = _fft_sizes(monkeypatch)
        final, _ = evolve(FieldState(psi), _STATIC, dt=1e-3, steps=5)
        assert set(sizes) == {_STATIC.grid_points}
        assert not _periodic(final.psi, _STATIC)

    @pytest.mark.parametrize("grid_points, n_periods", [
        (16, 16), (16, 8), (64, 16), (64, 8)],
        ids=["cell1", "cell2", "cell4", "cell8"])
    def test_small_cells_on_both_seams(self, monkeypatch, grid_points,
                                       n_periods):
        # ground_state and evolve transform one period's m points on both
        # seams, a single point included (rfft_n_odd, np.fft.irfft told
        # its length): the seams agree bit for bit, and with the box oracle
        p = NlseParams(v1_over_er=2.3, g_int=0.2, n_periods=n_periods,
                       grid_points=grid_points)
        lossy = with_(p, kappa_dimless=0.05)
        m = grid_points // n_periods

        def run():
            gs = ground_state(p)
            start = FieldState(np.ones(grid_points, dtype=complex))
            return gs, [evolve(state, lossy, dt=1e-3, steps=50,
                               record_every=7)
                        for state in (gs, start)]

        sizes = _fft_sizes(monkeypatch)
        direct = run()
        assert set(sizes) == {m}
        monkeypatch.setattr(nlse, "_fft_kernels", nlse._np_fft_kernels)
        sizes = _fft_sizes(monkeypatch)
        fallback = run()
        assert set(sizes) == {m}
        gs, runs = direct
        assert np.array_equal(fallback[0].psi, gs.psi)
        assert fallback[0].iterations == gs.iterations
        check_ground_residual(gs, p)
        for state, (final, obs), (final_fb, obs_fb) in zip(
                (gs, FieldState(np.ones(grid_points, dtype=complex))), runs,
                fallback[1]):
            assert np.array_equal(final_fb.psi, final.psi)
            want_psi, want = _evolve_reference(state, lossy, 1e-3, 50, 7)
            np.testing.assert_allclose(final.psi, want_psi.psi, rtol=0,
                                       atol=1e-12)
            for field in ("tau", "norm", "energy", "contrast"):
                assert np.array_equal(getattr(obs_fb, field),
                                      getattr(obs, field))
                np.testing.assert_allclose(getattr(obs, field),
                                           getattr(want, field),
                                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("grid_points", [16, 32, 64, 128, 256])
    def test_every_commensurate_grid_runs(self, monkeypatch, grid_points):
        # every n_periods NlseParams accepts with this grid, periods of one
        # point to the whole box: ground_state and an evolve of its state
        # transform one period's m points on both seams, with equal bits
        resolvers = nlse._fft_kernels, nlse._np_fft_kernels
        for e in range(grid_points.bit_length()):
            p = NlseParams(v1_over_er=2.3, g_int=0.2, n_periods=2**e,
                           grid_points=grid_points)
            runs = []
            for resolver in resolvers:
                monkeypatch.setattr(nlse, "_fft_kernels", resolver)
                sizes = _fft_sizes(monkeypatch)
                gs = ground_state(p)
                final, obs = evolve(gs, p, dt=1e-3, steps=20,
                                    record_every=7)
                assert set(sizes) == {grid_points >> e}
                runs.append((gs.psi, final.psi, obs.energy))
            for want, got in zip(*runs, strict=True):
                assert np.array_equal(got, want)
            check_ground_residual(gs, p)
            want_psi, want = _evolve_reference(gs, p, 1e-3, 20, 7)
            np.testing.assert_allclose(final.psi, want_psi.psi, rtol=0,
                                       atol=1e-12)
            np.testing.assert_allclose(obs.energy, want.energy, rtol=0,
                                       atol=1e-12)


class TestBogoliubovPhonon:
    @pytest.mark.parametrize("g", [1.0, 0.2])
    def test_density_mode_at_bogoliubov_frequency(self, g):
        # the uniform ground state at s = 0, kicked by 1 + eps cos(q xi) in
        # the box's lowest mode q = 2 / n_periods: the density component
        # A = <|psi|^2 cos q xi> oscillates at the Bogoliubov omega =
        # sqrt(q^2 (q^2 + 2 g)).  The start is not periodic on a lattice
        # period, so every evolve runs the whole box and returns the psi of
        # its last record.  Samples of a sinusoid h apart obey A[k-1] +
        # A[k+1] = 2 cos(omega h) A[k]: cos(omega h) is the projection of
        # the neighbours' sum on A, with no fit.
        # The Strang step acts on the linear mode as R(q^2 dt/2) K R(q^2
        # dt/2), R the kinetic rotation and K the nonlinear kick v -= 2 g dt
        # u, so its frequency omega_dt has cos(omega_dt dt) = cos(q^2 dt) -
        # g dt sin(q^2 dt).  Over dt = 5e-3, 1e-2, 2e-2 and eps = 1e-5,
        # 1e-4, 1e-3 (two periods of the mode), the estimate minus omega_dt
        # was -0.70 eps^2 omega at g = 1 and -1.5 eps^2 omega at g = 0.2,
        # the same at every dt: 7.0e-9 and 1.5e-8 of omega here.  omega_dt
        # - omega, the splitting error, is 5.05e-3 dt^2 omega at g = 1 and
        # 9.0e-4 dt^2 omega at g = 0.2: 5.1e-7 and 9.0e-8 here.
        p = NlseParams(g_int=g, n_periods=8, grid_points=64)
        q, eps, dt, chunk = 2 / p.n_periods, 1e-4, 1e-2, 20
        omega = math.sqrt(q**2 * (q**2 + 2 * g))
        assert _bdg_frequency(p, q) == pytest.approx(omega, rel=1e-12)
        omega_dt = math.acos(math.cos(q**2 * dt)
                             - g * dt * math.sin(q**2 * dt)) / dt
        mode = np.cos(q * grid(p))
        state = FieldState(ground_state(p).psi * (1 + eps * mode))
        samples = []
        for _ in range(int(4 * math.pi / omega / (chunk * dt)) + 1):
            samples.append(np.mean(np.abs(state.psi) ** 2 * mode))
            state, _ = evolve(state, p, dt=dt, steps=chunk,
                              record_every=chunk)
        a = np.array(samples)
        cos_wh = np.dot(a[1:-1], a[:-2] + a[2:]) \
            / (2 * np.dot(a[1:-1], a[1:-1]))
        estimate = math.acos(cos_wh) / (chunk * dt)
        assert abs(estimate - omega_dt) <= 5e-8 * omega
        assert abs(estimate - omega) <= 1e-6 * omega

    @pytest.mark.parametrize("s, gamma", [(2.85, 1.0), (4.0, 2.0)])
    def test_lattice_density_mode_at_bogoliubov_frequency(self, s, gamma):
        # on a lattice the ground state psi0 is kicked by 1 + eps cos(q xi),
        # q = 2 / n_periods: A = <|psi|^2 cos q xi> oscillates at the
        # lowest BdG frequency at Bloch momentum q (_bdg_frequency).  The
        # kicked start runs on the whole box.  The estimate is the omega of
        # the least-squares a cos(omega t) + b sin(omega t) + c through A,
        # sampled every 0.2 over 160 time units; the residual's main lobe
        # is ~17 % of omega wide, so 5 % either side holds one minimum.
        # dt study, 128 points on 8 periods: the relative error was -1.6e-5
        # at dt = 1e-2 and -3.8e-6 at 5e-3 for (s, gamma) = (2.85, 1), and
        # -2.2e-5 and -5.2e-6 for (4, 2): the Strang error, -0.16 dt^2 and
        # -0.22 dt^2, above a bias of 3e-7.  eps = 1e-5 and 1e-3 moved it
        # by at most 8e-6, sampling every 0.4 by 5e-7.  At dt = 2e-2,
        # k_max^2 dt = 5.1 passes pi, and the split step's own instability
        # grows the mode five-fold over the run.
        p = NlseParams(v1_over_er=s, g_int=interaction_strength(gamma),
                       n_periods=8, grid_points=128)
        q, eps, dt, chunk = 2 / p.n_periods, 1e-4, 1e-2, 20
        omega = _bdg_frequency(p, q)
        mode = np.cos(q * grid(p))
        state = FieldState(ground_state(p).psi * (1 + eps * mode))
        times, samples = [], []
        for _ in range(801):
            times.append(state.time)
            samples.append(np.mean(np.abs(state.psi) ** 2 * mode))
            state, _ = evolve(state, p, dt=dt, steps=chunk,
                              record_every=chunk)
        t, a = np.array(times), np.array(samples)

        def misfit(w):
            basis = np.column_stack([np.cos(w * t), np.sin(w * t),
                                     np.ones_like(t)])
            fit, *_ = np.linalg.lstsq(basis, a, rcond=None)
            return np.sum((basis @ fit - a) ** 2)
        estimate = scipy.optimize.minimize_scalar(
            misfit, bounds=(0.95 * omega, 1.05 * omega), method="bounded",
            options={"xatol": 1e-13}).x
        assert abs(estimate - omega) <= 3e-5 * omega


class TestSplitStepStability:
    @pytest.mark.parametrize("dt, grows", [(0.010, False), (0.020, True)])
    def test_ripple_grows_only_past_pi(self, dt, grows):
        # the lattice ground state at (s, gamma) = (2.85, 1), 128 points on
        # 8 periods (k_max = 16), kicked by 1 + 1e-6 cos(xi / 4) and run
        # for 120 time units in one call.  At dt = 0.010, k_max^2 dt = 2.56
        # < pi, the final density stays at the Strang drift from the ground
        # state's (1.2e-4); at dt = 0.020 (5.12) the split step's own
        # instability grows it to 0.33.  A scan of dt = 0.010-0.030 by
        # 0.001 grew only at 0.016, 0.020 and 0.027 (0.068, 0.33, 0.033),
        # none at k_max^2 dt < pi.  evolve refuses neither dt.
        p = NlseParams(v1_over_er=2.85, g_int=interaction_strength(1.0),
                       n_periods=8, grid_points=128)
        k_max = p.grid_points / p.n_periods
        assert (k_max**2 * dt > math.pi) == grows
        psi0 = ground_state(p).psi
        start = FieldState(psi0 * (1 + 1e-6 * np.cos(grid(p) / 4)))
        steps = round(120 / dt)
        final, _ = evolve(start, p, dt=dt, steps=steps, record_every=steps)
        drift = np.abs(np.abs(final.psi) ** 2 - np.abs(psi0) ** 2).max()
        if grows:
            assert drift > 0.1
        else:
            assert drift < 1e-3


class TestReleaseProfile:
    def test_uniform_state_flat_series(self):
        p = NlseParams(n_periods=8, grid_points=64)
        t, intensity = release_profile(
            FieldState(np.ones(64, dtype=complex)), p, v_g=40.0, n_ph=1e3)
        assert np.ptp(intensity) == 0.0

    def test_deep_lattice_peak_spacing(self):
        p = NlseParams(v1_over_er=10.0, n_periods=8, grid_points=256)
        gs = ground_state(p)
        v_g, n_ph = 40.0, 1e3
        t, intensity = release_profile(gs, p, v_g, n_ph)
        thresh = intensity.max() / 2
        above = intensity > thresh
        starts = np.flatnonzero(above & ~np.roll(above, 1))
        assert len(starts) == 8
        peak_times = [t[s:s + 256 // 8][np.argmax(
            intensity[s:s + 256 // 8])] for s in starts]
        spacings = np.diff(sorted(peak_times))
        assert np.allclose(spacings, 1 / (n_ph * v_g), rtol=0.05)

    def test_doubling_group_velocity(self):
        p = NlseParams(v1_over_er=10.0, n_periods=8, grid_points=256)
        gs = ground_state(p)
        t1, i1 = release_profile(gs, p, v_g=40.0, n_ph=1e3)
        t2, i2 = release_profile(gs, p, v_g=80.0, n_ph=1e3)
        assert np.allclose(t2, t1 / 2)
        # profile shape unchanged; integrated intensity invariant
        assert np.allclose(i2 / i2.max(), i1 / i1.max())
        assert i1.sum() * (t1[1] - t1[0]) == pytest.approx(
            i2.sum() * (t2[1] - t2[0]), rel=1e-12)

    def test_integrated_intensity_equals_norm_times_box(self):
        p = NlseParams(n_periods=8, grid_points=64)
        state = FieldState(np.full(64, 1.5, dtype=complex))
        v_g, n_ph = 40.0, 1e3
        t, intensity = release_profile(state, p, v_g, n_ph)
        box = p.n_periods / n_ph
        dt = t[1] - t[0]
        total = intensity.sum() * dt     # uniform series: riemann sum exact
        assert total == pytest.approx(norm_of(state.psi) * box, rel=1e-12)

    def test_bad_inputs(self):
        p = NlseParams(n_periods=8, grid_points=64)
        state = FieldState(np.ones(64, dtype=complex))
        with pytest.raises(DomainError):
            release_profile(state, p, v_g=0.0, n_ph=1e3)
        with pytest.raises(DomainError):
            release_profile(state, p, v_g=40.0, n_ph=-1.0)
        # NaN gave all-NaN times or intensity, inf all-zero times
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError, match="v_g"):
                release_profile(state, p, v_g=bad, n_ph=1e3)
            with pytest.raises(DomainError, match="n_ph"):
                release_profile(state, p, v_g=40.0, n_ph=bad)
        # 60 points gave 64 times against 60 intensities
        for shape in (60, 128, (8, 8)):
            with pytest.raises(DomainError, match="shape"):
                release_profile(FieldState(np.ones(shape, dtype=complex)),
                                p, v_g=40.0, n_ph=1e3)


class TestDimensionlessReduction:
    def test_coupling_identity_from_effective_params(self, baseline, rng):
        """g = 4|gamma|/pi^2 must equal 2 chi n_ph / E_R assembled from the
        dimensional effective parameters (the nondimensionalization check)."""
        from conftest import random_valid_config
        configs = [baseline] + [random_valid_config(rng) for _ in range(50)]
        for cfg in configs:
            vc = optics.validate_config(cfg)
            ep = optics.effective_params(vc)
            gam = optics.lieb_liniger_gamma(vc)
            chi_abs = ep.chi * cfg.gamma_total
            e_recoil_abs = ep.e_recoil * cfg.gamma_total
            assembled = 2 * chi_abs * cfg.n_ph / e_recoil_abs
            assert assembled == pytest.approx(
                interaction_strength(gam.magnitude), rel=1e-12)

    def test_depth_is_v1_over_er_magnitude(self, baseline):
        vc = optics.validate_config(baseline)
        ep = optics.effective_params(vc)
        assert abs(ep.v1) / ep.e_recoil == pytest.approx(
            optics.lattice_depth_ratio(vc), rel=1e-12)
