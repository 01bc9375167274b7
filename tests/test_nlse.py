import math

import numpy as np
import pytest
import scipy.linalg

from polariton_phases import nlse, optics
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


def _counting(calls, name, fn):
    """fn, counting each call in calls[name]."""
    calls.setdefault(name, 0)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _count_ffts(monkeypatch):
    """Counts every np.fft.fft, ifft, rfft and irfft call in the "fft"
    entry."""
    calls = {}
    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name,
                            _counting(calls, "fft", getattr(np.fft, name)))
    return calls


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
        # the field is finite, but the mean of s cos^2 |psi|^2 overflows
        p = NlseParams(v1_over_er=1e308, n_periods=8, grid_points=64)
        with pytest.raises(NonFinite, match="at step 0"):
            evolve(FieldState(np.ones(64, dtype=complex)), p, dt=1e-3,
                   steps=3)

    def test_input_validation(self):
        p = NlseParams(n_periods=8, grid_points=64)
        state = FieldState(np.ones(64, dtype=complex))
        # record_every = 0 divided by zero; steps < 0 ran no step
        for kw in ({"dt": 0.0}, {"steps": -1}, {"record_every": 0},
                   {"record_every": -2}):
            with pytest.raises(DomainError):
                evolve(state, p, **{"dt": 1e-3, "steps": 3, **kw})
        with pytest.raises(DomainError):
            evolve(FieldState(np.zeros(64, dtype=complex)), p, dt=1e-3,
                   steps=1)

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
        # the step as usually written, with four FFTs: each half kinetic
        # step transforms psi forward and back
        kw = dict(n_periods=8, grid_points=128)
        for p in (NlseParams(schedule=((0.0, 1.0, 0.2, 0.0),
                                       (0.3, 6.0, 0.9, 0.4)), **kw),
                  NlseParams(v1_over_er=3.0, g_int=0.4, kappa_dimless=0.2,
                             **kw)):
            state = _gaussian(p, 2.0)
            dt, steps = 1e-3, 400
            n = p.grid_points
            k = 2 * math.pi * np.fft.fftfreq(n, d=math.pi * p.n_periods / n)
            half_kin = np.exp(-1j * k**2 * dt / 2)
            cos2 = np.cos(grid(p)) ** 2
            psi = state.psi.copy()
            for step in range(steps):
                s, g, kappa = p.coefficients((step + 0.5) * dt)
                psi = np.fft.ifft(half_kin * np.fft.fft(psi))
                psi *= np.exp(-1j * (s * cos2 + g * np.abs(psi) ** 2) * dt
                              - kappa * dt / 2)
                psi = np.fft.ifft(half_kin * np.fft.fft(psi))
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
