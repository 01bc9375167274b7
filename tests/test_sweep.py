import math
import warnings

import numpy as np
import pytest
import scipy.optimize

from polariton_phases import many_body, optics, sweep
from polariton_phases.errors import (
    ConfigError,
    DomainError,
    EmptyBoundary,
    ModulationWarning,
    NoBracket,
    NoConvergence,
    PoleError,
    RegimeError,
)
from polariton_phases.sweep import (
    GridSpec,
    find_mott_crossing,
    find_pinning_crossing,
    phase_boundaries,
    sweep_grid,
)

from conftest import random_valid_config, with_


def _grid(baseline, dp=(2.0, 100.0, 20), om=(0.5, 3.0, 20), **kw):
    return GridSpec(delta_p_range=dp, omega_range=om,
                    base=with_(baseline, **kw))


class TestSweepGrid:
    def test_row_major_order_and_coverage(self, baseline):
        spec = _grid(baseline, dp=(10.0, 20.0, 3), om=(1.0, 2.0, 4))
        recs = sweep_grid(spec)
        assert len(recs) == 12
        keys = [(r.delta_p, r.omega) for r in recs]
        assert keys == sorted(keys)

    def test_attainable_ranges(self, baseline):
        recs = sweep_grid(_grid(baseline))
        gammas = [r.point.gamma_abs for r in recs if r.point]
        depths = [r.point.v1_over_er for r in recs if r.point]
        assert max(gammas) >= 5.0
        assert max(depths) >= 20.0

    def test_no_modulation_grid(self, baseline):
        spec = _grid(baseline, dp=(10.0, 20.0, 2), om=(1.0, 2.0, 2),
                     n1_fraction=0.0)
        for rec in sweep_grid(spec):
            assert rec.point.v1_over_er == 0.0
            assert rec.point.phase.value in ("SF", "INDETERMINATE")

    def test_uj_monotone_across_row(self, baseline):
        for count in (10, 100):   # dense re-evaluation confirms monotonicity
            spec = _grid(baseline, dp=(50.0, 51.0, 2), om=(0.9, 1.2, count))
            recs = [r for r in sweep_grid(spec) if r.delta_p == 50.0]
            ujs = [r.point.u_over_j for r in recs]
            assert all(a > b for a, b in zip(ujs, ujs[1:]))

    def test_pole_nodes_marked_not_dropped(self, baseline):
        pole = math.sqrt(baseline.delta_small * baseline.delta0 / 2)
        spec = _grid(baseline, om=(pole, pole + 0.2, 3), dp=(10.0, 20.0, 2))
        recs = sweep_grid(spec)
        assert len(recs) == 6
        marked = [r for r in recs if r.error is not None]
        assert len(marked) == 2       # one per delta_p row, at omega = pole
        assert all(r.point is None for r in marked)

    def test_invalid_base_config(self, baseline):
        # the base refuses itself when built, before any grid exists
        with pytest.raises(DomainError):
            _grid(baseline, n0=-1.0)

    def test_bad_grid_counts(self, baseline):
        with pytest.raises(ConfigError):
            GridSpec((2.0, 100.0, 1), (0.5, 3.0, 10), baseline)

    @pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (3.0, 0.5),
                                        (-1e308, 1e308)])
    def test_bad_grid_ranges(self, baseline, lo, hi):
        # a width that overflows would fill the grid with inf and NaN
        with pytest.raises(ConfigError):
            GridSpec((lo, hi, 4), (0.5, 3.0, 10), baseline)
        with pytest.raises(ConfigError):
            GridSpec((2.0, 100.0, 4), (lo, hi, 10), baseline)

    def test_determinism(self, baseline):
        spec = _grid(baseline, dp=(10.0, 60.0, 5), om=(0.8, 2.0, 5))
        assert sweep_grid(spec) == sweep_grid(spec)


def _scalar_chain(base, delta_p, omega):
    """(status, gamma_signed, point, v_g, kappa) from the scalar public API."""
    try:
        vc = optics.validate_config(with_(base, delta_p=delta_p, omega=omega))
        params = optics.effective_params(vc)
        gam = optics.lieb_liniger_gamma(vc)
        depth = optics.lattice_depth_ratio(vc)
        point = many_body.make_point(gam.magnitude, depth,
                                     sign_warning=gam.negative)
    except PoleError:
        return sweep.POLE, None, None, None, None
    except DomainError:
        return sweep.DOMAIN, None, None, None, None
    return sweep.OK, gam.signed, point, params.v_g, params.kappa


# A node where |gamma| = 1 and V1/E_R = 3 exactly, the corner of both windows
CORNER = dict(n1_fraction=0.028868592873186362, delta_p=10.524397511341714,
              omega=1.0)


class TestEvaluate:
    FIELDS = ("gamma_abs", "v1_over_er", "k_luttinger", "j_over_er",
              "u_over_er", "u_over_j")

    def _assert_matches_scalar(self, nodes, idx, base):
        dp, om = float(nodes.delta_p[idx]), float(nodes.omega[idx])
        status, signed, point, v_g, kappa = _scalar_chain(base, dp, om)
        assert nodes.status[idx] == status, (dp, om)
        if status != sweep.OK:
            assert math.isnan(nodes.gamma_abs[idx])
            assert not (nodes.sg_valid[idx] or nodes.bh_valid[idx])
            return
        assert sweep.PHASES[nodes.phase[idx]] is point.phase
        assert sweep._FLAGS[nodes.flag_codes()[idx]] == point.flags
        pairs = [(nodes.gamma_signed[idx], signed), (nodes.v_g[idx], v_g),
                 (nodes.kappa[idx], kappa)]
        pairs += [(getattr(nodes, f)[idx], getattr(point, f))
                  for f in self.FIELDS]
        for got, want in pairs:
            if math.isnan(want):
                assert math.isnan(got)
            else:
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_matches_scalar_chain(self, rng):
        # random configs; the grid holds both poles, nodes within and just
        # outside EPS_POLE of the Lambda pole, nodes below it (negative
        # depth) and Omega = 0 (v_g = 0)
        for _ in range(12):
            base = random_valid_config(rng)
            pole = math.sqrt(base.delta_small * base.delta0 / 2)
            dps = np.concatenate([[base.delta_small, -20.0],
                                  rng.uniform(0.5, 100.0, 8)])
            oms = np.concatenate([[0.0, pole, pole + 1e-12, pole - 1e-12,
                                   pole + 1e-3, pole - 1e-3],
                                  rng.uniform(0.3, 3.0, 8)])
            nodes = sweep.evaluate(base, dps[:, None], oms[None, :])
            assert nodes.status.shape == (dps.size, oms.size)
            for idx in np.ndindex(nodes.status.shape):
                self._assert_matches_scalar(nodes, idx, base)
            assert {sweep.POLE, sweep.DOMAIN, sweep.OK} <= set(
                nodes.status.ravel().tolist())

    def test_scalar_node_matches_scalar_chain(self, rng):
        for _ in range(50):
            base = random_valid_config(rng)
            node = sweep.evaluate(base, base.delta_p, base.omega)
            assert np.ndim(node.u_over_j) == 0
            as_grid = sweep.NodeFields(*(np.atleast_1d(getattr(node, f))
                                         for f in node.__slots__))
            self._assert_matches_scalar(as_grid, 0, base)

    def test_bad_base_raises_once(self, baseline):
        with pytest.raises(DomainError):
            sweep.evaluate(with_(baseline, n_ph=0.0), 50.0, 1.0)
        # the base's own node may sit on a pole: only the grid nodes count
        at_pole = with_(baseline, delta_p=baseline.delta_small)
        assert sweep.evaluate(at_pole, 50.0, 1.0).status == sweep.OK

    def test_out_of_domain_nodes_marked_not_raised(self, baseline):
        # at n0 = 5 /m the group velocity exceeds v above Omega ~ 1.94
        spec = _grid(baseline, dp=(2.0, 100.0, 5), om=(0.5, 3.0, 11), n0=5.0)
        recs = sweep_grid(spec)
        assert len(recs) == 55
        for rec in recs:
            status = _scalar_chain(spec.base, rec.delta_p, rec.omega)[0]
            if status == sweep.DOMAIN:
                assert rec.point is None and rec.error.startswith("DOMAIN")
                assert math.isnan(rec.v_g)
            else:
                assert rec.point is not None and rec.error is None
        domain = {rec.omega for rec in recs if rec.point is None}
        assert domain == {om for om in spec.omega_values() if om > 1.94}

    def test_one_modulation_warning_per_sweep(self, baseline):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            spec = _grid(baseline, dp=(2.0, 100.0, 10), om=(0.5, 3.0, 10),
                         n1_fraction=0.6)
            sweep_grid(spec)
        assert [w.category for w in caught] == [ModulationWarning]

    def test_regime_corner_node(self, baseline):
        base = with_(baseline, n1_fraction=CORNER["n1_fraction"])
        dp, om = CORNER["delta_p"], CORNER["omega"]
        spec = GridSpec((dp, dp + 10.0, 3), (om, om + 0.5, 3), base)
        rec = sweep_grid(spec)[0]
        assert (rec.delta_p, rec.omega) == (dp, om)
        assert (rec.point.gamma_abs, rec.point.v1_over_er) == (1.0, 3.0)
        assert rec.point.flags.bh_valid and not rec.point.flags.sg_valid
        assert rec.point.phase is many_body.Phase.SUPERFLUID
        assert rec.point == _scalar_chain(base, dp, om)[2]


class TestMottCrossing:
    def test_fig4_anchor(self, baseline):
        root = find_mott_crossing(baseline, 50.0, (0.9, 1.2))
        assert root == pytest.approx(1.03388, abs=5e-4)
        vc = optics.validate_config(with_(baseline, delta_p=50.0, omega=root))
        uj = many_body.uj_closed_form(
            optics.lattice_depth_ratio(vc),
            optics.lieb_liniger_gamma(vc).magnitude)
        assert uj == pytest.approx(many_body.UJ_CRITICAL, abs=1e-4)

    def test_no_sign_change(self, baseline):
        with pytest.raises(NoBracket):
            find_mott_crossing(baseline, 50.0, (2.0, 3.0))

    def test_degenerate_bracket(self, baseline):
        with pytest.raises(NoBracket):
            find_mott_crossing(baseline, 50.0, (1.0, 1.0))

    def test_bracket_touching_pole(self, baseline):
        with pytest.raises(PoleError):
            find_mott_crossing(baseline, 50.0, (0.1, 0.2))

    def test_no_lattice_regime_error(self, baseline):
        # without a lattice U/J is 0 at every node: no Bose-Hubbard model
        with pytest.raises(RegimeError):
            find_mott_crossing(with_(baseline, n1_fraction=0.0), 50.0,
                               (0.5, 3.0))

    def test_unbounded_bracket(self, baseline):
        # a scan of a bracket this wide would hold inf and NaN nodes
        with pytest.raises(NoBracket):
            find_mott_crossing(baseline, 50.0, (-1e308, 1e308))

    def test_first_of_two_crossings(self, baseline):
        # U/J dips below 3.85 near Omega = 1.915 and rises past it again
        # near 47.6, where V1/E_R < 1/4: both ends lie above 3.85, and the
        # first crossing is the root
        root = find_mott_crossing(baseline, 5.0, (1.0, 60.0))
        assert root == pytest.approx(
            find_mott_crossing(baseline, 5.0, (1.0, 3.0)), abs=sweep.ROOT_TOL)
        assert root == pytest.approx(1.915, abs=1e-3)

    def test_matches_brent_over_whole_bracket(self, baseline):
        # oracle: Brent's method on U/J - 3.85 over the whole bracket, whose
        # ends differ in sign on every cut drawn here
        rng = np.random.default_rng(20261018)
        for delta_p in rng.uniform(5.0, 100.0, 12):
            want = scipy.optimize.brentq(
                lambda om: float(sweep.evaluate(baseline, delta_p, om)
                                 .u_over_j) - many_body.UJ_CRITICAL,
                0.5, 3.0, xtol=sweep.ROOT_TOL / 4)
            got = find_mott_crossing(baseline, delta_p, (0.5, 3.0))
            assert got == pytest.approx(want, abs=sweep.ROOT_TOL)

    def test_large_residual_raises(self, baseline, monkeypatch):
        # a root that misses the critical ratio is refused, also under -O
        monkeypatch.setattr(sweep, "_brentq",
                            lambda f, lo, hi, f_lo, f_hi: lo)
        with pytest.raises(NoConvergence):
            find_mott_crossing(baseline, 50.0, (0.9, 1.2))


@pytest.mark.parametrize("find, delta_p, bracket", [
    (find_mott_crossing, 50.0, (0.5, 3.0)),
    (find_pinning_crossing, 8.0, (2.0, 6.0)),
])
def test_one_modulation_warning_per_root(baseline, find, delta_p, bracket):
    # the base checks itself once, when built, and no step checks it again
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        base = with_(baseline, n1_fraction=0.6)
        find(base, delta_p, bracket)
    assert [w.category for w in caught] == [ModulationWarning]


@pytest.mark.parametrize("find, delta_p", [(find_mott_crossing, 50.0),
                                            (find_pinning_crossing, 10.0)])
def test_brentq_failure_is_no_convergence(baseline, monkeypatch, find,
                                          delta_p):
    # two Brent steps leave the scan interval far wider than ROOT_TOL
    monkeypatch.setattr(sweep, "BRENT_MAXITER", 2)
    with pytest.raises(NoConvergence):
        find(baseline, delta_p, (1.0, 3.0))


@pytest.mark.parametrize("find, delta_p, bracket, fixed", [
    # the bracket scan; the fields at the root come from the node Brent's
    # method evaluated there
    (find_mott_crossing, 50.0, (0.9, 1.2), 1),
    (find_pinning_crossing, 10.0, (1.0, 3.0), 1),
    (find_mott_crossing, 10.0, (0.5, 3.0), 1),
    (find_mott_crossing, 42.0, (0.5, 3.0), 1),
    (find_mott_crossing, 80.0, (0.5, 3.0), 1),
    (find_pinning_crossing, 8.0, (2.0, 6.0), 1),
])
def test_brentq_reuses_bracket_ends(baseline, monkeypatch, find, delta_p,
                                    bracket, fixed):
    # Brent's method gets the two bracket ends' values from the scan and
    # never calls f there: one evaluate call per f call beyond the fixed
    # ones, and no Omega, the root's included, is evaluated twice
    counts = {"evaluate": 0, "f": 0}
    omegas, ends = [], []
    real_evaluate, real_brentq = sweep.evaluate, sweep._brentq

    def counted_evaluate(base, dp, omega):
        counts["evaluate"] += 1
        if np.ndim(omega) == 0:
            omegas.append(omega)
        return real_evaluate(base, dp, omega)

    def counted_brentq(f, lo, hi, f_lo, f_hi):
        ends.extend([lo, hi])

        def counted_f(x):
            counts["f"] += 1
            return f(x)
        return real_brentq(counted_f, lo, hi, f_lo, f_hi)
    monkeypatch.setattr(sweep, "evaluate", counted_evaluate)
    monkeypatch.setattr(sweep, "_brentq", counted_brentq)
    root = find(baseline, delta_p, bracket)
    assert counts["f"] > 0
    assert counts["evaluate"] == fixed + counts["f"]
    assert len(ends) == 2 and not set(ends) & set(omegas)
    assert len(set(omegas)) == len(omegas)
    assert (root[0] if isinstance(root, tuple) else root) in omegas


def _brent_function(rng):
    """A function with one sign change near a random r: smooth, odd
    powers flat at r, saturating, and a piecewise one."""
    r, a = float(rng.uniform(-3, 3)), float(rng.uniform(0.1, 5))
    p = int(rng.choice([1, 3, 5]))
    return [
        lambda x: a * (x - r),
        lambda x: a * (x - r) ** p + 1e-3 * (x - r),
        lambda x: math.tanh(a * (x - r)),
        lambda x: math.expm1(a * (x - r)),
        lambda x: math.atan(a * (x - r)) ** 3,
        lambda x: (math.sin(a * (x - r)) if abs(a * (x - r)) < 1.5
                   else math.copysign(1.0, x - r)),
        lambda x: (x - r) / (1 + a * abs(x - r) ** 0.5) - 1e-9,
    ][int(rng.integers(7))]


def _brent_cases(seed: int, count: int):
    """count (f, lo, hi, xtol) with f(lo), f(hi) finite, nonzero and of
    opposite signs.  One bracket in 20 is 1e-9 wide, and xtol spans 1e-13
    to 3 bracket widths, so that the last steps, where the step bounds
    meet xtol, are drawn often.  One f in 4 is scaled by 1e-300 to 1e300:
    the products of its values that a step divides by underflow to 0 or
    overflow."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        f = _brent_function(rng)
        if rng.random() < 0.25:
            f = (lambda x, f=f, scale=float(10 ** rng.uniform(-300, 300)):
                 scale * f(x))
        lo, hi = sorted(float(x) for x in rng.uniform(-6, 6, 2))
        if rng.random() < 0.05:
            lo = hi - 1e-9
        f_lo, f_hi = f(lo), f(hi)
        if math.isfinite(f_lo) and math.isfinite(f_hi) and f_lo != 0 \
                and f_hi != 0 and (f_lo < 0) != (f_hi < 0):
            xtol = (hi - lo) * 10 ** rng.uniform(-13, 0.5)
            cases.append((f, lo, hi, float(xtol)))
    return cases


def _port(f, lo, hi, xtol):
    """(root or "NoConvergence", f calls) of sweep._brentq handed f's
    values at the ends."""
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)
    try:
        root = sweep._brentq(counted, lo, hi, f(lo), f(hi), xtol)
    except NoConvergence:
        root = "NoConvergence"
    return root, len(calls)


def _scipy(f, lo, hi, xtol, **kwargs):
    """(root or "NoConvergence", f calls) of scipy.optimize.brentq, less
    the two at the ends."""
    try:
        root, info = scipy.optimize.brentq(f, lo, hi, xtol=xtol,
                                           full_output=True, **kwargs)
    except RuntimeError:        # "Failed to converge after n iterations"
        return "NoConvergence", None
    return root, info.function_calls - 2


class TestBrentq:
    """sweep._brentq against scipy.optimize.brentq, whose brentq.c it
    ports line by line."""

    def test_bits_equal_scipy(self):
        cases = _brent_cases(20261020, 3000)
        failed = 0
        for f, lo, hi, xtol in cases:
            want, want_calls = _scipy(f, lo, hi, xtol)
            got, calls = _port(f, lo, hi, xtol)
            if want == "NoConvergence":
                failed += 1
                assert got == want
            else:
                assert got.hex() == want.hex(), (lo, hi, xtol)
                assert calls == want_calls
        # the flat odd powers at small xtol run out of iterations
        assert 0 < failed < len(cases) // 10

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_root_at_bracket_end(self, zero):
        for f, lo, hi, xtol in _brent_cases(7, 50):
            def never(x):
                raise AssertionError("f called")
            assert sweep._brentq(never, lo, hi, zero, f(hi), xtol) == lo
            assert sweep._brentq(never, lo, hi, f(lo), zero, xtol) == hi
        # scipy's brentq returns an end where f is 0 without a step
        assert scipy.optimize.brentq(lambda x: x - 1.0, 1.0, 2.0) == 1.0
        assert scipy.optimize.brentq(lambda x: x - 2.0, 1.0, 2.0) == 2.0

    @pytest.mark.parametrize("maxiter", [1, 3, 8])
    def test_iterations_exhausted(self, monkeypatch, maxiter):
        # scipy fails at the same count, and the port calls f once a step
        monkeypatch.setattr(sweep, "BRENT_MAXITER", maxiter)
        exhausted = 0
        for f, lo, hi, xtol in _brent_cases(11, 200):
            want, _ = _scipy(f, lo, hi, xtol, maxiter=maxiter)
            got, calls = _port(f, lo, hi, xtol)
            assert (got == "NoConvergence") == (want == "NoConvergence")
            if got == "NoConvergence":
                exhausted += 1
                assert calls == maxiter
        assert exhausted > 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_f_is_no_convergence(self, bad):
        with pytest.raises(NoConvergence):
            sweep._brentq(lambda x: bad, 0.0, 1.0, -1.0, 1.0)
        with pytest.raises(NoConvergence):
            sweep._brentq(lambda x: x - 0.3, 0.0, 1.0, bad, 0.7)
        # NaN after a few finite steps
        calls = []

        def late(x):
            calls.append(x)
            return bad if len(calls) == 3 else x ** 3 - 0.3
        with pytest.raises(NoConvergence):
            sweep._brentq(late, 0.0, 1.0, -0.3, 0.7, 1e-12)
        assert len(calls) == 3

    def test_ends_of_one_sign_are_no_bracket(self):
        with pytest.raises(NoBracket):
            sweep._brentq(lambda x: x, 1.0, 2.0, 1.0, 2.0)
        with pytest.raises(NoBracket):
            sweep._brentq(lambda x: x, -2.0, -1.0, -2.0, -1.0)


class TestPinningCrossing:
    def test_crossing_above_gamma(self, baseline):
        root, gamma_abs, depth = find_pinning_crossing(baseline, 10.0,
                                                       (1.0, 3.0))
        assert root > 1.0
        assert 1.0 <= gamma_abs <= 5.0
        assert depth == pytest.approx(
            many_body.sg_critical_depth(gamma_abs), abs=1e-4)

    def test_weak_interaction_regime_error(self, baseline):
        with pytest.raises(RegimeError):
            find_pinning_crossing(baseline, 100.0, (1.0, 3.0))

    def test_no_sign_change(self, baseline):
        with pytest.raises(NoBracket):
            find_pinning_crossing(baseline, 10.0, (2.05, 3.0))

    def test_degenerate_bracket(self, baseline):
        with pytest.raises(NoBracket):
            find_pinning_crossing(baseline, 10.0, (2.0, 2.0))

    def test_bracket_touching_pole(self, baseline):
        # the bracket is checked before the scan, which would raise the
        # parent DomainError; the Lambda pole lies at Omega = 0.158
        with pytest.raises(PoleError):
            find_pinning_crossing(baseline, 10.0, (0.1, 0.2))


def _normalized_hausdorff(polys_a, polys_b, spec):
    """Symmetric Hausdorff distance between polyline families, with both
    axes normalized by their grid ranges."""
    def densify(polys):
        pts = []
        sx = spec.delta_p_range[1] - spec.delta_p_range[0]
        sy = spec.omega_range[1] - spec.omega_range[0]
        for poly in polys:
            v = np.array(poly.vertices) / [sx, sy]
            for a, b in zip(v[:-1], v[1:]):
                for t in np.linspace(0, 1, 20):
                    pts.append(a + t * (b - a))
            if len(v) == 1:
                pts.append(v[0])
        return np.array(pts)

    pa, pb = densify(polys_a), densify(polys_b)
    d = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2)
    return max(d.min(axis=1).max(), d.min(axis=0).max())


class TestPhaseBoundaries:
    def test_bh_boundary_hits_fig4_point(self, baseline):
        n = 25
        spec = GridSpec((20.0, 100.0, n), (0.8, 1.5, n), baseline)
        polys = [b for b in phase_boundaries(spec) if b.model == "BH"]
        assert polys
        cell = np.array([(100.0 - 20.0) / (n - 1), (1.5 - 0.8) / (n - 1)])
        target = np.array([50.0, 1.03388])
        best = min(
            np.linalg.norm((np.array(v) - target) / cell)
            for b in polys for v in b.vertices
        )
        assert best <= math.sqrt(2)   # within one grid cell diagonal

    def test_empty_boundary_without_lattice(self, baseline):
        spec = GridSpec((20.0, 100.0, 8), (0.8, 1.5, 8),
                        with_(baseline, n1_fraction=0.0))
        with pytest.raises(EmptyBoundary):
            phase_boundaries(spec)

    def test_refinement_convergence(self, baseline):
        n = 13
        coarse = GridSpec((20.0, 100.0, n), (0.8, 1.5, n), baseline)
        fine = GridSpec((20.0, 100.0, 2 * n - 1), (0.8, 1.5, 2 * n - 1),
                        baseline)
        pa = [b for b in phase_boundaries(coarse) if b.model == "BH"]
        pb = [b for b in phase_boundaries(fine) if b.model == "BH"]
        dist = _normalized_hausdorff(pa, pb, coarse)
        assert dist <= 1.0 / (n - 1)   # one coarse cell, normalized units

    def test_shared_edge_crossing_joins_contour(self, baseline):
        # two cells interpolating their shared edge from opposite ends gave
        # crossings a last bit apart here, which split the SG contour in two
        dp0, om0 = 0.2590084917154736, 0.0685257992964537
        spec = GridSpec((2.0 + dp0, 100.0 + dp0, 20),
                        (0.5 + om0, 3.0 + om0, 20), baseline)
        sg = [b for b in phase_boundaries(spec) if b.model == "SG"]
        assert len(sg) == 1
        assert len(sg[0].vertices) == 8

    def test_contours_drawn_on_the_nodes_axes(self, baseline):
        # nodes of another grid of the same shape are drawn on their own
        # axes, not on those of the spec passed beside them
        spec_a = GridSpec((10.0, 90.0, 15), (0.9, 1.6, 15), baseline)
        spec_b = GridSpec((20.0, 100.0, 15), (0.8, 1.5, 15), baseline)
        nodes_b = sweep.evaluate_grid(spec_b)
        assert phase_boundaries(spec_a, nodes_b) == phase_boundaries(spec_b)

    def test_polylines_tagged_and_ordered(self, baseline):
        spec = GridSpec((20.0, 100.0, 15), (0.8, 1.5, 15), baseline)
        for b in phase_boundaries(spec):
            assert b.model in ("BH", "SG")
            assert len(b.vertices) >= 2
