import math

import numpy as np
import pytest

from polariton_phases import many_body
from polariton_phases.errors import DomainError
from polariton_phases.many_body import (
    Phase,
    bh_params,
    classify,
    luttinger_k,
    make_point,
    regime_flags,
    sg_critical_depth,
    uj_closed_form,
)

# frozen from a 40-digit mpmath evaluation
K_AT_3_5 = 2.0038743299881887
K_AT_10 = 1.409611220951483
CRIT_AT_1 = 2.8520714140064934
CRIT_AT_3_5 = 0.007748659976377309
J_AT_CRITICAL = 0.024417579803549033   # V1/E_R = 9.7062
U_AT_CRITICAL = 0.09400499447385887    # gamma = 0.20970
UJ_AT_CRITICAL = 3.8498899248071867
J_AT_X1 = 0.30541902835432863          # 4 e^-2 / sqrt(pi)


class TestLuttingerK:
    def test_frozen_values(self):
        assert luttinger_k(3.5) == pytest.approx(K_AT_3_5, rel=1e-14)
        assert luttinger_k(10.0) == pytest.approx(K_AT_10, rel=1e-14)

    @pytest.mark.parametrize("bad", [0.0, -1.0, 12.0, 10.0001])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            luttinger_k(bad)

    def test_strictly_decreasing(self):
        gammas = np.linspace(0.01, 10.0, 500)
        ks = [luttinger_k(float(g)) for g in gammas]
        assert all(a > b for a, b in zip(ks, ks[1:]))


class TestSgCriticalDepth:
    def test_frozen_values(self):
        assert sg_critical_depth(1.0) == pytest.approx(CRIT_AT_1, rel=1e-14)
        assert sg_critical_depth(3.5) == pytest.approx(CRIT_AT_3_5, rel=1e-12)
        assert sg_critical_depth(3.5) <= 0.01

    def test_clamped_above_pinning_gamma(self):
        # K(4) < 2: any nonzero lattice pins
        assert luttinger_k(4.0) < 2.0
        assert sg_critical_depth(4.0) == 0.0

    def test_equals_two_k_minus_two_clamped(self):
        for g in np.linspace(0.05, 10.0, 10_000):
            expect = max(0.0, 2 * (luttinger_k(float(g)) - 2.0))
            got = sg_critical_depth(float(g))
            assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_vanishes_exactly_where_k_is_two(self):
        import scipy.optimize
        g_star = scipy.optimize.brentq(
            lambda g: luttinger_k(g) - 2.0, 3.0, 4.0, xtol=1e-14)
        assert sg_critical_depth(g_star * (1 - 1e-10)) > 0
        assert sg_critical_depth(g_star * (1 + 1e-10)) == 0.0


class TestBhParams:
    def test_frozen_critical_point(self):
        j, u, uj = bh_params(9.7062, 0.20970)
        assert j == pytest.approx(J_AT_CRITICAL, rel=1e-14)
        assert u == pytest.approx(U_AT_CRITICAL, rel=1e-14)
        assert uj == pytest.approx(UJ_AT_CRITICAL, rel=1e-14)

    def test_zero_gamma(self):
        j, u, uj = bh_params(5.0, 0.0)
        assert u == 0.0 and uj == 0.0 and j > 0

    def test_unit_depth(self):
        assert bh_params(1.0, 0.3).j_over_er == pytest.approx(
            J_AT_X1, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            bh_params(0.0, 0.5)
        with pytest.raises(DomainError):
            bh_params(-1.0, 0.5)
        with pytest.raises(DomainError):
            bh_params(1.0, -0.5)
        with pytest.raises(DomainError):    # J/E_R underflows to 0
            bh_params(2e5, 0.5)

    def test_uj_matches_closed_form(self, rng):
        for _ in range(10_000):
            x = 10 ** rng.uniform(-2, 1.5)
            g = 10 ** rng.uniform(-3, 1)
            _, _, uj = bh_params(x, g)
            assert uj == pytest.approx(uj_closed_form(x, g), rel=1e-12)


class TestClassification:
    def test_bh_mott(self):
        p = make_point(0.2097, 9.8)
        assert p.flags.bh_valid and not p.flags.sg_valid
        assert p.u_over_j > many_body.UJ_CRITICAL
        assert p.phase is Phase.MOTT_BH

    def test_bh_superfluid(self):
        p = make_point(0.05, 9.8)
        assert p.flags.bh_valid
        assert p.phase is Phase.SUPERFLUID

    def test_sg_pinned_at_shallow_lattice(self):
        p = make_point(4.0, 0.5)
        assert p.flags.sg_valid
        assert p.phase is Phase.MOTT_PINNED_SG

    def test_sg_no_lattice_no_pinning(self):
        p = make_point(4.0, 0.0)
        assert p.flags.sg_valid
        assert p.phase is Phase.SUPERFLUID

    def test_gap_region_indeterminate(self):
        p = make_point(2.0, 9.0)    # gamma too large for BH, lattice too deep for sG
        assert not p.flags.sg_valid and not p.flags.bh_valid
        assert p.phase is Phase.INDETERMINATE

    def test_windows_never_overlap(self, rng):
        for _ in range(5000):
            flags = regime_flags(10 ** rng.uniform(-3, 1),
                                 10 ** rng.uniform(-2, 2))
            assert not (flags.sg_valid and flags.bh_valid)

    def test_corner_belongs_to_bh(self):
        # at |gamma| = 1, V1/E_R = 3 both windows would hold
        p = make_point(1.0, 3.0)
        assert p.flags.bh_valid and not p.flags.sg_valid
        assert p.phase is Phase.SUPERFLUID
        assert regime_flags(1.0, math.nextafter(3.0, 0.0)).sg_valid

    def test_non_finite_coordinates_rejected(self):
        for gamma_abs, depth in ((math.nan, 1.0), (1.0, math.inf)):
            with pytest.raises(DomainError):
                make_point(gamma_abs, depth)

    def test_overlapping_flags_rejected(self):
        with pytest.raises(DomainError):
            many_body.RegimeFlags(sg_valid=True, bh_valid=True,
                                  k_formula_valid=True, sign_warning=False)

    def test_negative_gamma_rejected(self):
        with pytest.raises(DomainError):
            make_point(-0.5, 1.0)

    def test_tie_breaks_toward_mott(self):
        # exactly on the BH critical line
        x = 9.7062
        g = many_body.UJ_CRITICAL / uj_closed_form(x, 1.0)
        p = make_point(g, x)
        assert p.flags.bh_valid
        assert p.u_over_j == pytest.approx(many_body.UJ_CRITICAL, rel=1e-12)
        if p.u_over_j >= many_body.UJ_CRITICAL:
            assert p.phase is Phase.MOTT_BH

    def test_classification_stable_off_boundary(self, rng):
        for _ in range(500):
            g = 10 ** rng.uniform(-2, 0.9)
            x = 10 ** rng.uniform(-1, 1.3)
            p0 = make_point(g, x)
            p1 = make_point(g * (1 + 1e-15), x)
            if abs(p0.u_over_j - many_body.UJ_CRITICAL) > 1e-10:
                assert p0.phase is p1.phase

    def test_single_source_of_truth_for_uj(self, rng):
        for _ in range(1000):
            p = make_point(10 ** rng.uniform(-2, 0.9),
                           10 ** rng.uniform(-1, 1.3))
            assert p.u_over_j == p.u_over_er / p.j_over_er

    def test_serialization_enums(self):
        d = make_point(0.2097, 9.8).to_dict()
        assert d["phase"] == "MOTT_BH"
        assert "bh_valid" in d["flags"]
