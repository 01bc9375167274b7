import math
import pickle

import numpy as np
import pytest

from polariton_phases import optics
from polariton_phases.errors import DomainError, ModulationWarning, PoleError
from polariton_phases.optics import (
    OpticalConfig,
    assembled_depth_ratio,
    assembled_gamma,
    effective_params,
    lattice_depth_ratio,
    lieb_liniger_gamma,
    validate_config,
)

from conftest import random_valid_config, with_

# frozen from a 40-digit mpmath evaluation of the closed forms
LAMBDA_BASELINE = 1.0256410256410256
XI_BASELINE = 1.0001000200040008
GAMMA_AT_CROSSING = 0.20971506904269016   # omega = 1.03388, delta_p = 50
GAMMA_AT_DP2 = 5.272912887910955          # omega = 1, delta_p = 2
DEPTH_OMEGA1 = 10.391916271009002
DEPTH_OMEGA07 = 21.789501858567263


class TestValidation:
    def test_baseline_is_valid(self, baseline):
        assert validate_config(baseline) is baseline

    def test_validated_config_pickles(self, baseline):
        cfg = pickle.loads(pickle.dumps(validate_config(baseline)))
        assert cfg == baseline
        assert effective_params(cfg) == effective_params(baseline)

    def test_lambda_pole_rejected(self, baseline):
        # Omega^2 = delta * Delta_0 / 2 = 0.025
        with pytest.raises(PoleError):
            validate_config(with_(baseline, omega=math.sqrt(0.025)))

    def test_xi_pole_rejected(self, baseline):
        with pytest.raises(PoleError):
            validate_config(with_(baseline, delta_p=baseline.delta_small))

    def test_zero_photon_density_rejected(self, baseline):
        with pytest.raises(DomainError):
            validate_config(with_(baseline, n_ph=0.0))

    @pytest.mark.parametrize("field,value", [
        ("gamma_total", -1.0), ("n0", 0.0), ("v", 0.0),
        ("fiber_length", -0.1), ("gamma_1d_ratio", 1.5),
        ("n1_fraction", 1.0),
    ])
    def test_bad_fields_rejected(self, baseline, field, value):
        with pytest.raises(DomainError):
            validate_config(with_(baseline, **{field: value}))

    @pytest.mark.parametrize("field", [
        "delta_p", "omega", "delta0", "delta_small", "delta_omega",
        "gamma_total", "n0",
    ])
    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, pytest.param(10**400, id="int1e400")])
    def test_non_finite_fields_rejected(self, baseline, field, value):
        with pytest.raises(DomainError):
            validate_config(with_(baseline, **{field: value}))

    def test_node_fields_left_to_the_node(self, baseline):
        # building checks every field but delta_p and omega, and no pole;
        # validate_config checks the node
        for node_kw in ({"delta_p": math.nan},
                        {"delta_p": baseline.delta_small},
                        {"omega": math.sqrt(baseline.delta_small
                                            * baseline.delta0 / 2)}):
            cfg = with_(baseline, **node_kw)
            with pytest.raises(DomainError):
                validate_config(cfg)
        with pytest.raises(DomainError):
            with_(baseline, n0=math.nan)

    def test_large_modulation_warns(self, baseline):
        with pytest.warns(ModulationWarning):
            validate_config(with_(baseline, n1_fraction=0.6))


class TestEffectiveParams:
    def test_baseline_closed_forms(self, baseline):
        ep = effective_params(validate_config(baseline))
        assert ep.lambda_factor == pytest.approx(LAMBDA_BASELINE, rel=1e-15)
        assert ep.xi_factor == pytest.approx(XI_BASELINE, rel=1e-15)
        assert ep.v_g == pytest.approx(40.0, rel=1e-15)
        assert 0 < ep.v_g < baseline.v
        assert ep.e_recoil > 0
        assert ep.od == pytest.approx(2e4, rel=1e-15)

    def test_zero_two_photon_detuning(self, baseline):
        ep = effective_params(validate_config(with_(baseline, delta_small=0.0)))
        assert ep.lambda_factor == 1.0
        assert ep.xi_factor == 1.0
        assert ep.v1 == 0.0
        # with delta_omega = 0 as well, the uniform offset vanishes exactly
        assert ep.v0 == 0.0

    def test_v0_from_carrier_mismatch_alone(self, baseline):
        cfg = with_(baseline, delta_small=0.0, delta_omega=1e5)
        ep = effective_params(validate_config(cfg))
        assert ep.v0 * cfg.gamma_total == pytest.approx(
            cfg.delta_omega * ep.v_g / cfg.v, rel=1e-14)

    def test_loss_rate_at_forced_group_velocity(self, baseline):
        # omega chosen so v_g = 100 m/s; kappa = n_ph^2 v_g Gamma/(n0 Gamma_1D)
        cfg = with_(baseline, omega=math.sqrt(2.5))
        ep = effective_params(validate_config(cfg))
        assert ep.v_g == pytest.approx(100.0, rel=1e-14)
        assert ep.kappa == pytest.approx(50.0, rel=1e-14)

    def test_no_modulation_no_lattice(self, baseline):
        ep = effective_params(validate_config(with_(baseline, n1_fraction=0.0)))
        assert ep.v1 == 0.0

    def test_mass_sign_and_loss_part(self, baseline):
        ep = effective_params(validate_config(baseline))
        assert ep.mass.real < 0          # positive detunings, no carrier shift
        assert ep.mass.imag > 0          # spontaneous-emission correction


class TestGammaAndDepth:
    def test_gamma_at_mott_crossing_point(self, baseline):
        vc = validate_config(with_(baseline, omega=1.03388, delta_p=50.0))
        gam = lieb_liniger_gamma(vc)
        assert gam.magnitude == pytest.approx(GAMMA_AT_CROSSING, rel=1e-13)
        assert gam.negative
        assert gam.signed == -gam.magnitude

    def test_gamma_strong_interaction_regime(self, baseline):
        vc = validate_config(with_(baseline, delta_p=2.0, omega=1.0))
        gam = lieb_liniger_gamma(vc)
        assert gam.magnitude == pytest.approx(GAMMA_AT_DP2, rel=1e-13)
        assert gam.magnitude >= 5.0     # strong-coupling end is reachable

    def test_gamma_vanishes_without_waveguide_coupling(self, baseline):
        # gamma ~ Gamma_1D^2: quadratic suppression at small coupling
        g_small = lieb_liniger_gamma(
            validate_config(with_(baseline, gamma_1d_ratio=1e-6))).magnitude
        g_base = lieb_liniger_gamma(validate_config(baseline)).magnitude
        assert g_small == pytest.approx(g_base * 1e-12 / 0.04, rel=1e-10)

    def test_depth_examples(self, baseline):
        assert lattice_depth_ratio(validate_config(baseline)) == pytest.approx(
            DEPTH_OMEGA1, rel=1e-13)
        assert lattice_depth_ratio(
            validate_config(with_(baseline, omega=0.7))
        ) == pytest.approx(DEPTH_OMEGA07, rel=1e-13)

    def test_depth_zero_without_modulation(self, baseline):
        assert lattice_depth_ratio(
            validate_config(with_(baseline, n1_fraction=0.0))) == 0.0


class TestCrossModuleIdentities:
    N_RANDOM = 1000

    def test_depth_ratio_matches_assembled(self, rng):
        for _ in range(self.N_RANDOM):
            cfg = random_valid_config(rng)
            vc = validate_config(cfg)
            ep = effective_params(vc)
            direct = lattice_depth_ratio(vc)
            assembled = assembled_depth_ratio(ep, cfg.n_ph, cfg.gamma_total)
            assert assembled == pytest.approx(direct, rel=1e-12, abs=1e-300)

    def test_gamma_matches_mass_chi_identity(self, rng):
        for _ in range(self.N_RANDOM):
            cfg = random_valid_config(rng)
            vc = validate_config(cfg)
            ep = effective_params(vc)
            direct = lieb_liniger_gamma(vc).signed
            assembled = assembled_gamma(ep, cfg.n_ph, cfg.gamma_total)
            assert assembled == pytest.approx(direct, rel=1e-12)

    def test_scale_invariance_in_gamma_total(self, rng):
        for _ in range(200):
            cfg = random_valid_config(rng)
            vc = validate_config(cfg)
            for s in (0.1, 3.7, 100.0):
                scaled = validate_config(with_(cfg, gamma_total=s * cfg.gamma_total))
                assert lieb_liniger_gamma(scaled).signed == \
                    lieb_liniger_gamma(vc).signed
                assert lattice_depth_ratio(scaled) == lattice_depth_ratio(vc)

    def test_gamma_decreasing_in_delta_p(self, baseline):
        dps = np.linspace(1.0, 100.0, 200)
        mags = [lieb_liniger_gamma(
            validate_config(with_(baseline, delta_p=float(d)))).magnitude
            for d in dps]
        assert all(a > b for a, b in zip(mags, mags[1:]))

    def test_depth_decreasing_in_omega_above_pole(self, baseline):
        oms = np.linspace(0.3, 3.0, 200)   # pole at 0.158
        depths = [lattice_depth_ratio(
            validate_config(with_(baseline, omega=float(o)))) for o in oms]
        assert all(a > b for a, b in zip(depths, depths[1:]))


def test_json_round_trip(baseline):
    ep = effective_params(validate_config(baseline))
    d = ep.to_dict()
    assert set(d) == {"lambda_factor", "xi_factor", "v_g", "mass", "v0",
                      "v1", "chi", "e_recoil", "kappa", "od"}
    assert d["mass"] == [ep.mass.real, ep.mass.imag]
