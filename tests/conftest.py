import dataclasses
import math

import numpy as np
import pytest

from polariton_phases import nlse
from polariton_phases.optics import OpticalConfig, validate_config
from polariton_phases.errors import DomainError, PoleError


def random_valid_config(rng: np.random.Generator) -> OpticalConfig:
    """Sample an OpticalConfig passing validation, away from the poles."""
    while True:
        cfg = OpticalConfig(
            gamma_total=10 ** rng.uniform(6, 8),
            gamma_1d_ratio=rng.uniform(0.05, 1.0),
            delta0=rng.uniform(1.0, 20.0),
            delta_small=10 ** rng.uniform(-3, -1),
            delta_p=rng.uniform(1.0, 100.0),
            omega=rng.uniform(0.3, 3.0),
            n0=10 ** rng.uniform(6, 8),
            n1_fraction=rng.uniform(0.0, 0.5),
            n_ph=10 ** rng.uniform(2, 4),
            delta_omega=0.0,
        )
        # keep a finite margin from the Lambda pole so identities are
        # numerically clean
        if abs(cfg.omega**2 - cfg.delta_small * cfg.delta0 / 2) < 1e-3:
            continue
        try:
            validate_config(cfg)
        except (DomainError, PoleError):
            continue
        return cfg


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def baseline():
    return OpticalConfig()


def with_(cfg, **kw):
    return dataclasses.replace(cfg, **kw)


def check_ground_residual(state, params):
    """Oracle for nlse.ground_state's stop.  Recomputes |H psi - mu psi| /
    |psi| from the samples of state.psi with complex FFTs, which resolve it
    only to the rounding floor eps (k_max^2 + s + g max|psi|^2): the
    returned residual must meet the tolerance and match the recomputed one
    to within that floor."""
    s, g, _ = params.coefficients(0.0)
    psi = state.psi
    n = params.grid_points
    k = 2 * math.pi * np.fft.fftfreq(n, d=math.pi * params.n_periods / n)
    dens = np.abs(psi) ** 2
    h_psi = np.fft.ifft(k**2 * np.fft.fft(psi)) \
        + (s * np.cos(nlse.grid(params)) ** 2 + g * dens) * psi
    norm = np.mean(dens)
    mu = np.vdot(psi, h_psi).real / n / norm
    residual = math.sqrt(np.mean(np.abs(h_psi - mu * psi) ** 2) / norm)
    floor = np.finfo(float).eps * ((n / params.n_periods) ** 2 + s
                                   + g * dens.max())
    assert state.residual <= nlse.GROUND_TOL * max(abs(mu), 1.0) + floor
    assert abs(residual - state.residual) <= floor
