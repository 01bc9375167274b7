"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.
"""

import json
import math
import time

import numpy as np
import pytest

from polariton_phases import bh_ed, many_body, nlse, optics, sweep
from polariton_phases.cli import main
from polariton_phases.optics import (
    OpticalConfig,
    assembled_depth_ratio,
    assembled_gamma,
)

from conftest import random_valid_config


def report(number, label, passed):
    print(f"ACCEPTANCE {number} [{label}]: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number} ({label})"


def test_criterion_1_mott_crossing_anchor():
    t0 = time.perf_counter()
    base = OpticalConfig()
    root = sweep.find_mott_crossing(base, 50.0, (0.9, 1.2))
    uj = float(sweep.evaluate(base, 50.0, root).u_over_j)
    elapsed = time.perf_counter() - t0
    ok = (abs(root - 1.03388) <= 5e-4
          and abs(uj - 3.85) <= 1e-2
          and elapsed < 1.0)
    print(f"  root = {root:.6f}, U/J = {uj:.5f}, {elapsed * 1e3:.0f} ms")
    report(1, "Mott crossing at Omega/Gamma = 1.03388, U/J = 3.85", ok)


def test_criterion_2_attainable_ranges():
    t0 = time.perf_counter()
    spec = sweep.GridSpec((2.0, 100.0, 50), (0.5, 3.0, 50), OpticalConfig())
    recs = sweep.sweep_grid(spec)
    max_gamma = max(r.point.gamma_abs for r in recs if r.point)
    max_depth = max(r.point.v1_over_er for r in recs if r.point)
    elapsed = time.perf_counter() - t0
    ok = max_gamma >= 5.0 and max_depth >= 20.0 and elapsed < 5.0
    print(f"  max |gamma| = {max_gamma:.2f}, max V1/E_R = {max_depth:.1f}, "
          f"{elapsed:.2f} s")
    report(2, "sweep reaches |gamma| >= 5 and V1/E_R >= 20", ok)


def test_criterion_3_pinning_consistency():
    crit = many_body.sg_critical_depth(3.5)
    k = many_body.luttinger_k(3.5)
    ok = crit <= 0.01 and abs(k - 2.00) <= 0.01
    print(f"  V1c(3.5) = {crit:.5f}, K(3.5) = {k:.5f}")
    report(3, "vanishing critical lattice at gamma = 3.5, K = 2", ok)


def test_criterion_4_algebraic_identity_suite():
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(10_000):
        x = 10 ** rng.uniform(-2, 1.5)
        g = 10 ** rng.uniform(-3, 1)
        _, _, uj = many_body.bh_params(x, g)
        closed = many_body.uj_closed_form(x, g)
        if abs(uj - closed) > 1e-12 * abs(closed):
            ok = False
            break
        gk = 10 ** rng.uniform(-2, 1)   # up to gamma = 10
        crit = many_body.sg_critical_depth(gk)
        expect = max(0.0, 2 * (many_body.luttinger_k(gk) - 2.0))
        if abs(crit - expect) > 1e-12 * max(abs(expect), 1e-12):
            ok = False
            break
    report(4, "U/J and pinning-line identities to 1e-12 over 1e4 samples", ok)


def test_criterion_5_cross_module_identities():
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(1000):
        cfg = random_valid_config(rng)
        vc = optics.validate_config(cfg)
        ep = optics.effective_params(vc)
        depth = optics.lattice_depth_ratio(vc)
        gamma = optics.lieb_liniger_gamma(vc).signed
        a_depth = assembled_depth_ratio(ep, cfg.n_ph, cfg.gamma_total)
        a_gamma = assembled_gamma(ep, cfg.n_ph, cfg.gamma_total)
        if depth > 0 and abs(a_depth - depth) > 1e-12 * depth:
            ok = False
            break
        if abs(a_gamma - gamma) > 1e-12 * abs(gamma):
            ok = False
            break
    report(5, "effective-parameter assembly matches closed forms to 1e-12",
           ok)


def test_criterion_6_nlse_solver():
    t0 = time.perf_counter()
    # norm conservation, kappa = 0
    p = nlse.NlseParams(v1_over_er=5.0, g_int=0.5, n_periods=8,
                        grid_points=128)
    xi = nlse.grid(p)
    x0 = math.pi * p.n_periods / 2
    psi0 = np.exp(-((xi - x0) ** 2) / 8).astype(complex)
    _, obs = nlse.evolve(nlse.FieldState(psi0), p, dt=1e-3, steps=1000,
                         record_every=100)
    norm_ok = abs(obs.norm - obs.norm[0]).max() < 1e-10

    # exponential decay in the linear lossy regime
    pk = nlse.NlseParams(kappa_dimless=0.1, n_periods=8, grid_points=64)
    _, obs_k = nlse.evolve(nlse.FieldState(np.ones(64, dtype=complex)), pk,
                           dt=1e-2, steps=500, record_every=100)
    decay_ok = np.abs(obs_k.norm - np.exp(-0.1 * obs_k.tau)).max() < 1e-6

    # free Gaussian dispersion within 1%
    pf = nlse.NlseParams(n_periods=16, grid_points=512)
    xif = nlse.grid(pf)
    xc = math.pi * pf.n_periods / 2
    sigma0 = 1.0
    psi = np.exp(-((xif - xc) ** 2) / (2 * sigma0**2)).astype(complex)
    final, _ = nlse.evolve(nlse.FieldState(psi), pf, dt=1e-3, steps=1000)
    dens = np.abs(final.psi) ** 2
    com = (xif * dens).sum() / dens.sum()
    width2 = 2 * ((xif - com) ** 2 * dens).sum() / dens.sum()
    expect = sigma0**2 * (1 + 4 * 1.0**2)
    disp_ok = abs(width2 - expect) / expect < 0.01

    # second-order convergence in dt
    state = nlse.FieldState(psi0)
    tau = 0.5
    ref, _ = nlse.evolve(state, p, dt=tau / 2**13, steps=2**13)
    dts, errs = [], []
    for k in (7, 8, 9, 10):
        steps = 2**k
        fin, _ = nlse.evolve(state, p, dt=tau / steps, steps=steps)
        dts.append(tau / steps)
        errs.append(np.linalg.norm(fin.psi - ref.psi)
                    / np.linalg.norm(ref.psi))
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    slope_ok = abs(slope - 2.0) <= 0.1
    elapsed = time.perf_counter() - t0
    print(f"  norm drift ok = {norm_ok}, decay ok = {decay_ok}, "
          f"dispersion ok = {disp_ok}, dt slope = {slope:.3f}, "
          f"{elapsed:.1f} s")
    report(6, "NLSE conservation, loss, dispersion, dt^2 convergence",
           norm_ok and decay_ok and disp_ok and slope_ok and elapsed < 30)


def test_criterion_7_ed_oracles():
    t0 = time.perf_counter()
    basis = bh_ed.FockBasis.build(2, 2, 2, periodic=False)
    u, j = 4.0, 1.0
    e0, _ = bh_ed.ground_energy(bh_ed.build_hamiltonian(basis, j, u))
    analytic = (u - math.sqrt(u**2 + 16 * j**2)) / 2
    two_site_ok = abs(e0 - analytic) <= 1e-12 * abs(analytic)

    basis4 = bh_ed.FockBasis.build(4, 4, 4)
    h4 = bh_ed.build_hamiltonian(basis4, 1.0, 4.0)
    e_dense, _ = bh_ed.ground_energy(h4)
    import scipy.sparse.linalg
    e_iter = float(scipy.sparse.linalg.eigsh(h4, k=1, which="SA",
                                             tol=0)[0][0])
    agree_ok = abs(e_dense - e_iter) <= 1e-10 * abs(e_dense)

    # atomic limit, J = 0: the gap of the three unit-filling solves is U
    e_n = {n: bh_ed.ground_energy(bh_ed.build_hamiltonian(b, 0.0, 7.0))[0]
           for n, b in bh_ed.UnitFilling.build(4, 4).bases.items()}
    gap_ok = e_n[5] + e_n[3] - 2 * e_n[4] == pytest.approx(7.0, abs=1e-12)

    est = bh_ed.estimate_critical_ratio([4, 6],
                                        [1, 2, 3, 4, 5, 6, 7, 8])
    band_ok = 2.5 <= est.mean <= 5.5
    elapsed = time.perf_counter() - t0
    print(f"  2-site ok = {two_site_ok}, dense/iter ok = {agree_ok}, "
          f"atomic gap ok = {gap_ok}, (U/J)_c = {est.mean:.2f}, "
          f"{elapsed:.1f} s")
    report(7, "ED oracles and scaled-gap critical estimate",
           two_site_ok and agree_ok and gap_ok and band_ok and elapsed < 60)


def test_criterion_8_determinism(tmp_path):
    doc = {
        "sweep": {"delta_p_range": [20.0, 100.0, 8],
                  "omega_range": [0.8, 1.5, 8]},
        "nlse": {"grid_points": 64, "n_periods": 4, "steps": 100,
                 "dt": 1e-3, "record_every": 20},
        "ed": {"sizes": [2, 3], "ratios": [1.0, 2.0, 3.0, 4.0, 5.0],
               "n_max": 3},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(doc))
    ok = True
    for sub in ("map", "sweep", "phase", "crossing", "nlse", "ed"):
        argv_doc = doc if sub != "crossing" else {
            "sweep": {"omega_range": [0.9, 1.2, 10]}}
        p = tmp_path / f"{sub}.json"
        p.write_text(json.dumps(argv_doc))
        blobs = []
        for rep in ("a", "b"):
            out = tmp_path / sub / rep
            if main([sub, "--config", str(p), "--out", str(out)]) != 0:
                ok = False
            blobs.append({f.name: f.read_bytes()
                          for f in sorted(out.iterdir())})
        if blobs[0] != blobs[1] or not blobs[0]:
            ok = False
    report(8, "byte-identical re-runs for every subcommand", ok)
