import hashlib
import json
import logging
import logging.handlers
import math
import os
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polariton_phases
from polariton_phases import bh_ed, cli, nlse, sweep
from polariton_phases.cli import main
from polariton_phases.config import (
    RunConfig,
    default_config,
    from_dict,
    load_config,
)
from polariton_phases.errors import (
    ModulationWarning,
    ParseError,
    PolaritonError,
    UnknownKey,
)

from conftest import check_ground_residual


SMALL_CONFIG = {
    "sweep": {"delta_p_range": [20.0, 100.0, 8],
              "omega_range": [0.8, 1.5, 8]},
    "nlse": {"grid_points": 64, "n_periods": 4, "steps": 100, "dt": 1e-3,
             "record_every": 20},
    "ed": {"sizes": [2, 3], "ratios": [1.0, 2.0, 3.0, 4.0, 5.0],
           "n_max": 3},
}


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def run(tmp_path, subcommand, doc=None, out_flag=True):
    """Run `subcommand` with --out tmp_path/out, or without --out (so
    output.directory of `doc` is used) if `out_flag` is false."""
    out = tmp_path / "out"
    argv = [subcommand]
    if out_flag:
        argv += ["--out", str(out)]
    if doc is not None:
        argv += ["--config", str(write_config(tmp_path, doc))]
    code = main(argv)
    return code, out


class TestConfigParsing:
    def test_empty_config_gets_baseline_defaults(self, caplog):
        with caplog.at_level(logging.INFO, logger="polariton_phases"):
            cfg = from_dict({})
        assert cfg.optics.gamma_total == 2e7
        assert cfg.optics.n0 == 1e7
        assert cfg.optics.n1_fraction == 0.1
        assert cfg.optics.delta_p == 50.0
        # every applied default is echoed to the provenance log
        assert any("optics.n0 defaulted" in r.message for r in caplog.records)

    def test_invalid_modulation_fraction(self):
        with pytest.raises(ParseError):
            from_dict({"optics": {"n1_fraction": 1.5}})

    def test_unknown_keys_rejected(self):
        with pytest.raises(UnknownKey):
            from_dict({"optics": {"rabi": 1.0}})
        with pytest.raises(UnknownKey):
            from_dict({"mystery_section": {}})

    def test_partial_override_keeps_baseline(self):
        cfg = from_dict({"optics": {"delta_p": 50.0}})
        assert cfg.optics.delta_p == 50.0
        assert cfg.optics.omega == 1.0
        assert cfg.optics.delta0 == 5.0

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        for content, match in [
            (b"{not json", "line"),
            # past Python's limit on the digits of an int
            (b"1" * 5000, "ValueError"),
            (b"[" * 100_000, "RecursionError"),
            # a Latin-1 e-acute, which is not UTF-8
            (b'{"output": {"directory": "\xe9"}}', "UnicodeDecodeError"),
        ]:
            path.write_bytes(content)
            with pytest.raises(ParseError, match=match):
                load_config(path)
            assert main(["map", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        # load_config's OSError branch, in a fresh process: stderr holds
        # one ERROR line naming the path, and no traceback
        path = tmp_path / "absent.json"
        src = Path(polariton_phases.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "polariton_phases.cli", "map",
             "--config", str(path), "--out", str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True)
        assert done.returncode == 2
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR ParseError")
        assert str(path) in lines[0]
        assert "Traceback" not in done.stderr

    def test_ed_unit_filling_cap_exits_2(self, tmp_path):
        # n_max = 1 leaves the N + 1 sector of the charge gap empty: refused
        # with its cause, before any basis is built, in a fresh process
        src = Path(polariton_phases.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "polariton_phases.cli", "ed", "--config",
             str(write_config(tmp_path, {"ed": {"sizes": [4], "n_max": 1}})),
             "--out", str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True)
        assert done.returncode == 2
        assert done.stderr.splitlines()[-1] == (
            "ERROR DomainError: unit filling needs n_max >= 2 for the charge "
            "gap, whose L + 1 bosons must fit on L sites; got n_max = 1")
        assert "Traceback" not in done.stderr

    def test_hash_is_stable(self):
        assert from_dict({}).hash() == default_config().hash()
        # every output of a default run is stamped with this hash
        assert default_config().hash() == (
            "f28e7a95ad2a29a7bc60d78bb688066d7a3ac0cb58c28fb2dce4d0268b1ad4db")
        assert from_dict({"optics": {"omega": 1.1}}).hash() != \
            default_config().hash()


    @pytest.mark.parametrize("doc", [
        {"sweep": {"delta_p_range": [2.0, 100.0]}},
        {"sweep": {"omega_range": [0.5, 3.0, 2.5]}},
        {"sweep": {"omega_range": [0.5, 3.0, -1]}},
        {"nlse": {"record_every": 0}},
        {"sweep": {"omega_range": "0.5-3"}},
        {"ed": {"sizes": 4}},
        {"ed": {"ratios": [1.0, "2"]}},
        {"ed": {"n_max": 4.0}},
        {"ed": {"periodic": 1}},
        {"nlse": {"grid_points": "abc"}},
        {"nlse": {"steps": True}},
        {"nlse": {"dt": math.nan}},
        {"nlse": {"schedule": [[0.0, 1.0]]}},
        {"optics": {"n0": "1e7"}},
        {"optics": {"n0": True}},
        # JSON integers past the float range
        {"optics": {"n0": 10**400}},
        {"ed": {"ratios": [10**400]}},
        {"output": {"emit_plot_script": "yes"}},
        {"ed": [4, 6]},
    ])
    def test_wrong_value_types_rejected(self, doc):
        with pytest.raises(ParseError):
            from_dict(doc)


# JSON-like documents over the schema's section and key names
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)
_KEYS = {name: sorted(section) for name, section in default_config()
         .resolved().items()}
_sections = st.fixed_dictionaries({}, optional={
    name: st.dictionaries(st.sampled_from(keys), _json, max_size=4) | _json
    for name, keys in _KEYS.items()})


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(_sections, _json))
def test_from_dict_returns_config_or_package_error(doc):
    try:
        cfg = from_dict(doc)
    except PolaritonError:
        return
    assert isinstance(cfg, RunConfig)
    cfg.hash()


class TestSubcommands:
    def test_map(self, tmp_path):
        code, out = run(tmp_path, "map")
        assert code == 0
        doc = json.loads((out / "map.json").read_text())
        assert doc["many_body_point"]["phase"] in (
            "SF", "MOTT_SG", "MOTT_BH", "INDETERMINATE")
        assert doc["effective_params"]["v_g"] == pytest.approx(40.0)
        assert "config_hash" in doc

    def test_map_zero_delta_gives_zero_lattice(self, tmp_path):
        code, out = run(tmp_path, "map", {"optics": {"delta_small": 0.0}})
        assert code == 0
        doc = json.loads((out / "map.json").read_text())
        assert doc["effective_params"]["v1"] == 0.0

    def test_sweep_csv_layout(self, tmp_path):
        code, out = run(tmp_path, "sweep", SMALL_CONFIG)
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == (
            "delta_p_over_gamma,omega_over_gamma,gamma_signed,gamma_abs,"
            "v1_over_er,k_luttinger,j_over_er,u_over_er,u_over_j,"
            "v_g_m_per_s,kappa_per_s,phase,flags")
        assert len(lines) == 2 + 8 * 8

    def test_sweep_marks_out_of_domain_nodes(self, tmp_path):
        # at n0 = 5 /m the group velocity exceeds v above Omega ~ 1.94
        code, out = run(tmp_path, "sweep", {
            "optics": {"n0": 5.0},
            "sweep": {"delta_p_range": [20.0, 100.0, 4],
                      "omega_range": [0.5, 3.0, 6]}})
        assert code == 0
        rows = [line.split(",") for line in
                (out / "sweep.csv").read_text().splitlines()[2:]]
        assert len(rows) == 24
        domain = [r for r in rows if r[12] == "DOMAIN"]
        assert {float(r[1]) for r in domain} == {2.0, 2.5, 3.0}
        for r in domain:
            assert r[2:11] == ["nan"] * 9 and r[11] == ""
        assert all(r[11] for r in rows if r[12] != "DOMAIN")

    def test_phase_evaluates_grid_once(self, tmp_path, monkeypatch):
        calls = []
        evaluate = sweep.evaluate
        monkeypatch.setattr(sweep, "evaluate",
                            lambda *a: calls.append(a) or evaluate(*a))
        code, _ = run(tmp_path, "phase", SMALL_CONFIG)
        assert code == 0
        assert len(calls) == 1

    def test_crossing_root_file(self, tmp_path):
        code, out = run(tmp_path, "crossing", {
            "sweep": {"omega_range": [0.9, 1.2, 20]}})
        assert code == 0
        root = json.loads((out / "crossing_root.json").read_text())
        assert root["omega_over_gamma"] == pytest.approx(1.03388, abs=5e-4)
        assert root["u_over_j"] == pytest.approx(3.85, abs=1e-2)
        assert root["bh_valid"] is True     # gamma 0.21, V1/E_R 9.7
        header = (out / "crossing.csv").read_text().splitlines()[1]
        assert header == "omega_over_gamma,j_over_er,u_over_er,u_over_j"

    def test_crossing_evaluates_table_and_root_finder_only(self, tmp_path,
                                                          monkeypatch):
        # the fields at the root come from the root finder, not from a
        # second evaluate
        calls = []
        evaluate = sweep.evaluate
        monkeypatch.setattr(sweep, "evaluate",
                            lambda *a: calls.append(a) or evaluate(*a))
        doc = {"sweep": {"omega_range": [0.9, 1.2, 20]}}
        assert run(tmp_path, "crossing", doc)[0] == 0
        cli_calls = len(calls)
        calls.clear()
        base = from_dict(doc).optics
        sweep.find_mott_crossing(base, base.delta_p, (0.9, 1.2))
        assert cli_calls == 1 + len(calls)

    def test_crossing_root_outside_bh_window_is_flagged(self, tmp_path):
        # gamma = 2.03, V1/E_R = 2.78 at the root: reported, not raised
        code, out = run(tmp_path, "crossing", {
            "optics": {"delta_p": 5.0},
            "sweep": {"omega_range": [1.5, 2.5, 20]}})
        assert code == 0
        root = json.loads((out / "crossing_root.json").read_text())
        assert root["omega_over_gamma"] == pytest.approx(1.9146, abs=5e-4)
        assert root["u_over_j"] == pytest.approx(3.85, abs=1e-2)
        assert root["bh_valid"] is False

    def test_crossing_without_bracket_is_domain_error(self, tmp_path):
        code, _ = run(tmp_path, "crossing", {
            "sweep": {"omega_range": [2.0, 3.0, 5]}})
        assert code == 2

    def test_phase_outputs(self, tmp_path):
        code, out = run(tmp_path, "phase", SMALL_CONFIG)
        assert code == 0
        doc = json.loads((out / "phase_boundaries.json").read_text())
        assert doc["boundaries"]
        assert all(b["model"] in ("BH", "SG") for b in doc["boundaries"])
        assert (out / "phase_grid.csv").exists()

    def test_phase_without_boundary_writes_nothing(self, tmp_path):
        # no boundary crosses this grid: exit 2 and no partial output
        code, out = run(tmp_path, "phase", {
            "sweep": {"delta_p_range": [-3.0, 40.0, 23],
                      "omega_range": [0.05, 0.3, 31]}})
        assert code == 2
        assert list(out.iterdir()) == []

    def test_nlse_outputs(self, tmp_path):
        code, out = run(tmp_path, "nlse", SMALL_CONFIG)
        assert code == 0
        lines = (out / "nlse_trajectory.csv").read_text().splitlines()
        assert lines[1] == "tau,norm,energy,contrast"
        sidecar = json.loads((out / "nlse_state.json").read_text())
        assert sidecar["grid_points"] == 64
        raw = np.frombuffer((out / "nlse_state.bin").read_bytes(),
                            dtype="<f8")
        assert raw.size == 2 * 64
        psi = raw[0::2] + 1j * raw[1::2]
        assert np.isfinite(psi).all()

    def test_ed_outputs(self, tmp_path):
        code, out = run(tmp_path, "ed", SMALL_CONFIG)
        assert code == 0
        lines = (out / "ed.csv").read_text().splitlines()
        assert lines[1] == "L,N,n_max,u_over_j,e0_over_j,gap_over_j,var_n"
        assert len(lines) == 2 + 2 * 5

    def test_invalid_config_exit_code(self, tmp_path):
        code, _ = run(tmp_path, "map", {"optics": {"n_ph": 0.0}})
        assert code == 2
        code, _ = run(tmp_path, "ed", {"ed": {"sizes": 4}})
        assert code == 2
        code, _ = run(tmp_path, "nlse", {"nlse": {"grid_points": "abc"}})
        assert code == 2

    def test_non_finite_optics_exit_code(self, tmp_path):
        # json writes NaN and Infinity tokens, which the config reader accepts
        for value in (math.nan, math.inf):
            code, _ = run(tmp_path, "map", {"optics": {"delta_p": value}})
            assert code == 2

    @pytest.mark.parametrize("optics, sub", [
        (optics, sub)
        for optics, subs in [
            ({"delta0": 0}, "map sweep phase crossing nlse"),
            ({"delta_p": 0}, "map nlse"),
            ({"omega": 0}, "nlse"),
            ({"omega": 1e-300}, "nlse"),
            ({"n_ph": 1e-300}, "map sweep phase crossing nlse"),
            ({"omega": 1e300}, "map sweep phase crossing nlse"),
            ({"n_ph": 1e300}, "map sweep phase crossing nlse"),
            ({"gamma_total": 1e300}, "map"),
            # the effective-mass denominators 2 v v_g and 4 |Delta_0| Gamma
            # v_g underflow to 0
            ({"v": 1e-300, "omega": 1e-155}, "map"),
            ({"gamma_total": 2.0, "delta0": 5e-324}, "map"),
        ]
        for sub in subs.split()
    ])
    def test_closed_form_breaking_optics_exit_code(self, tmp_path, optics,
                                                   sub):
        # each divided by zero or overflowed a float ** in the closed forms;
        # only map and nlse read the config's own Omega
        code, _ = run(tmp_path, sub, {**SMALL_CONFIG, "optics": optics})
        reads_omega = sub in ("map", "nlse") or set(optics) != {"omega"}
        assert code == (2 if reads_omega else 0)

    @pytest.mark.parametrize("sub, nlse_keys, code", [
        ("map", {}, 2),
        ("nlse", {}, 2),
        ("nlse", {"v1_over_er": 2.0}, 2),
        ("nlse", {"v1_over_er": 2.0, "g_int": 0.1}, 0),
        ("sweep", {}, 0),
        ("phase", {}, 0),
        ("crossing", {}, 0),
        ("ed", {}, 0),
    ])
    def test_node_checked_only_where_read(self, tmp_path, sub, nlse_keys,
                                          code):
        # Omega = 0 breaks the closed forms at the config's own node, which
        # only map and nlse (when it derives s or g from the optics) read
        doc = {**SMALL_CONFIG, "optics": {"omega": 0},
               "nlse": {**SMALL_CONFIG["nlse"], **nlse_keys}}
        assert run(tmp_path, sub, doc)[0] == code

    @pytest.mark.parametrize("sub, section, code", [
        # codes of 1500 sites overflow int64
        ("ed", {"sizes": [1500], "n_max": 2, "ratios": [1, 2]}, 2),
        # U n(n-1)/2 overflows H, for the dense and the Lanczos solver
        ("ed", {"sizes": [4], "n_max": 4, "ratios": [1e308]}, 2),
        ("ed", {"sizes": [8], "n_max": 4, "ratios": [1e308]}, 2),
        # the ground-state energy overflows on the first step
        ("nlse", {"v1_over_er": 1e308, "g_int": 0.1}, 3),
        ("nlse", {"v1_over_er": 2.0, "g_int": 1e308}, 3),
        ("nlse", {"schedule": [[1, 2, 0.1, 0], [0, 3, 0.1, 0]]}, 2),
        ("nlse", {"schedule": [[0, 2, -0.1, 0], [1, 3, 0.1, 0]]}, 2),
        ("nlse", {"kappa_dimless": -0.1}, 2),
        # range(-3) ran no step and wrote a one-row trajectory
        ("nlse", {"steps": -3}, 2),
        # 2^40 points: rejected before the grid is allocated
        ("nlse", {"grid_points": 2**40}, 2),
        # the Lanczos residual's norm overflows
        ("ed", {"sizes": [8], "n_max": 4, "ratios": [1e300]}, 3),
        # the ground-state residual overflows
        ("nlse", {"v1_over_er": 1e200, "g_int": 0.1}, 3),
        ("nlse", {"v1_over_er": 2.0, "g_int": 1e200}, 3),
        # the mean energy density of the start overflows, though the
        # field is finite: no trajectory of inf energies
        ("nlse", {"schedule": [[0, 1e308, 1, 0], [0.001, 1e308, 1, 0]],
                  "steps": 3}, 3),
        # the bound on a step's phase, dt (k_max^2 + max s + max g n norm),
        # overflows: refused before the first step
        ("nlse", {"schedule": [[0, 1, 0.1, 0], [0.001, 1, 1e308, 0]]}, 2),
        ("nlse", {"dt": 1e308}, 2),
        # a range end that is an integer past int64, and a range whose
        # last node lies one overflowing step from the first: the exits of
        # the range [1, 1e20, 13]
        *[(sub, {"omega_range": omega_range}, code)
          for omega_range in ([1, 10**20, 13],
                              [1e155, 1.7976931348623157e308, 16])
          for sub, code in [("sweep", 0), ("phase", 2), ("crossing", 2)]],
        # a step's phase may reach 1/eps radians or more, where rounding
        # alone exceeds a radian: both ran to exit 0 on noise
        ("nlse", {"dt": 1e300}, 2),
        ("nlse", {"schedule": [[0, 1, 0.1, 0], [1, 1e300, 0.1, 0]]}, 2),
        # a ground state on 8 periods runs on one period of 8 points, and
        # the bound keeps the box's 64: 3.8e15 rad runs, 5.1e15 is refused
        # (5.1e15 / 8 with the period's n)
        *[("nlse", {"v1_over_er": 2.0, "g_int": g, "grid_points": 64,
                    "n_periods": 8}, code)
          for g, code in ((6e16, 0), (8e16, 2))],
        # the same on 16 one-point periods: 3.2e15 rad runs, 4.8e15 is
        # refused (2e14 and 3e14 with the period's n)
        *[("nlse", {"v1_over_er": 2.0, "g_int": g, "n_periods": 16}, code)
          for g, code in ((2e17, 0), (3e17, 2))],
    ])
    def test_solver_input_exit_code(self, tmp_path, caplog, sub, section,
                                    code):
        if sub == "nlse":
            section = {"grid_points": 16, "n_periods": 1, "steps": 5,
                       **section}
        # sweep, phase and crossing read the sweep section
        doc = {sub if sub in ("ed", "nlse") else "sweep": section}
        # main writes to stderr only through logging and warnings: INFO
        # lines, then one ERROR line on a failure, and no numpy
        # RuntimeWarning
        with warnings.catch_warnings(record=True) as caught, \
                caplog.at_level(logging.INFO, logger="polariton_phases"):
            warnings.simplefilter("always")
            assert run(tmp_path, sub, doc)[0] == code
        assert [str(w.message) for w in caught] == []
        levels = [r.levelname for r in caplog.records]
        errors = ["ERROR"] if code else []
        assert levels == ["INFO"] * (len(levels) - len(errors)) + errors

    @pytest.mark.parametrize("grid_points", [16, 64])
    def test_nlse_every_period_count_exits_0(self, tmp_path, grid_points):
        # one period to one grid point a period, each solved on one period
        for e in range(grid_points.bit_length()):
            run_dir = tmp_path / str(e)
            run_dir.mkdir()
            code, out = run(run_dir, "nlse", {"nlse": {
                "grid_points": grid_points, "n_periods": 2**e, "steps": 20}})
            assert code == 0
            psi = np.frombuffer((out / "nlse_state.bin").read_bytes(), "<c16")
            assert psi.size == grid_points and np.isfinite(psi).all()

    def test_integer_range_end_spans_its_float(self, tmp_path):
        # a range end past int64 gives the nodes of the same float end
        blobs = []
        for end in (10**20, 1e20):
            run_dir = tmp_path / repr(end)
            run_dir.mkdir()
            code, out = run(run_dir, "sweep",
                            {"sweep": {"omega_range": [1, end, 13]}})
            assert code == 0
            blobs.append((out / "sweep.csv").read_bytes().split(b"\n", 1))
        assert blobs[0][0] != blobs[1][0]    # the config hashes differ
        assert blobs[0][1] == blobs[1][1]

    def test_ed_lapack_failure_exits_3(self, tmp_path, caplog, monkeypatch):
        # the Lanczos Ritz check's LAPACK call reports a failure (info != 0)
        import scipy.linalg.lapack
        real = scipy.linalg.lapack.dstein
        monkeypatch.setattr(scipy.linalg.lapack, "dstein",
                            lambda *args: (real(*args)[0], 2))
        with caplog.at_level(logging.INFO, logger="polariton_phases"):
            code, _ = run(tmp_path, "ed", {"ed": {"sizes": [8],
                                                  "ratios": [3.3]}})
        assert code == 3
        errors = [r.message for r in caplog.records
                  if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert errors[0].startswith("NoConvergence: ")
        assert "info = 2" in errors[0]

    def test_strong_coupling_ground_state_exits_0(self, tmp_path):
        # g = 1e3, far past g dt ~ 1 for any explicit time step: the
        # preconditioner takes it in a few iterations
        doc = {"nlse": {"v1_over_er": 1, "g_int": 1e3, "grid_points": 16,
                        "n_periods": 1, "steps": 5}}
        start = time.perf_counter()
        code, out = run(tmp_path, "nlse", doc)
        assert code == 0
        assert time.perf_counter() - start < 1.0
        sidecar = json.loads((out / "nlse_state.json").read_text())
        assert 0 < sidecar["ground_iterations"] < 10

    def test_ground_state_telemetry(self, tmp_path, caplog):
        # the sidecar and the log carry the relaxation's effort and residual
        section = {"v1_over_er": 2.3, "g_int": 0.2, "grid_points": 64,
                   "n_periods": 8, "steps": 10}
        with caplog.at_level(logging.INFO, logger="polariton_phases"):
            code, out = run(tmp_path, "nlse", {"nlse": section})
        assert code == 0
        sidecar = json.loads((out / "nlse_state.json").read_text())
        iterations = sidecar["ground_iterations"]
        residual = sidecar["ground_residual"]
        params = nlse.NlseParams(v1_over_er=2.3, g_int=0.2, n_periods=8,
                                 grid_points=64)
        gs = nlse.ground_state(params)
        assert (iterations, residual) == (gs.iterations, gs.residual)
        check_ground_residual(gs, params)
        assert (f"ground state in {iterations} iterations, residual "
                f"{residual:.3g}") in caplog.text

    @pytest.mark.parametrize("sub", ["map", "sweep", "phase", "crossing",
                                     "nlse"])
    def test_one_modulation_warning_per_run(self, tmp_path, sub):
        # the config checks itself once, when it is loaded
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _ = run(tmp_path, sub, {"optics": {"n1_fraction": 0.6},
                                          "nlse": SMALL_CONFIG["nlse"]})
        assert code == 0
        assert [w.category for w in caught] == [ModulationWarning]

    def test_plot_script_emission(self, tmp_path):
        cfg = dict(SMALL_CONFIG)
        cfg["output"] = {"emit_plot_script": True}
        code, out = run(tmp_path, "sweep", cfg)
        assert code == 0
        assert "sweep.csv" in (out / "plot_sweep.gp").read_text()
        code, out = run(tmp_path, "crossing", {
            "sweep": {"omega_range": [0.9, 1.2, 10]},
            "output": {"emit_plot_script": True}})
        assert code == 0
        assert (out / "plot_crossing.gp").read_bytes() == (
            b"set datafile separator ','\n"
            b"set xlabel 'Omega/Gamma'\nset logscale y\n"
            b"plot 'crossing.csv' every ::1 using 1:2 with lines title "
            b"'J/E_R', '' every ::1 using 1:3 with lines title 'U/E_R'\n")

    @pytest.mark.parametrize("sub", ["map", "sweep", "phase", "crossing",
                                     "nlse", "ed"])
    def test_config_hashed_once(self, tmp_path, sub, monkeypatch):
        calls = []
        config_hash = RunConfig.hash
        monkeypatch.setattr(RunConfig, "hash",
                            lambda cfg: calls.append(1) or config_hash(cfg))
        doc = dict(SMALL_CONFIG)
        if sub == "crossing":
            doc = {"sweep": {"omega_range": [0.9, 1.2, 10]}}
        assert run(tmp_path, sub, doc)[0] == 0
        assert len(calls) == 1


def _csv_bytes(path, header, columns, block_rows=None, monkeypatch=None):
    if block_rows is not None:
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    cli._write_csv(path, header, columns, "0" * 64)
    return path.read_bytes()


# Values that repeat within a column: signed zeros, NaNs with other payloads
# and signs, infinities, 1e-300 and its float neighbours, as float64 bit
# patterns so no payload is lost on the way
_POOL_BITS = [
    *np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-300,
               np.nextafter(1e-300, 0), np.nextafter(1e-300, 1), 5e-324,
               0.1]).view(np.int64).tolist(),
    0x7FF8000000000001, 0x7FF0000000000001, -0x0007FFFFFFFFFFFF,
]
_LABELS = ["", "SF", "MOTT_BH", "POLE", "bh_valid;k_formula_valid"]


@st.composite
def _csv_tables(draw):
    """1-6 columns of one length: pooled (repeating), cycled and distinct
    floats, ints, and text as numpy "U" and as object arrays."""
    rows = draw(st.integers(0, 40))
    column = lambda elements: st.lists(elements, min_size=rows,
                                       max_size=rows)
    kinds = {
        "pooled": column(st.sampled_from(_POOL_BITS)).map(
            lambda bits: np.array(bits, dtype=np.int64).view(np.float64)),
        "distinct": st.lists(st.floats(), min_size=rows, max_size=rows,
                             unique=True).map(np.array),
        # up to 7 floats repeated in turn: a block of up to 7 rows may hold
        # more than half distinct values, a column of 14 rows or more
        # holds at most half
        "cycled": st.lists(st.floats(), min_size=1, max_size=7,
                           unique=True).map(
            lambda v: np.resize(np.array(v, dtype=np.float64), rows)),
        "int": column(st.integers(-2**62, 2**62)).map(
            lambda v: np.array(v, dtype=np.int64)),
        "U": column(st.sampled_from(_LABELS)).map(
            lambda v: np.array(v, dtype=str)),
        "object": column(st.sampled_from(_LABELS)).map(
            lambda v: np.array(v, dtype=object)),
    }
    names = draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1,
                          max_size=6))
    return [draw(kinds[k]) for k in names]


class TestCsvWriter:
    """Frozen bytes of the one CSV writer, as the earlier per-table writers
    formatted them: "%.17g" for numbers, "%s" for text."""

    HASH_LINE = b"# config_hash=" + b"0" * 64 + b"\n"

    def test_frozen_bytes(self, tmp_path):
        columns = [
            np.array([0.1, np.nan, -0.0, 1e-300, np.inf, 2.5]),
            np.array([0, 1, -7, 2**53 + 1, 4, 5]),
            np.array(["SF", "", "MOTT_BH", "", "INDETERMINATE", ""]),
            np.array(["bh_valid", "POLE", "", "DOMAIN",
                      "k_formula_valid;sign_warning", "POLE"], dtype=object),
        ]
        got = _csv_bytes(tmp_path / "t.csv", ["x", "n", "phase", "flags"],
                         columns)
        assert got == self.HASH_LINE + (
            b"x,n,phase,flags\n"
            b"0.10000000000000001,0,SF,bh_valid\n"
            b"nan,1,,POLE\n"
            b"-0,-7,MOTT_BH,\n"
            b"1e-300,9007199254740992,,DOMAIN\n"
            b"inf,4,INDETERMINATE,k_formula_valid;sign_warning\n"
            b"2.5,5,,POLE\n")

    def test_int_lists(self, tmp_path):
        # ed collects Python ints and floats per column
        got = _csv_bytes(tmp_path / "t.csv", ["L", "u_over_j"],
                         [[4, 6], [1, 2.5]])
        assert got == self.HASH_LINE + b"L,u_over_j\n4,1\n6,2.5\n"

    def test_zero_rows(self, tmp_path):
        got = _csv_bytes(tmp_path / "t.csv", ["a", "b"], [[], []])
        assert got == self.HASH_LINE + b"a,b\n"
        code, out = run(tmp_path, "ed", {"ed": {"sizes": []}})
        assert code == 0
        assert (out / "ed.csv").read_bytes() == (
            b"# config_hash=41847a261c582cd21cdc0c0865a8090b3f323322236e4210"
            b"e93e4b7a9e58b2fc\n"
            b"L,N,n_max,u_over_j,e0_over_j,gap_over_j,var_n\n")

    # 2500 rows: more than one block, the last one partial, at the default
    # block size and at each of these
    @pytest.mark.parametrize("block_rows", [None, 1, 7, 1000, 2499, 2500,
                                            2501])
    def test_block_edges(self, tmp_path, monkeypatch, block_rows):
        i = np.arange(2500)
        y = np.sqrt(i) * -1e-3
        y[::97] = np.nan
        phases = np.array(["SF", "MOTT_SG", "MOTT_BH", "INDETERMINATE", ""],
                          dtype=object)
        flags = np.array(["", "sg_valid", "bh_valid;k_formula_valid", "POLE",
                          "DOMAIN"], dtype=object)
        got = _csv_bytes(tmp_path / "t.csv", ["x", "y", "i", "phase", "flags"],
                         [i / 7.0, y, i, phases[i % 5], flags[i % 3 + i % 2]],
                         block_rows, monkeypatch)
        if block_rows is None:
            assert cli._BLOCK_ROWS < 2500
        assert got.count(b"\n") == 2502
        assert hashlib.sha256(got).hexdigest() == (
            "a6082801d1ca47e0caaeebcedde77f6f92f60cb9dc9248cbafd9ffe1fe51b1b7")


    @pytest.mark.parametrize("block_rows", [1, 7, None])
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(columns=_csv_tables())
    def test_matches_per_row_format(self, tmp_path_factory, block_rows,
                                    columns):
        header = [f"c{i}" for i in range(len(columns))]
        # the writer before repeated values were formatted once per block
        row_format = ",".join("%s" if c.dtype.kind in "OU" else "%.17g"
                              for c in columns) + "\n"
        want = "".join(row_format % row
                       for row in zip(*(c.tolist() for c in columns)))
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        with pytest.MonkeyPatch.context() as mp:
            if block_rows is not None:
                mp.setattr(cli, "_BLOCK_ROWS", block_rows)
            got = _csv_bytes(path, header, columns)
        assert got == self.HASH_LINE + (",".join(header) + "\n"
                                        + want).encode()

    # DOMAIN at Delta_p = 0, POLE at Omega on the Lambda pole: the fields of
    # Omega alone hold NaN there and still repeat enough to be formatted
    # once per distinct value
    @pytest.mark.parametrize("block_rows", [None, 14])
    def test_grid_with_bad_nodes(self, tmp_path, monkeypatch, block_rows):
        doc = {"sweep": {"delta_p_range": [0.0, 50.0, 6],
                         "omega_range": [math.sqrt(0.025), 1.2, 7]}}
        cfg = load_config(write_config(tmp_path, doc, "grid.json"))
        nodes = sweep.evaluate_grid(cli._grid_spec(cfg))
        columns = [getattr(nodes, f).ravel() for f in cli.GRID_FIELDS.values()]
        phase, flags = nodes.labels()
        assert {"POLE", "DOMAIN"} <= set(flags.tolist())
        v1 = nodes.v1_over_er.ravel()
        assert np.isnan(v1).any()
        assert 2 * len(set(v1.view(np.int64).tolist())) <= v1.size
        if block_rows is not None:
            monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
        code, out = run(tmp_path, "sweep", doc)
        assert code == 0
        rows = zip(*(c.tolist() for c in columns), phase, flags)
        want = (f"# config_hash={cfg.hash()}\n"
                + ",".join([*cli.GRID_FIELDS, "phase", "flags"]) + "\n"
                + "".join(",".join(["%.17g"] * 11 + ["%s", "%s"]) % row
                          + "\n" for row in rows))
        assert (out / "sweep.csv").read_text() == want


class TestDeterminism:
    @pytest.mark.parametrize("sub", ["map", "sweep", "phase", "crossing",
                                     "nlse", "ed"])
    def test_rerun_byte_identical(self, tmp_path, sub):
        doc = dict(SMALL_CONFIG)
        if sub == "crossing":
            doc = {"sweep": {"omega_range": [0.9, 1.2, 10]}}
        cfg_path = write_config(tmp_path, doc)
        snapshots = []
        for rep in ("a", "b"):
            out = tmp_path / rep
            assert main([sub, "--config", str(cfg_path),
                         "--out", str(out)]) == 0
            snapshots.append({
                p.name: p.read_bytes() for p in sorted(out.iterdir())
            })
        assert snapshots[0] == snapshots[1]

    def test_ed_lanczos_rerun_byte_identical(self, tmp_path):
        # L = 8 bases are solved by Lanczos; a fixed start vector keeps
        # every digit of ed.csv the same from run to run
        cfg_path = write_config(tmp_path, {
            "ed": {"sizes": [8], "ratios": [2.0, 3.5], "n_max": 4}})
        blobs = []
        for rep in ("a", "b"):
            out = tmp_path / rep
            assert main(["ed", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
            blobs.append((out / "ed.csv").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("doc, digest", [
        # ring, L = 8: every sector on the Lanczos path
        ({"sizes": [8], "ratios": [1, 2, 3, 3.3, 4, 5, 6, 7, 8]},
         "06ea814f9c3360f73c1f96f9db79126e8e43a4ecc447db363f60c6c51f511c49"),
        # open chain, L = 7: dense N - 1 sector, Lanczos N and N + 1
        ({"sizes": [7], "ratios": [1, 2, 3, 3.3, 4, 5, 6, 7, 8],
          "periodic": False},
         "b2091e58f1bc555e5714dedf1066889bfd04e6695edbaf6194affcc2fb8bb449"),
    ], ids=["ring-L8", "open-L7"])
    def test_ed_csv_matches_frozen_hash(self, tmp_path, doc, digest):
        code, out = run(tmp_path, "ed", {"ed": doc})
        assert code == 0
        got = hashlib.sha256((out / "ed.csv").read_bytes()).hexdigest()
        assert got == digest

    @pytest.mark.parametrize("periodic", [True, False])
    def test_ed_hops_enumerated_once_per_basis(self, tmp_path, monkeypatch,
                                               periodic):
        # over 8 ratios, each size builds its three bases once and each
        # basis enumerates its H tables once; ed.csv holds no <b+_0 b_d>, so
        # CLI ed enumerates no correlator distance, while a library
        # `diagnostics` scan enumerates each once on the N basis: d <= L/2
        # on a ring, d < L on an open chain
        calls, built = [], []
        hops, build = bh_ed.FockBasis.hops, bh_ed.FockBasis.build

        def counted(basis, src, dst):
            calls.append((basis.sites, basis.bosons))
            return hops(basis, src, dst)

        def counted_build(cls, sites, bosons, *args):
            built.append((sites, bosons))
            return build(sites, bosons, *args)

        monkeypatch.setattr(bh_ed.FockBasis, "hops", counted)
        monkeypatch.setattr(bh_ed.FockBasis, "build",
                            classmethod(counted_build))
        sizes, ratios = [4, 5], [1, 2, 3, 4, 5, 6, 7, 8]
        code, _ = run(tmp_path, "ed", {"ed": {
            "sizes": sizes, "ratios": ratios, "periodic": periodic}})
        assert code == 0
        tables = {(L, n): 1 for L in sizes for n in (L - 1, L, L + 1)}
        assert Counter(calls) == tables
        assert built == list(tables)

        calls.clear()
        for L in sizes:
            chain = bh_ed.UnitFilling.build(L, 4, periodic)
            for r in ratios:
                chain.diagnostics(r)
        distances = {L: L // 2 if periodic else L - 1 for L in sizes}
        assert Counter(calls) == {
            key: 1 + distances[key[0]] * (key[1] == key[0]) for key in tables}


def check_contract(tmp_path, sub, doc, out_flag=True):
    """Run `sub` on `doc` in process (as `run` does): exit 0, 2 or 3, one
    ERROR record on a failure and none on success, and a failed `phase`
    writes nothing.  Returns the exit code.

    The records are caught by a handler of this run alone: pytest's
    `caplog` is not reset between the examples of one hypothesis test.
    """
    errors = logging.handlers.BufferingHandler(capacity=1000)
    errors.setLevel(logging.ERROR)
    logger = logging.getLogger("polariton_phases")
    logger.addHandler(errors)
    try:
        code, out = run(tmp_path, sub, doc, out_flag)
    finally:
        logger.removeHandler(errors)
    assert code in (0, 2, 3)
    assert len(errors.buffer) == (code != 0), \
        [r.getMessage() for r in errors.buffer]
    if sub == "phase" and code:
        assert not out.exists() or not any(out.iterdir())
    return code


# An output directory that cannot be made: --out naming an existing file or
# holding a NUL byte (directory None: `run` passes --out, the `out` under
# `parent`, and no config), and output.directory under that file or holding
# a NUL byte
@pytest.mark.parametrize("parent, directory",
                         [("", None), ("sub\0dir", None), ("", "out/sub"),
                          ("", "sub\0dir")],
                         ids=["out-is-a-file", "out-with-nul",
                              "directory-under-a-file", "directory-with-nul"])
def test_unusable_output_directory_exits_2(tmp_path, monkeypatch, parent,
                                           directory):
    monkeypatch.chdir(tmp_path)          # output.directory is relative to it
    (tmp_path / "out").write_text("")    # the --out of `run`: a file
    if directory is None:
        assert check_contract(tmp_path / parent, "map", None) == 2
    else:
        assert check_contract(tmp_path, "map",
                              {"output": {"directory": directory}},
                              out_flag=False) == 2


# 1-3 optics fields set to any finite float; hypothesis draws subnormals,
# signed zeros and values near +-1e308 among them
_optics = st.dictionaries(
    st.sampled_from(sorted(default_config().resolved()["optics"])),
    st.floats(allow_nan=False, allow_infinity=False),
    min_size=1, max_size=3)


# Range ends: zero, signs, the subnormal and float extremes, and the Lambda
# (sqrt 0.025) and Xi (0.01) poles at the default optics.  Counts up to 17
# keep a grid small; 10^12 is over the node cap, so it must exit 2 before
# anything is allocated.
_range_end = st.sampled_from([0.0, 1.0, -1.0, 0.5, 3.0, 100.0, 5e-324,
                              1e308, -1e308, math.sqrt(0.025), 0.01])
_range = st.tuples(_range_end, _range_end,
                   st.sampled_from([2, 3, 17, 10**12])).map(list)
_sweep = st.just({"delta_p_range": [2.0, 100.0, 4],
                  "omega_range": [0.5, 3.0, 4]}) \
    | st.fixed_dictionaries({"delta_p_range": _range, "omega_range": _range})


# nlse and ed have their own contract test below, on small grids and
# chains: at their default sizes they cost seconds per example
@settings(derandomize=True, deadline=None, max_examples=400)
@given(sub=st.sampled_from(["map", "sweep", "phase", "crossing"]),
       optics=_optics, sweep_section=_sweep)
def test_cli_error_contract(tmp_path_factory, sub, optics, sweep_section):
    check_contract(tmp_path_factory.mktemp("contract"), sub,
                   {"optics": optics, "sweep": sweep_section})


def _one_bad_key(valid, bad):
    """A valid section, or one with a single key set to a (key, value) of
    `bad`: an invalid or extreme value."""
    return st.tuples(valid, st.none() | st.sampled_from(bad)).map(
        lambda drawn: drawn[0] if drawn[1] is None
        else {**drawn[0], drawn[1][0]: drawn[1][1]})


# Chains of L <= 6; sizes that fail before any basis is built (<= 0, codes
# past int64), n_max = 1 (N + 1 bosons do not fit) and U/J up to
# overflowing H
_ed_section = _one_bad_key(st.fixed_dictionaries({
    "sizes": st.lists(st.integers(1, 6), min_size=1, max_size=2),
    "n_max": st.integers(2, 4),
    "ratios": st.lists(st.floats(0.0, 10.0), min_size=1, max_size=3),
    "periodic": st.booleans(),
}), [("sizes", [0]), ("sizes", [-1]), ("sizes", [63]), ("sizes", [1500]),
     ("sizes", [4, 1500]), ("n_max", 0), ("n_max", 1), ("n_max", 10**6),
     ("ratios", [-1.0]), ("ratios", [1e20]), ("ratios", [2.0, 1e308])])
# None derives the coefficient from the optics section.  On these grids
# s and g up to 1e3 relax in at most ~210 iterations, a few ms.
_coefficient = st.sampled_from([None, 0.0, 0.1, 2.0, 1e3])
_schedule_row = st.tuples(st.sampled_from([0.0, 0.5, 1.0]),
                          st.sampled_from([0.0, 0.5, 2.0]),
                          st.sampled_from([0.0, 0.5, 2.0]),
                          st.sampled_from([0.0, 0.1])).map(list)
# Grids of 16-32 points and a few steps; invalid grids, steps, signs and
# schedules, and coefficients that overflow
_nlse_section = _one_bad_key(st.fixed_dictionaries({
    "grid_points": st.sampled_from([16, 32]),
    "n_periods": st.sampled_from([1, 2, 4]),
    "steps": st.integers(0, 5),
    "dt": st.sampled_from([1e-3, 1e-2]),
    "record_every": st.integers(1, 3),
    "v1_over_er": _coefficient,
    "g_int": _coefficient,
    "kappa_dimless": st.sampled_from([0.0, 0.1]),
    "schedule": st.lists(_schedule_row, max_size=3,
                         unique_by=lambda row: row[0]).map(sorted),
}), [("grid_points", 8), ("grid_points", 24), ("grid_points", 2**40),
     ("n_periods", 0), ("n_periods", 3), ("steps", -1), ("dt", 0.0),
     ("dt", -1e-3), ("dt", 1e308),
     ("v1_over_er", -1.0), ("v1_over_er", 1e308), ("g_int", -1.0),
     ("g_int", 1e308), ("kappa_dimless", -0.1), ("kappa_dimless", 1e308),
     ("schedule", [[1.0, 2.0, 0.1, 0.0], [0.0, 2.0, 0.1, 0.0]]),
     ("schedule", [[0.0, -1.0, 0.1, 0.0]]),
     ("schedule", [[0.0, 2.0, 1e308, 0.0], [1.0, 2.0, 0.1, 0.0]])])


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.one_of(st.tuples(st.just("ed"), _ed_section),
                 st.tuples(st.just("nlse"), _nlse_section)))
def test_solver_error_contract(tmp_path_factory, sub_section):
    sub, section = sub_section
    check_contract(tmp_path_factory.mktemp("contract"), sub, {sub: section})


# One small valid config; each case below replaces exactly one of its
# numbers (a scalar field, or one entry of a list field) with an edge value
_PERTURB_BASE = {
    "optics": {},
    "sweep": {"delta_p_range": [20.0, 100.0, 12],
              "omega_range": [0.8, 1.5, 12]},
    "ed": {"sizes": [4], "n_max": 3, "ratios": [3.3]},
    "nlse": {"grid_points": 64, "n_periods": 4, "steps": 50, "dt": 1e-3,
             "record_every": 10, "v1_over_er": None, "g_int": None,
             "schedule": [[0.0, 2.0, 0.1, 0.0]]},
}
_EDGE_VALUES = [0, -1, 0.5, 1e-300, 5e-324, 1e300, -1e300, -0.0, 2**63,
                10**30]
# the subcommands that read each section
_READERS = {"optics": ["map", "sweep", "phase", "crossing", "nlse"],
            "sweep": ["sweep", "phase", "crossing"],
            "nlse": ["nlse"], "ed": ["ed"]}
_PERTURBED = [
    *[("optics", key) for key in default_config().resolved()["optics"]],
    *[("sweep", key, i) for key in ("delta_p_range", "omega_range")
      for i in range(3)],
    *[("nlse", key) for key in ("grid_points", "n_periods", "steps", "dt",
                                "record_every", "v1_over_er", "g_int",
                                "kappa_dimless")],
    *[("nlse", "schedule", 0, i) for i in range(4)],
    ("ed", "sizes", 0), ("ed", "n_max"), ("ed", "ratios", 0),
]


@pytest.mark.parametrize("path", _PERTURBED,
                         ids=lambda path: ".".join(map(str, path)))
def test_one_field_perturbed_contract(tmp_path, path):
    # a run of 2^63 steps (or records that far apart) is valid and never
    # ends, so those two counts stay small
    values = [v for v in _EDGE_VALUES
              if path[1] not in ("steps", "record_every") or abs(v) <= 1e4]
    for k, value in enumerate(values):
        doc = json.loads(json.dumps(_PERTURB_BASE))
        *parents, last = path
        leaf = doc
        for key in parents:
            leaf = leaf[key]
        leaf[last] = value
        for sub in _READERS[path[0]]:
            run_dir = tmp_path / f"{k}-{sub}"
            run_dir.mkdir()
            check_contract(run_dir, sub, doc)


def _loaded_by(code: str, package: str, cwd=None) -> list[str]:
    """The modules of `package` (itself and its submodules) a fresh
    interpreter holds after running `code` with this tree on its path."""
    src = Path(polariton_phases.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = (f"{code}\nimport sys\n"
             "print(' '.join(sorted(m for m in sys.modules "
             f"if (m + '.').startswith({package + '.'!r}))))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=cwd,
                         capture_output=True, text=True, check=True)
    return out.stdout.split()


def _loaded_after(module: str, package: str) -> list[str]:
    """The `package` modules a fresh interpreter holds after importing
    `module` from this tree."""
    return _loaded_by(f"import {module}", package)


def _loaded_by_run(tmp_path, sub: str, doc: dict, package: str = "scipy",
                   status: int = 0) -> list[str]:
    """The `package` modules a fresh interpreter holds after CLI `sub` ran
    on `doc` and exited with `status`."""
    config = write_config(tmp_path, doc)
    code = ("from polariton_phases import cli\n"
            f"assert cli.main([{sub!r}, '--config', {str(config)!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]) == {status}")
    return _loaded_by(code, package, cwd=tmp_path)


def test_cli_import_leaves_scipy_out():
    # scipy costs ~0.3 s to import; only the ED solves use it
    assert _loaded_after("polariton_phases.cli", "scipy") == []


def test_bh_ed_import_leaves_scipy_out():
    # bh_ed imports scipy inside the solves that use it; its annotations
    # name scipy.sparse through TYPE_CHECKING only
    assert _loaded_after("polariton_phases.bh_ed", "scipy") == []


def test_cli_import_and_config_load_leave_numpy_out(tmp_path):
    # numpy costs ~0.1 s to import; only the CSV writer and the solvers
    # other than the scalar chain use it
    config = write_config(tmp_path, SMALL_CONFIG)
    code = ("from polariton_phases import cli\n"
            f"cli.load_config({str(config)!r})")
    assert _loaded_by(code, "numpy") == []


def test_map_leaves_numpy_out(tmp_path):
    # map runs the scalar chain and writes JSON
    assert _loaded_by_run(tmp_path, "map", SMALL_CONFIG, "numpy") == []


@pytest.mark.parametrize("sub", list(cli.COMMANDS))
def test_rejected_config_leaves_numpy_out(tmp_path, sub):
    # a config the check refuses exits 2 before any solver is imported
    doc = {**SMALL_CONFIG, "optics": {"n1_fraction": 1.5}}
    assert _loaded_by_run(tmp_path, sub, doc, "numpy", status=2) == []


def test_rejected_out_leaves_numpy_out(tmp_path):
    # --out naming a regular file: exit 2 before any solver is imported
    (tmp_path / "out").write_text("")
    assert _loaded_by_run(tmp_path, "sweep", SMALL_CONFIG, "numpy",
                          status=2) == []


# numpy 1.x imports numpy.fft with numpy itself; numpy >= 2.0 loads it on
# first attribute access, so only there can nlse keep it out
_LAZY_NUMPY_FFT = pytest.mark.skipif(
    np.lib.NumpyVersion(np.__version__) < "2.0.0",
    reason="numpy 1.x imports numpy.fft with numpy")


@_LAZY_NUMPY_FFT
def test_cli_import_and_config_load_leave_numpy_fft_out(tmp_path):
    # numpy.fft costs ~2 ms to import; nlse loads it on first use
    config = write_config(tmp_path, SMALL_CONFIG)
    code = ("from polariton_phases import cli\n"
            f"cli.load_config({str(config)!r})")
    assert _loaded_by(code, "numpy.fft") == []


@_LAZY_NUMPY_FFT
@pytest.mark.parametrize("sub", ["map", "sweep", "phase", "crossing"])
def test_subcommand_leaves_numpy_fft_out(tmp_path, sub):
    # ed imports scipy, which loads numpy.fft itself
    assert _loaded_by_run(tmp_path, sub, SMALL_CONFIG, "numpy.fft") == []


def test_config_load_leaves_scipy_out(tmp_path):
    # the start every subcommand pays
    config = write_config(tmp_path, SMALL_CONFIG)
    code = ("from polariton_phases import cli\n"
            f"cli.load_config({str(config)!r})")
    assert _loaded_by(code, "scipy") == []


# the package modules every subcommand needs; a config holds an
# OpticalConfig
_START_MODULES = {"polariton_phases", "polariton_phases.cli",
                  "polariton_phases.config", "polariton_phases.errors",
                  "polariton_phases.optics"}


def test_config_load_leaves_solver_modules_out(tmp_path):
    # each fresh CLI process compiles and runs only the solvers it calls
    config = write_config(tmp_path, SMALL_CONFIG)
    code = ("from polariton_phases import cli\n"
            f"cli.load_config({str(config)!r})")
    assert set(_loaded_by(code, "polariton_phases")) == _START_MODULES


# subcommand -> the package modules it adds to the start
_SOLVER_MODULES = {"map": {"many_body"}, "sweep": {"sweep", "many_body"},
                   "phase": {"sweep", "many_body"},
                   "crossing": {"sweep", "many_body"}, "nlse": {"nlse"},
                   "ed": {"bh_ed"}}


@pytest.mark.parametrize("sub", list(_SOLVER_MODULES))
def test_subcommand_loads_only_its_solvers(tmp_path, sub):
    loaded = _loaded_by_run(tmp_path, sub, SMALL_CONFIG, "polariton_phases")
    assert set(loaded) == _START_MODULES | {
        f"polariton_phases.{m}" for m in _SOLVER_MODULES[sub]}


@pytest.mark.parametrize("sub", ["map", "sweep", "phase", "crossing",
                                 "nlse"])
def test_subcommand_leaves_scipy_out(tmp_path, sub):
    # only the ED solves import scipy; the root finders run Brent's method
    # in sweep
    assert _loaded_by_run(tmp_path, sub, SMALL_CONFIG) == []


def test_dense_ed_leaves_scipy_sparse_out(tmp_path):
    # every sector of L = 4 and 6 is solved densely through LAPACK: no
    # scipy.sparse module beyond those scipy.linalg itself imports
    own = set(_loaded_by("import scipy.linalg", "scipy"))
    loaded = _loaded_by_run(tmp_path, "ed", {"ed": {"sizes": [4, 6]}})
    assert "scipy.linalg" in loaded
    assert [m for m in loaded if m.startswith("scipy.sparse")
            and m not in own] == []


@pytest.mark.parametrize("module", ["polariton_phases.optics",
                                    "polariton_phases.many_body"])
def test_scalar_chain_import_leaves_numpy_out(module):
    # the package root imports no submodule, so the scalar closed forms
    # load no numpy
    assert _loaded_after(module, "numpy") == []
