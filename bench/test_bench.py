"""Self-check of the benchmark's tracer, input generator and output checks.

    python3 -m pytest -q bench/test_bench.py

Kept out of the package's test paths; it runs in a few seconds.
"""

import json
import math
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from polariton_phases import bh_ed, nlse, optics, sweep  # noqa: E402


class FakeClock:
    """Each reading advances time by one second."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_of_nested_spans():
    tracer = Tracer(clock=FakeClock())
    inner = tracer.wrap("inner", lambda: None)
    leaf = tracer.wrap("leaf", lambda: None, record=False, within=("outer",))

    def body():
        inner()
        inner()
        leaf()

    outer = tracer.wrap("outer", body)
    outer()
    leaf()
    # outer opens at 1; each child takes 1 s between readings 2..7; closes at 8
    assert tracer.stat("outer").total == 7.0
    assert tracer.stat("inner").calls == 2
    assert tracer.stat("inner").self_time == 2.0
    assert tracer.stat("outer").self_time == 7.0 - 3.0
    assert tracer.stat("leaf").calls == 2
    assert tracer.within_stat("leaf", "outer").calls == 1
    spans = tracer.spans
    assert [s[1] for s in spans] == ["outer", "inner", "inner"]
    assert spans[0][4] is None and spans[1][4] == spans[2][4] == 0
    assert all(s[3] > s[2] for s in spans)


def test_errors_are_counted_and_reraised():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap("boom", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.stat("boom").errors == 1
    assert not tracer._stack


def test_patch_and_uninstall_restore_attributes():
    mod = types.SimpleNamespace()
    mod.f = lambda x: x + 1

    class Box:
        @classmethod
        def build(cls, x):
            return (cls, x)

    original = mod.f
    tracer = Tracer()
    tracer.patch(mod, "f", "mod.f")
    tracer.patch(Box, "build", "Box.build", classmethod_=True)
    tracer.patch(mod, "missing", "mod.missing")
    assert mod.f(1) == 2 and Box.build(3) == (Box, 3)
    assert tracer.stat("mod.f").calls == 1
    assert tracer.stat("Box.build").calls == 1
    tracer.uninstall()
    assert mod.f is original and not hasattr(mod, "missing")
    assert Box.build(4) == (Box, 4) and tracer.stat("Box.build").calls == 1


def test_corrected_uses_the_kernel_part_of_the_style():
    slow = {"mixed": 2 * run.KERNEL_REF_S["mixed"],
            "dense": run.KERNEL_REF_S["dense"]}
    fast = dict(run.KERNEL_REF_S)
    assert run.corrected(3.0, slow, slow) == pytest.approx(1.5)
    assert run.corrected(3.0, slow, fast) == pytest.approx(2.0)
    assert run.corrected(3.0, slow, slow, "dense") == pytest.approx(3.0)


def test_batch_runs_every_call_and_reports_the_first_failure():
    b = workloads._OpList(None, Path("."), None)
    b.library("pinning_s", lambda: 1, lambda res: "")
    b.library("pinning_s", lambda: 2, lambda res: f"bad {res}")
    b.batch(2)
    (op,) = b.ops
    assert op.calls == 2 and op.metric == "pinning_s"
    assert op.run() == [1, 2] and op.check([1, 2]) == "bad 2"
    exits = workloads.Op("crossing_s", lambda: [0, 3], lambda res: "")
    b.ops = [exits, exits]
    b.batch(2)
    assert b.ops[0].check([0, 3]) == "exit 3, expected 0"


def test_draw_is_seeded_and_inside_the_root_windows():
    a, b = workloads.draw(7), workloads.draw(7)
    assert a == b and a != workloads.draw(8)
    for seed in range(20):
        inp = workloads.draw(seed)
        assert all(5.0 <= dp <= 100.0 for dp in inp.mott_cuts)
        assert all(5.25 < dp < 10.1 for dp in inp.pinning_cuts)
        assert 2.1 <= inp.nlse_depth <= 2.5


def test_every_focus_names_end_to_end_metrics():
    ops_metrics = {"sweep", "phase", "crossing", "pinning", "ed_small",
                   "ed_large", "critical_ratio", "nlse_relax", "nlse_evolve"}
    for focus in workloads.FOCUS.values():
        assert focus <= ops_metrics
    assert set().union(*workloads.FOCUS.values()) == ops_metrics


def test_grid_reference_matches_package():
    opt = workloads.OPTICS
    spec = sweep.GridSpec((2.4, 100.4, 24), (0.53, 3.03, 24),
                          optics.OpticalConfig(**opt))
    want = ref.phase_reference(opt, spec.delta_p_values(),
                               spec.omega_values())
    got = Counter(r.point.phase.value for r in sweep.sweep_grid(spec))
    assert dict(got) == want["labels"]
    lines = Counter(b.model for b in sweep.phase_boundaries(spec))
    assert dict(lines) == {m: n for m, n in want["polylines"].items() if n}


def test_contour_count_separates_and_joins():
    x = np.linspace(-1, 1, 21)
    f = (x[:, None] ** 2 + x[None, :] ** 2) - 0.25   # one closed circle
    assert ref.contour_count(f) == 1
    g = np.abs(x)[:, None] + 0 * x[None, :] - 0.5     # two vertical lines
    assert ref.contour_count(g) == 2
    g[:, 10] = np.nan
    assert ref.contour_count(g) == 4


def test_root_references_match_package():
    opt, base = workloads.OPTICS, optics.OpticalConfig(**workloads.OPTICS)
    for dp in (5.0, 42.0):
        root = sweep.find_mott_crossing(base, dp, workloads.BRACKET)
        assert ref.check_root(root, ref.mott_root(opt, dp,
                                                  workloads.BRACKET)) == ""
    root = sweep.find_pinning_crossing(base, 8.0, workloads.BRACKET)[0]
    want = ref.pinning_root(opt, 8.0, workloads.BRACKET)
    assert ref.check_root(root, want) == ""
    assert ref.check_root(root + 10 * ref.ROOT_TOL, want) != ""


def test_ed_reference_matches_package():
    ed = ref.EdReference()
    res = bh_ed.diagnostics(4, 4, 3.3)
    e0, gap, var_n = ed.point(4, 4, 3.3)
    assert abs(res.e0 - e0) < ref.ED_TOL
    assert abs(res.gap - gap) < ref.ED_TOL
    assert abs(res.var_n - var_n) < ref.ED_TOL
    ratios = [1.2, 2.5, 3.8, 5.1, 6.4]
    est = bh_ed.estimate_critical_ratio([3, 4], ratios)
    want = ed.critical_mean([3, 4], ratios, 4)
    assert ref.check_critical(est.mean, want) == ""
    assert ref.check_critical(est.mean + 1e-3, want) != ""


def test_nlse_reference_matches_package():
    params = nlse.NlseParams(v1_over_er=2.5, g_int=0.6, grid_points=64)
    state = nlse.ground_state(params)
    want = ref.nlse_ground_energy(2.5, 0.6, 64, 8)
    assert abs(nlse.energy_of(state.psi, params) - want) \
        < ref.ENERGY_RTOL * max(1.0, abs(want))


def _write_csv(path, header, rows):
    lines = ["# config_hash=0", ",".join(header)]
    lines += [",".join(str(x) for x in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def test_checks_reject_wrong_outputs(tmp_path):
    grid = {"labels": {"SF": 2, "MOTT_BH": 1}, "polylines": {"BH": 1,
                                                            "SG": 0}}
    csv_path = tmp_path / "grid.csv"
    _write_csv(csv_path, ["delta_p", "phase"],
               [[1, "SF"], [2, "SF"], [3, "MOTT_BH"]])
    assert ref.check_grid(csv_path, grid, 3) == ""
    assert ref.check_grid(csv_path, grid, 4) != ""
    _write_csv(csv_path, ["delta_p", "phase"],
               [[1, "SF"], [2, "MOTT_BH"], [3, "MOTT_BH"]])
    assert ref.check_grid(csv_path, grid, 3) != ""

    bounds = tmp_path / "b.json"
    bounds.write_text(json.dumps({"boundaries": [{"model": "BH"}]}))
    assert ref.check_boundaries(bounds, grid) == ""
    bounds.write_text(json.dumps({"boundaries": [{"model": "BH"}] * 2}))
    assert ref.check_boundaries(bounds, grid) != ""

    root = tmp_path / "root.json"
    root.write_text(json.dumps({"u_over_j": 3.85, "omega_over_gamma": 1.0}))
    assert ref.check_mott_root(root, 1.0) == ""
    assert ref.check_mott_root(root, 1.0 + 1e-5) != ""
    root.write_text(json.dumps({"u_over_j": 3.86, "omega_over_gamma": 1.0}))
    assert ref.check_mott_root(root, 1.0) != ""

    traj = tmp_path / "traj.csv"
    header = ["tau", "norm", "energy", "contrast"]
    _write_csv(traj, header, [[0, 1.0, 2.0, 0.1], [1, 1.0, 2.0, 0.1]])
    assert ref.check_nlse(traj, 2.0) == ""
    assert ref.check_nlse(traj, 2.0 + 1e-5) != ""
    _write_csv(traj, header, [[0, 1.0, 2.0, 0.1], [1, 1.0 + 1e-6, 2.0, 0]])
    assert ref.check_nlse(traj, 2.0) != ""

    ed = ref.EdReference()
    e0, gap, var_n = ed.point(3, 4, 2.0)
    ed_csv = tmp_path / "ed.csv"
    ed_header = ["L", "N", "n_max", "u_over_j", "e0_over_j", "gap_over_j",
                 "var_n"]
    _write_csv(ed_csv, ed_header, [[3, 3, 4, 2.0, repr(e0), repr(gap),
                                    repr(var_n)]])
    assert ref.check_ed(ed_csv, ed, [(3, 4, 2.0)]) == ""
    _write_csv(ed_csv, ed_header, [[3, 3, 4, 2.0, repr(e0 + 1e-6), repr(gap),
                                    repr(var_n)]])
    assert ref.check_ed(ed_csv, ed, [(3, 4, 2.0)]) != ""
    assert not math.isnan(e0)
