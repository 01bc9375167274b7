"""Command-line surface: config ingestion, subcommand dispatch, file emission.

Subcommands: map, sweep, phase, crossing, nlse, ed.  All outputs land in the
configured output directory; every file carries the sha256 hash of the fully
resolved config so identical configs reproduce identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import bh_ed, many_body, nlse, optics, sweep as sweep_mod
from .config import RunConfig, default_config, load_config
from .errors import (
    BlowUp,
    NoConvergence,
    NonFinite,
    PolaritonError,
)

log = logging.getLogger("polariton_phases")

CONVERGENCE_ERRORS = (NoConvergence, BlowUp, NonFinite)


def _write_lines(path: Path, header: list[str], lines, cfg_hash: str) -> None:
    text = "\n".join([f"# config_hash={cfg_hash}", ",".join(header), *lines])
    path.write_text(text + "\n", newline="\n")


def _write_csv(path: Path, header: list[str], rows: list[list],
               cfg_hash: str) -> None:
    """One "%.17g" field per column: ints as written, floats round-trip."""
    row_format = ",".join(["%.17g"] * len(header))
    _write_lines(path, header, (row_format % tuple(row) for row in rows),
                 cfg_hash)


def _write_json(path: Path, payload: dict, cfg_hash: str) -> None:
    payload = {"config_hash": cfg_hash, **payload}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    newline="\n")


SWEEP_HEADER = [
    "delta_p_over_gamma", "omega_over_gamma", "gamma_signed", "gamma_abs",
    "v1_over_er", "k_luttinger", "j_over_er", "u_over_er", "u_over_j",
    "v_g_m_per_s", "kappa_per_s", "phase", "flags",
]
# One SWEEP_HEADER row, the floats as _write_csv writes them.
SWEEP_ROW = ",".join(["%.17g"] * 11 + ["%s", "%s"])


def _write_grid(path: Path, nodes: sweep_mod.NodeFields,
                cfg_hash: str) -> None:
    """One SWEEP_HEADER row per node, row-major in (Delta_p, Omega).

    A POLE or DOMAIN node has NaN fields, an empty phase and its status
    in the flags column.
    """
    columns = [np.ravel(a).tolist() for a in (
        nodes.delta_p, nodes.omega, nodes.gamma_signed, nodes.gamma_abs,
        nodes.v1_over_er, nodes.k_luttinger, nodes.j_over_er,
        nodes.u_over_er, nodes.u_over_j, nodes.v_g, nodes.kappa)]
    rows = zip(*columns, *nodes.labels())
    _write_lines(path, SWEEP_HEADER, [SWEEP_ROW % row for row in rows],
                 cfg_hash)


def _grid_spec(cfg: RunConfig) -> sweep_mod.GridSpec:
    return sweep_mod.GridSpec(
        delta_p_range=tuple(cfg.sweep["delta_p_range"]),
        omega_range=tuple(cfg.sweep["omega_range"]),
        base=cfg.optics,
    )


def cmd_map(cfg: RunConfig, out: Path) -> None:
    optics.validate_config(cfg.optics)
    params = optics.effective_params(cfg.optics)
    gam = optics.lieb_liniger_gamma(cfg.optics)
    depth = optics.lattice_depth_ratio(cfg.optics)
    point = many_body.make_point(gam.magnitude, depth,
                                 sign_warning=gam.negative)
    _write_json(out / "map.json", {
        "effective_params": params.to_dict(),
        "gamma_signed": gam.signed,
        "many_body_point": point.to_dict(),
    }, cfg.hash())


def cmd_sweep(cfg: RunConfig, out: Path) -> None:
    nodes = sweep_mod.evaluate_grid(_grid_spec(cfg))
    _write_grid(out / "sweep.csv", nodes, cfg.hash())
    if cfg.output["emit_plot_script"]:
        _emit_plot_script(out, "sweep")


def cmd_phase(cfg: RunConfig, out: Path) -> None:
    spec = _grid_spec(cfg)
    nodes = sweep_mod.evaluate_grid(spec)
    _write_grid(out / "phase_grid.csv", nodes, cfg.hash())
    boundaries = sweep_mod.phase_boundaries(spec, nodes)
    _write_json(out / "phase_boundaries.json", {
        "boundaries": [
            {"model": b.model, "vertices": [[x, y] for x, y in b.vertices]}
            for b in boundaries
        ],
    }, cfg.hash())


def cmd_crossing(cfg: RunConfig, out: Path) -> None:
    lo, hi, count = cfg.sweep["omega_range"]
    base = cfg.optics
    table = sweep_mod.evaluate(base, base.delta_p, np.linspace(lo, hi, count))
    rows = zip(*(a.tolist() for a in (table.omega, table.j_over_er,
                                       table.u_over_er, table.u_over_j)))
    root = sweep_mod.find_mott_crossing(base, base.delta_p, (lo, hi))
    uj_root = float(sweep_mod.evaluate(base, base.delta_p, root).u_over_j)
    _write_csv(out / "crossing.csv",
               ["omega_over_gamma", "j_over_er", "u_over_er", "u_over_j"],
               rows, cfg.hash())
    _write_json(out / "crossing_root.json", {
        "delta_p_over_gamma": base.delta_p,
        "omega_over_gamma": root,
        "u_over_j": uj_root,
    }, cfg.hash())
    if cfg.output["emit_plot_script"]:
        _emit_plot_script(out, "crossing")


def cmd_nlse(cfg: RunConfig, out: Path) -> None:
    nl = dict(cfg.nlse)
    if nl["v1_over_er"] is None or nl["g_int"] is None:
        optics.validate_config(cfg.optics)
    if nl["v1_over_er"] is None:
        nl["v1_over_er"] = optics.lattice_depth_ratio(cfg.optics)
    if nl["g_int"] is None:
        nl["g_int"] = nlse.interaction_strength(
            optics.lieb_liniger_gamma(cfg.optics).magnitude)
    params = nlse.NlseParams(
        v1_over_er=nl["v1_over_er"],
        g_int=nl["g_int"],
        kappa_dimless=nl["kappa_dimless"],
        n_periods=nl["n_periods"],
        grid_points=nl["grid_points"],
        schedule=tuple(tuple(p) for p in nl["schedule"]),
    )
    lossless = dataclasses.replace(params, kappa_dimless=0.0, schedule=())
    state = nlse.ground_state(lossless)
    final, obs = nlse.evolve(state, params, dt=nl["dt"], steps=nl["steps"],
                             record_every=nl["record_every"])
    rows = [[t, n, e, c] for t, n, e, c in
            zip(obs.tau, obs.norm, obs.energy, obs.contrast)]
    _write_csv(out / "nlse_trajectory.csv",
               ["tau", "norm", "energy", "contrast"], rows, cfg.hash())
    interleaved = np.empty(2 * final.psi.size)
    interleaved[0::2] = final.psi.real
    interleaved[1::2] = final.psi.imag
    (out / "nlse_state.bin").write_bytes(
        interleaved.astype("<f8").tobytes()
    )
    _write_json(out / "nlse_state.json", {
        "grid_points": params.grid_points,
        "n_periods": params.n_periods,
        "time": final.time,
    }, cfg.hash())


def cmd_ed(cfg: RunConfig, out: Path) -> None:
    ed = cfg.ed
    rows = []
    for L in ed["sizes"]:
        bases = bh_ed.unit_filling_bases(L, ed["n_max"])
        for r in ed["ratios"]:
            res = bh_ed.diagnostics(L, ed["n_max"], r,
                                    periodic=ed["periodic"], bases=bases)
            rows.append([res.sites, res.bosons, res.n_max, res.u_over_j,
                         res.e0, res.gap, res.var_n])
    _write_csv(out / "ed.csv",
               ["L", "N", "n_max", "u_over_j", "e0_over_j", "gap_over_j",
                "var_n"], rows, cfg.hash())


def _emit_plot_script(out: Path, which: str) -> None:
    if which == "sweep":
        script = (
            "set datafile separator ','\n"
            "set xlabel 'Omega/Gamma'\nset ylabel '|gamma|'\n"
            "plot 'sweep.csv' every ::1 using 2:4 with points title 'gamma'\n"
        )
    else:
        script = (
            "set datafile separator ','\n"
            "set xlabel 'Omega/Gamma'\nset logscale y\n"
            "plot 'crossing.csv' every ::1 using 1:2 with lines title 'J/E_R',"
            " '' every ::1 using 1:3 with lines title 'U/E_R'\n"
        )
    (out / f"plot_{which}.gp").write_text(script, newline="\n")


COMMANDS = {
    "map": cmd_map,
    "sweep": cmd_sweep,
    "phase": cmd_phase,
    "crossing": cmd_crossing,
    "nlse": cmd_nlse,
    "ed": cmd_ed,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="polariton-phases",
        description="Effective many-body parameters and phase diagrams of "
                    "lattice-trapped fiber polaritons.",
    )
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON run configuration (defaults applied "
                             "for missing fields)")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (overrides config)")
    args = parser.parse_args(argv)

    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    try:
        cfg = load_config(args.config) if args.config else default_config()
        out = Path(args.out) if args.out else Path(cfg.output["directory"])
        out.mkdir(parents=True, exist_ok=True)
        COMMANDS[args.subcommand](cfg, out)
    except CONVERGENCE_ERRORS as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return 3
    except PolaritonError as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
