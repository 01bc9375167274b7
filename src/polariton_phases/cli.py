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
from .errors import NoConvergence, NonFinite, PolaritonError

log = logging.getLogger("polariton_phases")

CONVERGENCE_ERRORS = (NoConvergence, NonFinite)


# Rows per write: 256 to 4096 wrote 60 x 60 and 300 x 300 grids equally fast
# (2-vCPU VM), and at 1024 a block's text and objects stay under 1 MB.
_BLOCK_ROWS = 1024


def _write_csv(path: Path, header: list[str], columns,
               cfg_hash: str) -> None:
    """One row per index of the equal-length columns, streamed in blocks.

    A text column (numpy kind "U", or an object array of str) is written
    with "%s", every other with "%.17g": ints as written, floats
    round-trip.  Rows are formatted and written _BLOCK_ROWS at a time, so
    the text and the Python objects of the whole table never exist.
    """
    columns = [np.ravel(c) for c in columns]
    row_format = ",".join("%s" if c.dtype.kind in "OU" else "%.17g"
                          for c in columns) + "\n"
    with path.open("w", newline="\n") as f:
        f.write(f"# config_hash={cfg_hash}\n{','.join(header)}\n")
        for lo in range(0, len(columns[0]), _BLOCK_ROWS):
            block = zip(*(c[lo:lo + _BLOCK_ROWS].tolist() for c in columns))
            f.write("".join([row_format % row for row in block]))


def _write_json(path: Path, payload: dict, cfg_hash: str) -> None:
    payload = {"config_hash": cfg_hash, **payload}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    newline="\n")


# sweep.csv and phase_grid.csv header name -> the NodeFields field of its
# column; the phase and flags labels of each node follow.
GRID_FIELDS = {
    "delta_p_over_gamma": "delta_p", "omega_over_gamma": "omega",
    "gamma_signed": "gamma_signed", "gamma_abs": "gamma_abs",
    "v1_over_er": "v1_over_er", "k_luttinger": "k_luttinger",
    "j_over_er": "j_over_er", "u_over_er": "u_over_er",
    "u_over_j": "u_over_j", "v_g_m_per_s": "v_g", "kappa_per_s": "kappa",
}
# ed.csv header name -> the bh_ed.EdResult field of its column.
ED_FIELDS = {"L": "sites", "N": "bosons", "n_max": "n_max",
             "u_over_j": "u_over_j", "e0_over_j": "e0", "gap_over_j": "gap",
             "var_n": "var_n"}


def _grid_table(nodes: sweep_mod.NodeFields) -> tuple[list[str], list]:
    """Header and columns, one row per node in row-major (Delta_p, Omega):
    a POLE or DOMAIN node has NaN fields, no phase and its status as flags."""
    return ([*GRID_FIELDS, "phase", "flags"],
            [*(getattr(nodes, f) for f in GRID_FIELDS.values()),
             *nodes.labels()])


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
    _write_csv(out / "sweep.csv", *_grid_table(nodes), cfg.hash())


def cmd_phase(cfg: RunConfig, out: Path) -> None:
    cfg_hash = cfg.hash()
    spec = _grid_spec(cfg)
    nodes = sweep_mod.evaluate_grid(spec)
    _write_csv(out / "phase_grid.csv", *_grid_table(nodes), cfg_hash)
    boundaries = sweep_mod.phase_boundaries(spec, nodes)
    _write_json(out / "phase_boundaries.json", {
        "boundaries": [
            {"model": b.model, "vertices": [[x, y] for x, y in b.vertices]}
            for b in boundaries
        ],
    }, cfg_hash)


def cmd_crossing(cfg: RunConfig, out: Path) -> None:
    cfg_hash = cfg.hash()
    lo, hi, count = cfg.sweep["omega_range"]
    sweep_mod.check_node_count(count)
    base = cfg.optics
    # the root finder checks the bracket before the table spans it
    root = sweep_mod.find_mott_crossing(base, base.delta_p, (lo, hi))
    table = sweep_mod.evaluate(base, base.delta_p, np.linspace(lo, hi, count))
    uj_root = float(sweep_mod.evaluate(base, base.delta_p, root).u_over_j)
    _write_csv(out / "crossing.csv",
               ["omega_over_gamma", "j_over_er", "u_over_er", "u_over_j"],
               [table.omega, table.j_over_er, table.u_over_er,
                table.u_over_j], cfg_hash)
    _write_json(out / "crossing_root.json", {
        "delta_p_over_gamma": base.delta_p,
        "omega_over_gamma": root,
        "u_over_j": uj_root,
    }, cfg_hash)


def cmd_nlse(cfg: RunConfig, out: Path) -> None:
    cfg_hash = cfg.hash()
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
    log.info("nlse: ground state in %d iterations, residual %.3g",
             state.iterations, state.residual)
    final, obs = nlse.evolve(state, params, dt=nl["dt"], steps=nl["steps"],
                             record_every=nl["record_every"])
    _write_csv(out / "nlse_trajectory.csv",
               ["tau", "norm", "energy", "contrast"],
               [obs.tau, obs.norm, obs.energy, obs.contrast], cfg_hash)
    # little-endian float64 pairs (Re, Im) per grid point
    (out / "nlse_state.bin").write_bytes(final.psi.astype("<c16").tobytes())
    _write_json(out / "nlse_state.json", {
        "grid_points": params.grid_points,
        "n_periods": params.n_periods,
        "time": final.time,
        "ground_iterations": state.iterations,
        "ground_residual": state.residual,
    }, cfg_hash)


def cmd_ed(cfg: RunConfig, out: Path) -> None:
    ed = cfg.ed
    results = []
    for L in ed["sizes"]:
        bases = bh_ed.unit_filling_bases(L, ed["n_max"])
        results += [bh_ed.diagnostics(L, ed["n_max"], r,
                                      periodic=ed["periodic"], bases=bases)
                    for r in ed["ratios"]]
    _write_csv(out / "ed.csv", list(ED_FIELDS),
               [[getattr(res, f) for res in results]
                for f in ED_FIELDS.values()], cfg.hash())


# plot_<subcommand>.gp, written when output.emit_plot_script is set.
PLOT_SCRIPTS = {
    "sweep": (
        "set datafile separator ','\n"
        "set xlabel 'Omega/Gamma'\nset ylabel '|gamma|'\n"
        "plot 'sweep.csv' every ::1 using 2:4 with points title 'gamma'\n"
    ),
    "crossing": (
        "set datafile separator ','\n"
        "set xlabel 'Omega/Gamma'\nset logscale y\n"
        "plot 'crossing.csv' every ::1 using 1:2 with lines title 'J/E_R',"
        " '' every ::1 using 1:3 with lines title 'U/E_R'\n"
    ),
}


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
        if cfg.output["emit_plot_script"] and args.subcommand in PLOT_SCRIPTS:
            (out / f"plot_{args.subcommand}.gp").write_text(
                PLOT_SCRIPTS[args.subcommand], newline="\n")
    except CONVERGENCE_ERRORS as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return 3
    except PolaritonError as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
