"""Command-line surface: config ingestion, subcommand dispatch, file emission.

Subcommands: map, sweep, phase, crossing, nlse, ed.  All outputs land in the
configured output directory; every file carries the sha256 hash of the fully
resolved config so identical configs reproduce identical bytes.

Each run is a fresh process, so the start path holds only what every
subcommand needs: `config`, `optics` (every config holds an `OpticalConfig`)
and `errors`, none of which imports numpy.  Each `cmd_*` imports the solver
module it runs: `many_body` for map; `sweep`, which imports `many_body`, for
sweep, phase and crossing; `nlse` for nlse; `bh_ed` for ed.  numpy comes in
with `sweep`, `nlse`, `bh_ed` or the CSV writer, so map and a run refused
before its solver starts load none.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import optics
from .config import RunConfig, default_config, load_config
from .errors import NoConvergence, NonFinite, ParseError, PolaritonError

if TYPE_CHECKING:
    import numpy as np

    from .sweep import GridSpec, NodeFields

log = logging.getLogger("polariton_phases")

CONVERGENCE_ERRORS = (NoConvergence, NonFinite)


# Rows per write: 256 to 4096 wrote 60 x 60 and 300 x 300 grids equally fast
# (2-vCPU VM), and at 1024 a block's text and objects stay under 1 MB.
_BLOCK_ROWS = 1024


def _distinct_text(column: np.ndarray):
    """(sorted distinct bit patterns, their "%.17g" text) of a float64
    column that holds at most half as many distinct values as rows, or
    None for any other column."""
    import numpy as np  # only the CSV writer uses it
    if column.dtype != np.float64:
        return None
    # sorted and compared: np.unique, which hashes in numpy 2.4, took 16x
    # as long on a 3600-row column
    keys = np.sort(column.view(np.int64))
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    if 2 * keys.size > column.size:
        return None
    text = ["%.17g" % v for v in keys.view(np.float64).tolist()]
    return keys, np.array(text, dtype=object)


def _write_csv(path: Path, header: list[str], columns,
               cfg_hash: str) -> None:
    """One row per index of the equal-length columns, streamed in blocks.

    A text column (numpy kind "U", or an object array of str) is written
    with "%s", every other with "%.17g": ints as written, floats
    round-trip.  Rows are formatted and written _BLOCK_ROWS at a time, so
    the text and the Python objects of the whole table never exist.

    A float64 column that holds at most half as many distinct values as
    rows (a grid axis, or a field of one axis) formats each distinct value
    once and repeats its text in every block.  Values are keyed by their
    bit pattern, so 0.0 and -0.0 never share text and the bytes are those
    of "%.17g" on every row.
    """
    # Per 1024-row float column, one pinned CPU: "%.17g" in the row format
    # costs ~460 us more than "%s" of text gathered by rank, the gather
    # included (17-80 us at 16-512 distinct values).  A distinct value
    # costs ~0.7 us to format alone, so at most half distinct is a gain.
    import numpy as np  # only the CSV writer uses it
    columns = [np.ravel(c) for c in columns]
    distinct = [_distinct_text(c) for c in columns]
    formats = ",".join("%s" if c.dtype.kind in "OU" or d is not None
                       else "%.17g"
                       for c, d in zip(columns, distinct)) + "\n"
    with path.open("w", newline="\n") as f:
        f.write(f"# config_hash={cfg_hash}\n{','.join(header)}\n")
        for lo in range(0, len(columns[0]), _BLOCK_ROWS):
            cells = []
            for c, d in zip(columns, distinct):
                part = c[lo:lo + _BLOCK_ROWS]
                if d is not None:
                    keys, text = d
                    part = text[np.searchsorted(keys, part.view(np.int64))]
                cells.append(part.tolist())
            f.write("".join([formats % row for row in zip(*cells)]))


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
# ed.csv header: one row per (L, U/J) at unit filling N = L.
ED_HEADER = ["L", "N", "n_max", "u_over_j", "e0_over_j", "gap_over_j",
             "var_n"]


def _grid_table(nodes: NodeFields) -> tuple[list[str], list]:
    """Header and columns, one row per node in row-major (Delta_p, Omega):
    a POLE or DOMAIN node has NaN fields, no phase and its status as flags."""
    return ([*GRID_FIELDS, "phase", "flags"],
            [*(getattr(nodes, f) for f in GRID_FIELDS.values()),
             *nodes.labels()])


def _grid_spec(cfg: RunConfig) -> GridSpec:
    from . import sweep  # only sweep and phase use it
    return sweep.GridSpec(
        delta_p_range=tuple(cfg.sweep["delta_p_range"]),
        omega_range=tuple(cfg.sweep["omega_range"]),
        base=cfg.optics,
    )


def cmd_map(cfg: RunConfig, out: Path) -> None:
    from . import many_body  # only map calls it directly
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
    from . import sweep  # only sweep, phase and crossing use it
    nodes = sweep.evaluate_grid(_grid_spec(cfg))
    _write_csv(out / "sweep.csv", *_grid_table(nodes), cfg.hash())


def cmd_phase(cfg: RunConfig, out: Path) -> None:
    from . import sweep  # only sweep, phase and crossing use it
    cfg_hash = cfg.hash()
    spec = _grid_spec(cfg)
    nodes = sweep.evaluate_grid(spec)
    # a grid no boundary crosses raises here, before any file is written
    boundaries = sweep.phase_boundaries(spec, nodes)
    _write_csv(out / "phase_grid.csv", *_grid_table(nodes), cfg_hash)
    _write_json(out / "phase_boundaries.json", {
        "boundaries": [
            {"model": b.model, "vertices": [[x, y] for x, y in b.vertices]}
            for b in boundaries
        ],
    }, cfg_hash)


def cmd_crossing(cfg: RunConfig, out: Path) -> None:
    from . import sweep  # only sweep, phase and crossing use it
    cfg_hash = cfg.hash()
    lo, hi, count = cfg.sweep["omega_range"]
    sweep.check_node_count(count)
    base = cfg.optics
    # the root finder checks the bracket before the table spans it
    root, at_root = sweep._mott_crossing(base, base.delta_p, (lo, hi))
    table = sweep.evaluate(base, base.delta_p,
                           sweep.range_nodes(lo, hi, count))
    _write_csv(out / "crossing.csv",
               ["omega_over_gamma", "j_over_er", "u_over_er", "u_over_j"],
               [table.omega, table.j_over_er, table.u_over_er,
                table.u_over_j], cfg_hash)
    _write_json(out / "crossing_root.json", {
        "delta_p_over_gamma": base.delta_p,
        "omega_over_gamma": root,
        "u_over_j": float(at_root.u_over_j),
        # False where the root lies outside |gamma| <= 1, V1/E_R >= 3
        "bh_valid": bool(at_root.bh_valid),
    }, cfg_hash)


def cmd_nlse(cfg: RunConfig, out: Path) -> None:
    from . import nlse  # only nlse uses it
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
    from . import bh_ed  # only ed uses it
    ed = cfg.ed
    columns = [[] for _ in ED_HEADER]
    for L in ed["sizes"]:
        chain = bh_ed.UnitFilling.build(L, ed["n_max"], ed["periodic"])
        for r in ed["ratios"]:
            # the columns of `chain.diagnostics(r)` but <b+_0 b_d>, which
            # ed.csv does not hold
            e0, vec, gap = chain.solve(float(r))
            row = (L, L, ed["n_max"], r, e0, gap,
                   chain.number_moments(vec)[1])
            for column, value in zip(columns, row):
                column.append(value)
    _write_csv(out / "ed.csv", ED_HEADER, columns, cfg.hash())


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
        if args.out and "\0" in str(args.out):
            raise ParseError("--out must be a path without a NUL byte")
        out = Path(args.out) if args.out else Path(cfg.output["directory"])
        out.mkdir(parents=True, exist_ok=True)
        COMMANDS[args.subcommand](cfg, out)
        if cfg.output["emit_plot_script"] and args.subcommand in PLOT_SCRIPTS:
            (out / f"plot_{args.subcommand}.gp").write_text(
                PLOT_SCRIPTS[args.subcommand], newline="\n")
    except CONVERGENCE_ERRORS as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return 3
    except (PolaritonError, OSError) as exc:   # OSError: an unusable out dir
        log.error("%s: %s", type(exc).__name__, exc)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
