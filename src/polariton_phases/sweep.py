"""Parameter scans over (Delta_p/Gamma, Omega/Gamma) and transition root-finding.

Produces the data behind the gamma / lattice-depth maps, the phase diagram
boundary polylines (marching squares on the classifier's decision functions)
and the critical control-field strengths of the two transitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import many_body, optics
from .errors import (
    ConfigError,
    DomainError,
    EmptyBoundary,
    NoBracket,
    NoConvergence,
    PoleError,
    RegimeError,
)

ROOT_TOL = 1e-6          # |Delta Omega| tolerance, Gamma units
RESIDUAL_TOL = 1e-4      # residual of the defining equation at the root


@dataclass(frozen=True)
class GridSpec:
    """Rectangular scan grid; counts >= 2 per axis; ranges in Gamma units."""

    delta_p_range: tuple[float, float, int]
    omega_range: tuple[float, float, int]
    base: optics.OpticalConfig

    def __post_init__(self):
        for name, (lo, hi, n) in (
            ("delta_p_range", self.delta_p_range),
            ("omega_range", self.omega_range),
        ):
            if n < 2:
                raise ConfigError(f"{name} needs count >= 2, got {n}")
            if not (hi > lo):
                raise ConfigError(f"{name} needs max > min")

    def delta_p_values(self) -> np.ndarray:
        lo, hi, n = self.delta_p_range
        return np.linspace(lo, hi, n)

    def omega_values(self) -> np.ndarray:
        lo, hi, n = self.omega_range
        return np.linspace(lo, hi, n)


@dataclass(frozen=True)
class SweepRecord:
    delta_p: float
    omega: float
    gamma_signed: float
    point: many_body.ManyBodyPoint | None
    v_g: float
    kappa: float
    error: str | None = None   # set for pole-adjacent nodes, never dropped


def _evaluate_node(base: optics.OpticalConfig, delta_p: float,
                   omega: float) -> SweepRecord:
    cfg = replace(base, delta_p=delta_p, omega=omega)
    try:
        vc = optics.validate_config(cfg)
        params = optics.effective_params(vc)
        gam = optics.lieb_liniger_gamma(vc)
        depth = optics.lattice_depth_ratio(vc)
    except PoleError as exc:
        return SweepRecord(delta_p, omega, math.nan, None, math.nan,
                           math.nan, error=str(exc))
    point = many_body.make_point(gam.magnitude, depth,
                                 sign_warning=gam.negative)
    return SweepRecord(delta_p, omega, gam.signed, point,
                       params.v_g, params.kappa)


def sweep_grid(spec: GridSpec) -> list[SweepRecord]:
    """Evaluate the full pipeline at every grid node, row-major in (Delta_p, Omega).

    Pole-adjacent nodes are emitted as records with an error marker.
    """
    try:
        optics.validate_config(replace(spec.base, delta_p=spec.delta_p_range[0],
                                       omega=spec.omega_range[1]))
    except PoleError:
        pass  # individual nodes will carry the marker
    except DomainError as exc:
        raise ConfigError(f"invalid base config: {exc}") from exc
    records = []
    for dp in spec.delta_p_values():
        for om in spec.omega_values():
            records.append(_evaluate_node(spec.base, float(dp), float(om)))
    return records


def _bisect(f: Callable[[float], float], lo: float, hi: float,
            f_lo: float, f_hi: float) -> float:
    """Bracketed bisection with a secant acceleration attempt per iteration."""
    while hi - lo > ROOT_TOL:
        mid = 0.5 * (lo + hi)
        # secant candidate, kept only if it falls safely inside the bracket
        if f_hi != f_lo:
            sec = lo - f_lo * (hi - lo) / (f_hi - f_lo)
            if lo + 0.1 * (hi - lo) < sec < hi - 0.1 * (hi - lo):
                mid = sec
        f_mid = f(mid)
        if f_mid == 0:
            return mid
        if (f_lo < 0) == (f_mid < 0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi)


def _uj_at(base: optics.OpticalConfig, delta_p: float, omega: float) -> float:
    cfg = replace(base, delta_p=delta_p, omega=omega)
    vc = optics.validate_config(cfg)
    gam = optics.lieb_liniger_gamma(vc)
    depth = optics.lattice_depth_ratio(vc)
    return many_body.uj_closed_form(depth, gam.magnitude)


def find_mott_crossing(base: optics.OpticalConfig, delta_p: float,
                       bracket: tuple[float, float]) -> float:
    """Omega*/Gamma at which U/J crosses the Mott critical ratio 3.85."""
    lo, hi = bracket
    if not (hi > lo):
        raise NoBracket(f"degenerate bracket {bracket}")
    _check_pole_free(base, lo, hi)
    f = lambda om: _uj_at(base, delta_p, om) - many_body.UJ_CRITICAL
    f_lo, f_hi = f(lo), f(hi)
    if (f_lo < 0) == (f_hi < 0):
        raise NoBracket(
            f"U/J - {many_body.UJ_CRITICAL} has no sign change over {bracket}"
        )
    root = _bisect(f, lo, hi, f_lo, f_hi)
    residual = abs(_uj_at(base, delta_p, root) - many_body.UJ_CRITICAL)
    if not residual <= RESIDUAL_TOL:
        raise NoConvergence(
            f"|U/J - {many_body.UJ_CRITICAL}| = {residual} at Omega = {root} "
            f"exceeds {RESIDUAL_TOL}"
        )
    return root


def _sg_excess(base: optics.OpticalConfig, delta_p: float,
               omega: float) -> tuple[float, bool, float, float]:
    """(V1/E_R - critical depth, in-sG-window, gamma, depth) at one point."""
    cfg = replace(base, delta_p=delta_p, omega=omega)
    vc = optics.validate_config(cfg)
    gam = optics.lieb_liniger_gamma(vc)
    depth = optics.lattice_depth_ratio(vc)
    flags = many_body.regime_flags(gam.magnitude, depth)
    if not flags.sg_valid:
        return math.nan, False, gam.magnitude, depth
    return depth - many_body.sg_critical_depth(gam.magnitude), True, \
        gam.magnitude, depth


def find_pinning_crossing(
    base: optics.OpticalConfig, delta_p: float,
    bracket: tuple[float, float], scan_points: int = 64,
) -> tuple[float, float, float]:
    """Omega*/Gamma of the sine-Gordon pinning transition inside the bracket.

    Scans the bracket, restricts to the sub-interval inside the sG validity
    window, then bisects the sign change of V1/E_R - V1c(gamma).  Returns
    (Omega*, gamma, V1/E_R) at the crossing.
    """
    lo, hi = bracket
    if not (hi > lo):
        raise NoBracket(f"degenerate bracket {bracket}")
    _check_pole_free(base, lo, hi)
    omegas = np.linspace(lo, hi, scan_points)
    vals = [_sg_excess(base, delta_p, float(om)) for om in omegas]
    valid_idx = [i for i, v in enumerate(vals) if v[1]]
    if not valid_idx:
        raise RegimeError(
            f"bracket {bracket} at Delta_p = {delta_p} lies entirely outside "
            "the sine-Gordon validity window"
        )
    for i, j in zip(valid_idx[:-1], valid_idx[1:]):
        if j != i + 1:
            continue
        f_i, f_j = vals[i][0], vals[j][0]
        if (f_i < 0) != (f_j < 0):
            f = lambda om: _sg_excess(base, delta_p, om)[0]
            root = _bisect(f, float(omegas[i]), float(omegas[j]), f_i, f_j)
            _, _, gamma_abs, depth = _sg_excess(base, delta_p, root)
            return root, gamma_abs, depth
    raise NoBracket(
        f"no sign change of the pinning criterion over {bracket} "
        f"at Delta_p = {delta_p}"
    )


def _check_pole_free(base: optics.OpticalConfig, lo: float, hi: float):
    pole = math.sqrt(max(base.delta_small * base.delta0 / 2, 0.0)) \
        if base.delta_small * base.delta0 > 0 else None
    if pole is not None and lo - optics.EPS_POLE <= pole <= hi + optics.EPS_POLE:
        raise PoleError(
            f"bracket [{lo}, {hi}] touches the Lambda pole at Omega = {pole}"
        )


# --- phase boundaries via marching squares ---------------------------------

@dataclass(frozen=True)
class BoundaryPolyline:
    model: str                     # "BH" or "SG"
    vertices: list[tuple[float, float]]   # (delta_p, omega) pairs, ordered


def _decision_fields(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """(f_bh, f_sg) on the grid; NaN where the node is outside the window."""
    dps = spec.delta_p_values()
    oms = spec.omega_values()
    f_bh = np.full((dps.size, oms.size), np.nan)
    f_sg = np.full((dps.size, oms.size), np.nan)
    for i, dp in enumerate(dps):
        for j, om in enumerate(oms):
            rec = _evaluate_node(spec.base, float(dp), float(om))
            if rec.error is not None or rec.point is None:
                continue
            p = rec.point
            if p.flags.bh_valid:
                f_bh[i, j] = p.u_over_j - many_body.UJ_CRITICAL
            if p.flags.sg_valid:
                f_sg[i, j] = p.v1_over_er - many_body.sg_critical_depth(
                    p.gamma_abs
                )
    return f_bh, f_sg


def _marching_squares(xs: np.ndarray, ys: np.ndarray,
                      f: np.ndarray) -> list[list[tuple[float, float]]]:
    """Zero-level contour of f sampled on the (xs, ys) grid.

    Cells with any non-finite corner are skipped.  Each crossed grid edge is
    named by (axis, i, j), its lower-index node, and interpolated once from
    that node, so the two cells sharing an edge share its crossing exactly.
    Segments join two crossings and chain into polylines by edge name.
    """
    neg = f < 0
    fin = np.isfinite(f)
    cells = fin[:-1, :-1] & fin[1:, :-1] & fin[1:, 1:] & fin[:-1, 1:]
    n_neg = (neg[:-1, :-1].astype(int) + neg[1:, :-1] + neg[1:, 1:]
             + neg[:-1, 1:])

    segments = []
    for i, j in np.argwhere(cells & (n_neg > 0) & (n_neg < 4)).tolist():
        # cell edges in corner order (i,j) (i+1,j) (i+1,j+1) (i,j+1)
        edges = (((0, i, j), neg[i, j], neg[i + 1, j]),
                 ((1, i + 1, j), neg[i + 1, j], neg[i + 1, j + 1]),
                 ((0, i, j + 1), neg[i + 1, j + 1], neg[i, j + 1]),
                 ((1, i, j), neg[i, j + 1], neg[i, j]))
        pts = [edge for edge, a, b in edges if a != b]
        # ambiguous saddle cells yield 4 points; pair them as-is
        segments.extend(zip(pts[0::2], pts[1::2]))

    def point(edge):
        axis, i, j = edge
        if axis == 0:
            t = f[i, j] / (f[i, j] - f[i + 1, j])
            return (xs[i] + t * (xs[i + 1] - xs[i]), ys[j])
        t = f[i, j] / (f[i, j] - f[i, j + 1])
        return (xs[i], ys[j] + t * (ys[j + 1] - ys[j]))

    by_edge: dict[tuple, list[int]] = {}
    for idx, (a, b) in enumerate(segments):
        by_edge.setdefault(a, []).append(idx)
        by_edge.setdefault(b, []).append(idx)

    used = set()
    polylines = []
    for start in range(len(segments)):
        if start in used:
            continue
        used.add(start)
        chain = list(segments[start])
        for grow_front in (False, True):
            while True:
                end = chain[0] if grow_front else chain[-1]
                cands = [i for i in by_edge[end] if i not in used]
                if not cands:
                    break
                idx = cands[0]
                used.add(idx)
                a, b = segments[idx]
                nxt = b if a == end else a
                if grow_front:
                    chain.insert(0, nxt)
                else:
                    chain.append(nxt)
        polylines.append([point(edge) for edge in chain])
    return polylines


def phase_boundaries(spec: GridSpec) -> list[BoundaryPolyline]:
    """Zero contours of both decision functions, tagged by model of origin."""
    dps = spec.delta_p_values()
    oms = spec.omega_values()
    f_bh, f_sg = _decision_fields(spec)
    out = []
    for model, f in (("BH", f_bh), ("SG", f_sg)):
        for chain in _marching_squares(dps, oms, f):
            out.append(BoundaryPolyline(model, [(float(x), float(y))
                                                for x, y in chain]))
    if not out:
        raise EmptyBoundary("no phase boundary crosses the scanned grid")
    return out
