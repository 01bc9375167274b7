"""Parameter scans over (Delta_p/Gamma, Omega/Gamma) and transition root-finding.

Produces the data behind the gamma / lattice-depth maps, the phase diagram
boundary polylines (marching squares on the classifier's decision functions)
and the critical control-field strengths of the two transitions.  Every
consumer reads the optics -> many-body chain from one array evaluator,
evaluate(), which marks a bad node instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import many_body, optics
from .errors import (
    ConfigError,
    DimensionOverflow,
    DomainError,
    EmptyBoundary,
    NoBracket,
    NoConvergence,
    PoleError,
    RegimeError,
)

ROOT_TOL = 1e-6          # |Delta Omega| tolerance, Gamma units
RESIDUAL_TOL = 1e-4      # residual of the defining equation at the root
SCAN_POINTS = 64         # evenly spaced nodes of a root bracket scan
# Most nodes one scan may hold: a sweep or phase grid, or a crossing table.
NODE_CAP = 2_000_000


def check_node_count(count: int) -> None:
    """Raise DimensionOverflow, before anything is allocated, for a scan of
    more than NODE_CAP nodes."""
    if count > NODE_CAP:
        raise DimensionOverflow(f"{count} scan nodes exceed cap {NODE_CAP}")


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
            if not (0 < hi - lo < math.inf):   # linspace overflows past it
                raise ConfigError(f"{name} needs min < max, a finite "
                                  "distance apart")
        check_node_count(self.delta_p_range[2] * self.omega_range[2])

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
    error: str | None = None   # set for POLE and DOMAIN nodes, never dropped


# Status codes of the optics -> many-body chain at one node.
OK, POLE, DOMAIN = 0, 1, 2
STATUS_NAMES = ("OK", "POLE", "DOMAIN")
STATUS_ERRORS = {
    POLE: "POLE: within EPS_POLE of the Lambda or Xi pole",
    DOMAIN: "DOMAIN: v_g outside (0, v), |Re m| < EPS_MASS, V1/E_R < 0, "
            "J/E_R = 0 or a non-finite value",
}
# Phase codes of NodeFields.phase index this tuple.
PHASES = (many_body.Phase.SUPERFLUID, many_body.Phase.MOTT_PINNED_SG,
          many_body.Phase.MOTT_BH, many_body.Phase.INDETERMINATE)
_SF, _MOTT_SG, _MOTT_BH, _INDETERMINATE = range(4)
# RegimeFlags by flag code sg + 2 bh + 4 k_formula + 8 sign (None where
# both windows would hold, which the evaluator never reports).
_FLAGS = [None if code & 3 == 3 else many_body.RegimeFlags(
    *(bool(code >> bit & 1) for bit in range(4))) for code in range(16)]


def _where(cond, a, b):
    """np.where, or a plain conditional on one node, where np.where would
    cost more than the rest of the chain."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def _finite(x):
    """isfinite for arrays and numpy scalars alike: x - x is 0 unless x is
    inf or NaN, and on a scalar two operations cost less than one ufunc."""
    return x - x == 0


# Not frozen: a frozen dataclass sets its 19 fields through
# object.__setattr__, ~5 us a call here, a quarter of a one-node evaluate.
@dataclass(slots=True)
class NodeFields:
    """The optics -> many-body chain on a grid of nodes, one array per field.

    Every array has the broadcast shape of (delta_p, omega); a single node
    gives numpy scalars.  Where status is not OK the float fields are NaN,
    the flags False and the phase INDETERMINATE.
    """

    delta_p: np.ndarray
    omega: np.ndarray
    status: np.ndarray          # OK, POLE or DOMAIN
    gamma_signed: np.ndarray
    gamma_abs: np.ndarray
    v1_over_er: np.ndarray
    k_luttinger: np.ndarray     # NaN outside the K-formula domain
    j_over_er: np.ndarray
    u_over_er: np.ndarray
    u_over_j: np.ndarray
    v_g: np.ndarray             # m/s
    kappa: np.ndarray           # 1/s
    sg_valid: np.ndarray
    bh_valid: np.ndarray
    k_formula_valid: np.ndarray
    sign_warning: np.ndarray
    phase: np.ndarray           # index into PHASES
    f_bh: np.ndarray            # U/J - UJ_CRITICAL where bh_valid, else NaN
    f_sg: np.ndarray            # V1/E_R - sG critical depth where sg_valid

    def flag_codes(self) -> np.ndarray:
        """sg + 2 bh + 4 k_formula + 8 sign per node: an index into _FLAGS."""
        return (self.sg_valid * 1 + self.bh_valid * 2
                + self.k_formula_valid * 4 + self.sign_warning * 8)

    def labels(self) -> tuple[np.ndarray, np.ndarray]:
        """(phase, flags) object arrays of str, per node in row-major order.

        A node that is not OK has an empty phase and its status name as
        flags.
        """
        status = np.ravel(self.status)
        ok = status == OK
        phase_names = np.array([p.value for p in PHASES], dtype=object)
        flag_names = np.array([f.label() if f else "" for f in _FLAGS],
                              dtype=object)
        phases = np.where(ok, phase_names[np.ravel(self.phase)], "")
        flags = np.where(ok, flag_names[np.ravel(self.flag_codes())],
                         np.array(STATUS_NAMES, dtype=object)[status])
        return phases, flags

    def require_ok(self) -> None:
        """Raise the scalar chain's error for the first node not OK."""
        status = np.ravel(self.status)
        bad = np.flatnonzero(status != OK)
        if bad.size:
            i = bad[0]
            cls = PoleError if status[i] == POLE else DomainError
            raise cls(f"{STATUS_ERRORS[status[i]]} at Delta_p = "
                      f"{np.ravel(self.delta_p)[i]}, "
                      f"Omega = {np.ravel(self.omega)[i]}")


def evaluate(base: optics.OpticalConfig, delta_p, omega) -> NodeFields:
    """The optics -> many-body chain at every node of (delta_p, omega).

    delta_p and omega are floats or arrays that broadcast together; the
    other knobs come from base, which checked itself when it was built.
    Each node is evaluated in numpy and given a status: POLE within
    EPS_POLE of the Lambda or Xi pole, DOMAIN where v_g lies outside
    (0, v), |Re m| < EPS_MASS, V1/E_R < 0, J/E_R underflows to 0 or the
    node is not finite, else OK.  A bad node is marked, never raised.  The
    values agree with the scalar chain (optics.validate_config ->
    effective_params -> lieb_liniger_gamma, lattice_depth_ratio ->
    many_body.make_point) to rounding.
    """
    c = base
    # a float or 0-d array becomes a numpy scalar, on which arithmetic is
    # ten times cheaper than on a 0-d array; any other input an array
    dp = np.float64(delta_p)
    om = np.float64(omega)
    gamma = c.gamma_total
    gamma_1d = c.gamma_1d_ratio * gamma
    g1d_sq = c.gamma_1d_ratio**2
    n1 = c.n1_fraction * c.n0
    mb = many_body
    with np.errstate(all="ignore"):
        # optics: the closed forms of optics.py, in the same operation order
        om_sq = om**2
        lam_denom = om_sq - c.delta_small * c.delta0 / 2
        xi_denom = dp - c.delta_small
        lam = om_sq / lam_denom
        xi = (dp - c.delta_small / 2) / xi_denom
        gamma_signed = -(lam**2 * xi / 8) * (g1d_sq / (c.delta0 * dp)) \
            * (c.n0 / c.n_ph)
        s = ((lam / (8 * math.pi**2)) * (g1d_sq / om_sq)
             * (c.delta_small / c.delta0) * (c.n0 * n1 / c.n_ph**2))
        v_g = 4 * (om * gamma)**2 / (gamma_1d * c.n0)
        m_real = -c.delta_omega / (2 * c.v * v_g) - gamma_1d * c.n0 / (
            4 * (c.delta0 * gamma) * v_g)
        kappa = c.n_ph**2 * v_g * gamma / (c.n0 * gamma_1d)

        # many-body: the closed forms of many_body.py
        g = abs(gamma_signed)
        lattice = s > 0
        # J and U are 0 at s = 0 as written, and U/J is 0 there as in
        # make_point; s < 0 is a DOMAIN node
        j = 4 * s**0.75 * np.exp(-2 * np.sqrt(s)) / math.sqrt(math.pi)
        u = math.sqrt(2 / math.pi**3) * s**0.25 * g
        uj = _where(lattice, u / j, 0.0)
        rad = g - g**1.5 / (2 * math.pi)
        k_valid = (0 < g) & (g <= mb.GAMMA_K_MAX) & (rad > 0)
        k = _where(k_valid, math.pi / np.sqrt(rad), math.nan)

        finite_node = _finite(dp) & _finite(om)
        pole = finite_node & ((abs(lam_denom) <= optics.EPS_POLE)
                              | (abs(xi_denom) <= optics.EPS_POLE))
        # NaN fails every comparison; an infinite s makes U/J NaN
        in_domain = finite_node & (0 < v_g) & (v_g < c.v) \
            & (abs(m_real) >= optics.EPS_MASS) & (s >= 0) \
            & _finite(gamma_signed) & _finite(uj)
        ok = in_domain & ~pole
        status = POLE * pole + DOMAIN * ~(in_domain | pole)

        sg = ok & (g >= mb.SG_GAMMA_MIN) & (g <= mb.SG_GAMMA_MAX) \
            & (s < mb.SG_DEPTH_MAX)
        bh = ok & (g <= mb.BH_GAMMA_MAX) & (s >= mb.BH_DEPTH_MIN)
        # max(0, 2K - 4); K is defined wherever sg holds
        sg_crit = _where(k > 2, 2 * k - 4, 0.0)
        phase = _where(
            bh, _where(uj >= mb.UJ_CRITICAL, _MOTT_BH, _SF),
            _where(sg, _where(lattice & (s >= sg_crit), _MOTT_SG, _SF),
                   _INDETERMINATE))
        if isinstance(ok, np.ndarray):
            dp, om = np.broadcast_arrays(dp, om)

        keep = _where(ok, 1.0, math.nan)   # x * keep is x, or NaN if bad
        return NodeFields(
            delta_p=dp, omega=om, status=status,
            gamma_signed=gamma_signed * keep, gamma_abs=g * keep,
            v1_over_er=s * keep, k_luttinger=k * keep, j_over_er=j * keep,
            u_over_er=u * keep, u_over_j=uj * keep, v_g=v_g * keep,
            kappa=kappa * keep, sg_valid=sg, bh_valid=bh,
            k_formula_valid=ok & k_valid, sign_warning=ok & (gamma_signed < 0),
            phase=phase,
            f_bh=_where(bh, uj - mb.UJ_CRITICAL, math.nan),
            f_sg=_where(sg, s - sg_crit, math.nan),
        )


def evaluate_grid(spec: GridSpec) -> NodeFields:
    """evaluate() on the grid of spec, indexed [delta_p, omega]."""
    return evaluate(spec.base, spec.delta_p_values()[:, None],
                    spec.omega_values()[None, :])


def sweep_grid(spec: GridSpec) -> list[SweepRecord]:
    """Evaluate the full pipeline at every grid node, row-major in (Delta_p, Omega).

    POLE and DOMAIN nodes are emitted as records with an error marker.
    """
    nodes = evaluate_grid(spec)
    columns = (nodes.delta_p, nodes.omega, nodes.status, nodes.gamma_signed,
               nodes.gamma_abs, nodes.v1_over_er, nodes.k_luttinger,
               nodes.j_over_er, nodes.u_over_er, nodes.u_over_j, nodes.v_g,
               nodes.kappa, nodes.phase, nodes.flag_codes())
    records = []
    for dp, om, st, gs, g, s, k, j, u, uj, v_g, kappa, ph, fc in zip(
            *(np.ravel(a).tolist() for a in columns)):
        if st != OK:
            records.append(SweepRecord(dp, om, math.nan, None, math.nan,
                                       math.nan, error=STATUS_ERRORS[st]))
            continue
        flags = _FLAGS[fc]
        # the math.nan object, as make_point gives, keeps equal records equal
        k = k if flags.k_formula_valid else math.nan
        point = many_body.ManyBodyPoint(g, s, k, j, u, uj, PHASES[ph], flags)
        records.append(SweepRecord(dp, om, gs, point, v_g, kappa))
    return records


def _brentq(f: Callable[[float], float], lo: float, hi: float,
            f_lo: float, f_hi: float) -> float:
    """Root of f within ROOT_TOL / 2 in [lo, hi], where f changes sign.

    f_lo and f_hi are f(lo) and f(hi), which the caller already holds;
    brentq asks for both ends first and gets them without calling f.
    """
    import scipy.optimize   # ~0.2 s to import; only the root finders use it

    def known_ends(x: float) -> float:
        return f_lo if x == lo else f_hi if x == hi else f(x)
    try:
        return scipy.optimize.brentq(known_ends, lo, hi, xtol=ROOT_TOL / 2)
    except RuntimeError as exc:
        raise NoConvergence(f"brentq over [{lo}, {hi}]: {exc}") from exc


def _first_crossing(base: optics.OpticalConfig, delta_p: float,
                    bracket: tuple[float, float], field: Callable,
                    what: str) -> tuple[float, NodeFields]:
    """(Omega*, the chain at Omega*) for the first sign change of f between
    two valid neighbours of a SCAN_POINTS-node scan of the bracket, refined
    by Brent's method from their scan values; field(nodes) gives (f, valid)
    and what names f in errors.

    Raises NoBracket for an empty or unbounded bracket or no such change,
    PoleError for one that touches the Lambda pole, the chain's error for a
    bad scan node and RegimeError when no scan node is valid.
    """
    lo, hi = bracket
    if not (0 < hi - lo < math.inf):
        raise NoBracket(f"bracket {bracket} needs lo < hi, a finite "
                        "distance apart")
    pole_sq = base.delta_small * base.delta0 / 2    # Omega^2 of the pole
    if pole_sq > 0 and lo - optics.EPS_POLE <= math.sqrt(pole_sq) \
            <= hi + optics.EPS_POLE:
        raise PoleError(f"bracket [{lo}, {hi}] touches the Lambda pole at "
                        f"Omega = {math.sqrt(pole_sq)}")
    scan = evaluate(base, delta_p, np.linspace(lo, hi, SCAN_POINTS))
    scan.require_ok()
    f, valid = field(scan)
    if not valid.any():
        raise RegimeError(f"bracket {bracket} at Delta_p = {delta_p} lies "
                          f"entirely outside the domain of {what}")
    changes = np.flatnonzero(valid[:-1] & valid[1:]
                             & ((f[:-1] < 0) != (f[1:] < 0)))
    if not changes.size:
        raise NoBracket(f"{what} has no sign change over {bracket} at "
                        f"Delta_p = {delta_p}")
    i = changes[0]
    root = _brentq(lambda om: float(field(evaluate(base, delta_p, om))[0]),
                   float(scan.omega[i]), float(scan.omega[i + 1]),
                   float(f[i]), float(f[i + 1]))
    return root, evaluate(base, delta_p, root)


def _log_uj(nodes: NodeFields) -> tuple:
    """log(U/J / 3.85), valid where U/J > 0: U/J is 0 without a lattice.
    U/J grows like exp(2 sqrt(V1/E_R)); its log is near linear in Omega,
    so Brent's method takes fewer steps on it."""
    valid = nodes.u_over_j > 0
    uj = _where(valid, nodes.u_over_j, math.nan)
    return np.log(uj / many_body.UJ_CRITICAL), valid


def find_mott_crossing(base: optics.OpticalConfig, delta_p: float,
                       bracket: tuple[float, float]) -> float:
    """Omega*/Gamma at which U/J first crosses the Mott critical ratio 3.85
    inside the bracket."""
    root, at = _first_crossing(base, delta_p, bracket, _log_uj,
                               f"U/J - {many_body.UJ_CRITICAL}")
    residual = abs(float(at.u_over_j) - many_body.UJ_CRITICAL)
    if not residual <= RESIDUAL_TOL:
        raise NoConvergence(
            f"|U/J - {many_body.UJ_CRITICAL}| = {residual} at Omega = {root} "
            f"exceeds {RESIDUAL_TOL}"
        )
    return root


def find_pinning_crossing(
    base: optics.OpticalConfig, delta_p: float, bracket: tuple[float, float],
) -> tuple[float, float, float]:
    """(Omega*/Gamma, gamma, V1/E_R) at the first sign change of the
    sine-Gordon pinning criterion V1/E_R - V1c(gamma) inside the bracket
    and the sG validity window."""
    root, at = _first_crossing(
        base, delta_p, bracket, lambda nodes: (nodes.f_sg, nodes.sg_valid),
        "the sine-Gordon pinning criterion")
    return root, float(at.gamma_abs), float(at.v1_over_er)


# --- phase boundaries via marching squares ---------------------------------

@dataclass(frozen=True)
class BoundaryPolyline:
    model: str                     # "BH" or "SG"
    vertices: list[tuple[float, float]]   # (delta_p, omega) pairs, ordered


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


def phase_boundaries(spec: GridSpec,
                     nodes: NodeFields | None = None) -> list[BoundaryPolyline]:
    """Zero contours of both decision functions, tagged by model of origin.

    nodes, when given, is evaluate_grid(spec), already computed.
    """
    dps = spec.delta_p_values()
    oms = spec.omega_values()
    if nodes is None:
        nodes = evaluate_grid(spec)
    out = []
    for model, f in (("BH", nodes.f_bh), ("SG", nodes.f_sg)):
        for chain in _marching_squares(dps, oms, f):
            out.append(BoundaryPolyline(model, [(float(x), float(y))
                                                for x, y in chain]))
    if not out:
        raise EmptyBoundary("no phase boundary crosses the scanned grid")
    return out
