"""Reference values and output checks for the benchmark's operations.

Every reference is recomputed here from the closed forms and from small
solvers written for this file; none calls the package.  A change to the
package therefore cannot move its own yardstick.  Each check returns an
empty string when the output is right and the reason when it is not.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter

import numpy as np
import scipy.optimize
import scipy.sparse
import scipy.sparse.linalg

UJ_CRITICAL = 3.85      # Mott critical U/J of the 1D Bose-Hubbard chain
UJ_TOL = 1e-4           # |U/J - 3.85| at a reported Mott root
ROOT_TOL = 1e-6         # |Omega - reference| at a reported root, Gamma units
ED_TOL = 1e-8           # e0, gap (units of J) and var_n
CRIT_TOL = 1e-6         # mean of the scaled-gap crossings, U/J units
NORM_TOL = 1e-9         # |<|psi|^2> - 1| along a lossless trajectory
ENERGY_RTOL = 1e-7      # final NLSE energy against the ground-state energy
SG_SCAN_POINTS = 64     # pinning scan points, as in find_pinning_crossing


# --- optics -> many-body closed forms ------------------------------------

def gamma_depth(opt: dict, delta_p, omega):
    """(|gamma|, V1/E_R) of the optics map, broadcast over arrays."""
    lam = omega**2 / (omega**2 - opt["delta_small"] * opt["delta0"] / 2)
    xi = (delta_p - opt["delta_small"] / 2) / (delta_p - opt["delta_small"])
    g1d = opt["gamma_1d_ratio"]
    gamma = np.abs((lam**2 * xi / 8) * (g1d**2 / (opt["delta0"] * delta_p))
                   * (opt["n0"] / opt["n_ph"]))
    n1 = opt["n1_fraction"] * opt["n0"]
    depth = ((lam / (8 * math.pi**2)) * (g1d**2 / omega**2)
             * (opt["delta_small"] / opt["delta0"])
             * (opt["n0"] * n1 / opt["n_ph"]**2))
    return gamma, depth


def u_over_j(gamma, depth):
    j = 4 * depth**0.75 * np.exp(-2 * np.sqrt(depth)) / math.sqrt(math.pi)
    u = math.sqrt(2 / math.pi**3) * depth**0.25 * gamma
    return u / j


def sg_excess(gamma, depth):
    """V1/E_R minus the sine-Gordon critical depth; NaN outside its window."""
    valid = (gamma >= 1.0) & (gamma <= 5.0) & (depth <= 3.0)
    rad = gamma - gamma**1.5 / (2 * math.pi)
    with np.errstate(invalid="ignore", divide="ignore"):
        crit = np.maximum(0.0, 2 * math.pi / np.sqrt(rad) - 4)
    return np.where(valid, depth - crit, np.nan)


def phase_fields(opt: dict, dps, oms):
    """(labels, f_bh, f_sg) on the grid, indexed [delta_p, omega]."""
    gamma, depth = np.broadcast_arrays(
        *gamma_depth(opt, dps[:, None], oms[None, :]))
    bh = (gamma <= 1.0) & (depth >= 3.0)
    uj = u_over_j(gamma, depth)
    f_bh = np.where(bh, uj - UJ_CRITICAL, np.nan)
    f_sg = sg_excess(gamma, depth)
    sg = np.isfinite(f_sg)
    labels = np.full(gamma.shape, "INDETERMINATE", dtype=object)
    labels[bh] = np.where(uj[bh] >= UJ_CRITICAL, "MOTT_BH", "SF")
    pinned = (depth[sg] > 0) & (f_sg[sg] >= 0)
    labels[sg] = np.where(pinned, "MOTT_SG", "SF")
    return labels, f_bh, f_sg


def contour_count(f: np.ndarray) -> int:
    """Number of polylines in the zero contour of f by marching squares.

    Cells with a non-finite corner are skipped; a saddle cell's four
    crossings pair in corner order.  Each crossing is named by its grid edge,
    each segment joins two crossings, and a polyline is a connected set of
    segments.
    """
    parent = {}

    def find(a):
        while parent.setdefault(a, a) != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    neg = f < 0
    fin = np.isfinite(f)
    cells = fin[:-1, :-1] & fin[1:, :-1] & fin[1:, 1:] & fin[:-1, 1:]
    n_neg = (neg[:-1, :-1].astype(int) + neg[1:, :-1] + neg[1:, 1:]
             + neg[:-1, 1:])
    for i, j in np.argwhere(cells & (n_neg > 0) & (n_neg < 4)).tolist():
        corners = ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1))
        pts = []
        for k in range(4):
            a, b = corners[k], corners[(k + 1) % 4]
            if neg[a] != neg[b]:
                pts.append((min(a, b), max(a, b)))
        for a, b in zip(pts[0::2], pts[1::2]):
            parent[find(a)] = find(b)
    return len({find(a) for a in list(parent)})


def phase_reference(opt: dict, dps, oms) -> dict:
    labels, f_bh, f_sg = phase_fields(opt, np.asarray(dps), np.asarray(oms))
    return {"labels": dict(Counter(labels.ravel().tolist())),
            "polylines": {"BH": contour_count(f_bh),
                          "SG": contour_count(f_sg)}}


def mott_root(opt: dict, delta_p: float, bracket) -> float:
    f = lambda om: float(u_over_j(*gamma_depth(opt, delta_p, om))) \
        - UJ_CRITICAL
    return scipy.optimize.brentq(f, *bracket, xtol=1e-14, rtol=1e-15)


def pinning_root(opt: dict, delta_p: float, bracket) -> float:
    """First sign change of the pinning criterion between valid scan points."""
    oms = np.linspace(bracket[0], bracket[1], SG_SCAN_POINTS)
    vals = sg_excess(*gamma_depth(opt, delta_p, oms))
    f = lambda om: float(sg_excess(*gamma_depth(opt, delta_p, np.array(om))))
    for k in range(SG_SCAN_POINTS - 1):
        a, b = vals[k], vals[k + 1]
        if np.isfinite(a) and np.isfinite(b) and (a < 0) != (b < 0):
            return scipy.optimize.brentq(f, oms[k], oms[k + 1], xtol=1e-14,
                                         rtol=1e-15)
    raise ValueError(f"no pinning bracket at delta_p = {delta_p}")


# --- Bose-Hubbard exact diagonalization ----------------------------------

def _ground(sites: int, bosons: int, n_max: int, u: float, periodic: bool,
            want_state: bool):
    base = n_max + 1
    weights = base ** np.arange(sites - 1, -1, -1)
    codes = np.arange(base**sites)
    occ = (codes[:, None] // weights) % base
    keep = occ.sum(axis=1) == bosons
    occ, codes = occ[keep], codes[keep]
    dim = len(codes)
    rows, cols, vals = [np.arange(dim)], [np.arange(dim)], \
        [0.5 * u * (occ * (occ - 1)).sum(axis=1)]
    bonds = [(i, i + 1) for i in range(sites - 1)]
    if periodic and sites > 2:
        bonds.append((sites - 1, 0))
    for a, b in bonds:
        for src, dst in ((a, b), (b, a)):
            ok = (occ[:, src] > 0) & (occ[:, dst] < n_max)
            new = codes[ok] - weights[src] + weights[dst]
            rows.append(np.searchsorted(codes, new))
            cols.append(np.flatnonzero(ok))
            vals.append(-np.sqrt(occ[ok, src] * (occ[ok, dst] + 1.0)))
    h = scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim))
    if dim <= 64:
        w, v = np.linalg.eigh(h.toarray())
    else:
        w, v = scipy.sparse.linalg.eigsh(h, k=1, which="SA", tol=0,
                                         v0=np.ones(dim))
    if not want_state:
        return float(w[0])
    p = v[:, 0] ** 2
    var_n = float(np.mean(p @ occ**2 - (p @ occ) ** 2))
    return float(w[0]), var_n


class EdReference:
    """Unit-filling ground-state data at J = 1, cached per (L, n_max, U/J)."""

    def __init__(self, periodic: bool = True):
        self.periodic = periodic
        self._cache = {}

    def point(self, sites: int, n_max: int, uj: float) -> tuple:
        """(e0, charge gap, var_n)."""
        key = (sites, n_max, float(uj))
        if key not in self._cache:
            e0, var_n = _ground(sites, sites, n_max, uj, self.periodic, True)
            up = _ground(sites, sites + 1, n_max, uj, self.periodic, False)
            down = _ground(sites, sites - 1, n_max, uj, self.periodic, False)
            self._cache[key] = (e0, up + down - 2 * e0, var_n)
        return self._cache[key]

    def critical_mean(self, sizes, ratios, n_max: int) -> float:
        """Mean over size pairs of the last crossing of L * gap(L, U/J)."""
        ratios = sorted(float(r) for r in ratios)
        scaled = {L: np.array([L * self.point(L, n_max, r)[1]
                               for r in ratios]) for L in sizes}
        crossings = []
        for i, l1 in enumerate(sizes):
            for l2 in sizes[i + 1:]:
                d = scaled[l1] - scaled[l2]
                last = None
                for a in range(len(ratios) - 1):
                    if d[a] == 0:
                        last = ratios[a]
                    elif (d[a] < 0) != (d[a + 1] < 0):
                        t = d[a] / (d[a] - d[a + 1])
                        last = ratios[a] + t * (ratios[a + 1] - ratios[a])
                if last is not None:
                    crossings.append(last)
        if not crossings:
            raise ValueError("scaled-gap curves do not cross")
        return float(np.mean(crossings))


# --- lattice NLSE --------------------------------------------------------

def nlse_ground_energy(s: float, g: float, grid_points: int,
                       n_periods: int) -> float:
    """Mean-field ground-state energy density of the discretized NLSE.

    The ground state has the lattice period, so one period of the same grid
    spacing carries the whole problem.  Self-consistent field iteration:
    the lowest eigenvector of T + s cos^2 + g|psi|^2, with T the spectral
    -d^2 operator, refreshes the density until it stops changing.
    """
    m = grid_points // n_periods
    dx = math.pi * n_periods / grid_points
    xi = np.arange(m) * dx
    k = 2 * math.pi * np.fft.fftfreq(m, d=dx)
    kin = np.real(np.fft.ifft(k[:, None] ** 2 * np.fft.fft(np.eye(m), axis=0),
                              axis=0))
    pot = s * np.cos(xi) ** 2
    dens = np.ones(m)
    for _ in range(500):
        _, v = np.linalg.eigh(kin + np.diag(pot + g * dens))
        psi = v[:, 0] * math.sqrt(m)
        new = 0.5 * dens + 0.5 * psi**2
        if np.max(np.abs(new - dens)) < 1e-10:
            dens = new
            break
        dens = new
    else:
        raise ValueError("self-consistent field did not converge")
    _, v = np.linalg.eigh(kin + np.diag(pot + g * dens))
    psi = v[:, 0] * math.sqrt(m)
    return float((psi @ kin @ psi) / m + np.mean(pot * psi**2)
                 + 0.5 * g * np.mean(psi**4))


# --- output checks -------------------------------------------------------

def _csv_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def check_grid(csv_path, ref: dict, nodes: int) -> str:
    rows = _csv_rows(csv_path)
    if len(rows) != nodes:
        return f"{len(rows)} grid rows, expected {nodes}"
    labels = dict(Counter(r["phase"] for r in rows))
    if labels != ref["labels"]:
        return f"phase labels {labels} != reference {ref['labels']}"
    return ""


def check_boundaries(json_path, ref: dict) -> str:
    with open(json_path) as fh:
        doc = json.load(fh)
    counts = dict(Counter(b["model"] for b in doc["boundaries"]))
    want = {m: n for m, n in ref["polylines"].items() if n}
    if counts != want:
        return f"boundary polylines {counts} != reference {want}"
    return ""


def check_mott_root(json_path, ref_root: float) -> str:
    with open(json_path) as fh:
        doc = json.load(fh)
    if abs(doc["u_over_j"] - UJ_CRITICAL) > UJ_TOL:
        return f"U/J = {doc['u_over_j']} at the root"
    if abs(doc["omega_over_gamma"] - ref_root) > ROOT_TOL:
        return f"root {doc['omega_over_gamma']} != reference {ref_root}"
    return ""


def check_root(root: float, ref_root: float) -> str:
    if abs(root - ref_root) > ROOT_TOL:
        return f"root {root} != reference {ref_root}"
    return ""


def check_ed(csv_path, ed_ref: EdReference, expected: list) -> str:
    """expected: (L, n_max, U/J) per row, in the CLI's row order."""
    rows = _csv_rows(csv_path)
    if len(rows) != len(expected):
        return f"{len(rows)} ED rows, expected {len(expected)}"
    for row, (L, n_max, uj) in zip(rows, expected):
        e0, gap, var_n = ed_ref.point(L, n_max, uj)
        got = (float(row["e0_over_j"]), float(row["gap_over_j"]),
               float(row["var_n"]))
        if int(row["L"]) != L or max(abs(a - b) for a, b in
                                     zip(got, (e0, gap, var_n))) > ED_TOL:
            return f"ED row {row} != reference {(L, e0, gap, var_n)}"
    return ""


def check_critical(mean: float, ref_mean: float) -> str:
    if abs(mean - ref_mean) > CRIT_TOL:
        return f"critical U/J {mean} != reference {ref_mean}"
    return ""


def check_nlse(csv_path, ref_energy: float) -> str:
    rows = _csv_rows(csv_path)
    drift = max(abs(float(r["norm"]) - 1.0) for r in rows)
    if drift > NORM_TOL:
        return f"lossless norm drifted by {drift}"
    final = float(rows[-1]["energy"])
    if abs(final - ref_energy) > ENERGY_RTOL * max(1.0, abs(ref_energy)):
        return f"final energy {final} != reference {ref_energy}"
    return ""
