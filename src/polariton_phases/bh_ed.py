"""Exact diagonalization of small 1D Bose-Hubbard chains.

Fixed-particle-number Fock basis with a per-site occupation cap, kept as
its base-(n_max+1) codes and ranked by them.  On a ring H is solved in
the k = 0, P = +1 sector of the dihedral group (rotations and the
mirror), where every ground state needed here lies: at J > 0 the hops
are <= 0 and the Fock graph is connected, so the ground state is nodeless
(Perron-Frobenius) and even under both.  One row per orbit of digit
rotations and reversal, hops weighted by sqrt(R_src / R_dst) (Sandvik,
AIP Conf. Proc. 1297, 135 (2010)).  Building a basis makes the codes and
the orbit arrays alone, and fixes the sector; the occupations are read
off the codes' digits on first use.  A digit rotation costs one
division, every state's orbit is ranked off one sort rather than a
binary search each, and the table entries and their transposes are put
in order by stable radix passes over 16-bit digits.  One hop enumerator
builds the hopping tables and the hops of <b+_0 b_d>, each on first use,
once per basis for every (J, U); <b+_0 b_d> is read off the sector
vector as the mean over the L translations and the mirror.  H is
scattered from the tables into a dense array for a sector of up to
DENSE_CUTOFF rows, with no sparse matrix built, and into CSR above; its
form picks the solver of its lowest eigenpair: LAPACK's dsyevr called
directly for an array, and for CSR of any size Lanczos with full
reorthogonalization from the uniform vector, its products H v from
scipy's CSR kernel csr_matvec called directly and its Ritz pairs from
LAPACK's dstebz and dstein called directly.  A `UnitFilling` chain holds
the N - 1, N and N + 1 bases of one (L, n_max, boundary), built once per
size and solved at every U/J: the charge gap as Mott diagnostic, and a
scaled-gap crossing estimate of the critical U/J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DimensionOverflow,
    DomainError,
    NoConvergence,
    NoCrossing,
    PolaritonError,
)

if TYPE_CHECKING:
    import scipy.sparse

# Largest sector whose H is built dense (dsyevr); CSR and Lanczos above.
# Measured crossover of the two lowest-eigenpair solvers on unit-filling
# chains (see README).
DENSE_CUTOFF = 160
BASIS_CAP = 2_000_000
RESIDUAL_TOL = 1e-10
# Lanczos: Krylov vectors kept at most, and steps between Ritz checks
LANCZOS_MAXITER = 300
RITZ_EVERY = 4


def count_states(sites: int, bosons: int, n_max: int) -> int:
    """Number of occupation vectors of `sites` >= 1 sites summing to
    `bosons`, each entry <= n_max (bounded compositions).

    Inclusion-exclusion over the k sites made to hold more than n_max:
    sum_k (-1)^k C(L, k) C(N - k (n_max + 1) + L - 1, L - 1).
    """
    return sum((-1) ** k * math.comb(sites, k)
               * math.comb(bosons - k * (n_max + 1) + sites - 1, sites - 1)
               for k in range(min(sites, bosons // (n_max + 1)) + 1))


@dataclass(frozen=True)
class HubbardTables:
    """H = J * hop + U * onsite, for any (J, U).

    `hop` holds -sqrt(n_src (n_dst + 1)) for every hop along a bond (J = 1;
    on a ring weighted by sqrt(R_src / R_dst) and summed over the hops
    joining two orbits) on one CSR pattern; `onsite[r]` holds row r's
    (1/2) sum_i n_i (n_i - 1) (U = 1), added on its diagonal slot diag[r].
    `flat` holds each entry's position row * dim + col in the flattened
    dense H, dim the number of rows.
    """

    indptr: np.ndarray
    indices: np.ndarray
    hop: np.ndarray
    diag: np.ndarray
    onsite: np.ndarray
    flat: np.ndarray


@dataclass(frozen=True, eq=False)
class FockBasis:
    """Occupation vectors in lexicographic order, kept as their codes, and
    the symmetry sector H is solved in, fixed with the boundary condition.

    `codes` reads each vector as a base-(n_max+1) number, site 0 the most
    significant digit; lexicographic order makes the codes increasing, so
    `np.searchsorted` ranks any state.  On a `ring` the sector is k = 0,
    P = +1, fully symmetric under the rotations and the mirror: one row per
    orbit of the dihedral group, the translation orbit of a state joined
    with that of its mirror image.  Otherwise it is one row per state.
    `reps` holds the basis row of each sector row's representative, the
    smallest code of its orbit (increasing), `index` the sector row of
    every basis state and `size` the number R of states in each orbit.
    `build` makes the codes and these orbit arrays, nothing else; the rest
    is derived on first use: `rep_occ`, the representatives' occupations,
    is read off their codes (`digits` gives any state's), and `tables`, H
    on the sector, and `correlator_hops`, the hops of <b+_0 b_d>, are
    enumerated from them.
    """

    sites: int
    bosons: int
    n_max: int
    periodic: bool
    codes: np.ndarray                # (dim,) strictly increasing
    reps: np.ndarray                 # (rows,)
    index: np.ndarray                # (dim,)
    size: np.ndarray                 # (rows,)

    @classmethod
    def build(cls, sites: int, bosons: int, n_max: int,
              periodic: bool = True) -> "FockBasis":
        if sites < 1 or bosons < 0 or n_max < 1:
            raise DomainError("need sites >= 1, bosons >= 0, n_max >= 1")
        # n_max >= 1, so 63 sites or more overflow without the power
        if sites >= 63 or (n_max + 1) ** sites > np.iinfo(np.int64).max:
            raise DimensionOverflow(
                f"occupation codes of {sites} sites capped at {n_max} "
                "overflow int64"
            )
        dim = count_states(sites, bosons, n_max)
        if dim == 0:
            raise DomainError(
                f"no states: {bosons} bosons on {sites} sites capped at {n_max}"
            )
        if dim > BASIS_CAP:
            raise DimensionOverflow(
                f"basis dimension {dim} exceeds cap {BASIS_CAP}")
        codes = _codes(sites, bosons, n_max)
        if len(codes) != dim:
            raise PolaritonError(
                f"enumerated {len(codes)} states, expected {dim}"
            )
        ring = periodic and sites > 2             # the `ring` property
        return cls(sites, bosons, n_max, periodic, codes,
                   *_orbits(codes, sites, n_max + 1, ring))

    @property
    def dim(self) -> int:
        return self.codes.size

    @property
    def place(self) -> np.ndarray:
        """(sites,) the weight b^(L-1-i) of site i's digit in a code,
        b = n_max + 1."""
        return (self.n_max + 1) ** np.arange(self.sites - 1, -1, -1,
                                             dtype=np.int64)

    def digits(self, codes: np.ndarray) -> np.ndarray:
        """(codes.size, sites) occupations of the given codes."""
        return codes[:, None] // self.place % (self.n_max + 1)

    @cached_property
    def rep_occ(self) -> np.ndarray:
        """(rows, sites) occupations of the representatives."""
        return self.digits(self.codes[self.reps])

    @property
    def ring(self) -> bool:
        """A ring of three or more sites; the two-site ring is the open
        pair."""
        return self.periodic and self.sites > 2

    @cached_property
    def correlator_hops(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """`hops` of the terms of <b+_0 b_d> for d = 1, 2, ...: on a ring
        from i + d and from i - d to i, for every i, up to d = L/2 (the
        mirror maps one onto the other, so only their sum acts on the
        sector; the vector is real, so d and L - d agree); i = 0 alone on
        an open chain, from d, up to d = L - 1.  One call per d, enumerated
        once per basis, for every U/J."""
        L = self.sites
        if self.ring:
            dst, sign = np.tile(np.arange(L), 2), np.repeat([1, -1], L)
        else:
            dst, sign = np.zeros(1, dtype=int), np.ones(1, dtype=int)
        last = L // 2 if self.ring else L - 1
        return tuple(self.hops((dst + sign * d) % L, dst)
                     for d in range(1, last + 1))

    def hops(self, src: np.ndarray, dst: np.ndarray):
        """b+_dst b_src, pair by pair (src[k] -> dst[k]), on every
        representative: (target sector rows, source rows, increasing within
        a pair so that the codes ranked come in sorted runs, amplitudes
        sqrt(n_src (n_dst + 1)) sqrt(R_src/R_dst))."""
        n_src, n_dst = self.rep_occ[:, src].T, self.rep_occ[:, dst].T
        move = (n_src > 0) & (n_dst < self.n_max)     # (pairs, rows)
        pair, col = move.nonzero()
        place = self.place
        moved = self.codes[self.reps[col]] + (place[dst] - place[src])[pair]
        row = self.index[self.codes.searchsorted(moved)]
        amp = np.sqrt(n_src[move] * (n_dst[move] + 1.0)) \
            * np.sqrt(self.size[col] / self.size[row])
        return row, col, amp

    @cached_property
    def tables(self) -> HubbardTables:
        """Hopping and interaction tables on the sector rows, built on first
        use, once the temporaries of `build` are gone.

        Hops along every bond in both directions are enumerated from every
        representative in one `hops` call, each with amplitude -sqrt(n_src
        (n_dst + 1)) sqrt(R_src / R_dst): on a ring the block Q^T H Q of H,
        Q[s, r] = 1 / sqrt(R_r) on orbit r.  Both directions, since the
        mirror maps right hops onto left ones.  One coalesce sums the hops
        joining two rows, with a zero on every diagonal slot to make room
        for U; each entry is then the half sum of itself and its transpose,
        so H is symmetric to the last bit.  On an open chain an entry and
        its transpose are one hop each, the same product, and the half sum
        keeps them.  The pattern is symmetric, so the entries ordered by
        column (stably, so by row within a column) are their transposes in
        the entries' own order: that order gives each entry its
        transpose's slot, with no search.
        """
        L, dim = self.sites, self.reps.size
        src = np.arange(L if self.ring else L - 1)
        dst = (src + 1) % L
        row, col, amp = self.hops(np.concatenate((src, dst)),
                                  np.concatenate((dst, src)))
        diag = np.arange(dim)
        flat, hop = _coalesce(np.concatenate((diag * (dim + 1),
                                              row * dim + col)),
                              np.concatenate((np.zeros(dim), -amp)))
        del row, col, amp       # so the transpose order stays under the peak
        rows, cols = np.divmod(flat, dim)
        transpose = np.empty_like(flat)
        transpose[_stable_order(cols)] = np.arange(flat.size)
        hop = 0.5 * (hop + hop[transpose])
        indptr = np.zeros(dim + 1, dtype=np.int64)
        np.bincount(rows, minlength=dim).cumsum(out=indptr[1:])
        occ = self.rep_occ
        return HubbardTables(indptr, cols, hop, (rows == cols).nonzero()[0],
                             0.5 * (occ * (occ - 1)).sum(axis=1), flat)


def _codes(sites: int, bosons: int, n_max: int) -> np.ndarray:
    """Codes of every occupation vector of `sites` sites summing to
    `bosons`, each entry <= n_max, increasing.

    Site by site, each prefix takes every occupation that leaves a
    remainder the later sites can still hold, in increasing order; a
    prefix's code gains one base-(n_max+1) digit per site.
    """
    codes = np.zeros(1, dtype=np.int64)
    left = np.array([bosons], dtype=np.int64)
    for site in range(sites):
        room = n_max * (sites - site - 1)
        lo = np.maximum(left - room, 0)
        counts = np.minimum(left, n_max) - lo + 1
        parent = np.arange(left.size).repeat(counts)
        first = counts.cumsum() - counts
        k = lo[parent] + np.arange(parent.size) - first[parent]
        codes = codes[parent] * (n_max + 1) + k
        left = left[parent] - k
    return codes


def _orbits(codes: np.ndarray, sites: int, base: int,
            ring: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(reps, index, size) of the sector: dihedral orbits on a ring,
    single-state orbits otherwise.

    A translation rotates a code's digits: with lead = code // b^(L-1),
    the leading digit (b = `base`), the rotated code is code * b - lead *
    (b^L - 1), one division a rotation.  int64 wraps modulo 2^64 where the
    products pass it, and the result, below b^L, is exact.  The smallest of
    the L rotations represents the translation orbit, of L / #{rotations
    equal to the code} states.  Each state's orbit rank is counted off one
    sort of the representatives: equal ones share a rank, so the sort need
    not be stable.  The mirror reverses the digits, and maps each
    translation orbit onto the orbit of its representative's mirrored
    code, ranked once.  The lower orbit of the pair, whose representative
    is the smallest of the 2L images, represents both; R doubles where the
    two differ.
    """
    if not ring:
        rows = np.arange(codes.size)
        return rows, rows, np.ones_like(rows)
    top = base ** (sites - 1)
    wrap = top * base - 1
    rep, fixed = codes.copy(), np.ones_like(codes)
    rotated, lead = codes.copy(), np.empty_like(codes)
    for _ in range(sites - 1):
        np.floor_divide(rotated, top, out=lead)
        lead *= wrap
        rotated *= base
        rotated -= lead
        np.minimum(rep, rotated, out=rep)
        fixed += rotated == codes
    # each full-basis array goes once read, so the mirror pass stays under
    # the rotations' peak
    del rotated, lead
    reps = (rep == codes).nonzero()[0]
    size = (sites // fixed)[reps]
    del fixed
    order = rep.argsort()
    rank = _run_heads(rep[order]).cumsum()
    del rep
    rank -= 1
    orbit = np.empty_like(order)
    orbit[order] = rank
    del order, rank
    code, mirror = codes[reps], np.zeros_like(reps)
    for _ in range(sites):
        code, digit = np.divmod(code, base)
        mirror = mirror * base + digit
    partner = orbit[codes.searchsorted(mirror)]
    own = np.arange(reps.size)
    lower = np.minimum(partner, own)
    keep = (lower == own).nonzero()[0]
    size[partner != own] *= 2
    return reps[keep], keep.searchsorted(lower)[orbit], size[keep]


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """np.argsort(keys, kind="stable") of non-negative int64 keys.

    Least significant digit first, one stable sort of each 16-bit digit,
    which numpy radix-sorts (uint16, kind="stable"): linear passes, as
    many as the largest key has digits, at least one.
    """
    order = keys.astype(np.uint16).argsort(kind="stable")
    top, shift = int(keys.max(initial=0)) >> 16, 16
    while top:
        digit = (keys >> shift).astype(np.uint16)[order]
        order = order[digit.argsort(kind="stable")]
        top, shift = top >> 16, shift + 16
    return order


def _coalesce(keys, values):
    """(sorted distinct keys >= 0, the sum of the values of each).

    The keys' stable order, from radix passes (`_stable_order`), keeps the
    entries of one key in their given order, so the sums add in a fixed
    order.  That order is unique, so any stable sort gives these bits.
    """
    order = _stable_order(keys)
    keys = keys[order]
    starts = _run_heads(keys).nonzero()[0]
    return keys[starts], np.add.reduceat(values[order], starts)


def _run_heads(ranked: np.ndarray) -> np.ndarray:
    """True where a run of equal entries of a sorted array starts."""
    heads = np.empty(ranked.size, dtype=bool)
    heads[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=heads[1:])
    return heads


def build_hamiltonian(basis: FockBasis, j: float, u: float):
    """H = -J sum_i (b+_i b_{i+1} + h.c.) + (U/2) sum_i n_i (n_i - 1).

    Real symmetric, on the basis's sector, in the form `ground_energy`
    solves: a dense array up to DENSE_CUTOFF rows, CSR above.  Scaled from
    the basis's tables, which every (J, U) shares.  J, U >= 0 and every
    entry finite, or DomainError.
    """
    if not (j >= 0 and u >= 0):
        raise DomainError("j and u must be non-negative")
    tables = basis.tables
    with np.errstate(over="ignore", invalid="ignore"):
        data = j * tables.hop
        data[tables.diag] += u * tables.onsite
    if not np.isfinite(data).all():
        raise DomainError(f"H overflows at J = {j}, U = {u}")
    dim = tables.indptr.size - 1
    if dim <= DENSE_CUTOFF:
        h = np.zeros(dim * dim)
        h[tables.flat] = data
        return h.reshape(dim, dim)
    import scipy.sparse   # ~0.3 s to import; only the large ED solves use it
    return scipy.sparse.csr_matrix(
        (data, tables.indices, tables.indptr), shape=(dim, dim), copy=True)


def ground_energy(h) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of a real symmetric float64 H, a dense array or
    CSR (what `build_hamiltonian` returns).

    A diagonal H is read off directly: its lowest entry, that unit vector.
    Otherwise the form of H picks the solver: `_dense_lowest` for an
    array, `_lanczos` for CSR of any size, started from the uniform vector:
    for J > 0 the ground state has all-positive amplitudes, so the start
    overlaps it, and a fixed start makes the result reproducible.  Every
    eigenpair must pass the residual test |H v - E v| <= RESIDUAL_TOL
    max(|E|, 1).
    """
    dense = isinstance(h, np.ndarray)
    diag = h.diagonal()
    if np.count_nonzero(h if dense else h.data) == np.count_nonzero(diag):
        k = int(np.argmin(diag))
        vec = np.zeros(diag.size)
        vec[k] = 1.0
        return float(diag[k]), vec
    if dense:
        e0, vec = _dense_lowest(h)
        hv = h @ vec
    else:
        from scipy.sparse._sparsetools import csr_matvec
        e0, vec = _lanczos(h)
        hv = np.zeros_like(vec)
        csr_matvec(*h.shape, h.indptr, h.indices, h.data, vec, hv)
    with np.errstate(over="ignore"):         # an inf residual fails below
        res = np.linalg.norm(hv - e0 * vec)
    if res > RESIDUAL_TOL * max(abs(e0), 1.0):
        raise NoConvergence(f"eigen residual {res} too large for e0 = {e0}")
    return e0, vec


def _dense_lowest(h: np.ndarray) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of a dense real symmetric H.

    The LAPACK call of scipy.linalg.eigh(h, subset_by_index=[0, 0]),
    dsyevr by index with its work sizes from dsyevr_lwork, made directly:
    the same bits without its argument checks and routine lookup, which
    cost more than the routine on a small sector.  A nonzero LAPACK info
    raises NoConvergence.
    """
    from scipy.linalg import lapack
    n = h.shape[0]
    lwork, liwork, info = lapack.dsyevr_lwork(n, lower=1)
    if info == 0:
        w, v, _, _, info = lapack.dsyevr(h, range="I", lower=1, il=1, iu=1,
                                         lwork=int(lwork), liwork=liwork)
    if info != 0:
        raise NoConvergence(f"LAPACK dsyevr info = {info} on an H of "
                            f"order {n}")
    return float(w[0]), v[:, 0]


def _lanczos(h: scipy.sparse.csr_matrix) -> tuple[float, np.ndarray]:
    """Lowest Ritz pair of H by Lanczos from the uniform vector.

    Each step subtracts alpha_j v_j + beta_{j-1} v_{j-1} from H v_j and then
    makes one Gram-Schmidt pass against every stored Krylov vector: once
    the Ritz vector converges, the plain recurrence loses orthogonality
    (Paige, J. Inst. Math. Appl. 10, 373 (1972)) and returns spurious
    eigenvalues.  Every RITZ_EVERY steps the lowest eigenpair (theta, y)
    of the tridiagonal T_m is found; the residual of its Ritz vector is
    |beta_m y_m|, and the run stops once that is <= RESIDUAL_TOL
    max(|theta|, 1) / 10, which a breakdown (beta_m ~ 0, an invariant
    Krylov space) meets at once.  One stored vector per step, at most
    LANCZOS_MAXITER of them.  Each H v_j is scipy's csr_matvec kernel, the
    routine `h @ v` ends in, called on the arrays of h (float64, as
    `build_hamiltonian` makes them) into one vector kept for the run: it
    adds each row's products in order onto that vector, zeroed first as
    `h @ v` zeroes its result, so the bits are those of `h @ v` without
    the operator dispatch scipy spends before the kernel (about as long
    as the kernel itself on an L = 8 sector).
    """
    from scipy.sparse._sparsetools import csr_matvec
    dim = h.shape[0]
    steps = min(dim, LANCZOS_MAXITER)
    krylov = np.empty((steps, dim))
    krylov[0] = 1.0 / np.sqrt(dim)
    alpha, beta = np.empty(steps), np.empty(steps)
    stop = 0.1 * RESIDUAL_TOL
    w = np.empty(dim)
    with np.errstate(over="ignore", invalid="ignore"):   # checked on beta
        for m in range(1, steps + 1):
            v, done = krylov[m - 1], krylov[:m]
            w.fill(0.0)
            csr_matvec(dim, dim, h.indptr, h.indices, h.data, v, w)
            alpha[m - 1] = a = v @ w
            w -= a * v
            if m > 1:
                w -= beta[m - 2] * krylov[m - 2]
            w -= (done @ w) @ done
            beta[m - 1] = b = math.sqrt(w @ w)
            if not math.isfinite(b):
                raise NoConvergence(f"Lanczos overflows at step {m}")
            if m % RITZ_EVERY == 0 or m == steps or b <= stop:
                theta, y = _lowest_ritz(alpha[:m], beta[:m - 1])
                if abs(b * y[-1]) <= stop * max(abs(theta), 1.0):
                    return theta, y @ done
            if m < steps:
                np.divide(w, b, out=krylov[m])
    raise NoConvergence(f"Lanczos did not converge in {steps} steps")


def _lowest_ritz(d: np.ndarray, e: np.ndarray) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of the symmetric tridiagonal matrix with diagonal d
    and off-diagonal e.

    The LAPACK calls of scipy.linalg.eigh_tridiagonal(d, e, select="i",
    select_range=(0, 0)), bisection (dstebz) and inverse iteration
    (dstein), made directly: the same bits without its argument checks and
    routine lookup, which cost more than the two routines on a Lanczos T_m
    (~40 us against 6-15 us).  A nonzero LAPACK info raises NoConvergence.
    """
    if d.size == 1:
        return float(d[0]), np.ones(1)
    from scipy.linalg import lapack
    # range 2 (by index; vl, vu unused), il = iu = 1, abstol 0 (LAPACK's
    # own tolerance, eigh_tridiagonal's default), eigenvalues ordered by
    # split block, as dstein needs
    m, w, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 1.0, 1, 1,
                                               0.0, "B")
    if info == 0:
        y, info = lapack.dstein(d, e, w[:m], iblock, isplit)
    if info != 0:
        raise NoConvergence(f"LAPACK tridiagonal eigensolver info = {info} "
                            f"on a Lanczos T of order {d.size}")
    return float(w[0]), y[:, 0]


@dataclass(frozen=True)
class EdResult:
    sites: int
    bosons: int
    n_max: int
    u_over_j: float
    e0: float            # in units of J
    gap: float           # charge gap, units of J
    var_n: float         # site-averaged on-site number variance
    corr: tuple[float, ...]   # <b+_0 b_d> for d = 0 .. L-1


@dataclass(frozen=True, eq=False)
class UnitFilling:
    """One chain at unit filling N = sites: the bases of N - 1, N and N + 1
    bosons, built once, so a scan over U/J reuses them and their tables."""

    sites: int
    n_max: int
    periodic: bool
    bases: dict[int, FockBasis]      # boson number -> basis

    @classmethod
    def build(cls, sites: int, n_max: int,
              periodic: bool = True) -> "UnitFilling":
        """The chain's three bases; n_max >= 2, or DomainError."""
        if n_max < 2:
            raise DomainError(
                "unit filling needs n_max >= 2 for the charge gap, whose "
                f"L + 1 bosons must fit on L sites; got n_max = {n_max}")
        return cls(sites, n_max, periodic,
                   {n: FockBasis.build(sites, n, n_max, periodic)
                    for n in (sites - 1, sites, sites + 1)})

    def solve(self, u: float) -> tuple[float, np.ndarray, float]:
        """E0(N), its eigenvector and the charge gap E0(N+1) + E0(N-1) -
        2 E0(N) at J = 1: the three solves behind every ED result."""
        def lowest(bosons):
            return ground_energy(
                build_hamiltonian(self.bases[bosons], 1.0, u))

        e0, vec = lowest(self.sites)
        e_hi, e_lo = lowest(self.sites + 1)[0], lowest(self.sites - 1)[0]
        return e0, vec, e_hi + e_lo - 2 * e0

    def number_moments(self, vec: np.ndarray) -> tuple[np.ndarray, float]:
        """<n_i> per site (one entry, the site mean, on a ring: translation
        invariant) and the site-averaged variance of n_i in the N sector
        vector `vec`."""
        occ = self.bases[self.sites].rep_occ
        mean_n, mean_n2 = vec**2 @ occ, vec**2 @ occ**2     # per site
        if self.bases[self.sites].ring:   # every site holds the site mean
            mean_n, mean_n2 = np.mean([mean_n, mean_n2], axis=1,
                                      keepdims=True)
        return mean_n, float(np.mean(mean_n2 - mean_n**2))

    def diagnostics(self, u_over_j: float) -> EdResult:
        """Full set of ground-state diagnostics at J = 1."""
        sites = self.sites
        e0, vec, gap = self.solve(float(u_over_j))
        mean_n, var_n = self.number_moments(vec)

        # <b+_0 b_d>, on a ring averaged over the L translations and the
        # mirror (i + d -> i and i - d -> i)
        basis = self.bases[sites]
        pairs = 2 * sites if basis.ring else 1
        corr = [float(mean_n[0])]
        corr += [float(vec[rows] @ (amp * vec[cols])) / pairs
                 for rows, cols, amp in basis.correlator_hops]
        corr += [corr[sites - d] for d in range(len(corr), sites)]  # ring
        return EdResult(sites, sites, self.n_max, u_over_j, e0, gap, var_n,
                        tuple(corr))


def diagnostics(sites: int, n_max: int, u_over_j: float,
                periodic: bool = True) -> EdResult:
    """`UnitFilling.diagnostics` at one U/J, on a chain built for it."""
    return UnitFilling.build(sites, n_max, periodic).diagnostics(u_over_j)


@dataclass(frozen=True)
class CriticalEstimate:
    mean: float
    spread: float
    crossings: tuple[float, ...]


def estimate_critical_ratio(sizes: list[int], ratios: list[float],
                            n_max: int = 4,
                            periodic: bool = True) -> CriticalEstimate:
    """Critical U/J from crossings of the scaled charge gap L * gap(L, U/J).

    Finite-size curves for different L cross near the transition.  At small
    U/J the curves are nearly degenerate and graze each other, so for each
    size pair only the largest-U/J sign change is kept: past it the larger
    chain stays above for good (Mott separation).  The mean of the pairwise
    crossings is the estimate.  spread is the range of the pairwise
    crossings, not an error bar: the crossings drift with L (the
    transition is Kosterlitz-Thouless, so a crossing of L * gap is biased)
    and a small spread does not bound the distance to the L -> inf value.
    """
    if len(sizes) < 2 or len(set(sizes)) < len(sizes):
        raise NoCrossing(f"need 2+ chain lengths, all distinct: {sizes}")
    if len(ratios) < 5:
        raise NoCrossing("need at least five U/J samples")
    ratios = sorted(float(r) for r in ratios)
    scaled = {}
    for L in sizes:
        chain = UnitFilling.build(L, n_max, periodic)
        scaled[L] = np.array([L * chain.solve(r)[2] for r in ratios])
    crossings = []
    for i, l1 in enumerate(sizes):
        for l2 in sizes[i + 1:]:
            d = scaled[l1] - scaled[l2]
            pair_crossings = []
            for a in range(len(ratios) - 1):
                if d[a] == 0:
                    pair_crossings.append(ratios[a])
                elif (d[a] < 0) != (d[a + 1] < 0):
                    t = d[a] / (d[a] - d[a + 1])
                    pair_crossings.append(
                        ratios[a] + t * (ratios[a + 1] - ratios[a])
                    )
            if pair_crossings:
                crossings.append(pair_crossings[-1])
    if not crossings:
        raise NoCrossing("scaled-gap curves do not cross in the given range")
    arr = np.array(crossings)
    return CriticalEstimate(float(arr.mean()),
                            float(arr.max() - arr.min()),
                            tuple(float(c) for c in arr))
