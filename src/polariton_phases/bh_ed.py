"""Exact diagonalization of small 1D Bose-Hubbard chains.

Fixed-particle-number Fock basis with a per-site occupation cap, held as an
occupation array and ranked by base-(n_max+1) code; hopping and interaction
tables built once per basis and reused for every (J, U); the lowest
eigenpair by dense or Lanczos diagonalization; the charge gap as Mott
diagnostic, and a scaled-gap crossing estimate of the critical U/J.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionOverflow,
    DomainError,
    NoConvergence,
    NoCrossing,
    PolaritonError,
)

# Largest dimension solved by dense eigh; Lanczos above.  Measured crossover
# of the two lowest-eigenpair solvers on unit-filling chains (see README).
DENSE_CUTOFF = 160
BASIS_CAP = 2_000_000
RESIDUAL_TOL = 1e-10


def count_states(sites: int, bosons: int, n_max: int) -> int:
    """Number of occupation vectors of `sites` sites summing to `bosons`,
    each entry <= n_max (bounded compositions)."""
    # ways[b]: occupation vectors of the sites so far that sum to b
    ways = [1] + [0] * bosons
    for _ in range(sites):
        ways = [sum(ways[max(b - n_max, 0):b + 1]) for b in range(bosons + 1)]
    return ways[bosons]


@dataclass(frozen=True)
class HubbardTables:
    """H = J * hop + U * onsite on one CSR pattern, for any (J, U).

    `hop` holds -sqrt(n_src (n_dst + 1)) for every hop along a bond (J = 1)
    and `onsite` holds (1/2) sum_i n_i (n_i - 1) on the diagonal slots
    (U = 1); each is zero in the other's slots.
    """

    indptr: np.ndarray
    indices: np.ndarray
    hop: np.ndarray
    onsite: np.ndarray

    def matrix(self, j: float, u: float) -> scipy.sparse.csr_matrix:
        import scipy.sparse   # ~0.3 s to import; only the ED solves use it
        with np.errstate(over="ignore", invalid="ignore"):
            data = j * self.hop + u * self.onsite
        if not np.all(np.isfinite(data)):
            raise DomainError(f"H overflows at J = {j}, U = {u}")
        dim = self.indptr.size - 1
        return scipy.sparse.csr_matrix(
            (data, self.indices, self.indptr), shape=(dim, dim), copy=True)


@dataclass(frozen=True, eq=False)
class FockBasis:
    """Occupation vectors in lexicographic order, one row of `occ` each.

    `codes` reads each row as a base-(n_max+1) number; lexicographic order
    makes the codes increasing, so `np.searchsorted` ranks any state.
    """

    sites: int
    bosons: int
    n_max: int
    occ: np.ndarray                  # (dim, sites) occupations
    codes: np.ndarray                # (dim,) strictly increasing
    _tables: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def build(cls, sites: int, bosons: int, n_max: int) -> "FockBasis":
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
        # Site by site, each prefix takes every occupation that leaves a
        # remainder the later sites can still hold, in increasing order.
        occ = np.zeros((1, 0), dtype=np.int64)
        left = np.array([bosons])
        for site in range(sites):
            room = n_max * (sites - site - 1)
            lo = np.maximum(left - room, 0)
            counts = np.minimum(left, n_max) - lo + 1
            parent = np.repeat(np.arange(left.size), counts)
            first = np.cumsum(counts) - counts
            k = lo[parent] + np.arange(parent.size) - first[parent]
            occ = np.column_stack((occ[parent], k))
            left = left[parent] - k
        if len(occ) != dim:
            raise PolaritonError(
                f"enumerated {len(occ)} states, expected {dim}"
            )
        weights = (n_max + 1) ** np.arange(sites - 1, -1, -1, dtype=np.int64)
        return cls(sites, bosons, n_max, occ, occ @ weights)

    @property
    def dim(self) -> int:
        return self.codes.size

    @property
    def states(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.occ.tolist()))

    def hop(self, src: int, dst: int):
        """b+_dst b_src on every state: (target rows, source rows, amplitudes
        sqrt(n_src (n_dst + 1)))."""
        occ = self.occ
        cols = np.flatnonzero((occ[:, src] > 0) & (occ[:, dst] < self.n_max))
        shift = (self.n_max + 1) ** (self.sites - 1 - dst) \
            - (self.n_max + 1) ** (self.sites - 1 - src)
        rows = np.searchsorted(self.codes, self.codes[cols] + shift)
        amp = np.sqrt(occ[cols, src] * (occ[cols, dst] + 1.0))
        return rows, cols, amp

    def tables(self, periodic: bool) -> HubbardTables:
        """Hopping and interaction tables, built on first use per boundary
        condition; the wrap-around bond is included only for L > 2 so the
        two-site chain is not double-counted."""
        if periodic not in self._tables:
            L, dim = self.sites, self.dim
            bonds = [(i, i + 1) for i in range(L - 1)]
            if periodic and L > 2:
                bonds.append((L - 1, 0))
            diag = np.arange(dim)
            rows, cols, hop = [diag], [diag], [np.zeros(dim)]
            for a, b in bonds:
                for src, dst in ((a, b), (b, a)):
                    r, c, amp = self.hop(src, dst)
                    rows.append(r)
                    cols.append(c)
                    hop.append(-amp)
            rows, cols = np.concatenate(rows), np.concatenate(cols)
            order = np.lexsort((cols, rows))
            onsite = np.zeros(rows.size)
            onsite[:dim] = 0.5 * (self.occ * (self.occ - 1)).sum(axis=1)
            indptr = np.zeros(dim + 1, dtype=np.int64)
            np.cumsum(np.bincount(rows, minlength=dim), out=indptr[1:])
            self._tables[periodic] = HubbardTables(
                indptr, cols[order], np.concatenate(hop)[order],
                onsite[order])
        return self._tables[periodic]


def build_hamiltonian(basis: FockBasis, j: float, u: float,
                      periodic: bool = True) -> scipy.sparse.csr_matrix:
    """H = -J sum_i (b+_i b_{i+1} + h.c.) + (U/2) sum_i n_i (n_i - 1).

    Real symmetric; assembled from the basis's tables, so a scan over (J, U)
    on one basis enumerates the hops once.
    """
    if j < 0 or u < 0:
        raise DomainError("j and u must be non-negative")
    return basis.tables(periodic).matrix(j, u)


def ground_energy(h: scipy.sparse.spmatrix) -> tuple[float, np.ndarray]:
    """Lowest eigenpair.

    A diagonal H is read off directly; otherwise dense eigh up to
    DENSE_CUTOFF and Lanczos (ARPACK) above, started from the uniform vector:
    for J > 0 the ground state has all-positive amplitudes, so the start
    overlaps it, and a fixed start makes the result reproducible.
    """
    import scipy.linalg
    import scipy.sparse.linalg
    dim = h.shape[0]
    coo = h.tocoo()
    if not np.any(coo.data[coo.row != coo.col]):
        diag = h.diagonal()
        k = int(np.argmin(diag))
        vec = np.zeros(dim)
        vec[k] = 1.0
        return float(diag[k]), vec
    if dim <= DENSE_CUTOFF:
        w, v = scipy.linalg.eigh(h.toarray(), subset_by_index=[0, 0])
    else:
        try:
            w, v = scipy.sparse.linalg.eigsh(h, k=1, which="SA", tol=0,
                                             v0=np.ones(dim))
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise NoConvergence("Lanczos did not converge") from exc
    e0, vec = float(w[0]), v[:, 0]
    with np.errstate(over="ignore"):         # an inf residual fails below
        res = np.linalg.norm(h @ vec - e0 * vec)
    if res > RESIDUAL_TOL * max(abs(e0), 1.0):
        raise NoConvergence(f"eigen residual {res} too large for e0 = {e0}")
    return e0, vec


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


def unit_filling_bases(sites: int, n_max: int) -> dict[int, FockBasis]:
    """Bases of N - 1, N and N + 1 bosons at unit filling N = sites."""
    return {n: FockBasis.build(sites, n, n_max)
            for n in (sites - 1, sites, sites + 1)}


def charge_gap(sites: int, n_max: int, j: float, u: float,
               periodic: bool = True, bases: dict | None = None,
               e0: float | None = None) -> float:
    """E0(N+1) + E0(N-1) - 2 E0(N) at unit filling N = sites.

    `bases` (from `unit_filling_bases`) lets a scan reuse the bases and
    their tables across calls; `e0` is E0(N) when the caller already has it.
    """
    if bases is None:
        bases = unit_filling_bases(sites, n_max)

    def solve(bosons):
        h = build_hamiltonian(bases[bosons], j, u, periodic)
        return ground_energy(h)[0]

    n = sites
    if e0 is None:
        e0 = solve(n)
    return solve(n + 1) + solve(n - 1) - 2 * e0


def diagnostics(sites: int, n_max: int, u_over_j: float,
                periodic: bool = True,
                bases: dict | None = None) -> EdResult:
    """Full set of ground-state diagnostics at unit filling, J = 1.

    `bases` as in `charge_gap`.
    """
    j, u = 1.0, float(u_over_j)
    if bases is None:
        bases = unit_filling_bases(sites, n_max)
    basis = bases[sites]
    e0, vec = ground_energy(build_hamiltonian(basis, j, u, periodic))
    occ = basis.occ
    weights = vec**2
    mean_n = weights @ occ                # per site
    mean_n2 = weights @ occ**2
    var_n = float(np.mean(mean_n2 - mean_n**2))

    corr = [float(mean_n[0])]
    for d in range(1, sites):
        # <b+_0 b_d>: hop a boson from site d to site 0 in each basis state
        rows, cols, amp = basis.hop(d, 0)
        corr.append(float(vec[rows] @ (amp * vec[cols])))

    gap = charge_gap(sites, n_max, j, u, periodic, bases=bases, e0=e0)
    return EdResult(sites, sites, n_max, u_over_j, e0, gap, var_n, tuple(corr))


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
        bases = unit_filling_bases(L, n_max)
        scaled[L] = np.array([L * charge_gap(L, n_max, 1.0, r, periodic,
                                             bases=bases)
                              for r in ratios])
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
