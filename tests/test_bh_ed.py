import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse.linalg
from hypothesis import example, given, settings, strategies as st

from polariton_phases import bh_ed
from polariton_phases.bh_ed import (
    FockBasis,
    HubbardTables,
    build_hamiltonian,
    count_states,
    diagnostics,
    estimate_critical_ratio,
    ground_energy,
)
from polariton_phases.errors import (
    DimensionOverflow,
    DomainError,
    NoConvergence,
    NoCrossing,
)


# chains whose every unit-filling sector (n_max 4) is solved by Lanczos
_LANCZOS_CHAINS = [(8, True), (7, False)]


@pytest.fixture
def kernel_calls(monkeypatch):
    """The (rows, cols) of every call of scipy's csr_matvec kernel, which a
    Lanczos solve imports from its private module at each call."""
    from scipy.sparse import _sparsetools
    calls, kernel = [], _sparsetools.csr_matvec

    def spy(*args):
        calls.append(args[:2])
        return kernel(*args)

    monkeypatch.setattr(_sparsetools, "csr_matvec", spy)
    return calls


def two_site_ground(j, u):
    """Analytic ground energy of two sites, two bosons, open chain."""
    return (u - math.sqrt(u**2 + 16 * j**2)) / 2


def move_boson(state, src, dst):
    """The occupation tuple with one boson moved from site src to dst."""
    new = list(state)
    new[src] -= 1
    new[dst] += 1
    return tuple(new)


def full_basis_oracle(basis):
    """Dense hopping (J = 1) and on-site (U = 1) parts of H on the whole
    basis, state by state: both directions of every bond are tried on each
    occupation tuple and the moved tuple is looked up by value."""
    L = basis.sites
    ring = basis.periodic and L > 2
    bonds = [(i, (i + 1) % L) for i in range(L if ring else L - 1)]
    states = list(map(tuple, basis.digits(basis.codes).tolist()))
    index = {s: i for i, s in enumerate(states)}
    hop = np.zeros((basis.dim, basis.dim))
    for col, state in enumerate(states):
        for a, b in bonds:
            for src, dst in ((a, b), (b, a)):
                if state[src] > 0 and state[dst] < basis.n_max:
                    row = index[move_boson(state, src, dst)]
                    hop[row, col] -= math.sqrt(state[src] * (state[dst] + 1))
    onsite = np.diag([0.5 * sum(n * (n - 1) for n in s) for s in states])
    return hop, onsite


def dihedral_images(state):
    """The 2L images of an occupation tuple under the dihedral group: the
    rotations of the state and of its mirror."""
    mirror = state[::-1]
    return [s[k:] + s[:k] for s in (state, mirror) for k in range(len(s))]


def dihedral_orbits(basis):
    """Brute force: each state's orbit as the smallest of its 2L images."""
    states = list(map(tuple, basis.digits(basis.codes).tolist()))
    return [min(dihedral_images(s)) for s in states]


def sector_projector(basis):
    """Q[s, r] = 1 / sqrt(R_r) for the states s of orbit r, orbits in
    increasing order, from `dihedral_orbits` alone."""
    orbit = dihedral_orbits(basis)
    reps = sorted(set(orbit))
    q = np.zeros((basis.dim, len(reps)))
    for s, rep in enumerate(orbit):
        q[s, reps.index(rep)] = 1.0
    return q / np.sqrt(q.sum(axis=0))


def enumerated_basis(sites, bosons, n_max, periodic):
    """Brute force: every occupation tuple by itertools.product (which
    yields them in lexicographic order), its code summed digit by digit,
    and on a ring of three or more sites each state's orbit as the smallest
    of its 2L dihedral images."""
    states = [s for s in itertools.product(range(n_max + 1), repeat=sites)
              if sum(s) == bosons]
    codes = [sum(n * (n_max + 1) ** (sites - 1 - i) for i, n in enumerate(s))
             for s in states]
    if periodic and sites > 2:
        orbit = [min(dihedral_images(s)) for s in states]
    else:
        orbit = states
    want = sorted(set(orbit))
    return {"codes": codes, "occ": [list(s) for s in states],
            "reps": [states.index(r) for r in want],
            "rep_occ": [list(r) for r in want],
            "index": [want.index(r) for r in orbit],
            "size": [orbit.count(r) for r in want]}


def dp_count(sites, n_max):
    """Bounded compositions by dynamic programming: ways[b] counts the
    occupation vectors of `sites` sites, each entry <= n_max, summing to b,
    for every b from 0 to sites * n_max."""
    ways = [1]
    for _ in range(sites):
        ways = [sum(ways[max(b - n_max, 0):b + 1])
                for b in range(len(ways) + n_max)]
    return ways


def reference_orbits(codes, sites, base, ring):
    """(reps, index, size) by the direct formulas, the reference for
    `bh_ed._orbits`: rotations by a modulo and a division, each state's
    orbit ranked by a binary search of its representative, the mirrored
    codes by modulo digit extraction."""
    if not ring:
        rows = np.arange(codes.size)
        return rows, rows, np.ones_like(rows)
    top = base ** (sites - 1)
    rep, fixed, rotated = codes.copy(), np.ones_like(codes), codes
    for _ in range(sites - 1):
        rotated = rotated % top * base + rotated // top
        np.minimum(rep, rotated, out=rep)
        fixed += rotated == codes
    reps = np.flatnonzero(rep == codes)
    size = (sites // fixed)[reps]
    orbit = np.searchsorted(codes[reps], rep)
    code, mirror = codes[reps], np.zeros_like(reps)
    for _ in range(sites):
        mirror = mirror * base + code % base
        code = code // base
    partner = orbit[np.searchsorted(codes, mirror)]
    own = np.arange(reps.size)
    lower = np.minimum(partner, own)
    keep = np.flatnonzero(lower == own)
    size[partner != own] *= 2
    return reps[keep], np.searchsorted(keep, lower)[orbit], size[keep]


def reference_tables(basis):
    """`HubbardTables` by the direct formulas, the reference for
    `FockBasis.tables`: the entries ordered by a stable comparison
    argsort, each entry's transpose found by a binary search."""
    L, dim = basis.sites, basis.reps.size
    src = np.arange(L if basis.ring else L - 1)
    dst = (src + 1) % L
    row, col, amp = basis.hops(np.concatenate((src, dst)),
                               np.concatenate((dst, src)))
    diag = np.arange(dim)
    keys = np.concatenate((diag * (dim + 1), row * dim + col))
    values = np.concatenate((np.zeros(dim), -amp))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    flat, hop = keys[starts], np.add.reduceat(values[order], starts)
    rows, cols = np.divmod(flat, dim)
    hop = 0.5 * (hop + hop[np.searchsorted(flat, cols * dim + rows)])
    indptr = np.zeros(dim + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=dim), out=indptr[1:])
    occ = basis.rep_occ
    return HubbardTables(indptr, cols, hop, np.flatnonzero(rows == cols),
                         0.5 * (occ * (occ - 1)).sum(axis=1), flat)


def same_bits(a, b):
    """Equal dtype, shape and bytes: -0.0 and 0.0 differ, as do NaNs of
    different payloads."""
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


@st.composite
def radix_keys(draw):
    """int64 keys >= 0 drawn from a few values, so that most repeat, the
    largest at or next to a 16-bit digit boundary or the int64 maximum."""
    top = draw(st.sampled_from([0, 1, 2**16 - 1, 2**16, 2**16 + 1,
                                2**32 - 1, 2**32, 2**32 + 1, 2**48 - 1,
                                2**48, 2**48 + 1, 2**63 - 1]))
    pool = draw(st.lists(st.integers(0, top), min_size=1, max_size=6))
    keys = draw(st.lists(st.sampled_from(pool), max_size=200))
    if keys:
        keys[draw(st.integers(0, len(keys) - 1))] = top
    return keys


@st.composite
def basis_args(draw):
    sites = draw(st.integers(1, 7))
    n_max = draw(st.integers(1, 4))
    bosons = draw(st.integers(0, sites * n_max))
    return sites, bosons, n_max, draw(st.booleans())


class TestBasis:
    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(args=basis_args())
    @example(args=(1, 0, 1, False))      # open single site: no bond
    @example(args=(1, 3, 4, True))
    @example(args=(2, 0, 2, False))      # no boson to hop
    @example(args=(2, 4, 2, False))      # full: no hop has room
    @example(args=(2, 3, 3, True))       # the two-site ring is the pair
    @example(args=(7, 0, 4, True))
    @example(args=(7, 28, 4, True))
    @example(args=(7, 7, 4, False))
    def test_build_matches_enumeration(self, args):
        basis = FockBasis.build(*args)
        want = enumerated_basis(*args)
        assert basis.digits(basis.codes).tolist() == want.pop("occ")
        for name, value in want.items():
            assert getattr(basis, name).tolist() == value, name
        assert basis.dim == len(want["codes"])

    @pytest.mark.parametrize("periodic", [True, False])
    def test_occupations_derived_on_first_use(self, periodic):
        # `build` keeps the codes and the orbit arrays; the representatives'
        # occupations are read off their codes when first asked for
        basis = FockBasis.build(6, 7, 4, periodic)
        assert "rep_occ" not in basis.__dict__
        assert np.array_equal(basis.rep_occ,
                              basis.digits(basis.codes)[basis.reps])
        assert "rep_occ" in basis.__dict__

    def test_build_peak_memory(self):
        # the enumeration's temporaries are freed before the orbit pass
        # runs (L = 12, N = 13: 1 613 184 states, 13 MB per int64 array;
        # 116 MB traced); with both alive at once the peak is 170 MB
        tracemalloc.start()
        try:
            FockBasis.build(12, 13, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 140e6

    def test_tables_peak_memory(self):
        # the hop arrays are freed before the transpose order is taken
        # (L = 12, N = 13: 67 517 rows, 119 MB traced with the basis alive;
        # with the hop arrays kept through it the peak is 134 MB)
        tracemalloc.start()
        try:
            basis = FockBasis.build(12, 13, 4)
            tracemalloc.reset_peak()
            basis.tables
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 140e6

    def test_dimension_matches_combinatorial_count(self):
        for L, N, nmax in [(2, 2, 2), (4, 4, 4), (5, 3, 2), (6, 7, 4)]:
            basis = FockBasis.build(L, N, nmax)
            brute = sum(
                1 for occ in itertools.product(range(nmax + 1), repeat=L)
                if sum(occ) == N
            )
            assert basis.dim == brute == count_states(L, N, nmax)

    def test_states_sorted_and_capped(self):
        basis = FockBasis.build(4, 4, 3)
        states = list(map(tuple, basis.digits(basis.codes).tolist()))
        assert states == sorted(states)
        for s in states:
            assert sum(s) == 4 and max(s) <= 3

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(bh_ed, "BASIS_CAP", 100)
        with pytest.raises(DimensionOverflow):
            FockBasis.build(10, 10, 4)

    def test_codes_rank_every_hop(self):
        basis = FockBasis.build(5, 5, 3, periodic=False)
        base = basis.n_max + 1
        assert np.all(np.diff(basis.codes) > 0)
        occ = basis.digits(basis.codes)
        for src, dst in [(0, 1), (1, 0), (4, 0), (2, 4)]:
            rows, cols, amp = basis.hops(np.array([src]), np.array([dst]))
            moved = occ[cols].copy()
            moved[:, src] -= 1
            moved[:, dst] += 1
            assert np.array_equal(occ[rows], moved)
            want = np.sqrt(occ[cols, src] * (occ[cols, dst] + 1))
            assert np.array_equal(amp, want)
            assert np.array_equal(
                basis.codes[rows],
                basis.codes[cols] + base ** (4 - dst) - base ** (4 - src))

    def test_count_matches_dynamic_programming(self):
        # the closed inclusion-exclusion sum against the site-by-site count,
        # for every boson number up to a full chain and one past it
        for sites in range(1, 16):
            for n_max in range(1, 8):
                want = dp_count(sites, n_max) + [0]
                assert [count_states(sites, b, n_max)
                        for b in range(len(want))] == want

    @pytest.mark.parametrize("sites, bosons, k0_rows, rows", [
        (6, 6, 74, 46), (8, 7, 393, 211), (8, 8, 690, 375),
        (8, 9, 1100, 575), (12, 12, 81322, 41022)])
    def test_sector_rows(self, sites, bosons, k0_rows, rows):
        # the mirror halves the k = 0 sector (k0_rows) at n_max = 4, less
        # the orbits it maps onto themselves
        basis = FockBasis.build(sites, bosons, 4)
        assert basis.reps.size == rows
        assert k0_rows // 2 <= rows < k0_rows

    def test_mirror_joins_or_keeps_orbits(self):
        # L = 4, N = 4, n_max = 2: the mirror of 0112 is 2110, a rotation
        # of 0211, another translation orbit, so the two join (R = 4 + 4);
        # the mirror of 0121 is 1210, a rotation of 0121 itself (R = 4)
        basis = FockBasis.build(4, 4, 2)
        code = {s: i for i, s in enumerate(
            map(tuple, basis.digits(basis.codes).tolist()))}
        joined = basis.index[code[0, 1, 1, 2]]
        kept = basis.index[code[0, 1, 2, 1]]
        assert basis.reps[joined] == code[0, 1, 1, 2]
        assert basis.index[code[0, 2, 1, 1]] == joined
        assert basis.index[code[2, 1, 1, 0]] == joined
        assert basis.size[joined] == 8
        assert basis.reps[kept] == code[0, 1, 2, 1]
        assert basis.size[kept] == 4

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            FockBasis.build(0, 2, 2)
        with pytest.raises(DomainError):
            FockBasis.build(2, 5, 2)   # 5 bosons cannot fit under the cap
        # codes of 1500 sites overflow int64: refused before any counting
        with pytest.raises(DimensionOverflow):
            FockBasis.build(1500, 1500, 1)
        assert count_states(1500, 3, 1) == math.comb(1500, 3)


class TestHamiltonian:
    def test_two_site_analytic(self):
        basis = FockBasis.build(2, 2, 2, periodic=False)
        for j, u in [(1.0, 4.0), (0.5, 1.0), (2.0, 0.0), (1.0, 20.0)]:
            h = build_hamiltonian(basis, j, u)
            assert h.shape == (3, 3)
            e0, _ = ground_energy(h)
            assert e0 == pytest.approx(two_site_ground(j, u), rel=1e-12)

    def test_atomic_limit_diagonal(self):
        basis = FockBasis.build(4, 4, 4)
        h = build_hamiltonian(basis, 0.0, 3.0)
        assert np.array_equal(h, np.diag(h.diagonal()))
        e0, _ = ground_energy(h)
        assert e0 == 0.0   # unit filling: no double occupancy needed

    def test_free_two_site(self):
        basis = FockBasis.build(2, 2, 2, periodic=False)
        e0, _ = ground_energy(build_hamiltonian(basis, 1.0, 0.0))
        assert e0 == pytest.approx(-2.0, rel=1e-12)

    def test_exact_hermiticity(self):
        basis = FockBasis.build(5, 5, 3)
        h = build_hamiltonian(basis, 1.3, 2.7)
        assert np.array_equal(h, h.T)

    @pytest.mark.parametrize("sites", range(3, 11))
    def test_ring_hamiltonian_bit_symmetric(self, monkeypatch, sites):
        # every unit-filling sector of a ring, built dense and CSR: each
        # entry the half sum of the two directions' hops, so H == H.T
        n_max = 3 if sites <= 8 else 2
        for bosons in (sites - 1, sites, sites + 1):
            basis = FockBasis.build(sites, bosons, n_max)
            for cutoff in (basis.reps.size, 0):
                monkeypatch.setattr(bh_ed, "DENSE_CUTOFF", cutoff)
                h = build_hamiltonian(basis, 1.3, 2.7)
                if cutoff:
                    assert np.array_equal(h, h.T)
                else:
                    assert (h != h.T).nnz == 0

    def test_periodic_not_above_open_at_u0(self):
        for L in (4, 6):
            e_per, e_open = (
                ground_energy(build_hamiltonian(
                    FockBasis.build(L, L, 4, periodic), 1.0, 0.0))[0]
                for periodic in (True, False))
            assert e_per <= e_open + 1e-12

    def test_tables_reused_linearly(self):
        # H(J, U) = J H(1, 0) + U H(0, 1) entry by entry, from one table
        basis = FockBasis.build(5, 5, 3)
        h = build_hamiltonian(basis, 1.3, 2.7)
        t = build_hamiltonian(basis, 1.0, 0.0)
        d = build_hamiltonian(basis, 0.0, 1.0)
        assert np.array_equal(h, 1.3 * t + 2.7 * d)
        assert np.array_equal(h, build_hamiltonian(basis, 1.3, 2.7))

    @pytest.mark.parametrize("sites, bosons, n_max, periodic", [
        (6, 6, 4, True), (7, 7, 4, True), (5, 5, 3, False),
        (5, 6, 4, False), (8, 8, 4, True)])
    def test_onsite_held_once_per_row(self, sites, bosons, n_max,
                                      periodic):
        # U is one value per sector row, added on that row's diagonal slot;
        # dense sectors (46, 117 and 101 rows) and CSR ones (185, 375 rows)
        basis = FockBasis.build(sites, bosons, n_max, periodic)
        tables, rows = basis.tables, basis.reps.size
        occ = basis.rep_occ
        assert tables.onsite.shape == (rows,)
        assert np.array_equal(tables.onsite,
                              0.5 * (occ * (occ - 1)).sum(axis=1))
        assert np.array_equal(tables.indices[tables.diag], np.arange(rows))
        assert np.all(tables.indptr[:-1] <= tables.diag)
        assert np.all(tables.diag < tables.indptr[1:])
        h = build_hamiltonian(basis, 0.0, 1.0)
        assert isinstance(h, np.ndarray) == (rows <= bh_ed.DENSE_CUTOFF)
        dense = h if isinstance(h, np.ndarray) else h.toarray()
        assert np.array_equal(dense, np.diag(tables.onsite))

    @pytest.mark.parametrize("periodic", [True, False])
    def test_tables_built_on_first_use(self, monkeypatch, periodic):
        # building a basis enumerates no hop; its first H enumerates the
        # tables once, and H at other (J, U) reuses them
        calls = []
        hops = FockBasis.hops
        monkeypatch.setattr(FockBasis, "hops", lambda basis, src, dst:
                            calls.append(basis) or hops(basis, src, dst))
        basis = FockBasis.build(5, 5, 3, periodic)
        assert calls == []
        build_hamiltonian(basis, 1.0, 2.0)
        assert calls == [basis]
        for j, u in [(1.3, 2.7), (0.0, 1.0), (1.0, 0.0)]:
            build_hamiltonian(basis, j, u)
        assert calls == [basis]

    @pytest.mark.parametrize("sites, bosons, n_max, periodic", [
        (5, 5, 3, True), (6, 7, 4, True), (4, 4, 2, True), (3, 2, 4, True),
        (2, 2, 2, True), (1, 1, 2, True), (5, 5, 3, False),
        (6, 7, 4, False)])
    def test_one_row_per_orbit(self, sites, bosons, n_max, periodic):
        basis = FockBasis.build(sites, bosons, n_max, periodic)
        assert basis.ring == (periodic and sites > 2)
        if basis.ring:
            orbit = dihedral_orbits(basis)
            want = sorted(set(orbit))
            states = list(map(tuple, basis.digits(basis.codes).tolist()))
            assert [states[r] for r in basis.reps] == want
            assert [want[i] for i in basis.index] == orbit
            assert basis.size.tolist() == [orbit.count(r) for r in want]
        else:   # open chain, or the two-site ring: single-state orbits
            assert basis.reps.tolist() == list(range(basis.dim))
            assert basis.size.tolist() == [1] * basis.dim
        assert np.array_equal(basis.rep_occ,
                              basis.digits(basis.codes)[basis.reps])
        assert basis.size.sum() == basis.dim
        assert basis.tables.indptr.size - 1 == basis.reps.size

    @pytest.mark.parametrize("periodic", [True, False])
    def test_reverse_hop_is_transpose(self, periodic):
        # H(1, 0) is Q^T H_oracle Q on a ring of five sites (k = 0, P = +1)
        # and exactly the oracle on the open chain (single-state orbits)
        basis = FockBasis.build(5, 5, 3, periodic)
        want, _ = full_basis_oracle(basis)
        got = build_hamiltonian(basis, 1.0, 0.0)
        if periodic:
            q = sector_projector(basis)
            assert got.shape == (q.shape[1],) * 2
            assert np.allclose(got, q.T @ want @ q, rtol=0, atol=1e-14)
        else:
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("sites, n_max", [
        (3, 4), (4, 4), (5, 4), (6, 3), (7, 2), (8, 2)])
    def test_sector_ground_energy_matches_full_basis(self, sites, n_max):
        for bosons in (sites - 1, sites, sites + 1):
            basis = FockBasis.build(sites, bosons, n_max)
            hop, onsite = full_basis_oracle(basis)
            for u in (0.0, 1.0, 3.85, 20.0):
                want = scipy.linalg.eigvalsh(hop + u * onsite,
                                             subset_by_index=[0, 0])[0]
                got, _ = ground_energy(build_hamiltonian(basis, 1.0, u))
                assert got == pytest.approx(want, rel=0, abs=1e-12)

    def test_negative_couplings_rejected(self):
        basis = FockBasis.build(2, 2, 2)
        with pytest.raises(DomainError):
            build_hamiltonian(basis, -1.0, 0.0)
        # NaN fails the sign rule itself, not the overflow check after it
        for j, u in ((math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(DomainError, match="non-negative"):
                build_hamiltonian(basis, j, u)
        with pytest.raises(DomainError):       # U * n(n-1)/2 = 3U overflows
            build_hamiltonian(FockBasis.build(2, 3, 3), 1.0, 1e308)


class TestIntegerPasses:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(keys=radix_keys())
    @example(keys=[])
    @example(keys=[5])
    @example(keys=[2**48, 0, 2**48, 1, 0])
    @example(keys=[2**63 - 1, 2**16, 2**63 - 1])
    def test_stable_order_is_stable_argsort(self, keys):
        keys = np.array(keys, dtype=np.int64)
        order = bh_ed._stable_order(keys)
        assert same_bits(order, np.argsort(keys, kind="stable"))

    @pytest.mark.parametrize("periodic", [True, False],
                             ids=["ring", "open"])
    @pytest.mark.parametrize("sites", range(1, 11))
    def test_orbits_and_tables_match_reference(self, sites, periodic):
        # the one-division rotations, the orbit ranks counted off a sort and
        # the radix orders give the bits of the modulo rotations, binary
        # searches and comparison argsort they replace
        for n_max, bosons in itertools.product(
                range(1, 5), (sites - 1, sites, sites + 1)):
            if bosons <= sites * n_max:
                self.check_reference(sites, bosons, n_max, periodic)

    @pytest.mark.parametrize("sites, bosons, n_max",
                             [(39, 2, 2), (31, 3, 3), (27, 2, 4)])
    def test_rotations_past_int64_match_reference(self, sites, bosons, n_max):
        # b^L fits int64 but code * b does not: the rotation's products
        # wrap modulo 2^64 and the rotated code still comes out exact
        assert (n_max + 1) ** (sites + 1) > np.iinfo(np.int64).max
        self.check_reference(sites, bosons, n_max, True)

    @staticmethod
    def check_reference(sites, bosons, n_max, periodic):
        basis = FockBasis.build(sites, bosons, n_max, periodic)
        ref = FockBasis(sites, bosons, n_max, periodic, basis.codes,
                        *reference_orbits(basis.codes, sites, n_max + 1,
                                          basis.ring))
        for name in ("reps", "index", "size"):
            assert same_bits(getattr(basis, name), getattr(ref, name)), \
                (n_max, bosons, name)
        want = reference_tables(ref)
        for name in HubbardTables.__dataclass_fields__:
            assert same_bits(getattr(basis.tables, name),
                             getattr(want, name)), (n_max, bosons, name)


class TestGroundEnergy:
    def test_scalar_matrix(self):
        h = scipy.sparse.csr_matrix(np.array([[3.7]]))
        e0, vec = ground_energy(h)
        assert e0 == 3.7 and vec.tolist() == [1.0]

    def test_dense_vs_lanczos_agreement(self):
        basis = FockBasis.build(4, 4, 4)
        h = build_hamiltonian(basis, 1.0, 4.0)
        e_dense, _ = ground_energy(h)          # 10 rows: dense path
        w = scipy.sparse.linalg.eigsh(h, k=1, which="SA", tol=0)[0]
        assert abs(e_dense - w[0]) <= 1e-10 * abs(e_dense)

    def test_lanczos_path_large_basis(self):
        basis = FockBasis.build(8, 8, 3)   # 265 sector rows > dense cutoff
        h = build_hamiltonian(basis, 1.0, 4.0)
        e0, vec = ground_energy(h)
        res = np.linalg.norm(h @ vec - e0 * vec)
        assert res <= 1e-10 * abs(e0)

    def test_diagonal_matrix_read_off(self):
        # a diagonal H above the dense cutoff: the lowest entry, not an
        # eigenvalue a Lanczos run happens to land on
        diag = np.full(3000, 2.0)
        diag[1234] = -1.5
        e0, vec = ground_energy(scipy.sparse.diags(diag).tocsr())
        assert e0 == -1.5
        assert vec[1234] == 1.0 and np.count_nonzero(vec) == 1

    @pytest.mark.parametrize("sites, n_max, periodic", [
        (7, 4, True), (8, 4, True), (7, 2, False), (8, 2, False)])
    def test_lanczos_matches_dense(self, monkeypatch, sites, n_max,
                                   periodic):
        # every sector on the Lanczos path (the L = 7 ring's N - 1 and N
        # sectors have 72 and 117 rows, under the cutoff), against dense
        # eigh of the same H
        monkeypatch.setattr(bh_ed, "DENSE_CUTOFF", 0)
        chain = bh_ed.UnitFilling.build(sites, n_max, periodic)
        for basis in chain.bases.values():
            for uj in (0.0, 1.0, 3.3, 8.0, 20.0, 1e4):
                h = build_hamiltonian(basis, 1.0, uj)
                dense = h.toarray()
                w, v = scipy.linalg.eigh(dense, subset_by_index=[0, 0])
                e0, vec = ground_energy(h)
                norm = max(np.abs(dense).sum(axis=1).max(), 1.0)
                assert abs(e0 - w[0]) <= 1e-12 * norm
                assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
                assert abs(vec @ v[:, 0]) >= 1.0 - 1e-12

    def test_lanczos_breakdown(self, kernel_calls):
        # -A of a 400-site ring: the uniform start is its lowest
        # eigenvector, so the first step leaves beta ~ 0 and ends the run
        # (one product there, one for the residual test)
        n = 400
        h = -scipy.sparse.diags(
            [1.0, 1.0, 1.0, 1.0], [-(n - 1), -1, 1, n - 1],
            shape=(n, n)).tocsr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e0, vec = ground_energy(h)
        assert kernel_calls == [(n, n), (n, n)]
        assert e0 == pytest.approx(-2.0, rel=0, abs=1e-14)
        assert np.allclose(vec, 1 / math.sqrt(n), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("sites, periodic", _LANCZOS_CHAINS,
                             ids=["ring-L8", "open-L7"])
    def test_lanczos_calls_no_sparse_operator(self, monkeypatch, sites,
                                              periodic):
        # every product of a Lanczos solve, the residual's included, goes
        # to the kernel on the arrays of H, not through scipy's `@`
        def refuse(*args):
            raise AssertionError("csr_matrix.__matmul__ called")

        chain = bh_ed.UnitFilling.build(sites, 4, periodic)
        assert all(basis.reps.size > bh_ed.DENSE_CUTOFF
                   for basis in chain.bases.values())
        want = chain.solve(3.3)
        monkeypatch.setattr(scipy.sparse.csr_matrix, "__matmul__", refuse)
        e0, vec, gap = chain.solve(3.3)
        assert (e0, gap) == (want[0], want[2])
        assert np.array_equal(vec, want[1])

    def test_kernel_gives_matmul_bits(self, rng):
        # the kernel onto a zeroed output, as a Lanczos step calls it, on
        # every Lanczos sector of both chains: the bits of `h @ v`
        from scipy.sparse._sparsetools import csr_matvec
        for sites, periodic in _LANCZOS_CHAINS:
            chain = bh_ed.UnitFilling.build(sites, 4, periodic)
            for basis in chain.bases.values():
                h = build_hamiltonian(basis, 1.0, 3.3)
                v = rng.normal(size=h.shape[0])
                out = np.zeros(h.shape[0])
                csr_matvec(*h.shape, h.indptr, h.indices, h.data, v, out)
                assert np.array_equal(out, h @ v)

    def test_direct_kernel_in_use(self, kernel_calls):
        # a scipy that moves or renames the private kernel fails here
        # (and in every Lanczos solve) with an ImportError
        chain = bh_ed.UnitFilling.build(8, 4)
        e0, vec, gap = chain.solve(3.3)
        assert math.isfinite(e0) and gap > 0
        sizes = {(n, n) for n in (b.reps.size for b in chain.bases.values())}
        assert kernel_calls and set(kernel_calls) == sizes

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(n=st.integers(1, 80), seed=st.integers(0, 2**32 - 1),
           split=st.floats(0.0, 1.0))
    @example(n=2, seed=0, split=1.0)
    @example(n=80, seed=1, split=0.5)
    def test_lowest_ritz_matches_eigh_tridiagonal(self, n, seed, split):
        # the direct dstebz/dstein calls give eigh_tridiagonal's bits; a
        # share `split` of the off-diagonal is zero (T splits into blocks)
        rng = np.random.default_rng(seed)
        d = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
        e = rng.normal(size=n - 1)
        e[rng.random(n - 1) < split] = 0.0
        w, v = scipy.linalg.eigh_tridiagonal(d, e, select="i",
                                             select_range=(0, 0))
        theta, y = bh_ed._lowest_ritz(d, e)
        assert type(theta) is float and theta == w[0]
        assert np.array_equal(y, v[:, 0])

    @pytest.mark.parametrize("routine", ["dstebz", "dstein"])
    def test_lapack_failure_is_no_convergence(self, monkeypatch, routine):
        # a nonzero LAPACK info ends the solve as NoConvergence, not as
        # LinAlgError (tests/test_cli.py: CLI ed exits 3)
        real = getattr(scipy.linalg.lapack, routine)

        def failing(*args):
            *out, _ = real(*args)
            return (*out, 1)

        monkeypatch.setattr(scipy.linalg.lapack, routine, failing)
        h = build_hamiltonian(FockBasis.build(8, 8, 3), 1.0, 4.0)
        with pytest.raises(NoConvergence, match="info = 1"):
            ground_energy(h)

    @pytest.mark.parametrize("periodic", [True, False])
    def test_dense_path_matches_eigh(self, monkeypatch, periodic):
        # every sector at L = 2-7, n_max = 2-4 (N - 1, N and N + 1), the
        # L = 7 ring at n_max 4 among them: its N - 1 and N sectors (72 and
        # 117 rows) are dense, its N + 1 sector (188 rows) CSR.  H is an
        # array exactly up to DENSE_CUTOFF rows, the array of the CSR H
        # built with no sector dense; an array goes to `_dense_lowest`,
        # whose direct dsyevr call gives scipy.linalg.eigh's e0 and vector
        # to the last bit, and CSR to `_lanczos`; `UnitFilling.solve` gives
        # each sector's solve to the last bit
        calls = []

        def counted(name):
            solver = getattr(bh_ed, name)
            return lambda h: calls.append(name) or solver(h)

        for name in ("_dense_lowest", "_lanczos"):
            monkeypatch.setattr(bh_ed, name, counted(name))
        dense = {}
        for sites, n_max in itertools.product(range(2, 8), range(2, 5)):
            chain = bh_ed.UnitFilling.build(sites, n_max, periodic)
            for uj in (0.0, 0.3, 3.3, 12.0, 1e4):
                want = {}
                for bosons, basis in chain.bases.items():
                    h = build_hamiltonian(basis, 1.0, uj)
                    is_array = isinstance(h, np.ndarray)
                    assert is_array == (basis.reps.size
                                        <= bh_ed.DENSE_CUTOFF)
                    dense[sites, n_max, bosons] = is_array
                    calls.clear()
                    want[bosons] = e0, vec = ground_energy(h)
                    assert calls == ["_dense_lowest" if is_array
                                     else "_lanczos"]
                    if not is_array:
                        continue
                    with monkeypatch.context() as m:
                        m.setattr(bh_ed, "DENSE_CUTOFF", 0)
                        csr = build_hamiltonian(basis, 1.0, uj)
                    assert np.array_equal(h, csr.toarray())
                    w, v = scipy.linalg.eigh(h, subset_by_index=[0, 0])
                    assert type(e0) is float and e0 == w[0]
                    assert np.array_equal(vec, v[:, 0])
                e0, vec, gap = chain.solve(uj)
                assert e0 == want[sites][0]
                assert np.array_equal(vec, want[sites][1])
                assert gap == (want[sites + 1][0] + want[sites - 1][0]
                               - 2 * want[sites][0])
        if periodic:
            assert [dense[7, 4, n] for n in (6, 7, 8)] == [True, True, False]

    def test_dense_solve_builds_no_sparse_matrix(self, monkeypatch):
        # the L = 6 sectors (<= 63 rows) are solved from the tables alone
        def refuse(*args, **kwargs):
            raise AssertionError("a scipy.sparse matrix was built")

        for name in ("csr_matrix", "csr_array", "coo_matrix", "diags"):
            monkeypatch.setattr(scipy.sparse, name, refuse)
        chain = bh_ed.UnitFilling.build(6, 4)
        assert all(basis.reps.size <= bh_ed.DENSE_CUTOFF
                   for basis in chain.bases.values())
        e0, vec, gap = chain.solve(3.3)
        assert math.isfinite(e0) and gap > 0

    def test_dsyevr_failure_is_no_convergence(self, monkeypatch):
        real = scipy.linalg.lapack.dsyevr

        def failing(*args, **kwargs):
            *out, _ = real(*args, **kwargs)
            return (*out, 1)

        monkeypatch.setattr(scipy.linalg.lapack, "dsyevr", failing)
        basis = FockBasis.build(4, 4, 4)
        with pytest.raises(NoConvergence, match="info = 1"):
            ground_energy(build_hamiltonian(basis, 1.0, 3.3))

    def test_lanczos_values_match_frozen(self):
        # L = 8 takes the Lanczos path (sector dims 211-575 on the ring,
        # 3144-8800 states open).  The ring values were computed by a
        # per-state Hamiltonian build on the full basis and full ARPACK
        # solves; the open chain is frozen to its last bit.
        res = diagnostics(8, 4, 3.3, periodic=True)
        assert (res.e0, res.gap, res.var_n) == pytest.approx(
            (-8.510932073950983, 0.41160619157933453, 0.4019865694746449),
            rel=1e-10)
        res = diagnostics(8, 4, 1.0, periodic=False)
        assert (res.e0, res.gap, res.var_n) == (
            -11.670545102536897, 0.12384619376954831, 0.5883726129622282)


class TestChargeGap:
    def test_atomic_limit_gap_is_u(self):
        # J = 0: the three diagonal solves at unit filling
        for L, u in [(4, 3.0), (6, 5.0), (8, 3.0)]:
            e0 = {n: ground_energy(build_hamiltonian(basis, 0.0, u))[0]
                  for n, basis in bh_ed.UnitFilling.build(L, 4).bases.items()}
            gap = e0[L + 1] + e0[L - 1] - 2 * e0[L]
            assert gap == pytest.approx(u, abs=1e-12)

    def test_mott_plateau(self):
        gap = diagnostics(6, 4, 20.0).gap
        assert 0.6 <= gap / 20.0 <= 1.0
        # cross-check against a larger occupation cap
        assert diagnostics(6, 5, 20.0).gap == pytest.approx(gap, abs=1e-6)

    def test_superfluid_gap_shrinks_with_size(self):
        gaps = [diagnostics(L, 4, 1.0).gap for L in (4, 6, 8)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_nmax_convergence_of_ground_energy(self):
        # truncation error decays rapidly with interaction strength: a few
        # 1e-3 at U/J = 1, below 1e-8 once the Mott regime is reached
        def e0(L, n_max, u):
            basis = FockBasis.build(L, L, n_max)
            return ground_energy(build_hamiltonian(basis, 1.0, u))[0]

        for L in (4, 6):
            assert abs(e0(L, 5, 1.0) - e0(L, 4, 1.0)) < 3e-3
            assert abs(e0(L, 5, 12.0) - e0(L, 4, 12.0)) < 1e-8

    def test_gap_non_negative(self):
        for u in (0.5, 2.0, 10.0):
            assert diagnostics(4, 4, u).gap >= -1e-10


class TestDiagnostics:
    def test_invariants(self):
        res = diagnostics(4, 4, 4.0)
        assert res.var_n >= 0
        assert res.gap >= -1e-10
        assert res.corr[0] == pytest.approx(1.0, rel=1e-12)  # unit filling

    def test_correlations_match_per_state_sum(self):
        # var(n) and <b+_0 b_d> of the full-basis oracle's ground vector,
        # summed state by state
        for sites, n_max, uj, periodic in [
                (4, 3, 2.5, True), (4, 3, 2.5, False), (6, 3, 3.85, True),
                (5, 2, 0.0, True), (8, 2, 3.3, True)]:
            res = diagnostics(sites, n_max, uj, periodic=periodic)
            basis = FockBasis.build(sites, sites, n_max, periodic)
            hop, onsite = full_basis_oracle(basis)
            vec = scipy.linalg.eigh(hop + uj * onsite,
                                    subset_by_index=[0, 0])[1][:, 0]
            states = list(map(tuple, basis.digits(basis.codes).tolist()))
            index = {s: i for i, s in enumerate(states)}
            occ = basis.digits(basis.codes)
            mean_n = vec**2 @ occ
            var_n = np.mean(vec**2 @ occ**2 - mean_n**2)
            assert res.var_n == pytest.approx(var_n, rel=0, abs=1e-12)
            for d in range(1, sites):
                total = 0.0
                for i, state in enumerate(states):
                    if state[d] > 0 and state[0] < n_max:
                        total += (vec[index[move_boson(state, d, 0)]] * vec[i]
                                  * math.sqrt(state[d] * (state[0] + 1)))
                assert res.corr[d] == pytest.approx(total, rel=0, abs=1e-12)

    def test_three_solves_per_point(self, monkeypatch):
        calls = []
        solve = bh_ed.ground_energy
        monkeypatch.setattr(bh_ed, "ground_energy",
                            lambda h: calls.append(h.shape) or solve(h))
        res = diagnostics(4, 4, 3.0)
        assert len(calls) == 3
        e0 = [solve(build_hamiltonian(FockBasis.build(4, n, 4), 1.0, 3.0))[0]
              for n in (3, 4, 5)]
        assert res.gap == e0[2] + e0[0] - 2 * e0[1]

    def test_full_occupations_never_built(self):
        # the solve reads the representatives' occupations only: no basis
        # holds a (dim, sites) table of every state's
        chain = bh_ed.UnitFilling.build(8, 4)
        chain.diagnostics(3.3)
        for basis in chain.bases.values():
            assert basis.reps.size < basis.dim
            assert not any(isinstance(v, np.ndarray)
                           and v.shape == (basis.dim, basis.sites)
                           for v in basis.__dict__.values())
        basis = chain.bases[8]
        assert np.array_equal(basis.rep_occ,
                              basis.digits(basis.codes)[basis.reps])

    def test_shared_bases(self):
        # one chain solved at several U/J gives what a chain built for each
        # U/J gives
        chain = bh_ed.UnitFilling.build(4, 4)
        assert sorted(chain.bases) == [3, 4, 5]
        for uj in (1.0, 3.0):
            assert chain.diagnostics(uj) == diagnostics(4, 4, uj)

    def test_mott_suppresses_fluctuations(self):
        weak = diagnostics(4, 4, 1.0)
        strong = diagnostics(4, 4, 20.0)
        assert strong.var_n < weak.var_n
        # one-body coherence decays faster in the Mott regime
        assert abs(strong.corr[2]) < abs(weak.corr[2])


class TestCriticalRatio:
    def test_estimate_in_band(self):
        est = estimate_critical_ratio([4, 6], [1, 2, 3, 4, 5, 6, 7, 8])
        assert 2.5 <= est.mean <= 5.5
        assert est.crossings

    def test_single_size_rejected(self):
        with pytest.raises(NoCrossing):
            estimate_critical_ratio([4], [1, 2, 3, 4, 5])

    @pytest.mark.parametrize("sizes", [[4, 4], [4, 6, 4]])
    def test_repeated_size_rejected(self, sizes):
        # identical curves are equal at every sample: no crossing to report
        with pytest.raises(NoCrossing, match="distinct"):
            estimate_critical_ratio(sizes, [1, 2, 3, 4, 5, 6])

    def test_too_few_ratios_rejected(self):
        with pytest.raises(NoCrossing):
            estimate_critical_ratio([4, 6], [1, 2, 3])

    def test_solver_sizes_match_frozen(self):
        # the benchmark's solver sizes, frozen to the last bit
        est = estimate_critical_ratio([4, 6, 8], [1.2, 2.6, 4.0, 5.4, 6.8])
        assert est.crossings == (2.665672191909702, 2.6481374259916852,
                                 2.626189147793155)
        assert est.mean == 2.6466662552315143

    def test_deep_mott_no_crossing(self):
        with pytest.raises(NoCrossing):
            estimate_critical_ratio([4, 6], [15, 16, 17, 18, 19])
