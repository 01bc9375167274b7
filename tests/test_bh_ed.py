import itertools
import math

import numpy as np
import pytest
import scipy.sparse.linalg

from polariton_phases import bh_ed
from polariton_phases.bh_ed import (
    FockBasis,
    build_hamiltonian,
    charge_gap,
    count_states,
    diagnostics,
    estimate_critical_ratio,
    ground_energy,
)
from polariton_phases.errors import (
    DimensionOverflow,
    DomainError,
    NoCrossing,
)


def two_site_ground(j, u):
    """Analytic ground energy of two sites, two bosons, open chain."""
    return (u - math.sqrt(u**2 + 16 * j**2)) / 2


class TestBasis:
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
        assert list(basis.states) == sorted(basis.states)
        for s in basis.states:
            assert sum(s) == 4 and max(s) <= 3

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(bh_ed, "BASIS_CAP", 100)
        with pytest.raises(DimensionOverflow):
            FockBasis.build(10, 10, 4)

    def test_codes_rank_every_hop(self):
        basis = FockBasis.build(5, 5, 3)
        base = basis.n_max + 1
        assert np.all(np.diff(basis.codes) > 0)
        for src, dst in [(0, 1), (1, 0), (4, 0), (2, 4)]:
            rows, cols, amp = basis.hop(src, dst)
            moved = basis.occ[cols].copy()
            moved[:, src] -= 1
            moved[:, dst] += 1
            assert np.array_equal(basis.occ[rows], moved)
            want = np.sqrt(basis.occ[cols, src] * (basis.occ[cols, dst] + 1))
            assert np.array_equal(amp, want)
            assert np.array_equal(
                basis.codes[rows],
                basis.codes[cols] + base ** (4 - dst) - base ** (4 - src))

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
        basis = FockBasis.build(2, 2, 2)
        for j, u in [(1.0, 4.0), (0.5, 1.0), (2.0, 0.0), (1.0, 20.0)]:
            h = build_hamiltonian(basis, j, u, periodic=False)
            assert h.shape == (3, 3)
            e0, _ = ground_energy(h)
            assert e0 == pytest.approx(two_site_ground(j, u), rel=1e-12)

    def test_atomic_limit_diagonal(self):
        basis = FockBasis.build(4, 4, 4)
        h = build_hamiltonian(basis, 0.0, 3.0)
        assert (h - scipy.sparse.diags(h.diagonal())).nnz == 0
        e0, _ = ground_energy(h)
        assert e0 == 0.0   # unit filling: no double occupancy needed

    def test_free_two_site(self):
        basis = FockBasis.build(2, 2, 2)
        e0, _ = ground_energy(build_hamiltonian(basis, 1.0, 0.0,
                                                periodic=False))
        assert e0 == pytest.approx(-2.0, rel=1e-12)

    def test_exact_hermiticity(self):
        basis = FockBasis.build(5, 5, 3)
        h = build_hamiltonian(basis, 1.3, 2.7)
        assert (h != h.T).nnz == 0

    def test_number_conservation_by_construction(self):
        basis = FockBasis.build(4, 4, 4)
        h = build_hamiltonian(basis, 1.0, 2.0).tocoo()
        for r, c in zip(h.row, h.col):
            assert sum(basis.states[r]) == sum(basis.states[c])

    def test_periodic_not_above_open_at_u0(self):
        for L in (4, 6):
            basis = FockBasis.build(L, L, 4)
            e_per, _ = ground_energy(build_hamiltonian(basis, 1.0, 0.0, True))
            e_open, _ = ground_energy(build_hamiltonian(basis, 1.0, 0.0,
                                                        False))
            assert e_per <= e_open + 1e-12

    def test_tables_reused_linearly(self):
        # H(J, U) = J H(1, 0) + U H(0, 1) entry by entry, from one table
        basis = FockBasis.build(5, 5, 3)
        h = build_hamiltonian(basis, 1.3, 2.7).toarray()
        t = build_hamiltonian(basis, 1.0, 0.0).toarray()
        d = build_hamiltonian(basis, 0.0, 1.0).toarray()
        assert np.array_equal(h, 1.3 * t + 2.7 * d)
        assert np.array_equal(h, build_hamiltonian(basis, 1.3, 2.7).toarray())

    def test_negative_couplings_rejected(self):
        basis = FockBasis.build(2, 2, 2)
        with pytest.raises(DomainError):
            build_hamiltonian(basis, -1.0, 0.0)
        with pytest.raises(DomainError):       # U * n(n-1)/2 = 3U overflows
            build_hamiltonian(FockBasis.build(2, 3, 3), 1.0, 1e308)


class TestGroundEnergy:
    def test_scalar_matrix(self):
        h = scipy.sparse.csr_matrix(np.array([[3.7]]))
        e0, vec = ground_energy(h)
        assert e0 == 3.7 and vec.tolist() == [1.0]

    def test_dense_vs_lanczos_agreement(self):
        basis = FockBasis.build(4, 4, 4)
        h = build_hamiltonian(basis, 1.0, 4.0)
        e_dense, _ = ground_energy(h)          # dim 35: dense path
        w = scipy.sparse.linalg.eigsh(h, k=1, which="SA", tol=0)[0]
        assert abs(e_dense - w[0]) <= 1e-10 * abs(e_dense)

    def test_lanczos_path_large_basis(self):
        basis = FockBasis.build(8, 8, 3)       # dim 2919 > dense cutoff
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

    def test_lanczos_values_match_frozen(self):
        # L = 8 bases (dims 3144-8800) take the Lanczos path; the values were
        # computed by a per-state Hamiltonian build and full ARPACK solves
        for periodic, uj, want in [
            (True, 3.3, (-8.510932073950983, 0.41160619157933453,
                         0.4019865694746449)),
            (False, 1.0, (-11.67054510253686, 0.12384619376959805,
                          0.5883726129621778)),
        ]:
            res = diagnostics(8, 4, uj, periodic=periodic)
            got = (res.e0, res.gap, res.var_n)
            assert got == pytest.approx(want, rel=1e-10)


class TestChargeGap:
    def test_atomic_limit_gap_is_u(self):
        for L, u in [(4, 3.0), (6, 5.0), (8, 3.0)]:
            assert charge_gap(L, 4, 0.0, u) == pytest.approx(u, abs=1e-12)

    def test_mott_plateau(self):
        gap = charge_gap(6, 4, 1.0, 20.0)
        assert 0.6 <= gap / 20.0 <= 1.0
        # cross-check against a larger occupation cap
        assert charge_gap(6, 5, 1.0, 20.0) == pytest.approx(gap, abs=1e-6)

    def test_superfluid_gap_shrinks_with_size(self):
        gaps = [charge_gap(L, 4, 1.0, 1.0) for L in (4, 6, 8)]
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
            assert charge_gap(4, 4, 1.0, u) >= -1e-10


class TestDiagnostics:
    def test_invariants(self):
        res = diagnostics(4, 4, 4.0)
        assert res.var_n >= 0
        assert res.gap >= -1e-10
        assert res.corr[0] == pytest.approx(1.0, rel=1e-12)  # unit filling

    def test_correlations_match_per_state_sum(self):
        res = diagnostics(4, 3, 2.5)
        basis = FockBasis.build(4, 4, 3)
        _, vec = ground_energy(build_hamiltonian(basis, 1.0, 2.5))
        index = {s: i for i, s in enumerate(basis.states)}
        for d in range(1, 4):
            total = 0.0
            for i, state in enumerate(basis.states):
                if state[d] > 0 and state[0] < 3:
                    new = list(state)
                    new[d] -= 1
                    new[0] += 1
                    total += (vec[index[tuple(new)]] * vec[i]
                              * math.sqrt(state[d] * (state[0] + 1)))
            assert res.corr[d] == pytest.approx(total, abs=1e-12)

    def test_three_solves_per_point(self, monkeypatch):
        calls = []
        solve = bh_ed.ground_energy
        monkeypatch.setattr(bh_ed, "ground_energy",
                            lambda h: calls.append(h.shape) or solve(h))
        res = diagnostics(4, 4, 3.0)
        assert len(calls) == 3
        assert res.gap == pytest.approx(charge_gap(4, 4, 1.0, 3.0),
                                        abs=1e-12)

    def test_shared_bases(self):
        bases = bh_ed.unit_filling_bases(4, 4)
        assert sorted(bases) == [3, 4, 5]
        for uj in (1.0, 3.0):
            shared = diagnostics(4, 4, uj, bases=bases)
            assert shared == diagnostics(4, 4, uj)

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

    def test_deep_mott_no_crossing(self):
        with pytest.raises(NoCrossing):
            estimate_critical_ratio([4, 6], [15, 16, 17, 18, 19])
