"""Charge-gap scaling in small Bose-Hubbard chains.

Diagonalizes periodic chains at unit filling, one `UnitFilling` chain per
size built once and solved at every U/J, shows the gap opening with U/J,
and estimates the critical ratio from the crossing of the scaled gaps
L * Delta(L) for successive sizes.  The crossing of each size pair is
printed too: it drifts down as the chains grow, which is why the estimate's
spread is not an error bar.
"""

from itertools import combinations

from polariton_phases import bh_ed
from polariton_phases.errors import NoCrossing


def main():
    ratios = [1, 2, 3, 4, 5, 6, 7, 8]
    sizes = [4, 6, 8]

    print("scaled charge gap L * Delta(L) / J:")
    header = "U/J " + "".join(f"   L={L}" for L in sizes)
    print(header)
    # one chain per size: its bases and tables are built once for the table
    chains = {L: bh_ed.UnitFilling.build(L, 4) for L in sizes}
    for u in ratios:
        row = [f"{L * chains[L].diagnostics(u).gap:6.3f}" for L in sizes]
        print(f"{u:3d} " + " ".join(row))

    # the crossings interpolate linearly between samples: a finer grid
    fine = [1 + 0.25 * k for k in range(29)]
    est = bh_ed.estimate_critical_ratio(sizes, fine)
    print(f"\ncrossing estimate on U/J = 1, 1.25, ..., 8: (U/J)_c = "
          f"{est.mean:.3f} (spread {est.spread:.3f})")
    print("crossing of each size pair, drifting down with L:")
    for l1, l2 in combinations(sizes, 2):
        try:
            cross = bh_ed.estimate_critical_ratio([l1, l2], fine).mean
        except NoCrossing:
            print(f"  L = {l1}, {l2}: no crossing")
        else:
            print(f"  L = {l1}, {l2}: {cross:.3f}")

    print("\nlocal observables across the transition (L = 6):")
    for u in (1.0, 4.0, 8.0):
        d = bh_ed.diagnostics(6, 4, u)
        print(f"  U/J = {u:4.1f}: e0/J = {d.e0:8.4f}, gap/J = {d.gap:6.3f}, "
              f"var(n) = {d.var_n:.4f}, |<b+ b>_3| = {abs(d.corr[3]):.4f}")


if __name__ == "__main__":
    main()
