"""Phase diagram over (Delta_p, Omega) and the extracted boundaries.

Sweeps the detuning/control-field plane, counts phases, locates the
superfluid -> Mott crossing along the default detuning cut, and extracts
phase-boundary polylines with marching squares.  Writes phase_grid.csv.
"""

import csv

from polariton_phases import optics, sweep


def main():
    base = optics.OpticalConfig()
    spec = sweep.GridSpec((2.0, 100.0, 40), (0.5, 3.0, 40), base)
    records = sweep.sweep_grid(spec)

    counts = {}
    for r in records:
        key = r.point.phase.value if r.point else r.error.split(":")[0]
        counts[key] = counts.get(key, 0) + 1
    print("grid composition:")
    for key, n in sorted(counts.items()):
        print(f"  {key:14s} {n:4d} nodes")

    root = sweep.find_mott_crossing(base, base.delta_p, (0.9, 1.2))
    print(f"\nMott crossing on the Delta_p = {base.delta_p:g} cut: "
          f"Omega*/Gamma = {root:.5f}")

    omega_star, gam, depth = sweep.find_pinning_crossing(base, 10.0,
                                                         (1.0, 3.0))
    print(f"pinning transition on the Delta_p = 10 cut: "
          f"Omega*/Gamma = {omega_star:.5f} "
          f"(gamma = {gam:.3f}, V1/E_R = {depth:.3f})")

    for line in sweep.phase_boundaries(spec):
        print(f"boundary [{line.model}]: {len(line.vertices)} vertices")

    with open("phase_grid.csv", "w", newline="\n") as fh:
        w = csv.writer(fh)
        w.writerow(["delta_p", "omega", "gamma_abs", "v1_over_er", "phase"])
        for r in records:
            if r.point:
                w.writerow([r.delta_p, r.omega, r.point.gamma_abs,
                            r.point.v1_over_er, r.point.phase.value])
    print("\nwrote phase_grid.csv")


if __name__ == "__main__":
    main()
