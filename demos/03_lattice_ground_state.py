"""Mean-field ground state in the polariton lattice and its release signal.

Finds the lattice NLSE ground state by preconditioned gradient descent on
the energy, checks that real-time evolution leaves it stationary, then
switches on loss and maps the decaying density to the outgoing intensity
trace a detector would see.
"""

import numpy as np

from polariton_phases import nlse, optics


def main():
    base = optics.OpticalConfig()
    vc = optics.validate_config(base)
    ep = optics.effective_params(vc)
    gam = optics.lieb_liniger_gamma(vc)
    s = optics.lattice_depth_ratio(vc)
    g = nlse.interaction_strength(gam.magnitude)
    print(f"lattice depth s = {s:.3f}, coupling g = {g:.3f}")

    params = nlse.NlseParams(v1_over_er=s, g_int=g, n_periods=8,
                             grid_points=256)
    state = nlse.ground_state(params)
    c0 = nlse.contrast_of(state.psi, params)
    print(f"ground-state density contrast = {c0:.4f} ({state.iterations} "
          f"iterations, residual {state.residual:.1e})")

    evolved, obs = nlse.evolve(state, params, dt=1e-3, steps=2000,
                               record_every=200)
    print(f"after tau = {evolved.time:.2f}: norm drift = "
          f"{abs(obs.norm[-1] - obs.norm[0]):.2e}, contrast drift = "
          f"{abs(obs.contrast[-1] - c0):.2e}")

    # now with loss: the norm decays at the predicted exponential rate
    kappa = ep.kappa / (ep.e_recoil * base.gamma_total)
    lossy = nlse.NlseParams(v1_over_er=s, g_int=g, kappa_dimless=kappa,
                            n_periods=8, grid_points=256)
    decayed, obs_k = nlse.evolve(state, lossy, dt=1e-3, steps=2000,
                                 record_every=200)
    print(f"with kappa = {kappa:.3g} (recoil units): final norm = "
          f"{obs_k.norm[-1]:.4f} vs exp(-kappa tau) = "
          f"{np.exp(-kappa * obs_k.tau[-1]):.4f}")

    times, intensity = nlse.release_profile(decayed, lossy, ep.v_g,
                                            base.n_ph)
    box = np.pi * lossy.n_periods / (np.pi * base.n_ph)
    # the periodic sum is exact on this grid
    integral = intensity.sum() * (times[1] - times[0])
    print(f"release window = {times[-1] * 1e6:.3f} us, integrated intensity "
          f"= {integral:.4g} (norm x box = {obs_k.norm[-1] * box:.4g})")


if __name__ == "__main__":
    main()
