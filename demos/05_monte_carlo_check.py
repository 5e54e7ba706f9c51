"""Cross-check the analytic criterion against a stochastic simulation.

Samples the linearized dynamics as a linear Ito system (the Euler-Maruyama
chain, white-noise levels matched to the carrier) window by window: each
window of the chain and its carrier window sum is one exact 7-state
Gaussian map, so the cost does not grow with the number of steps.  From the
simulated reflected fields it estimates both minimized inference variances
and their product.  A modest trajectory budget keeps the statistics loose;
the run takes about 0.25 s including start-up (2-core x86 host, one BLAS
thread), and the acceptance suite runs the full-precision version.
"""

import time

from optoepr import (DimensionlessParams, build_state_space,
                     default_sim_config, epr_lhs, epr_product_estimate,
                     noise_psd, realize_dimensionless)

point = DimensionlessParams(p_cal=0.17, t_cal=0.1, delta=0.18)
params, ss = realize_dimensionless(point)
model = build_state_space(params, ss)
noise = noise_psd(params)

cfg = default_sim_config(model, n_trajectories=48, n_segments=24, seed=7,
                         tau=5e-4)
steps = round((cfg.burn_in + cfg.n_segments * cfg.tau) / cfg.dt)
print(f"sampling {cfg.n_trajectories} trajectories x {cfg.n_segments} windows "
      f"of a {steps}-step chain (dt = {cfg.dt:.2e} s, window = "
      f"{cfg.tau * params.gamma_c:.0f} cavity lifetimes)")

t0 = time.time()
est_x, est_y, prod, _ = epr_product_estimate(model, noise, cfg)
print(f"done in {time.time() - t0:.2f} s\n")

ref = epr_lhs(point)
for label, est, want in (("phi=0   ", est_x, ref.var_x),
                         ("phi=pi/2", est_y, ref.var_y)):
    z = (est.mean - want) / est.std_err
    print(f"  {label}: {est.mean:.4f} +- {est.std_err:.4f}   "
          f"analytic {want:.4f}   z = {z:+.2f}")
sig = (1.0 - prod.mean) / prod.std_err
print(f"  product : {prod.mean:.4f} +- {prod.std_err:.4f}   "
      f"analytic {ref.lhs:.4f}")
print(f"\nHeisenberg bound beaten by {sig:.1f} standard errors "
      f"({prod.n_samples} windows)")
