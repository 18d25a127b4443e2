"""Path-side Monte Carlo: local time, the exponent, conditional estimates.

One Brownian path owns an occupation-density profile whose total mass is the
elapsed time exactly; dotting it with a white-noise sample gives the exponent
Psi, whose conditional law (Gaussian with mean -q/2 and variance q at fixed
path) makes exp(Psi) a unit-mean weight.
"""

import numpy as np

from wickshe import (build_level_grid, constant_ic, fk_conditional_estimate,
                     local_time, psi_sample, sample_noise, simulate_path)
from wickshe.streams import substream

t, x = 1.0, 0.0
levels = build_level_grid(t, x, 0.025)

t_grid, positions = simulate_path(t, 1e-3, x, substream(7, "demo-path"))
L = local_time(t_grid, positions, levels)
da = float(levels[1] - levels[0])
print("occupation mass da * sum L            :", float(da * L.sum()), "vs t =", t)
print("quadratic functional int L^2 da       :", float(da * np.dot(L, L)))

dW = sample_noise(levels, substream(7, "demo-noise"))
print("Psi = int L dW - 1/2 int L^2          :", psi_sample(L, dW, da))

# one sample of the random field u(t, x; W): a path average at fixed noise
est, se = fk_conditional_estimate(t, x, constant_ic(), levels, dW, n_paths=20_000,
                                  stream_seed=8, dt=1e-3)
print(f"conditional estimate at this noise    : {est:.4f} +- {se:.4f}")

# averaging over noise draws recovers the heat-semigroup mean
draws = []
for k in range(60):
    dW_k = sample_noise(levels, substream(9, "avg", k))
    e, _ = fk_conditional_estimate(t, x, constant_ic(), levels, dW_k, 2000, stream_seed=10 + k)
    draws.append(e)
print(f"mean over 60 noise draws              : {np.mean(draws):.4f} (target 1.0)")
