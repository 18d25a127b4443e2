"""Heat-kernel identities and the quadrature engines.

Walks through the closed forms every solver leans on: kernel mass, the
semigroup property, the derivative cross-integral, and simplex quadrature
with integrable endpoint singularities.
"""

import math

import numpy as np
from scipy.integrate import quad

from wickshe import (apply_heat_semigroup, build_line_grid,
                     dxp_cross_inner, heat_kernel, heat_kernel_dx, sine_ic,
                     simplex_quadrature)

grid = build_line_grid(14.0, panels=56)

print("kernel mass  int p(t, x) dx          :",
      float(np.dot(heat_kernel(0.7, grid.nodes), grid.weights)))

conv = float(np.dot(heat_kernel(0.4, 1.0 - grid.nodes) * grid.weights,
                    heat_kernel(0.6, grid.nodes + 2.0)))
print("semigroup    p(0.4) * p(0.6) at 3.0  :", conv, "vs", heat_kernel(1.0, 3.0))

closed = dxp_cross_inner(1.0, 2.0, 0.0, 0.7)
numeric = quad(lambda z: heat_kernel_dx(1.0, -z) * heat_kernel_dx(2.0, 0.7 - z), -30, 30)[0]
print("cross-integral of two dxp factors    :", closed, "vs quadrature", numeric)

# sin is a heat-semigroup eigenfunction with eigenvalue e^{-t/2}
val = apply_heat_semigroup(sine_ic(), 1.0, math.pi / 2, grid)
print("semigroup on sin at (1, pi/2)        :", val, "vs", math.exp(-0.5))

# the simplex rule digests (s2-s1)^{-1/2} (1-s2)^{-1/2}, whose exact
# integral over the unit 2-simplex is pi
sing = simplex_quadrature(2, 1.0, lambda s1, s2: (s2 - s1) ** -0.5 * (1 - s2) ** -0.5)
print("singular simplex integral            :", sing, "vs", math.pi)
