"""wickshe: three equivalent solvers for the 1-D Wick stochastic heat
equation driven by space-only white noise, with the chaos expansion of the
spatial derivative and empirical regularity probes.

Module map:

* ``basis``          Hermite polynomials/functions, multi-indices, xi_alpha.
* ``kernels``        heat kernel, cross-integrals, line and simplex quadrature.
* ``chaos``          coefficient tables: Wick product, S-transform, norms.
* ``coefficients``   iterated-kernel quadrature of u_alpha and K_alpha.
* ``wiener_kernels`` order-n kernels in their three chain orderings.
* ``propagator``     Crank-Nicolson sweep of the coefficient system (oracle).
* ``spectral``       Fourier exponential-integrator sweep (deep truncations).
* ``chain_moments``  exact order masses / increment moments (constant data).
* ``feynman_kac``    paths, local time, the exponent, path-side S-transforms.
* ``regularity``     increment-moment curves, exponent fits, local-time laws.
* ``cli``            the ``wickshe`` experiment runner.
"""

from .basis import (MultiIndex, TruncationSpec, enumerate_multiindices, hermite_function,
                    hermite_function_dx, hermite_poly)
from .chaos import ChaosCoefficients, order_norm, s_transform_chaos, second_moment, wick_product
from .coefficients import (CoefficientQuadrature, cs_coefficient, cs_level_coefficients,
                           dx_coefficient, dx_level_coefficients)
from .feynman_kac import (build_level_grid, fk_conditional_estimate, local_time, psi_sample,
                          sample_noise, simulate_path, s_transform_dx_mc, s_transform_mc)
from .kernels import (InitialCondition, QuadratureGrid, apply_heat_semigroup,
                      apply_heat_semigroup_dx, build_line_grid, constant_ic,
                      dxp_cross_inner, gaussian_bump_ic, heat_kernel, heat_kernel_dx,
                      simplex_quadrature, sine_ic, tanh_ic)
from .propagator import PropagatorGrid, propagator_oracle
from .regularity import (ExponentEstimate, IncrementMomentCurve, exact_increment_curve,
                         fit_exponent, local_time_increment_check)
from .spectral import SpectralChaosField
from .wiener_kernels import WienerKernel, cs_kernel, fk_kernel, mw_kernel, sym_cs_kernel

__version__ = "0.1.0"
