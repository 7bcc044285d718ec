"""
Sensitivity analysis of a quartic terminal payoff
=================================================

A one-dimensional diffusion with unit drift and unit volatility is paired
with the quartic terminal condition f(x) = x**4, whose baseline value at the
origin is v0 = E[(1 + W_1)**4] = 10.  For this benchmark the baseline value
and both sensitivity factors have closed forms, so the script estimates
everything by nested Monte Carlo and prints the estimates next to the exact
numbers.
"""

import numpy as np

from kolsens import (BaselineModel, EvalPoint, McConfig, UncertaintySpec,
                     compute_report, first_order_approx, quartic_boundary,
                     quartic_sensitivity_quadrature, quartic_v0,
                     validate_expansion_regime)

# the baseline model: dX = 1 dt + 1 dW on [0, 1], evaluated at the origin
model = BaselineModel(drift=np.array([1.0]), vol=np.array([[1.0]]), horizon=1.0)
point = EvalPoint(t=0.0, x=np.zeros(1))
boundary = quartic_boundary()

# exact references from Gauss-Legendre quadrature of the closed-form integrands
v0_exact = quartic_v0(point.t, 0.0, 1.0, 1.0, model.horizon)
drift_exact = quartic_sensitivity_quadrature("drift")
vol_exact = quartic_sensitivity_quadrature("vol")

# one seeded nested Monte Carlo run: M0 outer paths for the value,
# N time nodes with M1 inner paths each for the sensitivities
cfg = McConfig(n_steps=100, m0=200_000, m1=2000, seed=0)
report = compute_report(model, boundary, point, cfg)

print(f"baseline value  v0     {report.v0:10.5f}   exact {v0_exact:10.5f}")
print(f"drift factor    S_b    {report.sens_drift:10.5f}   exact {drift_exact:10.5f}")
print(f"vol factor      S_s    {report.sens_vol:10.5f}   exact {vol_exact:10.5f}")
print(f"hessian path used: {report.used_hessian_path}, "
      f"runtime {report.runtime_seconds:.2f}s, "
      f"predicted elementary operations {report.predicted_ops:.3e}")

# first-order value under uncertainty: v_eps ~ v0 + eps*(gamma*S_b + eta*S_s).
# The expansion is only supported while eps stays below min(1, lambda_min(vol)).
for eps in (0.02, 0.05, 0.10):
    unc = UncertaintySpec(gamma=1.0, eta=1.0, epsilon=eps)
    regime = validate_expansion_regime(model, unc)
    approx = first_order_approx(report, unc, model)
    print(f"eps={eps:4.2f}  first-order value {approx:9.5f}  "
          f"(regime ok: {regime.ok}, bound {regime.bound:g})")
