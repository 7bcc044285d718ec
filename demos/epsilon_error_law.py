"""
Quadratic error law of the first-order expansion
================================================

The worst-case value under drift and volatility uncertainty of size eps
solves a fully nonlinear parabolic equation.  Solving that equation on a
grid for a range of eps and comparing with the linear prediction
v0 + eps * sensitivity exposes the second-order remainder: on a log-log
plot the error against eps has slope close to 2.
"""

from kolsens import (FdProblem1d, epsilon_sweep, fit_loglog_slope, plan_epsilon_sweep,
                     quartic_boundary, quartic_sensitivity_quadrature,
                     quartic_v0)

# the quartic benchmark again: both weight factors active
problem = FdProblem1d(drift=1.0, vol=1.0, gamma=1.0, eta=1.0, epsilon=0.1,
                      boundary=quartic_boundary(), nx=1201)

v0 = quartic_v0(0.0, 0.0, 1.0, 1.0, 1.0)
sensitivity = (quartic_sensitivity_quadrature("drift")
               + quartic_sensitivity_quadrature("vol"))

# the sweep anchors the linear prediction at the eps=0 grid value, so the
# common discretization offset cancels and the pure eps**2 remainder is left;
# the plan checks the sweep and fixes one grid and step count, and the sweep
# marches all eleven rows (ten epsilons and the anchor) together
plan = plan_epsilon_sweep(problem, [0.01 * k for k in range(1, 11)])
result = epsilon_sweep(plan, v0=v0, sensitivity=sensitivity)

print(f"grid half-width {result.half_width:.2f}, "
      f"anchor value {result.anchor_value:.6f} (exact v0 {v0:.6f})")
print(f"{'eps':>5} {'grid value':>12} {'linear pred':>12} {'abs error':>12}")
for eps, vf, va, err in zip(result.epsilons, result.fd_values,
                            result.approx_values, result.abs_errors):
    print(f"{eps:5.2f} {vf:12.6f} {va:12.6f} {err:12.3e}")
print(f"fitted log-log slope: {result.slope:.3f} (theory: 2)")

# the same fit is available directly for any (x, y) power-law table
assert abs(fit_loglog_slope(result.epsilons, result.abs_errors) - result.slope) == 0.0
