"""One-dimensional finite-difference reference for the robust value function.

Solves the fully nonlinear problem that the first-order expansion
approximates, in the only setting where a grid method is practical (d = 1):

    dv/dt + (1/2) (vol + eta*eps)^2 v_xx + drift v_x + gamma*eps |v_x| = 0,
    v(T, .) = boundary,

on a truncated domain [center - L, center + L] with Dirichlet data frozen at
the boundary-function values of the endpoints. The drift + gamma*eps |v_x|
term is the closed form of the worst-case drift over the uncertainty
interval, discretized as the maximum over the two extreme advection
velocities. Advection uses central differences whenever diffusion dominates
(cmax*dx <= sigma_eff^2, which holds for every shipped benchmark) so the
advection error is O(dx^2) instead of O(dx); on coarse grids or tiny
volatilities it falls back to sign-upwinded one-sided differences. Both
variants, combined with central second differences and explicit Euler steps
(reverse time), are monotone under the enforced step bound, so the discrete
solution obeys a comparison principle. The solver refuses time steps above
the stability bound instead of producing garbage.

This module is the independent check for the Monte Carlo engine: it shares
no sampling code, and its output is what the epsilon-sweep error law is
measured against.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericError, StabilityError, ValidationError
from .model import BaselineModel, BoundaryFunction, UncertaintySpec

Array = np.ndarray

_CONVEXITY_TOL = 1e-9


@dataclass(frozen=True)
class FdProblem1d:
    """A robust 1-D terminal-value problem plus its discretization choices.

    half_width None picks L = |center| + 8*sigma_eff*sqrt(T) + cmax*T, wide
    enough that the frozen Dirichlet data is felt only beyond ~8 standard
    deviations. nt None picks the largest stable step (times `safety`).
    """

    drift: float
    vol: float
    gamma: float
    eta: float
    epsilon: float
    boundary: BoundaryFunction
    horizon: float = 1.0
    half_width: float | None = None
    nx: int = 2001
    nt: int | None = None
    safety: float = 0.9
    x_center: float = 0.0
    allow_nonconvex: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.vol) and self.vol > 0):
            raise ValidationError(f"vol must be > 0, got {self.vol}")
        if not np.isfinite(self.drift):
            raise ValidationError("drift must be finite")
        for name in ("gamma", "eta"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValidationError(f"{name} must lie in [0, 1], got {v}")
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValidationError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.boundary.dim != 1:
            raise ValidationError(f"FD oracle is 1-D only, boundary has dim {self.boundary.dim}")
        if self.horizon <= 0:
            raise ValidationError(f"horizon must be > 0, got {self.horizon}")
        if self.half_width is not None and self.half_width <= 0:
            raise ValidationError(f"half_width must be > 0, got {self.half_width}")
        if int(self.nx) != self.nx or self.nx < 3:
            raise ValidationError(f"nx must be an integer >= 3, got {self.nx}")
        if self.nt is not None and (int(self.nt) != self.nt or self.nt < 1):
            raise ValidationError(f"nt must be an integer >= 1, got {self.nt}")
        if not (0.0 < self.safety <= 1.0):
            raise ValidationError(f"safety must lie in (0, 1], got {self.safety}")

    @property
    def sigma_eff(self) -> float:
        return self.vol + self.eta * self.epsilon

    @property
    def cmax(self) -> float:
        return abs(self.drift) + self.gamma * self.epsilon

    def resolved_half_width(self) -> float:
        if self.half_width is not None:
            return float(self.half_width)
        return (abs(self.x_center) + 8.0 * self.sigma_eff * math.sqrt(self.horizon)
                + self.cmax * self.horizon)

    def uses_central_advection(self, dx: float) -> bool:
        """Central advection is monotone only when diffusion dominates."""
        return self.cmax * dx <= self.sigma_eff ** 2

    def max_stable_dt(self, dx: float) -> float:
        if self.uses_central_advection(dx):
            return dx * dx / self.sigma_eff ** 2
        return dx * dx / (self.sigma_eff ** 2 + self.cmax * dx)


def fd_problem_from_model(model: BaselineModel, boundary: BoundaryFunction,
                          unc: UncertaintySpec, **kwargs) -> FdProblem1d:
    """Build the 1-D FD problem matching a (necessarily 1-D) baseline model.

    Only |vol| enters the law of the model, so a negative 1-D volatility
    gives the problem with vol = |vol| (worst case |vol| + eta*eps).
    """
    if model.dim != 1:
        raise ValidationError(f"FD oracle is 1-D only, model has dim {model.dim}")
    return FdProblem1d(drift=float(model.drift[0]), vol=abs(float(model.vol[0, 0])),
                       gamma=unc.gamma, eta=unc.eta, epsilon=unc.epsilon,
                       boundary=boundary, horizon=model.horizon, **kwargs)


@dataclass(frozen=True)
class FdSolution1d:
    """End rows of a march: values[0] at t = 0 and values[1] at t = T = grid_t[1].

    nt is the number of time steps taken between them.
    """

    grid_x: Array
    grid_t: Array
    values: Array
    nt: int

    def at(self, t: float, x: float) -> float:
        """Linear interpolation in x of the row at t, which must be 0 or T."""
        t0, t1 = float(self.grid_t[0]), float(self.grid_t[-1])
        if not (t0 <= t <= t1):
            raise ValidationError(f"t={t} outside the solved range [{t0}, {t1}]")
        if not (self.grid_x[0] <= x <= self.grid_x[-1]):
            raise ValidationError(f"x={x} outside the grid [{self.grid_x[0]}, {self.grid_x[-1]}]")
        if math.isclose(t, t0, abs_tol=1e-12):
            row = self.values[0]
        elif math.isclose(t, t1, abs_tol=1e-12):
            row = self.values[1]
        else:
            raise ValidationError("solution stored end rows only; query t=0 or t=T")
        return float(np.interp(x, self.grid_x, row))


def _check_discrete_convexity(problem: FdProblem1d, terminal: Array) -> None:
    second = terminal[2:] - 2.0 * terminal[1:-1] + terminal[:-2]
    tol = _CONVEXITY_TOL * max(1.0, float(np.max(np.abs(terminal))))
    worst = float(np.min(second))
    if worst < -tol:
        j = int(np.argmin(second)) + 1
        raise ValidationError(
            f"boundary is not convex on the grid (second difference {worst:.3e} "
            f"at node {j}); the FD reference is only valid for convex boundaries "
            "(pass allow_nonconvex=True to override)")


def solve(problem: FdProblem1d) -> FdSolution1d:
    """Explicit monotone march of the robust PDE from the terminal condition.

    Only the t=0 and t=T rows are kept, so memory is O(nx) however large
    the stability bound makes nt.
    """
    half = problem.resolved_half_width()
    grid_x = np.linspace(problem.x_center - half, problem.x_center + half, problem.nx)
    dx = float(grid_x[1] - grid_x[0])

    max_dt = problem.max_stable_dt(dx)
    if problem.nt is None:
        nt = max(1, math.ceil(problem.horizon / (problem.safety * max_dt)))
    else:
        nt = int(problem.nt)
        if problem.horizon / nt > problem.safety * max_dt + 1e-15:
            raise StabilityError(
                f"dt={problem.horizon / nt:.3e} exceeds the stable step "
                f"{problem.safety * max_dt:.3e} (nt >= "
                f"{math.ceil(problem.horizon / (problem.safety * max_dt))} needed)",
                max_dt=max_dt)
    dt = problem.horizon / nt

    terminal = np.asarray(problem.boundary.value(grid_x[:, None]), dtype=float)
    if terminal.shape != grid_x.shape:
        raise ValidationError("boundary.value must return one value per grid node")
    if not np.isfinite(terminal).all():
        raise NumericError("boundary values non-finite on the FD grid")
    if not problem.allow_nonconvex:
        _check_discrete_convexity(problem, terminal)

    diff = 0.5 * problem.sigma_eff ** 2
    ge = problem.gamma * problem.epsilon
    c_hi, c_lo = problem.drift + ge, problem.drift - ge
    central = problem.uses_central_advection(dx)
    hi_p, hi_m = max(c_hi, 0.0), min(c_hi, 0.0)
    lo_p, lo_m = max(c_lo, 0.0), min(c_lo, 0.0)

    u = terminal.copy()
    f_lo, f_hi = terminal[0], terminal[-1]
    new = np.empty_like(u)
    for k in range(nt - 1, -1, -1):
        d_plus = (u[2:] - u[1:-1]) / dx
        d_minus = (u[1:-1] - u[:-2]) / dx
        lap = (d_plus - d_minus) / dx
        if central:
            d_ctr = 0.5 * (d_plus + d_minus)
            hamil = np.maximum(c_hi * d_ctr, c_lo * d_ctr)
        else:
            hamil = np.maximum(hi_p * d_plus + hi_m * d_minus,
                               lo_p * d_plus + lo_m * d_minus)
        new[1:-1] = u[1:-1] + dt * (diff * lap + hamil)
        new[0], new[-1] = f_lo, f_hi
        if not np.isfinite(new).all():
            raise NumericError(f"FD march produced non-finite values at time step {k} "
                               f"(t={k * dt:.6g})")
        u, new = new, u

    return FdSolution1d(grid_x=grid_x, grid_t=np.asarray([0.0, problem.horizon]),
                        values=np.stack([u, terminal]), nt=nt)


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs); NaN under 3 usable points."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = (xs > 0) & (ys > 0)
    if int(np.sum(keep)) < 3:
        return float("nan")
    return float(np.polyfit(np.log(xs[keep]), np.log(ys[keep]), 1)[0])


@dataclass(frozen=True)
class EpsSweepResult:
    """Error table of the first-order approximation against the FD reference."""

    epsilons: tuple
    fd_values: tuple
    approx_values: tuple
    abs_errors: tuple
    slope: float
    half_width: float
    anchor_value: float


def epsilon_sweep(problem: FdProblem1d, epsilons, *, v0: float,
                  sensitivity: float, anchor: str = "fd") -> EpsSweepResult:
    """Solve the robust PDE per epsilon and tabulate |v_fd - (v0 + eps*sens)|.

    `problem` is a template; its epsilon field is replaced per sweep point.
    All solves share one spatial grid and one time-step count, both sized
    for the most demanding epsilon, so the tabulated values differ only
    through epsilon itself. anchor="fd" replaces the supplied v0 with the
    same-grid epsilon=0 solution, cancelling the discretization offset the
    sweep points all share so the error table isolates the epsilon scaling
    law; anchor="value" uses v0 exactly as given. Requires >= 3 strictly
    increasing positive epsilons inside the expansion regime
    (epsilon < min(1, vol)). The slope is the log-log fit over the strictly
    positive errors (NaN below 3 such points).
    """
    eps = [float(e) for e in epsilons]
    if len(eps) < 3:
        raise ValidationError(f"need at least 3 epsilons, got {len(eps)}")
    if any(e <= 0 for e in eps) or any(b <= a for a, b in zip(eps, eps[1:])):
        raise ValidationError("epsilons must be strictly increasing and positive")
    bound = min(1.0, problem.vol)
    if eps[-1] >= bound:
        raise ValidationError(
            f"epsilon {eps[-1]} is outside the expansion regime (< {bound})")
    if anchor not in ("fd", "value"):
        raise ValidationError(f"anchor must be 'fd' or 'value', got {anchor!r}")
    if not (math.isfinite(v0) and math.isfinite(sensitivity)):
        raise ValidationError("v0 and sensitivity must be finite")

    half = replace(problem, epsilon=eps[-1]).resolved_half_width()
    if problem.nt is not None:
        nt = problem.nt
    else:
        dx = 2.0 * half / (problem.nx - 1)
        nt = max(math.ceil(problem.horizon
                           / (problem.safety
                              * replace(problem, epsilon=e).max_stable_dt(dx)))
                 for e in eps)

    def _value_at(e: float) -> float:
        sol = solve(replace(problem, epsilon=e, half_width=half, nt=nt))
        return sol.at(0.0, problem.x_center)

    anchor_value = _value_at(0.0) if anchor == "fd" else float(v0)
    fd_vals = [_value_at(e) for e in eps]
    approx = [anchor_value + e * float(sensitivity) for e in eps]
    errors = [abs(v - a) for v, a in zip(fd_vals, approx)]
    slope = fit_loglog_slope(eps, errors)
    return EpsSweepResult(epsilons=tuple(eps), fd_values=tuple(fd_vals),
                          approx_values=tuple(approx), abs_errors=tuple(errors),
                          slope=slope, half_width=half, anchor_value=anchor_value)
