"""One-dimensional finite-difference reference for the robust value function.

Solves the fully nonlinear problem that the first-order expansion
approximates, in the only setting where a grid method is practical (d = 1):

    dv/dt + sup_{|s - vol| <= eta*eps} (1/2) s^2 v_xx + drift v_x + gamma*eps |v_x| = 0,
    v(T, .) = boundary,

on [center - L, center + L] with Dirichlet data frozen at the endpoints.
Each node takes the supremum by the sign of its second difference: s = vol +
eta*eps where it is positive, s = max(vol - eta*eps, 0) where negative. So
any boundary is accepted. The drift term is the supremum over c in [drift -
gamma*eps, drift + gamma*eps], taken at both ends and, where the interval
straddles 0, at c = 0; it is central where the lowest diffusion dominates
(cmax*dx <= sigma_low^2, true for every shipped benchmark) and
sign-upwinded otherwise.
Each candidate scheme, so also their maximum, is monotone under the step
bound, which the solver refuses to exceed.

An epsilon sweep is planned first (checks, grid, nt, terminal row), then
marched once as the k columns of a node-major (nx, k) state, allocation-free
per step; the k = 1 case is a single solve. This check of the Monte Carlo
engine shares no sampling code.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericError, StabilityError, ValidationError, array, choice, count, real
from .model import BaselineModel, BoundaryFunction, UncertaintySpec

Array = np.ndarray

_SAFETY = 0.9     # every step is at most _SAFETY times the stable bound


@dataclass(frozen=True)
class FdProblem1d:
    """A robust 1-D terminal-value problem plus its discretization choices.

    half_width None picks L = |center| + 8*sigma_eff*sqrt(T) + cmax*T, wide
    enough that the frozen Dirichlet data is felt only beyond ~8 standard
    deviations. nt None picks the largest stable step (times _SAFETY = 0.9).
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
    x_center: float = 0.0

    def __post_init__(self):
        real(self.drift, "drift")
        real(self.vol, "vol", low=0.0, above=True)
        real(self.gamma, "gamma", 0.0, 1.0)
        real(self.eta, "eta", 0.0, 1.0)
        real(self.epsilon, "epsilon", low=0.0)
        real(self.horizon, "horizon", low=0.0, above=True)
        real(self.x_center, "x_center")
        if self.half_width is not None:
            real(self.half_width, "half_width", low=0.0, above=True)
        count(self.nx, "nx", low=3)
        if self.nt is not None:
            count(self.nt, "nt")
        if self.boundary.dim != 1:
            raise ValidationError(f"FD oracle is 1-D only, boundary has dim {self.boundary.dim}")

    @property
    def sigma_eff(self) -> float:
        return self.vol + self.eta * self.epsilon

    @property
    def sigma_low(self) -> float:
        return max(self.vol - self.eta * self.epsilon, 0.0)

    @property
    def cmax(self) -> float:
        return abs(self.drift) + self.gamma * self.epsilon

    def resolved_half_width(self) -> float:
        if self.half_width is not None:
            return float(self.half_width)
        return (abs(self.x_center) + 8.0 * self.sigma_eff * math.sqrt(self.horizon)
                + self.cmax * self.horizon)

    def uses_central_advection(self, dx: float) -> bool:
        """Every candidate scheme must be monotone, so even sigma_low's diffusion must dominate."""
        return self.cmax * dx <= self.sigma_low ** 2

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
    """The t = 0 row after nt steps on grid_x: (nx,) for one problem, (k, nx) for k epsilons."""

    grid_x: Array
    values: Array
    nt: int

    def at(self, x: float) -> float:
        """Linear interpolation in x of a single problem's t = 0 row."""
        if self.values.ndim != 1:
            raise ValidationError(f"at(x) reads a single solve; this solution holds "
                                  f"{len(self.values)} rows, interpolate one with np.interp")
        x = real(x, "x")
        if not (self.grid_x[0] <= x <= self.grid_x[-1]):
            raise ValidationError(f"x={x} outside the grid [{self.grid_x[0]}, {self.grid_x[-1]}]")
        return float(np.interp(x, self.grid_x, self.values))


def _terminal_row(problem: FdProblem1d, grid_x: Array) -> Array:
    terminal = np.asarray(problem.boundary.value(grid_x[:, None]), dtype=float)
    if terminal.shape != grid_x.shape:
        raise ValidationError("boundary.value must return one value per grid node")
    if not np.isfinite(terminal).all():
        raise NumericError("boundary values non-finite on the FD grid")
    return terminal


def _discretize(problem: FdProblem1d, epsilons) -> tuple:
    """Rows, grid, dx and the nt any row needs, or problem.nt if every row is stable."""
    rows = ([problem] if epsilons is None else
            [replace(problem, epsilon=e) for e in array(epsilons, "epsilons", (None,)).tolist()])
    half = problem.resolved_half_width()
    grid_x = np.linspace(problem.x_center - half, problem.x_center + half, problem.nx)
    dx = float(grid_x[1] - grid_x[0])
    T, nt = problem.horizon, problem.nt
    max_dts = [r.max_stable_dt(dx) for r in rows]
    if nt is None:
        return rows, grid_x, dx, max(1, *(math.ceil(T / (_SAFETY * m)) for m in max_dts))
    for r, m in zip(rows, max_dts):
        if T / nt > _SAFETY * m + 1e-15:
            raise StabilityError(f"epsilon={r.epsilon:g}: dt={T / nt:.3e} exceeds the stable "
                                 f"step {_SAFETY * m:.3e} (nt >= "
                                 f"{math.ceil(T / (_SAFETY * m))} needed)", max_dt=m)
    return rows, grid_x, dx, int(nt)


def solve(problem: FdProblem1d, epsilons=None) -> FdSolution1d:
    """Explicit monotone march of the robust PDE from the terminal condition.

    Each of `epsilons` is a row of one march with one grid and nt, equal bit for
    bit to the solve of replace(problem, epsilon=e) on them; values is the t = 0
    row, C-contiguous (k, nx) in the order of `epsilons`, or (nx,) without them.
    The march holds two node-major (nx, k) time rows, so every neighbour slice is
    contiguous; a step whose new row has a non-finite sum gets the exact test.
    """
    rows, grid_x, dx, nt = _discretize(problem, epsilons)
    dt = problem.horizon / nt
    # march the central rows first, as columns [:nc], and the upwind ones after them
    order = sorted(range(len(rows)), key=lambda i: not rows[i].uses_central_advection(dx))
    k, nc, m = len(rows), sum(r.uses_central_advection(dx) for r in rows), problem.nx - 2
    # one (m, k) array per coefficient, since length-k broadcasts are slow
    diff_hi, diff_lo, c_hi, c_lo = (np.tile(c, (m, 1)) for c in np.array(
        [(0.5 * r.sigma_eff ** 2, 0.5 * r.sigma_low ** 2, r.drift + r.gamma * r.epsilon,
          r.drift - r.gamma * r.epsilon) for r in (rows[i] for i in order)]).T)
    u, new = np.tile(_terminal_row(problem, grid_x)[:, None], (2, 1, k))   # frozen edges
    d, (lap, ham, tmp, a, b) = np.empty((m + 1, k)), np.empty((5, m, k))
    d_plus, d_minus = d[1:], d[:-1]
    up, um, ut = (x[:, nc:] for x in (d_plus, d_minus, tmp))   # the upwind columns
    upwind = [(np.where(c < 0, 0.0, c)[:, nc:], np.where(c > 0, 0.0, c)[:, nc:], o[:, nc:])
              for c, o in ((c_hi, a), (c_lo, b)) if nc < k]
    # where c_lo < 0 < c_hi the upwind supremum may be at c = 0, whose candidate is 0;
    # the floor costs a pass per step, so it is skipped when no column straddles 0
    straddle = (c_lo < 0) & (c_hi > 0)
    floor = np.where(straddle, 0.0, -np.inf) if straddle.any() else None
    c_hi, c_lo = 0.5 * c_hi, 0.5 * c_lo   # exact, so (c/2)*s rounds as c*(s/2)
    with np.errstate(over="ignore"):   # an overflow surfaces as the NumericError below
        for step in range(nt - 1, -1, -1):
            np.subtract(u[1:], u[:-1], out=d)
            d /= dx
            np.subtract(d_plus, d_minus, out=lap)
            lap /= dx
            np.multiply(lap, diff_lo, out=tmp)
            lap *= diff_hi
            np.maximum(lap, tmp, out=lap)   # the worst case over the volatility interval
            if nc:   # candidates c * (d_plus + d_minus) / 2; upwind columns are overwritten
                np.add(d_plus, d_minus, out=tmp)
                np.multiply(c_hi, tmp, out=a)
                np.multiply(c_lo, tmp, out=b)
            for c_plus, c_minus, cand in upwind:   # max(c, 0) * d_plus + min(c, 0) * d_minus
                np.multiply(c_plus, up, out=cand)
                np.multiply(c_minus, um, out=ut)
                cand += ut
            np.maximum(a, b, out=ham)   # the worst case over c in [c_lo, c_hi]
            if floor is not None:
                np.maximum(ham, floor, out=ham)
            ham += lap
            ham *= dt
            np.add(u[1:-1], ham, out=new[1:-1])
            # a non-finite element makes the sum non-finite; a finite row may overflow it
            if not math.isfinite(np.add.reduce(new, axis=None)) and not np.isfinite(new).all():
                bad = min(order[j] for j in np.flatnonzero(~np.isfinite(new).all(axis=0)))
                raise NumericError(f"FD march produced non-finite values at time step {step} "
                                   f"(t={step * dt:.6g}) for epsilon={rows[bad].epsilon:g}")
            u, new = new, u
    values = np.ascontiguousarray(u.T[np.argsort(order)])
    return FdSolution1d(grid_x, values[0] if epsilons is None else values, nt)


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs); NaN under 3 usable points."""
    xs = array(xs, "xs", (None,))
    ys = array(ys, "ys", xs.shape)
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


@dataclass(frozen=True)
class SweepPlan:
    """A checked sweep; `problem` fixes half_width and nt, `rows` leads with 0 if anchored."""

    problem: FdProblem1d
    epsilons: tuple
    anchor: str
    rows: tuple


def plan_epsilon_sweep(problem: FdProblem1d, epsilons, anchor: str = "fd") -> SweepPlan:
    """Check a sweep and fix its grid and nt, before any FD or Monte Carlo work.

    The rows of template `problem` share one grid, sized for the largest
    epsilon, and one nt all can take; the terminal row is checked on that grid
    (shape, finiteness). anchor="fd" adds an epsilon = 0 row whose
    value replaces v0, cancelling the discretization offset all rows share;
    anchor="value" keeps v0. Needs >= 3 strictly increasing positive
    epsilons below min(1, vol), the expansion regime.
    """
    eps = tuple(array(epsilons, "epsilons", (None,)).tolist())
    if len(eps) < 3:
        raise ValidationError(f"need at least 3 epsilons, got {len(eps)}")
    if any(e <= 0 for e in eps) or any(b <= a for a, b in zip(eps, eps[1:])):
        raise ValidationError("epsilons must be strictly increasing and positive")
    bound = min(1.0, problem.vol)
    if eps[-1] >= bound:
        raise ValidationError(f"epsilon {eps[-1]} is outside the expansion regime (< {bound})")
    choice(anchor, "anchor", ("fd", "value"))
    grid = replace(problem, half_width=replace(problem, epsilon=eps[-1]).resolved_half_width())
    rows = ((0.0,) if anchor == "fd" else ()) + eps
    _, grid_x, _, nt = _discretize(grid, rows)
    _terminal_row(grid, grid_x)
    return SweepPlan(replace(grid, nt=nt), eps, anchor, rows)


def epsilon_sweep(plan: SweepPlan, *, v0: float, sensitivity: float) -> EpsSweepResult:
    """March all rows of the plan in one solve; tabulate |v_fd - (v0 + eps*sens)|
    and fit their log-log slope over the positive errors (NaN below 3)."""
    v0, sensitivity = real(v0, "v0"), real(sensitivity, "sensitivity")
    sol = solve(plan.problem, epsilons=plan.rows)
    fd_vals = [float(np.interp(plan.problem.x_center, sol.grid_x, r)) for r in sol.values]
    anchor_value = fd_vals.pop(0) if plan.anchor == "fd" else v0
    approx = [anchor_value + e * sensitivity for e in plan.epsilons]
    errors = [abs(v - a) for v, a in zip(fd_vals, approx)]
    return EpsSweepResult(plan.epsilons, tuple(fd_vals), tuple(approx), tuple(errors),
                          fit_loglog_slope(plan.epsilons, errors), plan.problem.half_width,
                          anchor_value)
