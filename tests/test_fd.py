import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from kolsens import (BaselineModel, BoundaryFunction, EpsSweepResult, FdProblem1d,
                     NumericError, StabilityError, SweepPlan, UncertaintySpec,
                     ValidationError, epsilon_sweep, fd_problem_from_model, fit_loglog_slope,
                     generate_normalized_model, plan_epsilon_sweep, quartic_boundary, quartic_v0,
                     sine_boundary, sine_sensitivity_quadrature, solve)


def _quartic_problem(**overrides):
    kw = dict(drift=1.0, vol=1.0, gamma=1.0, eta=1.0, epsilon=0.05,
              boundary=quartic_boundary(), horizon=1.0, nx=401)
    kw.update(overrides)
    return FdProblem1d(**kw)


def _poly_boundary(coeff):
    """Convex 1-D polynomial boundary c*x^2 used to keep solves tiny."""

    def value(p):
        s = np.asarray(p)[..., 0]
        return coeff * s * s

    def gradient(p):
        return 2.0 * coeff * np.asarray(p)

    return BoundaryFunction(dim=1, value=value, gradient=gradient,
                            growth_alpha=2.0, growth_const=abs(coeff) + 1.0)


# --------------------------------------------------------------------------
# problem construction
# --------------------------------------------------------------------------

def test_problem_validation():
    with pytest.raises(ValidationError):
        _quartic_problem(vol=0.0)
    with pytest.raises(ValidationError):
        _quartic_problem(gamma=1.5)
    with pytest.raises(ValidationError):
        _quartic_problem(epsilon=-0.1)
    with pytest.raises(ValidationError):
        _quartic_problem(nx=2)
    with pytest.raises(ValidationError):
        _quartic_problem(half_width=0.0)
    with pytest.raises(ValidationError):
        _quartic_problem(nt=0)
    with pytest.raises(ValidationError):
        _quartic_problem(boundary=sine_boundary(2))
    # a NaN or infinite size would otherwise fail later, in the grid arithmetic
    for field in ("half_width", "horizon"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError, match=field):
                _quartic_problem(**{field: bad})


def test_derived_discretization_quantities():
    p = _quartic_problem(epsilon=0.1, x_center=-0.5)
    assert p.sigma_eff == 1.1 and p.sigma_low == pytest.approx(0.9)
    assert p.cmax == 1.1
    assert p.resolved_half_width() == pytest.approx(0.5 + 8 * 1.1 + 1.1)
    assert p.uses_central_advection(0.01)
    assert p.max_stable_dt(0.01) == pytest.approx(1e-4 / 1.1**2)
    assert _quartic_problem(half_width=4.0).resolved_half_width() == 4.0
    # advection-dominated grids fall back to upwind differences
    thin = _quartic_problem(vol=0.05, eta=0.0, epsilon=0.04)
    assert not thin.uses_central_advection(0.1)
    assert thin.max_stable_dt(0.1) == pytest.approx(0.01 / (0.05**2 + 1.04 * 0.1))


def test_problem_from_model_round_trip():
    model = BaselineModel(drift=np.array([0.3]), vol=np.array([[0.8]]), horizon=2.0)
    unc = UncertaintySpec(gamma=0.5, eta=1.0, epsilon=0.07)
    p = fd_problem_from_model(model, quartic_boundary(), unc, nx=501)
    assert (p.drift, p.vol, p.gamma, p.eta, p.epsilon, p.horizon, p.nx) == \
        (0.3, 0.8, 0.5, 1.0, 0.07, 2.0, 501)
    wide = BaselineModel(drift=np.zeros(2), vol=np.eye(2))
    with pytest.raises(ValidationError):
        fd_problem_from_model(wide, sine_boundary(2), unc)


# --------------------------------------------------------------------------
# solve: exactness and guards
# --------------------------------------------------------------------------

def test_frozen_edges_are_exact():
    p = _quartic_problem(nx=201, half_width=4.0)
    sol = solve(p)
    expected = p.boundary.value(sol.grid_x[:, None])
    assert sol.values[0] == expected[0]
    assert sol.values[-1] == expected[-1]


def test_solution_keeps_the_t0_row():
    p = _quartic_problem(nx=201, half_width=4.0)
    sol = solve(p)
    assert sol.values.shape == (p.nx,)
    dx = float(sol.grid_x[1] - sol.grid_x[0])
    assert sol.nt == math.ceil(p.horizon / (0.9 * p.max_stable_dt(dx)))
    terminal = p.boundary.value(sol.grid_x[:, None])
    assert sol.values[100] > terminal[100]   # the march moved the t=0 row


def test_stability_guard():
    p = _quartic_problem(nt=3)
    with pytest.raises(StabilityError, match="stable step") as exc:
        solve(p)
    assert exc.value.max_dt > 0
    assert "nt >=" in str(exc.value)
    # an explicitly stable nt is accepted
    dx = 2 * _quartic_problem().resolved_half_width() / 400
    safe_nt = math.ceil(1.0 / (0.9 * _quartic_problem().max_stable_dt(dx))) + 1
    solve(_quartic_problem(nt=safe_nt, nx=401))


def test_sine_boundary_marches_the_volatility_supremum():
    # a non-convex boundary solves: each node takes the larger of the diffusions at
    # vol - eta*eps and vol + eta*eps, which is the maximum over the whole interval
    wavy = _quartic_problem(boundary=sine_boundary(1), nx=201)
    plan = plan_epsilon_sweep(wavy, [0.01, 0.02, 0.05])
    sweep = solve(plan.problem, epsilons=plan.rows)
    for e, row in zip(plan.rows, sweep.values):
        assert np.array_equal(row, _plain_march(replace(plan.problem, epsilon=e), vols=5))
    # the worst case grows with the ball at every node
    assert (np.diff(sweep.values, axis=0) >= 0).all()
    single = solve(wavy)
    assert np.array_equal(single.values, _plain_march(replace(wavy, nt=single.nt), vols=5))


def test_rows_beyond_the_expansion_regime_march_upwind():
    # eta*eps >= vol puts 0 in the volatility interval: the low diffusion clamps to 0,
    # so no central advection is monotone, and every row is upwinded; the drift interval
    # stays positive, where the two sign-upwinded candidates bound the whole interval
    p = FdProblem1d(drift=1.0, vol=0.5, gamma=0.5, eta=1.0, epsilon=1.0,
                    boundary=sine_boundary(1), nx=201)
    eps = [0.25, 0.5, 0.75, 1.0]
    assert [replace(p, epsilon=e).sigma_low for e in eps] == [0.25, 0.0, 0.0, 0.0]
    assert _central_flags(p, eps) == [False] * 4
    sol = solve(p, epsilons=eps)
    assert np.isfinite(sol.values).all()
    edges = p.boundary.value(sol.grid_x[[0, -1], None])
    assert (sol.values[:, [0, -1]] == edges).all()
    assert (np.diff(sol.values, axis=0) >= 0).all()   # nondecreasing in epsilon at every node
    assert sol.values[-1, 100] > sol.values[0, 100]
    half = p.resolved_half_width()
    for e, row in zip(eps, sol.values):
        assert np.array_equal(row, _plain_march(replace(p, epsilon=e, half_width=half,
                                                        nt=sol.nt)))


def test_a_drift_interval_straddling_zero_takes_its_supremum_at_zero_too():
    # with drift - gamma*eps < 0 < drift + gamma*eps the upwind drift term is
    # largest at c = 0 where d_minus > 0 > d_plus; taking that candidate too
    # makes every row nondecreasing in epsilon at every node
    p = FdProblem1d(drift=0.3, vol=0.5, gamma=1.0, eta=1.0, epsilon=1.0,
                    boundary=sine_boundary(1), nx=201)
    eps = [0.25, 0.5, 0.75, 1.0]
    assert [e > 0.3 for e in eps] == [False, True, True, True]     # these rows straddle 0
    assert _central_flags(p, eps) == [False] * 4
    sol = solve(p, epsilons=eps)
    assert (np.diff(sol.values, axis=0) >= 0).all()
    half = p.resolved_half_width()
    for e, row in zip(eps, sol.values):
        assert np.array_equal(row, _plain_march(replace(p, epsilon=e, half_width=half,
                                                        nt=sol.nt)))


def test_nonfinite_terminal_is_rejected():
    patchy = BoundaryFunction(
        dim=1,
        value=lambda p: np.where(np.abs(np.asarray(p)[..., 0]) > 5.0, np.nan,
                                 np.asarray(p)[..., 0] ** 2),
        gradient=lambda p: 2.0 * np.asarray(p),
    )
    with pytest.raises(NumericError, match="non-finite"):
        solve(_quartic_problem(boundary=patchy, nx=201))


def test_march_overflow_is_detected():
    # monotone stepping obeys a discrete maximum principle, so smooth data
    # cannot blow up; overflow needs a hinge so steep that the second
    # difference quotient itself exceeds the float range
    scale = 9e306

    def hinge(p):
        s = np.asarray(p)[..., 0]
        return scale * np.maximum(s, 0.0)

    steep = BoundaryFunction(dim=1, value=hinge,
                             gradient=lambda p: np.where(np.asarray(p) > 0, scale, 0.0))
    p = _quartic_problem(boundary=steep, nx=601, half_width=9.0, epsilon=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="time step"):
            solve(p)


def test_finite_rows_whose_sum_overflows_march_quietly():
    # the per-step check sums the new row first; that sum may overflow on
    # finite values, which must neither warn nor stop the march
    big = BoundaryFunction(dim=1, value=lambda p: 1e306 * (1.0 + np.asarray(p)[..., 0] ** 2),
                           gradient=lambda p: 2e306 * np.asarray(p))
    p = _quartic_problem(boundary=big, nx=101, half_width=2.0, gamma=0.0, eta=0.0,
                         epsilon=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve(p)
    with np.errstate(over="ignore"):
        assert not math.isfinite(np.add.reduce(sol.values))
    assert np.array_equal(sol.values, _plain_march(replace(p, nt=sol.nt)))


def test_malformed_boundary_shape_is_rejected():
    bad = BoundaryFunction(
        dim=1,
        value=lambda p: float(np.sum(np.asarray(p))),
        gradient=lambda p: np.ones(np.asarray(p).shape),
    )
    with pytest.raises(ValidationError, match="per grid node"):
        solve(_quartic_problem(boundary=bad, nx=101, half_width=2.0))


# --------------------------------------------------------------------------
# solve: numerical agreement
# --------------------------------------------------------------------------

def test_zero_uncertainty_matches_closed_form():
    p = _quartic_problem(gamma=0.0, eta=0.0, epsilon=0.0, nx=2001)
    sol = solve(p)
    for x in (0.0, 0.4):
        assert sol.at(x) == pytest.approx(quartic_v0(0.0, x, 1.0, 1.0, 1.0), abs=5e-3)


def test_value_is_monotone_in_epsilon():
    half = _quartic_problem(epsilon=0.1).resolved_half_width()
    vals = [solve(_quartic_problem(epsilon=e, half_width=half, nx=801)).at(0.0)
            for e in (0.0, 0.05, 0.1)]
    assert vals[0] < vals[1] < vals[2]


def test_constant_shift_identity():
    base = _poly_boundary(1.0)
    lifted = BoundaryFunction(dim=1, value=lambda p: base.value(p) + 3.25,
                              gradient=base.gradient)
    kw = dict(drift=0.4, vol=1.0, gamma=1.0, eta=1.0, epsilon=0.08,
              boundary=base, nx=401, half_width=6.0)
    v_base = solve(FdProblem1d(**kw)).at(0.0)
    kw["boundary"] = lifted
    v_lift = solve(FdProblem1d(**kw)).at(0.0)
    assert v_lift == pytest.approx(v_base + 3.25, rel=1e-9)


@pytest.mark.parametrize("gamma, eta", [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0)])
def test_sine_first_order_term_matches_the_quadrature(gamma, eta):
    # the expansion v_eps = v0 + eps * (gamma*S_b + eta*S_s) + O(eps^2) on the 1-D
    # normalized sine, which is not convex: dv/deps at eps = 0 from a quadratic fit
    model = generate_normalized_model(1, 7)
    eps = [0.0, 0.005, 0.01, 0.02, 0.04]
    p = fd_problem_from_model(model, sine_boundary(1), UncertaintySpec(gamma, eta, eps[-1]),
                              nx=401)
    sol = solve(p, epsilons=eps)
    slope = np.polyfit(eps, [np.interp(0.0, sol.grid_x, row) for row in sol.values], 2)[1]
    want = (gamma * sine_sensitivity_quadrature(1.0, 1, "drift")
            + eta * sine_sensitivity_quadrature(1.0, 1, "vol"))
    assert slope == pytest.approx(want, rel=2e-3)


# --------------------------------------------------------------------------
# interpolation queries
# --------------------------------------------------------------------------

def test_at_validates_query_point():
    sol = solve(_quartic_problem(nx=201, half_width=4.0))
    with pytest.raises(ValidationError, match="outside the grid"):
        sol.at(100.0)
    node = float(sol.grid_x[37])
    assert sol.at(node) == sol.values[37]
    assert math.isfinite(sol.at(0.0))


def test_at_interpolates_between_nodes():
    sol = solve(_quartic_problem(nx=201, half_width=4.0))
    xa, xb = float(sol.grid_x[50]), float(sol.grid_x[51])
    mid = sol.at(0.5 * (xa + xb))
    assert mid == pytest.approx(0.5 * (sol.values[50] + sol.values[51]),
                                rel=1e-12)


# --------------------------------------------------------------------------
# epsilon sweep and slope fitting
# --------------------------------------------------------------------------

def test_fit_loglog_slope_recovers_power_laws():
    xs = np.array([0.01, 0.02, 0.04, 0.08])
    assert fit_loglog_slope(xs, 3.0 * xs**2) == pytest.approx(2.0, abs=1e-12)
    assert fit_loglog_slope(xs, 0.5 * xs**1.5) == pytest.approx(1.5, abs=1e-12)
    assert math.isnan(fit_loglog_slope(xs[:2], xs[:2]))
    assert math.isnan(fit_loglog_slope(xs, np.zeros(4)))


def test_epsilon_sweep_validations():
    p = _quartic_problem()
    with pytest.raises(ValidationError, match="at least 3"):
        plan_epsilon_sweep(p, [0.01, 0.02])
    with pytest.raises(ValidationError, match="increasing"):
        plan_epsilon_sweep(p, [0.02, 0.01, 0.03])
    with pytest.raises(ValidationError, match="increasing"):
        plan_epsilon_sweep(p, [-0.01, 0.01, 0.02])
    with pytest.raises(ValidationError, match="expansion regime"):
        plan_epsilon_sweep(replace(p, vol=0.5), [0.2, 0.4, 0.6])
    with pytest.raises(ValidationError, match="anchor"):
        plan_epsilon_sweep(p, [0.01, 0.02, 0.03], anchor="grid")
    with pytest.raises(ValidationError, match="finite"):
        epsilon_sweep(plan_epsilon_sweep(p, [0.01, 0.02, 0.03]), v0=math.nan,
                      sensitivity=1.0)


def test_epsilon_sweep_table_consistency():
    p = FdProblem1d(drift=0.2, vol=1.0, gamma=1.0, eta=1.0, epsilon=0.1,
                    boundary=_poly_boundary(0.5), nx=401)
    eps = [0.02, 0.04, 0.06, 0.08, 0.1]
    res = epsilon_sweep(plan_epsilon_sweep(p, eps), v0=0.0, sensitivity=1.3)
    assert isinstance(res, EpsSweepResult)
    assert res.epsilons == tuple(eps)
    assert res.half_width == replace(p, epsilon=0.1).resolved_half_width()
    assert res.approx_values == tuple(res.anchor_value + e * 1.3 for e in eps)
    assert res.abs_errors == tuple(abs(v - a) for v, a in
                                   zip(res.fd_values, res.approx_values))
    assert all(b > a for a, b in zip(res.fd_values, res.fd_values[1:]))

    pinned = epsilon_sweep(plan_epsilon_sweep(p, eps, anchor="value"), v0=-7.5,
                           sensitivity=1.3)
    assert pinned.anchor_value == -7.5
    assert pinned.fd_values == res.fd_values



# --------------------------------------------------------------------------
# batched march: one (k, nx) march equals k single solves bit for bit
# --------------------------------------------------------------------------

def _plain_march(problem, vols=2):
    """The scheme written out for one problem, with scalar coefficients: the
    diffusion is the largest over `vols` volatilities spread evenly over
    [max(vol - eta*eps, 0), vol + eta*eps], the drift over its two extremes
    and, upwinded, the point of the drift interval nearest 0."""
    half = problem.resolved_half_width()
    x = np.linspace(problem.x_center - half, problem.x_center + half, problem.nx)
    dx = float(x[1] - x[0])
    dt = problem.horizon / problem.nt
    u = problem.boundary.value(x[:, None])
    ee = problem.eta * problem.epsilon
    low = max(problem.vol - ee, 0.0)
    sigmas = np.linspace(low, problem.vol + ee, vols).tolist()
    ge = problem.gamma * problem.epsilon
    c_hi, c_lo = problem.drift + ge, problem.drift - ge
    for _ in range(problem.nt):
        d_plus = (u[2:] - u[1:-1]) / dx
        d_minus = (u[1:-1] - u[:-2]) / dx
        lap = (d_plus - d_minus) / dx
        diffusion = np.max([0.5 * s ** 2 * lap for s in sigmas], axis=0)
        if max(abs(c_hi), abs(c_lo)) * dx <= low ** 2:   # central is monotone at every vol
            d_ctr = 0.5 * (d_plus + d_minus)
            hamil = np.maximum(c_hi * d_ctr, c_lo * d_ctr)
        else:
            hamil = np.max([max(c, 0.0) * d_plus + min(c, 0.0) * d_minus
                            for c in (c_hi, c_lo, min(max(0.0, c_lo), c_hi))], axis=0)
        u = np.concatenate([u[:1], u[1:-1] + dt * (diffusion + hamil), u[-1:]])
    return u


def _central_flags(problem, epsilons):
    half = problem.resolved_half_width()
    x = np.linspace(problem.x_center - half, problem.x_center + half, problem.nx)
    dx = float(x[1] - x[0])
    return [replace(problem, epsilon=e).uses_central_advection(dx) for e in epsilons]


_BATCHES = {
    # every row central: the quartic benchmark shape on a small grid
    "central": (_quartic_problem(epsilon=0.1, nx=201), [0.0, 0.02, 0.05, 0.1]),
    # the lowest volatility shrinks with epsilon, so a row is central up to some
    # epsilon and upwind beyond it; descending epsilons put the upwind rows first
    "upwind-to-central": (FdProblem1d(drift=0.5, vol=0.3, gamma=0.0, eta=1.0, epsilon=0.25,
                                      boundary=_poly_boundary(1.0), nx=101, half_width=2.5),
                          [0.25, 0.2, 0.1, 0.0]),
    # the drift interval grows with epsilon: central rows first, then upwind
    "central-to-upwind": (FdProblem1d(drift=0.1, vol=0.1, gamma=1.0, eta=0.0, epsilon=0.2,
                                      boundary=_poly_boundary(1.0), nx=101, half_width=2.5),
                          [0.0, 0.05, 0.1, 0.2]),
}


@pytest.mark.parametrize("case", sorted(_BATCHES))
def test_batched_rows_equal_single_solves(case):
    problem, eps = _BATCHES[case]
    flags = _central_flags(problem, eps)
    assert all(flags) if case == "central" else len(set(flags)) == 2
    batch = solve(problem, epsilons=eps)
    assert batch.values.shape == (len(eps), problem.nx)
    half = problem.resolved_half_width()
    for i, e in enumerate(eps):
        single = replace(problem, epsilon=e, half_width=half, nt=batch.nt)
        sol = solve(single)
        assert np.array_equal(batch.values[i], sol.values)
        assert np.array_equal(sol.grid_x, batch.grid_x) and sol.nt == batch.nt
        assert np.array_equal(sol.values, _plain_march(single))


@pytest.mark.parametrize("anchor", ["fd", "value"])
def test_sweep_rows_equal_single_solves(anchor):
    p = FdProblem1d(drift=0.2, vol=1.0, gamma=1.0, eta=1.0, epsilon=0.1,
                    boundary=_poly_boundary(0.5), nx=201, x_center=0.3)
    eps = [0.02, 0.05, 0.1]
    plan = plan_epsilon_sweep(p, eps, anchor=anchor)
    assert isinstance(plan, SweepPlan)
    assert plan.rows == ((0.0,) if anchor == "fd" else ()) + tuple(eps)
    res = epsilon_sweep(plan, v0=1.25, sensitivity=0.7)

    def single(e):
        return solve(replace(plan.problem, epsilon=e)).at(0.3)

    assert res.fd_values == tuple(single(e) for e in eps)
    assert res.anchor_value == (single(0.0) if anchor == "fd" else 1.25)


def test_user_nt_must_be_stable_for_every_row():
    p = _quartic_problem(nx=201, half_width=4.0)
    dx = 8.0 / 200
    need = {e: math.ceil(1.0 / (0.9 * replace(p, epsilon=e).max_stable_dt(dx)))
            for e in (0.02, 0.1)}
    assert need[0.02] < need[0.1]
    p = replace(p, nt=need[0.02])               # stable for 0 and 0.02, not for 0.1
    solve(replace(p, epsilon=0.02))
    with pytest.raises(StabilityError) as serial:
        solve(replace(p, epsilon=0.1))
    with pytest.raises(StabilityError, match="epsilon=0.1") as batch:
        solve(p, epsilons=[0.0, 0.02, 0.1])
    assert batch.value.max_dt == serial.value.max_dt
    assert str(batch.value) == str(serial.value)

    # the plan refuses it too, before any boundary evaluation
    def untouchable(x):
        raise AssertionError("the plan evaluated the boundary")

    lazy = replace(p, boundary=BoundaryFunction(dim=1, value=untouchable,
                                                gradient=untouchable))
    with pytest.raises(StabilityError, match="epsilon=0.05"):
        plan_epsilon_sweep(lazy, [0.01, 0.02, 0.05])
    assert plan_epsilon_sweep(p, [0.01, 0.015, 0.02]).problem.nt == need[0.02]



def test_anchor_row_takes_part_in_the_step_count():
    # the eps = 0 row has the least drift and volatility, so it needs no more steps than
    # any sweep row; it is still marched with the plan's nt, the maximum over every row
    p = FdProblem1d(drift=0.5, vol=0.3, gamma=0.0, eta=1.0, epsilon=0.2,
                    boundary=_poly_boundary(1.0), nx=101, half_width=2.5)
    eps = [0.1, 0.15, 0.2]
    assert _central_flags(p, [0.0] + eps) == [True, True, False, False]
    need = [solve(replace(p, epsilon=e)).nt for e in [0.0] + eps]
    assert need[0] <= min(need[1:])
    plan = plan_epsilon_sweep(p, eps)
    assert plan.problem.nt == max(need) > need[0]
    res = epsilon_sweep(plan, v0=0.0, sensitivity=1.0)
    assert res.anchor_value == solve(replace(p, epsilon=0.0, nt=plan.problem.nt)).at(0.0)
    assert plan_epsilon_sweep(p, eps, anchor="value").problem.nt == max(need)


def test_batched_overflow_names_the_first_bad_row_and_its_step():
    scale = 9e306
    steep = BoundaryFunction(dim=1,
                             value=lambda p: scale * np.maximum(np.asarray(p)[..., 0], 0.0),
                             gradient=lambda p: np.where(np.asarray(p) > 0, scale, 0.0))
    # row 0 is upwind, rows 1 and 2 central, so the march runs them as (1, 2, 0)
    p = FdProblem1d(drift=0.5, vol=0.3, gamma=0.0, eta=1.0, epsilon=0.25, boundary=steep,
                    nx=601, half_width=9.0, nt=400)
    eps = [0.25, 0.0, 0.1]
    assert _central_flags(p, eps) == [False, True, True]
    steps = []
    with np.errstate(over="ignore", invalid="ignore"):
        for e in eps:
            with pytest.raises(NumericError) as serial:
                solve(replace(p, epsilon=e))
            steps.append(int(str(serial.value).split("time step ")[1].split()[0]))
        first = max(range(len(eps)), key=lambda i: (steps[i], -i))
        with pytest.raises(NumericError) as batch:
            solve(p, epsilons=eps)
    assert f"time step {steps[first]} " in str(batch.value)
    assert str(batch.value).endswith(f"epsilon={eps[first]:g}")


# the eps-sweep-fd smoke shape; per row, the t = 0 value at x = 0, then at nodes
# 1, 120, 230 and 399, recorded when the march took the volatility supremum per node
_GOLDEN_NODES = (1, 120, 230, 399)
_GOLDEN = {
    0.0: ("0x1.3ed1f4a1218d5p+3", "0x1.1c2e949924f15p+13", "0x1.0885b91edca66p+7",
          "0x1.384b389fdeba8p+6", "0x1.2b65388604635p+13"),
    0.01: ("0x1.4be18e2f5df3bp+3", "0x1.1c88dc717e88cp+13", "0x1.0db1dd6a55fffp+7",
           "0x1.3f6ee9af3b07dp+6", "0x1.2b6d8d1ee32d8p+13"),
    0.02: ("0x1.5957e624ad05ep+3", "0x1.1ce03a4e86f72p+13", "0x1.12f2b916e2cbdp+7",
           "0x1.46b334578a1aap+6", "0x1.2b75c0683d33fp+13"),
    0.05: ("0x1.8438ebf91a53bp+3", "0x1.1dd5fbb024067p+13", "0x1.2333cedb84ca8p+7",
           "0x1.5d47a2f7f9a2bp+6", "0x1.2b8d86539cb24p+13"),
    0.1: ("0x1.d4837353cab9ep+3", "0x1.1f3f2f6fe05bep+13", "0x1.3ffe1d1e188d0p+7",
          "0x1.859b0044d242fp+6", "0x1.2bb21ac7902eep+13"),
}


def _golden_plan():
    return plan_epsilon_sweep(_quartic_problem(), [0.01, 0.02, 0.05, 0.1])


def test_sweep_march_bits_are_pinned():
    plan = _golden_plan()
    assert plan.rows == tuple(_GOLDEN) and plan.problem.nt == 549
    sol = solve(plan.problem, epsilons=plan.rows)
    for e, row in zip(plan.rows, sol.values):
        got = [float(np.interp(0.0, sol.grid_x, row))] + [float(row[j]) for j in _GOLDEN_NODES]
        assert tuple(v.hex() for v in got) == _GOLDEN[e], e


def test_permuted_epsilons_permute_the_rows():
    plan = _golden_plan()
    ordered = solve(plan.problem, epsilons=plan.rows).values
    perm = [3, 0, 4, 2, 1]
    sol = solve(plan.problem, epsilons=[plan.rows[i] for i in perm])
    assert sol.values.flags.c_contiguous and sol.values.shape == ordered.shape
    assert np.array_equal(sol.values, ordered[perm])
    # a mixed central/upwind batch keeps the input order too
    problem, eps = _BATCHES["upwind-to-central"]
    mixed = solve(problem, epsilons=eps[::-1])
    assert mixed.values.flags.c_contiguous
    assert np.array_equal(mixed.values, solve(problem, epsilons=eps).values[::-1])


def test_at_refuses_a_batched_solution():
    sol = solve(_quartic_problem(nx=51), epsilons=[0.0, 0.05])
    with pytest.raises(ValidationError, match="holds 2 rows"):
        sol.at(0.0)
