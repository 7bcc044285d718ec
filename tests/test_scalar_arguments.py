"""Every argument of the public API refuses a malformed value by name.

Each scalar parameter gets a bool, a NaN, an infinity and a string; a count
also gets 2.5 and the integral float 2.0 (only the CLI maps JSON's 2.0 to 2).
Each array parameter gets a valid value with a bool among its numbers, all
bools, or a string, None, a complex, a NaN or an infinity in place of one
number, and an empty, a ragged and a wrongly shaped list. Each parameter that
names one of a few options gets an unknown name, a bool and None. Each must
raise ValidationError whose message names the parameter.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from kolsens import (BaselineModel, BoundaryFunction, EstimatorStats, EvalPoint, FdProblem1d,
                     McConfig, UncertaintySpec, ValidationError, build_time_grid, draw_samples,
                     epsilon_sweep, fit_loglog_slope, gauss_abs_expectation,
                     generate_normalized_model, plan_epsilon_sweep, predicted_complexity,
                     quartic_boundary, quartic_sensitivity_quadrature, quartic_v0,
                     ridge_boundary, seeded_runs, sensitivity_mc, sine_boundary,
                     sine_sensitivity_quadrature, sine_v0, solve)
from kolsens.engine import resolve_workers

REAL = (True, math.nan, math.inf, "3")
COUNT = REAL + (2.5, 2.0)
CHOICE = ("bogus", True, None)


def _malformed(good: list) -> tuple:
    """Malformed variants of `good`, a valid nested list of two or more numbers:
    True in place of its last number and of every number; a string, None, a
    complex, a NaN and an infinity in place of its last number; an empty list,
    a ragged one and `good` nested once more."""
    def put(leaf, where=-1):
        a = np.array(good, dtype=object)
        a.flat[where] = leaf
        return a.tolist()
    return (put(True), put(True, slice(None)),
            *(put(leaf) for leaf in ("1", None, 1j, math.nan, math.inf)),
            [], [good, good[:-1]], [good])


MODEL = BaselineModel(drift=np.array([1.0]), vol=np.array([[1.0]]))
SAMPLES = draw_samples(MODEL, build_time_grid(0.0, 1.0, 2), 20, 5, 0)
QUARTIC = quartic_boundary()
FD_QUARTIC = replace(QUARTIC, hessian=None, ridge=replace(QUARTIC.ridge, d2=None))
ORIGIN = EvalPoint(t=0.0, x=np.zeros(1))
FD = {"drift": 1.0, "vol": 1.0, "gamma": 1.0, "eta": 1.0, "epsilon": 0.05,
      "boundary": QUARTIC, "nx": 101}
PLAN = plan_epsilon_sweep(FdProblem1d(**FD), [0.01, 0.02, 0.03])
SOLUTION = solve(FdProblem1d(**FD))
VECTOR, MATRIX = [1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]]
SAMPLES2 = draw_samples(BaselineModel(VECTOR, MATRIX), build_time_grid(0.0, 1.0, 2), 20, 5, 0)


def _boundary(**kw):
    return BoundaryFunction(**{"dim": 1, "value": np.sum, "gradient": np.sign, **kw})


def _quartic_args(name, v):
    return {"t": 0.0, "x": 0.0, "drift": 1.0, "vol": 1.0, "horizon": 1.0, name: v}


# (call taking the malformed value, the parameter's name, the values to refuse)
CASES = {
    "resolve_workers": (resolve_workers, "workers", COUNT),
    "sensitivity_mc.h": (lambda v: sensitivity_mc(FD_QUARTIC, ORIGIN, SAMPLES, h=v), "h", REAL),
    **{f"predicted_complexity.{name}": (
        lambda v, k=k: predicted_complexity(*[v if j == k else 2 for j in range(4)]),
        name, COUNT) for k, name in enumerate(("d", "n_steps", "m0", "m1"))},
    "seeded_runs.runs": (lambda v: seeded_runs(float, v, 0), "runs", COUNT),
    "seeded_runs.base_seed": (lambda v: seeded_runs(float, 1, v), "base_seed", COUNT + (-1,)),
    **{f"McConfig.{name}": (lambda v, name=name: McConfig(**{"m0": 100, "m1": 10, name: v}),
                            name, COUNT) for name in ("n_steps", "m0", "m1", "seed")},
    "McConfig.h": (lambda v: McConfig(m0=100, m1=10, h=v), "h", REAL),
    "build_time_grid.t_start": (lambda v: build_time_grid(v, 1.0, 2), "t_start", REAL),
    "build_time_grid.t_end": (lambda v: build_time_grid(0.0, v, 2), "t_end", REAL),
    "build_time_grid.n_steps": (lambda v: build_time_grid(0.0, 1.0, v), "n_steps", COUNT),
    "draw_samples.m0": (lambda v: draw_samples(MODEL, SAMPLES.grid, v, 1, 0), "m0", COUNT),
    "draw_samples.m1": (lambda v: draw_samples(MODEL, SAMPLES.grid, 20, v, 0), "m1", COUNT),
    "draw_samples.seed": (lambda v: draw_samples(MODEL, SAMPLES.grid, 20, 5, v), "seed", COUNT),
    "SampleGrid.i": (lambda v: SAMPLES.displacement(v), "i", COUNT),
    "SampleGrid.start": (lambda v: list(SAMPLES.tiles(1)(v, None)), "start", COUNT),
    "SampleGrid.stop": (lambda v: list(SAMPLES.tiles(1)(0, v)), "stop", COUNT),
    "BaselineModel.horizon": (lambda v: BaselineModel(MODEL.drift, MODEL.vol, horizon=v),
                              "horizon", REAL),
    **{f"UncertaintySpec.{name}": (
        lambda v, name=name: UncertaintySpec(**{"gamma": 0.5, "eta": 0.5, "epsilon": 0.1,
                                                name: v}),
        name, REAL) for name in ("gamma", "eta", "epsilon")},
    "EvalPoint.t": (lambda v: EvalPoint(t=v, x=np.zeros(1)), "t", REAL),
    "BoundaryFunction.dim": (lambda v: _boundary(dim=v), "dim", COUNT),
    "BoundaryFunction.growth_alpha": (lambda v: _boundary(growth_alpha=v), "growth_alpha",
                                      REAL),
    "BoundaryFunction.growth_const": (lambda v: _boundary(growth_const=v), "growth_const",
                                      REAL),
    "sine_boundary.dim": (sine_boundary, "dim", COUNT),
    "generate_normalized_model.dim": (lambda v: generate_normalized_model(v, 0), "dim", COUNT),
    "generate_normalized_model.seed": (lambda v: generate_normalized_model(2, v), "seed",
                                       COUNT + (-1,)),
    **{f"gauss_abs_expectation.{name}": (
        lambda v, name=name: gauss_abs_expectation(
            np.cos, lambda lo, hi: [], **{"mean": 0.0, "std": 1.0, "order": 8, name: v}),
        name, COUNT if name == "order" else REAL) for name in ("mean", "std", "order")},
    **{f"quartic_v0.{name}": (lambda v, name=name: quartic_v0(**_quartic_args(name, v)),
                              name, REAL) for name in ("t", "x", "drift", "vol", "horizon")},
    **{f"quartic_sensitivity_quadrature.{name}": (
        lambda v, name=name: quartic_sensitivity_quadrature("drift", **_quartic_args(name, v)),
        name, REAL) for name in ("t", "x", "drift", "vol", "horizon")},
    "sine_v0.horizon": (sine_v0, "horizon", REAL),
    "sine_sensitivity_quadrature.horizon": (
        lambda v: sine_sensitivity_quadrature(v, 1, "drift"), "horizon", REAL),
    "sine_sensitivity_quadrature.dim": (
        lambda v: sine_sensitivity_quadrature(1.0, v, "drift"), "dim", COUNT),
    **{f"FdProblem1d.{name}": (lambda v, name=name: FdProblem1d(**{**FD, name: v}), name,
                               COUNT if name in ("nx", "nt") else REAL)
       for name in ("drift", "vol", "gamma", "eta", "epsilon", "horizon", "half_width",
                    "nx", "nt", "x_center")},
    "plan_epsilon_sweep.epsilons": (
        lambda v: plan_epsilon_sweep(PLAN.problem, [0.01, v, 0.03]), "epsilons", REAL),
    "epsilon_sweep.v0": (lambda v: epsilon_sweep(PLAN, v0=v, sensitivity=1.0), "v0", REAL),
    "epsilon_sweep.sensitivity": (lambda v: epsilon_sweep(PLAN, v0=1.0, sensitivity=v),
                                  "sensitivity", REAL),
    "solve.epsilons": (lambda v: solve(PLAN.problem, epsilons=[v, 0.02, 0.03]), "epsilons",
                       REAL),
    "FdSolution1d.at.x": (SOLUTION.at, "x", REAL),
    # arrays
    "BaselineModel.drift": (lambda v: BaselineModel(v, MATRIX), "drift", _malformed(VECTOR)),
    "BaselineModel.vol": (lambda v: BaselineModel(VECTOR, v), "vol", _malformed(MATRIX)),
    "EvalPoint.x": (lambda v: EvalPoint(t=0.0, x=v), "x",
                    _malformed(VECTOR) + ("0.5", True, None)),
    "ridge_boundary.direction": (lambda v: ridge_boundary(v, np.sin, np.cos), "direction",
                                 _malformed(VECTOR)),
    "SampleGrid.projection.direction": (lambda v: SAMPLES2.projection(1, v, VECTOR),
                                        "direction", _malformed(VECTOR)),
    "SampleGrid.projection.x": (lambda v: SAMPLES2.projection(1, VECTOR, v), "x",
                                _malformed(VECTOR)),
    "solve.epsilons.array": (lambda v: solve(PLAN.problem, epsilons=v), "epsilons",
                             _malformed([0.01, 0.02])),
    "plan_epsilon_sweep.epsilons.array": (lambda v: plan_epsilon_sweep(PLAN.problem, v),
                                          "epsilons", _malformed([0.01, 0.02, 0.03])),
    "fit_loglog_slope.xs": (lambda v: fit_loglog_slope(v, VECTOR), "xs", _malformed(VECTOR)),
    "fit_loglog_slope.ys": (lambda v: fit_loglog_slope(VECTOR, v), "ys", _malformed(VECTOR)),
    "EstimatorStats.of.values": (EstimatorStats.of, "values", _malformed(VECTOR)),
    # names
    "McConfig.kernel": (lambda v: McConfig(m0=100, m1=10, kernel=v), "kernel", CHOICE),
    "plan_epsilon_sweep.anchor": (
        lambda v: plan_epsilon_sweep(PLAN.problem, [0.01, 0.02, 0.03], v), "anchor", CHOICE),
    "quartic_sensitivity_quadrature.kind": (quartic_sensitivity_quadrature, "kind", CHOICE),
    "sine_sensitivity_quadrature.kind": (lambda v: sine_sensitivity_quadrature(1.0, 1, v),
                                         "kind", CHOICE),
}


@pytest.mark.parametrize("call, name, bad", [
    pytest.param(call, name, bad, id=f"{case}-{bad!r}")
    for case, (call, name, bads) in CASES.items() for bad in bads])
def test_malformed_scalar_raises_validation_error_naming_it(call, name, bad):
    with pytest.raises(ValidationError, match=rf"\b{re.escape(name)}\b"):
        call(bad)
