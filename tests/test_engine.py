import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from kolsens import (BaselineModel, BoundaryFunction, EstimatorStats, EvalPoint,
                     McConfig, NumericError, SensitivityReport, UncertaintySpec,
                     ValidationError, build_time_grid, compute_report, draw_samples,
                     first_order_approx, predicted_complexity, quartic_boundary,
                     ridge_boundary, seeded_runs, sensitivity_mc, sine_boundary, v0_mc)
from kolsens.engine import WORKERS_ENV


@pytest.fixture
def quartic_setup():
    model = BaselineModel(drift=np.array([1.0]), vol=np.array([[1.0]]), horizon=1.0)
    return model, quartic_boundary(), EvalPoint(t=0.0, x=np.zeros(1))


def _samples(model, n_steps, m0, m1, seed, t0=0.0):
    grid = build_time_grid(t0, model.horizon, n_steps)
    return draw_samples(model, grid, m0, m1, seed)


def _without_hessian(bnd):
    """The boundary with no Hessian declared, so the engine takes the FD branch."""
    ridge = None if bnd.ridge is None else replace(bnd.ridge, d2=None)
    return replace(bnd, hessian=None, ridge=ridge)


# --------------------------------------------------------------------------
# predicted complexity
# --------------------------------------------------------------------------

def test_complexity_frozen_examples():
    assert predicted_complexity(1, 1, 1, 1) == 6
    assert predicted_complexity(2, 3, 10, 5) == 680


def test_complexity_matches_independent_expression():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = int(rng.integers(1, 12))
        n = int(rng.integers(1, 300))
        m1 = int(rng.integers(1, 2000))
        m0 = m1 + int(rng.integers(0, 10_000))
        got = predicted_complexity(d, n, m0, m1)
        want = m0 * d + n * m1 * (m1 + 1) * d + n * m1 * (m1 + 1 + d) * d * d
        assert got == want
        assert isinstance(got, int)


def test_complexity_no_overflow_for_huge_inputs():
    big = predicted_complexity(100, 10**4, 10**9, 10**6)
    assert big == (10**9 * 100 + 10**4 * 10**6 * (10**6 + 1) * 100
                   + 10**4 * 10**6 * (10**6 + 1 + 100) * 100**2)
    assert big > 2**63


def test_complexity_quadratic_growth_in_inner_count():
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = int(rng.integers(1, 8))
        n = int(rng.integers(1, 50))
        m1 = int(rng.integers(1, 500))
        m0 = 4 * m1
        quad_terms = n * m1 * m1 * d + n * m1 * m1 * d * d
        grown = predicted_complexity(d, n, 2 * m0, 2 * m1) - 2 * m0 * d
        assert grown > 4 * quad_terms


def test_complexity_validation():
    for bad in [(0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0),
                (1.5, 1, 1, 1), (-2, 1, 1, 1)]:
        with pytest.raises(ValidationError):
            predicted_complexity(*bad)


# --------------------------------------------------------------------------
# baseline value estimator
# --------------------------------------------------------------------------

def test_v0_constant_boundary_is_exact(quartic_setup):
    model, _, pt = quartic_setup
    const = BoundaryFunction(
        dim=1,
        value=lambda p: np.full(np.asarray(p).shape[:-1], 3.25),
        gradient=lambda p: np.zeros(np.asarray(p).shape),
    )
    s = _samples(model, 4, 70_000, 10, seed=0)   # spans multiple value blocks
    assert v0_mc(model, const, pt, s) == 3.25


def test_v0_statistical_accuracy(quartic_setup):
    model, bnd, pt = quartic_setup
    s = _samples(model, 10, 200_000, 1, seed=0)
    # payoff std is sqrt(664) ~ 25.8; allow 4 standard errors
    assert v0_mc(model, bnd, pt, s) == pytest.approx(10.0, abs=4 * 25.8 / math.sqrt(200_000))


def test_v0_matches_direct_average(quartic_setup):
    model, bnd, pt = quartic_setup
    s = _samples(model, 3, 70_000, 5, seed=2)
    direct = float(np.mean(bnd.value(pt.x + s.displacement(3))))
    assert v0_mc(model, bnd, pt, s) == pytest.approx(direct, rel=1e-13)


def test_v0_translation_covariance_bitwise(quartic_setup):
    model, _, _ = quartic_setup
    shift = np.array([0.75])

    def f_value(p):
        q = np.asarray(p)[..., 0]
        return q * q * (q + 2.0)

    f = BoundaryFunction(dim=1, value=f_value,
                         gradient=lambda p: np.zeros(np.asarray(p).shape))
    g = BoundaryFunction(dim=1, value=lambda p: f_value(shift + np.asarray(p)),
                         gradient=lambda p: np.zeros(np.asarray(p).shape))
    s = _samples(model, 4, 30_000, 10, seed=7)
    at_x = v0_mc(model, f, EvalPoint(t=0.0, x=shift), s)
    at_origin = v0_mc(model, g, EvalPoint(t=0.0, x=np.zeros(1)), s)
    assert at_x == at_origin


def test_v0_rejects_nonfinite_boundary(quartic_setup):
    model, _, pt = quartic_setup
    nan_b = BoundaryFunction(
        dim=1,
        value=lambda p: np.full(np.asarray(p).shape[:-1], np.nan),
        gradient=lambda p: np.zeros(np.asarray(p).shape),
    )
    s = _samples(model, 2, 100, 10, seed=0)
    with pytest.raises(NumericError, match="sample"):
        v0_mc(model, nan_b, pt, s)


def test_v0_checks_point_and_grid_consistency(quartic_setup):
    model, bnd, _ = quartic_setup
    s = _samples(model, 4, 100, 10, seed=0)
    with pytest.raises(ValidationError):
        v0_mc(model, bnd, EvalPoint(t=0.5, x=np.zeros(1)), s)   # wrong t_start
    other = BaselineModel(drift=np.array([0.0]), vol=np.array([[1.0]]))
    with pytest.raises(ValidationError):
        v0_mc(other, bnd, EvalPoint(t=0.0, x=np.zeros(1)), s)   # wrong model


# --------------------------------------------------------------------------
# sensitivity estimator: exactness properties
# --------------------------------------------------------------------------

def _affine_boundary(a, c):
    a = np.asarray(a, dtype=float)

    def value(p):
        return np.asarray(p) @ a + c

    def gradient(p):
        p = np.asarray(p)
        return np.broadcast_to(a, p.shape).copy()

    def hessian(p):
        p = np.asarray(p)
        return np.zeros(p.shape + (p.shape[-1],))

    return BoundaryFunction(dim=a.shape[0], value=value, gradient=gradient,
                            hessian=hessian, growth_alpha=1.0,
                            growth_const=float(np.abs(a).sum() + abs(c) + 1))


@pytest.mark.parametrize("fd_branch", [False, True])
def test_affine_boundary_exactness(fd_branch):
    model = BaselineModel(drift=np.array([0.1, -0.2]),
                          vol=np.array([[1.0, 0.0], [0.3, 0.7]]), horizon=1.5)
    a = np.array([1.5, -0.5])
    bnd = _affine_boundary(a, 2.0)
    pt = EvalPoint(t=0.25, x=np.array([0.4, -0.1]))
    s = _samples(model, 6, 300, 37, seed=3, t0=0.25)
    sd, sv, used = sensitivity_mc(model, _without_hessian(bnd) if fd_branch else bnd, pt, s)
    assert sv == 0.0
    assert used is (not fd_branch)
    expected = (model.horizon - pt.t) * math.sqrt(float(a @ a))
    assert sd == pytest.approx(expected, rel=1e-13)


def test_constant_boundary_sensitivities_vanish(quartic_setup):
    model, _, pt = quartic_setup
    const = BoundaryFunction(
        dim=1,
        value=lambda p: np.full(np.asarray(p).shape[:-1], 1.0),
        gradient=lambda p: np.zeros(np.asarray(p).shape),
        hessian=lambda p: np.zeros(np.asarray(p).shape + (1,)),
    )
    s = _samples(model, 5, 200, 40, seed=1)
    sd, sv, _ = sensitivity_mc(model, const, pt, s)
    assert sd == 0.0 and sv == 0.0


def test_ridge_kernel_matches_generic():
    for model, bnd, d in [
        (BaselineModel(drift=np.array([1.0]), vol=np.array([[1.0]])), quartic_boundary(), 1),
        (BaselineModel(drift=np.full(3, 0.2), vol=np.eye(3) + 0.1), sine_boundary(3), 3),
    ]:
        pt = EvalPoint(t=0.0, x=np.zeros(d))
        s = _samples(model, 8, 400, 200, seed=5)
        r = sensitivity_mc(model, bnd, pt, s)
        g = sensitivity_mc(model, replace(bnd, ridge=None), pt, s)
        assert r[0] == pytest.approx(g[0], rel=1e-10)
        assert r[1] == pytest.approx(g[1], rel=1e-10)
        assert r[2] and g[2]


def test_fd_branch_agrees_with_hessian_at_rate_h(quartic_setup):
    model, bnd, pt = quartic_setup
    s = _samples(model, 6, 500, 300, seed=9)
    _, sv_exact, used = sensitivity_mc(model, bnd, pt, s)
    assert used
    errs = {}
    for h in (1e-2, 1e-3):
        _, sv_fd, used_fd = sensitivity_mc(model, _without_hessian(bnd), pt, s, h=h)
        assert not used_fd
        errs[h] = abs(sv_fd - sv_exact)
    # forward differences: error scales linearly with the bump
    assert errs[1e-3] < errs[1e-2]
    assert 3.0 < errs[1e-2] / errs[1e-3] < 30.0


def test_fd_branch_validates_bump(quartic_setup):
    model, bnd, pt = quartic_setup
    s = _samples(model, 2, 60, 30, seed=0)
    for h in (0.0, -1e-3, "0.01", True):
        with pytest.raises(ValidationError):
            sensitivity_mc(model, _without_hessian(bnd), pt, s, h=h)
    # bump is irrelevant (and unchecked) on the Hessian branch
    sensitivity_mc(model, bnd, pt, s, h=-1e-3)


def test_sensitivity_nonfinite_names_time_index(quartic_setup):
    model, _, pt = quartic_setup
    bad = BoundaryFunction(
        dim=1,
        value=lambda p: np.zeros(np.asarray(p).shape[:-1]),
        gradient=lambda p: np.full(np.asarray(p).shape, np.nan),
    )
    s = _samples(model, 3, 50, 20, seed=0)
    with pytest.raises(NumericError, match="time index"):
        sensitivity_mc(model, bad, pt, s)


def test_sensitivity_fails_at_first_bad_node(quartic_setup):
    model, _, pt = quartic_setup
    s = _samples(model, 6, 50, 20, seed=0)
    calls = []

    def gradient(p):
        calls.append(np.size(p))
        return np.full(np.asarray(p).shape, np.nan)

    # a declared Hessian keeps the FD shifts away: one gradient call per tile
    bnd = BoundaryFunction(dim=1, value=lambda p: np.zeros(np.asarray(p).shape[:-1]),
                           gradient=gradient,
                           hessian=lambda p: np.full(np.shape(p) + (1,), np.nan))
    with pytest.raises(NumericError, match="time index 0"):
        sensitivity_mc(model, bnd, pt, s, workers=1)
    assert len(calls) == 1     # one tile of node 0; nodes 1..5 never ran
    for workers in (2, 3):
        with pytest.raises(NumericError, match="time index 0$"):
            sensitivity_mc(model, bnd, pt, s, workers=workers)


def _tile_cases(wrap=lambda fn: fn):
    model = BaselineModel(drift=np.array([0.2, -0.1, 0.3]),
                          vol=np.array([[1.0, 0.0, 0.0], [0.2, 0.8, 0.0], [0.1, 0.1, 0.9]]))
    bnd = ridge_boundary(np.array([1.0, -0.5, 1.0]), wrap(np.sin), wrap(np.cos),
                         wrap(lambda s: -np.sin(s)))
    pt = EvalPoint(t=0.0, x=np.array([0.1, 0.0, -0.2]))
    return model, bnd, pt, _samples(model, 3, 60, 47, seed=11)


def _all_branches(model, bnd, pt, s):
    out = {}
    for kernel in ("ridge", "generic"):
        for fd_branch in (False, True):
            b = _without_hessian(bnd) if fd_branch else bnd
            b = replace(b, ridge=None) if kernel == "generic" else b
            out[kernel, fd_branch] = sensitivity_mc(model, b, pt, s, h=1e-3)
    return out


@pytest.mark.parametrize("budget", [None, 2000])
def test_tile_size_never_changes_bits(monkeypatch, budget):
    # m1 = 47 is prime, so no multi-row tile divides it; budget 2000 splits
    # every kernel's outer pool into several blocks (ridge 42, generic 4/14 rows)
    import kolsens.engine as eng
    if budget is not None:
        monkeypatch.setattr(eng, "_PAIR_BUDGET", budget)
    case = _tile_cases()
    results = []
    for tile in (1, 1000, 1 << 30):
        monkeypatch.setattr(eng, "_PAIR_TILE", tile)
        results.append(_all_branches(*case))
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("tile", [1, 100, 500])
def test_boundary_calls_stay_within_one_tile(monkeypatch, tile):
    import kolsens.engine as eng
    monkeypatch.setattr(eng, "_PAIR_TILE", tile)
    scalar_sizes, point_sizes = [], []

    def rec(fn, sizes):
        def wrapped(p):
            sizes.append(np.size(p))
            return fn(p)
        return wrapped

    model, bnd, pt, s = _tile_cases(lambda fn: rec(fn, scalar_sizes))
    bnd = replace(bnd, gradient=rec(bnd.gradient, point_sizes),
                  hessian=rec(bnd.hessian, point_sizes))
    _all_branches(model, bnd, pt, s)
    m1, d = s.m1, model.dim
    assert point_sizes and max(point_sizes) <= max(tile, m1 * d)
    assert max(scalar_sizes) <= max(tile, m1)


def test_worker_count_is_bit_invariant(quartic_setup, monkeypatch):
    model, bnd, pt = quartic_setup
    s = _samples(model, 7, 300, 150, seed=6)
    lone = sensitivity_mc(model, bnd, pt, s, workers=1)
    multi = sensitivity_mc(model, bnd, pt, s, workers=4)
    assert lone == multi
    monkeypatch.setenv(WORKERS_ENV, "3")
    from_env = sensitivity_mc(model, bnd, pt, s)
    assert from_env == lone
    with pytest.raises(ValidationError):
        sensitivity_mc(model, bnd, pt, s, workers=0)


def test_sine_sensitivities_near_quadrature_small_scale():
    from kolsens import sine_sensitivity_quadrature
    model = BaselineModel(drift=np.array([1.0]), vol=np.array([[1.0]]), horizon=1.0)
    bnd = sine_boundary(1)
    pt = EvalPoint(t=0.0, x=np.zeros(1))
    s = _samples(model, 50, 2000, 1000, seed=0)
    sd, sv, _ = sensitivity_mc(model, bnd, pt, s)
    assert sd == pytest.approx(sine_sensitivity_quadrature(1.0, 1, "drift"), abs=0.05)
    assert sv == pytest.approx(sine_sensitivity_quadrature(1.0, 1, "vol"), abs=0.05)


# --------------------------------------------------------------------------
# reports, repetition, approximation
# --------------------------------------------------------------------------

def test_report_document_field_set(quartic_setup):
    model, bnd, pt = quartic_setup
    rep = compute_report(model, bnd, pt, McConfig(n_steps=3, m0=100, m1=50, seed=1))
    doc = rep.to_document(UncertaintySpec(gamma=1.0, eta=0.5, epsilon=0.1))
    assert set(doc) == {"v0", "sens_drift", "sens_vol", "gamma", "eta", "epsilon",
                        "approx", "used_hessian_path", "runtime_seconds",
                        "predicted_ops", "seed", "d", "N", "M0", "M1", "h"}
    assert doc["approx"] == pytest.approx(
        rep.v0 + 0.1 * (1.0 * rep.sens_drift + 0.5 * rep.sens_vol))
    assert doc["predicted_ops"] == predicted_complexity(1, 3, 100, 50)
    assert doc["seed"] == 1 and doc["N"] == 3 and doc["M0"] == 100 and doc["M1"] == 50


def test_report_linearity_in_weights(quartic_setup):
    model, bnd, pt = quartic_setup
    rep = compute_report(model, bnd, pt, McConfig(n_steps=3, m0=120, m1=60, seed=2))
    both = rep.sens_total(1.0, 1.0)
    assert both == pytest.approx(rep.sens_total(1.0, 0.0) + rep.sens_total(0.0, 1.0),
                                 rel=1e-12)


def test_compute_report_zero_weights_short_circuit(quartic_setup):
    model, bnd, pt = quartic_setup

    def gradient(p):
        raise AssertionError("the sensitivity stage ran at zero weights")

    # without the ridge declaration the engine would call boundary.gradient
    untouchable = replace(bnd, ridge=None, gradient=gradient)
    rep = compute_report(model, untouchable, pt,
                         McConfig(n_steps=3, m0=100, m1=50, seed=3),
                         unc=UncertaintySpec(0.0, 0.0, 0.5))
    assert rep.sens_drift == 0.0 and rep.sens_vol == 0.0
    assert not rep.used_hessian_path and rep.h is None
    assert rep.v0 != 0.0


def test_first_order_approx_warns_outside_regime(quartic_setup):
    model, bnd, pt = quartic_setup
    rep = compute_report(model, bnd, pt, McConfig(n_steps=3, m0=100, m1=50, seed=4))
    inside = UncertaintySpec(1.0, 1.0, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = first_order_approx(rep, inside, model=model)
    assert val == pytest.approx(rep.v0 + 0.5 * (rep.sens_drift + rep.sens_vol))
    outside = UncertaintySpec(1.0, 1.0, 1.0)
    with pytest.warns(UserWarning, match="expansion"):
        first_order_approx(rep, outside, model=model)
    # without a model there is nothing to check against
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first_order_approx(rep, outside)


def test_seeded_runs_statistics():
    stats = EstimatorStats.of(seeded_runs(lambda seed: float(seed * seed), runs=4,
                                          base_seed=2))
    vals = np.array([4.0, 9.0, 16.0, 25.0])
    assert stats == EstimatorStats(runs=4, mean=float(vals.mean()),
                                   std_dev=float(vals.std(ddof=1)))
    single = EstimatorStats.of(seeded_runs(lambda seed: 1.0, runs=1, base_seed=0))
    assert single.mean == 1.0 and math.isnan(single.std_dev)


def test_seeded_runs_identifies_failing_seed():
    def flaky(seed):
        if seed == 13:
            raise RuntimeError("boom")
        return 0.0

    with pytest.raises(NumericError, match="13"):
        seeded_runs(flaky, runs=5, base_seed=10)
    with pytest.raises(ValidationError):
        seeded_runs(lambda s: 0.0, runs=0, base_seed=0)


def test_mcconfig_validates_sample_counts():
    with pytest.raises(ValidationError):
        McConfig(m0=10, m1=20)


def test_mcconfig_m1_defaults_to_min_30000_m0():
    assert McConfig(m0=1000).m1 == 1000
    assert McConfig().m1 == McConfig(m0=10**6).m1 == 30_000
    assert McConfig(m0=1000, m1=10).m1 == 10
    assert replace(McConfig(m0=1000), seed=3).m1 == 1000


@pytest.mark.parametrize("field", [
    {"n_steps": 0}, {"m0": 0, "m1": 0}, {"m1": 0}, {"n_steps": 2.5}, {"seed": -1},
    {"h": 0.0}, {"h": float("nan")}, {"h": "0.01"}, {"kernel": "ridge"},
    {"kernel": "bogus"}, {"h": True},
])
def test_mcconfig_validates_every_field(field):
    with pytest.raises(ValidationError):
        McConfig(**{"m0": 100, "m1": 10, **field})


def test_seeded_runs_passes_validation_errors_through():
    def bad(seed):
        raise ValidationError("bad config")

    with pytest.raises(ValidationError, match="^bad config$"):
        seeded_runs(bad, runs=2, base_seed=0)


def test_report_bump_is_null_on_the_hessian_branch(quartic_setup):
    model, bnd, pt = quartic_setup
    cfg = McConfig(n_steps=3, m0=100, m1=50, seed=1)
    assert compute_report(model, bnd, pt, cfg).h is None
    fd_bnd = _without_hessian(bnd)
    fd = compute_report(model, fd_bnd, pt, cfg)
    assert fd.h == 1e-3 and not fd.used_hessian_path
    assert compute_report(model, fd_bnd, pt, replace(cfg, h=0.01)).h == 0.01
    # zero weights skip the sensitivity stage, so no bump was used either
    zero = UncertaintySpec(gamma=0.0, eta=0.0, epsilon=0.1)
    assert compute_report(model, fd_bnd, pt, cfg, unc=zero).h is None


def test_generic_kernel_setting_drops_the_ridge_declaration():
    model = BaselineModel(drift=np.full(3, 0.2), vol=np.eye(3) + 0.1)
    bnd, pt = sine_boundary(3), EvalPoint(t=0.0, x=np.zeros(3))
    cfg = McConfig(n_steps=3, m0=200, m1=40, seed=2, kernel="generic")
    got = compute_report(model, bnd, pt, cfg)
    want = compute_report(model, replace(bnd, ridge=None), pt, replace(cfg, kernel="auto"))
    assert (got.v0, got.sens_drift, got.sens_vol) == (want.v0, want.sens_drift, want.sens_vol)


def test_compute_report_respects_eval_time():
    model = BaselineModel(drift=np.array([1.0]), vol=np.array([[1.0]]), horizon=1.0)
    bnd = quartic_boundary()
    with pytest.raises(ValidationError):
        compute_report(model, bnd, EvalPoint(t=1.0, x=np.zeros(1)),
                       McConfig(n_steps=2, m0=50, m1=10, seed=0))
