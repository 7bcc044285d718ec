from dataclasses import replace

import numpy as np
import pytest

from kolsens import (BaselineModel, EvalPoint, NumericError, UncertaintySpec,
                     ValidationError, check_boundary, generate_normalized_model,
                     lambda_min, quartic_boundary, ridge_boundary, sine_boundary,
                     validate_expansion_regime)
from kolsens import model as model_module
from kolsens.model import BoundaryFunction


def test_model_shapes_and_dim():
    m = BaselineModel(drift=np.array([0.5, -0.5]), vol=np.eye(2), horizon=2.0)
    assert m.dim == 2
    assert m.horizon == 2.0
    assert not m.drift.flags.writeable
    assert not m.vol.flags.writeable


@pytest.mark.parametrize("drift,vol,horizon", [
    (np.zeros((2, 2)), np.eye(2), 1.0),           # drift not 1-d
    (np.zeros(2), np.eye(3), 1.0),                # shape mismatch
    (np.zeros(2), np.zeros((2, 2)), 1.0),         # singular volatility
    (np.array([np.nan, 0.0]), np.eye(2), 1.0),    # non-finite drift
    (np.zeros(2), np.eye(2), 0.0),                # bad horizon
    (np.zeros(2), np.eye(2), -1.0),
])
def test_model_rejects_bad_input(drift, vol, horizon):
    with pytest.raises(ValidationError):
        BaselineModel(drift=drift, vol=vol, horizon=horizon)


def test_lambda_min_matches_singular_values():
    rng = np.random.default_rng(0)
    for _ in range(10):
        d = int(rng.integers(1, 6))
        vol = rng.standard_normal((d, d)) + np.eye(d)
        try:
            m = BaselineModel(drift=np.zeros(d), vol=vol)
        except ValidationError:
            continue
        assert lambda_min(m) == pytest.approx(np.linalg.svd(vol, compute_uv=False)[-1])


def test_uncertainty_spec_bounds():
    UncertaintySpec(gamma=0.0, eta=1.0, epsilon=0.0)
    with pytest.raises(ValidationError):
        UncertaintySpec(gamma=1.5, eta=0.0, epsilon=0.1)
    with pytest.raises(ValidationError):
        UncertaintySpec(gamma=0.0, eta=-0.1, epsilon=0.1)
    with pytest.raises(ValidationError):
        UncertaintySpec(gamma=0.0, eta=0.0, epsilon=-1e-9)


def test_eval_point_validation():
    p = EvalPoint(t=0.25, x=np.array([1.0, 2.0]))
    assert p.t == 0.25
    assert not p.x.flags.writeable
    with pytest.raises(ValidationError):
        EvalPoint(t=-0.1, x=np.zeros(1))
    with pytest.raises(ValidationError):
        EvalPoint(t=0.0, x=np.array([np.inf]))


def test_expansion_regime_gate():
    m = BaselineModel(drift=np.zeros(2), vol=np.eye(2))
    ok = validate_expansion_regime(m, UncertaintySpec(1.0, 1.0, 0.5))
    assert ok.ok and ok.bound == 1.0 and ok.vol_lambda_min == pytest.approx(1.0)
    bad = validate_expansion_regime(m, UncertaintySpec(1.0, 1.0, 1.0))
    assert not bad.ok

    # a flatter volatility tightens the bound below 1
    m2 = BaselineModel(drift=np.zeros(2), vol=np.diag([1.0, 0.2]))
    rep = validate_expansion_regime(m2, UncertaintySpec(1.0, 1.0, 0.3))
    assert rep.bound == pytest.approx(0.2)
    assert not rep.ok


def test_quartic_boundary_closed_forms():
    b = quartic_boundary()
    assert b.dim == 1 and b.ridge is not None
    pts = np.linspace(-2.0, 2.0, 9)[:, None]
    assert np.allclose(b.value(pts), pts[:, 0] ** 4)
    assert np.allclose(b.gradient(pts)[:, 0], 4.0 * pts[:, 0] ** 3)
    assert np.allclose(b.hessian(pts)[:, 0, 0], 12.0 * pts[:, 0] ** 2)


def test_quartic_profile_rounds_like_its_expressions():
    # the in-place profile callables take the same operations in the same
    # order as these expressions, so every bit matches, and never touch s
    ridge = quartic_boundary().ridge
    want = {ridge.profile: lambda s: (s * s) * (s * s),
            ridge.d1: lambda s: 4.0 * (s * s) * s,
            ridge.d2: lambda s: 12.0 * (s * s)}
    rng = np.random.default_rng(3)
    special = np.array([0.0, -0.0, 1e-160, -3e-155, 5e-324, 1e77, -2e80, 1e155,
                        np.inf, -np.inf, np.nan])
    grid = np.concatenate([special, rng.standard_normal(89) * 10.0 ** rng.integers(-3, 4, 89)])
    cases = [float(v) for v in special] + [np.float64(-1.7), np.array(2.3), np.array(-0.0)]
    cases += [grid.reshape(4, 25, 1), rng.standard_normal((3, 7, 1))]
    for fn, expr in want.items():
        for s in cases:
            before = np.array(s, copy=True)
            with np.errstate(over="ignore"):
                got, ref = np.asarray(fn(s), dtype=float), np.asarray(expr(s), dtype=float)
            assert got.shape == ref.shape
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))
            assert np.array_equal(np.asarray(s).view(np.int64), before.view(np.int64))


def test_sine_boundary_closed_forms():
    d = 4
    b = sine_boundary(d)
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((7, d))
    s = pts.sum(axis=1)
    assert np.allclose(b.value(pts), np.sin(s))
    assert np.allclose(b.gradient(pts), np.cos(s)[:, None] * np.ones(d))
    hess = b.hessian(pts)
    assert hess.shape == (7, d, d)
    assert np.allclose(hess, -np.sin(s)[:, None, None] * np.ones((d, d)))
    assert np.allclose(hess, np.swapaxes(hess, -1, -2))


def test_boundary_batched_shapes():
    b = sine_boundary(3)
    pts = np.zeros((5, 2, 3))
    assert b.value(pts).shape == (5, 2)
    assert b.gradient(pts).shape == (5, 2, 3)
    assert b.hessian(pts).shape == (5, 2, 3, 3)


def test_growth_envelope_holds_on_probes():
    rng = np.random.default_rng(7)
    for b in (quartic_boundary(), sine_boundary(3)):
        pts = 3.0 * rng.standard_normal((200, b.dim))
        total = (np.abs(b.value(pts))
                 + np.linalg.norm(b.gradient(pts), axis=-1)
                 + np.linalg.norm(b.hessian(pts), axis=(-2, -1)))
        envelope = b.growth_const * (1.0 + np.linalg.norm(pts, axis=-1) ** b.growth_alpha)
        assert np.all(total <= envelope)


def test_check_boundary_accepts_builtins():
    for b in (quartic_boundary(), sine_boundary(2), sine_boundary(6)):
        rep = check_boundary(b)
        assert rep.ok, rep


def test_check_boundary_flags_wrong_gradient():
    bad = BoundaryFunction(
        dim=1,
        value=lambda p: np.asarray(p)[..., 0] ** 2,
        gradient=lambda p: 3.0 * np.asarray(p)[..., :1],  # should be 2x
    )
    rep = check_boundary(bad)
    assert not rep.ok
    assert rep.max_gradient_rel_err > 1e-2


def test_check_boundary_flags_a_ridge_that_disagrees():
    good = sine_boundary(3)
    wrong = {"profile": lambda s: np.sin(s) + 1e-3, "d1": lambda s: 1.01 * np.cos(s),
             "d2": lambda s: -1.01 * np.sin(s)}
    for name, fn in wrong.items():
        rep = check_boundary(replace(good, ridge=replace(good.ridge, **{name: fn})))
        assert not rep.ok and rep.max_ridge_rel_err > 1e-4, name
        assert rep.max_gradient_rel_err < 1e-5 and rep.max_hessian_rel_err < 1e-5
    assert check_boundary(good).max_ridge_rel_err == 0.0


def test_check_boundary_flags_asymmetric_hessian():
    skew = np.array([[1.0, 0.5], [-0.5, 1.0]])

    def value(p):
        p = np.asarray(p)
        return 0.5 * np.einsum("...i,ij,...j->...", p, skew, p)

    def gradient(p):
        p = np.asarray(p)
        return 0.5 * (p @ skew.T + p @ skew)

    bad = BoundaryFunction(dim=2, value=value, gradient=gradient,
                           hessian=lambda p: np.broadcast_to(skew, np.asarray(p).shape[:-1] + (2, 2)))
    rep = check_boundary(bad)
    assert rep.max_hessian_asym == pytest.approx(1.0)
    assert not rep.ok


def test_ridge_boundary_validates_direction():
    with pytest.raises(ValidationError):
        ridge_boundary(np.array([np.nan]), profile=np.sin, d1=np.cos)
    with pytest.raises(ValidationError):
        BoundaryFunction(dim=2, value=lambda p: p[..., 0], gradient=lambda p: p,
                         ridge=ridge_boundary(np.ones(3), np.sin, np.cos).ridge)


def test_ridge_declares_d2_exactly_when_the_boundary_has_a_hessian():
    b = sine_boundary(2)
    for bad in (dict(hessian=None), dict(ridge=replace(b.ridge, d2=None))):
        with pytest.raises(ValidationError, match="d2"):
            replace(b, **bad)
    replace(b, hessian=None, ridge=replace(b.ridge, d2=None))
    replace(b, ridge=None)


def test_normalized_model_recipe():
    for d in (1, 2, 5, 10):
        m = generate_normalized_model(d, seed=42)
        assert m.dim == d
        assert np.abs(m.drift).sum() == pytest.approx(1.0)
        col = m.vol.sum(axis=0)
        assert np.sqrt(col @ col) == pytest.approx(1.0)
        assert lambda_min(m) > 0


def test_normalized_model_deterministic_per_seed():
    a = generate_normalized_model(6, seed=3)
    b = generate_normalized_model(6, seed=3)
    c = generate_normalized_model(6, seed=4)
    assert np.array_equal(a.drift, b.drift) and np.array_equal(a.vol, b.vol)
    assert not np.array_equal(a.vol, c.vol)


def test_normalized_model_zero_redraws_budget(monkeypatch):
    monkeypatch.setattr(model_module, "_MAX_REDRAWS", 0)
    with pytest.raises(NumericError):
        generate_normalized_model(3, seed=0)
