import math
import tracemalloc
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
from kolsens.model import generate_normalized_model
from kolsens.sampling import BLOCK
from test_sampling import _philox_normals, _projected, _tiled


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
    assert v0_mc(const, pt, s) == 3.25


def test_v0_statistical_accuracy(quartic_setup):
    model, bnd, pt = quartic_setup
    s = _samples(model, 10, 200_000, 1, seed=0)
    # payoff std is sqrt(664) ~ 25.8; allow 4 standard errors
    assert v0_mc(bnd, pt, s) == pytest.approx(10.0, abs=4 * 25.8 / math.sqrt(200_000))


def test_v0_matches_direct_average(quartic_setup):
    model, bnd, pt = quartic_setup
    s = _samples(model, 3, 70_000, 5, seed=2)
    direct = float(np.mean(bnd.value(pt.x + _tiled(s, 3))))
    assert v0_mc(bnd, pt, s) == pytest.approx(direct, rel=1e-13)


def _v0_reference_case(d, m0):
    model, bnd = generate_normalized_model(d, 40 + d), sine_boundary(d)
    pt = EvalPoint(t=0.0, x=np.linspace(-0.4, 0.3, d))
    return model, bnd, pt, _philox_normals(13, m0, d)


def _chunked_mean(vals):
    m0 = vals.shape[0]
    return math.fsum(float(np.sum(vals[lo:lo + (1 << 16)])) for lo in range(0, m0, 1 << 16)) / m0


@pytest.mark.parametrize("m0", [3 * BLOCK + 5, 100_003])
@pytest.mark.parametrize("d", [1, 3, 50])
def test_streamed_v0_bits_equal_whole_array_reference(d, m0):
    # without a ridge declaration: the reference holds all m0 rows, mixes
    # them in one einsum and sums boundary values over whole 2^16-row
    # chunks; streaming must not move a bit, whatever rows the grid holds
    model, bnd, pt, w = _v0_reference_case(d, m0)
    generic = replace(bnd, ridge=None)
    tau = 1.0
    mixed = np.einsum("jk,lk->jl", w, model.vol, optimize=False)
    want = _chunked_mean(generic.value(pt.x + (tau * model.drift + np.sqrt(tau) * mixed)))
    for m1 in (1, 2000):
        s = _samples(model, 4, m0, m1, seed=13)
        assert s.grid.elapsed[-1] == tau
        assert v0_mc(generic, pt, s) == want


@pytest.mark.parametrize("m1", [1, 2000])
@pytest.mark.parametrize("m0", [3 * BLOCK + 5, 100_003])
@pytest.mark.parametrize("d", [1, 3, 50])
def test_ridge_v0_bits_equal_whole_array_projection(d, m0, m1):
    # a ridge reads every row unmixed: s(j) = a.x + tau a.b + sqrt(tau)
    # W(j).(sigma^T a) over all m0 rows at once, one profile call, then
    # the same 2^16-row chunk sums
    model, bnd, pt, w = _v0_reference_case(d, m0)
    a, tau = bnd.ridge.direction, 1.0
    sig_a = np.einsum("lk,l->k", model.vol, a, optimize=False)
    p = np.einsum("jk,k->j", w, sig_a, optimize=False)
    proj = ((np.sqrt(tau) * p) + tau * np.einsum("k,k->", a, model.drift, optimize=False)
            + np.einsum("k,k->", a, pt.x, optimize=False))
    s = _samples(model, 4, m0, m1, seed=13)
    assert v0_mc(bnd, pt, s) == _chunked_mean(bnd.ridge.profile(proj))


def test_ridge_v0_agrees_with_the_generic_path():
    # the projection and the mixed rows round differently for d > 1 only
    for seed in range(10):
        d = 1 + 7 * seed
        model, bnd = generate_normalized_model(d, seed), sine_boundary(d)
        pt = EvalPoint(t=0.0, x=np.full(d, 0.1))
        s = _samples(model, 2, 20_000, 5, seed=seed)
        ridge, generic = v0_mc(bnd, pt, s), v0_mc(replace(bnd, ridge=None), pt, s)
        assert abs(ridge - generic) <= 1e-14 * abs(generic)
    model, bnd, pt = (BaselineModel(drift=np.array([0.3]), vol=np.array([[1.2]])),
                      quartic_boundary(), EvalPoint(t=0.0, x=np.array([0.4])))
    for seed in range(10):
        s = _samples(model, 3, 40_000, 7, seed=seed)
        assert v0_mc(bnd, pt, s) == v0_mc(replace(bnd, ridge=None), pt, s)


def test_ridge_v0_rejects_nonfinite_profile():
    model = BaselineModel(drift=np.zeros(2), vol=np.eye(2))
    s = _samples(model, 2, 3 * BLOCK, 10, seed=0)
    bad = 2 * BLOCK + 17
    proj = _projected(s.projection(2, np.ones(2), np.zeros(2)), 2 * BLOCK, bad + 1)[-1]

    def profile(v):
        return np.where(v == proj, np.inf, v)

    bnd = ridge_boundary(np.ones(2), profile, np.ones_like)
    with pytest.raises(NumericError, match=f"non-finite at sample {bad}$"):
        v0_mc(bnd, EvalPoint(t=0.0, x=np.zeros(2)), s)


def test_ridge_v0_mixes_only_the_held_rows(monkeypatch):
    import kolsens.sampling as smp
    mixed = []

    def counting_mix(rows, vol):
        mixed.append(rows.shape[0])
        return real_mix(rows, vol)

    real_mix = smp._mix
    monkeypatch.setattr(smp, "_mix", counting_mix)
    model, bnd = generate_normalized_model(4, 3), sine_boundary(4)
    m0, pt = 2 * BLOCK + 9, EvalPoint(t=0.0, x=np.zeros(4))
    s = _samples(model, 2, m0, 300, seed=1)
    assert sum(mixed) == 300        # the build mixes the held rows
    v0_mc(bnd, pt, s)
    assert sum(mixed) == 300        # the ridge projects every row unmixed
    # the generic path draws every row again, held ones included, and mixes each once
    v0_mc(replace(bnd, ridge=None), pt, s)
    assert sum(mixed) == 300 + m0


@pytest.mark.parametrize("case", ["quartic", "generic sine"])
def test_sensitivity_stage_draws_no_row(monkeypatch, case):
    # the nested estimator's inner pools come from the held rows alone
    import kolsens.sampling as smp
    if case == "quartic":
        model, bnd, pt = (BaselineModel(drift=np.array([1.0]), vol=np.array([[1.0]])),
                          quartic_boundary(), EvalPoint(t=0.0, x=np.array([0.3])))
    else:
        model, bnd = generate_normalized_model(3, 5), replace(sine_boundary(3), ridge=None)
        pt = EvalPoint(t=0.0, x=np.array([0.1, -0.2, 0.3]))
    s = _samples(model, 4, 3000, 40, seed=2)
    reads = []

    def counting_read(*args):
        reads.append(args[1:3])
        return real_read(*args)

    real_read = smp._read
    monkeypatch.setattr(smp, "_read", counting_read)
    sensitivity_mc(bnd, pt, s)
    assert reads == []


def _v0_peak(kind, d, m0):
    """tracemalloc peak of v0_mc on the d-dim sine, with its ridge or without (generic)."""
    model, bnd = generate_normalized_model(d, 150), sine_boundary(d)
    bnd = bnd if kind == "ridge" else replace(bnd, ridge=None)
    tracemalloc.start()
    try:
        v0_mc(bnd, EvalPoint(0.0, np.zeros(d)), _samples(model, 1, m0, 1, seed=0))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_value_stage_memory_does_not_grow_with_m0():
    for kind in ("ridge", "generic"):
        small, large = (_v0_peak(kind, 50, m0) for m0 in (1 << 16, 1 << 18))
        assert large <= 1.1 * small
        assert small <= 1.1 * large


@pytest.mark.parametrize("kind", ["ridge", "generic"])
def test_value_stage_memory_does_not_grow_with_d(kind):
    # The value stage holds one _V0_BLOCK chunk of values, the reader's
    # sub-block buffer, the mix temporary (generic) and the boundary's
    # temporaries of one sub-block or one Philox block, each at most
    # _PAIR_TILE doubles. A sub-block's rows round down to a power of two,
    # so it holds between _PAIR_TILE / 2 and _PAIR_TILE doubles at any d:
    # from d = 10 to d = 100 the two sub-block arrays may gain _PAIR_TILE
    # doubles together, not the BLOCK * 90 doubles per array of a block read.
    from kolsens.engine import _PAIR_TILE, _V0_BLOCK
    peaks = {d: _v0_peak(kind, d, 1 << 16) for d in (10, 100)}
    assert peaks[100] <= 1.1 * peaks[10] + 8 * _PAIR_TILE
    assert max(peaks.values()) <= 8 * (_V0_BLOCK + 3 * _PAIR_TILE)


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
    at_x = v0_mc(f, EvalPoint(t=0.0, x=shift), s)
    at_origin = v0_mc(g, EvalPoint(t=0.0, x=np.zeros(1)), s)
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
        v0_mc(nan_b, pt, s)


def test_v0_checks_point_and_grid_consistency(quartic_setup):
    model, bnd, _ = quartic_setup
    s = _samples(model, 4, 100, 10, seed=0)
    with pytest.raises(ValidationError):
        v0_mc(bnd, EvalPoint(t=0.5, x=np.zeros(1)), s)   # wrong t_start
    # the estimators read the model from the grid, so the grid must span it
    with pytest.raises(ValidationError, match="horizon"):
        draw_samples(model, build_time_grid(0.0, 0.5, 10), 100, 10, seed=0)


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
    sd, sv, h = sensitivity_mc(_without_hessian(bnd) if fd_branch else bnd, pt, s)
    assert sv == 0.0
    assert h == (1e-3 if fd_branch else None)     # the default bump on the FD branch
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
    sd, sv, _ = sensitivity_mc(const, pt, s)
    assert sd == 0.0 and sv == 0.0


def test_ridge_kernel_matches_generic():
    # a direction with a repeated and a negative entry gives the FD branch
    # two shifts, one of whose volatility rows sums two rows of vol
    mixed = BaselineModel(drift=np.full(3, 0.2), vol=np.eye(3) + 0.1)
    for model, bnd, d in [
        (BaselineModel(drift=np.array([1.0]), vol=np.array([[1.0]])), quartic_boundary(), 1),
        (mixed, sine_boundary(3), 3),
        (mixed, ridge_boundary(np.array([1.0, -0.5, 1.0]), np.sin, np.cos,
                               lambda s: -np.sin(s)), 3),
    ]:
        pt = EvalPoint(t=0.0, x=np.zeros(d))
        s = _samples(model, 8, 400, 200, seed=5)
        for b in (bnd, _without_hessian(bnd)):
            r = sensitivity_mc(b, pt, s)
            g = sensitivity_mc(replace(b, ridge=None), pt, s)
            assert r[0] == pytest.approx(g[0], rel=1e-10)
            assert r[1] == pytest.approx(g[1], rel=1e-10)
            assert r[2] == g[2]


@pytest.mark.parametrize("bnd", [quartic_boundary(), sine_boundary(1)], ids=["quartic", "sine"])
def test_ridge_in_one_dimension_is_the_generic_path_bit_for_bit(bnd):
    # with a = 1 a ridge's scalar points are the generic path's points, so the
    # one node kernel sees the same arrays on both branches
    model = BaselineModel(drift=np.array([0.3]), vol=np.array([[1.3]]))
    pt = EvalPoint(t=0.0, x=np.array([0.2]))
    s = _samples(model, 5, 300, 120, seed=8)
    for b in (bnd, _without_hessian(bnd)):
        assert sensitivity_mc(b, pt, s) == sensitivity_mc(replace(b, ridge=None), pt, s)


def _factored_ridge_sums(bnd, pt, s, h=None):
    """The ridge factors in factored form, a reference that rounds S_s
    differently: |a| sum |mean phi'| for S_b, and |a| |vol^T a| sum |mean
    phi''| (or |a| sum |vol^T c|, c_l the FD slope along a_l, one column per
    entry of a) for S_s. Node N-i of a pair (0 < i < N-i) reads node i's
    points transposed: its inner means sum node i's values over node i's
    outer rows in index order."""
    ridge, vol = bnd.ridge, s.model.vol
    a, n, m1 = ridge.direction, s.grid.n_steps, s.m1
    anorm = math.sqrt(float(a @ a))
    sig_a = np.einsum("lk,l->k", vol, a, optimize=False)
    drift, vol_terms = [], []
    for k in range(n):
        i = n - k if 0 < n - k < k else k
        y = float(pt.x @ a) + np.einsum("jd,d->j", _tiled(s, i, 0, m1), a, optimize=False)
        z = np.einsum("jd,d->j", _tiled(s, n - i, 0, m1), a, optimize=False)
        p = y[:, None] + z[None, :]

        def mean(v):
            return v.mean(axis=1) if i == k else np.add.accumulate(v, axis=0)[-1] / m1

        u = mean(ridge.d1(p))
        drift.append(anorm * float(np.sum(np.abs(u))))
        if h is None:
            jac = np.abs(mean(ridge.d2(p)))
            vol_terms.append(anorm * math.sqrt(float(sig_a @ sig_a)) * float(np.sum(jac)))
        else:
            c = np.stack([(mean(ridge.d1(p + h * v)) - u) / h for v in a], axis=1)
            gs = np.einsum("bl,lm->bm", c, vol, optimize=False)
            vol_terms.append(anorm * float(np.sum(np.sqrt(np.sum(gs * gs, axis=1)))))
    dt = s.grid.dt
    return dt * math.fsum(drift) / m1, dt * math.fsum(vol_terms) / m1


def test_ridge_scalar_points_round_like_the_factored_form():
    # The kernel takes ||J vol||_F of J = a c^T as |a| |vol^T c| row by row,
    # with one vol row per distinct entry of a on the FD branch, where the
    # factored form multiplies |vol^T a| out of the sum: only S_s may round
    # differently, and by less than 1e-15 relative. N = 4 pairs nodes 1 and
    # 3 and x.a != 0, so node 3 reads node 1's association of its points.
    model, bnd, pt, _ = _tile_cases()
    s = _samples(model, 4, 400, 300, seed=5)
    for b, h in ((bnd, None), (_without_hessian(bnd), 1e-3)):
        sd, sv, _ = sensitivity_mc(b, pt, s, h=h)
        ref_sd, ref_sv = _factored_ridge_sums(b, pt, s, h)
        assert sd == ref_sd
        assert abs(sv - ref_sv) <= 1e-15 * ref_sv


def test_fd_branch_agrees_with_hessian_at_rate_h(quartic_setup):
    model, bnd, pt = quartic_setup
    s = _samples(model, 6, 500, 300, seed=9)
    _, sv_exact, no_bump = sensitivity_mc(bnd, pt, s)
    assert no_bump is None
    errs = {}
    for h in (1e-2, 1e-3):
        _, sv_fd, bump = sensitivity_mc(_without_hessian(bnd), pt, s, h=h)
        assert bump == h
        errs[h] = abs(sv_fd - sv_exact)
    # forward differences: error scales linearly with the bump
    assert errs[1e-3] < errs[1e-2]
    assert 3.0 < errs[1e-2] / errs[1e-3] < 30.0


def test_fd_branch_validates_bump(quartic_setup):
    model, bnd, pt = quartic_setup
    s = _samples(model, 2, 60, 30, seed=0)
    for h in (0.0, -1e-3, "0.01", True):
        with pytest.raises(ValidationError):
            sensitivity_mc(_without_hessian(bnd), pt, s, h=h)
    # bump is irrelevant (and unchecked) on the Hessian branch
    sensitivity_mc(bnd, pt, s, h=-1e-3)


def test_sensitivity_nonfinite_names_time_index(quartic_setup):
    model, _, pt = quartic_setup
    bad = BoundaryFunction(
        dim=1,
        value=lambda p: np.zeros(np.asarray(p).shape[:-1]),
        gradient=lambda p: np.full(np.asarray(p).shape, np.nan),
    )
    s = _samples(model, 3, 50, 20, seed=0)
    with pytest.raises(NumericError, match="time index"):
        sensitivity_mc(bad, pt, s)


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
        sensitivity_mc(bnd, pt, s, workers=1)
    assert len(calls) == 1     # one tile of node 0; nodes 1..5 never ran
    for workers in (2, 3):
        with pytest.raises(NumericError, match="time index 0$"):
            sensitivity_mc(bnd, pt, s, workers=workers)


def _poisoned_pair_kernel(monkeypatch, bad, calls):
    """Make sensitivity_mc's units report node k's drift term as NaN for k in
    `bad`, and record the node i of every unit that runs."""
    import kolsens.engine as eng
    real = eng._pair_kernel

    def pair_kernel(boundary, point, samples, h):
        unit, n = real(boundary, point, samples, h), samples.grid.n_steps

        def poisoned(i, mirror):
            calls.append(i)
            nodes = unit(i, mirror)
            return [(math.nan if k in bad else dv, vv)
                    for k, (dv, vv) in zip((i, n - i), nodes)]
        return poisoned

    monkeypatch.setattr(eng, "_pair_kernel", pair_kernel)


@pytest.mark.parametrize("n, bad, named", [
    (5, {4}, 4), (5, {3, 4}, 3), (5, {2, 4}, 2), (5, {1, 4}, 1),
    (6, {5}, 5), (6, {4, 5}, 4), (6, {3, 5}, 3), (6, {1, 5}, 1),
])
def test_the_lowest_bad_node_is_named_when_a_mirror_is_bad(monkeypatch, quartic_setup,
                                                           n, bad, named):
    # node N-i comes from the unit of node i (0 < i < N/2), so the check
    # waits for every unit of a lower node before it names a mirror
    model, bnd, pt = quartic_setup
    s = _samples(model, n, 50, 20, seed=0)
    _poisoned_pair_kernel(monkeypatch, bad, [])
    for workers in (1, 2, 3):
        with pytest.raises(NumericError, match=f"time index {named}$"):
            sensitivity_mc(bnd, pt, s, workers=workers)


def test_a_bad_row_node_stops_the_serial_run_at_its_unit(monkeypatch, quartic_setup):
    model, bnd, pt = quartic_setup
    s = _samples(model, 6, 50, 20, seed=0)
    calls = []
    _poisoned_pair_kernel(monkeypatch, {1}, calls)
    with pytest.raises(NumericError, match="time index 1$"):
        sensitivity_mc(bnd, pt, s, workers=1)
    assert calls == [0, 1]      # units 2 and 3 never ran


@pytest.mark.parametrize("n", [1, 2, 5, 6])
@pytest.mark.parametrize("at_origin", [True, False], ids=["x=0", "x!=0"])
def test_node_pairs_match_their_nodes_alone(n, at_origin):
    # a unit evaluates node i's points once and gives node N-i the same
    # values transposed: node i and the lone nodes 0 and N/2 keep every bit,
    # and node N-i differs from its own run only in the order of its inner
    # sums (and, at x != 0, in the association of x + X_i + X_{N-i})
    import kolsens.engine as eng
    model, bnd, pt, _ = _tile_cases()
    if at_origin:
        pt = EvalPoint(t=0.0, x=np.zeros(3))
    s = _samples(model, n, 60, 47, seed=11)
    for kernel in ("ridge", "generic"):
        for h in (None, 1e-3):
            b = bnd if h is None else _without_hessian(bnd)
            b = replace(b, ridge=None) if kernel == "generic" else b
            unit = eng._pair_kernel(b, pt, s, h)
            nodes = {}
            for i in range(n // 2 + 1):
                got = unit(i, 0 < i < n - i)
                assert len(got) == 1 + (0 < i < n - i)
                assert got[0] == unit(i, False)[0]
                nodes[i] = got[0]
                if len(got) == 2:
                    assert got[1] == pytest.approx(unit(n - i, False)[0], rel=1e-13, abs=0.0)
                    nodes[n - i] = got[1]
            assert sorted(nodes) == list(range(n))
            dt, m1 = s.grid.dt, s.m1
            want = (dt * math.fsum(nodes[k][0] for k in range(n)) / m1,
                    dt * math.fsum(nodes[k][1] for k in range(n)) / m1, h)
            assert sensitivity_mc(b, pt, s, h=h) == want


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
            out[kernel, fd_branch] = sensitivity_mc(b, pt, s, h=1e-3)
    return out


def test_tile_size_never_changes_bits(monkeypatch):
    # m1 = 47 is prime, so no multi-row tile divides it
    import kolsens.engine as eng
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


def test_tile_arrays_add_up_to_one_tile(monkeypatch):
    # A tile counts every array of its row size that it holds at once: a
    # ridge's 1-D Hessian tile holds the pairwise sums and one derivative,
    # and an FD tile holds the points, the shifted points and the gradients.
    import kolsens.engine as eng
    monkeypatch.setattr(eng, "_PAIR_TILE", 500)
    sizes = []

    def rec(fn):
        def wrapped(p):
            sizes.append(np.size(p))
            return fn(p)
        return wrapped

    model, bnd, pt, s = _tile_cases(rec)
    generic_fd = replace(_without_hessian(bnd), ridge=None, gradient=rec(bnd.gradient))
    for b, live in ((bnd, 2), (_without_hessian(bnd), 3), (generic_fd, 3)):
        sizes.clear()
        sensitivity_mc(b, pt, s, h=1e-3)
        assert sizes and live * max(sizes) <= 500
    # at d = 1 the points are as large as the Hessians, so a Hessian tile
    # holds two arrays on either path
    quartic = quartic_boundary()
    model = BaselineModel(drift=np.array([1.0]), vol=np.array([[1.0]]))
    s = _samples(model, 3, 60, 47, seed=11)
    for b in (replace(quartic, ridge=replace(quartic.ridge, d1=rec(quartic.ridge.d1))),
              replace(quartic, ridge=None, gradient=rec(quartic.gradient))):
        sizes.clear()
        sensitivity_mc(b, EvalPoint(t=0.0, x=np.zeros(1)), s)
        assert sizes and 2 * max(sizes) <= 500


def test_worker_count_is_bit_invariant(quartic_setup, monkeypatch):
    # N = 6 has a self-paired node 3, N = 7 none; units may finish out of order
    model, bnd, pt = quartic_setup
    for n in (6, 7):
        s = _samples(model, n, 300, 150, seed=6)
        for b in (bnd, _without_hessian(bnd)):
            lone = sensitivity_mc(b, pt, s, workers=1)
            for workers in (2, 3, 4):
                assert sensitivity_mc(b, pt, s, workers=workers) == lone
    lone = sensitivity_mc(bnd, pt, s, workers=1)
    monkeypatch.setenv(WORKERS_ENV, "3")
    from_env = sensitivity_mc(bnd, pt, s)
    assert from_env == lone
    assert sensitivity_mc(bnd, pt, s, workers=np.int64(2)) == lone
    for bad in (0, 2.5, True, "3"):
        with pytest.raises(ValidationError, match="worker count"):
            sensitivity_mc(bnd, pt, s, workers=bad)


# Recorded before the value stage read tiles through one loop and the node
# kernel decided its branch once per call. Per case: v0 on the ridge and
# generic paths, and (S_b, S_s) of the ridge and generic kernels on the
# Hessian and FD (h = 1e-3) branches, N = 5, M0 = 70003, M1 = 23, 2 workers.
_GOLDEN_ESTIMATES = {
    ("v0", "ridge3", "ridge"): ("0x1.5a55914c25694p-3",),
    ("v0", "ridge3", "generic"): ("0x1.5a55914c25693p-3",),
    ("sens", "ridge3", "ridge", "hessian"): ("0x1.651927294e7f8p-1", "0x1.71cf352ad8f13p-1"),
    ("sens", "ridge3", "generic", "hessian"): ("0x1.651927294e7f8p-1", "0x1.71cf352ad8f13p-1"),
    ("sens", "ridge3", "ridge", "fd"): ("0x1.651927294e7f8p-1", "0x1.71de0bf74d06fp-1"),
    ("sens", "ridge3", "generic", "fd"): ("0x1.651927294e7f8p-1", "0x1.71de0bf74d000p-1"),
    ("v0", "quartic", "ridge"): ("0x1.f2446021e6ad4p+3",),
    ("v0", "quartic", "generic"): ("0x1.f2446021e6ad4p+3",),
    ("sens", "quartic", "ridge", "hessian"): ("0x1.032a5f19ad271p+4", "0x1.8de3317a1dde3p+4"),
    ("sens", "quartic", "generic", "hessian"): ("0x1.032a5f19ad271p+4", "0x1.8de3317a1dde3p+4"),
    ("sens", "quartic", "ridge", "fd"): ("0x1.032a5f19ad271p+4", "0x1.8e1d72284e572p+4"),
    ("sens", "quartic", "generic", "fd"): ("0x1.032a5f19ad271p+4", "0x1.8e1d72284e572p+4"),
    ("v0", "sine5", "ridge"): ("0x1.04769b7db6d43p-1",),
    ("v0", "sine5", "generic"): ("0x1.04769b7db6d43p-1",),
    ("sens", "sine5", "ridge", "hessian"): ("0x1.00c2563f728edp+0", "0x1.032494268288ap+0"),
    ("sens", "sine5", "generic", "hessian"): ("0x1.00c2563f728edp+0", "0x1.0324942682889p+0"),
    ("sens", "sine5", "ridge", "fd"): ("0x1.00c2563f728edp+0", "0x1.033346fc41d0ap+0"),
    ("sens", "sine5", "generic", "fd"): ("0x1.00c2563f728edp+0", "0x1.033346fc41ec1p+0"),
}


# (S_b, S_s) of the generic kernel on configs whose nodes took several
# reduction blocks before each node's terms became one sum: N = 4, seed 19,
# the Hessian branch at d = 10, M1 = 300 (279 + 21 rows) and the FD branch
# (h = 1e-3) at d = 1, M1 = 2900 (2892 + 8 rows). The blocked sums were 1 ulp
# off these in S_b and S_s on the Hessian branch and in S_b on the FD branch.
_GOLDEN_ONE_SUM = {
    "hessian": ("0x1.91c8b6dd5292cp+0", "0x1.7b2fa3253c3d2p-1"),
    "fd": ("0x1.64e64c7942743p-2", "0x1.527c0ad96d8dep-4"),
}


def _golden_cases():
    model3, bnd3, pt3, _ = _tile_cases()
    return {"ridge3": (model3, bnd3, pt3.x),
            "quartic": (BaselineModel(drift=np.array([1.0]), vol=np.array([[1.0]])),
                        quartic_boundary(), np.array([0.3])),
            "sine5": (generate_normalized_model(5, 4), sine_boundary(5),
                      np.linspace(-0.2, 0.2, 5))}


def test_estimator_bits_are_pinned():
    got = {}
    for name, (model, bnd, x) in _golden_cases().items():
        pt, s = EvalPoint(t=0.0, x=x), _samples(model, 5, 70_003, 23, seed=17)
        for fd in (False, True):
            b = _without_hessian(bnd) if fd else bnd
            for kernel, kb in (("ridge", b), ("generic", replace(b, ridge=None))):
                if not fd:
                    got["v0", name, kernel] = (v0_mc(kb, pt, s).hex(),)
                sd, sv, _ = sensitivity_mc(kb, pt, s, h=1e-3 if fd else None, workers=2)
                got["sens", name, kernel, "fd" if fd else "hessian"] = (sd.hex(), sv.hex())
    assert got == _GOLDEN_ESTIMATES


def _einsum_boundary(d):
    """f(x) = sin(a.x) + sum_l b_l x_l^2 / 2, not a ridge, whose evaluators use
    einsum and no BLAS, so no batch shape changes a bit."""
    a, b = np.linspace(0.3, 1.0, d), np.linspace(0.1, 0.5, d)
    outer, diag = np.multiply.outer(a, a), np.diag(b)

    def s(p):
        return np.einsum("...d,d->...", p, a, optimize=False)

    return BoundaryFunction(
        dim=d, value=lambda p: np.sin(s(p)) + 0.5 * np.einsum("...d,d->...", p * p, b),
        gradient=lambda p: np.cos(s(p))[..., None] * a + p * b,
        hessian=lambda p: -np.sin(s(p))[..., None, None] * outer + diag,
        growth_alpha=2.0, growth_const=float(1.0 + a @ a + b.sum()))


def _one_sum_reference(bnd, pt, s, h):
    """(S_b, S_s) with each node's terms one np.sum over its M1 row norms.

    Node i's inner means are mean(axis=0) over each outer row's points; node
    N-i of a pair (0 < i < N-i) sums node i's values over node i's outer rows
    in index order."""
    n, m1, vol, d = s.grid.n_steps, s.m1, s.model.vol, s.model.dim
    fns = [bnd.gradient] + ([bnd.hessian] if h is None else
                            [lambda p, e=e: bnd.gradient(p + e) for e in np.eye(d) * h])
    means = {}
    for i in range(n // 2 + 1):
        out, inner = pt.x + s.displacement(i), s.displacement(n - i)
        rows, sums = [[] for _ in fns], [0.0] * len(fns)
        for j in range(m1):
            for k, fn in enumerate(fns):
                v = fn(out[j] + inner)
                rows[k].append(v.mean(axis=0))
                sums[k] = sums[k] + v
        means[i] = [np.array(r) for r in rows]
        if 0 < i < n - i:
            means[n - i] = [acc / m1 for acc in sums]
    drift, vol_terms = [], []
    for k in range(n):
        w, *g = means[k]
        jac = g[0] if h is None else np.stack([(gk - w) / h for gk in g], axis=-1)
        js = np.einsum("bkl,lm->bkm", jac, vol, optimize=False)
        drift.append(float(np.sum(np.sqrt(np.sum(w * w, axis=1)))))
        vol_terms.append(float(np.sum(np.sqrt(np.sum(js * js, axis=(1, 2))))))
    dt = s.grid.dt
    return dt * math.fsum(drift) / m1, dt * math.fsum(vol_terms) / m1


@pytest.mark.parametrize("branch, d, m1", [("hessian", 10, 300), ("fd", 1, 2900)])
def test_each_node_is_one_sum_over_its_rows(branch, d, m1):
    # M1 * (doubles per outer row of the largest temporary) exceeds 2^23, the
    # size past which a node's rows were once summed in separate blocks
    bnd, h = _einsum_boundary(d), None
    if branch == "fd":
        bnd, h = _without_hessian(bnd), 1e-3
    pt = EvalPoint(t=0.0, x=np.linspace(-0.3, 0.2, d))
    s = _samples(generate_normalized_model(d, 4), 4, m1, m1, seed=19)
    got = sensitivity_mc(bnd, pt, s, h=h, workers=1)[:2]
    assert got == _one_sum_reference(bnd, pt, s, h)
    for workers in (2, 3):
        assert sensitivity_mc(bnd, pt, s, h=h, workers=workers)[:2] == got
    assert tuple(v.hex() for v in got) == _GOLDEN_ONE_SUM[branch]


def test_sine_sensitivities_near_quadrature_small_scale():
    from kolsens import sine_sensitivity_quadrature
    model = BaselineModel(drift=np.array([1.0]), vol=np.array([[1.0]]), horizon=1.0)
    bnd = sine_boundary(1)
    pt = EvalPoint(t=0.0, x=np.zeros(1))
    s = _samples(model, 50, 2000, 1000, seed=0)
    sd, sv, _ = sensitivity_mc(bnd, pt, s)
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
