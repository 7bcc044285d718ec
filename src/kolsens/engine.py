"""Nested Monte Carlo estimators for the first-order model-risk expansion.

`v0_mc` estimates the baseline value v0(t,x) = E[f(x + X_T) | X_t = 0] from
the terminal displacements of a sample grid. `sensitivity_mc` estimates the
two factors of the first-order sensitivity,

    sens_drift = E[ int_t^T |w(s, x + X_s)|      ds ]      (gamma-part)
    sens_vol   = E[ int_t^T ||J_x w(s, x+X_s) S||_F ds ]   (eta-part)

where w is the gradient of the linear-problem value function and S the
baseline volatility. Both are computed by a nested estimator: for each grid
node i an inner sample mean over m approximates w (and its Jacobian, either
from the boundary Hessian or by a forward-difference bump of size h), and an
outer mean over j approximates the s-expectation. The time integral is a
left-endpoint Riemann sum over i = 0..N-1. One node kernel computes every
inner mean; a ridge boundary f(x) = phi(a.x) runs it on the scalar points
a.(x + X_i(j) + X_{N-i}(m)), so its pairwise work does not grow with d.
The outer and inner pools are the same sample rows, so node N-i reads node
i's points transposed: for 0 < i < N/2 one unit of work evaluates them once
and gives both nodes their terms. Node 0 (its partner N is not summed) and
node N/2 (its own partner) run alone.

The perturbation weights never enter the estimators; a SensitivityReport
recombines the two factors linearly for any (gamma, eta, epsilon).

Determinism contract: given a fixed seed, results are bit-identical for any
worker count (KOLSENS_WORKERS or the `workers` argument). Per-node terms
are combined in index order with compensated summation, a node's terms are
one numpy pairwise sum over the norms of its M1 outer rows, and matrix
mixes avoid BLAS (see sampling module). The inner means of node i (a row
node, or a lone node) are numpy's means over its inner pool,
computed in cache-sized row tiles; a row's inner mean depends on that row
alone. The inner sums of its mirror node N-i add node i's values one outer
row at a time in index order. Neither depends on the tile size, so the tile
size never changes a bit. At x != 0 a mirror node reads node i's
association (x + X_i(m)) + X_{N-i}(j) of its points. A unit holds both
nodes' inner means for all M1 rows: M1 doubles per function for a ridge,
about M1 * (d + d^2) doubles per node for the generic Hessian branch.

`v0_mc` picks a tile reader and an evaluator once and loops over its m0
samples one sub-block tile at a time (the grid holds only the m1 inner
rows), so its memory grows neither with m0 nor with d: at d = 100 it peaks
at about 1.4 MB of arrays for a ridge boundary and 2.2 MB for any other.
A ridge f(x) = phi(a.x) reads the scalar projections of
`SampleGrid.projection`, which never mix a row: one dot product per sample
instead of a d x d mix and a dot product. Any other boundary's `value`
reads the displacement tiles of `SampleGrid.tiles`. Both readers' tiles
hold at most _PAIR_TILE doubles, the one tile constant of both stages:
tiles that small keep OpenBLAS single-threaded, whose idle workers would
otherwise spin after every threaded `pts @ a` of a ridge-built value
passed without its declaration, and their power-of-two edges keep each
row's bits.

Nodes are checked for finiteness in index order as their units complete,
so a failure stops the run at the first bad node and names the same time
index at every worker count; a mirror node is checked after every lower
node, whose units are done by then.
"""

import math
import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericError, ValidationError, array, choice, count, real
from .model import (BaselineModel, BoundaryFunction, EvalPoint, UncertaintySpec,
                    validate_expansion_regime)
from .sampling import TILE, SampleGrid, build_time_grid, draw_samples

# The pairwise temporaries that a tile holds at once add up to at most about
# _PAIR_TILE doubles (1 MB) per thread, or one row when a row is larger, so
# together they stay in a 2 MB L2 cache. It is the sampling sub-block's TILE,
# so v0_mc's value and profile calls, one reader tile each, take at most that
# many. The tile never changes a bit. _V0_BLOCK rows of values are summed at
# a time, which fixes v0's summation order.
_PAIR_TILE = TILE
_V0_BLOCK = 1 << 16

WORKERS_ENV = "KOLSENS_WORKERS"


def resolve_workers(workers: int | None) -> int:
    """The worker count: the argument, else KOLSENS_WORKERS, else 1."""
    if workers is not None:
        return count(workers, "workers (the worker count)")
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        raw = int(raw)
    except ValueError:
        pass    # count refuses the string and names it
    return count(raw, WORKERS_ENV)


def default_bump(point: EvalPoint) -> float:
    """Default FD bump for the Jacobian branch: 1e-3 * max(1, |x|_inf)."""
    return 1e-3 * max(1.0, float(np.max(np.abs(point.x))))


def predicted_complexity(d: int, n_steps: int, m0: int, m1: int) -> int:
    """Number of samples/evaluations the nested scheme touches, exactly.

    Three components: the plain value estimate (m0*d), the inner/outer
    gradient stage (N*M1*(M1+1)*d) and the Jacobian stage
    (N*M1*(M1+1+d)*d^2). Python integers, so there is no overflow to guard.
    This is the nominal count of the nested scheme: sensitivity_mc
    evaluates each pairwise point once for the node pair (i, N-i) that
    shares it, so it makes about half of the N*M1^2 boundary evaluations.
    """
    d, n, m0, m1 = (count(v, name) for v, name in
                    ((d, "d"), (n_steps, "n_steps"), (m0, "m0"), (m1, "m1")))
    return m0 * d + n * m1 * (m1 + 1) * d + n * m1 * (m1 + 1 + d) * d * d


def _check_compatible(boundary: BoundaryFunction, point: EvalPoint,
                      samples: SampleGrid) -> None:
    """The boundary and point fit the grid's model; t < horizon follows from the grid."""
    d = samples.model.dim
    if boundary.dim != d:
        raise ValidationError(f"boundary dim {boundary.dim} != model dim {d}")
    if point.x.shape[0] != d:
        raise ValidationError(f"point dim {point.x.shape[0]} != model dim {d}")
    if abs(point.t - samples.grid.t_start) > 1e-12 * max(1.0, abs(point.t)):
        raise ValidationError(
            f"point.t={point.t} does not match the sample grid start {samples.grid.t_start}")


def v0_mc(boundary: BoundaryFunction, point: EvalPoint, samples: SampleGrid) -> float:
    """Plain Monte Carlo estimate of the baseline value v0(t, x).

    Averages f(x + X_N(j)) over all m0 samples; unbiased since the terminal
    displacement has the exact law of X_T - x given X_t = 0 under the grid's
    model. The samples are read one sub-block tile at a time: a ridge
    boundary's `ridge.profile` sees the projections a.(x + X_N(j)) of
    `SampleGrid.projection` (its `value` is not called); any other
    boundary's `value` sees the displacement tiles of `SampleGrid.tiles`,
    x added in place. Each _V0_BLOCK-row chunk is summed whole, so neither
    the streaming nor the tiles change a bit.
    """
    _check_compatible(boundary, point, samples)
    n, m0, ridge = samples.grid.n_steps, samples.m0, boundary.ridge
    if ridge is not None:
        read, value = samples.projection(n, ridge.direction, point.x), ridge.profile
    else:   # x is added to the reader's tile in place
        read, value = samples.tiles(n), (lambda p: boundary.value(np.add(p, point.x, out=p)))
    vals = np.empty(min(_V0_BLOCK, m0))
    partials = []
    for lo in range(0, m0, _V0_BLOCK):
        hi = min(lo + _V0_BLOCK, m0)
        for j, p in read(lo, hi):
            vals[j - lo:j - lo + len(p)] = value(p)
        chunk = vals[:hi - lo]
        if not np.isfinite(chunk).all():
            j = lo + int(np.flatnonzero(~np.isfinite(chunk))[0])
            raise NumericError(f"boundary value non-finite at sample {j}")
        partials.append(float(np.sum(chunk)))
    return math.fsum(partials) / m0


def _inner_means(out_pts, in_pts, tile, evaluators, mirror=False):
    """Inner means of one node's functions for all of its outer rows.

    The node's points are out_pts[j] + in_pts[m], outer rows j on axis 0 and
    inner samples m on axis 1. The inner mean of every function of
    `evaluators(pts)` is numpy's mean over axis 1, computed `tile` outer rows
    at a time into one array of all M1 rows. The tile's points go to the
    buffer pts, which this call owns, as do any buffers that `evaluators`
    sizes like it.

    With `mirror`, the same values also give the mirror node, whose points
    are in_pts[j] + out_pts[m]: its outer row j is this node's inner column
    j. Each tile's values are added into its inner sums one outer row at a
    time, in index order, which no tile size changes; the sums are then
    divided in place into the mirror's means.

    Returns [means] of the node, followed by the mirror's with `mirror`;
    means[k] holds function k's inner means, one per outer row.
    """
    m1 = len(out_pts)
    pts = np.empty((min(tile, m1),) + in_pts.shape)
    fns = evaluators(pts)
    means, sums = [None] * len(fns), [None] * len(fns)
    for lo in range(0, m1, tile):
        hi = min(lo + tile, m1)
        p = np.add(out_pts[lo:hi, None, :], in_pts[None, :, :], out=pts[:hi - lo])
        for k, fn in enumerate(fns):
            v = fn(p)
            if means[k] is None:
                means[k] = np.empty((m1,) + v.shape[2:])
                sums[k] = np.zeros(v.shape[1:]) if mirror else None
            means[k][lo:hi] = v.mean(axis=1)
            if mirror:
                for row in v:
                    sums[k] += row
    if not mirror:
        return [means]
    for acc in sums:
        acc /= m1
    return [means, sums]


def _pair_kernel(boundary, point, samples, h):
    """The work unit of sensitivity_mc: `unit(i, mirror)` sums node i's terms.

    Node i's points are x + X_i(j) + X_{N-i}(m), or their scalar projections
    on a's direction for a ridge; with `mirror` the unit also returns node
    N-i's terms, whose points are node i's transposed. A node's terms are
    scale * (sum_j |w_hat(j)|, sum_j ||J_hat(j) vol_rows||_F), w_hat(j) the
    inner mean of grad and J_hat(j) that of hess or, with h, the FD slopes
    (mean(grad(p + shifts[k])) - w_hat) / h as its columns. The branch is
    decided once per call: the evaluators, the tile and `reduce`.
    """
    n, m1 = samples.grid.n_steps, samples.m1
    x, vol, ridge = point.x, samples.model.vol, boundary.ridge
    dim = len(x) if ridge is None else 1    # of the kernel's points
    if ridge is None:
        grad, hess, vol_rows, scale = boundary.gradient, boundary.hessian, vol, 1.0
        shifts = None if h is None else np.eye(dim) * h

        def points(i):
            return x + samples.displacement(i), samples.displacement(n - i)
    else:
        # f = phi(a.x) sees x only through s = a.x: w = phi'(s) a and J = a c^T,
        # where c = phi''(s) a, or c_l is the FD slope along a_l. So |w| = |a|
        # |phi'(s)| and ||J vol||_F = |a| |vol^T c|: the kernel runs on the 1-D
        # points s, and |a| scales its sums.
        a, grad = ridge.direction, ridge.d1
        scale = math.sqrt(float(a @ a))
        if h is None:
            hess = (lambda s: ridge.d2(s)[..., None])     # the 1 x 1 Hessian phi''(s)
            vol_rows = np.einsum("lk,l->k", vol, a, optimize=False)[None, :]    # vol^T a
        else:   # one shift per distinct entry v_u; its row sums vol's rows l with a_l = v_u
            distinct, entry = np.unique(a, return_inverse=True)
            shifts = h * distinct[:, None]
            vol_rows = np.zeros((len(distinct), len(a)))
            np.add.at(vol_rows, entry, vol)
        xa = float(x @ a)

        def project(i):
            return np.einsum("jd,d->j", samples.displacement(i), a, optimize=False)[:, None]

        def points(i):
            return xa + project(i), project(n - i)

    def sums(w, jw):
        js = np.einsum("bkl,lm->bkm", jw, vol_rows, optimize=False)
        return (scale * float(np.sum(np.sqrt(np.sum(w * w, axis=-1)))),
                scale * float(np.sum(np.sqrt(np.sum(js * js, axis=(-2, -1))))))

    if h is None:   # live per tile: the Hessians, and the points when they are as large
        row_elems, live, reduce = m1 * dim * dim, 1 + (dim == 1), sums

        def evaluators(pts):
            return grad, hess
    else:           # live per tile: the points, the shifted points, the gradients
        row_elems, live = m1 * dim, 3

        def evaluators(pts):    # the shifted points go to a buffer of the caller's
            shifted = np.empty_like(pts)
            return [grad] + [lambda p, s=s: grad(np.add(p, s, out=shifted[:len(p)]))
                             for s in shifts]

        def reduce(w, *g):
            return sums(w, np.stack([(gk - w) / h for gk in g], axis=-1))

    # outer rows per tile, so that its `live` arrays of row_elems doubles a row
    # add up to about _PAIR_TILE doubles
    tile = max(1, _PAIR_TILE // (live * row_elems))

    def unit(i, mirror):
        return [reduce(*means) for means in _inner_means(*points(i), tile, evaluators, mirror)]

    return unit


def sensitivity_mc(boundary: BoundaryFunction, point: EvalPoint, samples: SampleGrid,
                   h: float | None = None,
                   workers: int | None = None) -> tuple[float, float, float | None]:
    """Nested MC estimate of (sens_drift, sens_vol) under the grid's model, and the bump.

    Both factors come from one pass, as they share the inner mean w_hat. The
    work unit is node i together with node N-i for 0 < i < N/2 (nodes 0 and
    N/2 alone), from one evaluation of their shared points; units run on
    `workers` threads and every node's terms are checked in index order, so
    a non-finite node is named the same at any worker count. The
    boundary picks the path: the Hessian branch if `boundary.hessian` is set
    (else forward differences), and the node kernel runs on the scalar points
    a.x of a ridge if `boundary.ridge` is (else on the d-vectors x). For the
    FD branch or the d-vector points pass replace(b, hessian=None,
    ridge=replace(b.ridge, d2=None)) or replace(b, ridge=None).

    Parameters
    ----------
    h : FD bump for the Jacobian fallback; default 1e-3 * max(1, |x|_inf).

    Returns (sens_drift, sens_vol, h): h is the FD bump used, None on the
    Hessian branch.
    """
    _check_compatible(boundary, point, samples)
    if boundary.hessian is None:
        h = real(default_bump(point) if h is None else h, "h", low=0.0, above=True)
    else:
        h = None

    n, m1, dt = samples.grid.n_steps, samples.m1, samples.grid.dt
    unit = _pair_kernel(boundary, point, samples, h)

    def per_unit(i: int):   # node i, and node n - i when that is another summed node
        return unit(i, 0 < i < n - i)

    n_workers = resolve_workers(workers)
    pool = ThreadPoolExecutor(max_workers=n_workers) if n_workers > 1 else None
    try:
        units = range(n // 2 + 1)
        if pool is None:
            results = map(per_unit, units)
        else:
            futures = [pool.submit(per_unit, i) for i in units]
            results = (f.result() for f in futures)
        done, node_vals = [], []
        for k in range(n):   # node k is in unit min(k, n - k), fetched in unit order
            i = min(k, n - k)
            while len(done) <= i:
                done.append(next(results))
            dv, vv = done[i][k != i]
            if not (math.isfinite(dv) and math.isfinite(vv)):
                raise NumericError(f"non-finite sensitivity contribution at time index {k}")
            node_vals.append((dv, vv))
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    sens_drift = dt * math.fsum(dv for dv, _ in node_vals) / m1
    sens_vol = dt * math.fsum(vv for _, vv in node_vals) / m1
    return sens_drift, sens_vol, h


# --------------------------------------------------------------------------
# reports and repetition
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SensitivityReport:
    """One estimator run: baseline value, the two sensitivity factors, metadata."""

    v0: float
    sens_drift: float
    sens_vol: float
    used_hessian_path: bool
    runtime_seconds: float
    predicted_ops: int
    d: int
    n_steps: int
    m0: int
    m1: int
    h: float | None        # the FD bump; None when no FD branch ran
    seed: int

    def sens_total(self, gamma: float, eta: float) -> float:
        return gamma * self.sens_drift + eta * self.sens_vol

    def approx(self, gamma: float, eta: float, epsilon: float) -> float:
        return self.v0 + epsilon * self.sens_total(gamma, eta)

    def to_document(self, unc: UncertaintySpec) -> dict:
        """Serialize with the uncertainty weights applied (stable field set)."""
        return {
            "v0": self.v0,
            "sens_drift": self.sens_drift,
            "sens_vol": self.sens_vol,
            "gamma": unc.gamma,
            "eta": unc.eta,
            "epsilon": unc.epsilon,
            "approx": self.approx(unc.gamma, unc.eta, unc.epsilon),
            "used_hessian_path": self.used_hessian_path,
            "runtime_seconds": self.runtime_seconds,
            "predicted_ops": self.predicted_ops,
            "seed": self.seed,
            "d": self.d,
            "N": self.n_steps,
            "M0": self.m0,
            "M1": self.m1,
            "h": self.h,
        }


def first_order_approx(report: SensitivityReport, unc: UncertaintySpec,
                       model: BaselineModel | None = None) -> float:
    """v0 + eps*(gamma*sens_drift + eta*sens_vol); warns outside the valid regime."""
    if model is not None:
        regime = validate_expansion_regime(model, unc)
        if not regime.ok:
            warnings.warn(
                f"epsilon={unc.epsilon} is not below the expansion bound "
                f"{regime.bound:.6g}; the first-order approximation is unsupported here",
                stacklevel=2)
    return report.approx(unc.gamma, unc.eta, unc.epsilon)


@dataclass(frozen=True)
class EstimatorStats:
    """Mean and sample standard deviation over repeated seeded runs."""

    runs: int
    mean: float
    std_dev: float

    @classmethod
    def of(cls, values) -> "EstimatorStats":
        """Statistics of per-run values; std_dev uses ddof=1 and is NaN for one run."""
        arr = array(values, "values", (None,))
        std = float(np.std(arr, ddof=1)) if arr.size > 1 else float("nan")
        return cls(runs=int(arr.size), mean=float(np.mean(arr)), std_dev=std)


def seeded_runs(job, runs: int, base_seed: int) -> list:
    """Results of `job(seed)` for seeds base_seed..base_seed+runs-1, in seed order.

    Any single-run failure aborts with the offending seed in the message;
    a ValidationError passes through unchanged (it is a configuration fault).
    """
    runs, base_seed = count(runs, "runs"), count(base_seed, "base_seed", low=0)
    results = []
    for seed in range(base_seed, base_seed + runs):
        try:
            results.append(job(seed))
        except ValidationError:
            raise
        except Exception as exc:
            raise NumericError(f"estimator run with seed {seed} failed: {exc}") from exc
    return results


@dataclass(frozen=True)
class McConfig:
    """Estimator parameters; kernel="generic" drops the ridge from the whole report."""

    n_steps: int = 100
    m0: int = 3_000_000
    m1: int | None = None   # None: min(30_000, m0)
    h: float | None = None
    seed: int = 0
    kernel: str = "auto"

    def __post_init__(self):
        count(self.n_steps, "n_steps")
        count(self.seed, "seed", low=0)
        if self.m1 is None:
            object.__setattr__(self, "m1", min(30_000, count(self.m0, "m0")))
        count(self.m0, "m0", low=count(self.m1, "m1"))
        if self.h is not None:
            real(self.h, "h", low=0.0, above=True)
        choice(self.kernel, "kernel", ("auto", "generic"))


def compute_report(model: BaselineModel, boundary: BoundaryFunction, point: EvalPoint,
                   cfg: McConfig, unc: UncertaintySpec | None = None,
                   workers: int | None = None) -> SensitivityReport:
    """Draw samples and run both estimators once, timed, as a SensitivityReport.

    When `unc` is given with gamma = eta = 0, sensitivity_mc is not called
    (the sensitivity is identically zero at zero weights): both factors are
    0.0, used_hessian_path is False and `h` is None, as it is whenever no FD
    branch ran. The boundary picks the branch; cfg.kernel="generic" drops
    its ridge declaration before either estimator runs. The worker count is
    resolved first, so a bad KOLSENS_WORKERS fails early, and then a point
    at or past model.horizon is refused by name.
    """
    t0 = time.perf_counter()
    workers = resolve_workers(workers)
    real(model.horizon, "model.horizon (the end of a run from point.t)", low=point.t, above=True)
    if cfg.kernel == "generic":
        boundary = replace(boundary, ridge=None)
    grid = build_time_grid(point.t, model.horizon, cfg.n_steps)
    samples = draw_samples(model, grid, cfg.m0, cfg.m1, cfg.seed)
    v0 = v0_mc(boundary, point, samples)
    sens_drift, sens_vol, used_hessian, h = 0.0, 0.0, False, None
    if unc is None or unc.gamma != 0.0 or unc.eta != 0.0:
        sens_drift, sens_vol, h = sensitivity_mc(boundary, point, samples, h=cfg.h,
                                                 workers=workers)
        used_hessian = h is None
    runtime = time.perf_counter() - t0
    return SensitivityReport(
        v0=v0, sens_drift=sens_drift, sens_vol=sens_vol,
        used_hessian_path=used_hessian, runtime_seconds=runtime,
        predicted_ops=predicted_complexity(model.dim, cfg.n_steps, cfg.m0, cfg.m1),
        d=model.dim, n_steps=cfg.n_steps, m0=cfg.m0, m1=cfg.m1,
        h=h, seed=cfg.seed)
