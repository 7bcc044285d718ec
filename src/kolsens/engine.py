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
left-endpoint Riemann sum over i = 0..N-1.

The perturbation weights never enter the estimators; a SensitivityReport
recombines the two factors linearly for any (gamma, eta, epsilon).

Determinism contract: given a fixed seed, results are bit-identical for any
worker count (KOLSENS_WORKERS or the `workers` argument). Per-node partial
results are combined in index order with compensated summation, inner/outer
reductions use numpy's pairwise sums over fixed block shapes, and matrix
mixes avoid BLAS (see sampling module). The inner means of a block are
computed in cache-sized row tiles; a row's inner mean depends on that row
alone, so the tile size never changes a bit.

Nodes are checked for finiteness in index order as they complete, so a
failure stops the run at the first bad node and names the same time index
at every worker count.
"""

import math
import numbers
import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericError, ValidationError
from .model import (BaselineModel, BoundaryFunction, EvalPoint, UncertaintySpec,
                    validate_expansion_regime)
from .sampling import SampleGrid, build_time_grid, draw_samples

Array = np.ndarray

# Outer rows per reduction block: _PAIR_BUDGET // (doubles per row of the
# largest pairwise temporary). The block grouping fixes the summation order,
# so this constant is part of the determinism contract. The pairwise
# temporaries themselves hold at most about _PAIR_TILE doubles (1 MB) per
# thread, or one row when a row is larger; the tile never changes a bit.
_PAIR_BUDGET = 1 << 23
_PAIR_TILE = 1 << 17
_V0_BLOCK = 1 << 16

WORKERS_ENV = "KOLSENS_WORKERS"


def _resolve_workers(workers: int | None) -> int:
    """The worker count: the argument, else KOLSENS_WORKERS, else 1."""
    if workers is not None:
        if workers < 1:
            raise ValidationError(f"worker count must be >= 1, got {workers}")
        return workers
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValidationError(f"{WORKERS_ENV} must be an integer >= 1, got {raw!r}")
    return workers


def default_bump(point: EvalPoint) -> float:
    """Default FD bump for the Jacobian branch: 1e-3 * max(1, |x|_inf)."""
    return 1e-3 * max(1.0, float(np.max(np.abs(point.x))) if point.x.size else 1.0)


def _check_bump(h):
    """The FD bump h, checked to be a finite real > 0 and not a bool."""
    if isinstance(h, bool) or not isinstance(h, numbers.Real) or not math.isfinite(h) or h <= 0:
        raise ValidationError(f"FD bump h must be a real > 0, got {h!r}")
    return h


def predicted_complexity(d: int, n_steps: int, m0: int, m1: int) -> int:
    """Number of samples/evaluations the nested scheme touches, exactly.

    Three components: the plain value estimate (m0*d), the inner/outer
    gradient stage (N*M1*(M1+1)*d) and the Jacobian stage
    (N*M1*(M1+1+d)*d^2). Python integers, so there is no overflow to guard.
    """
    vals = {"d": d, "n_steps": n_steps, "m0": m0, "m1": m1}
    for name, v in vals.items():
        if int(v) != v or v < 1:
            raise ValidationError(f"{name} must be an integer >= 1, got {v}")
    d, n, m0, m1 = int(d), int(n_steps), int(m0), int(m1)
    return m0 * d + n * m1 * (m1 + 1) * d + n * m1 * (m1 + 1 + d) * d * d


def _check_compatible(model: BaselineModel, boundary: BoundaryFunction,
                      point: EvalPoint, samples: SampleGrid) -> None:
    if boundary.dim != model.dim:
        raise ValidationError(f"boundary dim {boundary.dim} != model dim {model.dim}")
    if point.x.shape[0] != model.dim:
        raise ValidationError(f"point dim {point.x.shape[0]} != model dim {model.dim}")
    sm = samples.model
    if not (np.array_equal(sm.drift, model.drift) and np.array_equal(sm.vol, model.vol)
            and sm.horizon == model.horizon):
        raise ValidationError("samples were drawn for a different model")
    if abs(point.t - samples.grid.t_start) > 1e-12 * max(1.0, abs(point.t)):
        raise ValidationError(
            f"point.t={point.t} does not match the sample grid start {samples.grid.t_start}")
    if point.t >= model.horizon:
        raise ValidationError(f"need t < horizon, got t={point.t}, T={model.horizon}")


def v0_mc(model: BaselineModel, boundary: BoundaryFunction, point: EvalPoint,
          samples: SampleGrid) -> float:
    """Plain Monte Carlo estimate of the baseline value v0(t, x).

    Averages f(x + X_N(j)) over all m0 samples; unbiased since the terminal
    displacement has the exact law of X_T - x given X_t = 0.
    """
    _check_compatible(model, boundary, point, samples)
    samples.ensure_mixed()
    n = samples.grid.n_steps
    partials = []
    for lo in range(0, samples.m0, _V0_BLOCK):
        hi = min(lo + _V0_BLOCK, samples.m0)
        vals = boundary.value(point.x + samples.displacement(n, start=lo, stop=hi))
        if not np.isfinite(vals).all():
            j = lo + int(np.flatnonzero(~np.isfinite(vals))[0])
            raise NumericError(f"boundary value non-finite at sample {j}")
        partials.append(float(np.sum(vals)))
    return math.fsum(partials) / samples.m0


def _norm_rows(a: Array) -> Array:
    return np.sqrt(np.sum(a * a, axis=-1))


def _tiled_node_sums(pairs, m1, row_elems, grad, hess, shifts, h, reduce):
    """Sum one node's (drift, vol) terms over the outer pool, inner means tiled.

    `pairs(lo, hi)` builds the pairwise array of outer rows lo..hi-1 against
    the whole inner pool (inner samples on axis 1). Outer rows are grouped in
    blocks of _PAIR_BUDGET // row_elems rows, which fix the reduction order.
    Within a block, the inner means of `grad`, of `hess` (unless None) and of
    `grad` at each FD shift are computed one tile of _PAIR_TILE // row_elems
    rows at a time. `reduce(w, jac)` turns a block's means into its (drift,
    vol) partial sums; jac is the mean Hessian, or the list of
    forward-difference slopes (mean(grad(p + shift)) - mean(grad(p))) / h,
    one per shift.
    """
    means = {"w": grad}
    if hess is not None:
        means["jw"] = hess
    for k, shift in enumerate(shifts):
        means[k] = lambda p, shift=shift: grad(p + shift)
    block = max(1, _PAIR_BUDGET // row_elems)
    tile = max(1, _PAIR_TILE // row_elems)
    drift_parts, vol_parts = [], []
    for lo in range(0, m1, block):
        hi = min(lo + block, m1)
        m = {}
        for t_lo in range(lo, hi, tile):
            t_hi = min(t_lo + tile, hi)
            p = pairs(t_lo, t_hi)
            for name, fn in means.items():
                mean = fn(p).mean(axis=1)
                if name not in m:
                    m[name] = np.empty((hi - lo,) + mean.shape[1:])
                m[name][t_lo - lo:t_hi - lo] = mean
        jac = [(m[k] - m["w"]) / h for k in range(len(shifts))]
        dp, vp = reduce(m["w"], m.get("jw", jac))
        drift_parts.append(dp)
        vol_parts.append(vp)
    return math.fsum(drift_parts), math.fsum(vol_parts)


def _generic_node_terms(boundary, x, out_disp, in_disp, vol_mat, h):
    """One grid node of the nested estimator, black-box boundary evaluators.

    Returns (sum_j |w_hat(j)|, sum_j ||Jw_hat(j) vol||_F) over the outer pool;
    the Jacobian comes from boundary.hessian when set, else from shifts by h.
    """
    m1, d = out_disp.shape
    hess = boundary.hessian
    shifts = () if hess is not None else np.eye(d) * h

    def reduce(w, jac):
        jw = jac if hess is not None else np.stack(jac, axis=-1)
        js = np.einsum("bkl,lm->bkm", jw, vol_mat, optimize=False)
        return (float(np.sum(_norm_rows(w))),
                float(np.sum(np.sqrt(np.sum(js * js, axis=(-2, -1))))))

    return _tiled_node_sums(
        lambda lo, hi: x + out_disp[lo:hi, None, :] + in_disp[None, :, :], m1,
        m1 * d * (d if hess is not None else 1), boundary.gradient, hess, shifts, h,
        reduce)


def _ridge_node_terms(ridge, x, out_disp, in_disp, vol_mat, h):
    """Same sums as the generic kernel for ridge boundaries f(x) = phi(a.x).

    Everything factors through the scalar projection s = a.(x + X_i(j) +
    X_{N-i}(m)): w_hat = mean(phi'(s)) a, Jw_hat = mean(phi''(s)) a a^T, so
    |w_hat| = |mean phi'| |a| and ||Jw_hat vol||_F = |mean phi''| |a| |vol^T a|.
    The pairwise work is then independent of the dimension. Without ridge.d2
    the FD branch makes one shifted pass per *distinct* direction entry, then
    expands.
    """
    a = ridge.direction
    m1 = out_disp.shape[0]
    anorm = math.sqrt(float(a @ a))
    sig_a = np.einsum("lk,l->k", vol_mat, a, optimize=False)     # vol^T a
    signorm = math.sqrt(float(sig_a @ sig_a))
    s_out = float(x @ a) + np.einsum("jd,d->j", out_disp, a, optimize=False)
    s_in = np.einsum("jd,d->j", in_disp, a, optimize=False)
    fd = ridge.d2 is None
    distinct, entry = np.unique(a, return_inverse=True) if fd else ((), None)

    def reduce(u, jac):
        drift = anorm * float(np.sum(np.abs(u)))
        if not fd:
            return drift, anorm * signorm * float(np.sum(np.abs(jac)))
        g = np.stack([jac[k] for k in entry], axis=1)   # (b, d)
        gs = np.einsum("bl,lm->bm", g, vol_mat, optimize=False)
        return drift, anorm * float(np.sum(_norm_rows(gs)))

    return _tiled_node_sums(
        lambda lo, hi: s_out[lo:hi, None] + s_in[None, :], m1, m1, ridge.d1, ridge.d2,
        [h * v for v in distinct], h, reduce)


def sensitivity_mc(model: BaselineModel, boundary: BoundaryFunction, point: EvalPoint,
                   samples: SampleGrid, h: float | None = None,
                   workers: int | None = None) -> tuple[float, float, bool]:
    """Nested MC estimate of (sens_drift, sens_vol); returns the branch taken.

    Both factors come from one pass, as they share the inner mean w_hat. The
    boundary picks the path: the Hessian branch if `boundary.hessian` is set
    (else forward differences), the ridge kernel if `boundary.ridge` is.
    For the FD branch or the generic kernel pass replace(b, hessian=None,
    ridge=replace(b.ridge, d2=None)) or replace(b, ridge=None).

    Parameters
    ----------
    h : FD bump for the Jacobian fallback; default 1e-3 * max(1, |x|_inf).

    Returns (sens_drift, sens_vol, used_hessian_path).
    """
    _check_compatible(model, boundary, point, samples)
    use_hessian = boundary.hessian is not None
    if not use_hessian:
        h = _check_bump(default_bump(point) if h is None else h)

    use_ridge = boundary.ridge is not None
    node_terms = _ridge_node_terms if use_ridge else _generic_node_terms
    first_arg = boundary.ridge if use_ridge else boundary

    samples.ensure_mixed()
    n, m1, dt = samples.grid.n_steps, samples.m1, samples.grid.dt
    x, vol_mat = point.x, model.vol

    def per_node(i: int):
        out_disp = samples.displacement(i, stop=m1)
        in_disp = samples.displacement(n - i, stop=m1)
        return node_terms(first_arg, x, out_disp, in_disp, vol_mat, h)

    n_workers = _resolve_workers(workers)
    pool = ThreadPoolExecutor(max_workers=n_workers) if n_workers > 1 else None
    try:
        if pool is None:
            results = map(per_node, range(n))
        else:
            futures = [pool.submit(per_node, i) for i in range(n)]
            results = (f.result() for f in futures)
        node_vals = []
        for i, (dv, vv) in enumerate(results):
            if not (math.isfinite(dv) and math.isfinite(vv)):
                raise NumericError(f"non-finite sensitivity contribution at time index {i}")
            node_vals.append((dv, vv))
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    sens_drift = dt * math.fsum(dv for dv, _ in node_vals) / m1
    sens_vol = dt * math.fsum(vv for _, vv in node_vals) / m1
    return sens_drift, sens_vol, use_hessian


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
        arr = np.asarray(values, dtype=float)
        std = float(np.std(arr, ddof=1)) if arr.size > 1 else float("nan")
        return cls(runs=int(arr.size), mean=float(np.mean(arr)), std_dev=std)


def seeded_runs(job, runs: int, base_seed: int) -> list:
    """Results of `job(seed)` for seeds base_seed..base_seed+runs-1, in seed order.

    Any single-run failure aborts with the offending seed in the message;
    a ValidationError passes through unchanged (it is a configuration fault).
    """
    if int(runs) != runs or runs < 1:
        raise ValidationError(f"runs must be an integer >= 1, got {runs}")
    results = []
    for seed in range(base_seed, base_seed + int(runs)):
        try:
            results.append(job(seed))
        except ValidationError:
            raise
        except Exception as exc:
            raise NumericError(f"estimator run with seed {seed} failed: {exc}") from exc
    return results


@dataclass(frozen=True)
class McConfig:
    """Estimator parameters; kernel="generic" makes compute_report drop the ridge."""

    n_steps: int = 100
    m0: int = 3_000_000
    m1: int | None = None   # None: min(30_000, m0)
    h: float | None = None
    seed: int = 0
    kernel: str = "auto"

    def __post_init__(self):
        for name, low in (("n_steps", 1), ("m0", 1), ("m1", 1), ("seed", 0)):
            if name == "m1" and self.m1 is None:   # m0 is a checked count by now
                object.__setattr__(self, "m1", min(30_000, self.m0))
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < low:
                raise ValidationError(f"{name} must be an integer >= {low}, got {v!r}")
        if self.m0 < self.m1:
            raise ValidationError(f"need m0 >= m1, got m0={self.m0}, m1={self.m1}")
        if self.h is not None:
            _check_bump(self.h)
        if self.kernel not in ("auto", "generic"):
            raise ValidationError(f"kernel must be one of ('auto', 'generic'), "
                                  f"got {self.kernel!r}")


def compute_report(model: BaselineModel, boundary: BoundaryFunction, point: EvalPoint,
                   cfg: McConfig, unc: UncertaintySpec | None = None,
                   workers: int | None = None) -> SensitivityReport:
    """Draw samples and run both estimators once, timed, as a SensitivityReport.

    When `unc` is given with gamma = eta = 0, sensitivity_mc is not called
    (the sensitivity is identically zero at zero weights): both factors are
    0.0, used_hessian_path is False and `h` is None, as it is whenever no FD
    branch ran. The boundary
    picks the branch; cfg.kernel="generic" drops its ridge declaration. The
    worker count is resolved first, so a bad KOLSENS_WORKERS fails early.
    """
    t0 = time.perf_counter()
    workers = _resolve_workers(workers)
    grid = build_time_grid(point.t, model.horizon, cfg.n_steps)
    samples = draw_samples(model, grid, cfg.m0, cfg.m1, cfg.seed)
    v0 = v0_mc(model, boundary, point, samples)
    sens_drift, sens_vol, used_hessian, h = 0.0, 0.0, False, None
    if unc is None or unc.gamma != 0.0 or unc.eta != 0.0:
        if cfg.kernel == "generic":
            boundary = replace(boundary, ridge=None)
        sens_drift, sens_vol, used_hessian = sensitivity_mc(
            model, boundary, point, samples, h=cfg.h, workers=workers)
        if not used_hessian:
            h = default_bump(point) if cfg.h is None else cfg.h
    runtime = time.perf_counter() - t0
    return SensitivityReport(
        v0=v0, sens_drift=sens_drift, sens_vol=sens_vol,
        used_hessian_path=used_hessian, runtime_seconds=runtime,
        predicted_ops=predicted_complexity(model.dim, cfg.n_steps, cfg.m0, cfg.m1),
        d=model.dim, n_steps=cfg.n_steps, m0=cfg.m0, m1=cfg.m1,
        h=h, seed=cfg.seed)
