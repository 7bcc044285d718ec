"""Command-line front end: JSON-configured runs with reproducible artifacts.

One config file describes the experiment (model, boundary, evaluation point,
uncertainty weights, estimator and FD parameters); the command selects what
to compute. Every artifact embeds the package version, a hash of the
semantically meaningful configuration, and the base seed, so a result file
can always be traced back to an exact, re-runnable setup. Reruns with the
same config and seed produce byte-identical output except for the wall-clock
runtime fields.

Exit codes: 0 success; 2 configuration or validation problem (including FD
stability refusals); 3 numerical failure (NaN/Inf mid-computation); 4
expansion regime violated with --strict.
"""

import argparse
import hashlib
import importlib
import json
import math
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import (quartic_sensitivity_quadrature, quartic_v0, sine_sensitivity_quadrature,
                       sine_v0)
from .engine import (EstimatorStats, McConfig, compute_report, predicted_complexity,
                     seeded_runs)
from .errors import NumericError, ValidationError, count, real
from .fd1d import epsilon_sweep, fd_problem_from_model, plan_epsilon_sweep, solve
from .model import (BaselineModel, BoundaryFunction, EvalPoint, UncertaintySpec,
                    check_boundary, generate_normalized_model, lambda_min, quartic_boundary,
                    sine_boundary, validate_expansion_regime)

COMMANDS = ("value", "sensitivity", "approx", "eps-sweep", "dim-sweep",
            "fd-solve", "complexity")

EPS_SWEEP_HEADER = "epsilon,v_fd,approx,abs_error"
DIM_SWEEP_HEADER = ("d,v0_mean,v0_std,sens_drift_mean,sens_drift_std,"
                    "sens_vol_mean,sens_vol_std,lambda_min,runtime_mean_seconds")

_TOP_KEYS = {"model", "boundary", "point", "uncertainty", "mc", "fd", "sweep",
             "dims", "seed", "runs"}
_MODEL_KEYS = {"explicit": {"kind", "drift", "vol", "horizon"},
               "normalized": {"kind", "dim", "seed", "horizon"}}


def _expect_keys(section: dict, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ValidationError(f"{where} must be a JSON object, got {section!r}")
    extra = set(section) - allowed
    if extra:
        raise ValidationError(f"unknown key(s) {sorted(extra)} in {where} "
                              f"(allowed: {sorted(allowed)})")


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValidationError("config root must be a JSON object")
    _expect_keys(raw, _TOP_KEYS, "config root")
    return raw


def _count(v, name: str, low: int = 1) -> int:
    """An integer config value >= low; JSON's integral floats such as 2.0 count too."""
    return count(int(v) if isinstance(v, float) and v.is_integer() else v, name, low)


def _array(v, name: str) -> np.ndarray:
    """A (nested) list of numbers as a float array."""
    try:
        return np.asarray(v, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be an array of numbers, got {v!r}") from None


def _build_model(raw: dict, command: str):
    """The config's model and its kind; dim-sweep builds its own normalized models."""
    spec = raw.get("model")
    if not isinstance(spec, dict):
        raise ValidationError(f"config needs a 'model' object, got {spec!r}")
    kind = spec.get("kind", "normalized" if "dim" in spec else "explicit")
    if kind not in ("explicit", "normalized"):
        raise ValidationError(f"model kind must be 'explicit' or 'normalized', got {kind!r}")
    _expect_keys(spec, _MODEL_KEYS[kind], f"{kind} model")
    horizon = real(spec.get("horizon", 1.0), "model.horizon")
    if kind == "explicit":
        for key in ("drift", "vol"):
            if key not in spec:
                raise ValidationError(f"explicit model needs '{key}'")
        model = BaselineModel(drift=_array(spec["drift"], "model.drift"),
                              vol=_array(spec["vol"], "model.vol"), horizon=horizon)
    else:
        if "dim" not in spec and command != "dim-sweep":
            raise ValidationError("normalized model needs 'dim'")
        dim = _count(spec.get("dim", 1), "model.dim")
        model = None if command == "dim-sweep" else generate_normalized_model(
            dim, _count(spec.get("seed", 0), "model.seed", low=0), horizon=horizon)
    return model, kind


def _external_boundary(ref: str, dim: int) -> BoundaryFunction:
    module_name, _, attr = ref.partition(":")
    if not module_name or not attr:
        raise ValidationError(f"external boundary ref must look like 'module:attr', got {ref!r}")
    try:
        obj = getattr(importlib.import_module(module_name), attr)
    except (ImportError, AttributeError) as exc:
        raise ValidationError(f"cannot load external boundary {ref!r}: {exc}") from None
    if callable(obj) and not isinstance(obj, BoundaryFunction):
        obj = obj(dim)
    if not isinstance(obj, BoundaryFunction):
        raise ValidationError(f"external boundary {ref!r} is not a BoundaryFunction")
    probe = check_boundary(obj)
    if not probe.ok:
        raise ValidationError(
            f"external boundary {ref!r} failed consistency probes: "
            f"gradient err {probe.max_gradient_rel_err:.2e}, "
            f"hessian err {probe.max_hessian_rel_err:.2e}, "
            f"asymmetry {probe.max_hessian_asym:.2e}, "
            f"ridge err {probe.max_ridge_rel_err:.2e}")
    return obj


def _boundary_spec(raw: dict):
    spec = raw.get("boundary", "quartic")
    if isinstance(spec, str):
        spec = {"kind": spec}
    _expect_keys(spec, {"kind", "ref"}, "boundary")
    kind = spec.get("kind")
    if kind not in ("quartic", "sine", "external"):
        raise ValidationError(f"boundary kind must be quartic/sine/external, got {kind!r}")
    if kind == "external" and "ref" not in spec:
        raise ValidationError("external boundary needs a 'ref' of the form 'module:attr'")
    return kind, spec.get("ref")


def _make_boundary(kind: str, ref, dim: int) -> BoundaryFunction:
    if kind == "quartic":
        if dim != 1:
            raise ValidationError(f"quartic boundary is 1-D, model has dim {dim}")
        return quartic_boundary()
    if kind == "sine":
        return sine_boundary(dim)
    return _external_boundary(ref, dim)


def _build_point(raw: dict, dim: int | None) -> EvalPoint:
    """The evaluation point; with dim None (dim-sweep) x may have any length."""
    spec = raw.get("point", {})
    _expect_keys(spec, {"t", "x"}, "point")
    x = np.atleast_1d(_array(spec.get("x", np.zeros(dim or 1)), "point.x"))
    if dim is not None and x.shape != (dim,):
        raise ValidationError(f"point.x must be a list of {dim} numbers (the model dim), "
                              f"got {spec['x']!r}")
    return EvalPoint(t=real(spec.get("t", 0.0), "point.t"), x=x)


def _build_unc(raw: dict) -> UncertaintySpec:
    spec = raw.get("uncertainty", {})
    _expect_keys(spec, {"gamma", "eta", "epsilon"}, "uncertainty")
    return UncertaintySpec(gamma=real(spec.get("gamma", 1.0), "uncertainty.gamma"),
                           eta=real(spec.get("eta", 1.0), "uncertainty.eta"),
                           epsilon=real(spec.get("epsilon", 0.05), "uncertainty.epsilon"))


def _build_mc(raw: dict, seed: int) -> McConfig:
    """The estimator config; McConfig sets the m1 default and checks every value."""
    spec = raw.get("mc", {})
    _expect_keys(spec, {"n_steps", "m0", "m1", "h", "kernel"}, "mc")
    h = spec.get("h")
    return McConfig(
        n_steps=_count(spec.get("n_steps", 100), "mc.n_steps"),
        m0=_count(spec.get("m0", 3_000_000), "mc.m0"),
        m1=_count(spec["m1"], "mc.m1") if "m1" in spec else None,
        h=None if h is None else real(h, "mc.h"),
        seed=seed,
        kernel=spec.get("kernel", "auto"))


def _fd_params(raw: dict) -> dict:
    spec = raw.get("fd", {})
    _expect_keys(spec, {"half_width", "nx", "nt"}, "fd")
    out = {}
    if spec.get("half_width") is not None:
        out["half_width"] = real(spec["half_width"], "fd.half_width")
    if "nx" in spec:
        out["nx"] = _count(spec["nx"], "fd.nx")
    if spec.get("nt") is not None:
        out["nt"] = _count(spec["nt"], "fd.nt")
    return out


def config_hash(raw: dict, command: str, seed: int, runs: int, mc: McConfig) -> str:
    """Hash of everything that can change a result; seed and runs enter only
    as the values in effect, whether the config or a flag gave them."""
    semantic = {k: v for k, v in raw.items() if k not in ("seed", "runs")}
    if command == "dim-sweep":    # its models are built at the entries of dims, not model.dim
        semantic["model"] = {k: v for k, v in raw["model"].items() if k != "dim"}
    semantic["_effective"] = {
        "command": command, "seed": seed, "runs": runs,
        "h": mc.h, "kernel": mc.kernel,
        "n_steps": mc.n_steps, "m0": mc.m0, "m1": mc.m1,
    }
    blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# per-command runners
# --------------------------------------------------------------------------

def _report_stats(reports: list) -> dict:
    return {name: EstimatorStats.of([getattr(r, name) for r in reports])
            for name in ("v0", "sens_drift", "sens_vol")}


def _run_value(ctx) -> dict:
    """v0 alone through compute_report (zero weights, m1 = 1), which picks the kernel."""
    t0 = time.perf_counter()
    v0_only = UncertaintySpec(gamma=0.0, eta=0.0, epsilon=0.0)
    reports = seeded_runs(
        lambda seed: compute_report(ctx["model"], ctx["boundary"], ctx["point"],
                                    replace(ctx["mc"], m1=1, seed=seed), unc=v0_only),
        ctx["runs"], ctx["seed"])
    stats = EstimatorStats.of([r.v0 for r in reports])
    return {"seed": ctx["seed"], "d": ctx["model"].dim, "N": ctx["mc"].n_steps,
            "M0": ctx["mc"].m0,
            "stats": asdict(stats),
            "runtime_seconds": time.perf_counter() - t0}


def _run_sensitivity(ctx, with_regime: bool) -> dict:
    model, unc = ctx["model"], ctx["unc"]
    reports = seeded_runs(
        lambda seed: compute_report(model, ctx["boundary"], ctx["point"],
                                    replace(ctx["mc"], seed=seed), unc=unc),
        ctx["runs"], ctx["seed"])
    stats = _report_stats(reports)
    stats["approx"] = EstimatorStats.of([r.approx(unc.gamma, unc.eta, unc.epsilon)
                                         for r in reports])
    mean = replace(reports[0], v0=stats["v0"].mean, sens_drift=stats["sens_drift"].mean,
                   sens_vol=stats["sens_vol"].mean,
                   runtime_seconds=math.fsum(r.runtime_seconds for r in reports),
                   seed=ctx["seed"])
    doc = {"report": mean.to_document(unc),
           "stats": {name: asdict(st) for name, st in stats.items()}}
    if with_regime:
        regime = validate_expansion_regime(model, unc)
        doc["regime"] = {"ok": regime.ok, "epsilon": regime.epsilon,
                         "bound": regime.bound}
        if not regime.ok:
            print(f"warning: epsilon={unc.epsilon} is not below the expansion "
                  f"bound {regime.bound:.6g}", file=sys.stderr)
            if ctx["strict"]:
                doc["_strict_violation"] = True
    return doc


def _analytic_first_order(ctx) -> tuple:
    """(v0, weighted total sensitivity) from the quadrature oracles."""
    model, unc, kind = ctx["model"], ctx["unc"], ctx["boundary_kind"]
    T = model.horizon
    if kind == "quartic":
        t, x = ctx["point"].t, float(ctx["point"].x[0])
        b0, s0 = float(model.drift[0]), float(model.vol[0, 0])
        v0 = quartic_v0(t, x, b0, s0, T)
        sd = quartic_sensitivity_quadrature("drift", t, x, b0, s0, T)
        sv = quartic_sensitivity_quadrature("vol", t, x, b0, s0, T)
    elif kind == "sine":
        if ctx["model_kind"] != "normalized":
            raise ValidationError("analytic sine values assume a normalized model; "
                                  "use approx_source='engine' instead")
        if ctx["point"].t != 0.0 or np.any(ctx["point"].x != 0.0):
            raise ValidationError("analytic sine values assume the point (t, x) = (0, 0)")
        d = model.dim
        v0 = sine_v0(T)
        sd = sine_sensitivity_quadrature(T, d, "drift")
        sv = sine_sensitivity_quadrature(T, d, "vol")
    else:
        raise ValidationError("approx_source='analytic' supports the built-in "
                              "boundaries only; use approx_source='engine'")
    return v0, unc.gamma * sd + unc.eta * sv


def _run_eps_sweep(ctx) -> dict:
    raw = ctx["raw"]
    spec = raw.get("sweep", {})
    _expect_keys(spec, {"epsilons", "approx_source", "anchor"}, "sweep")
    if not isinstance(spec.get("epsilons"), list):
        raise ValidationError("eps-sweep needs a sweep.epsilons list in the config")
    epsilons = [real(e, "sweep.epsilons") for e in spec["epsilons"]]
    anchor = spec.get("anchor", "fd")
    source = spec.get("approx_source",
                      "analytic" if ctx["boundary_kind"] in ("quartic", "sine")
                      else "engine")
    if ctx["point"].t != 0.0:
        raise ValidationError("eps-sweep evaluates at t = 0; set point.t to 0")
    template = fd_problem_from_model(ctx["model"], ctx["boundary"], ctx["unc"],
                                     x_center=float(ctx["point"].x[0]), **ctx["fd"])
    # a bad sweep section or an unstable fd.nt exits here, before any estimate
    plan = plan_epsilon_sweep(template, epsilons, anchor)
    if source == "analytic":
        v0, total = _analytic_first_order(ctx)
    elif source == "engine":
        report = compute_report(ctx["model"], ctx["boundary"], ctx["point"],
                                ctx["mc"], unc=ctx["unc"])
        v0 = report.v0
        total = report.sens_total(ctx["unc"].gamma, ctx["unc"].eta)
    else:
        raise ValidationError(f"approx_source must be 'analytic' or 'engine', got {source!r}")
    result = epsilon_sweep(plan, v0=float(v0), sensitivity=float(total))
    return {"seed": ctx["seed"], "approx_source": source, "anchor": anchor,
            "anchor_value": float(result.anchor_value), "slope": result.slope,
            "half_width": result.half_width, "nx": plan.problem.nx, "nt": plan.problem.nt,
            "rows": len(plan.rows),
            "table": [{"epsilon": e, "v_fd": v, "approx": a, "abs_error": err}
                      for e, v, a, err in zip(result.epsilons, result.fd_values,
                                              result.approx_values, result.abs_errors)]}


def _run_dim_sweep(ctx) -> dict:
    raw = ctx["raw"]
    dims = raw.get("dims")
    if not (isinstance(dims, list) and dims):
        raise ValidationError("dim-sweep needs a nonempty 'dims' list in the config")
    dims = [_count(d, "dims") for d in dims]
    if ctx["boundary_kind"] == "quartic":
        raise ValidationError("dim-sweep needs a dimension-parametric boundary "
                              "(sine or external factory)")
    if ctx["model_kind"] != "normalized":
        raise ValidationError("dim-sweep generates a normalized model per entry of 'dims'; "
                              f"model.kind must be 'normalized', got {ctx['model_kind']!r}")
    if ctx["point"].t != 0.0 or np.any(ctx["point"].x != 0.0):
        raise ValidationError("dim-sweep evaluates every dimension at (t, x) = (0, 0); "
                              "drop the point section or set point.t and point.x to 0")
    model_spec = raw.get("model", {})
    model_seed = _count(model_spec.get("seed", 0), "model.seed", low=0)
    horizon = real(model_spec.get("horizon", 1.0), "model.horizon")
    rows = []
    for d in dims:
        model = generate_normalized_model(d, model_seed + d, horizon=horizon)
        boundary = _make_boundary(ctx["boundary_kind"], ctx["boundary_ref"], d)
        point = EvalPoint(t=0.0, x=np.zeros(d))
        reports = seeded_runs(
            lambda seed: compute_report(model, boundary, point,
                                        replace(ctx["mc"], seed=seed), unc=ctx["unc"]),
            ctx["runs"], ctx["seed"])
        row = {"d": d, "lambda_min": lambda_min(model)}
        for name, st in _report_stats(reports).items():
            row[f"{name}_mean"], row[f"{name}_std"] = st.mean, st.std_dev
        row["runtime_mean_seconds"] = EstimatorStats.of([r.runtime_seconds
                                                         for r in reports]).mean
        rows.append(row)
    return {"seed": ctx["seed"], "runs": ctx["runs"], "rows": rows}


def _run_fd_solve(ctx) -> dict:
    if ctx["point"].t != 0.0:
        raise ValidationError("fd-solve evaluates at t = 0; set point.t to 0")
    problem = fd_problem_from_model(ctx["model"], ctx["boundary"], ctx["unc"],
                                    x_center=float(ctx["point"].x[0]), **ctx["fd"])
    solution = solve(problem)
    return {"seed": ctx["seed"], "v_fd": solution.at(problem.x_center),
            "x": problem.x_center, "half_width": problem.resolved_half_width(),
            "nx": problem.nx, "nt": solution.nt, "epsilon": problem.epsilon,
            "gamma": problem.gamma, "eta": problem.eta}


def _run_complexity(ctx) -> dict:
    mc, d = ctx["mc"], ctx["model"].dim
    return {"predicted_ops": predicted_complexity(d, mc.n_steps, mc.m0, mc.m1),
            "d": d, "N": mc.n_steps, "M0": mc.m0, "M1": mc.m1}


# --------------------------------------------------------------------------
# output formatting
# --------------------------------------------------------------------------

def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n",
                             encoding="utf-8")


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv_text(header: str, rows: list) -> str:
    cols = header.split(",")
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(row[c]) if isinstance(row[c], float)
                              else str(row[c]) for c in cols))
    return "\n".join(lines) + "\n"


def _guard_output_path(target: Path, config_path: str) -> None:
    if target.resolve() == Path(config_path).resolve():
        raise ValidationError(f"output path {target} would overwrite the "
                              f"config file; choose a different --out")


def _write_sweep_csv(doc: dict, header: str, key: str, out: str | None,
                     config_path: str) -> None:
    """doc[key] goes to the CSV, the rest of doc to a JSON summary beside it."""
    if out is None:
        raise ValidationError("--format csv needs --out for sweep commands")
    summary_path = Path(out).with_suffix(".json")
    _guard_output_path(Path(out), config_path)
    _guard_output_path(summary_path, config_path)
    _emit(_csv_text(header, doc[key]), out)
    summary = {k: v for k, v in doc.items() if k != key}
    _emit(_json_text(summary), str(summary_path))


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kolsens",
        description="Monte Carlo sensitivity analysis of Kolmogorov PDEs "
                    "under drift and volatility uncertainty")
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--command", required=True, choices=COMMANDS,
                        help="what to compute")
    parser.add_argument("--seed", type=int, default=None,
                        help="base seed (overrides the config)")
    parser.add_argument("--runs", type=int, default=None,
                        help="number of repeated runs (overrides the config)")
    parser.add_argument("--out", default=None, help="output file (default: stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (csv for sweep commands only)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 4 when the expansion regime is violated")
    return parser


def _build_context(args) -> dict:
    raw = load_config(args.config)
    model, model_kind = _build_model(raw, args.command)
    boundary_kind, boundary_ref = _boundary_spec(raw)
    dim = None if args.command == "dim-sweep" else model.dim   # the sweep sets d per row
    boundary = None if dim is None else _make_boundary(boundary_kind, boundary_ref, dim)
    point = _build_point(raw, dim)
    seed = args.seed if args.seed is not None else _count(raw.get("seed", 0), "seed", low=0)
    mc = _build_mc(raw, seed)
    runs = _count(args.runs if args.runs is not None else raw.get("runs", 10), "runs")
    return {"raw": raw, "model": model, "model_kind": model_kind,
            "boundary": boundary, "boundary_kind": boundary_kind,
            "boundary_ref": boundary_ref, "point": point,
            "unc": _build_unc(raw), "mc": mc, "fd": _fd_params(raw),
            "seed": seed, "runs": runs, "strict": args.strict}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ctx = _build_context(args)
        runner = {
            "value": lambda: _run_value(ctx),
            "sensitivity": lambda: _run_sensitivity(ctx, with_regime=False),
            "approx": lambda: _run_sensitivity(ctx, with_regime=True),
            "eps-sweep": lambda: _run_eps_sweep(ctx),
            "dim-sweep": lambda: _run_dim_sweep(ctx),
            "fd-solve": lambda: _run_fd_solve(ctx),
            "complexity": lambda: _run_complexity(ctx),
        }[args.command]
        payload = runner()
        strict_violation = payload.pop("_strict_violation", False)
        doc = {"version": __version__,
               "config_hash": config_hash(ctx["raw"], args.command, ctx["seed"],
                                          ctx["runs"], ctx["mc"]),
               "command": args.command}
        doc.update(payload)
        if args.format == "csv":
            if args.command == "eps-sweep":
                _write_sweep_csv(doc, EPS_SWEEP_HEADER, "table", args.out, args.config)
            elif args.command == "dim-sweep":
                _write_sweep_csv(doc, DIM_SWEEP_HEADER, "rows", args.out, args.config)
            else:
                raise ValidationError(f"--format csv is not supported for "
                                      f"'{args.command}'")
        else:
            if args.out is not None:
                _guard_output_path(Path(args.out), args.config)
            _emit(_json_text(doc), args.out)
        if strict_violation:
            return 4
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
