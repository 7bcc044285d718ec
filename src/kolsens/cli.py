"""Command-line front end: JSON-configured runs with reproducible artifacts.

One config file describes the experiment (model, boundary, evaluation point,
uncertainty weights, estimator and FD parameters); the command selects what
to compute. `main` checks the output arguments, builds the context from the
config, runs the command's entry of `COMMANDS` and writes its document: JSON,
or for a sweep with --format csv, its table as CSV with a JSON summary beside
it. Every artifact embeds the package version, a hash of the semantically
meaningful configuration, and the base seed; reruns with the same config and
seed produce byte-identical output except for the wall-clock runtime fields.

Exit codes: 0 success; 2 configuration, output-argument or validation problem
(including FD stability refusals and external boundaries that fail to load or
probe), with the output arguments and the config checked before any estimate;
3 numerical failure (NaN/Inf mid-computation); 4 expansion regime violated
with --strict.
"""

import argparse
import hashlib
import importlib
import json
import math
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import (quartic_sensitivity_quadrature, quartic_v0, sine_sensitivity_quadrature,
                       sine_v0)
from .engine import (EstimatorStats, McConfig, compute_report, predicted_complexity,
                     seeded_runs)
from .errors import NumericError, ValidationError, array, choice, count, real
from .fd1d import epsilon_sweep, fd_problem_from_model, plan_epsilon_sweep, solve
from .model import (BaselineModel, BoundaryFunction, EvalPoint, UncertaintySpec,
                    check_boundary, generate_normalized_model, lambda_min, quartic_boundary,
                    sine_boundary, validate_expansion_regime)

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
    except OSError as exc:    # missing, a directory, unreadable
        raise ValidationError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    except ValueError as exc:    # invalid UTF-8 or invalid JSON
        raise ValidationError(f"config file {path} is not valid JSON: {exc}") from None
    _expect_keys(raw, _TOP_KEYS, "config root")
    return raw


def _count(v, name: str, low: int = 1) -> int:
    """An integer config value >= low; JSON's integral floats such as 2.0 count too."""
    return count(int(v) if isinstance(v, float) and v.is_integer() else v, name, low)


def _build_model(raw: dict, command: str):
    """The config's model and its kind. For dim-sweep a normalized model is the
    factory d -> the d-dimensional model of generator seed model.seed + d."""
    spec = raw.get("model")
    if not isinstance(spec, dict):
        raise ValidationError(f"config needs a 'model' object, got {spec!r}")
    kind = choice(spec.get("kind", "normalized" if "dim" in spec else "explicit"),
                  "model.kind", tuple(_MODEL_KEYS))
    _expect_keys(spec, _MODEL_KEYS[kind], f"{kind} model")
    horizon = real(spec.get("horizon", 1.0), "model.horizon")
    if kind == "explicit":
        for key in ("drift", "vol"):
            if key not in spec:
                raise ValidationError(f"explicit model needs '{key}'")
        model = BaselineModel(drift=spec["drift"], vol=spec["vol"], horizon=horizon)
    else:
        if "dim" not in spec and command != "dim-sweep":
            raise ValidationError("normalized model needs 'dim'")
        dim = _count(spec.get("dim", 1), "model.dim")
        seed = _count(spec.get("seed", 0), "model.seed", low=0)
        if command == "dim-sweep":
            return (lambda d: generate_normalized_model(d, seed + d, horizon=horizon)), kind
        model = generate_normalized_model(dim, seed, horizon=horizon)
    return model, kind


def _external_boundary(ref: str, dim: int) -> BoundaryFunction:
    module_name, _, attr = ref.partition(":")
    if not module_name or not attr:
        raise ValidationError(f"external boundary ref must look like 'module:attr', got {ref!r}")
    try:    # the module's own code: whatever it raises is a fault of the boundary
        obj = getattr(importlib.import_module(module_name), attr)
        if callable(obj) and not isinstance(obj, BoundaryFunction):
            obj = obj(dim)
        probe = check_boundary(obj) if isinstance(obj, BoundaryFunction) else None
    except Exception as exc:
        raise ValidationError(f"cannot load external boundary {ref!r}: "
                              f"{type(exc).__name__}: {exc}") from None
    if probe is None:
        raise ValidationError(f"external boundary {ref!r} is not a BoundaryFunction")
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
    kind = choice(spec.get("kind"), "boundary.kind", ("quartic", "sine", "external"))
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
    x = spec.get("x", [0.0] * (dim or 1))
    x = array([x] if isinstance(x, (int, float)) else x, "point.x", (dim,))  # a number is promoted
    return EvalPoint(t=real(spec.get("t", 0.0), "point.t"), x=x)


def _build_unc(raw: dict) -> UncertaintySpec:
    spec = raw.get("uncertainty", {})
    _expect_keys(spec, {"gamma", "eta", "epsilon"}, "uncertainty")
    return UncertaintySpec(gamma=real(spec.get("gamma", 1.0), "uncertainty.gamma"),
                           eta=real(spec.get("eta", 1.0), "uncertainty.eta"),
                           epsilon=real(spec.get("epsilon", 0.05), "uncertainty.epsilon"))


def _build_mc(raw: dict, seed: int) -> McConfig:
    """The estimator config. The mc keys are McConfig's fields but seed; a key
    left out, or h: null, takes McConfig's default, and McConfig checks every
    value after the counts and h are read as JSON numbers."""
    spec = raw.get("mc", {})
    _expect_keys(spec, {f.name for f in fields(McConfig)} - {"seed"}, "mc")
    read = {"n_steps": _count, "m0": _count, "m1": _count, "h": real}
    return McConfig(**{k: read[k](v, f"mc.{k}") if k in read else v
                       for k, v in spec.items() if not (k == "h" and v is None)}, seed=seed)


def _fd_params(raw: dict) -> dict:
    spec = raw.get("fd", {})
    _expect_keys(spec, {"half_width", "nx", "nt"}, "fd")
    read = {"half_width": real, "nx": _count, "nt": _count}    # null: the default, but for nx
    return {k: read[k](v, f"fd.{k}") for k, v in spec.items() if v is not None or k == "nx"}


def config_hash(raw: dict, command: str, runs: int, mc: McConfig) -> str:
    """Hash of everything that can change a result; the seed (mc.seed) and runs
    enter only as the values in effect, whether the config or a flag gave them."""
    semantic = {k: v for k, v in raw.items() if k not in ("seed", "runs")}
    if command == "dim-sweep":    # its models are built at the entries of dims, not model.dim
        semantic["model"] = {k: v for k, v in raw["model"].items() if k != "dim"}
    semantic["_effective"] = {**asdict(mc), "command": command, "runs": runs}
    blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# per-command runners
# --------------------------------------------------------------------------

def _repeat(ctx, model, boundary, point, mc: McConfig, unc: UncertaintySpec) -> tuple:
    """compute_report at the seeds seed..seed+runs-1: the reports, and the
    EstimatorStats of their v0, sens_drift and sens_vol."""
    reports = seeded_runs(
        lambda seed: compute_report(model, boundary, point, replace(mc, seed=seed), unc=unc),
        ctx["runs"], ctx["seed"])
    return reports, {name: EstimatorStats.of([getattr(r, name) for r in reports])
                     for name in ("v0", "sens_drift", "sens_vol")}


def _normalized_at_origin(ctx, what: str) -> None:
    """Refuse a model that is not normalized or a point that is not (t, x) = (0, 0)."""
    if ctx["model_kind"] != "normalized":
        raise ValidationError(f"{what} a normalized model, got model.kind {ctx['model_kind']!r}")
    if ctx["point"].t != 0.0 or np.any(ctx["point"].x != 0.0):
        raise ValidationError(f"{what} the point (t, x) = (0, 0); drop the point section")


def _fd_problem(ctx, command: str):
    """The config's 1-D FD problem, which eps-sweep and fd-solve solve at t = 0."""
    if ctx["point"].t != 0.0:
        raise ValidationError(f"{command} evaluates at t = 0; set point.t to 0")
    return fd_problem_from_model(ctx["model"], ctx["boundary"], ctx["unc"],
                                 x_center=float(ctx["point"].x[0]), **ctx["fd"])


def _run_value(ctx) -> dict:
    """v0 alone through compute_report (zero weights, m1 = 1), which picks the kernel."""
    t0 = time.perf_counter()
    _, stats = _repeat(ctx, ctx["model"], ctx["boundary"], ctx["point"],
                       replace(ctx["mc"], m1=1), UncertaintySpec(0.0, 0.0, 0.0))
    return {"seed": ctx["seed"], "d": ctx["model"].dim, "N": ctx["mc"].n_steps,
            "M0": ctx["mc"].m0,
            "stats": asdict(stats["v0"]),
            "runtime_seconds": time.perf_counter() - t0}


def _run_sensitivity(ctx) -> dict:
    unc = ctx["unc"]
    reports, stats = _repeat(ctx, ctx["model"], ctx["boundary"], ctx["point"], ctx["mc"], unc)
    stats["approx"] = EstimatorStats.of([r.approx(unc.gamma, unc.eta, unc.epsilon)
                                         for r in reports])
    mean = replace(reports[0], v0=stats["v0"].mean, sens_drift=stats["sens_drift"].mean,
                   sens_vol=stats["sens_vol"].mean,
                   runtime_seconds=math.fsum(r.runtime_seconds for r in reports),
                   seed=ctx["seed"])
    return {"report": mean.to_document(unc),
            "stats": {name: asdict(st) for name, st in stats.items()}}


def _run_approx(ctx) -> dict:
    """sensitivity plus the expansion-regime check, whose failure --strict makes exit 4."""
    doc = _run_sensitivity(ctx)
    unc = ctx["unc"]
    regime = validate_expansion_regime(ctx["model"], unc)
    doc["regime"] = {"ok": regime.ok, "epsilon": regime.epsilon, "bound": regime.bound}
    if not regime.ok:
        print(f"warning: epsilon={unc.epsilon} is not below the expansion "
              f"bound {regime.bound:.6g}", file=sys.stderr)
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
        _normalized_at_origin(ctx, "analytic sine values assume")
        d = model.dim
        v0 = sine_v0(T)
        sd = sine_sensitivity_quadrature(T, d, "drift")
        sv = sine_sensitivity_quadrature(T, d, "vol")
    else:
        raise ValidationError("approx_source='analytic' supports the built-in "
                              "boundaries only; use approx_source='engine'")
    return v0, unc.gamma * sd + unc.eta * sv


def _run_eps_sweep(ctx) -> dict:
    spec = ctx["raw"].get("sweep", {})
    _expect_keys(spec, {"epsilons", "approx_source", "anchor"}, "sweep")
    epsilons = array(spec.get("epsilons"), "sweep.epsilons", (None,))
    anchor = spec.get("anchor", "fd")
    default = "analytic" if ctx["boundary_kind"] in ("quartic", "sine") else "engine"
    source = choice(spec.get("approx_source", default), "sweep.approx_source",
                    ("analytic", "engine"))
    # a bad sweep section or an unstable fd.nt exits here, before any estimate
    plan = plan_epsilon_sweep(_fd_problem(ctx, "eps-sweep"), epsilons, anchor)
    if source == "analytic":
        v0, total = _analytic_first_order(ctx)
    else:
        report = compute_report(ctx["model"], ctx["boundary"], ctx["point"],
                                ctx["mc"], unc=ctx["unc"])
        v0 = report.v0
        total = report.sens_total(ctx["unc"].gamma, ctx["unc"].eta)
    result = epsilon_sweep(plan, v0=float(v0), sensitivity=float(total))
    return {"seed": ctx["seed"], "approx_source": source, "anchor": anchor,
            "anchor_value": float(result.anchor_value), "slope": result.slope,
            "half_width": result.half_width, "nx": plan.problem.nx, "nt": plan.problem.nt,
            "rows": len(plan.rows),
            "table": [{"epsilon": e, "v_fd": v, "approx": a, "abs_error": err}
                      for e, v, a, err in zip(result.epsilons, result.fd_values,
                                              result.approx_values, result.abs_errors)]}


def _run_dim_sweep(ctx) -> dict:
    dims = [_count(d, "dims") for d in array(ctx["raw"].get("dims"), "dims", (None,)).tolist()]
    if ctx["boundary_kind"] == "quartic":
        raise ValidationError("dim-sweep needs a dimension-parametric boundary "
                              "(sine or external factory)")
    _normalized_at_origin(ctx, "dim-sweep assumes")
    # every boundary is built, and an external one probed, before the first estimate
    boundaries = {d: _make_boundary(ctx["boundary_kind"], ctx["boundary_ref"], d) for d in dims}
    rows = []
    for d in dims:
        model = ctx["model"](d)
        reports, stats = _repeat(ctx, model, boundaries[d], EvalPoint(t=0.0, x=np.zeros(d)),
                                 ctx["mc"], ctx["unc"])
        row = {"d": d, "lambda_min": lambda_min(model)}
        for name, st in stats.items():
            row[f"{name}_mean"], row[f"{name}_std"] = st.mean, st.std_dev
        row["runtime_mean_seconds"] = EstimatorStats.of([r.runtime_seconds
                                                         for r in reports]).mean
        rows.append(row)
    return {"seed": ctx["seed"], "runs": ctx["runs"], "rows": rows}


def _run_fd_solve(ctx) -> dict:
    problem = _fd_problem(ctx, "fd-solve")
    solution = solve(problem)
    return {"seed": ctx["seed"], "v_fd": solution.at(problem.x_center),
            "x": problem.x_center, "half_width": problem.resolved_half_width(),
            "nx": problem.nx, "nt": solution.nt, "epsilon": problem.epsilon,
            "gamma": problem.gamma, "eta": problem.eta}


def _run_complexity(ctx) -> dict:
    mc, d = ctx["mc"], ctx["model"].dim
    return {"predicted_ops": predicted_complexity(d, mc.n_steps, mc.m0, mc.m1),
            "d": d, "N": mc.n_steps, "M0": mc.m0, "M1": mc.m1}


# command -> (runner, CSV (header, key) or None); with --format csv, doc[key]
# goes to the CSV and the rest of the document to a JSON summary beside it
COMMANDS = {
    "value": (_run_value, None),
    "sensitivity": (_run_sensitivity, None),
    "approx": (_run_approx, None),
    "eps-sweep": (_run_eps_sweep, (EPS_SWEEP_HEADER, "table")),
    "dim-sweep": (_run_dim_sweep, (DIM_SWEEP_HEADER, "rows")),
    "fd-solve": (_run_fd_solve, None),
    "complexity": (_run_complexity, None),
}


# --------------------------------------------------------------------------
# output
# --------------------------------------------------------------------------

def _check_output(args, csv) -> None:
    """Refuse every fault of the output arguments before the config is read: CSV
    for a command without a table, a CSV without --out, and a file to write
    that is the config, lies in a missing directory or is a directory."""
    if args.format == "csv" and csv is None:
        raise ValidationError(f"--format csv is not supported for '{args.command}'")
    if args.out is None:
        if args.format == "csv":
            raise ValidationError("--format csv needs --out for sweep commands")
        return
    targets = [Path(args.out)]
    if args.format == "csv":
        targets.append(targets[0].with_suffix(".json"))
    for target in targets:
        if target.resolve() == Path(args.config).resolve():
            raise ValidationError(f"output path {target} would overwrite the "
                                  f"config file; choose a different --out")
        if not target.parent.is_dir():
            raise ValidationError(f"output directory {target.parent} does not exist")
        if target.is_dir():
            raise ValidationError(f"output path {target} is a directory")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv_text(header: str, rows: list) -> str:
    cols = header.split(",")
    return "\n".join([header] + [",".join(str(row[c]) for c in cols) for row in rows]) + "\n"


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
            "seed": seed, "runs": runs}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run, csv = COMMANDS[args.command]
    try:
        _check_output(args, csv)
        ctx = _build_context(args)
        doc = {"version": __version__,
               "config_hash": config_hash(ctx["raw"], args.command, ctx["runs"], ctx["mc"]),
               "command": args.command, **run(ctx)}
        if args.format == "csv":
            header, key = csv
            _emit(_csv_text(header, doc[key]), args.out)
            _emit(_json_text({k: v for k, v in doc.items() if k != key}),
                  str(Path(args.out).with_suffix(".json")))
        else:
            _emit(_json_text(doc), args.out)
        return 4 if args.strict and not doc.get("regime", {"ok": True})["ok"] else 0
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
