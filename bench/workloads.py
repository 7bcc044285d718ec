"""The four fixed workloads: CLI configs, sizes, references and tolerances.

A job is one `kolsens.cli.main([...])` call with `--seed s --runs 1`. The
config of a workload is fixed; the job seed drives the Monte Carlo samples.
WORKLOADS.md explains why each workload was chosen and what it predicts.

Tolerances are the benchmark's correctness bands: a job whose outputs fall
outside them counts as failed. For Monte Carlo outputs they sit at about
six standard deviations of the relative error measured over 30 seeds at
that size (the nested estimator at M1 = 300 or 2000 is noisy: 4.5-5.8%
for the drift factor), so a correct program essentially never trips them,
while a lost term, a wrong kernel or a broken sampler does.
"""

import copy
import math
from dataclasses import dataclass

QUARTIC_MODEL = {"kind": "explicit", "drift": [1.0], "vol": [[1.0]], "horizon": 1.0}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str           # the CLI --command
    config: dict           # JSON config written once per process
    smoke: dict            # config section -> keys replaced in smoke mode
    workers: int           # KOLSENS_WORKERS
    tol: dict              # metric -> max allowed value (full size)
    smoke_tol: dict        # the same at smoke sizes
    spans: tuple           # spans the traced run must see
    counts: tuple          # element counters the traced run must see move

    def make_config(self, smoke: bool) -> dict:
        cfg = copy.deepcopy(self.config)
        for section, values in (self.smoke if smoke else {}).items():
            cfg[section].update(values)
        return cfg

    def tolerance(self, smoke: bool) -> dict:
        return self.smoke_tol if smoke else self.tol


_MC_SPANS = ("engine.compute_report", "sampling.draw_samples", "sampling.ensure_mixed",
             "engine.v0_mc", "engine.sensitivity_mc")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="quartic-ridge",
        command="sensitivity",
        config={"model": QUARTIC_MODEL, "boundary": "quartic",
                "mc": {"n_steps": 100, "m0": 200_000, "m1": 2000}},
        smoke={"mc": {"n_steps": 20, "m0": 20_000, "m1": 400}},
        workers=1,
        tol={"rel_err_v0": 0.05, "rel_err_sens": 0.30},
        smoke_tol={"rel_err_v0": 0.10, "rel_err_sens": 0.50},
        spans=_MC_SPANS,
        counts=("model.value_evals", "model.d1_evals", "model.d2_evals"),
    ),
    Workload(
        name="sine10-generic",
        command="sensitivity",
        config={"model": {"kind": "normalized", "dim": 10, "seed": 110},
                "boundary": "sine",
                "mc": {"n_steps": 100, "m0": 100_000, "m1": 300, "kernel": "generic"}},
        smoke={"mc": {"n_steps": 20, "m0": 10_000, "m1": 100}},
        workers=2,
        tol={"rel_err_v0": 0.03, "rel_err_sens": 0.35},
        smoke_tol={"rel_err_v0": 0.06, "rel_err_sens": 0.50},
        spans=_MC_SPANS,
        counts=("model.value_evals", "model.d1_evals", "model.d2_evals"),
    ),
    Workload(
        name="value-d50",
        command="value",
        config={"model": {"kind": "normalized", "dim": 50, "seed": 150},
                "boundary": "sine",
                "mc": {"m0": 1_000_000, "m1": 1}},
        smoke={"mc": {"m0": 20_000}},
        workers=1,
        tol={"rel_err_v0": 0.01},
        smoke_tol={"rel_err_v0": 0.05},
        spans=("sampling.draw_samples", "sampling.ensure_mixed", "engine.v0_mc"),
        counts=("model.value_evals",),
    ),
    Workload(
        name="eps-sweep-fd",
        command="eps-sweep",
        config={"model": QUARTIC_MODEL, "boundary": "quartic",
                "uncertainty": {"gamma": 1.0, "eta": 1.0, "epsilon": 0.05},
                "fd": {"nx": 2001},
                "sweep": {"epsilons": [0.01, 0.02, 0.05, 0.1],
                          "approx_source": "analytic"}},
        smoke={"fd": {"nx": 401}},
        workers=1,
        tol={"rel_err_v0": 1e-3, "slope_err": 0.1},
        smoke_tol={"rel_err_v0": 1e-2, "slope_err": 0.3},
        spans=("fd1d.epsilon_sweep", "fd1d.solve", "analytic.quartic_v0",
               "analytic.quartic_sensitivity_quadrature"),
        counts=("model.value_evals",),
    ),
)}


def references(wl: Workload) -> dict:
    """Closed-form and quadrature references, computed once outside timing."""
    from kolsens.analytic import (quartic_sensitivity_quadrature, quartic_v0,
                                  sine_sensitivity_quadrature, sine_v0)
    if wl.config["boundary"] == "quartic":
        return {"v0": quartic_v0(0.0, 0.0, 1.0, 1.0, 1.0),
                "sens_drift": quartic_sensitivity_quadrature("drift"),
                "sens_vol": quartic_sensitivity_quadrature("vol")}
    dim = wl.config["model"]["dim"]
    return {"v0": sine_v0(1.0),
            "sens_drift": sine_sensitivity_quadrature(1.0, dim, "drift"),
            "sens_vol": sine_sensitivity_quadrature(1.0, dim, "vol")}


def outputs(command: str, doc: dict) -> dict:
    """The numeric results of one CLI document, in a fixed order.

    Only result fields enter, never timings or diagnostics, so the digest of
    these values pins the numbers bit for bit across runs and commits.
    """
    if command == "sensitivity":
        rep = doc["report"]
        return {k: rep[k] for k in ("v0", "sens_drift", "sens_vol", "approx")}
    if command == "value":
        return {"v0": doc["stats"]["mean"]}
    out = {"anchor_value": doc["anchor_value"], "slope": doc["slope"]}
    for k, row in enumerate(doc["table"]):
        for key in ("epsilon", "v_fd", "approx", "abs_error"):
            out[f"table.{k}.{key}"] = row[key]
    return out


def accuracy(command: str, out: dict, ref: dict) -> dict:
    """Relative errors against the references (only those the command has)."""
    if command == "eps-sweep":
        return {"rel_err_v0": abs(out["anchor_value"] / ref["v0"] - 1.0),
                "slope_err": abs(out["slope"] - 2.0)}
    acc = {"rel_err_v0": abs(out["v0"] / ref["v0"] - 1.0)}
    if command == "sensitivity":
        acc["rel_err_sens"] = max(abs(out["sens_drift"] / ref["sens_drift"] - 1.0),
                                  abs(out["sens_vol"] / ref["sens_vol"] - 1.0))
    return acc


def within(acc: dict, tol: dict) -> bool:
    return all(math.isfinite(acc[k]) and acc[k] <= tol[k] for k in tol)
