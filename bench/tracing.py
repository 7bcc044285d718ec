"""Spans and element counters for the traced run, installed from outside.

Nothing in the package is edited. `Tracer.install` replaces public
functions at the name the *calling* module binds them under (for example
`kolsens.engine.draw_samples`, which is what `compute_report` calls), so a
span fires exactly when the program takes that call. It also replaces the
boundary factories bound in `kolsens.cli` with ones that build the same
boundary through the public `ridge_boundary`, from the same direction and
the same profile callables, each wrapped by an element counter.

A binding that no longer exists is skipped; the benchmark then fails the
traced run because an expected span or counter never fired, which is how a
later change that re-routes a call shows up instead of silently dropping a
layer from the trace.
"""

import resource
import threading
import time

import numpy as np

# (module, attribute, span name); module "sampling.SampleGrid" is the class
TARGETS = (
    ("cli", "compute_report", "engine.compute_report"),
    ("cli", "draw_samples", "sampling.draw_samples"),
    ("cli", "v0_mc", "engine.v0_mc"),
    ("cli", "epsilon_sweep", "fd1d.epsilon_sweep"),
    ("cli", "solve", "fd1d.solve"),
    ("cli", "quartic_v0", "analytic.quartic_v0"),
    ("cli", "quartic_sensitivity_quadrature", "analytic.quartic_sensitivity_quadrature"),
    ("cli", "sine_v0", "analytic.sine_v0"),
    ("cli", "sine_sensitivity_quadrature", "analytic.sine_sensitivity_quadrature"),
    ("engine", "draw_samples", "sampling.draw_samples"),
    ("engine", "v0_mc", "engine.v0_mc"),
    ("engine", "sensitivity_mc", "engine.sensitivity_mc"),
    ("fd1d", "solve", "fd1d.solve"),
    ("sampling.SampleGrid", "ensure_mixed", "sampling.ensure_mixed"),
)
BOUNDARY_FACTORIES = ("quartic_boundary", "sine_boundary")
COUNTERS = ("model.value_evals", "model.d1_evals", "model.d2_evals")
# layer metrics that are exact: identical for every traced job and run
EXACT = COUNTERS + ("fd1d.steps", "sampling.bytes")
# high-water-mark growth shows only in the first job of a process
HWM = ("sampling.rss_hwm_mb", "engine.sens_rss_hwm_mb")


def grid_bytes(grid) -> int:
    """Bytes of the arrays a SampleGrid holds, computed from their shapes."""
    return sum(v.nbytes for v in vars(grid).values() if isinstance(v, np.ndarray))


def _probe(name, args, result) -> dict:
    if name == "sampling.draw_samples":
        return {"bytes": grid_bytes(result)}
    if name == "sampling.ensure_mixed":
        return {"bytes": grid_bytes(args[0])}
    if name == "fd1d.solve":
        return {"steps": int(result.nt), "cells": int(result.nt) * len(result.grid_x)}
    return {}


class Span:
    __slots__ = ("name", "parent", "thread", "t0", "t1", "ru0", "ru1", "extra")


class Tracer:
    """Records spans and counts for one job at a time; `reset` between jobs."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved = []
        self.reset()

    def reset(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.eval_s = 0.0

    # -- spans -------------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        stack = self._stack()
        sp = Span()
        sp.name, sp.thread, sp.extra = name, threading.get_ident(), {}
        sp.parent = stack[-1] if stack else None
        stack.append(sp)
        sp.ru0 = resource.getrusage(resource.RUSAGE_SELF)
        sp.t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            sp.t1 = time.perf_counter()
            sp.ru1 = resource.getrusage(resource.RUSAGE_SELF)
            stack.pop()
            self.spans.append(sp)
        sp.extra = _probe(name, args, result)
        return result

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    # -- counters ----------------------------------------------------------
    def _counted(self, key, fn):
        if fn is None:
            return None

        def counted(s):
            t0 = time.perf_counter()
            out = fn(s)
            dt = time.perf_counter() - t0
            with self._lock:
                self.counts[key] += int(np.size(s))
                self.eval_s += dt
            return out
        return counted

    def _counting_factory(self, factory):
        from kolsens.model import ridge_boundary

        def make(*args, **kwargs):
            orig = factory(*args, **kwargs)
            r = orig.ridge
            return ridge_boundary(r.direction,
                                  self._counted("model.value_evals", r.profile),
                                  self._counted("model.d1_evals", r.d1),
                                  self._counted("model.d2_evals", r.d2),
                                  growth_alpha=orig.growth_alpha,
                                  growth_const=orig.growth_const, name=orig.name)
        return make

    # -- installation ------------------------------------------------------
    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        import kolsens.cli
        import kolsens.engine
        import kolsens.fd1d
        import kolsens.sampling
        owners = {"cli": kolsens.cli, "engine": kolsens.engine, "fd1d": kolsens.fd1d,
                  "sampling.SampleGrid": kolsens.sampling.SampleGrid}
        for mod, attr, name in TARGETS:
            owner = owners[mod]
            if attr in vars(owner):
                self._patch(owner, attr, self._wrap(name, vars(owner)[attr]))
        for attr in BOUNDARY_FACTORIES:
            if attr in vars(kolsens.cli):
                self._patch(kolsens.cli, attr,
                            self._counting_factory(vars(kolsens.cli)[attr]))

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _cpu(a, b) -> float:
    return (b.ru_utime - a.ru_utime) + (b.ru_stime - a.ru_stime)


def layer_metrics(tracer: Tracer, root: Span, workers: int) -> dict:
    """Per-layer numbers of one traced job whose outermost span is `root`.

    Only spans on the job's own thread count: calls the engine's worker
    threads make (the idempotent `ensure_mixed` per node) lie inside the
    `sensitivity_mc` span, whose resource deltas already cover them.
    """
    spans = [sp for sp in tracer.spans if sp.thread == root.thread]
    children = {}
    for sp in spans:
        children.setdefault(id(sp.parent), []).append(sp)

    def dur(sp):
        return sp.t1 - sp.t0

    def self_s(sp):
        return dur(sp) - sum(dur(c) for c in children.get(id(sp), ()))

    def named(name):
        return [sp for sp in spans if sp.name == name]

    def hwm_mb(group):
        return sum(max(0, sp.ru1.ru_maxrss - sp.ru0.ru_maxrss) for sp in group) / 1024.0

    sampling = named("sampling.draw_samples") + named("sampling.ensure_mixed")
    sens = named("engine.sensitivity_mc")
    solves = named("fd1d.solve")
    sens_s = sum(dur(sp) for sp in sens)
    sens_cpu = sum(_cpu(sp.ru0, sp.ru1) for sp in sens)
    solve_s = sum(dur(sp) for sp in solves)
    evals = sum(tracer.counts.values())
    return {
        "cli.self_s": self_s(root),
        "engine.report_self_s": sum(self_s(sp) for sp in named("engine.compute_report")),
        "sampling.draw_s": sum(dur(sp) for sp in named("sampling.draw_samples")),
        "sampling.mix_s": sum(dur(sp) for sp in named("sampling.ensure_mixed")),
        "sampling.bytes": max([sp.extra["bytes"] for sp in sampling] or [0]),
        "sampling.rss_hwm_mb": hwm_mb(sampling),
        "engine.v0_s": sum(self_s(sp) for sp in named("engine.v0_mc")),
        "engine.sens_s": sens_s,
        "engine.sens_cpu_s": sens_cpu,
        "engine.sens_busy_frac": sens_cpu / (sens_s * workers) if sens_s > 0 else 0.0,
        "engine.sens_sys_s": sum(sp.ru1.ru_stime - sp.ru0.ru_stime for sp in sens),
        "engine.sens_minflt": sum(sp.ru1.ru_minflt - sp.ru0.ru_minflt for sp in sens),
        "engine.sens_rss_hwm_mb": hwm_mb(sens),
        "model.value_evals": tracer.counts["model.value_evals"],
        "model.d1_evals": tracer.counts["model.d1_evals"],
        "model.d2_evals": tracer.counts["model.d2_evals"],
        "model.eval_s": tracer.eval_s,
        "model.evals_per_s": evals / tracer.eval_s if tracer.eval_s > 0 else 0.0,
        "fd1d.solve_s": solve_s,
        "fd1d.steps": sum(sp.extra["steps"] for sp in solves),
        "fd1d.cell_updates_per_s": (sum(sp.extra["cells"] for sp in solves) / solve_s
                                    if solve_s > 0 else 0.0),
        "analytic.quad_s": sum(dur(sp) for sp in spans if sp.name.startswith("analytic.")),
    }


def missing(tracer: Tracer, root: Span, spans: tuple, counts: tuple) -> list:
    """Expected spans and counters that did not fire in the last job."""
    seen = {sp.name for sp in tracer.spans if sp.thread == root.thread}
    return ([s for s in spans if s not in seen]
            + [c for c in counts if tracer.counts[c] == 0])
