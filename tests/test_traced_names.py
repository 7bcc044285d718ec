"""Every name that the benchmark's tracer patches still exists where it looks.

`bench/tracing.py` wraps package functions at the names the calling modules
bind (`TARGETS`) and rebuilds the boundary factories the CLI binds
(`BOUNDARY_FACTORIES`); it skips a binding that is gone, and the traced run
then fails on a span that never fired. These checks read those tables, so a
refactor that drops a traced name fails here, in the package's own tests.
"""

import importlib.util
from pathlib import Path

import kolsens.cli
import kolsens.engine
import kolsens.fd1d
import kolsens.sampling

BENCH = Path(__file__).resolve().parents[1] / "bench"
OWNERS = {"cli": kolsens.cli, "engine": kolsens.engine, "fd1d": kolsens.fd1d,
          "sampling.SampleGrid": kolsens.sampling.SampleGrid}
# `value` runs through compute_report, so the CLI binds neither name: the
# engine's bindings of the same spans fire instead
UNBOUND = {("cli", "v0_mc"), ("cli", "draw_samples")}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_on_its_owner():
    tracing = _load("tracing")
    gone = {(mod, attr) for mod, attr, _ in tracing.TARGETS if attr not in vars(OWNERS[mod])}
    assert gone <= UNBOUND, f"traced names no longer bound: {sorted(gone - UNBOUND)}"
    live = {span for mod, attr, span in tracing.TARGETS if (mod, attr) not in gone}
    assert live == {span for _, _, span in tracing.TARGETS}
    for name in tracing.BOUNDARY_FACTORIES:
        assert callable(vars(kolsens.cli).get(name)), name
    # every span a workload's traced run expects has a live binding
    for wl in _load("workloads").WORKLOADS.values():
        assert set(wl.spans) <= live, wl.name
