#!/usr/bin/env python3
"""Benchmark of the kolsens command line, one workload per process.

    python3 bench/run.py --workload quartic-ridge --seed 0 --seconds 28 --trace 0
    python3 bench/run.py --workload all --seed 0                  # all four, in turn
    python3 bench/run.py --workload all --smoke --seconds 1       # tiny sizes, seconds

Each job is one in-process `kolsens.cli.main([...])` call on the workload's
fixed config with `--runs 1` and a job seed derived from `--seed`; jobs run
back to back until `--seconds` have passed. Every job's numbers are checked
against closed-form/quadrature references (computed outside the timed
region) and digested bit for bit. `--trace 0` reports the end-to-end
metrics; `--trace 1` runs each job seed twice, traced and untraced, checks
that both give the same digest, and reports per-layer numbers from the
traced half (see tracing.py). Human-readable lines go first; the last line of
standard output is one JSON object. A result file with every job and the
machine it ran on is written under `--results`.

The package is imported from `src/` next to this directory, never from an
installed copy; without it the benchmark exits with an error.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_TRIALS = 5
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
UNITS.update(failed_frac="frac", rel_err_v0="frac", rel_err_sens="frac", slope_err="1",
             job_raw_s="s", cpu_raw_s="s", setup_raw_s="s", cal_s="s",
             setup_cal_s="s")
# Timed end-to-end metrics are reported in calibrated seconds: measured
# seconds * CAL_REF_S / (median seconds of `calibrate` in the same run).
# CAL_REF_S is about the kernel's median on the 2-core Xeon host the bounds
# were set on, so calibrated and measured seconds are close there.
CAL_REF_S = 0.035
CAL_CALLS = 3

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS, accuracy, outputs, references, within  # noqa: E402


def import_kolsens():
    """Import the package from this checkout's src/, or exit with an error."""
    if not (SRC / "kolsens" / "__init__.py").is_file():
        sys.exit(f"error: no kolsens sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import kolsens.cli
    if SRC.resolve() not in Path(kolsens.__file__).resolve().parents:
        sys.exit(f"error: kolsens imported from {kolsens.__file__}, not {SRC}")
    return kolsens.cli


def environment(workers: int) -> dict:
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "numpy": np.__version__, "python": platform.python_version(),
           "platform": platform.platform(), "KOLSENS_WORKERS": workers,
           "cpu_model": "unknown", "caches": []}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError):
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            env["caches"].append("L{} {} {}".format(
                *((idx / f).read_text().strip() for f in ("level", "type", "size"))))
    return env


def digest(out: dict) -> str:
    text = "\n".join(f"{k}={float(v).hex()}" for k, v in out.items())
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """Highest percentile with at least ten samples beyond it (None below 20)."""
    n = len(values)
    if n < 20:
        return None
    p = math.floor(100.0 * (1.0 - 10.0 / n))
    return {"p": p, "value": sorted(values)[math.ceil(p / 100.0 * n) - 1]}


def setup_trials(wl_name: str, smoke: bool, work: Path, calibrator) -> tuple:
    """Wall seconds of fresh interpreters that import kolsens and write the config.

    Returns (trial seconds, calibration seconds taken between the trials).
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl_name,
           "--setup-probe", str(work / "probe.json")] + (["--smoke"] if smoke else [])
    times, cal = [], [calibrator()]
    for _ in range(SETUP_TRIALS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"error: setup probe failed:\n{proc.stderr}")
        cal.append(calibrator())
    return times, cal


def run_job(cli, wl, cfg_path: str, seed: int, ref: dict, tol: dict, tracer=None) -> dict:
    argv = ["--config", cfg_path, "--command", wl.command, "--seed", str(seed),
            "--runs", "1"]
    buf = io.StringIO()
    err, rc = None, None
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = tracer.call("cli.main", cli.main, argv) if tracer else cli.main(argv)
    except Exception:
        err = traceback.format_exc(limit=4)
    t1 = time.perf_counter()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    job = {"seed": seed, "traced": tracer is not None, "wall_s": t1 - t0,
           "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
           "ok": False}
    if err is None and rc != 0:
        err = f"exit code {rc}"
    if err is None:
        try:
            out = outputs(wl.command, json.loads(buf.getvalue()))
            job["digest"] = digest(out)
            job["accuracy"] = accuracy(wl.command, out, ref)
            job["ok"] = within(job["accuracy"], tol)
            if not job["ok"]:
                err = f"outside tolerance {tol}: {job['accuracy']}"
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            err = f"unreadable output: {exc!r}"
    if err is not None:
        job["error"] = err
        print(f"job seed {seed} failed: {err}", file=sys.stderr)
    return job


def traced_job(cli, wl, cfg_path, seed, ref, tol, tracer):
    from tracing import layer_metrics, missing
    tracer.reset()
    tracer.install()
    try:
        job = run_job(cli, wl, cfg_path, seed, ref, tol, tracer)
    finally:
        tracer.uninstall()
    if job["ok"]:
        root = next(sp for sp in reversed(tracer.spans) if sp.name == "cli.main")
        lost = missing(tracer, root, wl.spans, wl.counts)
        if lost:
            sys.exit(f"error: traced run of {wl.name}: expected span(s)/counter(s) "
                     f"never fired: {lost}. A call was re-routed; update bench/tracing.py.")
        job["layers"] = layer_metrics(tracer, root, wl.workers)
    return job


def calibrate(x) -> float:
    """Seconds of a fixed kernel that mixes what the workloads spend time on.

    Fresh 32 MB pages, elementwise numpy over an 8 MB array and a pure
    interpreter loop. The 2-core host the bounds were set on drifts in speed
    by 30-40% over minutes, in every workload alike. Over ten 28-second
    runs of quartic-ridge spread across 20 minutes there, the median job
    time had an interquartile spread of 39% of its median; divided by this
    kernel's median time in the same run, 14%.
    """
    t0 = time.perf_counter()
    for _ in range(4):
        np.empty(4_000_000).fill(1.0)
        y = x * x
        y *= x
        float(y.sum())
        acc = 0
        for i in range(40_000):
            acc += i * i
    return time.perf_counter() - t0


class Calibrator:
    """Runs `calibrate` in a helper process on request.

    The kernel's arrays then stay out of this process's peak RSS; the helper
    waits on a pipe while jobs run, so it takes no time from them.
    """

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", "all",
             "--calibrate"], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def measure(cli, wl, cfg_path, args, ref, tol, calibrator) -> tuple:
    """Run jobs while the next one is expected to end in time.

    Returns (jobs, per-layer metrics or None, calibration seconds). At least
    one job (one pair when tracing) runs; the run overshoots its time by
    less than the spread of its own job times. The calibration kernel runs
    three times before every job and after the last.
    """
    jobs, layers, steps, cal = [], None, [], []
    deadline = time.perf_counter() + args.seconds
    k = 0
    if args.trace:
        from tracing import EXACT, HWM, Tracer
        tracer, overhead = Tracer(), []
    while not steps or time.perf_counter() + median(steps) < deadline:
        t0 = time.perf_counter()
        cal += [calibrator() for _ in range(CAL_CALLS)]
        seed = args.seed * 1000 + k
        if not args.trace:
            jobs.append(run_job(cli, wl, cfg_path, seed, ref, tol))
        else:
            pair = [lambda: traced_job(cli, wl, cfg_path, seed, ref, tol, tracer),
                    lambda: run_job(cli, wl, cfg_path, seed, ref, tol)]
            if k % 2:
                pair.reverse()
            done = [f() for f in pair]
            traced, plain = done if k % 2 == 0 else done[::-1]
            if traced["ok"] and plain["ok"] and traced["digest"] != plain["digest"]:
                traced["ok"] = False
                traced["error"] = (f"traced digest {traced['digest']} != untraced "
                                   f"{plain['digest']}: tracing changed the numbers")
                print(f"job seed {seed} failed: {traced['error']}", file=sys.stderr)
            jobs += [traced, plain]
            overhead.append(traced["wall_s"] - plain["wall_s"])
        steps.append(time.perf_counter() - t0)
        k += 1
    if args.trace:
        per_job = [j["layers"] for j in jobs if "layers" in j]
        if not per_job:
            sys.exit(f"error: traced run of {wl.name}: no traced job succeeded")
        for key in EXACT:
            if len({m[key] for m in per_job}) != 1:
                sys.exit(f"error: {key} differs between traced jobs of {wl.name}: "
                         f"{[m[key] for m in per_job]}")
        layers = {key: (max if key in HWM else median)([m[key] for m in per_job])
                  for key in per_job[0]}
        layers["trace.overhead_s"] = median(overhead)
    cal += [calibrator() for _ in range(CAL_CALLS)]
    return jobs, layers, cal


def run_workload(args) -> int:
    cli = import_kolsens()
    wl = WORKLOADS[args.workload]
    os.environ["KOLSENS_WORKERS"] = str(wl.workers)
    tol = wl.tolerance(args.smoke)
    results = Path(args.results)
    results.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".work-", dir=results) as work, \
            Calibrator() as calibrator:
        work = Path(work)
        setup, setup_cal = setup_trials(wl.name, args.smoke, work, calibrator)
        ref = references(wl)
        cfg_path = work / f"{wl.name}.json"
        cfg_path.write_text(json.dumps(wl.make_config(args.smoke)), encoding="utf-8")
        jobs, layers, cal = measure(cli, wl, str(cfg_path), args, ref, tol, calibrator)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ok = [j for j in jobs if j["ok"]]
    plain = [j for j in jobs if not j["traced"]]
    timed = [j for j in plain if j["ok"]] or plain
    failed = len(jobs) - len(ok)
    walls = [j["wall_s"] for j in timed]
    raw = {"job_raw_s": median(walls), "cpu_raw_s": median([j["cpu_s"] for j in timed]),
           "setup_raw_s": median(setup), "cal_s": median(cal),
           "setup_cal_s": median(setup_cal)}
    scale = CAL_REF_S / raw["cal_s"]
    end_to_end = {"job_s": raw["job_raw_s"] * scale, "cpu_s": raw["cpu_raw_s"] * scale,
                  "setup_s": raw["setup_raw_s"] * CAL_REF_S / raw["setup_cal_s"],
                  "peak_rss_mb": peak_mb}
    extra = {"jobs": len(timed), "job_raw_s_tail": tail(walls),
             "failed_frac": failed / len(jobs), **raw}
    for key in ("rel_err_v0", "rel_err_sens", "slope_err"):
        vals = [j["accuracy"][key] for j in ok if key in j["accuracy"]]
        extra[key] = median(vals) if vals else None
    metrics = layers if args.trace else end_to_end
    listed = {m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != listed:
        sys.exit(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(listed)}")

    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke,
              "environment": environment(wl.workers), "references": ref,
              "tolerance": tol, "setup_trials_s": setup,
              "setup_calibration_s": setup_cal, "calibration_s": cal, "jobs": jobs,
              "end_to_end": end_to_end, "per_layer": layers, "extra": extra,
              "attempted": len(jobs), "failed": failed}
    name = f"{wl.name}_s{args.seed}_t{args.trace}{'_smoke' if args.smoke else ''}.json"
    (results / name).write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"# {wl.name}: {len(jobs)} jobs, {failed} failed, workers={wl.workers}, "
          f"trace={args.trace}{', smoke sizes' if args.smoke else ''}")
    for key, val in {**end_to_end, **raw, **(layers or {})}.items():
        print(f"{wl.name}  {key:28s} {val:.6g} {UNITS[key]}")
    print(f"{wl.name}  {'failed_frac':28s} {extra['failed_frac']:.6g} frac")
    for key in ("rel_err_v0", "rel_err_sens", "slope_err"):
        shown = "n/a" if extra[key] is None else f"{extra[key]:.6g} {UNITS[key]}"
        print(f"{wl.name}  {key:28s} {shown}")
    if extra["job_raw_s_tail"]:
        print(f"{wl.name}  job_raw_s_p{extra['job_raw_s_tail']['p']:<18d} "
              f"{extra['job_raw_s_tail']['value']:.6g} s")
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed,
                      "metrics": {k: {"value": v, "unit": UNITS[k]}
                                  for k, v in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--results", args.results]
        proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []),
                              capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0:
            print("\n".join(lines + [f"# {name}: exited with code {proc.returncode}"]))
            combined["correct"], status = False, 1
            continue
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: every workload and the trace in seconds")
    parser.add_argument("--results", default=str(BENCH / "results"),
                        help="directory for the per-run result files")
    parser.add_argument("--setup-probe", metavar="PATH", help=argparse.SUPPRESS)
    parser.add_argument("--calibrate", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.calibrate:
        x = np.random.default_rng(0).standard_normal(1 << 20)
        for _ in sys.stdin:
            print(calibrate(x), flush=True)
        return 0
    if args.setup_probe:
        import_kolsens()
        cfg = WORKLOADS[args.workload].make_config(args.smoke)
        Path(args.setup_probe).write_text(json.dumps(cfg), encoding="utf-8")
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
