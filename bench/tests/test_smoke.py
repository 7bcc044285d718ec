"""Smoke tests of the benchmark itself, at tiny sizes (about half a minute).

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _run(*args, cwd=None):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=600, cwd=cwd)


def _smoke(results: Path, trace: int) -> dict:
    proc = _run(str(BENCH / "run.py"), "--workload", "all", "--smoke", "--seconds", "0.5",
                "--trace", str(trace), "--results", str(results))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_smoke_all_workloads_untraced_and_traced(tmp_path):
    plain = _smoke(tmp_path, 0)
    traced = _smoke(tmp_path, 1)
    for res, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert res["correct"] and res["failed"] == 0
        assert res["attempted"] >= len(SPEC["workloads"])
        want = {f"{w['name']}.{m['name']}" for w in SPEC["workloads"] for m in SPEC[kind]}
        assert set(res["metrics"]) == want
    assert traced["metrics"]["quartic-ridge.model.d1_evals"]["value"] > 0
    assert traced["metrics"]["eps-sweep-fd.fd1d.steps"]["value"] > 0
    # same job seeds traced and untraced: digests must agree, counts repeat
    proc = _run(str(BENCH / "compare.py"), str(tmp_path))
    assert proc.returncode == 0, proc.stdout


def test_fails_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("bench/run.py", "--workload", "value-d50", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
