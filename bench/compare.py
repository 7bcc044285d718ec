#!/usr/bin/env python3
"""Check the steadiness of one set of benchmark runs, or compare two sets.

    python3 bench/compare.py RESULTS_A [RESULTS_B]

Each directory holds result files written by run.py. For every workload
and every end-to-end metric of BENCHMARK.json this prints the median over
runs and the spread (distance between the first and third quartile as a
share of the median). A spread above the metric's bound fails, except for
`setup_s`; one above a third of it is flagged. With two directories it also
checks that the second median is not worse than the first by more than the
bound. In every case it checks that

* every job with the same seed produced the same output digest, traced or
  not, in either directory (the numbers repeat bit for bit);
* the count metrics of the traced runs are identical across runs;
* no job failed.

Exits 1 when a check fails.
"""

import json
import statistics
import sys
from pathlib import Path

from tracing import EXACT

BENCH = Path(__file__).resolve().parent


def load(directory: str) -> list:
    runs = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]
    if not runs:
        sys.exit(f"error: no result files in {directory}")
    return runs


def spread(values: list) -> tuple:
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main(argv) -> int:
    if len(argv) not in (1, 2):
        sys.exit(__doc__)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    sets = [load(d) for d in argv]
    problems = []

    digests = {}
    for runs in sets:
        for run in runs:
            problems += [f"{run['workload']} seed {j['seed']}: {j.get('error')}"
                         for j in run["jobs"] if not j["ok"]]
            for job in run["jobs"]:
                if "digest" in job:
                    digests.setdefault((run["workload"], job["seed"], run["smoke"]),
                                       set()).add(job["digest"])
    shared = [k for k, v in digests.items() if len(v) > 1]
    problems += [f"{w} seed {s}: digests differ {sorted(digests[(w, s, m)])}"
                 for w, s, m in shared]

    counts = {}
    for runs in sets:
        for run in runs:
            for key in EXACT:
                if run["trace"] and key in run["per_layer"]:
                    counts.setdefault((run["workload"], key), set()).add(
                        run["per_layer"][key])
    problems += [f"{w} {k}: differs between traced runs {sorted(v)}"
                 for (w, k), v in counts.items() if len(v) > 1]

    workloads = [w["name"] for w in spec["workloads"]]
    header = f"{'workload':16s} {'metric':12s} {'bound':>6s}"
    header += "".join(f" {'median':>11s} {'spread':>7s} {'n':>3s}" for _ in sets)
    print(header + ("  worse-by" if len(sets) == 2 else ""))
    for wl in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            line = f"{wl:16s} {name:12s} {bound:6.3f}"
            meds = []
            for runs in sets:
                vals = [r["end_to_end"][name] for r in runs
                        if r["workload"] == wl and not r["trace"]]
                if not vals:
                    line += f" {'-':>11s} {'-':>7s} {0:3d}"
                    continue
                med, spr = spread(vals)
                meds.append(med)
                flag = " " if spr <= bound / 3 else ("~" if spr <= bound else "!")
                line += f" {med:11.5g} {spr:6.3f}{flag} {len(vals):3d}"
                if spr > bound and name != "setup_s":
                    problems.append(f"{wl} {name}: spread {spr:.3f} > bound {bound}")
            if len(meds) == 2:
                sign = 1.0 if metric["better"] == "lower" else -1.0
                worse = sign * (meds[1] - meds[0]) / meds[0]
                line += f"  {worse:+.3f}"
                if worse > bound:
                    problems.append(f"{wl} {name}: second median worse by {worse:.3f}")
            print(line)
    print(f"digests: {len(digests)} job seeds, {sum(len(v) == 1 for v in digests.values())}"
          f" consistent; count metrics: {len(counts)} checked")
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
