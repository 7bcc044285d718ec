"""Every CLI document is pinned byte for byte against recorded golden files.

Tiny configs run every command: a 1-D quartic, a 1-D normalized sine for
`eps-sweep` (a non-convex boundary on the FD reference) and a normalized sine
for `dim-sweep`. A JSON document is compared as written, with only the value
of each wall-clock field (`runtime_seconds`, `runtime_mean_seconds`) masked;
a CSV is compared with its wall-clock column dropped. `config_hash` is part
of each JSON document, so every hash is pinned too.

The files under `tests/golden/` were recorded before the CLI was
restructured into one command table; re-record them only for a change that
alters the documents on purpose:

    PYTHONPATH=src python3 tests/test_cli_golden.py

which prints, per file, `rewrote` or `unchanged`, so a re-recording shows
which documents moved.
"""

import json
import re
from pathlib import Path

import pytest

from kolsens.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
_SWEEP = {"epsilons": [0.02, 0.04, 0.06]}
QUARTIC = {"model": {"drift": [1.0], "vol": [[1.0]]},
           "boundary": "quartic",
           "uncertainty": {"gamma": 1.0, "eta": 1.0, "epsilon": 0.05},
           "mc": {"n_steps": 3, "m0": 400, "m1": 100},
           "fd": {"nx": 201},
           "sweep": _SWEEP,
           "seed": 0, "runs": 2}
SINE = {"model": {"kind": "normalized", "seed": 100},
        "boundary": "sine",
        "uncertainty": {"gamma": 1.0, "eta": 0.5, "epsilon": 0.05},
        "mc": {"n_steps": 4, "m0": 400, "m1": 100},
        "dims": [1, 2], "seed": 3, "runs": 2}
SINE_1D = {"model": {"kind": "normalized", "dim": 1, "seed": 100},
           "boundary": "sine",
           "uncertainty": {"gamma": 1.0, "eta": 0.5, "epsilon": 0.05},
           "fd": {"nx": 201},
           "sweep": _SWEEP}
# (golden stem, config, command, format)
CASES = [(f"quartic_{c}", QUARTIC, c, "json")
         for c in ("value", "sensitivity", "approx", "eps-sweep", "fd-solve", "complexity")]
CASES += [("quartic_eps-sweep-engine",
           {**QUARTIC, "sweep": {**_SWEEP, "approx_source": "engine", "anchor": "value"}},
           "eps-sweep", "json"),
          ("quartic_eps-sweep", QUARTIC, "eps-sweep", "csv"),
          ("sine_eps-sweep", SINE_1D, "eps-sweep", "json"),
          ("sine_dim-sweep", SINE, "dim-sweep", "json"),
          ("sine_dim-sweep", SINE, "dim-sweep", "csv")]
_RUNTIME = re.compile(r'("runtime(?:_mean)?_seconds": )[^,\n]+')


def _mask(json_text: str) -> str:
    return _RUNTIME.sub(r"\g<1>0", json_text)


def _documents(tmp: Path, stem: str, config: dict, command: str, fmt: str) -> dict:
    """{golden file name: text} of one run, wall-clock values masked."""
    cfg = tmp / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp / f"{stem}.{fmt}"
    code = main(["--config", str(cfg), "--command", command, "--format", fmt,
                 "--out", str(out)])
    assert code == 0, (stem, fmt)
    if fmt == "json":
        return {f"{stem}.json": _mask(out.read_text(encoding="utf-8"))}
    lines = out.read_text(encoding="utf-8").splitlines()
    if command == "dim-sweep":    # its last column is wall-clock time
        lines = [line.rsplit(",", 1)[0] for line in lines]
    summary = _mask(out.with_suffix(".json").read_text(encoding="utf-8"))
    return {f"{stem}.csv": "\n".join(lines) + "\n", f"{stem}.summary.json": summary}


@pytest.mark.parametrize("stem, config, command, fmt", CASES,
                         ids=[f"{c[0]}.{c[3]}" for c in CASES])
def test_cli_documents_match_the_golden_files(tmp_path, stem, config, command, fmt):
    for name, text in _documents(tmp_path, stem, config, command, fmt).items():
        assert text.encode("utf-8") == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            for name, text in _documents(Path(tmp), *case).items():
                path, data = GOLDEN / name, text.encode("utf-8")
                same = path.is_file() and path.read_bytes() == data
                if not same:
                    path.write_bytes(data)
                print(f"{'unchanged' if same else 'rewrote'} {path.relative_to(GOLDEN.parent)}")
