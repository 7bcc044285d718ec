import json
import re
import textwrap
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import kolsens
import kolsens.cli as cli
import kolsens.engine as engine
from kolsens import (BaselineModel, EstimatorStats, EvalPoint, FdProblem1d, McConfig,
                     UncertaintySpec, build_time_grid, compute_report, draw_samples,
                     generate_normalized_model, plan_epsilon_sweep, predicted_complexity,
                     quartic_boundary, sine_boundary, v0_mc)
from kolsens.cli import DIM_SWEEP_HEADER, EPS_SWEEP_HEADER, main

REPORT_KEYS = {"v0", "sens_drift", "sens_vol", "gamma", "eta", "epsilon", "approx",
               "used_hessian_path", "runtime_seconds", "predicted_ops", "seed",
               "d", "N", "M0", "M1", "h"}


def _write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _quartic_config(**extra):
    doc = {"model": {"drift": [1.0], "vol": [[1.0]]},
           "boundary": "quartic",
           "uncertainty": {"gamma": 1.0, "eta": 1.0, "epsilon": 0.05},
           "mc": {"n_steps": 3, "m0": 400, "m1": 100},
           "seed": 0, "runs": 2}
    doc.update(extra)
    return doc


def _run_json(tmp_path, config, command, *flags, name="out.json"):
    out = tmp_path / name
    code = main(["--config", config, "--command", command, "--out", str(out),
                 *flags])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


# --------------------------------------------------------------------------
# happy paths
# --------------------------------------------------------------------------

def test_value_command(tmp_path):
    cfg = _write_config(tmp_path, _quartic_config())
    code, doc = _run_json(tmp_path, cfg, "value")
    assert code == 0
    assert doc["version"] == kolsens.__version__
    assert doc["command"] == "value"
    assert len(doc["config_hash"]) == 64
    assert doc["stats"]["runs"] == 2
    assert np.isfinite(doc["stats"]["mean"])
    assert doc["d"] == 1 and doc["M0"] == 400


def test_value_follows_the_kernel_setting(tmp_path):
    # "generic" drops the ridge for the whole run, the value stage included:
    # v0 then reads the mixed displacements, not the ridge's projections,
    # and the two round differently at d = 7
    values = {}
    for kernel in ("auto", "generic"):
        cfg = _write_config(tmp_path, {"model": {"kind": "normalized", "dim": 7, "seed": 3},
                                       "boundary": "sine", "runs": 1,
                                       "mc": {"m0": 20_000, "kernel": kernel}})
        code, doc = _run_json(tmp_path, cfg, "value", "--seed", "4")
        assert code == 0
        values[kernel] = doc["stats"]["mean"]
    model, bnd = generate_normalized_model(7, 3), sine_boundary(7)
    samples = draw_samples(model, build_time_grid(0.0, 1.0, 100), 20_000, 1, 4)
    pt = EvalPoint(t=0.0, x=np.zeros(7))
    assert values["auto"] == v0_mc(bnd, pt, samples)
    assert values["generic"] == v0_mc(replace(bnd, ridge=None), pt, samples)
    assert values["auto"] != values["generic"]


def test_sensitivity_report_shape(tmp_path):
    cfg = _write_config(tmp_path, _quartic_config())
    code, doc = _run_json(tmp_path, cfg, "sensitivity")
    assert code == 0
    assert set(doc["report"]) == REPORT_KEYS
    assert doc["report"]["used_hessian_path"] is True
    assert doc["report"]["h"] is None
    assert set(doc["stats"]) == {"v0", "sens_drift", "sens_vol", "approx"}
    for block in doc["stats"].values():
        assert set(block) == {"runs", "mean", "std_dev"}
        assert block["runs"] == 2


def test_approx_reports_regime(tmp_path, capsys):
    cfg = _write_config(tmp_path, _quartic_config())
    code, doc = _run_json(tmp_path, cfg, "approx")
    assert code == 0
    assert doc["regime"] == {"ok": True, "epsilon": 0.05, "bound": 1.0}

    shaky = _quartic_config(model={"drift": [1.0], "vol": [[0.2]]},
                            uncertainty={"gamma": 1.0, "eta": 1.0, "epsilon": 0.5})
    cfg2 = _write_config(tmp_path, shaky, name="shaky.json")
    code, doc = _run_json(tmp_path, cfg2, "approx", name="out2.json")
    assert code == 0
    assert doc["regime"]["ok"] is False
    assert "expansion" in capsys.readouterr().err

    code, _ = _run_json(tmp_path, cfg2, "approx", "--strict", name="out3.json")
    assert code == 4


def test_readme_config_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    cfg = _write_config(tmp_path, json.loads(block), name="readme.json")
    code, doc = _run_json(tmp_path, cfg, "complexity")
    assert code == 0 and doc["d"] == 1


def test_complexity_command(tmp_path):
    cfg = _write_config(tmp_path, _quartic_config())
    code, doc = _run_json(tmp_path, cfg, "complexity")
    assert code == 0
    assert doc["predicted_ops"] == predicted_complexity(1, 3, 400, 100)
    assert (doc["d"], doc["N"], doc["M0"], doc["M1"]) == (1, 3, 400, 100)


def test_fd_solve_command(tmp_path):
    cfg = _write_config(tmp_path, _quartic_config(fd={"nx": 401}))
    code, doc = _run_json(tmp_path, cfg, "fd-solve")
    assert code == 0
    assert doc["nx"] == 401 and doc["nt"] > 0
    assert doc["epsilon"] == 0.05 and doc["gamma"] == 1.0 and doc["eta"] == 1.0
    # robust value exceeds the baseline 10 but stays near the expansion
    assert 10.0 < doc["v_fd"] < 13.0


def test_external_boundary_factory(tmp_path, monkeypatch):
    helper = tmp_path / "bnd_helpers.py"
    helper.write_text(textwrap.dedent("""
        import numpy as np
        from kolsens import BoundaryFunction

        def quad(dim):
            def hess(p):
                p = np.asarray(p)
                eye = np.eye(p.shape[-1])
                return np.broadcast_to(2.0 * eye, p.shape + (p.shape[-1],)).copy()

            return BoundaryFunction(
                dim=dim,
                value=lambda p: np.sum(np.asarray(p) ** 2, axis=-1),
                gradient=lambda p: 2.0 * np.asarray(p),
                hessian=hess,
                growth_alpha=2.0,
                growth_const=2.0,
                name="quad")
    """), encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    doc = _quartic_config(boundary={"kind": "external", "ref": "bnd_helpers:quad"},
                          model={"drift": [0.0, 0.0], "vol": [[1.0, 0.0], [0.0, 1.0]]})
    cfg = _write_config(tmp_path, doc)
    code, out = _run_json(tmp_path, cfg, "sensitivity")
    assert code == 0
    assert out["report"]["d"] == 2
    assert out["report"]["used_hessian_path"] is True


# --------------------------------------------------------------------------
# sweep outputs
# --------------------------------------------------------------------------

def test_eps_sweep_csv_and_summary(tmp_path):
    doc = _quartic_config(sweep={"epsilons": [0.02, 0.04, 0.06, 0.08, 0.1]},
                          fd={"nx": 401})
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "sweep.csv"
    code = main(["--config", cfg, "--command", "eps-sweep",
                 "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == EPS_SWEEP_HEADER
    assert len(lines) == 6
    assert [float(l.split(",")[0]) for l in lines[1:]] == [0.02, 0.04, 0.06, 0.08, 0.1]

    summary = json.loads((tmp_path / "sweep.json").read_text())
    assert "table" not in summary
    assert summary["command"] == "eps-sweep"
    assert summary["approx_source"] == "analytic"
    assert summary["anchor"] == "fd"
    assert np.isfinite(summary["slope"])
    # the march size, from the plan: nx nodes, nt steps, five rows and the anchor
    plan = plan_epsilon_sweep(FdProblem1d(drift=1.0, vol=1.0, gamma=1.0, eta=1.0,
                                          epsilon=0.05, boundary=quartic_boundary(), nx=401),
                              [0.02, 0.04, 0.06, 0.08, 0.1])
    assert (summary["nx"], summary["nt"], summary["rows"]) == (401, plan.problem.nt, 6)

    rerun = tmp_path / "sweep2.csv"
    code = main(["--config", cfg, "--command", "eps-sweep",
                 "--format", "csv", "--out", str(rerun)])
    assert code == 0
    assert rerun.read_bytes() == out.read_bytes()


def _dim_sweep_config(tmp_path):
    doc = {"model": {"kind": "normalized", "dim": 1, "seed": 100},
           "boundary": "sine",
           "uncertainty": {"gamma": 1.0, "eta": 1.0, "epsilon": 0.05},
           "mc": {"n_steps": 4, "m0": 400, "m1": 100},
           "dims": [1, 2], "seed": 3, "runs": 2}
    return _write_config(tmp_path, doc, name="dims.json")


def _strip_runtime(csv_text):
    lines = csv_text.splitlines()
    assert lines[0] == DIM_SWEEP_HEADER
    return [",".join(line.split(",")[:-1]) for line in lines]


def test_dim_sweep_csv_deterministic_across_workers(tmp_path, monkeypatch):
    cfg = _dim_sweep_config(tmp_path)
    outputs = []
    for workers, name in (("1", "a.csv"), ("2", "b.csv")):
        monkeypatch.setenv("KOLSENS_WORKERS", workers)
        out = tmp_path / name
        code = main(["--config", cfg, "--command", "dim-sweep",
                     "--format", "csv", "--out", str(out)])
        assert code == 0
        outputs.append(out.read_text())
    stripped = [_strip_runtime(text) for text in outputs]
    assert stripped[0] == stripped[1]
    assert [row.split(",")[0] for row in stripped[0][1:]] == ["1", "2"]
    summary = json.loads((tmp_path / "b.json").read_text())
    assert summary["seed"] == 3 and summary["runs"] == 2 and "rows" not in summary


def test_dim_sweep_json_format(tmp_path):
    cfg = _dim_sweep_config(tmp_path)
    code, doc = _run_json(tmp_path, cfg, "dim-sweep")
    assert code == 0
    assert [row["d"] for row in doc["rows"]] == [1, 2]
    for row in doc["rows"]:
        assert set(row) == set(DIM_SWEEP_HEADER.split(","))


def test_dim_sweep_reads_no_model_dim(tmp_path):
    # dim-sweep builds one model per entry of dims: model.dim may be left out and
    # is not hashed, and the origin point may have any length
    with open(_dim_sweep_config(tmp_path), encoding="utf-8") as fh:
        base = json.load(fh)
    del base["model"]["dim"]
    docs = []
    for model, point in (({}, {}), ({"dim": 1}, {}), ({"dim": 3}, {}),
                         ({}, {"x": [0.0, 0.0, 0.0]})):
        doc = {**base, "model": {**base["model"], **model}, "point": point}
        code, out = _run_json(tmp_path, _write_config(tmp_path, doc), "dim-sweep")
        assert code == 0
        docs.append(out)
    rows = [[{k: v for k, v in row.items() if k != "runtime_mean_seconds"}
             for row in doc["rows"]] for doc in docs]
    assert rows[0] == rows[1] == rows[2] == rows[3]
    assert docs[0]["config_hash"] == docs[1]["config_hash"] == docs[2]["config_hash"]


def test_statistics_are_those_of_the_per_seed_reports(tmp_path):
    cfg = _write_config(tmp_path, _quartic_config(seed=7))
    code, doc = _run_json(tmp_path, cfg, "sensitivity", "--runs", "3")
    assert code == 0
    model = BaselineModel(drift=np.array([1.0]), vol=np.array([[1.0]]), horizon=1.0)
    unc = UncertaintySpec(gamma=1.0, eta=1.0, epsilon=0.05)
    reports = [compute_report(model, quartic_boundary(), EvalPoint(t=0.0, x=np.zeros(1)),
                              McConfig(n_steps=3, m0=400, m1=100, seed=s), unc=unc)
               for s in (7, 8, 9)]
    stats = {name: EstimatorStats.of([getattr(r, name) for r in reports])
             for name in ("v0", "sens_drift", "sens_vol")}
    stats["approx"] = EstimatorStats.of([r.approx(1.0, 1.0, 0.05) for r in reports])
    assert doc["stats"] == {name: asdict(st) for name, st in stats.items()}
    mean = replace(reports[0], v0=stats["v0"].mean, sens_drift=stats["sens_drift"].mean,
                   sens_vol=stats["sens_vol"].mean)
    for key in ("v0", "sens_drift", "sens_vol"):
        assert doc["report"][key] == getattr(mean, key)
    assert doc["report"]["approx"] == mean.approx(1.0, 1.0, 0.05)
    assert doc["report"]["seed"] == 7

    code, sweep = _run_json(tmp_path, _dim_sweep_config(tmp_path), "dim-sweep",
                            "--runs", "2", name="dims_out.json")
    assert code == 0
    for row in sweep["rows"]:
        d = row["d"]
        reports = [compute_report(generate_normalized_model(d, 100 + d), sine_boundary(d),
                                  EvalPoint(t=0.0, x=np.zeros(d)),
                                  McConfig(n_steps=4, m0=400, m1=100, seed=s), unc=unc)
                   for s in (3, 4)]
        for name in ("v0", "sens_drift", "sens_vol"):
            st = EstimatorStats.of([getattr(r, name) for r in reports])
            assert (row[f"{name}_mean"], row[f"{name}_std"]) == (st.mean, st.std_dev)


def _strict_json(text):
    """json.loads refusing NaN and Infinity, which RFC 8259 JSON cannot hold."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("command", ["value", "sensitivity"])
def test_one_run_writes_a_null_std_dev(tmp_path, command):
    cfg = _write_config(tmp_path, _quartic_config())
    out = tmp_path / "out.json"
    assert main(["--config", cfg, "--command", command, "--runs", "1", "--out", str(out)]) == 0
    doc = _strict_json(out.read_text())
    stats = [doc["stats"]] if command == "value" else list(doc["stats"].values())
    assert stats and all(st["runs"] == 1 and st["std_dev"] is None for st in stats)


def test_an_undefined_sweep_slope_is_written_as_null(tmp_path, monkeypatch):
    # on a constant boundary the FD rows equal the linear prediction, so no error is
    # positive and the slope, fitted over the positive errors, is undefined
    helper = tmp_path / "flat_bnd.py"
    helper.write_text(textwrap.dedent("""
        import numpy as np
        from kolsens import BoundaryFunction

        def flat(dim):
            return BoundaryFunction(
                dim=dim,
                value=lambda p: np.full(np.shape(p)[:-1], 3.0),
                gradient=lambda p: np.zeros(np.shape(p)),
                hessian=lambda p: np.zeros(np.shape(p) + np.shape(p)[-1:]))
    """), encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    cfg = _write_config(tmp_path, _quartic_config(
        boundary={"kind": "external", "ref": "flat_bnd:flat"}, fd={"nx": 101},
        sweep={"epsilons": [0.02, 0.04, 0.06]}))
    out = tmp_path / "sweep.json"
    assert main(["--config", cfg, "--command", "eps-sweep", "--out", str(out)]) == 0
    doc = _strict_json(out.read_text())
    assert doc["approx_source"] == "engine" and doc["slope"] is None
    assert [row["abs_error"] for row in doc["table"]] == [0.0, 0.0, 0.0]


# --------------------------------------------------------------------------
# hashing and overrides
# --------------------------------------------------------------------------

def test_seed_and_bump_overrides_change_hash(tmp_path):
    cfg = _write_config(tmp_path, _quartic_config())
    _, base = _run_json(tmp_path, cfg, "value")
    _, again = _run_json(tmp_path, cfg, "value", name="again.json")
    assert base["config_hash"] == again["config_hash"]
    _, reseeded = _run_json(tmp_path, cfg, "value", "--seed", "5", name="s.json")
    assert reseeded["config_hash"] != base["config_hash"]
    bump_cfg = _write_config(tmp_path, _quartic_config(mc={"n_steps": 3, "m0": 400,
                                                            "m1": 100, "h": 0.01}),
                             name="bump.json")
    _, bumped = _run_json(tmp_path, bump_cfg, "sensitivity", name="h.json")
    _, plain = _run_json(tmp_path, cfg, "sensitivity", name="p.json")
    assert bumped["config_hash"] != plain["config_hash"]


def test_hash_counts_the_effective_seed_and_runs_only(tmp_path):
    by_flag = _write_config(tmp_path, _quartic_config(), name="flag.json")
    in_config = _write_config(tmp_path, _quartic_config(seed=5, runs=3), name="cfg.json")
    bare = _quartic_config()
    del bare["seed"], bare["runs"]
    bare = _write_config(tmp_path, bare, name="bare.json")
    _, a = _run_json(tmp_path, by_flag, "value", "--seed", "5", "--runs", "3", name="a.json")
    _, b = _run_json(tmp_path, in_config, "value", name="b.json")
    _, c = _run_json(tmp_path, bare, "value", "--seed", "5", "--runs", "3", name="c.json")
    assert a["stats"] == b["stats"] == c["stats"]
    assert a["config_hash"] == b["config_hash"] == c["config_hash"]


def test_m1_defaults_to_at_most_m0(tmp_path):
    small = _write_config(tmp_path, _quartic_config(mc={"n_steps": 3, "m0": 1000}),
                          name="small.json")
    one = _write_config(tmp_path, _quartic_config(mc={"n_steps": 3, "m0": 1000, "m1": 1}),
                        name="one.json")
    code, doc = _run_json(tmp_path, small, "value", name="a.json")
    assert code == 0
    assert doc["stats"] == _run_json(tmp_path, one, "value", name="b.json")[1]["stats"]
    code, doc = _run_json(tmp_path, small, "complexity", name="c.json")
    assert code == 0 and doc["M1"] == 1000
    assert _run_json(tmp_path, small, "fd-solve", name="d.json")[0] == 0


# --------------------------------------------------------------------------
# failure modes and exit codes
# --------------------------------------------------------------------------

def test_unknown_config_key(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"modle": {}})
    assert main(["--config", cfg, "--command", "value"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("nope{", encoding="utf-8")
    assert main(["--config", str(path), "--command", "value"]) == 2


def test_missing_config_file(tmp_path):
    assert main(["--config", str(tmp_path / "absent.json"), "--command", "value"]) == 2


def test_csv_rejected_for_scalar_commands(tmp_path):
    cfg = _write_config(tmp_path, _quartic_config())
    assert main(["--config", cfg, "--command", "value", "--format", "csv"]) == 2


def test_csv_sweep_needs_out(tmp_path):
    doc = _quartic_config(sweep={"epsilons": [0.02, 0.04, 0.06]}, fd={"nx": 401})
    cfg = _write_config(tmp_path, doc)
    assert main(["--config", cfg, "--command", "eps-sweep", "--format", "csv"]) == 2


def test_out_may_not_overwrite_config(tmp_path, capsys):
    doc = _quartic_config(sweep={"epsilons": [0.02, 0.04, 0.06]}, fd={"nx": 401})
    cfg = _write_config(tmp_path, doc, name="sweep.json")
    # the CSV itself, its sibling summary, and a JSON --out are all refused
    for args in (["--format", "csv", "--out", str(tmp_path / "sweep.json")],
                 ["--format", "csv", "--out", str(tmp_path / "sweep.csv")],
                 ["--out", str(tmp_path / "sweep.json")]):
        code = main(["--config", cfg, "--command", "eps-sweep", *args])
        assert code == 2
        assert "overwrite" in capsys.readouterr().err
    assert json.loads((tmp_path / "sweep.json").read_text()) == doc


def test_eps_sweep_requires_t_zero(tmp_path):
    doc = _quartic_config(point={"t": 0.5}, sweep={"epsilons": [0.02, 0.04, 0.06]})
    cfg = _write_config(tmp_path, doc)
    assert main(["--config", cfg, "--command", "eps-sweep"]) == 2


def test_quartic_needs_one_dimension(tmp_path):
    doc = _quartic_config(model={"drift": [0.0, 0.0],
                                 "vol": [[1.0, 0.0], [0.0, 1.0]]})
    cfg = _write_config(tmp_path, doc)
    assert main(["--config", cfg, "--command", "value"]) == 2


def test_rejected_external_boundary(tmp_path, monkeypatch, capsys):
    helper = tmp_path / "bad_bnd.py"
    helper.write_text(textwrap.dedent("""
        import numpy as np
        from kolsens import BoundaryFunction

        def lying(dim):
            return BoundaryFunction(
                dim=dim,
                value=lambda p: np.sum(np.asarray(p) ** 2, axis=-1),
                gradient=lambda p: 5.0 * np.asarray(p),   # wrong slope
                growth_alpha=2.0, growth_const=2.0)
    """), encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    doc = _quartic_config(boundary={"kind": "external", "ref": "bad_bnd:lying"})
    cfg = _write_config(tmp_path, doc)
    assert main(["--config", cfg, "--command", "value"]) == 2
    assert "consistency probes" in capsys.readouterr().err


def test_external_ridge_that_disagrees_with_its_evaluators_exits_2(tmp_path, monkeypatch,
                                                                   capsys):
    # v0 evaluates ridge.profile in place of value, so a wrong profile must
    # be refused before it silently changes v0
    helper = tmp_path / "bad_ridge.py"
    helper.write_text(textwrap.dedent("""
        from dataclasses import replace
        import numpy as np
        from kolsens import sine_boundary

        def shifted(dim):
            b = sine_boundary(dim)
            return replace(b, ridge=replace(b.ridge, profile=lambda s: np.sin(s) + 0.5))
    """), encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    doc = _quartic_config(boundary={"kind": "external", "ref": "bad_ridge:shifted"})
    cfg = _write_config(tmp_path, doc)
    assert main(["--config", cfg, "--command", "value"]) == 2
    assert "ridge err" in capsys.readouterr().err


@pytest.mark.parametrize("mc", [
    {"mc": {"kernel": "bogus"}}, {"mc": {"kernel": "ridge"}}, {"mc": {"n_steps": 0}},
    {"mc": {"n_steps": 2.5}}, {"mc": {"m1": "many"}}, {"mc": {"h": "small"}},
    {"output": "x.json"}, {"seed": "abc"}, {"runs": 2.5},
    {"uncertainty": {"gamma": "x"}}, {"model": {"kind": "normalized", "dim": "two"}},
    {"fd": {"nx": "many"}}, {"fd": {"allow_nonconvex": "false"}},
    {"point": {"x": ["zero"]}},
    ({"boundary": "sine", "dims": [1, 2],
      "model": {"drift": [1.0], "vol": [[1.0]], "kind": "explicit"}}, "dim-sweep"),
    ({"boundary": "sine", "dims": [1, 2], "model": {"kind": "normalized", "dim": 1},
      "point": {"t": 0.5, "x": [3.0]}}, "dim-sweep"),
    {"model": {"kind": "normalized", "dim": 1, "drift": [1.0]}},
    {"model": {"kind": "normalized", "dim": 1, "vol": [[1.0]]}},
    {"model": {"kind": "explicit", "drift": [1.0], "vol": [[1.0]], "dim": 1}},
    {"model": {"kind": "explicit", "drift": [1.0], "vol": [[1.0]], "seed": 3}},
    ({"fd": {"half_width": float("nan")}}, "fd-solve"),
    {"model": {"vol": [[1.0]], "drift": [True]}}, {"model": {"drift": [1.0], "vol": [["2"]]}},
    {"point": {"x": [False]}}, {"point": {"x": "0.5"}},
    {"model": {"drift": [1.0], "vol": [[1.0]], "kind": True}}, {"boundary": "bogus"},
    ({"boundary": "sine", "model": {"kind": "normalized", "dim": 1}, "dims": [1, True]},
     "dim-sweep"),
    ({"sweep": {"epsilons": [0.02, [0.04], 0.06]}}, "eps-sweep")])
def test_invalid_mc_section_exits_2(tmp_path, capsys, mc):
    # mc: a malformed value patched into sections or the root of the config,
    # optionally paired with the command to run (default: sensitivity); the
    # error must name the last patched key. A model section replaces the
    # quartic's outright, since the keys a model takes depend on its kind.
    patch, command = mc if isinstance(mc, tuple) else (mc, "sensitivity")
    doc = _quartic_config()
    for section, value in patch.items():
        key = section
        if isinstance(value, dict):
            doc[section] = value if section == "model" else {**doc.get(section, {}), **value}
            key = list(value)[-1]
        else:
            doc[section] = value
    cfg = _write_config(tmp_path, doc)
    assert main(["--config", cfg, "--command", command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err


def _fail_if_called(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} ran before the config fault was reported")
    return fail


_SWEEP = {"epsilons": [0.02, 0.04, 0.06]}


@pytest.mark.parametrize("command, patch, key", [
    ("eps-sweep", {"point": {"t": 0.5}, "sweep": {**_SWEEP, "approx_source": "engine"}},
     "point.t"),
    ("eps-sweep", {"point": {"x": [0.0, 7.0]}, "sweep": _SWEEP}, "point.x"),
    ("fd-solve", {"point": {"x": [0.0, 7.0]}}, "point.x"),
    ("sensitivity", {"point": {"x": []}}, "point.x"),
    ("dim-sweep", {"boundary": "sine", "dims": [1, 2], "point": {"t": 0.0, "x": [0.5]},
                   "model": {"kind": "normalized", "dim": 1}}, "point"),
    ("dim-sweep", {"boundary": "sine", "dims": [3, 0],
                   "model": {"kind": "normalized", "dim": 1}}, "dims"),
    ("eps-sweep", {"sweep": {**_SWEEP, "approx_source": "bogus"}, "fd": {"nt": 3}},
     "approx_source")])
def test_config_faults_exit_2_before_the_monte_carlo_stage(tmp_path, monkeypatch, capsys,
                                                           command, patch, key):
    monkeypatch.setattr(cli, "compute_report", _fail_if_called("compute_report"))
    monkeypatch.setattr(cli, "_analytic_first_order", _fail_if_called("quadrature"))
    cfg = _write_config(tmp_path, _quartic_config(**patch))
    assert main(["--config", cfg, "--command", command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err


@pytest.mark.parametrize("sweep, key", [
    ({"epsilons": [0.04, 0.02, 0.06], "anchor": "grid"}, "epsilons"),
    ({"epsilons": [0.02, 0.04, 0.06], "anchor": "grid"}, "anchor"),
    ({"epsilons": [0.02, 0.04]}, "at least 3"),
    ({"epsilons": [0.02, 0.04, 1.0]}, "expansion regime"),
    ({"epsilons": [0.02, 0.04, 0.06], "fd": {"nt": 3}}, "stable step")])
def test_bad_sweep_exits_2_before_any_estimate(tmp_path, monkeypatch, capsys, sweep, key):
    monkeypatch.setattr(cli, "compute_report", _fail_if_called("compute_report"))
    monkeypatch.setattr(cli, "_analytic_first_order", _fail_if_called("quadrature"))
    sweep = dict(sweep)
    fd = {"nx": 401, **sweep.pop("fd", {})}
    cfg = _write_config(tmp_path, _quartic_config(
        sweep={**sweep, "approx_source": "engine"}, fd=fd))
    assert main(["--config", cfg, "--command", "eps-sweep"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err


_SINE_1D = {"boundary": "sine", "model": {"kind": "normalized", "dim": 1}}


@pytest.mark.parametrize("command, extra", [
    ("eps-sweep", {"sweep": {**_SWEEP, "approx_source": "engine"}}),
    ("eps-sweep", {"sweep": _SWEEP}),
    ("eps-sweep", {"sweep": _SWEEP, "fd": {"nx": 201}}),
    ("fd-solve", {"fd": {"nx": 201}})])
def test_sine_boundary_runs_the_fd_reference(tmp_path, command, extra):
    # the FD march takes the volatility supremum at each node, so a non-convex
    # boundary needs no refusal
    cfg = _write_config(tmp_path, _quartic_config(**_SINE_1D, **extra))
    code, doc = _run_json(tmp_path, cfg, command)
    assert code == 0
    values = [r["v_fd"] for r in doc["table"]] if command == "eps-sweep" else [doc["v_fd"]]
    assert all(np.isfinite(values))


@pytest.mark.parametrize("gamma, eta", [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0)])
def test_sine_eps_sweep_error_is_quadratic(tmp_path, gamma, eta):
    # against the analytic first-order term the error law of the 1-D normalized sine
    # has slope 2; at nx 401 the fits give 2.06 to 2.11, at nx 2001 2.01 to 2.05
    cfg = _write_config(tmp_path, _quartic_config(
        **_SINE_1D, uncertainty={"gamma": gamma, "eta": eta, "epsilon": 0.05},
        fd={"nx": 401}, sweep={"epsilons": [0.02, 0.04, 0.06, 0.08, 0.1]}))
    code, doc = _run_json(tmp_path, cfg, "eps-sweep")
    assert code == 0 and doc["approx_source"] == "analytic"
    assert abs(doc["slope"] - 2.0) < 0.15, doc["slope"]


@pytest.mark.parametrize("workers", ["abc", "0"])
def test_bad_worker_count_exits_2_before_sampling(tmp_path, monkeypatch, capsys, workers):
    monkeypatch.setattr(engine, "draw_samples", _fail_if_called("draw_samples"))
    monkeypatch.setenv("KOLSENS_WORKERS", workers)
    cfg = _write_config(tmp_path, _quartic_config())
    assert main(["--config", cfg, "--command", "sensitivity"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "KOLSENS_WORKERS" in err


def test_value_refuses_a_bad_worker_count(tmp_path, monkeypatch, capsys):
    # v0 runs on one thread, yet the setting is checked as for every command
    monkeypatch.setattr(engine, "draw_samples", _fail_if_called("draw_samples"))
    monkeypatch.setenv("KOLSENS_WORKERS", "abc")
    cfg = _write_config(tmp_path, _quartic_config())
    assert main(["--config", cfg, "--command", "value"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "KOLSENS_WORKERS" in err


@pytest.mark.parametrize("command, extra", [
    ("fd-solve", {"fd": {"nx": 401}}),
    ("eps-sweep", {"fd": {"nx": 401}, "sweep": _SWEEP})])
def test_negative_1d_volatility_runs_the_fd_oracle(tmp_path, command, extra):
    docs = []
    for sign in (1.0, -1.0):
        cfg = _write_config(tmp_path, _quartic_config(model={"drift": [1.0],
                                                             "vol": [[sign]]}, **extra))
        code, doc = _run_json(tmp_path, cfg, command)
        assert code == 0
        del doc["config_hash"]
        docs.append(doc)
    assert docs[0] == docs[1]


@pytest.mark.parametrize("command", ["value", "sensitivity", "approx"])
def test_validation_inside_a_run_exits_2(tmp_path, capsys, command):
    # the point sits at the horizon; the run itself finds that out
    cfg = _write_config(tmp_path, _quartic_config(point={"t": 1.0, "x": [0.0]}))
    assert main(["--config", cfg, "--command", command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "point.t" in err and "model.horizon" in err


def test_numeric_failure_exit_code(tmp_path, monkeypatch, capsys):
    # a jump at 0, between two grid nodes, so high that a first difference overflows
    helper = tmp_path / "steep_bnd.py"
    helper.write_text(textwrap.dedent("""
        import numpy as np
        from kolsens import BoundaryFunction

        def jump(dim):
            return BoundaryFunction(
                dim=dim,
                value=lambda p: 1.5e308 * np.sign(np.asarray(p)[..., 0]),
                gradient=lambda p: np.zeros(np.shape(p)),
                growth_const=1.5e308)
    """), encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    doc = _quartic_config(boundary={"kind": "external", "ref": "steep_bnd:jump"},
                          fd={"nx": 600, "half_width": 9.0})
    cfg = _write_config(tmp_path, doc)
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["--config", cfg, "--command", "fd-solve"]) == 3
    assert capsys.readouterr().err.startswith("numerical failure:")


_GUARDED_RIDGES = textwrap.dedent("""
    import numpy as np
    from kolsens import ridge_boundary

    def _guard(fn):    # the probes' points lie well inside |s| <= 6, a run's do not
        def guarded(s):
            if np.any(np.abs(s) > 6.0):
                raise ValueError("argument beyond |s| = 6")
            return fn(s)
        return guarded

    def quartic(dim, raising):
        fns = {"profile": lambda s: s ** 4, "d1": lambda s: 4.0 * s ** 3,
               "d2": lambda s: 12.0 * s ** 2}
        fns[raising] = _guard(fns[raising])
        return ridge_boundary(np.ones(dim), **fns)

    def steep_d1(dim):
        return quartic(dim, "d1")

    def steep_value(dim):
        return quartic(dim, "profile")
""")


@pytest.mark.parametrize("ref, command", [
    ("steep_d1", "sensitivity"), ("steep_d1", "approx"), ("steep_d1", "eps-sweep"),
    ("steep_value", "fd-solve"), ("steep_value", "eps-sweep")])
def test_a_boundary_that_raises_mid_run_exits_3(tmp_path, monkeypatch, capsys, ref, command):
    # both pass their load probes; at x = 5 the Monte Carlo points and the FD grid
    # reach past |s| = 6, where the guarded function raises: d1 in the engine's
    # sensitivity stage (eps-sweep's source is the engine), the value on the FD grid
    (tmp_path / "guarded_ridges.py").write_text(_GUARDED_RIDGES, encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    cfg = _write_config(tmp_path, _quartic_config(
        boundary={"kind": "external", "ref": f"guarded_ridges:{ref}"},
        point={"t": 0.0, "x": [5.0]}, fd={"nx": 101}, sweep=_SWEEP))
    assert main(["--config", cfg, "--command", command]) == 3
    err = capsys.readouterr().err
    where = ("estimator run with seed 0 failed" if ref == "steep_d1" else
             "boundary.value failed on the FD grid: ValueError")
    assert err.startswith("numerical failure:") and where in err and "beyond |s| = 6" in err


@pytest.mark.parametrize("command, flags, key", [
    ("dim-sweep", ["--format", "csv"], "needs --out"),
    ("value", ["--format", "csv", "--out", "{tmp}/v.csv"], "not supported"),
    ("sensitivity", ["--out", "{config}"], "overwrite"),
    ("dim-sweep", ["--format", "csv", "--out", "{tmp}/dims.csv"], "overwrite"),
    ("sensitivity", ["--out", "{tmp}/missing/out.json"], "does not exist"),
    ("eps-sweep", ["--format", "csv", "--out", "{tmp}/missing/sweep.csv"], "does not exist"),
    ("sensitivity", ["--out", "{tmp}"], "is a directory"),
    ("eps-sweep", ["--format", "csv", "--out", "{tmp}/taken/x.csv"], "is a directory")])
def test_output_faults_exit_2_before_the_config_is_read(tmp_path, monkeypatch, capsys,
                                                        command, flags, key):
    # dims.json is the config, so dims.csv's sibling summary would overwrite it;
    # taken/x.json is a directory, so the summary beside taken/x.csv cannot be written
    cfg = _write_config(tmp_path, _quartic_config(
        boundary="sine", model={"kind": "normalized", "dim": 1}, dims=[1, 2],
        sweep=_SWEEP, fd={"nx": 201}), name="dims.json")
    (tmp_path / "taken" / "x.json").mkdir(parents=True)
    monkeypatch.setattr(cli, "load_config", _fail_if_called("load_config"))
    monkeypatch.setattr(cli, "compute_report", _fail_if_called("compute_report"))
    monkeypatch.setattr(cli, "_analytic_first_order", _fail_if_called("quadrature"))
    flags = [f.format(tmp=tmp_path, config=cfg) for f in flags]
    assert main(["--config", cfg, "--command", command, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dims.json", "taken"]


@pytest.mark.parametrize("make", [lambda p: p.mkdir(),
                                  lambda p: p.write_bytes(b'{"model": "\xff\xfe"}')],
                         ids=["directory", "invalid-utf8"])
def test_unreadable_config_exits_2_naming_it(tmp_path, capsys, make):
    path = tmp_path / "run.json"
    make(path)
    assert main(["--config", str(path), "--command", "value"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err


@pytest.mark.parametrize("module, body, raised", [
    ("raising_factory", "raise TypeError('no dims here')", "TypeError: no dims here"),
    ("raising_probe",
     "return BoundaryFunction(dim=dim, value=lambda p: np.sum(p, axis=-1),\n"
     "                            gradient=lambda p: 1 / 0, growth_alpha=1.0)",
     "ZeroDivisionError: division by zero")], ids=["factory", "probe"])
def test_external_boundary_that_raises_exits_2(tmp_path, monkeypatch, capsys, module, body,
                                               raised):
    (tmp_path / f"{module}.py").write_text(
        "import numpy as np\nfrom kolsens import BoundaryFunction\n\n"
        f"def broken(dim):\n    {body}\n", encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    cfg = _write_config(tmp_path, _quartic_config(
        boundary={"kind": "external", "ref": f"{module}:broken"}))
    assert main(["--config", cfg, "--command", "value"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{module}:broken" in err and raised in err


def test_dim_sweep_probes_every_boundary_before_the_first_estimate(tmp_path, monkeypatch,
                                                                   capsys):
    (tmp_path / "capped_bnd.py").write_text(textwrap.dedent("""
        from kolsens import sine_boundary

        def capped(dim):
            if dim > 1:
                raise ValueError(f"no dimension {dim}")
            return sine_boundary(dim)
    """), encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr(cli, "compute_report", _fail_if_called("compute_report"))
    cfg = _write_config(tmp_path, _quartic_config(
        boundary={"kind": "external", "ref": "capped_bnd:capped"},
        model={"kind": "normalized"}, dims=[1, 2]))
    assert main(["--config", cfg, "--command", "dim-sweep"]) == 2
    err = capsys.readouterr().err
    assert "capped_bnd:capped" in err and "ValueError: no dimension 2" in err
