import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from excursions import __version__
from excursions.cli import run

FAST_IIA = ["--samples", "20000", "--reps", "3", "--grid-max", "120",
            "--grid-step", "0.02"]


def test_iia_zero_level_symmetry(tmp_path):
    out = tmp_path / "res.json"
    code = run(["iia", "--level", "0", "--seed", "7", "--out", str(out)] + FAST_IIA)
    assert code == 0
    res = json.loads(out.read_text())
    assert res["alpha"] == 0.5
    assert res["theta_plus"] == pytest.approx(res["theta_minus"], abs=0.02)
    assert res["seed"] == 7
    assert "config_hash" in res
    manifest = json.loads((tmp_path / "res.json.manifest.json").read_text())
    assert manifest["config_hash"] == res["config_hash"]
    assert manifest["config"]["level"] == 0.0
    assert "wall_clock_seconds" in manifest


def test_missing_level_usage_error(capsys):
    assert run(["iia"]) == 64
    assert run(["iia", "--level"]) == 64


def test_unknown_flag_usage_error():
    assert run(["iia", "--level", "0", "--frobnicate"]) == 64
    assert run(["not-a-command"]) == 64


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_domain_error_exit_code(tmp_path):
    # unknown model name is a domain error: exit 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "brownian"}))
    code = run(["iia", "--level", "0", "--config", str(cfg)] + FAST_IIA)
    assert code == 1


def test_numerical_error_exit_code():
    # level above the monotonicity threshold: exit 2
    code = run(["iia", "--level", "1.5"] + FAST_IIA)
    assert code == 2


def test_determinism_byte_identical(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["iia", "--level", "0.5", "--seed", "99"] + FAST_IIA
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_config_file_merging_and_flag_priority(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 20000, "reps": 3, "grid_max": 120.0,
                               "grid_step": 0.02, "seed": 5}))
    out1 = tmp_path / "c.json"
    assert run(["iia", "--level", "0", "--config", str(cfg),
                "--out", str(out1)]) == 0
    res = json.loads(out1.read_text())
    assert res["n_samples"] == 20000
    assert res["seed"] == 5
    # explicit flag wins over the config value
    out2 = tmp_path / "d.json"
    assert run(["iia", "--level", "0", "--config", str(cfg), "--seed", "6",
                "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["seed"] == 6


def test_iia_curve_and_sample_outputs(tmp_path):
    out = tmp_path / "res.json"
    cdf = tmp_path / "cdf.csv"
    samples = tmp_path / "samples"
    assert run(["iia", "--level", "0", "--seed", "1", "--out", str(out),
                "--cdf-csv", str(cdf), "--samples-csv", str(samples)]
               + FAST_IIA) == 0
    header, first = cdf.read_text().splitlines()[:2]
    assert header == "t,f_x,f_y"
    assert first.startswith("0.0,0.0,0.0")
    above = (tmp_path / "samples.above.csv").read_text().splitlines()
    assert above[0] == "length"
    assert float(above[1]) > 0


def test_switch_sim_csv(tmp_path):
    out = tmp_path / "sw.csv"
    assert run(["switch-sim", "--plus", "exp:1.0", "--minus", "exp:1.0",
                "--stationary", "--paths", "500", "--horizon", "4",
                "--seed", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("t,p_plus,se_p_plus")
    assert len(lines) == 52


def test_negative_level_in_exponent_notation_is_a_value(tmp_path, capsys):
    out = tmp_path / "cc.csv"
    assert run(["clipped-cov", "--level", "-1e-3", "--t-max", "1",
                "--out", str(out)]) == 0
    assert out.exists()
    assert run(["clipped-cov", "--level", "-inf", "--t-max", "1",
                "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: level must be finite, got -inf\n"


def test_clipped_cov_zero_level_has_reference_column(tmp_path):
    out = tmp_path / "cc.csv"
    assert run(["clipped-cov", "--level", "0", "--t-max", "2",
                "--step", "0.5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,value,arcsin_reference"
    first = [float(x) for x in lines[1].split(",")]
    assert first[1] == pytest.approx(1.0, abs=1e-8)


def test_slepian_sample_csv(tmp_path):
    out = tmp_path / "paths.csv"
    assert run(["slepian-sample", "--level", "1.0", "--grid-max", "2",
                "--grid-step", "0.5", "--paths", "3", "--seed", "2",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,deterministic,slope_component,residual,total,replicate_id"
    # 3 replicates x 5 grid points
    assert len(lines) == 16
    row = lines[1].split(",")
    assert float(row[4]) == pytest.approx(1.0)  # total(0) = level


def test_persistency_subcommand(tmp_path):
    rng = np.random.default_rng(12)
    csv = tmp_path / "lengths.csv"
    csv.write_text("length\n" + "\n".join(
        repr(float(x)) for x in rng.exponential(2.0, 50_000)) + "\n")
    out = tmp_path / "fit.json"
    assert run(["persistency", "--samples", str(csv), "--reps", "5",
                "--out", str(out)]) == 0
    res = json.loads(out.read_text())
    assert res["theta"] == pytest.approx(0.5, abs=0.02)
    assert res["n_samples"] == 50_000


def test_table1_small_scale(tmp_path, capsys):
    out = tmp_path / "t1.json"
    assert run(["table1", "--samples", "20000", "--reps", "3",
                "--grid-max", "120", "--grid-step", "0.02",
                "--levels", "0,1", "--seed", "1", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "theta+" in printed
    rows = json.loads(out.read_text())["rows"]
    assert [r["level"] for r in rows] == [0.0, 1.0]
    assert rows[0]["theta_plus"] == pytest.approx(0.1862, abs=0.02)


def test_gp_sim_small_scale(tmp_path):
    out = tmp_path / "gp.json"
    assert run(["gp-sim", "--level", "0", "--n-traj", "40", "--len", "8000",
                "--dt", "0.05", "--reps", "4", "--seed", "2",
                "--out", str(out)]) == 0
    res = json.loads(out.read_text())
    assert res["theta_plus"] == pytest.approx(0.1885, abs=0.04)
    assert res["rice_rate"] == pytest.approx(0.1591549, abs=1e-6)


def test_table2_row_equals_gp_sim_at_the_same_seed(tmp_path):
    sizes = ["--n-traj", "40", "--len", "8000", "--dt", "0.05", "--reps", "4",
             "--seed", "6"]
    assert run(["table2", "--levels", "0,1", "--out", str(tmp_path / "t2.json")] + sizes) == 0
    assert run(["gp-sim", "--level", "1", "--out", str(tmp_path / "gp.json")] + sizes) == 0
    [row] = [r for r in json.loads((tmp_path / "t2.json").read_text())["rows"]
             if r["level"] == 1.0]
    alone = json.loads((tmp_path / "gp.json").read_text())
    for key in ("theta_plus", "theta_minus", "ci_plus", "ci_minus"):
        assert row[key] == alone[key]


def test_config_int_for_float_key_hashes_like_the_flag(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid_max": 120}))
    base = ["iia", "--level", "0.5", "--samples", "2000", "--reps", "2",
            "--grid-step", "0.02"]
    hashes = []
    for tag, extra in (("config", ["--config", str(cfg)]), ("flag", ["--grid-max", "120"])):
        out = tmp_path / f"{tag}.json"
        assert run(base + extra + ["--out", str(out)]) == 0
        manifest = json.loads((tmp_path / f"{tag}.json.manifest.json").read_text())
        assert manifest["config"]["grid_max"] == 120.0
        assert isinstance(manifest["config"]["grid_max"], float)
        hashes.append(json.loads(out.read_text())["config_hash"])
    assert hashes[0] == hashes[1]


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    assert re.search(r'^version = "(.*)"$', text, re.M).group(1) == __version__


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "excursions.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_config_file_errors_exit_one(tmp_path, capsys):
    base = ["iia", "--level", "0"] + FAST_IIA
    assert run(base + ["--config", str(tmp_path / "missing.json")]) == 1
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{samples: 5")
    assert run(base + ["--config", str(bad_json)]) == 1
    wrong_type = tmp_path / "typed.json"
    for payload in ({"samples": "many"}, {"reps": 2.5}, {"grid_max": True},
                    {"level": "zero"}, [1, 2]):
        wrong_type.write_text(json.dumps(payload))
        assert run(base + ["--config", str(wrong_type)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "'samples' must be of type int" in err


def test_thread_cap_must_be_a_positive_integer(tmp_path, monkeypatch, capsys):
    for value in ("abc", "0", "-2", "1.5"):
        monkeypatch.setenv("EXCURSION_IIA_THREADS", value)
        assert run(["iia", "--level", "0"] + FAST_IIA) == 1
    assert "EXCURSION_IIA_THREADS" in capsys.readouterr().err


def test_persistency_rejects_non_numeric_line_after_header(tmp_path, capsys):
    csv = tmp_path / "lengths.csv"
    values = [repr(float(x)) for x in np.random.default_rng(3).exponential(2.0, 500)]
    csv.write_text("length\n" + "\n".join(values[:10] + ["oops"] + values[10:]) + "\n")
    assert run(["persistency", "--samples", str(csv), "--reps", "2"]) == 1
    assert "line 12" in capsys.readouterr().err
    assert run(["persistency", "--samples", str(tmp_path / "none.csv")]) == 1


FAST_TRAJ = ["--n-traj", "40", "--len", "8000", "--reps", "4"]


def test_tables_and_clipped_cov_load_no_scipy_stats_integrate_or_optimize(tmp_path):
    # a fresh interpreter, since this one has imported them already
    script = f"""
import sys
from excursions.cli import run
assert run(["table1", "--levels", "0,1", "--seed", "3", "--out", "t1.json"]
           + {FAST_IIA!r}) == 0
assert run(["table2", "--levels", "0", "--seed", "3", "--out", "t2.json"]
           + {FAST_TRAJ!r}) == 0
assert run(["clipped-cov", "--level", "1", "--out", "cc.csv"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[:2] in
             (["scipy", "stats"], ["scipy", "integrate"], ["scipy", "optimize"])))
"""
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_cli_subcommands_load_no_scipy(tmp_path):
    # a fresh interpreter; only clipped-cov may load scipy
    script = f"""
import sys
from excursions.cli import run
runs = [["iia", "--level", "0.5", "--samples-csv", "s", "--out", "i.json"] + {FAST_IIA!r},
        ["persistency", "--samples", "s.above.csv", "--reps", "2", "--out", "p.json"],
        ["table1", "--levels", "0,1", "--out", "t1.json"] + {FAST_IIA!r},
        ["gp-sim", "--level", "0", "--out", "g.json"] + {FAST_TRAJ!r},
        ["table2", "--levels", "0", "--out", "t2.json"] + {FAST_TRAJ!r},
        ["switch-sim", "--plus", "exp:1.0", "--minus", "exp:2.0", "--stationary",
         "--paths", "200", "--out", "sw.csv"],
        ["switch-sim", "--plus", "erlang:2:1", "--stationary",
         "--paths", "200", "--out", "swe.csv"]]
for args in runs:
    assert run(args + ["--seed", "3"]) == 0, args[0]
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_importing_the_cli_loads_no_fractions(tmp_path):
    # a fresh interpreter; only the Gaver-Stehfest weights need fractions
    script = "import sys, excursions.cli; print('fractions' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("args, message", [
    (["iia", "--level", "1e308"] + FAST_IIA,
     "level 1e+308: Phi(u) rounds to 1, so the excursions above it have no mass"),
    (["table1", "--levels", "0,1e308"] + FAST_IIA,
     "level 1e+308: Phi(u) rounds to 1, so the excursions above it have no mass"),
    (["iia", "--level=-1e308"] + FAST_IIA,
     "level -1e+308: Phi(u) rounds to 0, so the excursions below it have no mass"),
    (["table2", "--dt", "1e308", "--levels", "0"] + FAST_TRAJ,
     "dt = 1e+308 is too large: the lag grid's span dt * 67999 is not finite"),
    (["gp-sim", "--level", "0", "--dt", "1e308"] + FAST_TRAJ,
     "dt = 1e+308 is too large: the lag grid's span dt * 67999 is not finite"),
], ids=["iia-level", "table1-levels", "iia-negative-level", "table2-dt", "gp-sim-dt"])
def test_huge_level_or_step_is_a_domain_error_without_warnings(tmp_path, args, message):
    # a fresh interpreter, so that a warning would reach its stderr
    out = tmp_path / "res.json"
    proc = subprocess.run([sys.executable, "-m", "excursions.cli", *args, "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stderr == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["table1", "--levels", "0,1.25"] + FAST_IIA,
    ["iia", "--level", "1"] + FAST_IIA,
    ["table2", "--levels", "0,0.5"] + FAST_TRAJ,
    ["gp-sim", "--level", "0.5"] + FAST_TRAJ,
])
def test_results_do_not_depend_on_thread_count(tmp_path, monkeypatch, capsys, args):
    outputs = []
    for threads in ("1", None, "3"):
        if threads is None:
            monkeypatch.delenv("EXCURSION_IIA_THREADS", raising=False)
        else:
            monkeypatch.setenv("EXCURSION_IIA_THREADS", threads)
        out = tmp_path / f"res{threads}.json"
        assert run(args + ["--seed", "21", "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("command, extra", [("table1", FAST_IIA), ("table2", FAST_TRAJ)])
@pytest.mark.parametrize("levels", ["0,abc", "0,,1", "0,inf", "nan", ""])
def test_bad_levels_exit_one(capsys, command, extra, levels):
    assert run([command, "--levels", levels] + extra) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "--levels" in err


@pytest.mark.parametrize("level", ["nan", "inf", "-inf"])
def test_gp_sim_non_finite_level_exits_one(tmp_path, capsys, level):
    for args in (["gp-sim"] + FAST_TRAJ, ["clipped-cov", "--t-max", "1"],
                 ["slepian-sample", "--grid-max", "1", "--paths", "2"]):
        out = tmp_path / "res.out"
        assert run(args + [f"--level={level}", "--out", str(out)]) == 1, args[0]
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == f"error: level must be finite, got {float(level)!r}\n"
        assert not out.exists()


@pytest.mark.parametrize("level", ["inf", "-inf", "nan"])
def test_iia_non_finite_level_exits_one(tmp_path, level):
    # a fresh interpreter, so that a warning would reach its stderr
    out = tmp_path / "res.json"
    proc = subprocess.run([sys.executable, "-m", "excursions.cli", "iia",
                           f"--level={level}", "--out", str(out)] + FAST_IIA,
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == f"error: level must be finite, got {float(level)!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("horizon, extra, message", [
    ("inf", [], "horizon must be finite and positive, got inf"),
    ("nan", [], "horizon must be finite and positive, got nan"),
    ("1e308", [], "horizon 1e+308 is too long: 10 paths of about inf switches each "
                  "do not fit in an array"),
    ("1e300", ["--stationary"], "horizon 1e+300 is too long: 10 paths of about "
                                "1.1e+300 switches each do not fit in an array"),
    ("1e12", [], "horizon 1000000000000.0 is too long: 10 paths of about 1.1e+12 "
                 "switches each do not fit in an array"),
], ids=["inf", "nan", "1e308", "1e300-stationary", "1e12"])
def test_switch_sim_non_finite_horizon_exits_one(tmp_path, capsys, horizon, extra, message):
    out = tmp_path / "sw.csv"
    assert run(["switch-sim", "--paths", "10", "--horizon", horizon,
                "--out", str(out)] + extra) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("points", ["0", "-1"])
def test_switch_sim_grid_points_below_one_exits_one(tmp_path, capsys, points):
    out = tmp_path / "sw.csv"
    assert run(["switch-sim", "--paths", "10", "--grid-points", points,
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == f"error: --grid-points must be at least 1, got {points}\n"
    assert not out.exists()


@pytest.mark.parametrize("dt", ["0", "-0.05", "nan", "inf"])
def test_bad_time_step_exits_one(capsys, dt):
    assert run(["table2", "--levels", "0", "--dt", dt] + FAST_TRAJ) == 1
    assert run(["gp-sim", "--level", "0", "--dt", dt] + FAST_TRAJ) == 1
    assert "dt must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("command, payload, key", [
    (["iia", "--level", "0"] + FAST_IIA, {"levels": "0,1"}, "levels"),
    (["iia", "--level", "0"] + FAST_IIA, {"samples_path": "x"}, "samples_path"),
    (["iia", "--level", "0"] + FAST_IIA, {"level": 0.5}, "level"),
    (["table1", "--levels", "0"] + FAST_IIA, {"level": 0.0}, "level"),
    (["table2", "--levels", "0"] + FAST_TRAJ, {"samples": 10}, "samples"),
    (["persistency", "--samples", "lengths.csv"], {"samples_path": "x"}, "samples_path"),
    (["switch-sim"], {"model": "diffusion"}, "model"),
])
def test_config_may_set_only_the_subcommands_optional_keys(tmp_path, capsys,
                                                           command, payload, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "res.out"
    assert run(command + ["--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert repr(key) in err
    assert not out.exists()


def test_trajectory_fit_errors_name_level_side_and_replicate(capsys):
    assert run(["table2", "--levels", "0,1", "--n-traj", "20", "--len", "2200",
                "--reps", "2"]) == 1
    assert capsys.readouterr().err == (
        "error: u = 0, above side, replicate 0: need at least 100 samples\n")


_REPLICATE_0 = "u = 0, above side, replicate 0: "


@pytest.mark.parametrize("samples, code, err", [
    (1, 1, f"error: {_REPLICATE_0}need at least 100 samples\n"),
    (99, 1, f"error: {_REPLICATE_0}need at least 100 samples\n"),
    (100, 2, f"numerical error: {_REPLICATE_0}tail window holds 1 points; need at least 10\n"),
    (117, 2, f"numerical error: {_REPLICATE_0}tail window holds 9 points; need at least 10\n"),
    (118, 0, ""),
])
def test_table1_sample_count_errors_name_level_side_and_replicate(capsys, samples, code, err):
    # the sample count is checked before the tail window it sets
    assert run(["table1", "--levels", "0,1", "--samples", str(samples), "--reps", "2",
                "--grid-max", "120", "--grid-step", "0.02"]) == code
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("command", [["gp-sim", "--level", "0"], ["table2", "--levels", "0"]])
def test_trajectories_must_split_evenly_into_replicates(tmp_path, capsys, command):
    out = tmp_path / "res.json"
    assert run(command + ["--n-traj", "25", "--len", "1000", "--reps", "2",
                          "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: 25 trajectories do not split evenly into 2 replicates\n")
    assert not out.exists()


# the effective configuration each subcommand records in its manifest;
# config_hash, and so every result JSON, depends on exactly these keys,
# values and types
PINNED_CONFIGS = {
    "iia": (["iia", "--level", "0.5", "--samples", "2000", "--reps", "2",
             "--grid-step", "0.02", "--config", {"grid_max": 120, "seed": 5}],
            {"cdf_csv": None, "command": "iia", "dim": 2, "grid_max": 120.0,
             "grid_step": 0.02, "level": 0.5, "model": "diffusion", "reps": 2,
             "samples": 2000, "samples_csv": None, "seed": 5}),
    "gp-sim": (["gp-sim", "--level", "0", "--n-traj", "20", "--len", "8000",
                "--reps", "2", "--seed", "3"],
               {"command": "gp-sim", "dim": 2, "dt": 0.05, "len": 8000, "level": 0.0,
                "model": "diffusion", "n_traj": 20, "reps": 2, "seed": 3}),
    "switch-sim": (["switch-sim", "--paths", "50", "--horizon", "2", "--grid-points",
                    "5", "--config",
                    {"stationary": True, "plus": "erlang:2:1.0", "out": None}],
                   {"command": "switch-sim", "grid_points": 5, "horizon": 2.0,
                    "minus": "exp:1.0", "p0": 0.5, "paths": 50,
                    "plus": "erlang:2:1.0", "seed": 12345, "stationary": True}),
    "clipped-cov": (["clipped-cov", "--level", "1", "--t-max", "1", "--step", "0.5"],
                    {"command": "clipped-cov", "dim": 2, "level": 1.0,
                     "model": "diffusion", "seed": 12345, "step": 0.5, "t_max": 1.0}),
    "slepian-sample": (["slepian-sample", "--level", "0", "--grid-max", "1",
                        "--grid-step", "0.5", "--paths", "2"],
                       {"command": "slepian-sample", "dim": 2, "grid_max": 1.0,
                        "grid_step": 0.5, "level": 0.0, "model": "diffusion",
                        "paths": 2, "seed": 12345}),
    "persistency": (["persistency", "--samples", "LENGTHS", "--reps", "2",
                     "--min-tail", "20"],
                    {"command": "persistency", "min_tail": 20, "reps": 2,
                     "samples_path": "LENGTHS", "seed": 12345}),
    "table1": (["table1", "--levels", "0", "--samples", "2000", "--reps", "2",
                "--grid-max", "120", "--grid-step", "0.02"],
               {"command": "table1", "dim": 2, "grid_max": 120.0, "grid_step": 0.02,
                "levels": "0", "model": "diffusion", "reps": 2, "samples": 2000,
                "seed": 12345}),
    "table2": (["table2", "--levels", "0.5", "--n-traj", "20", "--len", "8000",
                "--reps", "2", "--dt", "0.05"],
               {"command": "table2", "dim": 2, "dt": 0.05, "len": 8000,
                "levels": "0.5", "model": "diffusion", "n_traj": 20, "reps": 2,
                "seed": 12345}),
}


@pytest.mark.parametrize("command", sorted(PINNED_CONFIGS))
def test_effective_config_is_pinned(tmp_path, capsys, command):
    args, expected = PINNED_CONFIGS[command]
    lengths = tmp_path / "lengths.csv"
    lengths.write_text("length\n" + "\n".join(
        repr(float(x)) for x in np.random.default_rng(1).exponential(2.0, 400)) + "\n")
    argv = []
    for arg in args:
        if isinstance(arg, dict):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(arg))
            arg = str(cfg)
        argv.append(str(lengths) if arg == "LENGTHS" else arg)
    out = tmp_path / "res.out"
    assert run(argv + ["--out", str(out)]) == 0
    config = json.loads((tmp_path / "res.out.manifest.json").read_text())["config"]
    assert config.pop("out") == str(out)
    if "samples_path" in expected:
        expected = dict(expected, samples_path=str(lengths))
    assert config == expected
    # 120 == 120.0, but the two hash differently
    assert {k: type(v) for k, v in config.items()} == \
        {k: type(v) for k, v in expected.items()}


@pytest.mark.parametrize("args", [
    ["switch-sim", "--minus", "erlang:2:1.0", "--stationary", "--paths", "200",
     "--horizon", "3", "--grid-points", "7", "--seed", "3"],
    ["clipped-cov", "--level", "0", "--t-max", "2", "--step", "0.5"],
    ["clipped-cov", "--level", "0.7", "--t-max", "2", "--step", "0.25"],
    ["slepian-sample", "--level", "1.0", "--grid-max", "2", "--grid-step", "0.5",
     "--paths", "3", "--seed", "2"],
])
def test_csv_on_stdout_matches_the_file(tmp_path, capsys, args):
    out = tmp_path / "curve.csv"
    assert run(args + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert run(args) == 0
    printed = capsys.readouterr().out
    assert printed.count("\n") > 2
    assert printed.encode() == out.read_bytes()


@pytest.mark.parametrize("args", [
    ["clipped-cov", "--level", "0", "--step", "0"],
    ["clipped-cov", "--level", "0", "--step", "nan"],
    ["clipped-cov", "--level", "0", "--step", "-0.05"],
    ["clipped-cov", "--level", "0", "--t-max", "inf"],
    ["slepian-sample", "--level", "0", "--grid-step", "0"],
    ["slepian-sample", "--level", "0", "--grid-max", "nan"],
    ["iia", "--level", "0"] + FAST_IIA + ["--grid-max", "inf"],
    ["table1", "--levels", "0"] + FAST_IIA + ["--grid-max", "inf"],
])
def test_bad_time_grid_exits_one(capsys, args):
    assert run(args) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ")


def _lengths_csv(path, tail=()):
    values = [repr(float(x)) for x in np.random.default_rng(4).exponential(2.0, 1000)]
    path.write_text("length\n" + "\n".join(values + list(tail)) + "\n")
    return str(path)


@pytest.mark.parametrize("tail", [["nan"] * 20, ["nan"] * 60, ["inf"] * 60])
@pytest.mark.parametrize("reps", ["1", "5"])
def test_persistency_rejects_non_finite_lengths(tmp_path, capsys, tail, reps):
    csv = _lengths_csv(tmp_path / "lengths.csv", tail)
    assert run(["persistency", "--samples", csv, "--reps", reps]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "samples must be positive and finite" in err


@pytest.mark.parametrize("min_tail", ["0", "-4"])
@pytest.mark.parametrize("reps", ["1", "5"])
def test_persistency_rejects_a_tail_count_below_one(tmp_path, capsys, min_tail, reps):
    csv = _lengths_csv(tmp_path / "lengths.csv")
    assert run(["persistency", "--samples", csv, "--reps", reps,
                "--min-tail", min_tail]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "min_tail_count must be at least 1" in err


def test_persistency_reps_below_one_is_an_error(tmp_path, capsys):
    csv = _lengths_csv(tmp_path / "lengths.csv")
    for reps in ("0", "-3"):
        assert run(["persistency", "--samples", csv, "--reps", reps]) == 1
        assert "--reps must be at least 1" in capsys.readouterr().err
    out = tmp_path / "fit.json"
    assert run(["persistency", "--samples", csv, "--reps", "1", "--out", str(out)]) == 0
    res = json.loads(out.read_text())
    assert res["reps"] == 1 and res["ci"] is None


@pytest.mark.parametrize("args", [
    ["iia", "--level", "0"] + FAST_IIA,
    ["gp-sim", "--level", "0"] + FAST_TRAJ,
    ["switch-sim", "--paths", "10"],
    ["slepian-sample", "--level", "0", "--paths", "2"],
    ["table1", "--levels", "0"] + FAST_IIA,
    ["table2", "--levels", "0"] + FAST_TRAJ,
], ids=lambda args: args[0])
def test_negative_seed_exits_one(tmp_path, capsys, args):
    out = tmp_path / "res.out"
    assert run(args + ["--seed", "-1", "--out", str(out)]) == 1
    config = tmp_path / "seed.json"
    config.write_text(json.dumps({"seed": -3}))
    assert run(args + ["--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == ("error: seed must be a non-negative integer, got -1\n"
                   "error: seed must be a non-negative integer, got -3\n")
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["slepian-sample", "--level", "0", "--paths", "2000"],
    ["switch-sim", "--paths", "10", "--grid-points", "20000"],
    ["clipped-cov", "--level", "0.5", "--t-max", "200", "--step", "0.001"],
], ids=lambda args: args[0])
def test_csv_to_a_reader_that_stops_early_exits_quietly(args):
    # as `| head -1` does: read the header, then close the pipe while the
    # command still has megabytes to write
    proc = subprocess.Popen([sys.executable, "-m", "excursions.cli"] + args,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"t,")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert err == b""


@pytest.mark.parametrize("p0, state", [("0", "+1"), ("1", "-1")])
def test_switch_sim_with_an_empty_initial_state_exits_one(tmp_path, capsys, p0, state):
    out = tmp_path / "sw.csv"
    assert run(["switch-sim", "--paths", "20", "--p0", p0, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == (f"error: no path starts in state {state}, so its columns would be "
                   "empty; give --p0 strictly between 0 and 1 and enough --paths\n")
    assert not out.exists()
