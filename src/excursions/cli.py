"""Command-line entry point and run orchestration.

Subcommands: ``iia``, ``gp-sim``, ``switch-sim``, ``clipped-cov``,
``slepian-sample``, ``persistency``, ``table1``, ``table2``.  Results
go to JSON, curves and samples to CSV, and every file output gets a
sidecar ``<out>.manifest.json`` recording the effective configuration,
its hash, the seed and wall-clock time.  Result JSON contains only
deterministic fields: identical configurations (seed included)
reproduce it byte for byte.

A JSON config file can set any flag's value; explicit flags win.  Each
value it sets must have the type of the flag's default.

``iia`` and ``table1`` draw and fit every (level, side, replicate) as one
task of a single thread pool; ``table2`` and ``gp-sim`` simulate every
(level, replicate) trajectory batch and extract its excursions as one
task of the same kind of pool, then fit each (level, side) in replicate
order.  ``EXCURSION_IIA_THREADS``, a positive integer, caps the pool's
size (default ``min(4, cpu_count)``).  Seeds are spawned before any task
runs, so results do not depend on the pool size.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .clipped import arcsin_covariance, clipped_covariance
from .covmodel import diffusion_covariance
from .errors import DomainError, ExcursionError, FitError
from .gpsim import pooled_excursions, rice_crossing_rate
from .iia import build_iia, sample_excursion
from .persistency import aggregate_fits, batch_ci, fit_persistency
from .slepian import sample_slepian_path
from .switchproc import estimate_characteristics, interval_from_spec, simulate_switch_paths

DEFAULT_SEED = 12345
DEFAULT_LEVELS = (0.0, 0.5, 1.0, 1.25)

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _max_workers(n_items: int) -> int:
    raw = os.environ.get("EXCURSION_IIA_THREADS")
    if not raw:
        return max(1, min(n_items, 4, os.cpu_count() or 1))
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise DomainError(
            f"EXCURSION_IIA_THREADS must be a positive integer, got {raw!r}")
    return max(1, min(n_items, cap))


def _parallel_map(fn, items):
    workers = _max_workers(len(items))
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

# the type a config file must give each key that has no default or a
# None default; the others take the type of their default
_CONFIG_TYPES = {"seed": int, "level": float, "levels": str, "samples_path": str,
                 "out": str, "cdf_csv": str, "samples_csv": str}


def _check_config_type(key, value, default) -> None:
    if value is None and default is None:
        return
    want = type(default) if default is not None else _CONFIG_TYPES[key]
    if want is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif want is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, want)
    if not ok:
        raise DomainError(f"config key {key!r} must be of type {want.__name__}, "
                          f"got {value!r}")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read config file {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise DomainError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise DomainError(f"config file {path} must hold a JSON object")
    return loaded


def _merged_config(defaults: dict, ns: argparse.Namespace) -> dict:
    explicit = {k: v for k, v in vars(ns).items()
                if k not in ("func", "config") and v is not argparse.SUPPRESS}
    cfg = dict(defaults)
    path = getattr(ns, "config", None)
    if path:
        loaded = _load_config(path)
        unknown = set(loaded) - set(defaults) - {"seed", "level", "levels",
                                                 "samples_path"}
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        for key, value in loaded.items():
            _check_config_type(key, value, defaults.get(key))
        cfg.update(loaded)
    cfg.update(explicit)
    cfg.setdefault("seed", DEFAULT_SEED)
    return cfg


_OUTPUT_KEYS = ("out", "cdf_csv", "samples_csv")


def _config_hash(cfg: dict) -> str:
    # output paths are plumbing, not run identity: two runs of the same
    # computation must hash alike wherever their files land
    payload = {k: v for k, v in cfg.items() if k not in _OUTPUT_KEYS}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _write_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    else:
        sys.stdout.write(text)


def _write_manifest(cfg: dict, out: str | None, provenance: dict,
                    started: float) -> None:
    if not out:
        return
    manifest = {
        "artifact_version": __version__,
        "config": cfg,
        "config_hash": _config_hash(cfg),
        "seed": cfg.get("seed"),
        "wall_clock_seconds": round(time.monotonic() - started, 3),
        "provenance": provenance,
    }
    path = Path(str(out) + ".manifest.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _fmt_cell(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, np.integer):
        return str(int(x))
    return str(x)


def _write_csv(out: str, header: str, rows) -> None:
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(x) for x in row) + "\n")


def _model_from(cfg: dict):
    name = cfg.get("model", "diffusion")
    if name == "diffusion":
        return diffusion_covariance(int(cfg.get("dim", 2)))
    raise DomainError(f"unknown model {name!r}")


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _level_estimates(model, levels, level_seeds, samples, reps, grid_max, grid_step,
                     min_tail=50):
    """Build the approximation at each level and fit both sides of each.

    Returns one ``(iia, above, below)`` per level.  Every (level, side,
    replicate) draw and fit is one task of a single pool, so levels
    overlap as well as sides and replicates.  Each level seed spawns
    one seed per side and each side seed one per replicate.
    """
    if reps < 2:
        raise DomainError("need at least two replicates")
    iias = [build_iia(model, u, t_max=grid_max, step=grid_step) for u in levels]
    tasks = [(iia, side, i, rep_seed)
             for iia, sseq in zip(iias, level_seeds)
             for side, root in zip(("above", "below"), sseq.spawn(2))
             for i, rep_seed in enumerate(root.spawn(reps))]

    def fit(task):
        iia, side, i, rep_seed = task
        try:
            return fit_persistency(sample_excursion(iia, side, samples, rep_seed),
                                   min_tail)
        except FitError as exc:
            raise FitError(f"u = {iia.level:g}, {side} side, replicate {i}: {exc}") \
                from exc

    fits = _parallel_map(fit, tasks)
    sides = [aggregate_fits(fits[j:j + reps]) for j in range(0, len(fits), reps)]
    return [(iia, sides[2 * k], sides[2 * k + 1]) for k, iia in enumerate(iias)]


def _trajectory_estimates(model, levels, level_seeds, n_traj, traj_len, dt, reps):
    """Trajectory-side persistency (above, below) at each level.

    Every (level, replicate) batch of ``n_traj // reps`` trajectories is
    one task of a single pool; each level seed spawns one seed per
    replicate, as :func:`gpsim.persistency_from_trajectories` does.
    """
    if reps < 2:
        raise DomainError("need at least two replicates")
    if n_traj < reps:
        raise DomainError("need at least one trajectory per replicate")
    per_rep = n_traj // reps
    tasks = [(u, rep_seed) for u, sseq in zip(levels, level_seeds)
             for rep_seed in sseq.spawn(reps)]
    pools = _parallel_map(
        lambda task: pooled_excursions(model, task[0], dt, traj_len, per_rep, task[1]),
        tasks)
    by_level = [pools[j:j + reps] for j in range(0, len(pools), reps)]
    return [tuple(batch_ci(lambda i: level[i][side], reps) for side in (0, 1))
            for level in by_level]


def _parse_levels(text) -> list[float]:
    levels = []
    for item in str(text).split(","):
        try:
            u = float(item)
        except ValueError:
            u = math.nan
        if not math.isfinite(u):
            raise DomainError(f"--levels entries must be finite numbers, got {item!r}")
        levels.append(u)
    return levels


def _cmd_iia(cfg: dict) -> int:
    started = time.monotonic()
    model = _model_from(cfg)
    [(iia, above, below)] = _level_estimates(
        model, [cfg["level"]], [np.random.SeedSequence(cfg["seed"])],
        cfg["samples"], cfg["reps"], cfg["grid_max"], cfg["grid_step"])
    result = {
        "level": cfg["level"],
        "alpha": iia.alpha,
        "theta_plus": above.mean_theta,
        "theta_minus": below.mean_theta,
        "ci_plus": above.half_width,
        "ci_minus": below.half_width,
        "n_samples": cfg["samples"],
        "reps": cfg["reps"],
        "seed": cfg["seed"],
        "config_hash": _config_hash(cfg),
    }
    _write_json(result, cfg.get("out"))
    if cfg.get("cdf_csv"):
        _write_csv(cfg["cdf_csv"], "t,f_x,f_y",
                   zip(iia.f_x_cdf.points, iia.f_x_cdf.values, iia.f_y_cdf.values))
    if cfg.get("samples_csv"):
        extra_seeds = np.random.SeedSequence(cfg["seed"]).spawn(3)
        for side, s in (("above", extra_seeds[1]), ("below", extra_seeds[2])):
            draws = sample_excursion(iia, side, min(cfg["samples"], 100_000), s)
            _write_csv(f"{cfg['samples_csv']}.{side}.csv", "length",
                       ((float(x),) for x in draws))
    _write_manifest(cfg, cfg.get("out"), {
        "alpha": "iia.build_iia",
        "theta_plus/theta_minus": "iia.sample_excursion + persistency.fit_persistency",
        "ci_plus/ci_minus": "persistency.aggregate_fits",
    }, started)
    return 0


def _cmd_gp_sim(cfg: dict) -> int:
    started = time.monotonic()
    model = _model_from(cfg)
    [(above, below)] = _trajectory_estimates(
        model, [cfg["level"]], [np.random.SeedSequence(cfg["seed"])],
        cfg["n_traj"], cfg["len"], cfg["dt"], cfg["reps"])
    result = {
        "level": cfg["level"],
        "theta_plus": above.mean_theta,
        "theta_minus": below.mean_theta,
        "ci_plus": above.half_width,
        "ci_minus": below.half_width,
        "n_traj": cfg["n_traj"],
        "traj_len": cfg["len"],
        "dt": cfg["dt"],
        "rice_rate": rice_crossing_rate(model, cfg["level"]),
        "seed": cfg["seed"],
        "config_hash": _config_hash(cfg),
    }
    _write_json(result, cfg.get("out"))
    _write_manifest(cfg, cfg.get("out"), {
        "theta_plus/theta_minus":
            "gpsim.simulate_gp_batch + gpsim.extract_excursions + persistency.batch_ci",
        "rice_rate": "gpsim.rice_crossing_rate",
    }, started)
    return 0


def _cmd_switch_sim(cfg: dict) -> int:
    started = time.monotonic()
    plus = interval_from_spec(cfg["plus"])
    minus = interval_from_spec(cfg["minus"])
    paths = simulate_switch_paths(plus, minus, cfg["paths"], cfg["horizon"],
                                  cfg["seed"], stationary=cfg["stationary"],
                                  p0=cfg["p0"])
    grid = np.linspace(0.0, cfg["horizon"], cfg["grid_points"])
    est = estimate_characteristics(paths, grid)
    rows = zip(est.grid, est.p_plus, est.se_p_plus, est.p_minus, est.se_p_minus,
               est.e_plus, est.se_e_plus, est.e_minus, est.se_e_minus,
               est.covariance, est.se_covariance,
               est.counts_plus, est.se_counts_plus,
               est.counts_minus, est.se_counts_minus)
    header = ("t,p_plus,se_p_plus,p_minus,se_p_minus,e_plus,se_e_plus,"
              "e_minus,se_e_minus,covariance,se_covariance,"
              "counts_plus,se_counts_plus,counts_minus,se_counts_minus")
    if cfg.get("out"):
        _write_csv(cfg["out"], header, rows)
    else:
        sys.stdout.write(header + "\n")
        for row in rows:
            sys.stdout.write(",".join(repr(float(x)) for x in row) + "\n")
    _write_manifest(cfg, cfg.get("out"), {
        "curves": "switchproc.simulate_switch_paths + switchproc.estimate_characteristics",
    }, started)
    return 0


def _cmd_clipped_cov(cfg: dict) -> int:
    started = time.monotonic()
    model = _model_from(cfg)
    n = int(round(cfg["t_max"] / cfg["step"]))
    t = np.linspace(0.0, n * cfg["step"], n + 1)
    vals = clipped_covariance(model, cfg["level"], t)
    if cfg["level"] == 0.0:
        ref = arcsin_covariance(model, t)
        rows = zip(t, vals, ref)
        header = "t,value,arcsin_reference"
    else:
        rows = zip(t, vals)
        header = "t,value"
    if cfg.get("out"):
        _write_csv(cfg["out"], header, rows)
    else:
        sys.stdout.write(header + "\n")
        for row in rows:
            sys.stdout.write(",".join(repr(float(x)) for x in row) + "\n")
    _write_manifest(cfg, cfg.get("out"),
                    {"value": "clipped.clipped_covariance"}, started)
    return 0


def _cmd_slepian_sample(cfg: dict) -> int:
    started = time.monotonic()
    model = _model_from(cfg)
    n = int(round(cfg["grid_max"] / cfg["grid_step"]))
    grid = np.linspace(0.0, n * cfg["grid_step"], n + 1)
    paths = sample_slepian_path(model, cfg["level"], grid, cfg["paths"], cfg["seed"])
    rows = []
    for rep, p in enumerate(paths):
        total = p.total
        for i in range(len(grid)):
            rows.append((float(grid[i]), float(p.deterministic_part[i]),
                         float(p.slope_part[i]), float(p.residual_part[i]),
                         float(total[i]), rep))
    header = "t,deterministic,slope_component,residual,total,replicate_id"
    if cfg.get("out"):
        _write_csv(cfg["out"], header, rows)
    else:
        sys.stdout.write(header + "\n")
        for row in rows:
            sys.stdout.write(",".join(str(x) for x in row) + "\n")
    _write_manifest(cfg, cfg.get("out"),
                    {"paths": "slepian.sample_slepian_path"}, started)
    return 0


def _load_samples(path: str) -> np.ndarray:
    """First CSV column as floats; a non-numeric first line is the header."""
    raw = []
    try:
        with open(path) as fh:
            for number, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    raw.append(float(line.split(",")[0]))
                except ValueError:
                    if number > 1:
                        raise DomainError(
                            f"{path}, line {number}: not a number: {line[:40]!r}") from None
    except OSError as exc:
        raise DomainError(f"cannot read samples file {path}: {exc.strerror}") from exc
    return np.asarray(raw)


def _cmd_persistency(cfg: dict) -> int:
    started = time.monotonic()
    samples = _load_samples(cfg["samples_path"])
    reps = cfg["reps"]
    if reps > 1:
        chunks = np.array_split(samples, reps)
        est = batch_ci(lambda i: chunks[i], reps, cfg["min_tail"])
        result = {"theta": est.mean_theta, "ci": est.half_width, "reps": reps}
    else:
        fit = fit_persistency(samples, cfg["min_tail"])
        result = {"theta": fit.theta, "ci": None, "reps": 1,
                  "r_squared": fit.r_squared}
    result.update({"n_samples": int(len(samples)), "seed": cfg["seed"],
                   "config_hash": _config_hash(cfg)})
    _write_json(result, cfg.get("out"))
    _write_manifest(cfg, cfg.get("out"),
                    {"theta": "persistency.fit_persistency"}, started)
    return 0


def _cmd_table1(cfg: dict) -> int:
    started = time.monotonic()
    model = _model_from(cfg)
    levels = _parse_levels(cfg["levels"])
    level_seeds = np.random.SeedSequence(cfg["seed"]).spawn(len(levels))

    estimates = _level_estimates(model, levels, level_seeds, cfg["samples"],
                                 cfg["reps"], cfg["grid_max"], cfg["grid_step"])
    rows = [{
        "level": level,
        "theta_plus": above.mean_theta, "ci_plus": above.half_width,
        "theta_minus": below.mean_theta, "ci_minus": below.half_width,
    } for level, (_, above, below) in zip(levels, estimates)]
    _emit_table(rows, cfg, started,
                provenance="iia.sample_excursion + persistency.aggregate_fits")
    return 0


def _cmd_table2(cfg: dict) -> int:
    started = time.monotonic()
    model = _model_from(cfg)
    levels = _parse_levels(cfg["levels"])
    level_seeds = np.random.SeedSequence(cfg["seed"]).spawn(len(levels))

    estimates = _trajectory_estimates(model, levels, level_seeds, cfg["n_traj"],
                                      cfg["len"], cfg["dt"], cfg["reps"])
    rows = [{
        "level": level,
        "theta_plus": above.mean_theta, "ci_plus": above.half_width,
        "theta_minus": below.mean_theta, "ci_minus": below.half_width,
    } for level, (above, below) in zip(levels, estimates)]
    _emit_table(rows, cfg, started,
                provenance="gpsim.pooled_excursions + persistency.batch_ci")
    return 0


def _emit_table(rows: list[dict], cfg: dict, started: float, provenance: str) -> None:
    result = {"rows": rows, "seed": cfg["seed"], "config_hash": _config_hash(cfg)}
    line = "u = %-5g  theta+ = %.4f (+-%.4f)   theta- = %.4f (+-%.4f)"
    for r in rows:
        print(line % (r["level"], r["theta_plus"], r["ci_plus"],
                      r["theta_minus"], r["ci_minus"]))
    if cfg.get("out"):
        _write_json(result, cfg["out"])
    _write_manifest(cfg, cfg.get("out"), {"rows": provenance}, started)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "iia": {"model": "diffusion", "dim": 2, "samples": 1_000_000, "reps": 10,
            "grid_max": 200.0, "grid_step": 0.01, "out": None,
            "cdf_csv": None, "samples_csv": None, "level": None},
    "gp-sim": {"model": "diffusion", "dim": 2, "n_traj": 1000, "len": 10_000,
               "dt": 0.05, "reps": 10, "out": None, "level": None},
    "switch-sim": {"plus": "exp:1.0", "minus": "exp:1.0", "p0": 0.5,
                   "stationary": False, "paths": 1000, "horizon": 10.0,
                   "grid_points": 51, "out": None},
    "clipped-cov": {"model": "diffusion", "dim": 2, "t_max": 20.0,
                    "step": 0.05, "out": None, "level": None},
    "slepian-sample": {"model": "diffusion", "dim": 2, "grid_max": 20.0,
                       "grid_step": 0.05, "paths": 10, "out": None,
                       "level": None},
    "persistency": {"reps": 10, "min_tail": 50, "out": None,
                    "samples_path": None},
    "table1": {"model": "diffusion", "dim": 2, "samples": 1_000_000,
               "reps": 10, "grid_max": 200.0, "grid_step": 0.01,
               "levels": "0,0.5,1,1.25", "out": None},
    "table2": {"model": "diffusion", "dim": 2, "n_traj": 1000, "len": 10_000,
               "dt": 0.05, "reps": 10, "levels": "0,0.5,1,1.25", "out": None},
}

_HANDLERS = {
    "iia": _cmd_iia,
    "gp-sim": _cmd_gp_sim,
    "switch-sim": _cmd_switch_sim,
    "clipped-cov": _cmd_clipped_cov,
    "slepian-sample": _cmd_slepian_sample,
    "persistency": _cmd_persistency,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
}


def _build_parser() -> _Parser:
    sup = argparse.SUPPRESS
    parser = _Parser(prog="excursions",
                     description="Level-excursion approximation toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_, conf):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", default=None,
                       help="JSON config merged under explicit flags")
        p.add_argument("--seed", type=int, default=sup)
        conf(p)
        return p

    def common_model(p):
        p.add_argument("--model", default=sup, choices=["diffusion"])
        p.add_argument("--dim", type=int, default=sup)

    def conf_iia(p):
        common_model(p)
        p.add_argument("--level", type=float, required=True)
        p.add_argument("--samples", type=int, default=sup)
        p.add_argument("--reps", type=int, default=sup)
        p.add_argument("--grid-max", dest="grid_max", type=float, default=sup)
        p.add_argument("--grid-step", dest="grid_step", type=float, default=sup)
        p.add_argument("--out", default=sup)
        p.add_argument("--cdf-csv", dest="cdf_csv", default=sup,
                       help="write the tabulated divisor CDFs")
        p.add_argument("--samples-csv", dest="samples_csv", default=sup,
                       help="prefix for per-side excursion sample files")

    def conf_gp(p):
        common_model(p)
        p.add_argument("--level", type=float, required=True)
        p.add_argument("--n-traj", dest="n_traj", type=int, default=sup)
        p.add_argument("--len", dest="len", type=int, default=sup)
        p.add_argument("--dt", type=float, default=sup)
        p.add_argument("--reps", type=int, default=sup)
        p.add_argument("--out", default=sup)

    def conf_switch(p):
        p.add_argument("--plus", default=sup, help="e.g. exp:1.0, erlang:2:1.0, det:1.0")
        p.add_argument("--minus", default=sup)
        p.add_argument("--p0", type=float, default=sup)
        p.add_argument("--stationary", action="store_true", default=sup)
        p.add_argument("--paths", type=int, default=sup)
        p.add_argument("--horizon", type=float, default=sup)
        p.add_argument("--grid-points", dest="grid_points", type=int, default=sup)
        p.add_argument("--out", default=sup)

    def conf_clipped(p):
        common_model(p)
        p.add_argument("--level", type=float, required=True)
        p.add_argument("--t-max", dest="t_max", type=float, default=sup)
        p.add_argument("--step", type=float, default=sup)
        p.add_argument("--out", default=sup)

    def conf_slepian(p):
        common_model(p)
        p.add_argument("--level", type=float, required=True)
        p.add_argument("--grid-max", dest="grid_max", type=float, default=sup)
        p.add_argument("--grid-step", dest="grid_step", type=float, default=sup)
        p.add_argument("--paths", type=int, default=sup)
        p.add_argument("--out", default=sup)

    def conf_persistency(p):
        p.add_argument("--samples", dest="samples_path", required=True,
                       help="CSV of excursion lengths, one per line")
        p.add_argument("--reps", type=int, default=sup)
        p.add_argument("--min-tail", dest="min_tail", type=int, default=sup)
        p.add_argument("--out", default=sup)

    def conf_table1(p):
        common_model(p)
        p.add_argument("--samples", type=int, default=sup)
        p.add_argument("--reps", type=int, default=sup)
        p.add_argument("--grid-max", dest="grid_max", type=float, default=sup)
        p.add_argument("--grid-step", dest="grid_step", type=float, default=sup)
        p.add_argument("--levels", default=sup)
        p.add_argument("--out", default=sup)

    def conf_table2(p):
        common_model(p)
        p.add_argument("--n-traj", dest="n_traj", type=int, default=sup)
        p.add_argument("--len", dest="len", type=int, default=sup)
        p.add_argument("--dt", type=float, default=sup)
        p.add_argument("--reps", type=int, default=sup)
        p.add_argument("--levels", default=sup)
        p.add_argument("--out", default=sup)

    add("iia", "level-excursion approximation at one level", conf_iia)
    add("gp-sim", "trajectory-based persistency estimation", conf_gp)
    add("switch-sim", "switch-process simulation and characteristics", conf_switch)
    add("clipped-cov", "clipped covariance curve", conf_clipped)
    add("slepian-sample", "crossing-decomposition path samples", conf_slepian)
    add("persistency", "tail fit of an excursion sample CSV", conf_persistency)
    add("table1", "approximation-side persistency table", conf_table1)
    add("table2", "trajectory-side persistency table", conf_table2)
    return parser


def run(argv) -> int:
    """Parse and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else USAGE_EXIT
    try:
        cfg = _merged_config(_DEFAULTS[ns.command], ns)
        return _HANDLERS[ns.command](cfg)
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ExcursionError as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
