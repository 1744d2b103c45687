"""Command-line entry point and run orchestration.

Subcommands: ``iia``, ``gp-sim``, ``switch-sim``, ``clipped-cov``,
``slepian-sample``, ``persistency``, ``table1``, ``table2``.  Results
go to JSON, curves and samples to CSV, and every ``--out`` that names a
regular file gets a sidecar ``<out>.manifest.json`` with exactly the
keys ``artifact_version`` (the package version), ``config`` (the
effective configuration), ``config_hash``, ``seed`` and
``wall_clock_seconds``.  An ``--out`` that is not a regular file, such
as a FIFO or ``/dev/null``, gets no sidecar.
Result JSON contains only
deterministic fields: identical configurations (seed included)
reproduce it byte for byte.

``_COMMANDS`` is the one source of truth for the options.  Each
subcommand lists rows ``(key, type, default[, help])``, and ``--seed``
is one more row of every subcommand.  The rows generate the flag
``--key`` (dashes for underscores), the defaults of the effective
configuration and the checks on a ``--config`` file.  A ``bool`` type is
a switch, a tuple type lists the allowed values, and a ``_Required``
default marks ``--level`` and the ``persistency`` ``--samples``, which
must be given on the command line.

A JSON config file can set the subcommand's optional keys and ``seed``;
explicit flags win.  Each value it sets must have the declared type
(``None`` where the default is ``None``); any other key or value is a
``DomainError``.  An integer given for a float option is stored as a
float, so it records and hashes as the flag would.  A negative seed,
from either source, is a ``DomainError``.

Exit codes: 0 on success, 1 for bad input (``DomainError``) or a run
that runs out of memory (``MemoryError``, reported on one line as
``error: out of memory: ...``), 2 for a numerical failure (other
``ExcursionError``) and 64 for a usage error.
A reader that closes stdout early, as ``| head`` does, also ends the run
with 0 and nothing on stderr: the rest of the output is discarded.

A subcommand of either family makes that family's one estimator call,
:func:`iia.persistency_table` for ``iia`` and ``table1`` and
:func:`gpsim.persistency_from_trajectories` for ``gp-sim`` and
``table2``, which own the seed tree and the thread pool, through one
helper that returns a row per level: ``level``, ``theta_plus``,
``ci_plus``, ``theta_minus`` and ``ci_minus``.  The tables print and
write those rows; ``iia`` and ``gp-sim`` read the one row of their
``--level`` and add their own fields.  ``table2`` reads every level from
the same trajectories, and ``table1`` every level from the same
uniforms, one set per side and replicate, so a row of either table
equals ``gp-sim`` or ``iia`` at that level with the same seed and sizes.
For ``iia`` and ``table1``, ``--grid-max`` caps the divisor grid, which
the covariance sizes; ``iia --cdf-csv`` writes that grid up to its sized
end, and ``--samples-csv`` draws from the laws the row's model solved.

:func:`run` freezes the garbage collector's view of everything alive
when it starts (:func:`gc.freeze`), so that a process which exits after
one run does not walk numpy's and the package's import-time objects in
its exit-time collections.  The run's own objects are collected as usual,
and every file it writes is closed before it returns.

Importing this module loads no scipy, and neither does any subcommand
but ``clipped-cov``, whose Owen's T is ``scipy.special.owens_t`` and is
imported on first use.  ``switch-sim`` only draws from its laws, so even
an ``erlang:`` law, whose CDF is ``scipy.special.gammainc``, loads none.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import itertools
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .clipped import arcsin_covariance, clipped_covariance
from .covmodel import diffusion_covariance
from .errors import DomainError, ExcursionError
from .gpsim import persistency_from_trajectories, rice_crossing_rate
from .iia import persistency_table, sample_excursion
from .numerics import uniform_grid
from .persistency import aggregate_fits, fit_persistency, labelled_fit
from .slepian import sample_slepian_path
from .switchproc import estimate_characteristics, interval_from_spec, simulate_switch_paths

DEFAULT_SEED = 12345

USAGE_EXIT = 64

_MODELS = {"diffusion": diffusion_covariance}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-1e-3" and "-inf" as flags; no option here looks like
        # a number, so a token that begins like a negative float is a value
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_EXIT)


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Required:
    """Default of an option that must be given on the command line."""

    flag: str | None = None     # the flag, when it is not ``--key``


def _has_type(value, kind) -> bool:
    if isinstance(kind, tuple):
        return value in kind
    if isinstance(value, bool) and kind is not bool:
        return False
    return isinstance(value, (int, float) if kind is float else kind)


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


def _merged_config(ns: argparse.Namespace) -> dict:
    """Defaults, then the ``--config`` file, then the explicit flags."""
    options = _options(ns.command)
    cfg = {key: default for key, _, default, *_ in options
           if not isinstance(default, _Required)}
    if ns.config:
        loaded = _load_config(ns.config)
        unknown = sorted(set(loaded) - set(cfg))
        if unknown:
            raise DomainError(f"config keys {unknown} are not optional settings "
                              f"of {ns.command}")
        kinds = {key: kind for key, kind, *_ in options}
        for key, value in loaded.items():
            kind = kinds[key]
            if not (value is None and cfg[key] is None or _has_type(value, kind)):
                want = (f"one of {list(kind)}" if isinstance(kind, tuple)
                        else f"of type {kind.__name__}")
                raise DomainError(f"config key {key!r} must be {want}, got {value!r}")
            # a JSON integer for a float option is the setting the flag gives
            cfg[key] = float(value) if kind is float and value is not None else value
    cfg.update((k, v) for k, v in vars(ns).items() if k != "config")
    if cfg["seed"] < 0:
        raise DomainError(f"seed must be a non-negative integer, got {cfg['seed']}")
    return cfg


_OUTPUT_KEYS = ("out", "cdf_csv", "samples_csv")


def _config_hash(cfg: dict) -> str:
    # output paths are plumbing, not run identity: two runs of the same
    # computation must hash alike wherever their files land
    payload = {k: v for k, v in cfg.items() if k not in _OUTPUT_KEYS}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _output(out: str | None):
    """A text stream to the file ``out``, or to stdout when ``out`` is not given."""
    if not out:
        return contextlib.nullcontext(sys.stdout)
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w")


def _write_json(payload: dict, out: str | None) -> None:
    with _output(out) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_manifest(cfg: dict, started: float) -> None:
    # a FIFO or a device, such as /dev/null, gets no sidecar beside it
    if not (cfg["out"] and Path(cfg["out"]).is_file()):
        return
    _write_json({
        "artifact_version": __version__,
        "config": cfg,
        "config_hash": _config_hash(cfg),
        "seed": cfg["seed"],
        "wall_clock_seconds": round(time.monotonic() - started, 3),
    }, cfg["out"] + ".manifest.json")


def _fmt_cell(x) -> str:
    return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)


def _write_csv(out: str | None, header: str, rows) -> None:
    with _output(out) as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(x) for x in row) + "\n")


def _model_from(cfg: dict):
    return _MODELS[cfg["model"]](cfg["dim"])


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

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


def _level_rows(cfg: dict, levels: list) -> tuple:
    """The covariance model and one entry per level of ``levels``.

    The entries come from the family's one estimator call: ``(row, iia)``
    from :func:`iia.persistency_table` for ``iia`` and ``table1``, and
    ``(row,)`` from :func:`gpsim.persistency_from_trajectories` for
    ``gp-sim`` and ``table2``.  A row holds ``level``, ``theta_plus``,
    ``ci_plus``, ``theta_minus`` and ``ci_minus``.
    """
    model = _model_from(cfg)
    if "samples" in cfg:        # iia and table1; gp-sim and table2 size trajectories
        estimates = persistency_table(model, levels, cfg["samples"], cfg["reps"],
                                      cfg["seed"], cfg["grid_max"], cfg["grid_step"])
    else:
        estimates = persistency_from_trajectories(model, levels, cfg["n_traj"], cfg["len"],
                                                  cfg["dt"], cfg["seed"], cfg["reps"])
    return model, [({"level": level,
                     "theta_plus": above.mean_theta, "ci_plus": above.half_width,
                     "theta_minus": below.mean_theta, "ci_minus": below.half_width}, *iia)
                    for level, (*iia, above, below) in zip(levels, estimates)]


def _cmd_iia(cfg: dict) -> None:
    _, [(row, iia)] = _level_rows(cfg, [cfg["level"]])
    _write_json({**row, "alpha": iia.alpha, "n_samples": cfg["samples"], "reps": cfg["reps"],
                 "seed": cfg["seed"], "config_hash": _config_hash(cfg)}, cfg["out"])
    if cfg["cdf_csv"]:
        _write_csv(cfg["cdf_csv"], "t,f_x,f_y",
                   zip(iia.f_x_cdf.points, iia.f_x_cdf.values, iia.f_y_cdf.values))
    if cfg["samples_csv"]:
        extra_seeds = np.random.SeedSequence(cfg["seed"]).spawn(3)
        for side, s in zip(("above", "below"), extra_seeds[1:]):
            draws = sample_excursion(iia, side, min(cfg["samples"], 100_000), s)
            _write_csv(f"{cfg['samples_csv']}.{side}.csv", "length",
                       ((x,) for x in draws))


def _cmd_gp_sim(cfg: dict) -> None:
    model, [(row,)] = _level_rows(cfg, [cfg["level"]])
    _write_json({**row, "n_traj": cfg["n_traj"], "traj_len": cfg["len"], "dt": cfg["dt"],
                 "rice_rate": rice_crossing_rate(model, cfg["level"]),
                 "seed": cfg["seed"], "config_hash": _config_hash(cfg)}, cfg["out"])


# the CharacteristicEstimate fields that switch-sim writes after its grid t
_SWITCH_COLUMNS = ("p_plus", "se_p_plus", "p_minus", "se_p_minus", "e_plus", "se_e_plus",
                   "e_minus", "se_e_minus", "covariance", "se_covariance",
                   "counts_plus", "se_counts_plus", "counts_minus", "se_counts_minus")


def _cmd_switch_sim(cfg: dict) -> None:
    plus = interval_from_spec(cfg["plus"])
    minus = interval_from_spec(cfg["minus"])
    if cfg["grid_points"] < 1:
        raise DomainError(f"--grid-points must be at least 1, got {cfg['grid_points']}")
    paths = simulate_switch_paths(plus, minus, cfg["paths"], cfg["horizon"],
                                  cfg["seed"], stationary=cfg["stationary"],
                                  p0=cfg["p0"])
    grid = np.linspace(0.0, cfg["horizon"], cfg["grid_points"])
    est = estimate_characteristics(paths, grid)
    for state, size in (("+1", est.n_plus), ("-1", est.n_minus)):
        if size == 0:
            raise DomainError(f"no path starts in state {state}, so its columns "
                              "would be empty; give --p0 strictly between 0 and 1 "
                              "and enough --paths")
    _write_csv(cfg["out"], ",".join(("t", *_SWITCH_COLUMNS)),
               zip(est.grid, *(getattr(est, name) for name in _SWITCH_COLUMNS)))


def _cmd_clipped_cov(cfg: dict) -> None:
    model = _model_from(cfg)
    t = uniform_grid(cfg["t_max"], cfg["step"])
    columns = [t, clipped_covariance(model, cfg["level"], t)]
    header = "t,value"
    if cfg["level"] == 0.0:
        columns.append(arcsin_covariance(model, t))
        header += ",arcsin_reference"
    _write_csv(cfg["out"], header, zip(*columns))


def _cmd_slepian_sample(cfg: dict) -> None:
    model = _model_from(cfg)
    grid = uniform_grid(cfg["grid_max"], cfg["grid_step"])
    det, slope, residual = sample_slepian_path(model, cfg["level"], grid, cfg["paths"],
                                               cfg["seed"])
    total = det + slope + residual
    _write_csv(cfg["out"], "t,deterministic,slope_component,residual,total,replicate_id",
               (row for rep in range(cfg["paths"])
                for row in zip(grid, det, slope[rep], residual[rep], total[rep],
                               itertools.repeat(rep))))


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


def _cmd_persistency(cfg: dict) -> None:
    samples = _load_samples(cfg["samples_path"])
    reps = cfg["reps"]
    if reps < 1:
        raise DomainError(f"--reps must be at least 1, got {reps}")
    if reps > 1:
        est = aggregate_fits([labelled_fit(chunk, f"replicate {i}", cfg["min_tail"])
                              for i, chunk in enumerate(np.array_split(samples, reps))])
        result = {"theta": est.mean_theta, "ci": est.half_width, "reps": reps}
    else:
        fit = fit_persistency(samples, cfg["min_tail"])
        result = {"theta": fit.theta, "ci": None, "reps": 1,
                  "r_squared": fit.r_squared}
    result.update({"n_samples": int(len(samples)), "seed": cfg["seed"],
                   "config_hash": _config_hash(cfg)})
    _write_json(result, cfg["out"])


def _cmd_table(cfg: dict) -> None:
    """``table1`` (approximation side) or ``table2`` (trajectory side)."""
    rows = [row for row, *_ in _level_rows(cfg, _parse_levels(cfg["levels"]))[1]]
    line = "u = %-5g  theta+ = %.4f (+-%.4f)   theta- = %.4f (+-%.4f)"
    for r in rows:
        print(line % (r["level"], r["theta_plus"], r["ci_plus"],
                      r["theta_minus"], r["ci_minus"]))
    if cfg["out"]:
        _write_json({"rows": rows, "seed": cfg["seed"], "config_hash": _config_hash(cfg)},
                    cfg["out"])


# ---------------------------------------------------------------------------
# option table and parser
# ---------------------------------------------------------------------------

_SEED = ("seed", int, DEFAULT_SEED)
_MODEL = (("model", tuple(_MODELS), "diffusion"), ("dim", int, 2))
_LEVEL = ("level", float, _Required())
_LEVELS = ("levels", str, "0,0.5,1,1.25")
_IIA_SIZES = (("samples", int, 1_000_000), ("reps", int, 10),
              ("grid_max", float, 200.0), ("grid_step", float, 0.01))
_TRAJ_SIZES = (("n_traj", int, 1000), ("len", int, 10_000), ("dt", float, 0.05),
               ("reps", int, 10))
_OUT = ("out", str, None)

# subcommand -> (handler, help, option rows after --seed)
_COMMANDS = {
    "iia": (_cmd_iia, "level-excursion approximation at one level", (
        *_MODEL, _LEVEL, *_IIA_SIZES, _OUT,
        ("cdf_csv", str, None, "write the tabulated divisor CDFs"),
        ("samples_csv", str, None, "prefix for per-side excursion sample files"))),
    "gp-sim": (_cmd_gp_sim, "trajectory-based persistency estimation",
               (*_MODEL, _LEVEL, *_TRAJ_SIZES, _OUT)),
    "switch-sim": (_cmd_switch_sim, "switch-process simulation and characteristics", (
        ("plus", str, "exp:1.0", "e.g. exp:1.0, erlang:2:1.0, det:1.0"),
        ("minus", str, "exp:1.0"), ("p0", float, 0.5), ("stationary", bool, False),
        ("paths", int, 1000), ("horizon", float, 10.0), ("grid_points", int, 51), _OUT)),
    "clipped-cov": (_cmd_clipped_cov, "clipped covariance curve",
                    (*_MODEL, _LEVEL, ("t_max", float, 20.0), ("step", float, 0.05), _OUT)),
    "slepian-sample": (_cmd_slepian_sample, "crossing-decomposition path samples", (
        *_MODEL, _LEVEL, ("grid_max", float, 20.0), ("grid_step", float, 0.05),
        ("paths", int, 10), _OUT)),
    "persistency": (_cmd_persistency, "tail fit of an excursion sample CSV", (
        ("samples_path", str, _Required("--samples"), "CSV of excursion lengths, one per line"),
        ("reps", int, 10), ("min_tail", int, 50), _OUT)),
    "table1": (_cmd_table, "approximation-side persistency table",
               (*_MODEL, *_IIA_SIZES, _LEVELS, _OUT)),
    "table2": (_cmd_table, "trajectory-side persistency table",
               (*_MODEL, *_TRAJ_SIZES, _LEVELS, _OUT)),
}


def _options(command: str) -> tuple:
    return (_SEED,) + _COMMANDS[command][2]


def _build_parser(command: str | None = None) -> _Parser:
    """The parser of every subcommand, or of ``command`` alone.

    A subcommand's parser is the same either way, so ``command``'s own
    parse, help and errors are the full parser's, and none of them lists
    the other subcommands.
    """
    parser = _Parser(prog="excursions",
                     description="Level-excursion approximation toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_, _) in _COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", default=None,
                       help="JSON config merged under explicit flags")
        for key, kind, default, *text in _options(name):
            flag = "--" + key.replace("_", "-")
            kw = {"dest": key, "help": text[0] if text else None}
            if isinstance(default, _Required):
                flag = default.flag or flag
                kw["required"] = True
            else:
                kw["default"] = argparse.SUPPRESS
            if kind is bool:
                kw["action"] = "store_true"
            elif isinstance(kind, tuple):
                kw["choices"] = kind
            else:
                kw["type"] = kind
            p.add_argument(flag, **kw)
    return parser


def run(argv) -> int:
    """Parse and dispatch; returns the process exit code.

    When ``argv[0]`` names a subcommand, the parser holds that
    subcommand alone; its parse and help are the full parser's.

    ``run`` first calls :func:`gc.freeze`, which moves every object alive
    at entry, those the imports and the caller made, into the collector's
    permanent generation.  A process that exits after the run then skips
    them in its exit-time collections: after ``import numpy`` alone, a
    process took 26 ms to exit, and 7 ms with its objects frozen (medians
    of 12 on 2 vCPU).  Objects the run makes are collected as usual.  The
    one effect in-process is that cyclic garbage among the objects alive
    at entry is never collected.  Frozen objects may also not be
    finalised at exit, so every file the run writes is closed before it
    returns.

    A run that runs out of memory, such as ``table1`` with more samples
    than the host can hold, ends with exit 1 and one ``error: out of
    memory`` line on stderr, not a traceback.
    """
    gc.freeze()
    try:
        ns = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None
                           ).parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else USAGE_EXIT
    started = time.monotonic()
    try:
        cfg = _merged_config(ns)
        _COMMANDS[ns.command][0](cfg)
        _write_manifest(cfg, started)
        sys.stdout.flush()      # a closed pipe raises here, not at shutdown
        return 0
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull so that the flush
        # at shutdown finds somewhere to put what is left
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError as exc:
        sys.stderr.write(f"error: out of memory: {str(exc) or 'allocation failed'}\n")
        return 1
    except ExcursionError as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
