"""The command-line contract, walked over every numeric option of every
subcommand: whatever number an option is given, the run ends with one of
the documented exit codes, prints no traceback, raises no warning, and a
run that succeeds writes only finite numbers.

Each case is one in-process :func:`cli.run` at tiny sizes, with one
option replaced by an extreme value.
"""

import json
import math
import warnings

import numpy as np
import pytest

from excursions import cli
from excursions.cli import run

EXTREMES = ("nan", "inf", "-inf", "0", "-1", "1e308")
EXIT_CODES = {0, 1, 2, cli.USAGE_EXIT}

_TINY_IIA = ["--samples", "2000", "--reps", "2", "--grid-max", "60", "--grid-step", "0.05"]
_TINY_TRAJ = ["--n-traj", "8", "--len", "8000", "--dt", "0.1", "--reps", "2"]
# the arguments each subcommand runs with before one option is replaced
BASE = {
    "iia": ["--level", "0", *_TINY_IIA],
    "gp-sim": ["--level", "0", *_TINY_TRAJ],
    "switch-sim": ["--paths", "50", "--horizon", "2", "--grid-points", "5"],
    "clipped-cov": ["--level", "0.5", "--t-max", "1", "--step", "0.25"],
    "slepian-sample": ["--level", "0", "--grid-max", "1", "--grid-step", "0.25",
                       "--paths", "2"],
    "persistency": ["--reps", "2"],
    "table1": ["--levels", "0", *_TINY_IIA],
    "table2": ["--levels", "0", *_TINY_TRAJ],
}
# runs that succeed at 1e308 with finite output: at such a level clipped-cov's
# sign process is constant, so its curve is 0; a step that long leaves the one
# point t = 0; and a Slepian path is u r(t), at most u, plus a finite part
PINNED = {("clipped-cov", "level"), ("clipped-cov", "step"), ("slepian-sample", "level")}


def _numeric_options():
    for command, (_, _, rows) in cli._COMMANDS.items():
        for key, kind, *_ in (cli._SEED, *rows):
            if kind in (int, float):
                yield command, key


CASES = [(command, key, value) for command, key in _numeric_options() for value in EXTREMES]


@pytest.fixture(scope="module")
def lengths_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract") / "lengths.csv"
    lengths = np.random.default_rng(3).exponential(2.0, 1000)
    path.write_text("length\n" + "\n".join(repr(float(x)) for x in lengths) + "\n")
    return path


def _all_finite(path) -> bool:
    """Whether an output file's numbers are all finite: no NaN or Infinity
    in its JSON, or only finite numbers in its CSV rows below the header."""
    text = path.read_text()
    if path.suffix == ".json":
        constants = []
        json.loads(text, parse_constant=constants.append)
        return constants == []
    cells = [float(cell) for line in text.splitlines()[1:] for cell in line.split(",")]
    return all(math.isfinite(x) for x in cells)


@pytest.mark.parametrize("command, key, value", CASES,
                         ids=[f"{c}-{k}-{v}" for c, k, v in CASES])
def test_an_extreme_option_value_keeps_the_contract(tmp_path, capsys, lengths_csv,
                                                    command, key, value):
    out = tmp_path / ("res.json" if command in ("iia", "gp-sim", "persistency",
                                                 "table1", "table2") else "res.csv")
    args = [command, *BASE[command], "--" + key.replace("_", "-"), value, "--out", str(out)]
    if command == "persistency":
        args += ["--samples", str(lengths_csv)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(args)
    err = capsys.readouterr().err
    assert code in EXIT_CODES
    assert "Traceback" not in err
    assert [str(w.message) for w in caught] == []
    if code == 0:
        assert _all_finite(out)
    if value == "1e308" and (command, key) in PINNED:
        assert code == 0
