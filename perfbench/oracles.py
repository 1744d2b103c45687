"""Correctness checks of job outputs against references outside the package.

Each check reads one job's result file, raises :class:`OracleFailure` when
the output is wrong, and otherwise returns the largest absolute deviation
from its reference (``ref_err``).  None of them imports ``excursions``.
"""

from __future__ import annotations

import json

# the paper's Table 1 (IIA) and Table 2 (trajectories): level -> (theta+, theta-)
TABLE1 = {0.0: (0.1862, 0.1861), 0.5: (0.2893, 0.1105),
          1.0: (0.4225, 0.0591), 1.25: (0.5001, 0.0411)}
TABLE2 = {0.0: (0.1885, 0.1883), 0.5: (0.2932, 0.1117),
          1.0: (0.4295, 0.0598), 1.25: (0.5101, 0.0417)}


class OracleFailure(Exception):
    """A job output that disagrees with its reference."""


def _table(path, reference, tolerance, levels):
    with open(path) as fh:
        rows = json.load(fh)["rows"]
    got = sorted(float(r["level"]) for r in rows)
    if got != sorted(levels):
        raise OracleFailure(f"levels {got}, expected {sorted(levels)}")
    worst = 0.0
    for r in rows:
        ref_plus, ref_minus = reference[float(r["level"])]
        tol = tolerance(float(r["level"]))
        for got_theta, ref in ((r["theta_plus"], ref_plus), (r["theta_minus"], ref_minus)):
            dev = abs(float(got_theta) - ref)
            if not dev < tol:
                raise OracleFailure(
                    f"u = {r['level']}: theta {got_theta} is {dev:.4f} from {ref} "
                    f"(tolerance {tol})")
            worst = max(worst, dev)
    return worst


def check_table1(path, levels):
    """Criterion 3: every theta within 0.01 of Table 1."""
    return _table(path, TABLE1, lambda u: 0.01, levels)


def check_table2(path, levels):
    """Criterion 11: every theta within 0.02 of Table 2, 0.03 at u = 1.25."""
    return _table(path, TABLE2, lambda u: 0.03 if u == 1.25 else 0.02, levels)
