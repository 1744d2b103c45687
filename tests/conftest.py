"""Shared set-up of the test session.

Let the interpreters that tests start import the package from ``src``:
``pythonpath`` in ``pyproject.toml`` puts ``src`` on this process's path;
``PYTHONPATH`` carries it to subprocesses such as ``python -m excursions.cli``.

``rice_crossings`` simulates the one long path that two crossing-rate
tests read, once per session, and keeps only its crossing counts.
"""

import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def rice_crossings():
    """Level -> crossing count of ``simulate_gp_batch(M2, 0.05, 4_000_000, 1, seed=7)[0]``
    at u = 0 and 1, M2 the d = 2 diffusion covariance."""
    from excursions.covmodel import diffusion_covariance
    from excursions.gpsim import extract_excursions, simulate_gp_batch

    dt, n = 0.05, 4_000_000
    path = simulate_gp_batch(diffusion_covariance(2), dt, n, 1, seed=7)[0]
    return {u: extract_excursions(path, u, dt)[2] for u in (0.0, 1.0)}
