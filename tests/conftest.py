"""Let the interpreters that tests start import the package from ``src``.

``pythonpath`` in ``pyproject.toml`` puts ``src`` on this process's path;
``PYTHONPATH`` carries it to subprocesses such as ``python -m excursions.cli``.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
