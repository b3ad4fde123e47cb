"""Import approxcount from the sources of the checkout this benchmark sits in."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout holds no approxcount sources next to the benchmark."""


def require_program() -> Path:
    """The approxcount package directory; MissingProgram when it is absent."""
    package_dir = SRC / "approxcount"
    if not (package_dir / "__init__.py").is_file():
        raise MissingProgram(f"no approxcount sources at {package_dir}")
    return package_dir


def import_approxcount():
    """The approxcount package, loaded from ``<checkout>/src`` and nowhere else."""
    package_dir = require_program()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("approxcount")
    importlib.import_module("approxcount.cli")
    if Path(package.__file__).resolve().parent != package_dir:
        raise MissingProgram(f"approxcount was imported from {package.__file__}, not {package_dir}")
    return package
