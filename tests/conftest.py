import os
from pathlib import Path

import pytest

import polylie


@pytest.fixture
def module_env():
    """Environment in which `python -m polylie` imports the polylie under test."""
    src = str(Path(polylie.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
