import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import fisherinfo
from fisherinfo import StateSize, validate_matrix

# Filled by tests/test_acceptance.py; printed after the run so the
# one-line-per-criterion report survives output capturing.
ACCEPTANCE_RESULTS: list[tuple[int, str, str]] = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    merged: dict[tuple[int, str], str] = {}
    for number, name, status in ACCEPTANCE_RESULTS:
        key = (number, name)
        if merged.get(key) != "FAIL":
            merged[key] = status
    terminalreporter.section("acceptance criteria")
    for (number, name), status in sorted(merged.items()):
        terminalreporter.write_line(f"criterion {number} ({name}): {status}")


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that imports this package's source.

    PYTHONUNBUFFERED is dropped, so the child's stdout on a pipe is block
    buffered as it is for a user and a buffer lost at exit shows;
    FISHERINFO_CACHE_DIR is dropped, so the child reads the default cache.
    """
    env = {name: value for name, value in os.environ.items()
           if name not in ("PYTHONUNBUFFERED", "FISHERINFO_CACHE_DIR")}
    src = str(Path(fisherinfo.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return env


# Worked two-variable example: eight steps, state sizes (0.5, 1).
WORKED_ROWS = [
    (0.6, 1.5),
    (2.0, 1.5),
    (0.3, 1.0),
    (3.5, 4.8),
    (0.95, 2.0),
    (3.1, 4.0),
    (2.4, 1.8),
    (2.7, 2.1),
]
WORKED_CSV = (
    "t,Y1,Y2\n"
    "1,0.6,1.5\n"
    "2,2,1.5\n"
    "3,0.3,1\n"
    "4,3.5,4.8\n"
    "5,0.95,2\n"
    "6,3.1,4\n"
    "7,2.4,1.8\n"
    "8,2.7,2.1\n"
)


@pytest.fixture
def worked_matrix():
    return validate_matrix(["Y1", "Y2"], range(1, 9), WORKED_ROWS)


@pytest.fixture
def worked_delta():
    return StateSize((0.5, 1.0))


@pytest.fixture
def worked_csv_path(tmp_path):
    path = tmp_path / "worked.csv"
    path.write_text(WORKED_CSV, encoding="utf-8")
    return path
