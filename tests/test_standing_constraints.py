"""ROADMAP standing constraints that a machine can check.

Integer-key dedup under ``candidates/``, ``search/`` and ``core/`` goes
through ``repro.candidates.arrayops.sorted_unique``, which scatters keys of a
dense range into a bounded bool mask and sorts all others: from NumPy 2.3 a
plain ``np.unique(ints)`` builds a hash table before it sorts — 16x slower on
pair keys — and a library upgrade turned three hot paths into one without a
line of this repo changing.  ``np.unique`` stays only where it
is asked for more than the values (``return_index`` / ``return_inverse`` /
``return_counts``) or works along an ``axis``, which take the sort path.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
_GUARDED = ("candidates", "search", "core")
_SORT_PATH_KEYWORDS = {"return_index", "return_inverse", "return_counts", "axis"}


def plain_unique_calls(source: str, filename: str) -> list[str]:
    """``file:line`` of every ``np.unique(...)`` call that only asks for the values."""
    offenders = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        target = node.func
        if target.attr != "unique" or not isinstance(target.value, ast.Name):
            continue
        if target.value.id not in ("np", "numpy"):
            continue
        if not _SORT_PATH_KEYWORDS & {keyword.arg for keyword in node.keywords}:
            offenders.append(f"{filename}:{node.lineno}")
    return offenders


@pytest.mark.parametrize("package", _GUARDED)
def test_no_plain_np_unique_on_the_hot_paths(package):
    files = sorted((_SRC / package).rglob("*.py"))
    assert files, f"nothing to check under {_SRC / package}"
    offenders = [
        offender
        for path in files
        for offender in plain_unique_calls(path.read_text(), str(path.relative_to(_SRC.parents[1])))
    ]
    assert not offenders, (
        "plain np.unique(ints) is a hash table from NumPy 2.3 on; use "
        "repro.candidates.arrayops.sorted_unique: " + ", ".join(offenders)
    )


def test_the_check_sees_what_it_is_for():
    # the line core/concentration_cache.py carried until the mask fill replaced it
    source = (
        "import numpy as np\n"
        "def fill(matches, states):\n"
        "    unknown = np.unique(matches[states == -1])\n"
        "    keys, inverse = np.unique(matches, return_inverse=True)\n"
        "    rows = np.unique(matches.reshape(-1, 2), axis=0)\n"
        "    return numpy.unique(keys)\n"
    )
    assert plain_unique_calls(source, "cache.py") == ["cache.py:3", "cache.py:6"]
