"""Structural pin: no hash-based ``np.unique`` on the package's paths.

numpy 2.4's ``np.unique`` hashes, and costs about 50x a sort or a
boolean scatter at n = 10^6, so the kernels count distinct values by
scatter and validate IDs by sort.  A call may stay only where a comment
on the call line or the line above says why.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

PATTERN = re.compile(r"\b(?:np|numpy)\.unique\(")


def _uncommented(lines: list[str]) -> list[int]:
    """1-based line numbers of ``np.unique(`` calls with no comment on
    the call line or the line above."""
    return [
        i + 1
        for i, line in enumerate(lines)
        if PATTERN.search(line)
        and "#" not in line
        and not (i and lines[i - 1].strip().startswith("#"))
    ]


def test_no_uncommented_np_unique():
    offenders = [
        f"{path.relative_to(SRC)}:{i}"
        for path in sorted(SRC.rglob("*.py"))
        for i in _uncommented(path.read_text().splitlines())
    ]
    assert offenders == []


def test_pin_flags_bare_calls_only():
    assert _uncommented(["u = np.unique(a)", "w = numpy.unique(b)"]) == [1, 2]
    assert _uncommented(["# why", "u = np.unique(a)"]) == []
    assert _uncommented(["u = np.unique(a)  # why"]) == []
    assert _uncommented(["# not np.unique: a sort", "u = np.sort(a)"]) == []
