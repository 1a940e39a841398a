"""Golden corpus: byte-exact CLI reports, ``#`` header lines included.

Each case replays one cheap, passing CLI run from inside ``tests/golden``, so
that the ``# config:`` header names a stable relative path, and compares its
stdout with the recorded ``<name>.out`` file.  Record a new corpus with
``PYTHONPATH=src python tests/test_golden.py``, and read the diff first.
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from h14.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "check-conditions-default": ["check-conditions"],
    "check-conditions-n3": ["check-conditions", "--config", "n3.json"],
    "verify-t2.14-seed3": ["verify", "t2.14", "--seed", "3"],
    "verify-t2.8": ["verify", "t2.8"],
    "verify-t2.5i": ["verify", "t2.5i"],
    "verify-r2.16": ["verify", "r2.16"],
    "verify-l2.15-d8-q": ["verify", "l2.15", "--dmax", "8"],
    "verify-l2.15-d8-fp5": ["verify", "l2.15", "--dmax", "8", "--field", "Fp:5"],
    "intersect-d8-q": ["intersect", "--dmax", "8"],
    "intersect-d8-fp32003": ["intersect", "--dmax", "8", "--field", "Fp:32003"],
    "intersect-d8-fp5": ["intersect", "--dmax", "8", "--field", "Fp:5"],
    "hilbert-cone": ["hilbert", "--config", "cone.json"],
    "scan": ["scan"],
}


def _run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    expected = (GOLDEN / f"{name}.out").read_text()
    assert _run(CASES[name]) == expected


if __name__ == "__main__":
    import os

    os.chdir(GOLDEN)
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.out").write_text(_run(argv))
    sys.exit(0)
