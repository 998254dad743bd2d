"""Regression test of the shipped artifacts: every config in configs/ writes
the CSV stored under tests/data/ byte for byte.

A difference fails the test, and the message names the first differing
cell (line and comma-separated column).  When a change moves bytes on
purpose, regenerate the stored copies from the repository root, check the
differences and list every moved cell in CHANGES.md:

    mkdir -p out && for c in configs/*.json; do
        PYTHONPATH=src python -m bergman.cli config "$c"; done && cp out/*.csv tests/data/
"""

import glob
import json
import os

import pytest

from bergman.cli import run

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = sorted(glob.glob(os.path.join(REPO, "configs", "*.json")))


def _first_difference(got: str, want: str) -> str:
    """The first cell where the text got differs from the stored text want."""
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for line, (g, w) in enumerate(zip(got_lines, want_lines), 1):
        for col, (cg, cw) in enumerate(zip(g.split(","), w.split(",")), 1):
            if cg != cw:
                return f"line {line}, cell {col}: {cg!r}, stored {cw!r}"
        if g != w:
            return f"line {line}: {g!r}, stored {w!r}"
    return f"{len(got_lines)} lines, stored {len(want_lines)}"


def _out(path: str) -> str:
    with open(path) as fh:
        return json.load(fh)["out"]


def test_every_config_has_a_stored_artifact():
    stored = sorted(os.listdir(os.path.join(REPO, "tests", "data")))
    assert stored == sorted(os.path.basename(_out(c)) for c in CONFIGS)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: os.path.basename(p)[:-5])
def test_config_writes_stored_artifact(path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    os.mkdir("out")
    out = _out(path)
    assert run(["config", path]) == 0
    with open(out, "rb") as fh:
        got = fh.read()
    with open(os.path.join(REPO, "tests", "data", os.path.basename(out)), "rb") as fh:
        want = fh.read()
    assert got == want, _first_difference(got.decode(errors="replace"), want.decode(errors="replace"))
