"""Regression test of the shipped artifacts: every config in configs/ writes
the CSV stored under tests/data/, compared cell by cell.

Text must be equal, and every number, in the rows and in the '#' header
lines alike, within 1e-12 relative of the stored one.  When a change moves
numbers on purpose, regenerate the stored copies from the repository root,
check the differences and list the moves in CHANGES.md:

    mkdir -p out && for c in configs/*.json; do
        PYTHONPATH=src python -m bergman.cli config "$c"; done && cp out/*.csv tests/data/
"""

import glob
import json
import os
import re

import pytest

from bergman.cli import run

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = sorted(glob.glob(os.path.join(REPO, "configs", "*.json")))
REL = 1e-12
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")  # split keeps the numbers


def _cells(line: str):
    """The line's comma-separated cells, each as [text, number, text, ...]."""
    return [NUMBER.split(cell) for cell in line.split(",")]


def _close(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    return x == y or abs(x - y) <= REL * max(abs(x), abs(y))


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
    with open(out) as fh:
        got = fh.read().splitlines()
    with open(os.path.join(REPO, "tests", "data", os.path.basename(out))) as fh:
        want = fh.read().splitlines()
    assert len(got) == len(want)
    for line, (g, w) in enumerate(zip(got, want), 1):
        cells_g, cells_w = _cells(g), _cells(w)
        assert len(cells_g) == len(cells_w), (line, g, w)
        for cg, cw in zip(cells_g, cells_w):
            assert len(cg) == len(cw) and cg[::2] == cw[::2], (line, g, w)
            assert all(map(_close, cg[1::2], cw[1::2])), (line, g, w)
