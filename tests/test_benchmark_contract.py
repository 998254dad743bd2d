"""The benchmark under perfbench/ still runs against this package.

A traced benchmark run fails where an untraced one passes in two ways: the
tracer cannot find a name it wraps, or a count does not split into equal
rounds (a cache kept across calls, say).  These tests catch both; they read
perfbench/ and change nothing there.
"""

import copy
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _counts(tracer):
    """Every counter of every span but the times."""
    return {span: {key: val for key, val in st.items() if key != "self_s"}
            for span, st in tracer.stats.items()}


def test_tracer_installs_and_uninstalls():
    # install() looks every traced name up with getattr and fails on a missing one
    import bergman.cli
    import bergman.gram
    originals = (bergman.gram.gram_matrix, bergman.cli.rho_gram_field)
    tracer = Tracer()
    tracer.install()
    try:
        assert bergman.gram.gram_matrix is not originals[0]
        assert bergman.cli.rho_gram_field is not originals[1]
    finally:
        tracer.uninstall()
    assert (bergman.gram.gram_matrix, bergman.cli.rho_gram_field) == originals


@pytest.mark.parametrize("workload", sorted(workloads.ROUNDS))
def test_traced_rounds_repeat_their_counts(workload, tmp_path, monkeypatch, capsys):
    # the order of a traced run: inputs, first-call costs, tracer, rounds
    root = PERFBENCH.parent
    (tmp_path / "out").mkdir()
    monkeypatch.chdir(tmp_path)  # the shipped configs write to a relative out/
    inputs = workloads.make_inputs(workload, 1, root)
    workloads.warm(workload)
    tracer = Tracer()
    tracer.install()
    try:
        first = workloads.ROUNDS[workload](inputs, tmp_path)
        after_first = copy.deepcopy(_counts(tracer))
        second = workloads.ROUNDS[workload](inputs, tmp_path)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert [o for o in first + second if o[0] != workloads.OK] == []
    both = _counts(tracer)
    assert both.keys() == after_first.keys()
    for span, counts in both.items():
        assert {k: v - after_first[span][k] for k, v in counts.items()} == after_first[span], span
    tracer.layer_metrics(2)  # raises on a count that does not split in two
