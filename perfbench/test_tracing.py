"""Tests of the benchmark's span recorder.

    python3 -m pytest perfbench/test_tracing.py
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from carshift import bogoliubov, cli, expcalc, opalg  # noqa: E402
from tracing import Tracer, leftover_wrappers, summarize  # noqa: E402


def test_self_time_is_duration_minus_child_coverage():
    tracer = Tracer()

    def leaf():
        time.sleep(0.02)

    def middle():
        time.sleep(0.01)
        traced_leaf()
        traced_leaf()

    traced_leaf = tracer.wrap("leaf", leaf)
    tracer.wrap("middle", middle)()
    stats = summarize(tracer.spans)
    mid = next(i for i, span in enumerate(tracer.spans) if span[0] == "middle")
    start, end = tracer.spans[mid][1:3]
    children = [span for span in tracer.spans if span[3] == mid]
    assert [s[0] for s in children] == ["leaf", "leaf"]
    covered = sum(s[2] - s[1] for s in children)
    assert stats["middle"]["calls"] == 1 and stats["leaf"]["calls"] == 2
    assert abs(stats["middle"]["self_s"] - ((end - start) - covered)) < 1e-12
    assert stats["leaf"]["self_s"] == stats["leaf"]["s"]
    assert 0.005 < stats["middle"]["self_s"] < stats["middle"]["s"]


def test_consumer_namespaces_and_methods_are_seen_and_restored(tmp_path):
    tracer = Tracer()
    with tracer.installed():
        # psd_sqrt is reached through bogoliubov's own `from .opalg import` name
        bogoliubov.weighted_hs_norm(0.25 * np.eye(3), np.eye(3))
        expcalc.ExpCombo.exponential(-1.0).inner(expcalc.ExpCombo.exponential(-2.0))
        (tmp_path / "run.ini").write_text(
            "[experiment]\nkind = car-check\nseed = 1\n\n[params]\nmodes = 2\ntrials = 2\n")
        assert cli.main(["run", "--config", str(tmp_path / "run.ini"),
                         "--out", str(tmp_path)]) == 0
    stats = summarize(tracer.spans)
    assert stats["opalg.psd_sqrt"]["calls"] == 1
    assert stats["expcalc.inner"]["calls"] == 1
    assert stats["cli.write_reports"]["calls"] == 1
    assert stats["fock.annihilator"]["calls"] == 4
    assert tracer.counters["fock.dense_bytes"] > 0
    assert leftover_wrappers() == []
    assert not hasattr(opalg.psd_sqrt, "__wrapped__")
    assert not hasattr(bogoliubov.psd_sqrt, "__wrapped__")
