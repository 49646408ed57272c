"""Self-test of the benchmark. Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
from run import tail  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402


def span(sid, layer, parent, start, end, thread=0):
    return Span(sid, layer, layer, parent, thread, 0, start, end)


def test_self_times_split_overlapping_children_and_sum_to_wall():
    spans = [
        span(0, "cli", None, 0.0, 10.0),
        span(1, "montecarlo", 0, 1.0, 9.0),
        span(2, "kernels.draw_rows", 1, 2.0, 6.0, thread=1),
        span(3, "kernels.draw_rows", 1, 4.0, 8.0, thread=2),
    ]
    totals = self_times(spans)
    assert totals["cli"] == 2.0
    assert totals["montecarlo"] == 2.0  # 1-2 and 8-9
    assert totals["kernels.draw_rows"] == 6.0  # 2-8, the overlap 4-6 counted once
    assert sum(totals.values()) == 10.0


def test_tail_leaves_ten_samples_beyond():
    times = [float(i) for i in range(40)]
    value, pct = tail(times)
    assert value == 29.0 and sum(t > value for t in times) == 10 and pct == 75.0


def test_missing_entry_point_is_reported_not_zero(monkeypatch):
    monkeypatch.setattr(tracing, "ENTRY_POINTS",
                        tracing.ENTRY_POINTS + (("montecarlo", "no_such_entry", "gone"),))
    tracer = Tracer()
    assert tracer.missing == ["montecarlo.no_such_entry"]
    assert "gone" not in tracer.layers


def test_install_and_uninstall_restore_every_binding():
    from corr2phase import cli, montecarlo

    originals = (montecarlo.evaluate_rows, cli.simulate)
    tracer = Tracer()
    tracer.install(0)
    try:
        assert montecarlo.evaluate_rows.__wrapped__ is originals[0]
        assert cli.simulate.__wrapped__ is originals[1]
    finally:
        tracer.uninstall()
    assert (montecarlo.evaluate_rows, cli.simulate) == originals


def test_smoke_run_matches_benchmark_json():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
