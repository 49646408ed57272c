"""tools/parity.py: one line per outcome, for diffing two checkouts."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools", "parity.py")


def test_smoke_prints_one_outcome_per_line(capsys):
    spec = importlib.util.spec_from_file_location("parity", TOOL)
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    parity.main(["--smoke"])
    lines = capsys.readouterr().out.splitlines()
    calls = {line.split(" ", 1)[0] for line in lines}
    assert calls == {
        "optimum_constants", "efficiency_report", "simulate", "enumerate_exact",
        "sample_statistics", "estimated_optimum_constants", "estimate",
    }
    text = "\n".join(lines)
    for outcome in ("SimulationResult(", "EnumerationResult(", "OptimumConstants(",
                    "VarianceReport(", "ExcessiveSkips: ", "ZeroCorrelation: ",
                    "ZeroMean: ", "two-point degenerate", "weights are not finite"):
        assert outcome in text, outcome
    assert all(": " in line for line in lines)
