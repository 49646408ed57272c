"""tools/faults.py: milliseconds, minor faults and peak RSS per library call."""

import importlib.util
import json
import os

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools", "faults.py")


def test_smoke_sizes_print_one_result_per_workload(capsys):
    spec = importlib.util.spec_from_file_location("faults", TOOL)
    faults = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(faults)
    faults.main(["--smoke"])
    lines = capsys.readouterr().out.splitlines()
    results = [json.loads(line) for line in lines]
    assert [r["workload"] for r in results] == ["sim-bigframe", "enum-exact", "theory-csv"]
    for r in results:
        assert r["ms"] > 0 and r["minor_faults"] >= 0
        assert r["peak_rss_mb"] > 0
        assert (r["calls"], r["warmup"]) == (2, 1)
