"""The benchmark's report contract: a short run of ``bench/run.py`` ends
with one strict-JSON line holding every metric ``BENCHMARK.json`` declares,
each finite, for an untraced and a traced run."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name} in the report")


def _check_report(workload, trace, kind):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1],
                        parse_constant=_reject_constant)
    assert report["correct"] is True
    assert report["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    metrics = report["metrics"]
    for metric in declared:
        assert metric["name"] in metrics, metric["name"]
        assert math.isfinite(metrics[metric["name"]]["value"]), metric["name"]


RUNS = pytest.mark.parametrize("trace, kind", [(0, "end_to_end"),
                                               (1, "per_layer")])


@RUNS
def test_fit_large_report_is_strict_and_complete(trace, kind):
    _check_report("fit_large", trace, kind)


@RUNS
def test_mc_small_report_is_strict_and_complete(trace, kind):
    _check_report("mc_small", trace, kind)


@RUNS
def test_cli_roundtrip_report_is_strict_and_complete(trace, kind):
    _check_report("cli_roundtrip", trace, kind)
