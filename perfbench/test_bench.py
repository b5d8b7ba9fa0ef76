"""Self-test of the benchmark at toy sizes.

    python3 -m pytest perfbench -q

Checks that every declared metric is emitted with its unit, that a
corrupted library output is counted as a failed call, that the tracer
computes self time and restores what it replaced, and that the
benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402
from liberlab import ensemble, fisher, liberation  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.BUILDERS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", "3", "--seconds", "0.2",
               "--trace", str(trace), "--toy"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0.0, m["name"]


def _corrupt(monkeypatch, owner, attr, change):
    original = getattr(owner, attr)
    monkeypatch.setattr(owner, attr, lambda *a, **k: change(original(*a, **k)))


# flow_matrix is checked through its two halves, one corruption each
BUILD = {**workloads.BUILDERS, "flow": workloads.build_flow, "matrix": workloads.build_matrix}
CORRUPTIONS = {
    # a NaN margin reaches the CLI report as the string "nan"
    "lsi_plain": (fisher, "check_lsi", lambda r: dataclasses.replace(r, margin=math.nan)),
    "lsi_tilted": (fisher, "check_lsi", lambda r: dataclasses.replace(r, relative_margin=-1.0)),
    "flow": (liberation, "istar", lambda r: dataclasses.replace(r, lower_bound_only=True)),
    "matrix": (ensemble, "sample_spectra", lambda xs: xs**2),
}
CORRUPTED_CALLS = {
    "lsi_plain": lambda label: True,
    "lsi_tilted": lambda label: label.startswith("tilted_"),
    "flow": lambda label: True,
    "matrix": lambda label: label.startswith("sample_"),
}


@pytest.mark.parametrize("workload", list(CORRUPTIONS))
def test_corrupted_output_is_a_failed_call(workload, monkeypatch, tmp_path):
    built = BUILD[workload](3, tmp_path, True)
    clean = workloads.run_pass(built, time.perf_counter)
    assert all(r.ok for r in clean)

    _corrupt(monkeypatch, *CORRUPTIONS[workload])
    results = workloads.run_pass(built, time.perf_counter)
    hit = CORRUPTED_CALLS[workload]
    assert any(hit(r.label) for r in results)
    for r in results:
        assert r.ok != hit(r.label), r.label


def test_self_time_excludes_children_and_patches_are_restored():
    spans = [
        tracing.Span(1, "densities.transport", 0, 10, 40),
        tracing.Span(2, "chebyshev.moments", 0, 50, 60),
        tracing.Span(0, "fisher.phi_star", None, 0, 100),
    ]
    assert tracing.self_times(spans) == {1: 30, 2: 10, 0: 60}

    original = fisher.density_transport
    with tracing.Tracer() as tracer:
        assert fisher.density_transport is not original
        fisher.phi_star(workloads.UNIFORM, 64)
    assert fisher.density_transport is original
    names = {s.name: s for s in tracer.spans}
    assert names["densities.transport"].parent == names["fisher.phi_star"].ident
    assert names["densities.transport"].counters["nodes"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flow_matrix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_is_the_highest_percentile_with_ten_beyond_but_at_least_p90():
    import run

    assert run.tail([float(v) for v in range(1, 201)]) == (190.0, 95.0)
    assert run.tail([float(v) for v in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([1.0] * 30 + [5.0] * 10) == (5.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_typical_pass_takes_each_calls_mean_and_counts_a_cut_pass():
    import run

    def results(*seconds):
        return [workloads.CallResult("c", t, True, {}) for t in seconds]

    passes = [results(1.0, 10.0), results(3.0, 20.0), results(5.0)]
    assert run.mean_pass(passes) == 3.0 + 15.0
    assert run.pass_walls(passes) == [11.0, 23.0]
