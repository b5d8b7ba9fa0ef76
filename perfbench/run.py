"""Benchmark of the liberlab workbench: one closed-loop workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  The run builds the workload's inputs from the seed,
issues its calls back to back in passes until ``--seconds`` are used,
the first pass being an untimed warm-up, checks every output, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
half the window runs untraced and half under the layer tracer, and the
metrics are the per-layer ones.  Lines before the last start with ``#``
and carry the reproducibility record and the accuracy readings.

Workloads, metrics and the layer each metric belongs to are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 3
# One BLAS/OpenMP thread keeps the timings steady on a shared machine,
# and stays within nproc on any machine.
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv, workload_names) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package() -> None:
    """Import liberlab from this checkout's src/, or exit without a result.

    The thread pools are capped first, because numpy sizes them when it
    is imported.
    """
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    src = ROOT / "src"
    if not (src / "liberlab" / "__init__.py").is_file():
        sys.exit(f"error: no liberlab sources under {src}")
    sys.path.insert(0, str(src))
    import liberlab

    if Path(liberlab.__file__).resolve().parent != (src / "liberlab").resolve():
        sys.exit(f"error: liberlab was imported from {liberlab.__file__}, not from {src}")


def environment(args) -> dict:
    import numpy
    import scipy

    config = numpy.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {var: os.environ.get(var) for var in (*THREAD_VARS, "LIBERLAB_THREADS")},
    }


def probe_setup(args) -> float:
    """Seconds from starting a fresh process to its first possible call."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.toy:
        command.append("--toy")
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=120)
        except BaseException:
            child.kill()
            raise
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return elapsed


def run_window(workload, seconds: float, run_pass, fill: bool = False) -> list:
    """Whole passes until the next one would overrun the window (at least one).

    With ``fill``, the rest of the window goes to one more pass, cut
    before the first call whose latency in the last whole pass would
    overrun the window.
    """
    passes = []
    end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(workload, time.perf_counter))
        took = time.perf_counter() - t0
        if time.perf_counter() + took > end:
            break
    if fill:
        last = passes[-1]
        partial = run_pass(workload, time.perf_counter, lambda i: time.perf_counter() + last[i].seconds <= end)
        if partial:
            passes.append(partial)
    return passes


def pass_walls(passes) -> list[float]:
    """Seconds of each whole pass: the sum of its call latencies."""
    return [sum(r.seconds for r in p) for p in passes if len(p) == len(passes[0])]


def mean_pass(passes) -> float:
    """Seconds of a typical pass: the sum over calls of each call's mean.

    A cut last pass adds samples to the calls it issued.  A mean, not a
    median: a shared host runs slow for spells of 15-30 s, and a median
    jumps from the fast to the slow latency once slow spells cover half
    the run, while a mean follows their share.
    """
    total = 0.0
    for i in range(len(passes[0])):
        total += statistics.mean(p[i].seconds for p in passes if len(p) > i)
    return total


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, or p90.

    Below 100 samples that percentile falls under the 90th and stops
    being a tail, so the 90th (nearest rank) is reported instead.
    Returns the value and its percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - 10, math.ceil(0.9 * n))
    return ordered[rank - 1], 100.0 * rank / n


def readings(results) -> dict:
    """Accuracy readings of one whole pass: largest errors, summed drops."""
    out = {"ref_err": 0.0, "istar_rel_gap": 0.0, "chi_drops": 0}
    for result in results:
        for key, value in result.readings.items():
            out[key] = out[key] + value if key == "chi_drops" else max(out[key], value)
    return out


def main(argv=None) -> int:
    import_package()
    import tracing
    import workloads

    args = parse_args(argv, list(workloads.BUILDERS))

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.BUILDERS[args.workload](args.seed, work, args.toy)
        own_setup = time.perf_counter() - _STARTED
        if args.setup_probe:
            print("ready", flush=True)
            return 0

        env = environment(args)
        print("# env " + json.dumps(env, sort_keys=True), flush=True)
        print(f"# setup in this process: {own_setup:.3f} s", flush=True)

        # metric names and units are declared once, in BENCHMARK.json
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        setups = [] if args.trace else [probe_setup(args) for _ in range(1 if args.toy else SETUP_PROBES)]
        # The first pass is a warm-up, checked but not timed: a fresh process
        # runs the flow about 2.5x slower until any array larger than the
        # flow's own has been freed (see README, "Cold first pass").
        start = time.perf_counter()
        warm_up = workloads.run_pass(workload, time.perf_counter)
        seconds = args.seconds - (time.perf_counter() - start)
        if args.trace:
            plain = run_window(workload, seconds / 2, workloads.run_pass)
            tracer = tracing.Tracer()
            with tracer:
                traced = run_window(workload, seconds / 2, workloads.run_pass)
            passes = plain + traced
            traced_walls = pass_walls(traced)
            values = tracing.layer_metrics(tracer.spans, len(traced), statistics.mean(traced_walls))
            values["trace.overhead_s"] = mean_pass(traced) - mean_pass(plain)
            values["cold.extra_s"] = sum(r.seconds for r in warm_up) - mean_pass(plain)
            trace_dir = ROOT / ".bench_work" / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            trace_path = trace_dir / f"{args.workload}-seed{args.seed}.jsonl.gz"
            tracer.write(trace_path)
            print(f"# {len(tracer.spans)} spans of {len(traced)} traced passes written to "
                  f"{trace_path.relative_to(ROOT)}", flush=True)
            declared = spec["per_layer"]
        else:
            passes = run_window(workload, seconds, workloads.run_pass, fill=True)
            walls = pass_walls(passes)
            calls_ms = [r.seconds * 1e3 for p in passes for r in p]
            tail_ms, tail_pct = tail(calls_ms)
            values = {
                "wall_s": mean_pass(passes),
                "setup_s": statistics.median(setups),
                "call_ms.p50": statistics.median(calls_ms),
                "call_ms.tail": tail_ms,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            declared = spec["end_to_end"]
            print(f"# warm-up pass {sum(r.seconds for r in warm_up):.3f} s, then {len(walls)} whole passes and "
                  f"{len(passes) - len(walls)} cut, {len(calls_ms)} calls; pass walls "
                  + ", ".join(f"{w:.3f}" for w in walls) + " s; set-up probes "
                  + ", ".join(f"{s:.3f}" for s in setups) + " s", flush=True)
            print(f"# call_ms.p50 = {values['call_ms.p50']:.6g} ms; call_ms.tail is p{tail_pct:.1f} "
                  f"of {len(calls_ms)} calls, {sum(v > tail_ms for v in calls_ms)} beyond it", flush=True)
            print("# mean ms per call: " + ", ".join(
                f"{c.label} {statistics.mean(p[i].seconds for p in passes if len(p) > i) * 1e3:.1f}"
                for i, c in enumerate(workload.calls)), flush=True)

        accuracy = readings(warm_up)
        values.update({f"accuracy.{key}": value for key, value in accuracy.items()})
        metrics = {m["name"]: (float(values[m["name"]]), m["unit"]) for m in declared}
        checked = [warm_up, *passes]
        attempted = sum(len(p) for p in checked)
        failed = sum(not r.ok for p in checked for r in p)
        print(f"# fail_share {failed / attempted:.6g} ({failed} of {attempted} calls)", flush=True)
        print("# accuracy " + json.dumps(accuracy, sort_keys=True), flush=True)
        for name, (value, unit) in metrics.items():
            print(f"# {name} = {value:.6g} {unit}", flush=True)
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
