"""posetalg benchmark: a single-threaded, closed-loop batch driver.

Run from the root of a checkout:

    python3 perfbench/run.py --workload monoids --seed 1 --seconds 20 --trace 0

The driver imports ``posetalg`` from ``src/``, generates the workload's
inputs from the seed (set-up, repeated and reported as a median), then runs
the workload's batch of items in a closed loop: each item starts after the
previous item's verdict has been checked.  It runs round(seconds / first
batch wall time) batches, at least one.

Every timing is reported in reference seconds: the raw time scaled by the
machine's speed, which a timer signal samples every 25 ms with a fixed
reference kernel while the run goes on (see ``speed.py``).  This shared
machine's speed switches by about 1.6x for minutes at a time; the scaled
times do not follow it.  The raw times are in the report file.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
batch wall time, item time percentiles, set-up time and peak RSS.  With
``--trace 1`` it runs one untraced and one traced batch and reports the
per-layer metrics: self time per layer, deterministic work counters, the
benchmark's own self time, the tracing overhead, the raw batch time and
the reference kernel's time.  The full report, with the spans of a traced
run, goes to ``perfbench/out/``.

Exit status is 0 when the run completed (the verdicts are reported in the
result line), 2 when the package source is missing.  The toy-size
self-test is ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def import_package():
    """Import posetalg afresh from src/, so each set-up pays the import."""
    for name in [n for n in sys.modules if n == "posetalg" or n.startswith("posetalg.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pa = importlib.import_module("posetalg")
    if Path(pa.__file__).resolve().parent != SRC / "posetalg":
        raise ImportError(f"posetalg imported from {pa.__file__}, not from {SRC}")
    return pa


def setup(workload_cls, seed, meter, toy=False):
    """Time import plus input generation; returns (reference seconds, raw
    seconds, workload)."""
    begin = meter.clock()
    pa = import_package()
    wl = workload_cls(pa, seed, toy=toy)
    end = meter.clock()
    meter.sample()
    raw, ref = meter.region(begin, end)
    return ref, raw, wl


class Batch:
    """One pass over a workload's items: per-item raw and reference
    seconds, and the failed item ids."""

    def __init__(self, regions, failures, elapsed):
        self.raw = [raw for raw, _ in regions]
        self.times = [ref for _, ref in regions]
        self.scales = [ref / raw if raw > 0 else 1.0 for raw, ref in regions]
        self.failures = failures
        self.elapsed = elapsed  # raw, reference samples included
        self.wall = sum(self.times)


def run_batch(wl, call, meter, tracer=None, counts=None):
    """One pass over the workload's items.  A failing item is counted and
    the batch goes on.  With ``counts``, each passing item's work counters
    are added to it after the item's timed region.  With ``tracer``, each
    span's item id is its index in the batch."""
    bounds, failures = [], []
    gc.collect()  # each batch starts without garbage left by the last
    t0 = perf_counter()
    for index, (item_id, kind, run) in enumerate(wl.items()):
        begin = meter.clock()
        try:
            if tracer is None:
                ok, out = run(call)
            else:
                tracer.item = index
                ok, out = tracer.call("bench.item", run, call)
        except Exception:  # a failing item is a result, not a crash
            ok, out = False, None
            traceback.print_exc(file=sys.stderr)
        bounds.append((begin, meter.clock()))
        if not ok:
            failures.append(item_id)
        elif counts is not None:
            for name, n in workloads.counters(wl.pa, kind, out).items():
                counts[name] += n
    elapsed = perf_counter() - t0
    meter.sample()
    return Batch([meter.region(*b) for b in bounds], failures, elapsed)


def run_for(wl, seconds, meter):
    """Untraced batches: round(seconds / first batch's elapsed time), at
    least one."""
    batches = [run_batch(wl, spans.direct, meter)]
    for _ in range(round(seconds / batches[0].elapsed) - 1):
        batches.append(run_batch(wl, spans.direct, meter))
    return batches


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment():
    """Machine record, read from /proc and the interpreter only."""
    env = {
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "cpu_model": None,
        "loadavg": None,
        "note": "shared machine: timings move with the load of other tenants",
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
        env["loadavg"] = [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        pass
    return env


def git_revision():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload, seed, seconds, trace, toy=False):
    """Run one workload; returns (result line dict, full report dict)."""
    cls = workloads.WORKLOADS[workload]
    meter = speed.Meter()
    meter.start()
    try:
        return _measure(cls, workload, seed, seconds, trace, toy, meter)
    finally:
        meter.stop()
        gc.unfreeze()


def _measure(cls, workload, seed, seconds, trace, toy, meter):
    setups, fingerprints, wl = [], set(), None
    for _ in range(SETUP_REPEATS):
        wl = None  # the last set-up's inputs go before the next is made
        ref, raw, wl = setup(cls, seed, meter, toy)
        setups.append((ref, raw))
        fingerprints.add(wl.fingerprint)
    # The inputs and the package stay out of the collector's traversals,
    # so a collection costs what the program's own objects cost.
    gc.collect()
    gc.freeze()
    report = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "env": environment(),
        "input_fingerprint": wl.fingerprint,
        "setup_runs_s": [t for t, _ in setups],
        "setup_runs_raw_s": [t for _, t in setups],
    }
    if not trace:
        batches = run_for(wl, seconds, meter)
        item_times = [t for b in batches for t in b.times]
        failures = [f for b in batches for f in b.failures]
        metrics = {
            "wall_s": (statistics.median(b.wall for b in batches), "s"),
            "item_p50_ms": (1000 * percentile(item_times, 50), "ms"),
            "item_p90_ms": (1000 * percentile(item_times, 90), "ms"),
            "setup_s": (statistics.median(t for t, _ in setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        report["batch_walls_s"] = [b.wall for b in batches]
        report["batch_walls_raw_s"] = [sum(b.raw) for b in batches]
        report["items_per_batch"] = len(batches[0].times)
        report["item_times_s"] = [b.times for b in batches]
        report["item_times_raw_s"] = [b.raw for b in batches]
    else:
        untraced = run_batch(wl, spans.direct, meter)
        tracer = spans.Tracer(meter.clock)
        counts = dict.fromkeys(workloads.COUNTER_NAMES, 0)
        traced = run_batch(wl, tracer.call, meter, tracer, counts)
        # every span is scaled by the reference samples around its item
        self_times = tracer.self_times(traced.scales)
        wall = sum(self_times.values())
        metrics = {workloads.busy_metric(n): (self_times.get(n, 0.0), "s") for n in workloads.LAYER_TIMES}
        metrics.update((name, (n, "count")) for name, n in counts.items())
        failures = untraced.failures + traced.failures
        item_times = untraced.times + traced.times
        metrics["bench.self_s"] = (self_times.get("bench.item", 0.0), "s")
        metrics["bench.trace_overhead"] = (wall / untraced.wall, "ratio")
        metrics["bench.items"] = (len(traced.times), "count")
        metrics["bench.error_rate"] = (len(failures) / len(item_times), "ratio")
        metrics["bench.raw_wall_s"] = (sum(untraced.raw), "s")
        metrics["bench.ref_ms"] = (1000 * statistics.median(meter.samples), "ms")
        report["untraced_wall_s"] = untraced.wall
        report["traced_wall_s"] = wall
        report["layer_share"] = {n: t / wall for n, t in sorted(self_times.items())}
        report["spans"] = tracer.to_json()
    report["reference_s"] = {
        "nominal": speed.REF_NOMINAL_S,
        "samples": len(meter.samples),
        "quartiles": statistics.quantiles(meter.samples, n=4),
    }
    attempted = len(item_times)
    correct = not failures and len(fingerprints) == 1
    report["failures"] = failures
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": report["metrics"],
    }
    return line, report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "posetalg" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'posetalg'}", file=sys.stderr)
        return 2
    line, report = measure(args.workload, args.seed, args.seconds, args.trace)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(report) + "\n")
    summary = {k: report[k] for k in ("workload", "seed", "env", "input_fingerprint", "failures")}
    print(json.dumps(summary))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
