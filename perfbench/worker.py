"""One measuring process for one workload; started by run.py.

Sets the workload up, runs whole passes until the time budget is spent,
checks every output, and prints human-readable lines followed by one
`RESULT {...}` line for the runner.  Its times are corrected for the
host's speed by a hostspeed.Sampler.  With --trace 1 it first runs
untraced passes for half the budget and then traced passes for the
other half, and reports per-layer metrics, in raw wall time, instead of
end-to-end ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

import hostspeed

# Started before the library is imported, so that the samples cover all
# of set-up; a traced run stops it before set-up and reports raw times.
# The worker and the CLI verbs it starts keep to one core, so that the
# samples time the core the work runs on.
sampler = hostspeed.Sampler()
if __name__ == "__main__":
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sampler.start()

import ringcat  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ringcat import cohomology  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]

# End-to-end metrics, in BENCHMARK.json order.
END_TO_END = (
    ("pass_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class Tally:
    """Operations attempted, failed unexpectedly, and failed as recorded."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.failures: list[str] = []
        self.known_ops: set[str] = set()

    def add(self, label: str, verdicts):
        for op, status in verdicts:
            self.attempted += 1
            if status == workloads.OK:
                continue
            if status == workloads.KNOWN:
                self.known += 1
                self.known_ops.add(f"{label} {op}")
                continue
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{label} {op}: {status}")


def run_pass(wl, rng: random.Random, tally: Tally, tracer=None):
    """One pass over the workload's jobs in seeded order.

    Returns ((start, end), {job label: (start, end)}) in perf_counter
    time; a job's interval covers its run, not the check of its output."""
    gc.collect()  # so that each pass starts from the same collector state
    wl.begin_pass()
    first = wl.jobs()
    rng.shuffle(first)
    queue = deque(first)
    latency = {}
    t0 = time.perf_counter()
    while queue:
        job = queue.popleft()
        if tracer is not None:
            tracer.job = job.label
        s = time.perf_counter()
        try:
            out = job.run()
        except Exception as e:
            latency[job.label] = (s, time.perf_counter())
            tally.add(job.label, workloads.failed_everywhere(job, e))
            continue
        latency[job.label] = (s, time.perf_counter())
        tally.add(job.label, wl.check(job, out))
        more = wl.followups(job, out)
        rng.shuffle(more)
        queue.extendleft(reversed(more))
    if tracer is not None:
        tracer.job = None
    tally.add("pass", wl.finish_pass())
    return (t0, time.perf_counter()), latency


def run_passes(wl, rng, tally, budget: float, tracer=None):
    """Whole passes while the next one, as long as the slowest so far,
    still fits in `budget` seconds; at least one.  Returns the passes'
    intervals and their jobs' intervals, as run_pass gives them."""
    passes, latencies = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + max(e - s for s, e in passes) <= budget:
        interval, lat = run_pass(wl, rng, tally, tracer)
        passes.append(interval)
        latencies.append(lat)
    return passes, latencies


def wall(t0: float, t1: float) -> float:
    return t1 - t0


CLI_START_SAMPLES = 3


def cli_start_ms() -> float:
    """Median wall time of `python -c "import ringcat.cli"`, in ms."""
    times = []
    for _ in range(CLI_START_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ringcat.cli"], check=True)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def end_to_end(wl, passes, latencies, seconds) -> tuple[dict, list[str]]:
    """End-to-end metrics from untraced passes; `seconds(t0, t1)` turns
    an interval into the seconds reported (host-corrected)."""
    walls = [seconds(*p) for p in passes]
    lats = [{label: seconds(*iv) for label, iv in lat.items()} for lat in latencies]
    every = sorted(v for lat in lats for v in lat.values())
    who = resource.RUSAGE_CHILDREN if isinstance(wl, workloads.Cli) else resource.RUSAGE_SELF
    metrics = {
        "pass_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    named = [
        f"{metric} {statistics.median(lat[label] for lat in lats):.4f} s"
        f" (median of {len(lats)})"
        for metric, label in wl.NAMED
    ]
    if isinstance(wl, workloads.Cli):
        p90 = statistics.quantiles(every, n=10)[8] if len(every) > 1 else every[0]
        named += [
            f"verb_p50_ms {statistics.median(every) * 1e3:.3f} ms (of {len(every)})",
            f"verb_p90_ms {p90 * 1e3:.3f} ms (of {len(every)})",
        ]
    notes = [
        f"jobs {len(every)} over {len(walls)} passes of " + " ".join(f"{w:.3f}" for w in walls),
        "  raw wall " + " ".join(f"{wall(*p):.3f}" for p in passes),
    ]
    return metrics, [*notes, *named]


def per_layer(wl, tracer, setup_spans, walls, traced_walls):
    spans = tracer.spans
    passes = len(traced_walls)
    top = sum(s[2] - s[1] for s in spans if s[3] < 0)
    special = {
        "cohomology.cached_complexes": len(cohomology._complexes),
        "corpus.build_s": sum(s[2] - s[1] for s in tracing.outermost(setup_spans, ["corpus.corpus"])),
        "fileio.write_s": sum(s[2] - s[1] for s in tracing.outermost(setup_spans, tracing.WRITERS)),
        "cli.start_ms": cli_start_ms(),
        "bench.self_s": (sum(traced_walls) - top) / passes,
        "trace.spans": len(spans) / passes,
        "trace.overhead_ratio": statistics.median(traced_walls) / statistics.median(walls) - 1,
        "anncat.cells_per_s": 0.0,
    }
    metrics = tracing.layer_metrics(spans, passes, special)
    check_s = metrics["anncat.check_s"][0]
    if check_s > 0:
        metrics["anncat.cells_per_s"] = (metrics["anncat.cells_checked"][0] / check_s, "1/s")
    total = statistics.mean(traced_walls)
    shares = sorted(
        ((name.split(".")[0], v) for name, (v, _) in metrics.items() if name.endswith(".self_s")),
        key=lambda kv: -kv[1],
    )
    lines = [
        "untraced passes " + " ".join(f"{w:.3f}" for w in walls),
        "traced passes " + " ".join(f"{w:.3f}" for w in traced_walls),
        f"self time per traced pass ({total:.3f} s):",
    ]
    lines += [f"  {layer:<11} {v:9.4f} s {100 * v / total:6.1f}%" for layer, v in shares if v > 0]
    return metrics, lines


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    if not Path(ringcat.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"ringcat imported from {ringcat.__file__}, not this checkout")

    rng = random.Random(args.seed)
    wl = workloads.WORKLOADS[args.workload](rng, Path(args.workdir))
    wl.sampler = sampler
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        sampler.stop()
        tracer.install()
    wl.setup(tracer)
    ready = time.perf_counter()
    if args.setup_only:
        sampler.top_up()
        sampler.stop()
        print("RESULT " + json.dumps({"setup_s": sampler.seconds(args.spawned_at, ready)}))
        return 0

    tally = Tally()
    lines = []
    if tracer is None:
        passes, latencies = run_passes(wl, rng, tally, args.seconds)
        sampler.stop()
        metrics, lines = end_to_end(wl, passes, latencies, sampler.seconds)
        metrics["setup_s"] = (sampler.seconds(args.spawned_at, ready), "s")
        lines.append(f"host samples {len(sampler.times)}, reference mean "
                     f"{statistics.fmean(sampler.times) * 1e3:.3f} ms "
                     f"(nominal {hostspeed.NOMINAL_S * 1e3:.3f} ms)")
        metrics = {name: metrics[name] for name, _ in END_TO_END}
    else:
        tracer.uninstall()
        wl.tracer = None
        setup_spans = tracer.spans[:]
        tracer.spans.clear()
        walls = [wall(*p) for p in run_passes(wl, rng, tally, args.seconds / 2)[0]]
        tracer.install()
        wl.tracer = tracer
        traced = run_passes(wl, rng, tally, args.seconds / 2, tracer)[0]
        traced_walls = [wall(*p) for p in traced]
        tracer.uninstall()
        metrics, lines = per_layer(wl, tracer, setup_spans, walls, traced_walls)
        out = Path(args.workdir) / f"trace-{args.workload}.json"
        out.write_text(json.dumps({"setup": setup_spans, "passes": tracer.spans}))
        lines.append(f"spans written to {out.relative_to(ROOT)}")

    ratio = f"{tally.failed + tally.known}/{tally.attempted}"
    lines.append(f"failed_ops_ratio {ratio} (unexpected {tally.failed}, known {tally.known})")
    lines += [f"  known: {k}" for k in sorted(tally.known_ops)]
    lines += [f"  FAILED {f}" for f in tally.failures]
    for line in lines:
        print(line)
    print("RESULT " + json.dumps({
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
