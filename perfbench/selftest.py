"""Self-test of the benchmark's oracles and metric lists.

    python3 perfbench/run.py --self-test

For each workload, one real job's output must pass its oracle and the
same output, damaged by the workload's `corrupt`, must be counted as a
failed operation, and so must a classify reduction that raises.  Also
checks that BENCHMARK.json lists exactly the metrics the worker reports.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

import tracing
import worker
import workloads


def sample_job(wl, path: list[str]):
    """Run the job chain named by `path`, each a follow-up of the one
    before; return the last job and its output."""
    wl.setup()
    wl.begin_pass()
    jobs = wl.jobs()
    for label in path:
        job = next(j for j in jobs if j.label == label)
        out = job.run()
        jobs = wl.followups(job, out)
    return job, out


SAMPLES = {
    "coherence": ["full:flat_z2"],
    "classify": ["reduce:flat_z2", "triple:flat_z2|z2|0,1"],
    "census": ["bimult_ring", "homs:z2"],
    "cli": ["validate ring files/id_z4_B.ring"],
}


def check_oracles(workdir: Path) -> bool:
    ok = True
    for name, path in SAMPLES.items():
        wl = workloads.WORKLOADS[name](random.Random(0), workdir)
        job, out = sample_job(wl, path)
        clean, damaged = worker.Tally(), worker.Tally()
        clean.add(job.label, wl.check(job, out))
        damaged.add(job.label, wl.check(job, wl.corrupt(job, out)))
        good = clean.failed == 0 and damaged.failed > 0
        ok &= good
        print(f"{name:<10} {job.label}: clean output failed {clean.failed}, "
              f"corrupted output failed {damaged.failed} -> {'ok' if good else 'WRONG'}")
    return ok


def check_raising_reduction(workdir: Path) -> bool:
    """A classify reduction that raises must count as failed, although
    the reduce job reports no operation of its own and its triples never run."""
    wl = workloads.Classify(random.Random(0), workdir)
    wl.setup()
    wl.systems = wl.systems[:1]

    def broken(es):
        raise RuntimeError("reduction broken on purpose")

    wl._reduce = broken
    tally = worker.Tally()
    worker.run_pass(wl, random.Random(0), tally)
    good = tally.failed > 0
    print(f"classify   raising reduction: failed {tally.failed} -> {'ok' if good else 'WRONG'}")
    return good


def check_metric_lists() -> bool:
    spec = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    good = e2e == list(worker.END_TO_END) and layer == [(n, u) for n, u, _ in tracing.PER_LAYER]
    print(f"BENCHMARK.json metric lists match the worker -> {'ok' if good else 'WRONG'}")
    return good


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    ok = check_oracles(Path(args.workdir))
    ok &= check_raising_reduction(Path(args.workdir))
    ok &= check_metric_lists()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
