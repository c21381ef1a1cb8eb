"""ringcat benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a ringcat checkout; the library is imported from
its `src/`.  Each workload runs in fresh processes with BLAS/OpenMP
pinned to one thread: set-up probes and one measuring worker
(worker.py).  `setup_s` is the median of their set-up times, each from
process spawn to inputs ready and, like every end-to-end time, corrected
for the host's speed (hostspeed.py).  The last line of standard output
is one JSON object: correct, attempted, failed and the metrics (the
end-to-end ones with --trace 0, the per-layer ones with --trace 1).
Scratch files go to `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("coherence", "classify", "census", "cli")
# Set-up probes: at least the minimum, more while their set-up times sum
# to less than SETUP_PROBE_S, so that a quick set-up gets more samples.
SETUP_PROBES_MIN, SETUP_PROBES_MAX, SETUP_PROBE_S = 2, 10, 3.0
DEADLINE_S = 170
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)


class WorkerError(RuntimeError):
    pass


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_worker(args, env, workdir: Path, deadline: float, setup_only: bool) -> tuple[dict, str]:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.perf_counter()
    # Own process group, so that a kill also reaches the CLI verbs it runs.
    proc = subprocess.Popen(
        [*cmd, "--spawned-at", repr(spawned)], env=env, cwd=ROOT,
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except BaseException as e:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if isinstance(e, subprocess.TimeoutExpired):
            raise WorkerError(f"{args.workload} worker ran past the deadline") from None
        raise
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("RESULT "):
        raise WorkerError(f"{args.workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1][len("RESULT "):]), "\n".join(lines[:-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that each workload's oracle rejects a corrupted output")
    args = ap.parse_args()
    started = time.monotonic()

    if not (ROOT / "src" / "ringcat" / "__init__.py").is_file():
        print(f"error: no ringcat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = pinned_env()
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    if args.self_test:
        return subprocess.run(
            [sys.executable, str(HERE / "selftest.py"), "--workdir", str(workdir)],
            env=env, cwd=ROOT, timeout=DEADLINE_S,
        ).returncode
    if args.workload is None or args.seconds < 1:
        ap.error("--workload and a positive --seconds are required")

    deadline = started + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            while len(setups) < SETUP_PROBES_MIN or (
                len(setups) < SETUP_PROBES_MAX and sum(setups) < SETUP_PROBE_S
            ):
                probe, _ = run_worker(args, env, workdir, deadline, setup_only=True)
                setups.append(probe["setup_s"])
        res, report = run_worker(args, env, workdir, deadline, setup_only=False)
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    metrics = res["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(report)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
