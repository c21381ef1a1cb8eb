"""Write the stored outputs the benchmark's oracles compare against.

    python3 perfbench/make_expected.py

Run from the checkout root only when the expected outputs are meant to
change; review the diff of `perfbench/expected/` like any code change.
Writes:

- coherence.json: the full 2-ring report (law, ok, witness, cells
  checked) of every fixed coherence system;
- classify.json: per triple, whether the obstruction vanishes and how
  many classes it finds; refuses to write if enumeration or the brute
  search (where they return) disagree with it;
- cli.json: exit code and stdout of every cli verb.
"""

from __future__ import annotations

import json
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKDIR = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT / "src"))
os.environ["PYTHONPATH"] = str(ROOT / "src")

import workloads  # noqa: E402


def write(name: str, data) -> None:
    path = workloads.EXPECTED / name
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def coherence() -> dict:
    systems = workloads.corpus.corpus() + workloads.zero_mult_multipliers()
    return {
        es.name: workloads.report_rows(workloads.anncat.anncat_axiom_check(es))
        for es in systems
    }


def classify() -> dict:
    wl = workloads.Classify(random.Random(0), WORKDIR)
    wl.triples = workloads.classify_triples()
    wl.begin_pass()
    out = {}
    for label, es, q, psi in wl.triples:
        got = wl.run_triple(es, q, psi)
        cls = got["obstruction"]
        want = {"vanishes": bool(cls.vanishes), "count": int(cls.count)}
        enum, search = got["enumerate"], got["search"]
        if not isinstance(enum, Exception) and len(enum) != want["count"]:
            sys.exit(f"{label}: enumeration finds {len(enum)}, obstruction {want}")
        if not isinstance(search, Exception) and (len(search) > 0) != want["vanishes"]:
            sys.exit(f"{label}: brute search disagrees with obstruction {want}")
        out[label] = want
    return out


def cli() -> dict:
    wl = workloads.Cli(random.Random(0), WORKDIR)
    wl.write_inputs()
    out = {}
    for argv in workloads.cli_argvs():
        code, stdout = wl.run_cli(argv)
        out[" ".join(argv)] = {"exit": code, "stdout": stdout.decode("utf-8")}
    return out


if __name__ == "__main__":
    write("classify.json", classify())
    write("cli.json", cli())
    write("coherence.json", coherence())
