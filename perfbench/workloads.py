"""The benchmark's workloads: inputs, jobs and output oracles.

A workload builds its inputs in `setup`, then hands out one pass worth of
jobs at a time.  A job is one call sequence into the library; its output
goes to `check`, which returns one outcome per operation the job
attempted: OK, KNOWN (a failure named in KNOWN_FAILURES, still behaving
as recorded) or a failure reason.  Jobs may spawn follow-up jobs from
their output (the census descends quotient -> action -> cocycle).

Every oracle can fail on both sides: stored reports and transcripts in
`expected/` (written by make_expected.py), independent routes that must
agree, and fixed counts.  `corrupt` damages one output per workload so
the self-test can show that each oracle notices.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ringcat import (
    ablin,
    anncat,
    bimult,
    cohomology,
    corpus,
    crossed,
    extensions,
    fileio,
    rings,
    transport,
)

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"

OK = "ok"
KNOWN = "known"


@dataclass
class Job:
    """`ops` names the operations `check` reports on.  A job with none
    (a preparation step) still counts as one failed operation if it raises."""

    label: str
    run: Callable[[], Any]
    ops: tuple[str, ...] = ("run",)


def failed_everywhere(job: Job, exc: BaseException):
    return [(op, f"raised {type(exc).__name__}: {exc}") for op in job.ops or ("run",)]


class Workload:
    """What the workloads share; see the module docstring."""

    name = ""
    NAMED: tuple = ()  # (metric, job label): latencies the worker prints by name
    tracer = None  # set by the worker around traced passes
    sampler = None  # the worker's hostspeed.Sampler, for work done in child processes

    def __init__(self, rng, workdir: Path):
        self.rng = rng
        self.workdir = workdir

    def begin_pass(self):
        pass

    def followups(self, job: Job, output) -> list[Job]:
        return []

    def finish_pass(self) -> list:
        return []


# ---------------------------------------------------------------------------
# coherence: the 2-ring axiom checker on fixed systems and seeded mutations.


def report_rows(rep) -> list:
    return [
        [r.law, bool(r.ok), None if r.witness is None else [int(v) for v in r.witness],
         int(r.checked)]
        for r in rep.results
    ]


def zero_mult_multipliers():
    """Multiplier systems of zero_mult(4/6/8): |D| = 16, 36, 64."""
    return [
        crossed.multiplier_esystem(rings.zero_mult(n), name=f"mult_zm{n}") for n in (4, 6, 8)
    ]


class Coherence(Workload):
    name = "coherence"
    # Mutations per source: each regular corpus system, then zero_mult(4/6).
    MUTATIONS_CORPUS, MUTATIONS_ZM = 10, 35
    NAMED = (("verdict_d64_s", "full:mult_zm8"), ("verdict_d256_s", "full:mult_klein0"))

    def setup(self, tracer=None):
        base, zm = corpus.corpus(), zero_mult_multipliers()
        self.systems = base + zm
        self.expected = json.loads((EXPECTED / "coherence.json").read_text())
        if sorted(self.expected) != sorted(es.name for es in self.systems):
            raise RuntimeError("expected/coherence.json does not match the system list")
        sources = [(es, self.MUTATIONS_CORPUS) for es in base if crossed.is_regular(es)]
        sources += [(es, self.MUTATIONS_ZM) for es in zm[:2]]
        self.mutations = {}
        for es, count in sources:
            nd, nb = es.d_ring.order, es.b.order
            for i in range(count):
                side = i % 2
                x = self.rng.randrange(1, nd)
                c = self.rng.randrange(nb)
                delta = self.rng.randrange(1, nb)
                tl, tr = es.theta_left.copy(), es.theta_right.copy()
                table = tl if side == 0 else tr
                table[x, c] = (int(table[x, c]) + delta) % nb
                label = f"{es.name}#{i}:{'lr'[side]}[{x},{c}]+{delta}"
                self.mutations[label] = crossed.ESystem(label, es.b, es.d_ring, es.d, tl, tr)

    def jobs(self) -> list[Job]:
        full = [
            Job(f"full:{es.name}", lambda es=es: anncat.anncat_axiom_check(es))
            for es in self.systems
        ]
        muts = [
            Job(f"mut:{label}", lambda m=m: anncat.anncat_axiom_check(m, stop_at_first=True))
            for label, m in self.mutations.items()
        ]
        return full + muts

    def check(self, job: Job, rep) -> list:
        kind, name = job.label.split(":", 1)
        if kind == "full":
            got, want = report_rows(rep), self.expected[name]
            if got != want or not rep.complete:
                bad = next((g for g, w in zip(got, want) if g != w), got[len(want):] or None)
                return [("run", f"report differs from the stored one at {bad}")]
            return [("run", OK)]
        mut = self.mutations[name]
        try:
            v = crossed.validate_esystem(mut.b, mut.d_ring, mut.d.map,
                                         mut.theta_left, mut.theta_right)
            accepted = crossed.is_regular(v)
        except crossed.ESystemError:
            accepted = False
        if rep.ok != accepted:
            return [("run", f"2-ring check says {rep.ok}, validate+regular says {accepted}")]
        if not rep.ok and rep.failures()[0].witness is None:
            return [("run", "failing law without a witness")]
        return [("run", OK)]

    @staticmethod
    def corrupt(job: Job, rep):
        # Move the last law's witness (or its cell count) by one.
        r = rep.results[-1]
        if r.witness is None:
            r.checked += 1
        else:
            r.witness = (r.witness[0] + 1,) + tuple(r.witness[1:])
        return rep


# ---------------------------------------------------------------------------
# classify: obstruction, enumeration and brute-force search per triple.

# Failures of the library as it stands, which the workload keeps and counts: the
# label's operation raises the named exception.  Quotient = zero ring: the
# obstruction reports one class but enumeration and search raise.  The
# flat Klein base over order-4 quotients trips the search guard.
_ZERO_QUOTIENT = {"enumerate": "FactorSystemError", "search": "IndexError"}
KNOWN_FAILURES = {
    "id_z2|coker_id_z2|0": _ZERO_QUOTIENT,
    "id_z3|coker_id_z3|0": _ZERO_QUOTIENT,
    "id_z4|coker_id_z4|0": _ZERO_QUOTIENT,
    "id_klein|coker_id_klein|0": _ZERO_QUOTIENT,
    "mult_z2|coker_mult_z2|0": _ZERO_QUOTIENT,
    "mult_z3|coker_mult_z3|0": _ZERO_QUOTIENT,
    "flat_klein0|z4|0,1,0,1": {"search": "SearchGuardError"},
    "flat_klein0|z2xz2|0,0,1,1": {"search": "SearchGuardError"},
    "flat_klein0|z2xz2|0,1,0,1": {"search": "SearchGuardError"},
}
OBSTRUCTED = "mult_2z8|coker_mult_2z8|0,1,2,3"


def classify_triples():
    """corpus_triples(limit=16), then every regular system over its own
    cokernel with psi = id.  Returns (label, system, q, psi) tuples."""
    triples = corpus.corpus_triples(limit=16)
    systems = list({id(es): es for es, _, _ in triples}.values())
    if len(triples) != 46 or len(systems) != 13:
        raise RuntimeError(f"{len(triples)} triples over {len(systems)} systems")
    for es in systems:
        coker = rings.ideal_cokernel(es.d, name=f"coker_{es.name}").ring
        triples.append((es, coker, rings.RingHom(coker, coker, np.arange(coker.order))))
    return [
        (f"{es.name}|{q.name}|{','.join(str(int(v)) for v in psi.map)}", es, q, psi)
        for es, q, psi in triples
    ]


class Classify(Workload):
    name = "classify"
    OPS = ("obstruction", "enumerate", "search")
    NAMED = (("obstructed_verdict_s", f"triple:{OBSTRUCTED}"),)

    def setup(self, tracer=None):
        self.triples = classify_triples()
        self.expected = json.loads((EXPECTED / "classify.json").read_text())
        if sorted(self.expected) != sorted(t[0] for t in self.triples):
            raise RuntimeError("expected/classify.json does not match the triple list")
        self.systems = list({id(t[1]): t[1] for t in self.triples}.values())

    def begin_pass(self):
        self.reduced = {}
        self.checked = 0

    def _reduce(self, es):
        self.reduced[id(es)] = transport.reduce_esystem(es)
        return self.reduced[id(es)]

    def jobs(self) -> list[Job]:
        # One reduction per system per pass; its triples follow it.
        return [Job(f"reduce:{es.name}", lambda es=es: self._reduce(es), ops=())
                for es in self.systems]

    def followups(self, job, output) -> list[Job]:
        if not job.label.startswith("reduce:"):
            return []
        name = job.label.split(":", 1)[1]
        return [
            Job(f"triple:{label}", lambda t=t: self.run_triple(*t), ops=self.OPS)
            for label, *t in self.triples if t[0].name == name
        ]

    def run_triple(self, es, q, psi):
        rc = self.reduced.get(id(es)) or self._reduce(es)
        out = {}
        try:
            out["obstruction"] = extensions.extension_obstruction(es, q, psi, rc=rc)
        except Exception as e:
            out["obstruction"] = e
        cls = out["obstruction"]
        try:
            out["enumerate"] = extensions.enumerate_extensions(
                es, q, psi, rc=rc,
                classification=None if isinstance(cls, Exception) else cls,
            )
        except Exception as e:
            out["enumerate"] = e
        try:
            out["search"] = extensions.exhaustive_extension_search(es, q, psi, stop_at_first=True)
        except Exception as e:
            out["search"] = e
        return out

    def check(self, job: Job, out) -> list:
        kind, label = job.label.split(":", 1)
        if kind == "reduce":
            return []
        self.checked += 1
        want = self.expected[label]
        known = KNOWN_FAILURES.get(label, {})
        verdicts = []
        for op in self.OPS:
            got = out[op]
            if isinstance(got, Exception):
                name = type(got).__name__
                verdicts.append((op, KNOWN if known.get(op) == name else f"raised {name}: {got}"))
                continue
            if op == "obstruction":
                ok = got.vanishes == want["vanishes"] and got.count == want["count"]
                if label == OBSTRUCTED and got.vanishes:
                    ok = False
            elif op == "enumerate":
                ok = len(got) == want["count"]
                if not isinstance(out["obstruction"], Exception):
                    ok = ok and len(got) == out["obstruction"].count
            else:
                ok = (len(got) > 0) == want["vanishes"]
            verdicts.append((op, OK if ok else f"{op} disagrees with {want}"))
        return verdicts

    def finish_pass(self) -> list:
        # The triples of a system whose reduction raised never run.
        if self.checked == len(self.triples):
            return []
        return [("triples", f"{self.checked} of {len(self.triples)} triples ran")]

    @staticmethod
    def corrupt(job: Job, out):
        # Drop one enumerated extension, so enumeration undercounts.
        out["enumerate"] = out["enumerate"][:-1]
        return out


# ---------------------------------------------------------------------------
# census: the Klein zero-ring census, rebuilt from library calls.

# quotient key -> (actions, crossed rings) the census must find.
CENSUS_COUNTS = {"z2": (1, 16), "z3": (0, 0), "z4": (1, 256), "z2xz2": (40, 3712)}


class Census(Workload):
    name = "census"

    def setup(self, tracer=None):
        kl = rings.zero_mult_klein()
        self.base = kl
        self.quotients = {
            "z2": rings.zmod(2),
            "z3": rings.zmod(3),
            "z4": rings.zmod(4),
            "z2xz2": rings.product_ring(rings.zmod(2), rings.zmod(2), name="klein"),
        }
        factors, _, coords = rings.decompose_abelian(kl.add)
        self.group = ablin.FinAbGroup(tuple(factors))
        self.coords = np.array([coords[i] for i in range(kl.order)], dtype=np.int64)
        self.neg = np.array(
            [int(np.nonzero(kl.add[i] == 0)[0][0]) for i in range(kl.order)], dtype=np.int16
        )

    def begin_pass(self):
        self.found = {key: [0, 0] for key in self.quotients}

    def jobs(self) -> list[Job]:
        return [Job("bimult_ring", lambda: bimult.bimult_ring(self.base))]

    def _actions(self, q, mb):
        acts = []
        for h in corpus.unital_homs(q, mb.ring):
            rows = [mb.bimult_of(int(i)) for i in h.map]
            if all(bimult.permutable(s, t) for s in rows for t in rows):
                acts.append((np.array([r.left for r in rows], dtype=np.int16),
                             np.array([r.right for r in rows], dtype=np.int16)))
        return acts

    def _cocycles(self, q, left, right):
        mod = crossed.validate_bimodule(q, self.group, self.base.add, self.neg, left, right,
                                        self.coords)
        cx = cohomology.complex_for(mod)
        return cx, list(ablin.kernel(cx.d2_map).elements())

    def _ring(self, q, left, right, cx, enc):
        c = cx.decode2(np.asarray(enc, dtype=np.int64))
        fs = extensions.validate_factor_system(self.base, q, left, right, c.f, c.g)
        return extensions.crossed_ring(fs)

    def followups(self, job, output) -> list[Job]:
        kind, *rest = job.label.split(":")
        if kind == "bimult_ring":
            return [Job(f"homs:{key}", lambda q=q: self._actions(q, output))
                    for key, q in self.quotients.items()]
        if kind == "homs":
            q = self.quotients[rest[0]]
            return [Job(f"action:{rest[0]}:{i}", lambda q=q, a=a: (a, *self._cocycles(q, *a)))
                    for i, a in enumerate(output)]
        if kind == "action":
            q = self.quotients[rest[0]]
            (left, right), cx, encs = output
            return [Job(f"ring:{rest[0]}:{rest[1]}:{j}",
                        lambda q=q, enc=enc: self._ring(q, left, right, cx, enc))
                    for j, enc in enumerate(encs)]
        return []

    def check(self, job: Job, out) -> list:
        kind, *rest = job.label.split(":")
        if kind == "bimult_ring":
            ok = out.ring.order == 256
        elif kind == "homs":
            self.found[rest[0]][0] = len(out)
            ok = len(out) == CENSUS_COUNTS[rest[0]][0]
        elif kind == "action":
            ok = True
        else:
            q = self.quotients[rest[0]]
            ok = out.unit is not None and out.order == self.base.order * q.order
            self.found[rest[0]][1] += ok
        return [("run", OK if ok else f"unexpected output {out!r:.80}")]

    def finish_pass(self) -> list:
        verdicts = []
        for key, want in CENSUS_COUNTS.items():
            got = tuple(self.found[key])
            verdicts.append((f"total:{key}", OK if got == want else f"found {got}, want {want}"))
        return verdicts

    @staticmethod
    def corrupt(job: Job, out):
        # Lose one action of the quotient.
        return out[:-1]


# ---------------------------------------------------------------------------
# cli: one subprocess per verb over files written by `ringcat corpus --out`.

# Arguments run from the workload's directory; see setup for the files.
CLI_VERBS = [
    ["validate", "ring", "files/id_z4_B.ring"],
    ["validate", "ring", "files/mult_2z8_D.ring"],
    ["validate", "ring", "bad_parse.ring"],
    ["validate", "ring", "bad_axiom.ring"],
    ["validate", "esystem", "files/double_2z8.esys"],
    ["validate", "esystem", "files/mult_klein0.esys"],
    ["validate", "module", "files/flat_z2_D.ring", "m.mod"],
    ["validate", "extension", "x/a.ext"],
    ["convert", "files/double_2z8.esys"],
    ["convert", "files/mult_klein0.esys"],
    ["bimult", "enumerate", "files/flat_z2_B.ring"],
    ["bimult", "enumerate", "files/id_klein_B.ring"],
    ["anncat", "check", "files/flat_z2.esys"],
    ["anncat", "check", "files/double_2z8.esys"],
    ["anncat", "check", "files/mult_2z8.esys"],
    ["reduce", "files/flat_z2.esys"],
    ["anncat", "reduce", "files/double_2z8.esys"],
    ["cohom", "h2", "files/flat_z2_D.ring", "m.mod"],
    ["cohom", "obstruct", "files/mult_2z8.esys", "--psi", "id"],
    ["cohom", "obstruct", "files/mult_2z8.esys", "--q", "files/flat_z2_D.ring",
     "--psi", "0:0,1:2"],
    ["ext", "enum", "files/flat_z2.esys", "--q", "files/flat_z2_D.ring", "--psi", "id"],
    ["ext", "enum", "files/flat_klein0.esys", "--q", "files/flat_klein0_D.ring", "--psi", "id"],
    ["ext", "equiv", "x/a.ext", "x/b.ext"],
    ["ext", "equiv", "x/a.ext", "x/c.ext"],
]
CLI_TSV = [
    ["validate", "esystem", "files/double_2z8.esys"],
    ["bimult", "enumerate", "files/flat_z2_B.ring"],
    ["anncat", "check", "files/mult_2z8.esys"],
    ["reduce", "files/flat_z2.esys"],
    ["cohom", "h2", "files/flat_z2_D.ring", "m.mod"],
    ["cohom", "obstruct", "files/mult_2z8.esys", "--psi", "id"],
    ["ext", "enum", "files/flat_z2.esys", "--q", "files/flat_z2_D.ring", "--psi", "id"],
    ["ext", "equiv", "x/a.ext", "x/b.ext"],
]


def cli_argvs() -> list[list[str]]:
    return CLI_VERBS + [["--format", "tsv", *a] for a in CLI_TSV]


class Cli(Workload):
    name = "cli"
    CHILD = HERE / "clichild.py"

    def __init__(self, rng, workdir: Path):
        super().__init__(rng, workdir)
        self.dir = workdir / "cli"

    def run_cli(self, argv: list[str]):
        """Run one verb in a fresh interpreter; returns (exit code, stdout).

        With a tracer attached, the verb runs under clichild.py, which
        records spans inside the child; they are merged under one
        `process.run` span covering the child's whole life."""
        tracer = self.tracer
        if tracer is None:
            cmd = [sys.executable, "-m", "ringcat.cli", *argv]
        else:
            spans_file = self.dir / "child-spans.json"
            cmd = [sys.executable, str(self.CHILD), str(spans_file), *argv]
        held = self.sampler.child_at_work() if self.sampler else contextlib.nullcontext()
        with held:
            t0 = time.perf_counter()
            p = subprocess.run(cmd, cwd=self.dir, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, timeout=120)
            t1 = time.perf_counter()
        if tracer is not None:
            top = tracer.span("process.run", t0, t1)
            child = json.loads(spans_file.read_text())
            base = len(tracer.spans)
            for s in child:
                s[3] = top if s[3] < 0 else s[3] + base
                s[4] = tracer.job
                tracer.spans.append(s)
        return p.returncode, p.stdout

    def setup(self, tracer=None):
        self.tracer = tracer
        self.write_inputs()
        self.expected = json.loads((EXPECTED / "cli.json").read_text())
        self.argvs = cli_argvs()
        if sorted(self.expected) != sorted(" ".join(a) for a in self.argvs):
            raise RuntimeError("expected/cli.json does not match the verb list")

    def write_inputs(self):
        """Corpus files from the CLI itself, plus extension, module and
        broken ring files written through the library."""
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        code, _ = self.run_cli(["corpus", "--out", "files"])
        if code != 0:
            raise RuntimeError("`ringcat corpus --out` failed")
        es = fileio.load_esystem(self.dir / "files" / "flat_z2.esys")
        rc = transport.reduce_esystem(es)
        psi = corpus.unital_homs(rings.zmod(2), rc.ring)[0]
        e0, e1 = extensions.enumerate_extensions(es, psi.source, psi, rc=rc)
        for ext, stem in ((e0, "a"), (e0, "b"), (e1, "c")):
            fileio.write_extension(ext, self.dir / "x", stem=stem)
        fileio.write_module(rc.module, self.dir / "m.mod", name="m_id")
        (self.dir / "bad_parse.ring").write_text("ring x\norder 2\nadd\n0 1\n")
        (self.dir / "bad_axiom.ring").write_text(
            "ring x\norder 2\nadd\n0 1\n1 0\nmul\n0 1\n0 0\nunit none\n"
        )

    def jobs(self) -> list[Job]:
        return [Job(" ".join(a), lambda a=a: self.run_cli(a)) for a in self.argvs]

    def check(self, job: Job, out) -> list:
        code, stdout = out
        want = self.expected[job.label]
        if code != want["exit"]:
            return [("run", f"exit {code}, want {want['exit']}")]
        if stdout != want["stdout"].encode("utf-8"):
            return [("run", "stdout differs from the stored transcript")]
        return [("run", OK)]

    @staticmethod
    def corrupt(job: Job, out):
        code, stdout = out
        return code, stdout[:-1] + b"?"


WORKLOADS = {w.name: w for w in (Coherence, Classify, Census, Cli)}
