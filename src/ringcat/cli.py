"""Command-line front end.

Every verb is a thin shell over the library: load files, call one
operation, print a report of `key: value` lines (or `key<TAB>value`
with --format tsv) and translate the outcome into an exit code.

Each verb imports only the layers it calls, inside its handler: a verb
is mostly interpreter start-up, and no bytecode cache is assumed, so
every module imported is compiled and its dataclasses built on each
run.  `validate ring` loads `ablin`, `rings`, `fileio` and this module;
the extension verbs load every layer but `corpus`.

Exit codes: 0 success, 1 mathematical negative (invalid object, not
equivalent, obstructed), 2 input or resource error (parse failure,
missing file, a closed stdout, any tripped guard, integer arithmetic
that would leave int64), 3 internal error (a failed internal `assert`, reported on stderr
as `error: internal: ...`).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .fileio import (
    ParseError,
    load_esystem,
    load_extension,
    load_module,
    load_ring,
    load_section,
    write_esystem,
)
from .rings import RingHom, SearchGuardError, _additive_orders, decompose_abelian


class Report:
    """Ordered key/value lines; identical content in both formats."""

    def __init__(self, fmt: str):
        self.sep = "\t" if fmt == "tsv" else ": "
        self.lines: list[str] = []

    def add(self, key, value):
        self.lines.append(f"{key}{self.sep}{value}")

    def table(self, key, a: np.ndarray):
        a = np.asarray(a)
        flat = a.reshape(-1) if a.ndim == 1 else a
        if flat.ndim == 1:
            self.add(key, " ".join(str(int(v)) for v in flat))
        else:
            for i, row in enumerate(flat):
                self.add(f"{key}[{i}]", " ".join(str(int(v)) for v in row))

    def emit(self):
        for line in self.lines:
            print(line)


def _guard(args) -> dict:
    """The --guard keyword if given, so that otherwise each verb keeps its
    library default."""
    return {} if args.guard is None else {"guard": args.guard}


def _parse_psi(text: str, q, target) -> RingHom:
    if text == "id":
        if q.order != target.order:
            raise ParseError("<psi>", 0, 0, "psi 'id' needs equal orders")
        return RingHom(q, target, np.arange(q.order))
    m = np.full(q.order, -1, dtype=np.int64)
    seen = set()
    for part in text.split(","):
        src, _, dst = part.partition(":")
        try:
            s, d = int(src), int(dst)
            if s < 0 or s in seen or not 0 <= d < target.order:  # -1 would wrap around
                raise IndexError(s)
            m[s] = d
            seen.add(s)
        except (ValueError, IndexError) as e:
            raise ParseError("<psi>", 0, 0, f"bad psi pair '{part}'") from e
    if (m < 0).any():
        raise ParseError("<psi>", 0, 0, "psi must map every quotient element")
    return RingHom(q, target, m)


# ---------------------------------------------------------------------------
# Verb handlers.  Each returns the exit code.


def cmd_validate(args, rep: Report) -> int:
    kind = args.kind
    if kind == "ring":
        r = load_ring(args.file)
        rep.add("ring", r.name)
        rep.add("order", r.order)
        rep.add("unit", "none" if r.unit is None else int(r.unit))
    elif kind == "esystem":
        from .crossed import is_regular

        es = load_esystem(args.file)
        rep.add("esystem", es.name)
        rep.add("base order", es.b.order)
        rep.add("target order", es.d_ring.order)
        rep.add("regular", "yes" if is_regular(es) else "no")
    elif kind == "module":
        ring = load_ring(args.file)
        mod = load_module(args.module, ring)
        rep.add("module order", mod.order)
        rep.add("group", list(mod.group.factors))
    elif kind == "section":
        es = load_esystem(args.file)
        load_section(args.section, es)
        rep.add("section of", es.name)
    else:
        ext = load_extension(args.file)
        rep.add("extension", ext.name)
        rep.add("total order", ext.ring.order)
        rep.add("quotient order", ext.quotient.order)
    rep.add("status", "valid")
    return 0


def cmd_convert(args, rep: Report) -> int:
    from .crossed import es_to_xb, xb_to_es

    es = load_esystem(args.file)
    xb = es_to_xb(es)
    back = xb_to_es(xb)
    same = (
        np.array_equal(back.d.map, es.d.map)
        and np.array_equal(back.theta_left, es.theta_left)
        and np.array_equal(back.theta_right, es.theta_right)
    )
    rep.add("crossed bimodule", xb.name)
    rep.add("round trip", "identity" if same else "MISMATCH")
    return 0 if same else 1


def cmd_bimult(args, rep: Report) -> int:
    from .bimult import enumerate_bimultiplications

    r = load_ring(args.file)
    left, right = enumerate_bimultiplications(r)
    rep.add("ring", r.name)
    rep.add("count", len(left))
    for i, (lf, rt) in enumerate(zip(left.tolist(), right.tolist(), strict=True)):
        rep.add(f"bimult[{i}]", " ".join(map(str, lf)) + " | " + " ".join(map(str, rt)))
    return 0


def cmd_anncat_check(args, rep: Report) -> int:
    from .anncat import anncat_axiom_check

    es = load_esystem(args.file)
    report = anncat_axiom_check(es)
    rep.add("esystem", es.name)
    for r in report.results:
        rep.add(r.law, "ok" if r.ok else f"FAIL at {r.witness}")
    rep.add("status", "pass" if report.ok else "fail")
    return 0 if report.ok else 1


def cmd_anncat_reduce(args, rep: Report) -> int:
    from .transport import reduce_esystem

    es = load_esystem(args.file)
    section = None
    if args.section and args.section != "auto":
        section = load_section(args.section, es)
    rc = reduce_esystem(es, section=section)
    rep.add("esystem", es.name)
    rep.add("ring order", rc.ring.order)
    factors, _, _ = decompose_abelian(rc.ring.add)
    rep.add("ring invariant factors", list(factors))
    rep.add("module order", rc.module.order)
    rep.add("module group", list(rc.module.group.factors))
    rep.table("module add", rc.module.add)
    rep.table("module left", rc.module.left)
    rep.table("module right", rc.module.right)
    for t, nm in rc.k.tables():
        rep.table(f"k {nm}", t.reshape(-1))
    return 0


def cmd_cohom_h2(args, rep: Report) -> int:
    from .cohomology import h2

    ring = load_ring(args.ring)
    mod = load_module(args.module, ring)
    data = h2(mod, **_guard(args))
    rep.add("order", data.order)
    rep.add("invariant factors", [f for f in data.factors if f > 1])
    return 0


def cmd_cohom_obstruct(args, rep: Report) -> int:
    from .extensions import extension_obstruction
    from .transport import reduce_esystem

    es = load_esystem(args.file)
    rc = reduce_esystem(es)
    q = load_ring(args.q) if args.q else rc.ring
    psi = _parse_psi(args.psi, q, rc.ring)
    cls = extension_obstruction(es, q, psi, rc=rc)
    rep.add("esystem", es.name)
    rep.add("psi", " ".join(str(int(v)) for v in psi.map))
    rep.add("obstruction", "vanishes" if cls.vanishes else "nonvanishing")
    rep.add("classes", cls.count)
    return 0 if cls.vanishes else 1


def cmd_ext_enum(args, rep: Report) -> int:
    from .extensions import enumerate_extensions
    from .transport import reduce_esystem

    es = load_esystem(args.file)
    rc = reduce_esystem(es)
    q = load_ring(args.q)
    psi = _parse_psi(args.psi, q, rc.ring)
    exts = enumerate_extensions(es, q, psi, rc=rc)
    rep.add("esystem", es.name)
    rep.add("quotient", q.name)
    rep.add("classes", len(exts))
    for i, ext in enumerate(exts):
        tops = int(_additive_orders(ext.ring.add).max())
        rep.add(f"class[{i}]", f"order {ext.ring.order} unit {int(ext.ring.unit)} "
                              f"max additive order {tops}")
    return 0 if exts else 1


def cmd_ext_equiv(args, rep: Report) -> int:
    from .extensions import equivalent, validate_extension

    e1 = load_extension(args.first)
    e2 = load_extension(args.second)
    b1, b2 = e1.base, e2.base
    same_base = (
        np.array_equal(b1.b.add, b2.b.add)
        and np.array_equal(b1.b.mul, b2.b.mul)
        and np.array_equal(b1.d_ring.add, b2.d_ring.add)
        and np.array_equal(b1.d_ring.mul, b2.d_ring.mul)
        and np.array_equal(b1.d.map, b2.d.map)
        and np.array_equal(b1.theta_left, b2.theta_left)
        and np.array_equal(b1.theta_right, b2.theta_right)
    )
    if not same_base:
        rep.add("equivalent", "no")
        rep.add("reason", "different base systems")
        return 1
    # rebind the second extension over the first one's base object
    e2 = validate_extension(
        b1, e2.ring, e2.quotient, e2.j.map, e2.p.map, e2.eps.map, name=e2.name
    )
    iso = equivalent(e1, e2, **_guard(args))
    if iso is None:
        rep.add("equivalent", "no")
        return 1
    rep.add("equivalent", "yes")
    rep.table("map", iso.map)
    return 0


def cmd_corpus(args, rep: Report) -> int:
    from .corpus import corpus
    from .crossed import is_regular

    for es in corpus():
        rep.add(
            es.name,
            f"base {es.b.order} target {es.d_ring.order} "
            f"regular {'yes' if is_regular(es) else 'no'}",
        )
    if args.out:
        for es in corpus():
            path = write_esystem(es, args.out, stem=es.name)
            rep.add("wrote", path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ringcat",
        description="Finite ring actions, their 2-rings, cohomology and extensions.",
    )
    ap.add_argument("--format", choices=("text", "tsv"), default="text")
    ap.add_argument("--guard", type=int, default=None,
                    help="size limit: coordinates per cochain group for cohom h2, "
                         "candidates for ext equiv (default: the library's limits)")
    sub = ap.add_subparsers(dest="verb", required=True)

    v = sub.add_parser("validate", help="validate an object file")
    vs = v.add_subparsers(dest="kind", required=True)
    for kind in ("ring", "esystem", "extension"):
        p = vs.add_parser(kind)
        p.add_argument("file")
        p.set_defaults(func=cmd_validate)
    p = vs.add_parser("module")
    p.add_argument("file", help="ring file the module lives over")
    p.add_argument("module")
    p.set_defaults(func=cmd_validate)
    p = vs.add_parser("section")
    p.add_argument("file", help="esystem file the section belongs to")
    p.add_argument("section")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("convert", help="run the crossed-bimodule round trip")
    p.add_argument("file")
    p.set_defaults(func=cmd_convert)

    b = sub.add_parser("bimult")
    bs = b.add_subparsers(dest="action", required=True)
    p = bs.add_parser("enumerate")
    p.add_argument("file")
    p.set_defaults(func=cmd_bimult)

    a = sub.add_parser("anncat")
    as_ = a.add_subparsers(dest="action", required=True)
    p = as_.add_parser("check")
    p.add_argument("file")
    p.set_defaults(func=cmd_anncat_check)
    p = as_.add_parser("reduce")
    p.add_argument("file")
    p.add_argument("--section", default="auto")
    p.set_defaults(func=cmd_anncat_reduce)

    p = sub.add_parser("reduce", help="shorthand for 'anncat reduce'")
    p.add_argument("file")
    p.add_argument("--section", default="auto")
    p.set_defaults(func=cmd_anncat_reduce)

    c = sub.add_parser("cohom")
    cs = c.add_subparsers(dest="action", required=True)
    p = cs.add_parser("h2")
    p.add_argument("ring")
    p.add_argument("module")
    p.set_defaults(func=cmd_cohom_h2)
    p = cs.add_parser("obstruct")
    p.add_argument("file")
    p.add_argument("--psi", required=True)
    p.add_argument("--q", default=None)
    p.set_defaults(func=cmd_cohom_obstruct)

    e = sub.add_parser("ext")
    es_ = e.add_subparsers(dest="action", required=True)
    p = es_.add_parser("enum")
    p.add_argument("file")
    p.add_argument("--q", required=True)
    p.add_argument("--psi", required=True)
    p.set_defaults(func=cmd_ext_enum)
    p = es_.add_parser("equiv")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_ext_equiv)

    p = sub.add_parser("corpus", help="list (or write) the built-in instances")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_corpus)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    rep = Report(args.format)
    try:
        code = args.func(args, rep)
    except (ParseError, OSError, SearchGuardError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        rep.add("status", "invalid")
        rep.add("error", e)
        code = 1
    except AssertionError as e:
        # A broken internal invariant is a bug, not a mathematical negative.
        print(f"error: internal: {e}", file=sys.stderr)
        return 3
    try:
        rep.emit()
        sys.stdout.flush()
    except OSError as e:
        # stdout closed early, as by `| head`: send what is left to devnull,
        # so that the flush at interpreter exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {e}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
