"""Text formats for rings, systems, modules, sections and extensions.

Files are UTF-8 and whitespace-separated: a keyword introduces each
field and the payload is a flat list of indices, so any line breaking
works.  `#` starts a comment.  Composite objects reference their parts
by path, resolved relative to the referencing file.  Parse errors carry
the file, line and column of the offending token.

Only `ablin` and `rings` are imported with this module.  Each loader
imports the layer that validates its object (`crossed`, `transport` or
`extensions`) when it runs, so that a CLI verb starts with only the
layers it calls.
"""

from __future__ import annotations

import bisect
import math
import re
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .ablin import FinAbGroup
from .rings import FiniteRing, decompose_abelian, validate_ring

if TYPE_CHECKING:
    from .crossed import Bimodule, ESystem
    from .extensions import Extension
    from .transport import Section

__all__ = [
    "ParseError",
    "load_extension",
    "load_module",
    "load_ring",
    "load_section",
    "load_esystem",
    "module_from_tables",
    "write_extension",
    "write_esystem",
    "write_module",
    "write_ring",
    "write_section",
]


class ParseError(ValueError):
    def __init__(self, path, line: int, col: int, message: str):
        self.path = str(path)
        self.line = line
        self.col = col
        super().__init__(f"{self.path}:{line}:{col}: {message}")


class _Tokens:
    """Whitespace token stream that can name the line and column of any
    token.  Lines are split with `str.split`; a column is found only for
    the token an error names."""

    def __init__(self, path):
        self.path = Path(path)
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError as e:
            raise ParseError(path, 0, 0, f"cannot read file: {e.strerror}") from e
        self.toks: list[str] = []
        # Line k + 1 holds the tokens from index starts[k] on.
        self.bodies = [raw.split("#", 1)[0] for raw in text.splitlines()]
        self.starts = []
        for body in self.bodies:
            self.starts.append(len(self.toks))
            self.toks += body.split()
        self.end_pos = (max(len(self.bodies), 1), 1)
        self.i = 0

    def _fail(self, message: str):
        if self.i < len(self.toks):
            line = bisect.bisect_right(self.starts, self.i)
            nth = self.i - self.starts[line - 1]
            col = [mo.start() for mo in re.finditer(r"\S+", self.bodies[line - 1])][nth] + 1
        else:
            line, col = self.end_pos
        raise ParseError(self.path, line, col, message)

    def take(self, what: str) -> str:
        if self.i >= len(self.toks):
            self._fail(f"expected {what}, found end of file")
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def keyword(self, kw: str):
        if self.i >= len(self.toks):
            self._fail(f"expected keyword '{kw}', found end of file")
        tok = self.toks[self.i]
        if tok != kw:
            self._fail(f"expected keyword '{kw}', found '{tok}'")
        self.i += 1

    def integer(self, what: str, lo: int, hi: int) -> int:
        tok = self.take(what)
        try:
            v = int(tok)
        except ValueError:
            self.i -= 1
            self._fail(f"expected {what}, found '{tok}'")
        if not lo <= v < hi:
            self.i -= 1
            self._fail(f"{what} {v} out of range [{lo}, {hi})")
        return v

    def table(self, what: str, shape: tuple[int, ...], hi: int) -> np.ndarray:
        """The next prod(shape) tokens as entries in [0, hi).

        When every token is at most 18 ASCII digits, so that `int` and
        numpy read it alike and it fits int64, the table is converted in
        one call.  Otherwise, or when an entry is out of range, it is read
        through `integer` one token at a time, which raises at the first
        bad entry with its position."""
        count = math.prod(shape)
        toks = self.toks[self.i:self.i + count]
        digits = "".join(toks)
        if (len(toks) == count and digits.isascii() and digits.isdigit()
                and max(map(len, toks)) <= 18):
            flat = np.fromstring(" ".join(toks), dtype=np.int64, sep=" ")
            if flat.max() < hi:
                self.i += count
                return flat.reshape(shape)
        flat = [self.integer(f"{what} entry", 0, hi) for _ in range(count)]
        return np.array(flat, dtype=np.int64).reshape(shape)

    def path_ref(self, what: str) -> Path:
        return self.path.parent / self.take(what)

    def done(self):
        if self.i < len(self.toks):
            self._fail(f"unexpected trailing token '{self.toks[self.i]}'")


def load_ring(path) -> FiniteRing:
    t = _Tokens(path)
    t.keyword("ring")
    name = t.take("ring name")
    t.keyword("order")
    n = t.integer("order", 1, 4097)
    t.keyword("add")
    add = t.table("add", (n, n), n)
    t.keyword("mul")
    mul = t.table("mul", (n, n), n)
    t.keyword("unit")
    tok = t.take("unit index or 'none'")
    if tok == "none":
        unit = None
    else:
        t.i -= 1
        unit = t.integer("unit index", 0, n)
    t.done()
    return validate_ring(add, mul, unit, name=name)


def load_esystem(path) -> ESystem:
    from .crossed import validate_esystem

    t = _Tokens(path)
    t.keyword("esystem")
    name = t.take("system name")
    t.keyword("B")
    b = load_ring(t.path_ref("base ring file"))
    t.keyword("D")
    d_ring = load_ring(t.path_ref("target ring file"))
    t.keyword("d")
    d_map = t.table("d", (b.order,), d_ring.order)
    t.keyword("theta_left")
    tl = t.table("theta_left", (d_ring.order, b.order), b.order)
    t.keyword("theta_right")
    tr = t.table("theta_right", (d_ring.order, b.order), b.order)
    t.done()
    return validate_esystem(b, d_ring, d_map, tl, tr, name=name)


def module_from_tables(ring: FiniteRing, add, left, right, name: str = "module") -> Bimodule:
    """Bimodule from raw tables; negation and coordinates are derived.

    The group axioms are checked before the decomposition, which needs them
    to terminate."""
    from .crossed import _bimodule_over_group, _check_group

    add = np.asarray(add, dtype=np.int16)
    neg = _check_group(add).neg
    m = add.shape[0]
    factors, _, coord_of = decompose_abelian(add)
    group = FinAbGroup(tuple(factors))
    coords = np.array([coord_of[i] for i in range(m)], dtype=np.int64).reshape(
        m, group.rank
    )
    return _bimodule_over_group(ring, group, add, neg, left, right, coords)


def load_module(path, ring: FiniteRing) -> Bimodule:
    """Module files carry no ring of their own; the caller supplies it."""
    t = _Tokens(path)
    t.keyword("module")
    t.take("module name")
    t.keyword("order")
    m = t.integer("order", 1, 4097)
    t.keyword("add")
    add = t.table("add", (m, m), m)
    t.keyword("left")
    left = t.table("left", (ring.order, m), m)
    t.keyword("right")
    right = t.table("right", (ring.order, m), m)
    t.done()
    return module_from_tables(ring, add, left, right)


def load_section(path, es: ESystem) -> Section:
    from .transport import validate_section

    t = _Tokens(path)
    t.keyword("section")
    t.take("section name")
    t.keyword("sigma")
    n = es.cokernel.ring.order
    sigma = t.table("sigma", (n,), es.d_ring.order)
    t.keyword("fplus")
    fplus = t.table("fplus", (n, n), es.b.order)
    t.keyword("ftimes")
    ftimes = t.table("ftimes", (n, n), es.b.order)
    t.done()
    return validate_section(es, sigma, fplus, ftimes)


def load_extension(path) -> Extension:
    from .extensions import validate_extension

    t = _Tokens(path)
    t.keyword("extension")
    name = t.take("extension name")
    t.keyword("base")
    base = load_esystem(t.path_ref("base system file"))
    t.keyword("E")
    ring = load_ring(t.path_ref("total ring file"))
    t.keyword("Q")
    q = load_ring(t.path_ref("quotient ring file"))
    t.keyword("j")
    j = t.table("j", (base.b.order,), ring.order)
    t.keyword("p")
    p = t.table("p", (ring.order,), q.order)
    t.keyword("eps")
    eps = t.table("eps", (ring.order,), base.d_ring.order)
    t.done()
    return validate_extension(base, ring, q, j, p, eps, name=name)


# ---------------------------------------------------------------------------
# Writers.  Output is canonical: one table row per line, no comments.


def _rows(a: np.ndarray) -> str:
    a = np.asarray(a)
    if a.ndim == 1:
        a = a[None, :]
    return "\n".join(" ".join(str(int(v)) for v in row) for row in a)


def write_ring(r: FiniteRing, path) -> Path:
    unit = "none" if r.unit is None else str(int(r.unit))
    text = (
        f"ring {r.name}\norder {r.order}\n"
        f"add\n{_rows(r.add)}\nmul\n{_rows(r.mul)}\nunit {unit}\n"
    )
    path = Path(path)
    path.write_text(text, encoding="utf-8")
    return path


def write_esystem(es: ESystem, directory, stem: str | None = None) -> Path:
    """Writes `<stem>.esys` plus the two ring files it references."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stem = stem or es.name
    write_ring(es.b, directory / f"{stem}_B.ring")
    write_ring(es.d_ring, directory / f"{stem}_D.ring")
    text = (
        f"esystem {es.name}\nB {stem}_B.ring\nD {stem}_D.ring\n"
        f"d\n{_rows(es.d.map)}\n"
        f"theta_left\n{_rows(es.theta_left)}\n"
        f"theta_right\n{_rows(es.theta_right)}\n"
    )
    path = directory / f"{stem}.esys"
    path.write_text(text, encoding="utf-8")
    return path


def write_module(mod: Bimodule, path, name: str = "module") -> Path:
    text = (
        f"module {name}\norder {mod.order}\n"
        f"add\n{_rows(mod.add)}\nleft\n{_rows(mod.left)}\nright\n{_rows(mod.right)}\n"
    )
    path = Path(path)
    path.write_text(text, encoding="utf-8")
    return path


def write_section(sec: Section, path, name: str = "section") -> Path:
    text = (
        f"section {name}\nsigma\n{_rows(sec.sigma)}\n"
        f"fplus\n{_rows(sec.fplus)}\nftimes\n{_rows(sec.ftimes)}\n"
    )
    path = Path(path)
    path.write_text(text, encoding="utf-8")
    return path


def write_extension(ext: Extension, directory, stem: str | None = None) -> Path:
    """Writes `<stem>.ext` plus the system and ring files it references."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stem = stem or ext.name
    write_esystem(ext.base, directory, stem=f"{stem}_base")
    write_ring(ext.ring, directory / f"{stem}_E.ring")
    write_ring(ext.quotient, directory / f"{stem}_Q.ring")
    text = (
        f"extension {ext.name}\nbase {stem}_base.esys\n"
        f"E {stem}_E.ring\nQ {stem}_Q.ring\n"
        f"j\n{_rows(ext.j.map)}\np\n{_rows(ext.p.map)}\neps\n{_rows(ext.eps.map)}\n"
    )
    path = directory / f"{stem}.ext"
    path.write_text(text, encoding="utf-8")
    return path
