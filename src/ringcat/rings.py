"""Finite rings as explicit addition and multiplication tables.

A ring of order n lives on the index set 0..n-1 with element 0 the
additive identity.  Tables are n x n numpy arrays, row-major in the left
operand.  Rings need not be unital; `unit` is an index or None.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .ablin import CANDIDATE_LIMIT, SearchGuardError, _guard


class WitnessError(ValueError):
    """A checked condition failed: carries its name, its first witness in
    scan order and an optional detail, reported as
    "<condition> fails at <witness>[: <detail>]"."""

    def __init__(self, condition: str, witness, detail: str = ""):
        self.condition = condition
        self.witness = witness
        self.detail = detail
        super().__init__(f"{condition} fails at {witness}" + (f": {detail}" if detail else ""))


class RingAxiomError(WitnessError):
    """A ring axiom failed."""


def _table(t, n: int, what: str) -> np.ndarray:
    a = np.array(t, dtype=np.int16)
    if a.shape != (n, n):
        raise ValueError(f"{what} table must be {n}x{n}, got {a.shape}")
    if a.size and (a.min() < 0 or a.max() >= n):
        raise RingAxiomError("table-range", _first_bad((a >= 0) & (a < n)), what)
    return a


def _first_bad(ok: np.ndarray) -> tuple:
    """Index of the first False cell of `ok` in C order; `ok` must have one."""
    return tuple(int(x) for x in np.unravel_index(np.argmin(ok), ok.shape))


def _sum(add: np.ndarray, *terms):
    """Sum of broadcastable arrays of elements under the addition table `add`."""
    acc = terms[0]
    for t in terms[1:]:
        acc = add[acc, t]
    return acc


def _preimages(m, n: int) -> np.ndarray:
    """out[y] is the least x with m[x] == y; -1 where y has no preimage.
    For an injective m this is its inverse."""
    m = np.asarray(m, dtype=np.int64).ravel()
    out = np.full(n, -1, dtype=np.int64)
    ys, first = np.unique(m, return_index=True)
    out[ys] = first
    return out


# A batched candidate filter takes rows in blocks of about this many
# cells, so that each of its temporaries stays within a few hundred KB.
BLOCK_CELLS = 1 << 16


def _product_blocks(radices, width: int):
    """The tuples of itertools.product(*map(range, radices)), in that order,
    as (m, len(radices)) int64 blocks of digits (last digit fastest).

    A filter spending `width` cells on each candidate gets blocks of at
    most BLOCK_CELLS // width rows.
    """
    radices = [int(r) for r in radices]
    total = math.prod(radices)
    rows = max(1, BLOCK_CELLS // width)
    for lo in range(0, total, rows):
        rest = np.arange(lo, min(lo + rows, total))
        digits = np.empty((len(rest), len(radices)), dtype=np.int64)
        for i in range(len(radices) - 1, -1, -1):
            rest, digits[:, i] = np.divmod(rest, radices[i])
        yield digits


@dataclass(eq=False)
class FiniteRing:
    """Ring tables whose laws hold.  `validate_ring` checks them on any
    tables; `extensions.crossed_ring` builds them from a FactorSystem,
    whose conditions already prove them.  `neg` is each element's
    additive inverse, read off the tables.  Instances compare and hash
    by identity so they can key caches."""

    name: str
    add: np.ndarray
    mul: np.ndarray
    unit: int | None
    neg: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.neg = np.argmax(self.add == 0, axis=1).astype(np.int16)

    @property
    def order(self) -> int:
        return self.add.shape[0]

    def sub(self, i, j):
        return int(self.add[i, self.neg[j]])

    def elements(self):
        return range(self.order)

    def additive_order(self, i) -> int:
        return int(_additive_orders(self.add)[i])

    def describe(self) -> str:
        u = "none" if self.unit is None else str(self.unit)
        return f"ring {self.name}: order {self.order}, unit {u}"


def validate_ring(add, mul, unit=None, name: str = "ring") -> FiniteRing:
    """Check every ring axiom on the tables; raise RingAxiomError with the
    first witness (lexicographic) of the first axiom that fails.  The ring
    keeps read-only copies of the tables.

    The four laws over three elements are proved from identities on a set
    S of additive generators (`_sum_generators`) instead of scanned over
    all |R|^3 cells.  Each proof cell is a cell of its law, so a proof
    that fails means its law fails; only then is the law scanned, one
    first index at a time (`_first_row_failure`), for its first witness.
    Memory is O(|R|^2 |S|) per proof and O(|R|^2) per scanned row.

    - add-associative: Light's test (`_assoc_failure`).
    - distributive-left, from a(s + c) = as + ac for s in S.  With +
      associative, the b with a(b + c) = ab + ac for all a, c are closed
      under +: a((b + b') + c) = a(b + (b' + c)) = ab + (ab' + ac)
      = (ab + ab') + ac = a(b + b') + ac.  They include S, so every
      element.  distributive-right likewise, from (s + b)c = sc + bc.
    - mul-associative, reported before the distributive laws, from
      (st)u = s(tu) on S^3 when both distributive proofs pass: (ab)c and
      a(bc) are then additive in each argument, and the elements where
      two additive maps agree are closed under +, so the law spreads from
      S to every element one argument at a time.  When a distributive
      proof fails, mul-associative is scanned.
    """
    add = np.asarray(add)
    n = add.shape[0] if add.ndim == 2 else 0
    if n == 0:
        raise ValueError("a ring needs at least the zero element")
    add = _table(add, n, "addition")
    mul = _table(mul, n, "multiplication")

    idx = np.arange(n, dtype=np.int16)
    if not np.array_equal(add[0], idx):
        raise RingAxiomError("zero-element", (0, _first_bad(add[0] == idx)[0]))
    if not np.array_equal(add[:, 0], idx):
        raise RingAxiomError("zero-element", (_first_bad(add[:, 0] == idx)[0], 0))

    ok = add == add.T
    if not ok.all():
        raise RingAxiomError("add-commutative", _first_bad(ok))

    gens = _sum_generators(add)
    witness = _assoc_failure(add, gens)
    if witness:
        raise RingAxiomError("add-associative", witness)

    has_neg = (add == 0).any(axis=1)
    if not has_neg.all():
        raise RingAxiomError("add-inverse", _first_bad(has_neg))

    # a(s + c) == as + ac on axes (a, s, c); (s + b)c == sc + bc on (s, b, c)
    left = (mul[:, add[gens]] == add[mul[:, gens, None], mul[:, None, :]]).all()
    right = (mul[add[gens]] == add[mul[gens, None, :], mul[None]]).all()
    st = mul[gens[:, None], gens]
    if not (left and right and (mul[st[:, :, None], gens] == mul[gens[:, None, None], st]).all()):
        witness = _first_row_failure(n, lambda a: _assoc_row(mul, a))
        if witness:
            raise RingAxiomError("mul-associative", witness)
    if not left:
        raise RingAxiomError("distributive-left", _first_row_failure(
            n, lambda a: mul[a, add] == add[mul[a, :, None], mul[a, None, :]]))
    if not right:
        raise RingAxiomError("distributive-right", _first_row_failure(
            n, lambda a: mul[add[a]] == add[mul[a, None, :], mul]))

    if unit is not None:
        unit = int(unit)
        if not (0 <= unit < n):
            raise ValueError(f"unit index {unit} out of range")
        if not np.array_equal(mul[unit], idx):
            raise RingAxiomError("unit", (unit, _first_bad(mul[unit] == idx)[0]))
        if not np.array_equal(mul[:, unit], idx):
            raise RingAxiomError("unit", (_first_bad(mul[:, unit] == idx)[0], unit))

    add.flags.writeable = mul.flags.writeable = False
    return FiniteRing(name, add, mul, unit)


def _sum_generators(add: np.ndarray) -> np.ndarray:
    """Elements of which every element is a sum: x is one unless
    x = add[i, j] for some i, j < x.

    By strong induction on x every element is then a sum of them under
    some bracketing.  The rule needs neither a zero nor associativity, so
    it holds on a table not yet validated."""
    ar = np.arange(len(add))
    made = np.zeros(len(add), dtype=bool)
    made[add[np.maximum.outer(ar, ar) < add]] = True
    return np.nonzero(~made)[0]


def _first_row_failure(n: int, row_ok) -> tuple | None:
    """First failing cell (i, j, k) in C order of a law whose ok-grid is
    built one first index i at a time by row_ok(i); None if none fails."""
    for i in range(n):
        ok = row_ok(i)
        if not ok.all():
            return (i, *_first_bad(ok))
    return None


def _assoc_row(t: np.ndarray, i: int) -> np.ndarray:
    """ok[j, k]: (i t j) t k == i t (j t k)."""
    return t[t[i]] == t[i][t]


def _assoc_failure(t: np.ndarray, gens) -> tuple | None:
    """First (i, j, k) in C order with (ij)k != i(jk) under the table t,
    or None if t is associative.

    Light's test: the middles m with (xm)y = x(my) for all x, y are
    closed under the operation, as (x(ab))y = ((xa)b)y = (xa)(by)
    = x(a(by)) = x((ab)y) for middles a, b.  So once every generator in
    `gens` (`_sum_generators`) is a middle, every element is."""
    if (t[t[:, gens]] == t[:, t[gens]]).all():
        return None
    return _first_row_failure(len(t), lambda i: _assoc_row(t, i))


def _units(mul) -> np.ndarray:
    """For each multiplication table in the stack `mul` (..., n, n), the
    least e with mul[e] and mul[:, e] both the identity map, or -1."""
    mul = np.asarray(mul)
    idx = np.arange(mul.shape[-1])
    ok = (mul == idx).all(axis=-1) & (mul.swapaxes(-1, -2) == idx).all(axis=-1)
    return np.where(ok.any(axis=-1), ok.argmax(axis=-1), -1)


def find_unit(mul) -> int | None:
    unit = int(_units(mul))
    return None if unit < 0 else unit


# ---------------------------------------------------------------- presets


def zmod(n: int) -> FiniteRing:
    i = np.arange(n)
    return validate_ring(
        (i[:, None] + i) % n, (i[:, None] * i) % n, 1 % n, name=f"z{n}"
    )


def zero_mult(n: int) -> FiniteRing:
    """Cyclic additive group with every product zero."""
    i = np.arange(n)
    return validate_ring(
        (i[:, None] + i) % n, np.zeros((n, n), int), None, name=f"z{n}_zero"
    )


def zero_mult_klein() -> FiniteRing:
    """Klein four-group additively, every product zero.  Element 2a + b is
    the pair (a, b), so the sum of two elements is the xor of their indices."""
    i = np.arange(4)
    return validate_ring(i[:, None] ^ i, np.zeros((4, 4), int), None, name="klein_zero")


def product_ring(r1: FiniteRing, r2: FiniteRing, name: str | None = None) -> FiniteRing:
    n1, n2 = r1.order, r2.order
    i1, j1 = np.divmod(np.arange(n1 * n2), n2)
    add = r1.add[np.ix_(i1, i1)] * n2 + r2.add[np.ix_(j1, j1)]
    mul = r1.mul[np.ix_(i1, i1)] * n2 + r2.mul[np.ix_(j1, j1)]
    unit = None
    if r1.unit is not None and r2.unit is not None:
        unit = r1.unit * n2 + r2.unit
    return validate_ring(add, mul, unit, name=name or f"{r1.name}x{r2.name}")


def dual_numbers(n: int) -> FiniteRing:
    """Z/n with a square-zero generator adjoined: elements a + b*eps."""
    a, b = np.divmod(np.arange(n * n), n)
    add = ((a[:, None] + a) % n) * n + (b[:, None] + b) % n
    mul = ((a[:, None] * a) % n) * n + (a[:, None] * b + b[:, None] * a) % n
    return validate_ring(add, mul, 1 * n if n > 1 else 0, name=f"z{n}_dual")


def subring(r: FiniteRing, subset, name: str | None = None):
    """Reindex a subset closed under both operations as its own ring.

    Returns (ring, embedding map as an index array into r)."""
    subset = sorted(int(x) for x in subset)
    if not subset or subset[0] != 0:
        raise RingAxiomError("subring-zero", tuple(subset[:1]), "a subring contains 0")
    emb = np.array(subset, dtype=np.int16)
    back = _preimages(emb, r.order)
    add, mul = back[r.add[np.ix_(emb, emb)]], back[r.mul[np.ix_(emb, emb)]]
    closed = (add >= 0) & (mul >= 0)
    if not closed.all():
        i, j = _first_bad(closed)
        raise RingAxiomError("subring-closed", (subset[i], subset[j]), "subset not closed")
    u = find_unit(mul)
    ring = validate_ring(add, mul, u, name=name or f"{r.name}_sub{len(subset)}")
    return ring, emb


# ------------------------------------------------------------ homomorphisms


class HomError(ValueError):
    pass


@dataclass(eq=False)
class RingHom:
    """Map between rings given elementwise; validated on construction."""

    source: FiniteRing
    target: FiniteRing
    map: np.ndarray

    def __post_init__(self):
        self.map = np.asarray(self.map, dtype=np.int16)
        if self.map.shape != (self.source.order,):
            raise HomError(
                f"map must list {self.source.order} images, got {self.map.shape}"
            )
        if self.map.size and (self.map.min() < 0 or self.map.max() >= self.target.order):
            raise HomError("image index out of range")
        f, s, t = self.map, self.source, self.target
        ok = f[s.add] == t.add[f[:, None], f[None, :]]
        if not ok.all():
            raise HomError(f"not additive at {_first_bad(ok)}")
        ok = f[s.mul] == t.mul[f[:, None], f[None, :]]
        if not ok.all():
            raise HomError(f"not multiplicative at {_first_bad(ok)}")

    @property
    def unital(self) -> bool:
        return (
            self.source.unit is not None
            and self.target.unit is not None
            and int(self.map[self.source.unit]) == self.target.unit
        )

    def apply(self, i: int) -> int:
        return int(self.map[i])

    def compose(self, other: "RingHom") -> "RingHom":
        # self after other
        if other.target is not self.source:
            raise HomError(f"cannot compose: {other.target.name} is not {self.source.name}")
        return RingHom(other.source, self.target, self.map[other.map])

    def kernel_elements(self) -> list[int]:
        return [int(i) for i in np.nonzero(self.map == 0)[0]]

    def image_elements(self) -> list[int]:
        return sorted(int(x) for x in set(self.map.tolist()))

    def is_injective(self) -> bool:
        return len(set(self.map.tolist())) == self.source.order

    def is_surjective(self) -> bool:
        return len(set(self.map.tolist())) == self.target.order


def identity_hom(r: FiniteRing) -> RingHom:
    return RingHom(r, r, np.arange(r.order, dtype=np.int16))


@dataclass
class IdealQuotient:
    ring: FiniteRing
    projection: RingHom
    reps: list[int]


def _ideal_actions(ring: FiniteRing, emb) -> tuple[np.ndarray, np.ndarray]:
    """How `ring` multiplies the distinct elements `emb` on either side:
    left[r, i] and right[r, i] are the positions in emb of r * emb[i] and
    emb[i] * r, or -1 where the product leaves emb."""
    pos = _preimages(emb, ring.order)
    return pos[ring.mul[:, emb]], pos[ring.mul[emb].T]


def ideal_cokernel(h: RingHom, name: str | None = None) -> IdealQuotient:
    """Quotient of h.target by the image of h.

    The image must be a two-sided ideal; otherwise raises with the first
    witness (r, b) or (b, r), r a ring element and b an image element,
    whose product leaves the image.
    """
    t = h.target
    image = np.unique(h.map)
    # ok[r, i, side]: r * image[i] (side 0) and image[i] * r (side 1) stay inside.
    ok = np.stack(_ideal_actions(t, image), axis=2) >= 0
    if not ok.all():
        r, i, side = _first_bad(ok)
        b = int(image[i])
        raise HomError(f"image not an ideal: witness {(b, r) if side else (r, b)}")
    # Additive cosets x + image; each class is represented by its least member.
    rep = t.add[:, image].min(axis=1)
    reps = np.unique(rep)
    class_of = np.searchsorted(reps, rep)
    if reps[0] != 0:
        raise AssertionError("the zero class is not represented by 0")
    reps = reps.tolist()
    qadd = class_of[t.add[np.ix_(reps, reps)]]
    qmul = class_of[t.mul[np.ix_(reps, reps)]]
    # Well-definedness across every representative choice, not just the least.
    if not np.array_equal(class_of[t.add], qadd[class_of[:, None], class_of[None, :]]):
        raise AssertionError("quotient addition depends on the representatives")
    if not np.array_equal(class_of[t.mul], qmul[class_of[:, None], class_of[None, :]]):
        raise AssertionError("quotient multiplication depends on the representatives")
    unit = int(class_of[t.unit]) if t.unit is not None else find_unit(qmul)
    q = validate_ring(qadd, qmul, unit, name=name or f"{t.name}_mod_{h.source.name}")
    return IdealQuotient(q, RingHom(t, q, class_of), reps)


def _lift_defects(r: FiniteRing, t: np.ndarray, q: FiniteRing):
    """How far a set map t from q into r is from a ring map: the tables
    t(u) + t(v) - t(u + v) and t(u)t(v) - t(uv).  Leading axes of t stack
    maps, and the tables stack the same way."""
    tu, tv = t[..., :, None], t[..., None, :]
    return (
        r.add[r.add[tu, tv], r.neg[t[..., q.add]]],
        r.add[r.mul[tu, tv], r.neg[t[..., q.mul]]],
    )


# ------------------------------------------------- additive decomposition


def _multiples(add: np.ndarray, k: int) -> np.ndarray:
    """Row j holds j*x for every element x, for j < k."""
    ar = np.arange(len(add))
    out = np.zeros((k, len(ar)), dtype=np.int64)
    for j in range(1, k):
        out[j] = add[out[j - 1], ar]
    return out


def _additive_orders(add: np.ndarray) -> np.ndarray:
    """The additive order of every element: the least k > 0 with k*x = 0."""
    return (_multiples(add, len(add) + 1)[1:] == 0).argmax(axis=0) + 1


def decompose_abelian(add: np.ndarray, elements=None):
    """Invariant-factor decomposition of an additive table (or a subset
    closed under addition).

    Returns (factors, gens, coords) with factors in ascending divisibility
    order, gens a list of elements, and coords mapping each element to its
    tuple of coordinates.
    """
    add = np.asarray(add)
    elems = sorted(int(x) for x in (elements if elements is not None else range(add.shape[0])))
    if elems[0] != 0:
        raise AssertionError("the elements must include 0")
    neg = np.argmax(add == 0, axis=1)
    mult = _multiples(add, len(add) + 1)

    # Peel off a maximal-order cyclic summand, then recurse on the quotient.
    gens_desc: list[int] = []
    factors_desc: list[int] = []
    # Work with explicit coset structures: current congruence is "differ by
    # an element of span", starting from the trivial subgroup.
    span = {0}
    while True:
        # Each coset x + span is represented by its least member.
        reps = np.unique(add[np.ix_(elems, sorted(span))].min(axis=1))
        if len(reps) == 1:
            break
        # order of x in the quotient = least k > 0 with k*x in span
        in_span = np.zeros(len(add), dtype=bool)
        in_span[list(span)] = True
        qorders = in_span[mult[1:, reps]].argmax(axis=0) + 1
        best, e = int(reps[qorders.argmax()]), int(qorders.max())
        # In a group some class outside span has order above 1.
        if e == 1:
            raise ValueError("the addition table is not an abelian group")
        # e * best lies in span; divide it by e there (span is pure, being a
        # sum of earlier maximal-order summands) and correct the lift so its
        # order drops to e.  The correction is the first match in span's
        # iteration order, which fixes the generators and coordinates.
        corr = next((s for s in span if mult[e, s] == mult[e, best]), None)
        if corr is None:
            raise AssertionError("purity correction must exist")
        best = int(add[best, neg[corr]])
        # e * best = 0, and no smaller multiple lies even in span.
        if mult[e, best] != 0:
            raise AssertionError("the corrected generator must have order e")
        gens_desc.append(best)
        factors_desc.append(e)
        span = {int(add[s, c]) for s in span for c in mult[:e, best].tolist()}

    factors = list(reversed(factors_desc))
    gens = list(reversed(gens_desc))
    eset = set(elems)
    coords: dict[int, tuple[int, ...]] = {}
    for combo in itertools.product(*[range(m) for m in factors]):
        x = 0
        for c, g in zip(combo, gens, strict=True):
            x = int(add[x, mult[c, g]])
        if x not in eset or x in coords:
            raise AssertionError("decomposition must be a bijection")
        coords[x] = combo
    if len(coords) != len(elems):
        raise AssertionError("decomposition must reach every element")
    return tuple(factors), gens, coords


def _additive_maps(src_add: np.ndarray, tgt_add: np.ndarray) -> np.ndarray:
    """Every additive map between two additive tables, one per row, rows in
    lexicographic order.

    A map is fixed by its images of the invariant-factor generators of the
    source, and a generator of order m may go to any y with m*y = 0.
    """
    factors, _, coords = decompose_abelian(src_add)
    # times[k, y] = k*y in the target.
    times = _multiples(tgt_add, max(factors, default=0) + 1)
    pools = [np.nonzero(times[m] == 0)[0] for m in factors]
    radices = [len(p) for p in pools]
    total = math.prod(radices)
    _guard(total, "candidate additive maps", CANDIDATE_LIMIT)
    cs = np.array([coords[x] for x in range(src_add.shape[0])], dtype=np.int64)
    maps = np.zeros((total, len(cs)), dtype=tgt_add.dtype)
    lo = 0
    for digits in _product_blocks(radices, len(cs)):
        block = maps[lo:lo + len(digits)]
        for i, pool in enumerate(pools):
            block[:] = tgt_add[block, times[cs[:, i], pool[digits[:, i], None]]]
        lo += len(digits)
    return maps[np.lexsort(maps.T[::-1])]
