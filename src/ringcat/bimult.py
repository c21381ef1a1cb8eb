"""Bimultiplications of a finite ring, and the laws of action tables.

A bimultiplication is a pair of additive endomaps, written here as a left
map and a right map.  Left application s(a) multiplies "from outside" on
the left, right application (a)s on the right; the three compatibility
axioms tie them to the ring product.  The set of all bimultiplications is
itself a ring under pointwise addition and twisted composition.

Every law an action table must satisfy is spelled out once, here, as an
ok-grid over stacked tables left[x, a] and right[x, a]: row x is the
bimultiplication through which x acts (a single row when the tables
describe one bimultiplication).  The validators of bimultiplications,
action systems, crossed bimodules, bimodules and factor systems (in
`crossed` and `extensions`) are ordered lists of (condition, grid) pairs,
walked by `_first_failure`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rings import (
    FiniteRing,
    RingHom,
    SearchGuardError,
    _additive_maps,
    _first_bad,
    find_unit,
    validate_ring,
)

ENUM_GUARD = 16
# Materialising the bimultiplication ring is capped at the largest order
# the rest of the package ever needs.
RING_GUARD = 256


class BimultError(ValueError):
    def __init__(self, condition: str, witness: tuple):
        self.condition = condition
        self.witness = witness
        super().__init__(f"{condition} fails at {witness}")


@dataclass(frozen=True)
class Bimult:
    """One bimultiplication, stored as image tuples for hashability."""

    left: tuple[int, ...]
    right: tuple[int, ...]


# ---------------------------------------------------------------------------
# Laws of stacked action tables.  `add` and `mul` are the tables of the
# acted-on group or ring, `xadd` and `xmul` those of the acting ring, and
# `d` a structure map into the acting ring.


def _additive(add, t):
    """ok[x, a, b]: t_x(a + b) == t_x(a) + t_x(b)."""
    return t[:, add] == add[t[:, :, None], t[:, None, :]]


def _additive_in_source(add, xadd, t):
    """ok[x, y, a]: t_(x+y)(a) == t_x(a) + t_y(a)."""
    return t[xadd] == add[t[:, None, :], t[None, :, :]]


def _left_product(mul, t):
    """ok[x, a, b]: t_x(ab) == t_x(a) b."""
    return t[:, mul] == mul[t[:, :, None], np.arange(len(mul))[None, None, :]]


def _right_product(mul, t):
    """ok[x, a, b]: (ab)t_x == a (b)t_x."""
    return t[:, mul] == mul[np.arange(len(mul))[None, :, None], t[:, None, :]]


def _mixed_product(mul, left, right):
    """ok[x, a, b]: a left_x(b) == (a)right_x b."""
    ar = np.arange(len(mul))
    return mul[ar[None, :, None], left[:, None, :]] == mul[right[:, :, None], ar[None, None, :]]


def _left_multiplicative(xmul, t):
    """ok[x, y, a]: t_(xy)(a) == t_x(t_y(a))."""
    return t[xmul] == t[np.arange(len(t))[:, None, None], t[None, :, :]]


def _right_multiplicative(xmul, t):
    """ok[x, y, a]: (a)t_(xy) == ((a)t_x)t_y."""
    return t[xmul] == t[np.arange(len(t))[None, :, None], t[:, None, :]]


def _permutable(left, right):
    """ok[x, y, a]: left_x((a)right_y) == (left_x(a))right_y."""
    return (left[np.arange(len(left))[:, None, None], right[None, :, :]]
            == right[np.arange(len(right))[None, :, None], left[:, None, :]])


def _unital(unit, t):
    """ok[a]: t_unit(a) == a."""
    return t[unit] == np.arange(t.shape[1])


def _through(t, d, prod):
    """ok[c, a]: t_d(c)(a) == prod[c, a]; prod is mul for left actions
    (inner multiplication c a) and mul.T for right ones (a c)."""
    return t[d] == prod


def _equivariant(xmul, t, d):
    """ok[x, a]: d(t_x(a)) == xmul[x, d(a)]; pass xmul.T for right actions,
    where the law reads d((a)t_x) == d(a) x."""
    return d[t] == xmul[np.arange(len(t))[:, None], d[None, :]]


def _intertwined(f1, f0, s, t):
    """ok[x, a]: f1(s_x(a)) == t_f0(x)(f1(a)), for maps f1 on the acted-on
    elements and f0 on the acting ones."""
    return f1[s] == t[f0[:, None], f1[None, :]]


def _first_failure(checks):
    """The first (condition, witness) among `checks`, or None if all hold.

    Each check is (condition, grid, *tables); its ok-grid is
    grid(*tables), evaluated only once every earlier check has held.  The
    witness is the first False cell of the grid in C order.
    """
    for condition, grid, *tables in checks:
        ok = grid(*tables)
        if not ok.all():
            return condition, _first_bad(ok)
    return None


def _bimult_laws(b: FiniteRing, left, right):
    """The conditions on each row pair (left_x, right_x) to be a
    bimultiplication of b, in check order."""
    return [
        ("left-map-additive", _additive, b.add, left),
        ("right-map-additive", _additive, b.add, right),
        ("left-product", _left_product, b.mul, left),
        ("right-product", _right_product, b.mul, right),
        ("mixed-product", _mixed_product, b.mul, left, right),
    ]


# ---------------------------------------------------------------------------
# Bimultiplications.


def validate_bimult(b: FiniteRing, left, right) -> Bimult:
    left = np.asarray(left, dtype=np.int16)
    right = np.asarray(right, dtype=np.int16)
    for f, nm in ((left, "left"), (right, "right")):
        if f.shape != (b.order,) or (f.size and (f.min() < 0 or f.max() >= b.order)):
            raise BimultError(f"{nm}-map-shape", (b.order,))
    fail = _first_failure(_bimult_laws(b, left[None], right[None]))
    if fail:
        condition, (_, *witness) = fail
        raise BimultError(condition, tuple(witness))
    return Bimult(tuple(left.tolist()), tuple(right.tolist()))


def enumerate_bimultiplications(b: FiniteRing) -> list[Bimult]:
    """Every bimultiplication of b, sorted by (left, right) image tuples (the
    endomaps come sorted, and filtering keeps their order)."""
    if b.order > ENUM_GUARD:
        raise SearchGuardError(f"enumeration is guarded to order {ENUM_GUARD}, got {b.order}")
    endos = _additive_maps(b.add, b.add).astype(np.int16)
    lefts = endos[_left_product(b.mul, endos).all(axis=(1, 2))]
    rights = endos[_right_product(b.mul, endos).all(axis=(1, 2))]
    out = []
    for lf in lefts:
        ok = _mixed_product(b.mul, np.broadcast_to(lf, rights.shape), rights).all(axis=(1, 2))
        out += [Bimult(tuple(lf.tolist()), tuple(rt)) for rt in rights[ok].tolist()]
    return out


def inner(b: FiniteRing, c: int) -> Bimult:
    """Multiplication by a fixed element on both sides."""
    return Bimult(
        tuple(int(x) for x in b.mul[c, :]), tuple(int(x) for x in b.mul[:, c])
    )


def bicenter(b: FiniteRing) -> list[int]:
    """Elements whose products with everything vanish on both sides."""
    dead_left = ~b.mul.any(axis=1)
    dead_right = ~b.mul.any(axis=0)
    return [int(x) for x in np.nonzero(dead_left & dead_right)[0]]


def bm_zero(b: FiniteRing) -> Bimult:
    z = (0,) * b.order
    return Bimult(z, z)


def bm_one(b: FiniteRing) -> Bimult:
    i = tuple(range(b.order))
    return Bimult(i, i)


def bm_add(b: FiniteRing, s: Bimult, t: Bimult) -> Bimult:
    return Bimult(
        tuple(int(b.add[x, y]) for x, y in zip(s.left, t.left, strict=True)),
        tuple(int(b.add[x, y]) for x, y in zip(s.right, t.right, strict=True)),
    )


def bm_mul(b: FiniteRing, s: Bimult, t: Bimult) -> Bimult:
    # (st)(a) = s(t(a)); (a)(st) = ((a)s)t
    return Bimult(
        tuple(s.left[x] for x in t.left), tuple(t.right[x] for x in s.right)
    )


def permutability_witness(s: Bimult, t: Bimult):
    """None if s and t permute, else (side, element) where they clash."""
    ok = _permutable(np.array([s.left, t.left]), np.array([s.right, t.right]))
    sides = np.stack([ok[0, 1], ok[1, 0]])
    if sides.all():
        return None
    side, a = _first_bad(sides)
    return ("first-around-second", "second-around-first")[side], a


def permutable(s: Bimult, t: Bimult) -> bool:
    return permutability_witness(s, t) is None


@dataclass
class BimultRing:
    """The ring of all bimultiplications of `base`, as explicit tables."""

    base: FiniteRing
    ring: FiniteRing
    elements: list[Bimult]
    index: dict[Bimult, int]

    def bimult_of(self, i: int) -> Bimult:
        return self.elements[i]


def bimult_ring(b: FiniteRing, name: str | None = None) -> BimultRing:
    elems = enumerate_bimultiplications(b)
    n = len(elems)
    if n > RING_GUARD:
        raise SearchGuardError(f"bimultiplication ring order {n} exceeds {RING_GUARD}")
    index = {s: k for k, s in enumerate(elems)}
    left = np.array([s.left for s in elems], dtype=np.int16)
    right = np.array([s.right for s in elems], dtype=np.int16)
    # An element is keyed by the bytes of its left and right rows, and
    # looked up among the sorted keys.  Row i of each table pairs element
    # i with every element: sums add both maps pointwise, and
    # (st)(a) = s(t(a)), (a)(st) = ((a)s)t.
    key = np.dtype((np.void, 2 * b.order * left.itemsize))
    keys = np.hstack([left, right]).view(key)[:, 0]
    order = np.argsort(keys)
    sorted_keys = keys[order]

    def index_of(lefts, rights):
        return order[np.searchsorted(sorted_keys, np.hstack([lefts, rights]).view(key)[:, 0])]

    add = np.array([index_of(b.add[lf, left], b.add[rt, right]) for lf, rt in zip(left, right)],
                   dtype=np.int16)
    mul = np.array([index_of(lf[left], right[:, rt]) for lf, rt in zip(left, right)],
                   dtype=np.int16)
    unit = index.get(bm_one(b))
    assert unit is not None and unit == find_unit(add, mul)
    ring = validate_ring(add, mul, unit, name=name or f"bimult_{b.name}")
    return BimultRing(b, ring, elems, index)


def inner_hom(mb: BimultRing) -> RingHom:
    """b -> bimultiplication ring, c to multiplication-by-c; its kernel is
    the bicenter."""
    b = mb.base
    f = np.array([mb.index[inner(b, c)] for c in b.elements()], dtype=np.int16)
    h = RingHom(b, mb.ring, f)
    assert h.kernel_elements() == bicenter(b)
    return h
