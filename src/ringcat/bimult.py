"""Bimultiplications of a finite ring.

A bimultiplication is a pair of additive endomaps, written here as a left
map and a right map.  Left application s(a) multiplies "from outside" on
the left, right application (a)s on the right; the three compatibility
axioms tie them to the ring product.  The set of all bimultiplications is
itself a ring under pointwise addition and twisted composition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rings import FiniteRing, RingHom, _additive_maps, _first_bad, find_unit, validate_ring

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

    def left_of(self, a: int) -> int:
        return self.left[a]

    def right_of(self, a: int) -> int:
        return self.right[a]


def _is_additive(add: np.ndarray, f: np.ndarray):
    ok = f[add] == add[f[:, None], f[None, :]]
    if not ok.all():
        return _first_bad(ok)
    return None


def validate_bimult(b: FiniteRing, left, right) -> Bimult:
    left = np.asarray(left, dtype=np.int16)
    right = np.asarray(right, dtype=np.int16)
    for f, nm in ((left, "left"), (right, "right")):
        if f.shape != (b.order,) or (f.size and (f.min() < 0 or f.max() >= b.order)):
            raise BimultError(f"{nm}-map-shape", (b.order,))
        w = _is_additive(b.add, f)
        if w is not None:
            raise BimultError(f"{nm}-map-additive", w)
    mul = b.mul
    ok = left[mul] == mul[left[:, None], np.arange(b.order)[None, :]]
    if not ok.all():
        raise BimultError("left-product", _first_bad(ok))
    ok = right[mul] == mul[np.arange(b.order)[:, None], right[None, :]]
    if not ok.all():
        raise BimultError("right-product", _first_bad(ok))
    ok = mul[np.arange(b.order)[:, None], left[None, :]] == mul[right[:, None], np.arange(b.order)[None, :]]
    if not ok.all():
        raise BimultError("mixed-product", _first_bad(ok))
    return Bimult(tuple(int(x) for x in left), tuple(int(x) for x in right))


def additive_endomaps(b: FiniteRing) -> list[tuple[int, ...]]:
    """All additive endomaps of (b, +), lexicographically sorted as tuples."""
    return [tuple(f) for f in _additive_maps(b.add, b.add).tolist()]


def enumerate_bimultiplications(b: FiniteRing) -> list[Bimult]:
    """Every bimultiplication of b, sorted by (left, right) image tuples."""
    assert b.order <= ENUM_GUARD, f"enumeration is guarded to order {ENUM_GUARD}"
    endos = _additive_maps(b.add, b.add)
    mul = b.mul
    ar = np.arange(b.order)
    lefts = [f for f in endos if (f[mul] == mul[f[:, None], ar[None, :]]).all()]
    rights = [f for f in endos if (f[mul] == mul[ar[:, None], f[None, :]]).all()]
    out = []
    for lf in lefts:
        lhs = mul[ar[:, None], lf[None, :]]
        for rt in rights:
            if (lhs == mul[rt[:, None], ar[None, :]]).all():
                out.append(Bimult(tuple(int(x) for x in lf), tuple(int(x) for x in rt)))
    return sorted(out, key=lambda s: (s.left, s.right))


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


def bm_neg(b: FiniteRing, s: Bimult) -> Bimult:
    return Bimult(
        tuple(int(b.neg[x]) for x in s.left), tuple(int(b.neg[x]) for x in s.right)
    )


def bm_mul(b: FiniteRing, s: Bimult, t: Bimult) -> Bimult:
    # (st)(a) = s(t(a)); (a)(st) = ((a)s)t
    return Bimult(
        tuple(s.left[x] for x in t.left), tuple(t.right[x] for x in s.right)
    )


def permutability_witness(s: Bimult, t: Bimult):
    """None if s and t permute, else (side, element) where they clash."""
    for a in range(len(s.left)):
        if s.left[t.right[a]] != t.right[s.left[a]]:
            return ("first-around-second", a)
    for a in range(len(s.left)):
        if t.left[s.right[a]] != s.right[t.left[a]]:
            return ("second-around-first", a)
    return None


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
    assert n <= RING_GUARD, f"bimultiplication ring order {n} exceeds {RING_GUARD}"
    index = {s: k for k, s in enumerate(elems)}
    add = np.zeros((n, n), dtype=np.int16)
    mul = np.zeros((n, n), dtype=np.int16)
    for i, s in enumerate(elems):
        for j, t in enumerate(elems):
            add[i, j] = index[bm_add(b, s, t)]
            mul[i, j] = index[bm_mul(b, s, t)]
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
