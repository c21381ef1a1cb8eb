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
action systems, crossed bimodules and bimodules (the last three in
`crossed`) are ordered lists of (condition, grid) pairs, walked by
`_first_failure`.  A factor system's action stage
(`extensions._action_stage`) stacks the grids of `_bimult_laws` over all
rows and walks them itself, to report the first failing row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ablin import CANDIDATE_LIMIT, ORDER_LIMIT, RING_ORDER_LIMIT, _guard
from .rings import (
    FiniteRing,
    RingHom,
    WitnessError,
    _additive_maps,
    _first_bad,
    _product_blocks,
    validate_ring,
)


class BimultError(WitnessError):
    """A bimultiplication condition failed."""


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


def enumerate_bimultiplications(b: FiniteRing) -> tuple[np.ndarray, np.ndarray]:
    """Every bimultiplication of b, as stacked (k, n) int16 left and right
    tables: row i is element i of `bimult_ring(b)`.

    Rows are sorted by left images, then right images (the endomaps come
    sorted, and filtering keeps their order), so row 0 is the zero
    bimultiplication.
    """
    _guard(b.order, "ring elements for bimultiplication enumeration", ORDER_LIMIT)
    endos = _additive_maps(b.add, b.add).astype(np.int16)
    lefts, rights = [], []
    for rows in _product_blocks([len(endos)], b.order**2):
        t = endos[rows[:, 0]]
        lefts.append(t[_left_product(b.mul, t).all(axis=(1, 2))])
        rights.append(t[_right_product(b.mul, t).all(axis=(1, 2))])
    lefts, rights = np.concatenate(lefts), np.concatenate(rights)
    _guard(len(lefts) * len(rights), "candidate bimultiplications", CANDIDATE_LIMIT)
    ok = np.array([
        _mixed_product(b.mul, np.broadcast_to(lf, rights.shape), rights).all(axis=(1, 2))
        for lf in lefts
    ])
    li, ri = np.nonzero(ok)
    return lefts[li], rights[ri]


def bicenter(b: FiniteRing) -> list[int]:
    """Elements whose products with everything vanish on both sides."""
    dead_left = ~b.mul.any(axis=1)
    dead_right = ~b.mul.any(axis=0)
    return [int(x) for x in np.nonzero(dead_left & dead_right)[0]]


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
    """The ring of all bimultiplications of `base`, as explicit tables:
    element i is the bimultiplication with rows left[i] and right[i]."""

    base: FiniteRing
    ring: FiniteRing
    left: np.ndarray
    right: np.ndarray

    def bimult_of(self, i: int) -> Bimult:
        return Bimult(tuple(self.left[i].tolist()), tuple(self.right[i].tolist()))


def _row_lookup(left, right):
    """A function taking rows lefts[..., :], rights[..., :] to the index of
    each pair among the stacked bimultiplications (left, right); every
    pair looked up must be among them.  A pair is keyed by its bytes and
    found among the sorted keys."""
    n = left.shape[1]
    key = np.dtype((np.void, 2 * n * np.dtype(np.int16).itemsize))

    def keys(lf, rt):
        both = np.concatenate([lf, rt], axis=-1).astype(np.int16)
        return both.reshape(-1, 2 * n).view(key)[:, 0]

    have = keys(left, right)
    order = np.argsort(have)
    have = have[order]

    def index_of(lefts, rights):
        return order[np.searchsorted(have, keys(lefts, rights))].reshape(np.shape(lefts)[:-1])

    return index_of


def bimult_ring(b: FiniteRing, name: str | None = None) -> BimultRing:
    left, right = enumerate_bimultiplications(b)
    _guard(len(left), "bimultiplication ring elements", RING_ORDER_LIMIT)
    index_of = _row_lookup(left, right)
    # Row s of each table pairs s with every t: sums add both maps
    # pointwise, and (st)(a) = s(t(a)), (a)(st) = ((a)s)t.  Building the
    # tables a row at a time keeps the temporaries at k x n.
    add = np.array([index_of(b.add[lf, left], b.add[rt, right]) for lf, rt in zip(left, right)],
                   dtype=np.int16)
    mul = np.array([index_of(lf[left], right[:, rt]) for lf, rt in zip(left, right)],
                   dtype=np.int16)
    ident = np.arange(b.order)
    ring = validate_ring(add, mul, index_of(ident, ident), name=name or f"bimult_{b.name}")
    return BimultRing(b, ring, left, right)


def inner_hom(mb: BimultRing) -> RingHom:
    """b -> bimultiplication ring, c to multiplication-by-c; its kernel is
    the bicenter."""
    b = mb.base
    h = RingHom(b, mb.ring, _row_lookup(mb.left, mb.right)(b.mul, b.mul.T))
    if h.kernel_elements() != bicenter(b):
        raise AssertionError("the kernel of the inner map must be the bicenter")
    return h
