"""Bimultiplication enumeration, the bimultiplication ring, inner maps."""

import functools
import tracemalloc

import numpy as np
import pytest

from ringcat import bimult
from ringcat.bimult import (
    Bimult,
    BimultError,
    bicenter,
    bimult_ring,
    enumerate_bimultiplications,
    inner_hom,
    permutability_witness,
    permutable,
    validate_bimult,
)
from ringcat.rings import (
    SearchGuardError,
    dual_numbers,
    product_ring,
    validate_ring,
    zero_mult,
    zero_mult_klein,
    zmod,
)
from test_rings import find_ring_isomorphism


# Tuple oracles for the ring of bimultiplications, one pair of image
# tuples per bimultiplication.


def inner(b, c) -> Bimult:
    """Multiplication by c on both sides."""
    return Bimult(tuple(b.mul[c, :].tolist()), tuple(b.mul[:, c].tolist()))


def bm_zero(b) -> Bimult:
    z = (0,) * b.order
    return Bimult(z, z)


def bm_one(b) -> Bimult:
    i = tuple(range(b.order))
    return Bimult(i, i)


def bm_add(b, s: Bimult, t: Bimult) -> Bimult:
    return Bimult(
        tuple(int(b.add[x, y]) for x, y in zip(s.left, t.left, strict=True)),
        tuple(int(b.add[x, y]) for x, y in zip(s.right, t.right, strict=True)),
    )


def bm_mul(b, s: Bimult, t: Bimult) -> Bimult:
    # (st)(a) = s(t(a)); (a)(st) = ((a)s)t
    return Bimult(
        tuple(s.left[x] for x in t.left), tuple(t.right[x] for x in s.right)
    )


def bimults(b) -> list[Bimult]:
    """The enumeration of b as tuple pairs, in row order."""
    left, right = enumerate_bimultiplications(b)
    return [Bimult(tuple(lf), tuple(rt))
            for lf, rt in zip(left.tolist(), right.tolist(), strict=True)]


def doubled_product_ring():
    """Additive group of zmod(4) with product i*j = 2ij."""
    n = 4
    i = np.arange(n)
    return validate_ring((i[:, None] + i[None, :]) % n, (2 * i[:, None] * i[None, :]) % n, name="2z8")


def left_scalar_ring():
    """Klein group with xy = x when phi(y) = 1 and 0 otherwise, for the
    functional phi that is 1 on elements 1 and 2: a noncommutative ring
    (1*2 = 1, 2*1 = 2), so its left and right multiplications differ."""
    k = zero_mult_klein()
    phi = np.array([0, 1, 1, 0])
    return validate_ring(k.add, np.arange(4)[:, None] * phi[None, :], name="left_scalar")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_unital_commutative_ring_has_only_inner_bimults(n):
    r = zmod(n)
    bs = bimults(r)
    assert len(bs) == n
    assert set(bs) == {inner(r, c) for c in range(n)}


def test_enumeration_counts_frozen():
    for r, count in ((zero_mult(2), 4), (zero_mult_klein(), 256),
                     (doubled_product_ring(), 8), (zmod(1), 1)):
        left, right = enumerate_bimultiplications(r)
        assert left.shape == right.shape == (count, r.order)
        assert left.dtype == right.dtype == np.int16


def test_enumeration_is_sorted_and_deterministic():
    bs = bimults(zero_mult(2))
    keys = [(s.left, s.right) for s in bs]
    assert keys == sorted(keys)
    assert bs[0] == bm_zero(zero_mult(2))
    assert bs == bimults(zero_mult(2))


def test_enumeration_guard():
    with pytest.raises(SearchGuardError, match=r"^17 ring elements for bimultiplication "
                                               r"enumeration, over the guard 16$"):
        enumerate_bimultiplications(zmod(17))


def zero_ring_2_2_4():
    """The zero ring on Z/2 x Z/2 x Z/4: 1024 additive endomaps, each a
    left and a right multiplication."""
    return product_ring(zero_mult(2), product_ring(zero_mult(2), zero_mult(4)))


def test_pair_scan_guard_trips_before_the_scan(monkeypatch):
    # 1024 * 1024 candidate pairs exceed the 10**6 guard; the scan itself
    # must not start.
    def no_scan(*args):
        raise AssertionError("the pair scan ran")

    monkeypatch.setattr(bimult, "_mixed_product", no_scan)
    with pytest.raises(SearchGuardError,
                       match=r"^1048576 candidate bimultiplications, over the guard 1000000$"):
        enumerate_bimultiplications(zero_ring_2_2_4())


def test_endomap_filter_memory_is_bounded():
    # The 1024 endomaps are filtered in blocks of BLOCK_CELLS cells; the
    # whole (1024, 16, 16) grids of each filter took 1.5 MB at once.
    tracemalloc.start()
    try:
        with pytest.raises(SearchGuardError):
            enumerate_bimultiplications(zero_ring_2_2_4())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_ring_and_isomorphism_guards(monkeypatch):
    monkeypatch.setattr(bimult, "RING_ORDER_LIMIT", 3)
    with pytest.raises(SearchGuardError,
                       match=r"^4 bimultiplication ring elements, over the guard 3$"):
        bimult_ring(zero_mult(2))
    with pytest.raises(SearchGuardError, match=r"^17 ring elements for the isomorphism "
                                               r"search, over the guard 16$"):
        find_ring_isomorphism(zmod(17), zmod(17))


def test_doubled_product_bimult_ring_shape():
    # The pair (s, t) of scalar maps is a bimultiplication iff s = t mod 2.
    r = doubled_product_ring()
    for s in bimults(r):
        sl, tr = s.left[1], s.right[1]
        assert tuple(s.left) == tuple((sl * np.arange(4)) % 4)
        assert tuple(s.right) == tuple((tr * np.arange(4)) % 4)
        assert (sl - tr) % 2 == 0
    assert bicenter(r) == [0, 2]


def test_validate_bimult_witnesses():
    r = zmod(4)
    with pytest.raises(BimultError, match="left-map-additive"):
        validate_bimult(r, [0, 1, 2, 0], np.arange(4))
    with pytest.raises(BimultError, match="mixed-product"):
        validate_bimult(r, np.arange(4), (2 * np.arange(4)) % 4)
    d = dual_numbers(2)
    swap = [0, 2, 1, 3]  # exchanges the two additive coordinates
    with pytest.raises(BimultError, match="left-product"):
        validate_bimult(d, swap, swap)
    s = validate_bimult(r, (3 * np.arange(4)) % 4, (3 * np.arange(4)) % 4)
    assert s == inner(r, 3)


@pytest.mark.parametrize(
    "ring, left, right, condition, witness",
    [
        (zmod(4), [0, 1], [0, 1, 2, 3], "left-map-shape", (4,)),
        (zmod(4), [0, 1, 2, 3], [0, 1, 2, 4], "right-map-shape", (4,)),
        (zmod(4), [0, 1, 2, 0], [0, 1, 2, 3], "left-map-additive", (1, 2)),
        (zmod(4), [0, 1, 2, 3], [0, 1, 2, 0], "right-map-additive", (1, 2)),
        (dual_numbers(2), [0, 2, 1, 3], [0, 2, 1, 3], "left-product", (1, 1)),
        (dual_numbers(2), [0, 1, 2, 3], [0, 2, 1, 3], "right-product", (1, 1)),
        (zmod(4), [0, 1, 2, 3], [0, 2, 0, 2], "mixed-product", (1, 1)),
    ],
)
def test_validate_bimult_condition_witnesses(ring, left, right, condition, witness):
    # the witnesses the validator reported before its laws were shared
    with pytest.raises(BimultError) as e:
        validate_bimult(ring, left, right)
    assert (e.value.condition, e.value.witness) == (condition, witness)


def test_bimult_ring_of_zero_mult_2_is_f2_squared():
    mb = bimult_ring(zero_mult(2))
    assert mb.ring.order == 4
    assert find_ring_isomorphism(mb.ring, product_ring(zmod(2), zmod(2))) is not None


def test_bimult_ring_of_z4_is_z4():
    mb = bimult_ring(zmod(4))
    assert find_ring_isomorphism(mb.ring, zmod(4)) is not None
    h = inner_hom(mb)
    assert h.is_injective() and h.is_surjective()


def test_inner_hom_kernel_is_bicenter():
    for r in (doubled_product_ring(), zero_mult(4), zmod(6)):
        mb = bimult_ring(r)
        h = inner_hom(mb)
        assert h.unital == (r.unit is not None)
        assert h.kernel_elements() == bicenter(r)


def test_bicenter_frozen():
    assert bicenter(zero_mult(4)) == [0, 1, 2, 3]
    assert bicenter(zmod(6)) == [0]
    assert bicenter(doubled_product_ring()) == [0, 2]


def test_inner_pairs_always_permute():
    for r in (zmod(6), doubled_product_ring(), zero_mult_klein(), dual_numbers(3)):
        for c in r.elements():
            for e in r.elements():
                assert permutable(inner(r, c), inner(r, e))


def test_nilpotent_shift_pair_fails_to_permute():
    # On the four-element zero ring: left map drops the second coordinate
    # into the first, right map does the opposite.  Composing them in the
    # two orders disagrees already on (0, 1).
    k = zero_mult_klein()
    s = validate_bimult(k, [0, 2, 0, 2], [0, 0, 1, 1])
    assert permutability_witness(s, s) == ("first-around-second", 1)
    assert not permutable(s, s)
    # The identity on the left permutes with everything, so only the
    # second composite can clash.
    ident = tuple(range(4))
    t, u = validate_bimult(k, ident, s.right), validate_bimult(k, s.left, ident)
    assert permutability_witness(t, u) == ("second-around-first", 1)
    assert permutability_witness(u, t) == ("first-around-second", 1)


def test_bimult_ops_match_ring_tables():
    for r in (doubled_product_ring(), zero_mult_klein(), dual_numbers(2), zmod(6)):
        mb = bimult_ring(r)
        els = [mb.bimult_of(i) for i in range(mb.ring.order)]
        idx = {s: i for i, s in enumerate(els)}
        assert len(idx) == len(els)
        for s in els:
            for t in els:
                assert idx[bm_add(r, s, t)] == mb.ring.add[idx[s], idx[t]]
                assert idx[bm_mul(r, s, t)] == mb.ring.mul[idx[s], idx[t]]
        assert idx[bm_zero(r)] == 0
        assert mb.ring.unit == idx[bm_one(r)]


@pytest.mark.parametrize(
    "r", [zero_mult_klein(), zero_mult(4), zmod(6), dual_numbers(2), left_scalar_ring()],
    ids=lambda r: r.name,
)
def test_enumeration_rows_are_the_ring_elements(r):
    left, right = enumerate_bimultiplications(r)
    mb = bimult_ring(r)
    assert np.array_equal(mb.left, left) and np.array_equal(mb.right, right)
    assert [mb.bimult_of(i) for i in range(len(left))] == bimults(r)
    # The unit is the pair of identity rows.
    ident = np.arange(r.order)
    assert np.array_equal(left[mb.ring.unit], ident)
    assert np.array_equal(right[mb.ring.unit], ident)
    # inner_hom agrees with a lookup of each inner tuple pair in a dict.
    index = {s: i for i, s in enumerate(bimults(r))}
    assert inner_hom(mb).map.tolist() == [index[inner(r, c)] for c in r.elements()]


def test_klein_bimult_ring_order():
    mb = bimult_ring(zero_mult_klein())
    assert mb.ring.order == 256
    assert bicenter(zero_mult_klein()) == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# The inner map's internal check, broken on purpose: every row pair is
# looked up as the zero bimultiplication, so the whole of Z/4 would be the
# kernel although its bicenter is {0}.


def inner_map_looked_up_as_zero(m):
    mb = bimult_ring(zmod(4))
    m.setattr(bimult, "_row_lookup",
              lambda left, right: lambda lf, rt: np.zeros(len(lf), dtype=np.int64))
    return functools.partial(inner_hom, mb), "the kernel of the inner map must be the bicenter"


@pytest.mark.parametrize("check", [inner_map_looked_up_as_zero], ids=lambda f: f.__name__)
def test_broken_checks_raise_without_assert(check, monkeypatch):
    # The internal check raises AssertionError itself, so `python -O`
    # keeps it.
    call, message = check(monkeypatch)
    with pytest.raises(AssertionError) as e:
        call()
    assert str(e.value) == message
