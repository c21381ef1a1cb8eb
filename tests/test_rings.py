import functools
import itertools
import re
import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcat.ablin import ORDER_LIMIT, _guard
from ringcat.bimult import BimultError, bimult_ring
from ringcat.corpus import corpus
from ringcat.crossed import ESystemError
from ringcat.extensions import ExtensionError, FactorSystemError
from ringcat.rings import (
    FiniteRing,
    HomError,
    RingAxiomError,
    RingHom,
    SearchGuardError,
    WitnessError,
    _additive_maps,
    _additive_orders,
    _multiples,
    _preimages,
    _sum_generators,
    _units,
    decompose_abelian,
    dual_numbers,
    find_unit,
    identity_hom,
    ideal_cokernel,
    product_ring,
    subring,
    validate_ring,
    zero_mult,
    zero_mult_klein,
    zmod,
)


def test_zmod_presets():
    for n in (1, 2, 3, 4, 8):
        r = zmod(n)
        assert r.order == n
        assert r.unit == (1 if n > 1 else 0)
    z4 = zmod(4)
    assert z4.sub(1, 3) == 2
    assert z4.additive_order(2) == 2
    assert z4.additive_order(3) == 4


def test_zero_mult_presets():
    r = zero_mult(4)
    assert r.unit is None
    assert not r.mul.any()
    k = zero_mult_klein()
    assert k.order == 4
    assert all(k.additive_order(x) <= 2 for x in k.elements())


def test_product_and_dual():
    r = product_ring(zmod(2), zmod(2))
    assert r.order == 4 and r.unit is not None
    assert find_ring_isomorphism(r, zmod(4)) is None
    d = dual_numbers(2)
    assert d.order == 4
    eps = 1  # index of the square-zero generator
    assert d.mul[eps, eps] == 0
    assert d.unit == 2


@pytest.mark.parametrize(
    "base, unit, mutate, axiom",
    [
        (zmod(4), 1, lambda a, m: a.__setitem__((0, 1), 0), "zero-element"),
        (zmod(4), 1, lambda a, m: a.__setitem__((1, 2), 0), "add-commutative"),
        (zmod(4), 1, lambda a, m: m.__setitem__((2, 3), 1), "mul-associative"),
        # In a zero-multiplication ring a single product entry breaks
        # distributivity while associativity survives.
        (zero_mult(4), None, lambda a, m: m.__setitem__((1, 1), 2), "distributive-left"),
    ],
)
def test_validate_reports_first_axiom(base, unit, mutate, axiom):
    add, mul = base.add.copy(), base.mul.copy()
    mutate(add, mul)
    with pytest.raises(RingAxiomError) as err:
        validate_ring(add, mul, unit)
    assert err.value.condition == axiom
    assert isinstance(err.value.witness, tuple)


def test_validate_catches_broken_unit_and_range():
    z = zmod(3)
    with pytest.raises(RingAxiomError) as err:
        validate_ring(z.add, z.mul, 2)
    assert err.value.condition == "unit"
    bad = z.mul.copy()
    bad[1, 1] = 7
    with pytest.raises(RingAxiomError) as err:
        validate_ring(z.add, bad, 1)
    assert err.value.condition == "table-range"


def test_validated_tables_are_private_and_read_only():
    # Memos keyed on a ring by identity rely on its tables never changing.
    i = np.arange(4, dtype=np.int16)
    add, mul = (i[:, None] + i) % 4, (i[:, None] * i) % 4
    r = validate_ring(add, mul, 1)
    add[1, 1], mul[1, 1] = 3, 3
    assert r.add[1, 1] == 2 and r.mul[1, 1] == 1
    for t in (r.add, r.mul):
        with pytest.raises(ValueError, match="read-only"):
            t[1, 1] = 0


def test_validate_mutation_sweep_z6():
    # Any single-entry corruption of the Z/6 tables must trip some axiom.
    z = zmod(6)
    rng = np.random.default_rng(1)
    for _ in range(40):
        which = rng.integers(0, 2)
        i, j = rng.integers(0, 6, size=2)
        delta = int(rng.integers(1, 6))
        add, mul = z.add.copy(), z.mul.copy()
        t = add if which == 0 else mul
        t[i, j] = (t[i, j] + delta) % 6
        with pytest.raises(RingAxiomError):
            validate_ring(add, mul, 1)


def test_find_unit():
    z = zmod(5)
    assert find_unit(z.mul) == 1
    assert find_unit(zero_mult(3).mul) is None


def reference_find_unit(mul):
    """find_unit, testing one element at a time."""
    idx = np.arange(len(mul))
    for e in range(len(mul)):
        if np.array_equal(mul[e], idx) and np.array_equal(mul[:, e], idx):
            return e
    return None


@st.composite
def unit_tables(draw):
    # A random table, with an identity row and an identity column planted
    # at elements drawn apart or together, so that it may have a two-sided
    # unit, only a one-sided one, or none.
    n = draw(st.integers(1, 6))
    cells = draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))
    mul = np.array(cells).reshape(n, n)
    idx = np.arange(n)
    row, col = draw(st.sampled_from([None, *range(n)])), draw(st.sampled_from([None, *range(n)]))
    if row is not None:
        mul[row] = idx
    if col is not None:
        mul[:, col] = idx
    return mul


@settings(max_examples=300, deadline=None)
@given(st.lists(unit_tables(), min_size=1, max_size=4))
def test_find_unit_matches_the_one_element_at_a_time_scan(tables):
    want = [reference_find_unit(mul) for mul in tables]
    assert [find_unit(mul) for mul in tables] == want
    # Tables of one order stack: the scan answers each of them at once.
    n = len(tables[0])
    same = [(mul, w) for mul, w in zip(tables, want, strict=True) if len(mul) == n]
    units = _units(np.stack([mul for mul, _ in same])).tolist()
    assert units == [-1 if w is None else w for _, w in same]


def test_subring_two_z4():
    z4 = zmod(4)
    b, emb = subring(z4, [0, 2])
    assert b.order == 2
    assert b.unit is None
    assert not b.mul.any()  # 2*2 = 0 in Z/4
    assert list(emb) == [0, 2]
    with pytest.raises(RingAxiomError, match="closed") as e:
        subring(z4, [0, 1])  # 1 + 1 = 2 is missing
    assert e.value.witness == (1, 1)


def test_ring_hom_validation():
    z4, z2 = zmod(4), zmod(2)
    h = RingHom(z4, z2, [0, 1, 0, 1])
    assert h.unital
    assert h.kernel_elements() == [0, 2]
    assert h.image_elements() == [0, 1]
    assert h.is_surjective() and not h.is_injective()
    with pytest.raises(HomError):
        RingHom(z4, z2, [0, 1, 1, 0])
    comp = h.compose(identity_hom(z4))
    assert np.array_equal(comp.map, h.map)


def test_compose_rejects_mismatched_rings():
    h = RingHom(zmod(4), zmod(2), [0, 1, 0, 1])
    with pytest.raises(HomError, match="cannot compose"):
        h.compose(identity_hom(zmod(2)))


def test_ideal_cokernel_two_z4():
    # The ideal {0, 2} in Z/4 gives a quotient of order 2.
    z4 = zmod(4)
    b, emb = subring(z4, [0, 2])
    inc = RingHom(b, z4, emb)
    q = ideal_cokernel(inc)
    assert q.ring.order == 2
    assert find_ring_isomorphism(q.ring, zmod(2)) is not None
    assert q.projection.apply(2) == 0 and q.projection.apply(1) == 1
    assert q.reps == [0, 1]


def test_ideal_cokernel_rejects_non_ideal():
    # {0, 1, 2} inside Z/4 is not even a subgroup; use a genuine non-ideal:
    # the subring {0, 2} of Z/4 embedded in Z/4 x Z/4 diagonally misses
    # products with (1, 0).
    z4 = zmod(4)
    p = product_ring(z4, z4)
    b, _ = subring(z4, [0, 2])
    diag = RingHom(b, p, [0, 2 * 4 + 2])
    with pytest.raises(HomError, match=re.escape("image not an ideal: witness (1, 10)")):
        ideal_cokernel(diag)


def upper_triangular_z2():
    """2x2 upper-triangular matrices over Z/2, [[a, b], [0, c]] at index
    4a + 2b + c: a noncommutative ring of order 8 with unit 5."""
    i = np.arange(8)
    a, b, c = i >> 2, (i >> 1) & 1, i & 1
    mul = 4 * (a[:, None] & a) + 2 * ((a[:, None] & b) ^ (b[:, None] & c)) + (c[:, None] & c)
    return validate_ring(i[:, None] ^ i, mul, 5, name="ut2_z2")


@pytest.mark.parametrize(
    "subset, witness",
    [
        ([0, 1], (2, 1)),  # e12 * e22 = e12 leaves on the left: (r, b)
        ([0, 4], (4, 2)),  # e11 * e12 = e12 leaves on the right only: (b, r)
    ],
)
def test_ideal_cokernel_witness_names_the_side(subset, witness):
    r = upper_triangular_z2()
    b, emb = subring(r, subset)
    with pytest.raises(HomError, match=re.escape(f"image not an ideal: witness {witness}")):
        ideal_cokernel(RingHom(b, r, emb))


def reference_ideal_cokernel(h):
    """The one-coset-at-a-time walk: (reps, class map), or the error text
    naming the first (r, b) or (b, r) that leaves the image."""
    t = h.target
    image = h.image_elements()
    iset = set(image)
    for r in t.elements():
        for b in image:
            if int(t.mul[r, b]) not in iset:
                return f"image not an ideal: witness ({r}, {b})"
            if int(t.mul[b, r]) not in iset:
                return f"image not an ideal: witness ({b}, {r})"
    class_of = np.full(t.order, -1, dtype=np.int64)
    reps = []
    for x in t.elements():
        if class_of[x] >= 0:
            continue
        coset = sorted(int(t.add[x, b]) for b in image)
        k = len(reps)
        reps.append(coset[0])
        for y in coset:
            class_of[y] = k
    order = np.argsort(np.array(reps))
    relabel = np.empty(len(reps), dtype=np.int64)
    relabel[order] = np.arange(len(reps))
    return [reps[i] for i in order], relabel[class_of].tolist()


def cokernel_outcome(h):
    try:
        q = ideal_cokernel(h)
    except HomError as e:
        return str(e)
    return q.reps, q.projection.map.tolist()


def test_ideal_cokernel_matches_the_coset_walk():
    homs = [es.d for es in corpus()]
    for r in (upper_triangular_z2(), product_ring(zmod(2), zmod(4)), dual_numbers(2)):
        for k in range(r.order):
            for rest in itertools.combinations(range(1, r.order), k):
                try:
                    b, emb = subring(r, (0, *rest))
                except RingAxiomError:
                    continue
                homs.append(RingHom(b, r, emb))
    assert len(homs) > 30
    for h in homs:
        assert cokernel_outcome(h) == reference_ideal_cokernel(h), (h.source.name, h.target.name)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_preimages_match_a_scan(n):
    rng = np.random.default_rng(n)
    for size in (0, 1, 3, 8, 20):
        m = rng.integers(0, n, size)
        want = [-1] * n
        for x in reversed(range(size)):
            want[m[x]] = x
        assert _preimages(m, n).tolist() == want


def test_decompose_abelian_tables():
    factors, gens, coords = decompose_abelian(zmod(8).add)
    assert factors == (8,)
    factors, _, _ = decompose_abelian(product_ring(zmod(2), zmod(4)).add)
    assert factors == (2, 4)
    k = zero_mult_klein()
    factors, gens, coords = decompose_abelian(k.add)
    assert factors == (2, 2)
    assert len(coords) == 4
    # subset version: the 2-torsion {0, 2} of Z/4
    factors, gens, coords = decompose_abelian(zmod(4).add, [0, 2])
    assert factors == (2,)
    assert set(coords) == {0, 2}


def test_decompose_abelian_rejects_a_table_that_is_no_group():
    # 1 + 2 = 1, so this is no group: each round would add a factor 1
    # without growing the span.  The alarm turns a loop into a failure.
    def hang(*_):
        raise TimeoutError("decompose_abelian did not return within a second")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(1)
    try:
        with pytest.raises(ValueError, match="not an abelian group"):
            decompose_abelian([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def find_ring_isomorphism(r1, r2):
    """The least isomorphism between small rings, in lexicographic order of
    its table; None if there is none.

    Guarded to order `ORDER_LIMIT`; filters the additive maps for bijective,
    unit-preserving and multiplicative ones.
    """
    n = r1.order
    if n != r2.order:
        return None
    _guard(n, "ring elements for the isomorphism search", ORDER_LIMIT)
    if (r1.unit is None) != (r2.unit is None):
        return None
    maps = _additive_maps(r1.add, r2.add)
    maps = maps[(np.sort(maps, axis=1) == np.arange(n)).all(axis=1)]
    if r1.unit is not None:
        maps = maps[maps[:, r1.unit] == r2.unit]
    ok = (maps[:, r1.mul] == r2.mul[maps[:, :, None], maps[:, None, :]]).all(axis=(1, 2))
    return RingHom(r1, r2, maps[ok][0]) if ok.any() else None


def test_iso_search_distinguishes_order_four_rings():
    z4 = zmod(4)
    k4 = product_ring(zmod(2), zmod(2))
    d4 = dual_numbers(2)
    assert find_ring_isomorphism(z4, z4) is not None
    assert find_ring_isomorphism(z4, k4) is None
    assert find_ring_isomorphism(z4, d4) is None
    assert find_ring_isomorphism(k4, d4) is None
    # relabeled copy of Z/4: swap the roles of 1 and 3 (an automorphism)
    iso = find_ring_isomorphism(z4, z4)
    assert isinstance(iso, RingHom)


def test_iso_found_for_relabelled_ring():
    z6 = zmod(6)
    perm = np.array([0, 5, 4, 3, 2, 1])  # x -> -x, a ring automorphism target
    inv = np.argsort(perm)
    add = perm[z6.add[np.ix_(inv, inv)]]
    mul = perm[z6.mul[np.ix_(inv, inv)]]
    r = validate_ring(add, mul, find_unit(mul), name="z6_relabelled")
    iso = find_ring_isomorphism(z6, r)
    assert iso is not None
    assert iso.unital


def test_describe():
    assert "unit none" in zero_mult(2).describe()
    assert "order 4" in zmod(4).describe()


def _rings_up_to_four():
    return [
        zmod(1), zmod(2), zmod(3), zmod(4), zero_mult(2), zero_mult(3), zero_mult(4),
        zero_mult_klein(), product_ring(zmod(2), zmod(2)), dual_numbers(2),
    ]


def test_additive_maps_match_brute_force():
    # Oracle: every table src -> tgt, kept when additive, in lexicographic order.
    rs = _rings_up_to_four()
    for src, tgt in itertools.product(rs, rs):
        want = []
        for vals in itertools.product(range(tgt.order), repeat=src.order):
            m = np.array(vals)
            if (tgt.add[m[:, None], m[None, :]] == m[src.add]).all():
                want.append(list(vals))
        assert _additive_maps(src.add, tgt.add).tolist() == want, (src.name, tgt.name)


def test_additive_maps_memory_is_bounded():
    # A Python list of the generator-image tuples took 21 MB here, plus a
    # (k, n) int64 temporary per generator.
    # The zero ring over (Z/2)^4: the sum of two elements is the xor.
    i = np.arange(16)
    r16 = validate_ring(i[:, None] ^ i, np.zeros((16, 16), int))
    tracemalloc.start()
    try:
        maps = _additive_maps(r16.add, r16.add)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert maps.shape == (65536, 16)
    assert peak < 8 * 2**20, peak


def test_additive_maps_guard():
    z2 = zmod(2)
    r16 = product_ring(product_ring(z2, z2), product_ring(z2, z2))
    r32 = product_ring(r16, z2)
    # Four generators of order 2, each free to go to any of 32 elements.
    with pytest.raises(SearchGuardError,
                       match=r"^1048576 candidate additive maps, over the guard 1000000$"):
        _additive_maps(r16.add, r32.add)


# ---------------------------------------------------------------------------
# validate_ring proves its laws over three elements from additive
# generators; the whole-grid scan below is the oracle for its reports.


def whole_grid_validate(add, mul, unit=None):
    """validate_ring's axioms on in-range tables, each checked as one
    index grid (|R|^3 cells for the laws over three elements): the first
    failing (axiom, witness), or None if the tables form a ring."""
    idx = np.arange(len(add))
    checks = [
        ("zero-element", add[0] == idx, lambda j: (0, j)),
        ("zero-element", add[:, 0] == idx, lambda i: (i, 0)),
        ("add-commutative", add == add.T, None),
        ("add-associative", add[:, add] == add[add, :], None),
        ("add-inverse", (add == 0).any(axis=1), None),
        ("mul-associative", mul[:, mul] == mul[mul, :], None),
        ("distributive-left", mul[:, add] == add[mul[:, :, None], mul[:, None, :]], None),
        ("distributive-right", mul[add, :] == add[mul[:, None, :], mul[None, :, :]], None),
    ]
    if unit is not None:
        checks += [
            ("unit", mul[unit] == idx, lambda j: (unit, j)),
            ("unit", mul[:, unit] == idx, lambda i: (i, unit)),
        ]
    for axiom, ok, place in checks:
        if not ok.all():
            w = tuple(int(x) for x in np.unravel_index(np.argmin(ok), ok.shape))
            return axiom, place(*w) if place else w
    return None


def outcome(add, mul, unit=None):
    try:
        validate_ring(add, mul, unit)
    except RingAxiomError as e:
        return e.condition, e.witness
    return None


def relabelled(r, seed):
    """r with its nonzero elements permuted at random, so that the least
    elements are no longer the additive generators."""
    p = np.concatenate(([0], 1 + np.random.default_rng(seed).permutation(r.order - 1)))
    add, mul = np.empty_like(r.add), np.empty_like(r.mul)
    add[np.ix_(p, p)] = p[r.add]
    mul[np.ix_(p, p)] = p[r.mul]
    unit = None if r.unit is None else int(p[r.unit])
    return validate_ring(add, mul, unit, name=f"{r.name}_relabelled")


@functools.cache
def mutation_bases():
    return (
        [zmod(n) for n in range(1, 9)]
        + [zero_mult(n) for n in (2, 3, 4, 6, 8)]
        + [dual_numbers(2), dual_numbers(3), zero_mult_klein(), relabelled(zmod(8), 3)]
    )


def test_relabelled_ring_has_more_than_the_fewest_generators():
    # Z/8 needs one generator besides 0; the least-index rule keeps more.
    assert _sum_generators(zmod(8).add).tolist() == [0, 1]
    assert len(_sum_generators(relabelled(zmod(8), 3).add)) > 2


@st.composite
def mutated_tables(draw):
    r = draw(st.sampled_from(mutation_bases()))
    add, mul, n = r.add.copy(), r.mul.copy(), r.order
    for _ in range(draw(st.integers(1, 2))):
        t = draw(st.sampled_from((add, mul)))
        i, j, v = (draw(st.integers(0, n - 1)) for _ in range(3))
        t[i, j] = v
        # a symmetric change of the addition keeps it commutative, so the
        # later laws are reached
        if t is add and draw(st.booleans()):
            t[j, i] = v
    return add, mul, r.unit


@settings(max_examples=600, deadline=None)
@given(tables=mutated_tables())
def test_validate_matches_whole_grid_scan(tables):
    assert outcome(*tables) == whole_grid_validate(*tables)


@pytest.mark.parametrize("side", ["left", "right"])
def test_mul_associative_is_scanned_when_one_distributive_law_fails(side):
    # On Z/4 let a * c = a f(c) with f = (0, 1, 1, 3): every column map is
    # additive, so right distributivity holds, but f is not additive, so
    # left distributivity fails.  The generators are 0 and 1 and f fixes
    # both, so (st)u = s(tu) holds on them, yet (1 * 2) * 3 != 1 * (2 * 3).
    # The transposed table swaps the sides.  mul-associative is reported
    # first; it may only be proved from the generators when both
    # distributive laws hold.
    z4 = zmod(4)
    i = np.arange(4)
    mul = (i[:, None] * np.array([0, 1, 1, 3])) % 4
    if side == "right":
        mul = mul.T
    assert outcome(z4.add, mul)[0] == "mul-associative"
    assert outcome(z4.add, mul) == whole_grid_validate(z4.add, mul)


def test_validate_matches_whole_grid_scan_on_every_biadditive_klein_product():
    # Every biadditive product on the Klein group, fixed by the products of
    # its basis 1, 2 (element 3 = 1 + 2): both distributive laws hold, so
    # mul-associative is proved from the generators 0, 1, 2 alone.
    k = zero_mult_klein()
    bits = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])  # element x = 2 x0 + x1
    laws = set()
    for images in itertools.product(range(4), repeat=4):
        basis = bits[np.array(images).reshape(2, 2)]  # basis[i, j] = e_i e_j
        coef = bits[:, ::-1]  # coefficients of e_1 = 1 and e_2 = 2
        prod = np.einsum("ai,bj,ijk->abk", coef, coef, basis) % 2
        mul = prod[..., 0] * 2 + prod[..., 1]
        got = outcome(k.add, mul)
        assert got == whole_grid_validate(k.add, mul), images
        laws.add(got and got[0])
    assert laws == {None, "mul-associative"}


def test_validate_matches_whole_grid_scan_on_every_unmutated_base():
    for r in mutation_bases():
        assert outcome(r.add, r.mul, r.unit) is None
        assert whole_grid_validate(r.add, r.mul, r.unit) is None


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)))
def test_every_element_is_a_sum_of_generators_on_any_table(cells):
    # No ring axiom is assumed: close the generators under the table.
    n = int(round(len(cells) ** 0.5))
    add = np.array(cells).reshape(n, n)
    reached = np.zeros(n, dtype=bool)
    reached[_sum_generators(add)] = True
    while True:
        grown = reached.copy()
        grown[add[np.ix_(reached, reached)]] = True
        if (grown == reached).all():
            break
        reached = grown
    assert reached.all()


def test_klein_bimultiplication_ring_has_nine_generators():
    ring = bimult_ring(zero_mult_klein()).ring
    assert _sum_generators(ring.add).tolist() == [0, 1, 2, 4, 8, 16, 32, 64, 128]


def test_bimult_ring_validation_memory_is_bounded():
    # The whole-grid laws took 96 MB here, one |R|^3 grid of 256^3 cells.
    zero_mult_klein()
    tracemalloc.start()
    try:
        bimult_ring(zero_mult_klein())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


# ---------------------------------------------------------------------------
# Additive multiples come from one table, `_multiples`; the n*x loops it
# replaced and the decomposition written on them are the oracles.


def reference_additive_order(add, x):
    k, y = 1, int(x)
    while y != 0:
        y = int(add[y, x])
        k += 1
    return k if x != 0 else 1


def reference_cyclic(add, g):
    out, y = [0], int(g)
    while y != 0:
        out.append(y)
        y = int(add[y, g])
    return out


def reference_order_multiple(add, x, k):
    y = 0
    for _ in range(k):
        y = int(add[y, x])
    return y


def reference_decompose_abelian(add, elements=None):
    """decompose_abelian with every multiple walked by the loops above."""
    add = np.asarray(add)
    elems = sorted(int(x) for x in (elements if elements is not None else range(add.shape[0])))
    neg = np.argmax(add == 0, axis=1)
    gens_desc, factors_desc = [], []
    span = {0}

    def coset_rep(x):
        return min(int(add[x, s]) for s in span)

    while True:
        reps = sorted({coset_rep(x) for x in elems})
        if reps == [0]:
            break

        def qorder(x):
            k, y = 1, x
            while coset_rep(y) != 0:
                y = int(add[y, x])
                k += 1
            return k

        best = max(reps, key=qorder)
        e = qorder(best)
        target = reference_order_multiple(add, best, e)
        corr = next(s for s in span if reference_order_multiple(add, s, e) == target)
        best = int(add[best, neg[corr]])
        gens_desc.append(best)
        factors_desc.append(e)
        span = {int(add[s, c]) for s in span for c in reference_cyclic(add, best)}

    factors, gens = list(reversed(factors_desc)), list(reversed(gens_desc))
    coords = {}
    for combo in itertools.product(*[range(m) for m in factors]):
        x = 0
        for c, g in zip(combo, gens, strict=True):
            x = int(add[x, reference_order_multiple(add, g, c)])
        coords[x] = combo
    return tuple(factors), gens, coords


@functools.cache
def multiples_cases():
    """(name, additive table, elements) for every ring of the corpus,
    dual_numbers(4) and the quotients of the Klein census, and the kernel
    of each corpus structure map as a subset of its base."""
    cases, seen = [], set()
    census = [zmod(2), zmod(3), zmod(4), product_ring(zmod(2), zmod(2), name="klein")]
    for es in corpus():
        for r in (es.b, es.d_ring):
            if id(r) not in seen:
                seen.add(id(r))
                cases.append((r.name, r.add, None))
        cases.append((f"ker_{es.name}", es.b.add, np.nonzero(es.d.map == 0)[0].tolist()))
    cases += [(r.name, r.add, None) for r in [dual_numbers(4), *census]]
    return cases


def test_multiples_match_the_loops():
    for name, add, _ in multiples_cases():
        orders = _additive_orders(add)
        mult = _multiples(add, 2 * int(orders.max()) + 2)
        for x in range(len(add)):
            assert orders[x] == reference_additive_order(add, x), (name, x)
            assert mult[:orders[x], x].tolist() == reference_cyclic(add, x), (name, x)
            assert mult[:, x].tolist() == [
                reference_order_multiple(add, x, k) for k in range(len(mult))
            ], (name, x)


def test_additive_order_and_the_cli_maximum_read_the_orders():
    r = dual_numbers(4)
    assert [r.additive_order(x) for x in r.elements()] == _additive_orders(r.add).tolist()
    assert int(_additive_orders(r.add).max()) == 4


def test_decompose_abelian_matches_the_loops():
    for name, add, elements in multiples_cases():
        factors, gens, coords = decompose_abelian(add, elements)
        want_factors, want_gens, want_coords = reference_decompose_abelian(add, elements)
        assert (factors, gens) == (want_factors, want_gens), name
        # the same coordinates, inserted in the same order
        assert list(coords.items()) == list(want_coords.items()), name


# ---------------------------------------------------------------------------
# One message format for every error that names a condition and a witness.


@pytest.mark.parametrize("cls", [RingAxiomError, ESystemError, BimultError, ExtensionError,
                                 FactorSystemError])
@pytest.mark.parametrize("witness, detail, message", [
    ((1, 2), "", "law fails at (1, 2)"),
    ((), "", "law fails at ()"),
    ("not additive at (0, 1)", "", "law fails at not additive at (0, 1)"),
    ((1, 2), "why", "law fails at (1, 2): why"),
])
def test_witness_errors_share_one_message(cls, witness, detail, message):
    args = ("law", witness, detail) if detail else ("law", witness)
    try:
        raise cls(*args)
    except ValueError as e:
        assert type(e) is cls and isinstance(e, WitnessError)
        assert str(e) == message
        assert (e.condition, e.witness, e.detail) == ("law", witness, detail)


# ---------------------------------------------------------------------------
# Internal checks of the cokernel and of the decomposition, each broken on
# purpose.  The cokernel cases start from the ideal {0, 2} of Z/4 and
# change a table of Z/4 behind the validation.  The decomposition assumes
# an abelian group (or a subgroup); each table or subset below breaks that
# in a way one of its checks catches.


def two_z4_inclusion():
    z4 = zmod(4)
    b, emb = subring(z4, [0, 2])
    return RingHom(b, z4, emb)


def zero_class_off_zero(m):
    h = two_z4_inclusion()
    # No sum is 0, so the least member of no coset is 0.
    m.setattr(h.target, "add", np.ones_like(h.target.add))
    return functools.partial(ideal_cokernel, h), "the zero class is not represented by 0"


def addition_off_the_cosets(m):
    h = two_z4_inclusion()
    add = h.target.add.copy()
    add[3, 1] = 1  # 3 + 1 lands in the class of 1, but 1 + 1 in the class of 0
    m.setattr(h.target, "add", add)
    return functools.partial(ideal_cokernel, h), (
        "quotient addition depends on the representatives")


def multiplication_off_the_cosets(m):
    h = two_z4_inclusion()
    mul = h.target.mul.copy()
    mul[3, 1] = 0  # 3 * 1 lands in the class of 0, but 1 * 1 in the class of 1
    m.setattr(h.target, "mul", mul)
    return functools.partial(ideal_cokernel, h), (
        "quotient multiplication depends on the representatives")


def elements_without_zero(m):
    return functools.partial(decompose_abelian, zmod(4).add, [1, 2, 3]), (
        "the elements must include 0")


def impure_span(m):
    # 1 + 1 = 0 and 2 + 2 = 1: 2 has quotient order 2, but no element of
    # the span {0, 1} doubles to 2 + 2.
    add = [[0, 1, 2], [1, 0, 2], [2, 2, 1]]
    return functools.partial(decompose_abelian, np.array(add)), "purity correction must exist"


def corrected_generator_of_wrong_order(m):
    # 3 has order 3 over the span {0, 1}, and 3 * 3 = 1 is corrected by 1,
    # but 3 - 1 = 3 + 1 = 3, so the corrected generator still triples to 1.
    add = [[0, 1, 2, 3], [1, 0, 0, 3], [2, 0, 0, 1], [3, 3, 1, 2]]
    return functools.partial(decompose_abelian, np.array(add)), (
        "the corrected generator must have order e")


def subset_not_closed(m):
    # {0, 2} of Z/8 is no subgroup: 2 generates 4 and 6 as well.
    return functools.partial(decompose_abelian, zmod(8).add, [0, 2]), (
        "decomposition must be a bijection")


def generators_miss_an_element(m):
    # 1 + 1 = 1 + 2 = 2 + 2 = 0: 1 has order 2 and the quotient by {0, 1}
    # is trivial, so the one generator never reaches 2.
    add = [[0, 1, 2], [1, 0, 0], [2, 0, 0]]
    return functools.partial(decompose_abelian, np.array(add)), (
        "decomposition must reach every element")


@pytest.mark.parametrize("check", [
    zero_class_off_zero, addition_off_the_cosets, multiplication_off_the_cosets,
    elements_without_zero, impure_span, corrected_generator_of_wrong_order,
    subset_not_closed, generators_miss_an_element,
], ids=lambda f: f.__name__)
def test_broken_checks_raise_without_assert(check, monkeypatch):
    # Each internal check raises AssertionError itself, so `python -O`
    # keeps it.
    call, message = check(monkeypatch)
    with pytest.raises(AssertionError) as e:
        call()
    assert str(e.value) == message
