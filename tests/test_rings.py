import itertools

import numpy as np
import pytest

from ringcat.rings import (
    FiniteRing,
    HomError,
    RingAxiomError,
    RingHom,
    SearchGuardError,
    _additive_maps,
    additive_group,
    decompose_abelian,
    dual_numbers,
    find_ring_isomorphism,
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
    assert err.value.axiom == axiom
    assert isinstance(err.value.witness, tuple)


def test_validate_catches_broken_unit_and_range():
    z = zmod(3)
    with pytest.raises(RingAxiomError) as err:
        validate_ring(z.add, z.mul, 2)
    assert err.value.axiom == "unit"
    bad = z.mul.copy()
    bad[1, 1] = 7
    with pytest.raises(RingAxiomError) as err:
        validate_ring(z.add, bad, 1)
    assert err.value.axiom == "table-range"


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
    assert find_unit(z.add, z.mul) == 1
    assert find_unit(zero_mult(3).add, zero_mult(3).mul) is None


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
    with pytest.raises(HomError, match="not an ideal"):
        ideal_cokernel(diag)


def test_decompose_abelian_tables():
    factors, gens, coords = decompose_abelian(zmod(8).add)
    assert factors == (8,)
    g, _, _ = additive_group(product_ring(zmod(2), zmod(4)))
    assert g.factors == (2, 4)
    k = zero_mult_klein()
    factors, gens, coords = decompose_abelian(k.add)
    assert factors == (2, 2)
    assert len(coords) == 4
    # subset version: the 2-torsion {0, 2} of Z/4
    factors, gens, coords = decompose_abelian(zmod(4).add, [0, 2])
    assert factors == (2,)
    assert set(coords) == {0, 2}


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
    r = validate_ring(add, mul, find_unit(add, mul), name="z6_relabelled")
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


def test_additive_maps_guard():
    z2 = zmod(2)
    r16 = product_ring(product_ring(z2, z2), product_ring(z2, z2))
    r32 = product_ring(r16, z2)
    # Four generators of order 2, each free to go to any of 32 elements.
    with pytest.raises(SearchGuardError, match="1048576 candidate"):
        _additive_maps(r16.add, r32.add)
