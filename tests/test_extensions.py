"""Extensions: validation, factor systems, crossed products, enumeration."""

import functools
import gc
import itertools
import math
import weakref
from collections import Counter

import numpy as np
import pytest

from ringcat import ablin, cohomology, crossed, extensions
from ringcat.ablin import CANDIDATE_LIMIT, _guard
from ringcat.bimult import (
    Bimult,
    _bimult_laws,
    _permutable,
    enumerate_bimultiplications,
    permutability_witness,
)
from ringcat.cohomology import _defect3, classify_functors, complex_for
from ringcat.corpus import corpus, corpus_triples, unital_homs
from ringcat.crossed import (
    ESystemError,
    coker_action_well_defined,
    ideal_esystem,
    multiplier_esystem,
    validate_esystem,
)
from ringcat.extensions import (
    ExtensionError,
    FactorSystem,
    FactorSystemError,
    SearchGuardError,
    _action_stage,
    _align_psi,
    _flat,
    crossed_ring,
    crossed_product,
    crossed_tables,
    enumerate_extensions,
    equivalent,
    exhaustive_extension_search,
    extension_obstruction,
    factor_system_from_extension,
    induced_psi,
    validate_extension,
    validate_factor_system,
)
from ringcat.fileio import load_section, write_section
from ringcat.rings import (
    BLOCK_CELLS,
    RingAxiomError,
    RingHom,
    _additive_maps,
    _first_bad,
    _ideal_actions,
    _product_blocks,
    _sum,
    dual_numbers,
    find_unit,
    ideal_cokernel,
    product_ring,
    subring,
    validate_ring,
    zero_mult,
    zero_mult_klein,
    zmod,
)
from ringcat.transport import reduce_esystem
from test_cohomology import classify_triples, klein_census_modules, reference_defect3


def flat_z2():
    # d = 0 forces all base products to vanish, so the base is the
    # two-element zero ring acted on through the target's multiplication.
    b, d = zero_mult(2), zmod(2)
    return validate_esystem(
        b, d, np.zeros(2, dtype=np.int64), d.mul.copy(), d.mul.copy(), name="flat_z2"
    )


def two_z8():
    """Carrier 0..3 standing for the even residues mod 8."""
    i = np.arange(4)
    return validate_ring(
        (i[:, None] + i[None, :]) % 4,
        (2 * i[:, None] * i[None, :]) % 4,
        None,
        name="2z8",
    )


def doubled_into_z4():
    b, d4 = two_z8(), zmod(4)
    i = np.arange(4)
    scal = (i[:, None] * i[None, :]) % 4
    return validate_esystem(b, d4, (2 * i) % 4, scal, scal.copy(), name="d2b")


def z4_extension(es):
    return validate_extension(
        es, zmod(4), es.d_ring, [0, 2], [0, 1, 0, 1], [0, 1, 0, 1], name="z4ext"
    )


def dual_extension(es):
    return validate_extension(
        es, dual_numbers(2), es.d_ring, [0, 1], [0, 0, 1, 1], [0, 0, 1, 1], name="dualext"
    )


def test_validate_extension_examples():
    es = flat_z2()
    e4 = z4_extension(es)
    assert e4.ring.order == 4 and e4.quotient.order == 2
    ed = dual_extension(es)
    assert induced_psi(e4).map.tolist() == [0, 1]
    assert induced_psi(ed).map.tolist() == [0, 1]


def test_induced_psi_names_the_first_disagreeing_preimage(monkeypatch):
    # Read through the quotient of Z/4 by zero, eps(b, u) = d(b) + l(u)
    # splits each class: the first is the class of 0, at the first b with
    # d(b) != 0.
    es = doubled_into_z4()
    rc = reduce_esystem(es)
    psi = RingHom(rc.ring, rc.ring, np.arange(2))
    ext = enumerate_extensions(es, rc.ring, psi, rc=rc)[0]
    assert ext.p.map.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
    assert ext.eps.map.tolist() == [0, 2, 0, 2, 1, 3, 1, 3]
    exact = ideal_cokernel(RingHom(zmod(1), es.d_ring, [0]))
    monkeypatch.setitem(vars(es), "cokernel", exact)
    with pytest.raises(ExtensionError) as e:
        induced_psi(ext)
    assert (e.value.condition, e.value.witness) == ("induced-map", (0, 1))


def test_every_layer_reads_the_cokernel_the_system_keeps(monkeypatch, tmp_path):
    # Reduction, obstruction, enumeration, the brute-force search,
    # induced_psi, a loaded section and the well-definedness check of one
    # system together build its cokernel once.
    calls = []
    build = crossed.ideal_cokernel
    monkeypatch.setattr(crossed, "ideal_cokernel", lambda *a, **k: calls.append(a) or build(*a, **k))
    es = doubled_into_z4()
    rc = reduce_esystem(es)
    q = rc.ring
    psi = RingHom(q, q, np.arange(q.order))
    exts = enumerate_extensions(es, q, psi)
    assert len(exts) == extension_obstruction(es, q, psi).count == 2
    assert len(exhaustive_extension_search(es, q, psi)) == 1
    assert induced_psi(exts[0]).target is q
    loaded = load_section(write_section(rc.section, tmp_path / "s.sect"), es)
    assert loaded.sigma.tolist() == rc.section.sigma.tolist()
    assert coker_action_well_defined(es)
    assert len(calls) == 1 and q.name == "coker_d2b"


def test_validate_extension_rejects():
    es = flat_z2()
    # j into a product ring cannot be multiplicative: the base squares to 0.
    kl = product_ring(zmod(2), zmod(2))
    with pytest.raises(ExtensionError) as e:
        validate_extension(es, kl, es.d_ring, [0, 1], [0, 0, 1, 1], [0, 0, 1, 1])
    assert e.value.condition == "structure-hom"
    with pytest.raises(ExtensionError) as e:
        validate_extension(es, zmod(4), zmod(1), [0, 2], [0, 0, 0, 0], [0, 1, 0, 1])
    assert e.value.condition == "exactness"
    with pytest.raises(ExtensionError) as e:
        validate_extension(es, zero_mult(2), zmod(1), [0, 1], [0, 0], [0, 0])
    assert e.value.condition == "unit"
    # a non-unital eps breaks compatibility with the action target
    with pytest.raises(ExtensionError) as e:
        validate_extension(es, zmod(4), es.d_ring, [0, 2], [0, 1, 0, 1], [0, 0, 0, 0])
    assert e.value.condition == "target-compatibility"


def test_enumerate_flat_base():
    es = flat_z2()
    rc = reduce_esystem(es)
    psi = RingHom(rc.ring, rc.ring, np.arange(rc.ring.order))
    cls = extension_obstruction(es, rc.ring, psi, rc=rc)
    assert cls.vanishes and cls.h2_factors == (2,)
    exts = enumerate_extensions(es, rc.ring, psi, rc=rc, classification=cls)
    assert len(exts) == 2
    tops = sorted(
        max(ext.ring.additive_order(i) for i in range(ext.ring.order)) for ext in exts
    )
    assert tops == [2, 4]
    assert equivalent(exts[0], exts[1]) is None
    # the classes are the two familiar order-4 rings
    e4, ed = z4_extension(es), dual_extension(es)
    by_top = {
        max(ext.ring.additive_order(i) for i in range(4)): ext for ext in exts
    }
    assert equivalent(by_top[4], e4) is not None
    assert equivalent(by_top[2], ed) is not None
    for ext in exts:
        assert induced_psi(ext).map.tolist() == [0, 1]


def test_factor_system_roundtrip_and_lifts():
    es = flat_z2()
    rc = reduce_esystem(es)
    psi = RingHom(rc.ring, rc.ring, np.arange(2))
    e4 = z4_extension(es)
    fs = factor_system_from_extension(e4)
    assert fs.f.tolist() == [[0, 0], [0, 1]] and not fs.g.any()
    # a different lift shifts g by a coboundary but keeps the class
    fs3 = factor_system_from_extension(e4, lifts=[0, 3])
    assert fs3.f.tolist() == [[0, 0], [0, 1]] and fs3.g.tolist() == [[0, 0], [0, 1]]
    assert crossed_ring(fs3, name="shifted").unit == 3
    for fsx in (fs, fs3):
        rebuilt = crossed_product(fsx, es, psi, section=rc.section, name="rt")
        assert equivalent(e4, rebuilt) is not None
    with pytest.raises(ExtensionError) as e:
        factor_system_from_extension(e4, lifts=[2, 1])
    assert e.value.condition == "lift-zero"


def test_tampered_factor_systems():
    es = doubled_into_z4()
    rc = reduce_esystem(es)
    psi = RingHom(zmod(2), rc.ring, np.arange(2))
    ext = enumerate_extensions(es, zmod(2), psi, rc=rc)[0]
    fs = factor_system_from_extension(ext)
    bad_g = fs.g.copy()
    bad_g[1, 1] = (bad_g[1, 1] + 1) % 4
    with pytest.raises(FactorSystemError) as e:
        validate_factor_system(fs.b, fs.q, fs.act_left, fs.act_right, fs.f, bad_g)
    assert e.value.condition == "left-distributivity" and e.value.witness == (1, 1, 1)
    bad_f = fs.f.copy()
    bad_f[1, 1] = (bad_f[1, 1] + 1) % 4
    with pytest.raises(FactorSystemError) as e:
        validate_factor_system(fs.b, fs.q, fs.act_left, fs.act_right, bad_f, fs.g)
    assert e.value.condition == "action-additive-left"


COCYCLE_CASES = [
    ("f", [(3, 3)], "additive-cocycle", (1, 2, 3)),
    ("f", [(2, 1), (2, 3), (3, 1), (3, 3)], "additive-symmetry", (1, 2)),
    ("g", [(3, 3)], "multiplicative-cocycle", (2, 3, 3)),
    ("g", [(2, 3), (3, 1), (3, 3)], "left-distributivity", (2, 1, 2)),
    ("f", [(2, 2), (2, 3), (3, 2), (3, 3)], "right-distributivity", (2, 2, 1)),
]


def cocycle_case(table, cells):
    """Z/2 x Z/2 acting on the two-element zero ring through its first
    coordinate on the left and its second on the right, f = g = 0 but
    for a 1 at each of `cells` of `table`."""
    b, q = zero_mult(2), product_ring(zmod(2), zmod(2))
    al = np.array([[0, 0], [0, 0], [0, 1], [0, 1]])
    ar = np.array([[0, 0], [0, 1], [0, 0], [0, 1]])
    tables = {"f": np.zeros((4, 4), dtype=int), "g": np.zeros((4, 4), dtype=int)}
    for cell in cells:
        tables[table][cell] = 1
    return b, q, al, ar, tables["f"], tables["g"]


@pytest.mark.parametrize("table, cells, condition, witness", COCYCLE_CASES)
def test_factor_system_cocycle_condition_witnesses(table, cells, condition, witness):
    # With f = g = 0 the case is a factor system.  Each perturbation trips
    # the named condition first, at the pinned witness.
    validate_factor_system(*cocycle_case(table, []))
    with pytest.raises(FactorSystemError) as e:
        validate_factor_system(*cocycle_case(table, cells))
    assert (e.value.condition, e.value.witness) == (condition, witness)


IDENT4, SWAP4 = [0, 1, 2, 3], [0, 2, 1, 3]
SHIFT_L, SHIFT_R = [0, 2, 0, 2], [0, 0, 1, 1]  # a square-zero bimultiplication


ACTION_CASES = [
    (zmod(4), zmod(2), [(0, 0), ([0, 1, 2, 0], IDENT4)], "action-left-map-additive", (1, 1, 2)),
    (zmod(4), zmod(2), [(0, 0), (IDENT4, [0, 1, 2, 0])], "action-right-map-additive", (1, 1, 2)),
    (dual_numbers(2), zmod(2), [(0, 0), (SWAP4, SWAP4)], "action-left-product", (1, 1, 1)),
    (dual_numbers(2), zmod(2), [(0, 0), (IDENT4, SWAP4)], "action-right-product", (1, 1, 1)),
    (zmod(4), zmod(2), [(0, 0), (IDENT4, [0, 2, 0, 2])], "action-mixed-product", (1, 1, 1)),
    # rows are checked in order, each against every condition
    (zmod(4), zmod(2), [(IDENT4, [0, 2, 0, 2]), ([0, 1, 2, 0], IDENT4)],
     "action-mixed-product", (0, 1, 1)),
    (zmod(4), zmod(2), [(IDENT4, IDENT4), (IDENT4, IDENT4)], "action-zero", (0,)),
    (zmod(4), zmod(2), [(0, 0), (0, 0)], "action-unit", (1,)),
    # pairs u <= v in order: row 1 permutes around row 2, but row 2's
    # left map does not permute around row 1's right map
    (zero_mult_klein(), product_ring(zmod(2), zmod(2)),
     [(0, 0), (IDENT4, SHIFT_R), (SHIFT_L, IDENT4), (IDENT4, IDENT4)],
     "permutability", (8, 1, 4)),
    (zero_mult_klein(), zmod(4), [(0, 0), (IDENT4, IDENT4), (SWAP4, [0, 1, 0, 1]),
                                  (SWAP4, [0, 1, 0, 1])], "permutability", (8, 1, 8)),
]


def action_case(b, q, rows):
    """Rows (left, right) per element of q, with f = g = 0; an int row is
    that constant."""
    al = np.array([np.broadcast_to(lf, b.order) for lf, _ in rows])
    ar = np.array([np.broadcast_to(rt, b.order) for _, rt in rows])
    zero = np.zeros((q.order, q.order), dtype=int)
    return b, q, al, ar, zero, zero


@pytest.mark.parametrize("b, q, rows, condition, witness", ACTION_CASES)
def test_factor_system_action_condition_witnesses(b, q, rows, condition, witness):
    # the witnesses the validator reported while it checked one row, then
    # one pair of rows, at a time
    with pytest.raises(FactorSystemError) as e:
        validate_factor_system(*action_case(b, q, rows))
    assert (e.value.condition, e.value.witness) == (condition, witness)


def test_factor_system_shape_errors():
    b, q = zero_mult(2), zmod(2)
    ident = np.array([[0, 0], [0, 1]])
    f1 = np.array([[0, 1], [0, 0]])
    with pytest.raises(FactorSystemError) as e:
        validate_factor_system(b, q, ident, ident, f1, np.zeros((2, 2), dtype=int))
    assert e.value.condition == "f-normalisation"
    with pytest.raises(FactorSystemError) as e:
        validate_factor_system(
            b, q, np.zeros((2, 2), dtype=int), np.zeros((2, 2), dtype=int),
            np.zeros((2, 2), dtype=int), np.zeros((2, 2), dtype=int),
        )
    assert e.value.condition == "action-unit"


def test_klein_factor_system_census():
    """Over the Klein zero ring every action choice is a bimultiplication
    pair, but only the regular ones pass; all survivors associate."""
    kl, q = zero_mult_klein(), zmod(2)
    pl, pr = enumerate_bimultiplications(kl)
    assert pl.shape == pr.shape == (256, 4)
    valid = 0
    for lf, rt in zip(pl, pr, strict=True):
        for f11 in range(4):
            for g11 in range(4):
                al = np.array([[0] * 4, lf])
                ar = np.array([[0] * 4, rt])
                f = np.array([[0, 0], [0, f11]])
                g = np.array([[0, 0], [0, g11]])
                try:
                    fs = validate_factor_system(kl, q, al, ar, f, g)
                except FactorSystemError:
                    continue
                ring = crossed_ring(fs)
                assert ring.order == 8
                valid += 1
    assert valid == 16


def test_non_regular_action_breaks_associativity():
    # Coordinate swap against a projection is not self-permutable; pushing
    # it past the checker produces a concrete non-associative triple.
    kl, q = zero_mult_klein(), zmod(2)
    swap, proj = (0, 2, 1, 3), (0, 1, 0, 1)
    assert permutability_witness(Bimult(swap, proj), Bimult(swap, proj)) is not None
    al = np.array([[0] * 4, list(swap)])
    ar = np.array([[0] * 4, list(proj)])
    zero2 = np.zeros((2, 2), dtype=int)
    add, mul = crossed_tables(kl, q, al, ar, zero2, zero2)
    with pytest.raises(RingAxiomError) as e:
        validate_ring(add, mul, None, name="bad_product")
    assert e.value.condition == "mul-associative"
    x, y, z = e.value.witness
    assert mul[mul[x, y], z] != mul[x, mul[y, z]]


def test_permutability_reported_as_association_triple():
    # With a unit row in place the permutability check itself fires, and
    # its witness is a triple of crossed-product indices.
    kl, q4 = zero_mult_klein(), zmod(4)
    ident = tuple(range(4))
    swap, proj = (0, 2, 1, 3), (0, 1, 0, 1)
    al = np.array([[0] * 4, ident, swap, swap])
    ar = np.array([[0] * 4, ident, proj, proj])
    zero4 = np.zeros((4, 4), dtype=int)
    with pytest.raises(FactorSystemError) as e:
        validate_factor_system(kl, q4, al, ar, zero4, zero4)
    assert e.value.condition == "permutability"
    x, y, z = e.value.witness
    add, mul = crossed_tables(kl, q4, al, ar, zero4, zero4)
    assert mul[mul[x, y], z] != mul[x, mul[y, z]]


def test_obstructed_identity_pullback():
    es = multiplier_esystem(two_z8(), name="ex5_2z8")
    rc = reduce_esystem(es)
    psi = RingHom(rc.ring, rc.ring, np.arange(rc.ring.order))
    cls = extension_obstruction(es, rc.ring, psi, rc=rc)
    assert not cls.vanishes and cls.certificate is not None
    assert enumerate_extensions(es, rc.ring, psi, rc=rc, classification=cls) == []
    # The brute-force route, run to exhaustion, finds no extension either.
    assert exhaustive_extension_search(es, rc.ring, psi, stop_at_first=False) == []


def test_obstruction_vanishes_on_unit_pullback():
    es = multiplier_esystem(two_z8(), name="ex5_2z8")
    rc = reduce_esystem(es)
    z2 = zmod(2)
    psi = RingHom(z2, rc.ring, np.array([0, rc.ring.unit]))
    exts = enumerate_extensions(es, z2, psi, rc=rc)
    assert len(exts) == 2
    for ext in exts:
        assert induced_psi(ext).map.tolist() == psi.map.tolist()


def test_brute_force_matches_enumeration():
    cases = [
        (flat_z2(), lambda rc: RingHom(rc.ring, rc.ring, np.arange(2)), 4),
        (doubled_into_z4(), lambda rc: RingHom(zmod(2), rc.ring, np.arange(2)), 8),
    ]
    for es, mk, expect_raw in cases:
        rc = reduce_esystem(es)
        psi = mk(rc)
        exts = enumerate_extensions(es, psi.source, psi, rc=rc)
        found = exhaustive_extension_search(es, psi.source, psi, stop_at_first=False)
        assert len(found) == expect_raw
        hits_per_class = [0] * len(exts)
        for f in found:
            hits = [i for i, e in enumerate(exts) if equivalent(f, e) is not None]
            assert len(hits) == 1
            hits_per_class[hits[0]] += 1
        assert all(h > 0 for h in hits_per_class)
    # early exit returns a single validated witness
    es = flat_z2()
    rc = reduce_esystem(es)
    psi = RingHom(rc.ring, rc.ring, np.arange(2))
    assert len(exhaustive_extension_search(es, psi.source, psi)) == 1


def test_search_guards(monkeypatch):
    es = flat_z2()
    e4 = z4_extension(es)
    with pytest.raises(SearchGuardError):
        equivalent(e4, e4, guard=1)
    rc = reduce_esystem(es)
    psi = RingHom(rc.ring, rc.ring, np.arange(2))
    # From empty memos, so that a warm entry cannot hide a table built
    # before its guard.
    clear_search_memos()
    with pytest.raises(SearchGuardError, match=r"^2 additive defect candidates, over the guard 1$"):
        exhaustive_extension_search(es, rc.ring, psi, guard=1)

    # The zero ring on Z/2 has 4 bimultiplications and Z/2 one nonzero
    # class: the action guard trips before any additive defect is made.
    def no_pool(*args):
        raise AssertionError("the additive defect pool was built")

    monkeypatch.setattr(extensions, "_product_blocks", no_pool)
    with pytest.raises(SearchGuardError, match=r"^4 action candidates, over the guard 3$"):
        exhaustive_extension_search(es, rc.ring, psi, guard=3)


def test_equivalent_identity_and_mismatch():
    es = flat_z2()
    e4 = z4_extension(es)
    self_iso = equivalent(e4, e4)
    assert self_iso is not None and self_iso.map.tolist() == [0, 1, 2, 3]
    assert equivalent(e4, dual_extension(es)) is None


def test_quotient_presentation_mismatch():
    es = flat_z2()
    rc = reduce_esystem(es)
    psi = RingHom(rc.ring, rc.ring, np.arange(2))
    with pytest.raises(ExtensionError) as e:
        enumerate_extensions(es, zmod(4), psi, rc=rc)
    assert e.value.condition == "quotient-presentation"


def test_search_rejects_non_unital_quotient():
    es, q = flat_z2(), zero_mult(2)
    with pytest.raises(ExtensionError) as e:
        exhaustive_extension_search(es, q, RingHom(q, q, [0, 1]))
    assert (e.value.condition, e.value.witness) == ("quotient-unital", (q.name,))


def test_search_rejects_non_unital_psi():
    es = flat_z2()
    rc = reduce_esystem(es)
    with pytest.raises(ExtensionError) as e:
        exhaustive_extension_search(es, rc.ring, RingHom(rc.ring, rc.ring, [0, 0]))
    assert (e.value.condition, e.value.witness) == ("psi-unital", (0,))


def test_crossed_product_rejects_a_foreign_base():
    es = flat_z2()
    rc = reduce_esystem(es)
    fs = factor_system_from_extension(z4_extension(es))
    other = flat_z2()
    with pytest.raises(ExtensionError) as e:
        crossed_product(fs, other, RingHom(rc.ring, rc.ring, np.arange(2)))
    assert e.value.condition == "factor-system-base"


def test_crossed_product_enforces_its_context():
    # Over its order-4 cokernel Q, mult_2z8 has the unital maps Q -> Q
    # (0 0 2 2) and the identity.  A factor system read off an extension
    # over the first is the wrong context for the second: its action is
    # not theta after the identity's lift, which validate_extension finds.
    es = corpus_system("mult_2z8")
    rc = reduce_esystem(es)
    q = rc.ring
    homs = unital_homs(q, q)
    assert [h.map.tolist() for h in homs] == [[0, 0, 2, 2], [0, 1, 2, 3]]
    ext = enumerate_extensions(es, q, homs[0], rc=rc)[0]
    fs = factor_system_from_extension(ext)
    assert equivalent(ext, crossed_product(fs, es, homs[0], section=rc.section)) is not None
    with pytest.raises(ExtensionError) as e:
        crossed_product(fs, es, homs[1], section=rc.section)
    assert e.value.condition == "target-compatibility"
    assert str(e.value).endswith("morphism-action-right fails at (4, 1)")


def test_equivalent_rejects_extensions_over_different_bases():
    with pytest.raises(ExtensionError) as e:
        equivalent(z4_extension(flat_z2()), z4_extension(flat_z2()))
    assert e.value.condition == "common-base"


def test_obstruction_requires_regular_base():
    es = multiplier_esystem(zero_mult_klein(), name="klein0")
    with pytest.raises(ESystemError, match="not-regular"):
        extension_obstruction(es, zmod(2), RingHom(zmod(2), zmod(2), [0, 1]))


# ---------------------------------------------------------------------------
# The staged brute-force search filters its candidates in blocks; the
# one-candidate-at-a-time walk below is the oracle for its finds and their
# order.


def reference_search(base, q, psi, stop_at_first=True, guard=CANDIDATE_LIMIT):
    """exhaustive_extension_search, testing one candidate at a time."""
    b, dd = base.b, base.d_ring
    nb, nq = b.order, q.order
    if q.unit is None:
        raise ExtensionError("quotient-unital", (q.name,))
    quo = ideal_cokernel(base.d)
    psi = _align_psi(psi, q, quo.ring)
    if not psi.unital:
        raise ExtensionError("psi-unital", (int(psi.map[q.unit]),))
    arb, arq = np.arange(nb), np.arange(nq)
    u3, v3, w3 = arq[:, None, None], arq[None, :, None], arq[None, None, :]
    qa = q.add

    free_f = [(u, v) for u in range(1, nq) for v in range(u, nq)]
    _guard(nb ** len(free_f), "additive defect candidates", guard)
    f_pool = []
    for vals in itertools.product(range(nb), repeat=len(free_f)):
        f = np.zeros((nq, nq), dtype=np.int16)
        for (u, v), val in zip(free_f, vals, strict=True):
            f[u, v] = f[v, u] = val
        lhs = b.add[f[v3, w3], f[u3, qa[v3, w3]]]
        rhs = b.add[f[u3, v3], f[qa[u3, v3], w3]]
        if np.array_equal(lhs, rhs):
            f_pool.append(f)

    pl, pr = enumerate_bimultiplications(b)
    npool = len(pl)
    _guard(npool ** (nq - 1), "action candidates", guard)
    around = _permutable(pl, pr).all(axis=2)
    perm_ok = around & around.T

    results = []
    c3b = arb[None, None, :]
    for f in f_pool:
        fl3 = b.mul[f[:, :, None], c3b]
        fr3 = b.mul[c3b, f[:, :, None]]
        for choice in itertools.product(range(npool), repeat=nq - 1):
            acts = np.concatenate(([0], np.asarray(choice)))
            if not perm_ok[acts[:, None], acts[None, :]].all():
                continue
            left = pl[acts]
            right = pr[acts]
            ok = (
                b.add[left[:, None, :], left[None, :, :]] == b.add[fl3, left[qa]]
            ).all() and (
                b.add[right[:, None, :], right[None, :, :]] == b.add[fr3, right[qa]]
            ).all()
            if not ok:
                continue
            ext = _reference_g_stage(
                base, q, psi, quo, f, left, right, guard, stop_at_first, results
            )
            if ext and stop_at_first:
                return results
    return results


def reference_slot_options(b, q, left, right):
    """The slots (u, v), u, v != 0, in C order, and the options of each,
    tested one element at a time."""
    slots = [(u, v) for u in range(1, q.order) for v in range(1, q.order)]
    cands = []
    for u, v in slots:
        lrow = b.add[left[u][left[v]], b.neg[left[q.mul[u, v]]]]
        rrow = b.add[right[v][right[u]], b.neg[right[q.mul[u, v]]]]
        cands.append([
            x
            for x in range(b.order)
            if np.array_equal(b.mul[x, :], lrow) and np.array_equal(b.mul[:, x], rrow)
        ])
    return slots, cands


def _reference_g_stage(base, q, psi, quo, f, left, right, guard, stop_at_first, results):
    b, dd = base.b, base.d_ring
    nb, nq = b.order, q.order
    dm = base.d.map
    proj = quo.projection.map
    arq = np.arange(nq)
    qa, qm = q.add, q.mul

    slots, cands = reference_slot_options(b, q, left, right)
    if not all(cands):
        return False
    total = 1
    for opts in cands:
        total *= len(opts)
        _guard(total, "multiplicative defect candidates", guard)
    gs = np.zeros((total, nq, nq), dtype=np.int16)
    for ci, combo in enumerate(itertools.product(*cands)):
        for (u, v), val in zip(slots, combo, strict=True):
            gs[ci, u, v] = val

    u3, v3, w3 = arq[:, None, None], arq[None, :, None], arq[None, None, :]
    G_uvm_w = gs[:, qm[:, :, None], arq[None, None, :]]
    G_uva_w = gs[:, qa[:, :, None], arq[None, None, :]]
    G_u_vwm = gs[:, arq[:, None, None], qm[None, :, :]]
    G_u_vwa = gs[:, arq[:, None, None], qa[None, :, :]]
    G_vw = gs[:, None, :, :]
    lhs = b.add[right[arq[None, None, None, :], gs[:, :, :, None]], G_uvm_w]
    rhs = b.add[left[arq[None, :, None, None], G_vw], G_u_vwm]
    ok = (lhs == rhs).all(axis=(1, 2, 3))
    f_uw_vw = f[qm[u3, w3], qm[v3, w3]]
    lhs = b.add[right[arq[None, None, None, :], f[None, :, :, None]], G_uva_w]
    rhs = b.add[b.add[gs[:, :, None, :], G_vw], f_uw_vw[None]]
    ok &= (lhs == rhs).all(axis=(1, 2, 3))
    f_uv_uw = f[qm[u3, v3], qm[u3, w3]]
    lhs = b.add[left[arq[None, :, None, None], f[None, None, :, :]], G_u_vwa]
    rhs = b.add[b.add[gs[:, :, :, None], gs[:, :, None, :]], f_uv_uw[None]]
    ok &= (lhs == rhs).all(axis=(1, 2, 3))

    found = False
    for ci in np.nonzero(ok)[0]:
        g = gs[ci]
        add, mul = crossed_tables(b, q, left, right, f, g)
        unit = find_unit(mul)
        if unit is None:
            continue
        xc = []
        for u in range(nq):
            opts = [
                x
                for x in range(dd.order)
                if proj[x] == psi.map[u]
                and np.array_equal(base.theta_left[x], left[u])
                and np.array_equal(base.theta_right[x], right[u])
            ]
            if not opts:
                break
            xc.append(opts)
        if len(xc) < nq:
            continue
        total_x = 1
        for opts in xc:
            total_x *= len(opts)
        _guard(total_x, "target-lift candidates", guard)
        X = np.array(list(itertools.product(*xc)), dtype=np.int64)
        # eps(b, u) = d(b) + X(u) is a ring map iff X(u) + X(v) =
        # X(u + v) + d f(u, v) and X(u) X(v) = X(uv) + d g(u, v).
        okx = (dd.add[X[:, :, None], X[:, None, :]] == dd.add[X[:, qa], dm[f][None]]).all(
            axis=(1, 2)
        )
        okx &= (dd.mul[X[:, :, None], X[:, None, :]] == dd.add[X[:, qm], dm[g][None]]).all(
            axis=(1, 2)
        )
        u0, e0 = divmod(int(unit), nb)
        okx &= dd.add[dm[e0], X[:, u0]] == dd.unit
        rows = np.nonzero(okx)[0]
        if rows.size == 0:
            continue
        xrow = X[rows[0]]
        ring = validate_ring(add, mul, unit, name=f"{base.name}_search_{len(results)}")
        e = np.arange(ring.order)
        bp, qp = e % nb, e // nb
        eps = dd.add[dm[bp], xrow[qp]]
        ext = validate_extension(base, ring, q, np.arange(nb), qp, eps, name=ring.name)
        results.append(ext)
        found = True
        if stop_at_first:
            return True
    return found


def upper_triangular_z2():
    """2x2 upper-triangular matrices over Z/2, [[a, b], [0, c]] at index
    4a + 2b + c: a noncommutative ring of order 8 with unit 5."""
    i = np.arange(8)
    a, b, c = i >> 2, (i >> 1) & 1, i & 1
    mul = 4 * (a[:, None] & a) + 2 * ((a[:, None] & b) ^ (b[:, None] & c)) + (c[:, None] & c)
    return validate_ring(i[:, None] ^ i, mul, 5, name="ut2_z2")


@functools.cache
def corpus_system(name):
    # Besides the corpus, the first-row ideal of the upper-triangular
    # matrices: a regular system over a noncommutative base of order 4;
    # and 2Z/8 in Z/8 and 3Z/9 in Z/9, whose defects d f and d g are not
    # all 2-torsion.
    extra = [
        ideal_esystem(upper_triangular_z2(), [0, 2, 4, 6], name="ut2_first_row"),
        ideal_esystem(zmod(8), [0, 2, 4, 6], name="ideal_2z8"),
        ideal_esystem(zmod(9), [0, 3, 6], name="ideal_3z9"),
    ]
    return {es.name: es for es in [*corpus(), *extra]}[name]


def klein():
    return product_ring(zmod(2), zmod(2))


def corpus_triple(name, q=None, psi=None):
    """A corpus system with quotient q and psi into its cokernel, given by
    images; by default its own cokernel with psi = id."""
    es = corpus_system(name)
    coker = ideal_cokernel(es.d).ring
    if q is None:
        q, psi = coker, np.arange(coker.order)
    return es, q, RingHom(q, coker, psi)


def flat_z2_over_z4():
    return corpus_triple("flat_z2", zmod(4), [0, 1, 0, 1])


def search_record(exts):
    return [
        (e.ring.add.tolist(), e.ring.mul.tolist(), e.ring.unit, e.eps.map.tolist(),
         e.p.map.tolist(), e.ring.name)
        for e in exts
    ]


def recorded_search(search, es, q, psi, stop, monkeypatch):
    """Finds of `search` (the walk or the batched route), with what
    reached its g stage and its crossed tables, in order, one list per
    call: the (f, action) pairs and the g tables."""
    calls, tables = [], []

    def recording(stage, at):
        # f, left and right are the stage's arguments at, at + 1, at + 2.
        def run(*args):
            f, left, right = args[at:at + 3]
            acts = zip(left, right, strict=True) if left.ndim == 3 else [(left, right)]
            calls.append([(f.tolist(), lt.tolist(), rt.tolist()) for lt, rt in acts])
            return stage(*args)
        return run

    def recording_tables(b, q, left, right, f, g, build=crossed_tables):
        g = np.asarray(g)
        tables.append(g.reshape(-1, *g.shape[-2:]).tolist())
        return build(b, q, left, right, f, g)

    with monkeypatch.context() as m:
        m.setitem(globals(), "_reference_g_stage", recording(_reference_g_stage, 4))
        m.setattr(extensions, "_search_g_stage", recording(extensions._search_g_stage, 3))
        m.setitem(globals(), "crossed_tables", recording_tables)
        m.setattr(extensions, "crossed_tables", recording_tables)
        found = search_record(search(es, q, psi, stop_at_first=stop))
    return found, calls, tables


def assert_walks_to_the_end_of_its_call(calls, walked, exhausted):
    """`calls` lists what one route handed a stage, one list per call, and
    `walked` and `exhausted` what the walk handed it when stopping as that
    route did and when run to exhaustion.  The route must have seen what
    the exhausted walk saw, in order, up to where it stopped: where the
    walk stopped or, if it takes a block per call, the end of the call the
    walk stopped in."""
    flat, walked, exhausted = ([x for call in c for x in call] for c in (calls, walked, exhausted))
    assert flat == exhausted[:len(flat)]
    assert flat[:len(walked)] == walked
    if len(flat) > len(walked):
        assert len(flat) - len(calls[-1]) < len(walked)


@pytest.mark.parametrize(
    "triple",
    [
        ("mult_2z8",),  # obstructed: the search runs to exhaustion
        ("double_2z8", klein(), [0, 0, 1, 1]),
        ("flat_z2", klein(), [0, 1, 0, 1]),
        ("flat_klein0", zmod(2), [0, 1]),
        ("ut2_first_row",),  # noncommutative base: gives the right-hand masks teeth
        ("flat_z2_in_z4",),  # Z/4: 2 = 1 + 1 is solved before 3 = 1 + 2
        ("ideal_3z9",),  # the target lift reads defects that are not 2-torsion
    ],
    ids=["mult_2z8-own", "double_2z8-z2xz2", "flat_z2-z2xz2", "flat_klein0-z2",
         "ut2_first_row-own", "flat_z2_in_z4-own", "ideal_3z9-own"],
)
@pytest.mark.parametrize("stop", [True, False])
def test_search_matches_the_one_at_a_time_walk(triple, stop, monkeypatch):
    # Besides the finds, the (f, action) candidates that reach the g stage
    # and the g tables that pass its defect conditions must be the same and
    # come in the same order: the filters only prune, so dropping one would
    # not change the finds.  The batched route hands its g stage a block of
    # actions and crossed_tables a block of survivors, so when it stops at
    # the first find it has seen the rest of that block too; up to there
    # it must have seen what the walk run to exhaustion sees.
    es, q, psi = corpus_triple(*triple)
    want, *walk = recorded_search(reference_search, es, q, psi, stop, monkeypatch)
    exhausted = walk
    if stop:
        exhausted = recorded_search(reference_search, es, q, psi, False, monkeypatch)[1:]
    got, *batched = recorded_search(exhaustive_extension_search, es, q, psi, stop, monkeypatch)
    assert got == want
    assert walk[0]
    for seen, walked, walked_out in zip(batched, walk, exhausted, strict=True):
        assert_walks_to_the_end_of_its_call(seen, walked, walked_out)


def g_stage_calls(es, q, psi, monkeypatch, **search):
    """A search run to exhaustion, and the arguments up to the guard of
    every g stage it runs, each with the stage's answer."""
    seen = []
    stage = extensions._search_g_stage

    def run(*args):
        found = stage(*args)
        seen.append((args[:6], found))
        return found

    with monkeypatch.context() as m:
        m.setattr(extensions, "_search_g_stage", run)
        exts = exhaustive_extension_search(es, q, psi, stop_at_first=False, **search)
    return exts, seen


def single_actions(args):
    """The batched and the walk's g-stage arguments of each action in the
    block of a batched g-stage call."""
    base, grid, psi, f, left, right = args
    for i in range(len(left)):
        yield ((base, grid, psi, f, left[i:i + 1], right[i:i + 1]),
               (base, grid.q, psi, base.cokernel, f, left[i], right[i]))


@pytest.mark.parametrize(
    "triple, fewer",
    [(("double_2z8", klein(), [0, 0, 1, 1]), True), (("double_2z8",), False)],
    ids=["double_2z8-z2xz2", "double_2z8-own"],
)
def test_g_stage_decodes_only_generator_pair_candidates(triple, fewer, monkeypatch):
    # Z/2 x Z/2 is spanned by 1 and 2, so the stage decodes the options of
    # 4 of its 9 slots; Z/2 (the cokernel of double_2z8) has one slot,
    # (1, 1), and it is a generator pair.  Each route's first product is
    # its g enumeration: the target lifts come after it.  The batched
    # stage runs on each action of each block it was handed, alone, and
    # then on the whole block, which must decode the sum of its actions.
    es, q, psi = corpus_triple(*triple)
    blocks_in = [args for args, _ in g_stage_calls(es, q, psi, monkeypatch)[1]]
    radices = []
    blocks, product = extensions._product_blocks, itertools.product

    def recording_blocks(rad, width):
        radices.append(math.prod(rad))
        return blocks(rad, width)

    def recording_product(*pools):
        radices.append(math.prod(map(len, pools)))
        return product(*pools)

    def decoded(stage, args):
        radices.clear()
        stage(*args, CANDIDATE_LIMIT, False, [])
        return radices[0] if radices else 0

    monkeypatch.setattr(extensions, "_product_blocks", recording_blocks)
    monkeypatch.setattr(itertools, "product", recording_product)
    new, old = [], []
    for args in blocks_in:
        per_action = [(decoded(extensions._search_g_stage, one), decoded(_reference_g_stage, walk))
                      for one, walk in single_actions(args)]
        assert decoded(extensions._search_g_stage, args) == sum(n for n, _ in per_action)
        new += [n for n, _ in per_action]
        old += [o for _, o in per_action]
    assert sum(old) > 0
    if fewer:
        assert all(n <= o for n, o in zip(new, old, strict=True)) and sum(new) < sum(old)
    else:
        assert new == old


def test_g_stage_guard_counts_generator_pair_candidates(monkeypatch):
    # Over the zero ring on Z/2 a g slot takes both elements or none, so a
    # g stage over Z/2 x Z/2 generates 2^4 candidates on the generator
    # pairs where the slot walk decoded 2^9.  The 2^6 additive defects and
    # 4^3 actions fit under 100 too.
    es, q, psi = corpus_triple("flat_z2", klein(), [0, 1, 0, 1])
    want = search_record(exhaustive_extension_search(es, q, psi, stop_at_first=False))
    with pytest.raises(SearchGuardError,
                       match=r"^128 multiplicative defect candidates, over the guard 100$"):
        reference_search(es, q, psi, stop_at_first=False, guard=100)
    exts, stages = g_stage_calls(es, q, psi, monkeypatch, guard=100)
    assert search_record(exts) == want

    def no_tables(*args):
        raise AssertionError("a g table was built")

    monkeypatch.setattr(extensions, "crossed_tables", no_tables)
    args = next(args for args, found in stages if found)
    with pytest.raises(SearchGuardError,
                       match=r"^16 multiplicative defect candidates, over the guard 15$"):
        extensions._search_g_stage(*args, 15, False, [])


@pytest.mark.parametrize("stop", [True, False])
def test_g_guard_trips_at_the_first_action_with_candidates(stop, monkeypatch):
    # The options of a nonempty slot are one coset of the two-sided
    # annihilator of b, so every action with candidates has the same
    # count, |Ann(b)| per S x S slot.  Hence no block has an earlier
    # action that finds and a later one over the guard: below that count
    # the block's first action with candidates trips it before any g
    # table is built, with the walk's message, whether or not the search
    # stops at its first find; at the count, the block finds what the
    # walk, which counts every slot, finds running its actions in order.
    es, q, psi = corpus_triple("double_2z8", klein(), [0, 0, 1, 1])
    b = es.b
    ann = int(((b.mul == 0).all(axis=0) & (b.mul == 0).all(axis=1)).sum())
    stages = g_stage_calls(es, q, psi, monkeypatch)[1]
    options = [reference_slot_options(b, q, walk[5], walk[6])[1]
               for args, _ in stages for _, walk in single_actions(args)]
    assert {len(opts) for cands in options for opts in cands} == {0, ann}
    count = ann**4  # S = {1, 2}
    # A block with a find that also holds actions with an empty slot.
    args = next(args for args, found in stages if found)
    walks = [walk for _, walk in single_actions(args)]
    assert not all(all(reference_slot_options(b, q, *walk[5:7])[1]) for walk in walks)

    def no_tables(*args):
        raise AssertionError("a g table was built")

    with monkeypatch.context() as m:
        m.setattr(extensions, "crossed_tables", no_tables)
        m.setitem(globals(), "crossed_tables", no_tables)
        message = rf"^{count} multiplicative defect candidates, over the guard {count - 1}$"
        with pytest.raises(SearchGuardError, match=message):
            extensions._search_g_stage(*args, count - 1, stop, [])
        with pytest.raises(SearchGuardError, match=message):
            for walk in walks:
                _reference_g_stage(*walk, count - 1, stop, [])
    got, want = [], []
    extensions._search_g_stage(*args, count, stop, got)
    for walk in walks:
        if _reference_g_stage(*walk, CANDIDATE_LIMIT, stop, want) and stop:
            break
    assert search_record(got) == search_record(want) and want


# ---------------------------------------------------------------------------
# The action stage decodes pool rows on the additive generators of q and
# derives the other classes; the product filter over every class != 0
# below is the oracle for what it hands the g stage.


def reference_action_stage(b, q, f, pl, pr):
    """The (left, right) stacks of the actions additive up to f, a block
    at a time: every tuple of pool rows over the classes != 0, decoded in
    itertools.product order and kept if pairwise permutable and additive
    up to f."""
    nb, nq, qa = b.order, q.order, q.add
    around = _permutable(pl, pr).all(axis=2)
    perm_ok = around & around.T
    c3b = np.arange(nb)[None, None, :]
    fl3 = b.mul[f[:, :, None], c3b]
    fr3 = b.mul[c3b, f[:, :, None]]
    for choice in _product_blocks([len(pl)] * (nq - 1), nq * nq * nb):
        acts = np.zeros((len(choice), nq), dtype=np.int64)
        acts[:, 1:] = choice
        acts = acts[perm_ok[acts[:, :, None], acts[:, None, :]].all(axis=(1, 2))]
        left, right = pl[acts], pr[acts]
        ok = (
            b.add[left[:, :, None], left[:, None]] == b.add[fl3, left[:, qa]]
        ).all(axis=(1, 2, 3))
        ok &= (
            b.add[right[:, :, None], right[:, None]] == b.add[fr3, right[:, qa]]
        ).all(axis=(1, 2, 3))
        yield left[ok], right[ok]


def action_stage_output(es, q, psi, monkeypatch):
    """What the action stage hands the g stage in a search run to
    exhaustion, with each g stage stubbed out: the f of each call, in
    order, and the (f, left, right) of every action, in order."""
    fs, acts = [], []

    def record(base, grid, psi, f, left, right, *rest):
        if not fs or fs[-1] != f.tolist():
            fs.append(f.tolist())
        acts.extend((f.tolist(), lt.tolist(), rt.tolist()) for lt, rt in zip(left, right))
        return False

    with monkeypatch.context() as m:
        m.setattr(extensions, "_search_g_stage", record)
        exhaustive_extension_search(es, q, psi, stop_at_first=False)
    return fs, acts


def test_action_stage_matches_the_product_filter(monkeypatch):
    # Every classify triple but the three that trip the action guard:
    # the derived actions are the ones the filter over every class keeps,
    # in its order, f by f.
    tripped = []
    for label, psi, rc in classify_triples():
        es, q = rc.es, psi.source
        try:
            fs, got = action_stage_output(es, q, psi, monkeypatch)
        except SearchGuardError as e:
            tripped.append((label, str(e)))
            continue
        pl, pr = enumerate_bimultiplications(es.b)
        want = [
            (f, lt.tolist(), rt.tolist())
            for f in fs
            for left, right in reference_action_stage(es.b, q, np.array(f), pl, pr)
            for lt, rt in zip(left, right)
        ]
        assert got == want, label
    message = "16777216 action candidates, over the guard 1000000"
    assert tripped == [("flat_klein0|z4|0,1,0,1", message), ("flat_klein0|z2xz2|0,0,1,1", message),
                       ("flat_klein0|z2xz2|0,1,0,1", message)]


@pytest.mark.parametrize(
    "q, psi, gens",
    [(zmod(4), [0, 1, 0, 1], 1), (klein(), [0, 1, 0, 1], 2)],
    ids=["z4", "z2xz2"],
)
def test_action_stage_decodes_only_generator_candidates(q, psi, gens, monkeypatch):
    # flat_z2 has 4 bimultiplications.  Z/4 is spanned by 1 and Z/2 x Z/2
    # by 1 and 2, so per f the stage decodes 4 or 16 candidates where the
    # product filter over the 3 classes != 0 decodes 64.
    es, q, psi = corpus_triple("flat_z2", q, psi)
    npool = len(enumerate_bimultiplications(es.b)[0])
    radices = []
    blocks = extensions._product_blocks

    def recording_blocks(rad, width):
        radices.append(list(rad))
        return blocks(rad, width)

    monkeypatch.setattr(extensions, "_product_blocks", recording_blocks)
    fs = action_stage_output(es, q, psi, monkeypatch)[0]
    # The first product is the additive defect pool; one per f follows.
    assert radices[1:] == [[npool] * gens] * len(fs) and fs
    assert npool**gens < npool ** (q.order - 1)


# ---------------------------------------------------------------------------
# The f stage filters a block of additive defects only once the search has
# read the block before; the eager filter below, which filters every block
# before the first f is read, is the oracle for the defects and the finds.
# The search's per-ring tables are memoised.

SEARCH_MEMOS = (extensions._quotient_grid, extensions._bimult_pool, extensions._pool_tables)


def clear_search_memos():
    for memo in SEARCH_MEMOS:
        memo.cache_clear()


def eager_additive_defects(b, grid):
    """Every symmetric associative additive defect over grid.q, filtered
    block by block before any is returned."""
    q = grid.q
    nq, qa = q.order, q.add
    u3, v3, w3 = grid.u3, grid.v3, grid.w3
    free_f = [(u, v) for u in range(1, nq) for v in range(u, nq)]
    fu, fv = np.array(free_f, dtype=np.int64).reshape(-1, 2).T
    f_pool = []
    for vals in _product_blocks([b.order] * len(free_f), nq**3):
        fs = np.zeros((len(vals), nq, nq), dtype=np.int16)
        fs[:, fu, fv] = vals
        fs[:, fv, fu] = vals
        lhs = b.add[fs[:, v3, w3], fs[:, u3, qa[v3, w3]]]
        rhs = b.add[fs[:, u3, v3], fs[:, qa[u3, v3], w3]]
        f_pool.extend(fs[(lhs == rhs).all(axis=(1, 2, 3))])
    return f_pool


@pytest.mark.parametrize(
    "triple",
    [
        ("mult_2z8",),  # obstructed: the search reads every f
        ("double_2z8", klein(), [0, 1, 0, 1]),
        ("mult_2z8", klein(), [0, 2, 0, 2]),
    ],
    ids=["mult_2z8-own", "double_2z8-z2xz2", "mult_2z8-z2xz2"],
)
@pytest.mark.parametrize("stop", [True, False])
def test_the_f_stage_on_demand_matches_the_eager_pool(triple, stop, monkeypatch):
    es, q, psi = corpus_triple(*triple)
    grid = extensions._quotient_grid(q)
    lazy = [f.tolist() for f in extensions._additive_defects(es.b, grid)]
    assert lazy == [f.tolist() for f in eager_additive_defects(es.b, grid)]
    got = search_record(exhaustive_extension_search(es, q, psi, stop_at_first=stop))
    monkeypatch.setattr(extensions, "_additive_defects", eager_additive_defects)
    want = search_record(exhaustive_extension_search(es, q, psi, stop_at_first=stop))
    assert got == want
    assert bool(want) == (triple != ("mult_2z8",))


@pytest.mark.parametrize("stop, read", [(True, 1), (False, 4)])
def test_a_search_filters_f_blocks_only_as_it_reads_them(stop, read, monkeypatch):
    # double_2z8 has a base of order 4, so over Z/2 x Z/2 (6 free f slots)
    # the f product has 4^6 candidates, in 4 blocks of 1024.  Over this
    # psi the second f of the first block has a find.
    es, q, psi = corpus_triple("double_2z8", klein(), [0, 0, 1, 1])
    products = []
    blocks = extensions._product_blocks

    def recording_blocks(rad, width):
        products.append(sizes := [])
        for block in blocks(rad, width):
            sizes.append(len(block))
            yield block

    monkeypatch.setattr(extensions, "_product_blocks", recording_blocks)
    assert exhaustive_extension_search(es, q, psi, stop_at_first=stop)
    # The first product is the additive defect pool.
    assert len(list(blocks([es.b.order] * 6, q.order**3))) == 4
    assert products[0] == [1024] * read


def test_a_second_search_over_the_same_rings_builds_no_table(monkeypatch):
    es, q, psi = corpus_triple("double_2z8", klein(), [0, 1, 0, 1])
    clear_search_memos()
    calls = Counter()

    def counting(name):
        build = getattr(extensions, name)

        def run(*args):
            calls[name] += 1
            return build(*args)
        return run

    for name in ("enumerate_bimultiplications", "_permutable", "_row_lookup"):
        monkeypatch.setattr(extensions, name, counting(name))
    first = search_record(exhaustive_extension_search(es, q, psi, stop_at_first=False))
    built = Counter(enumerate_bimultiplications=1, _permutable=1, _row_lookup=1)
    assert calls == built and extensions._quotient_grid.cache_info().misses == 1
    assert search_record(exhaustive_extension_search(es, q, psi, stop_at_first=False)) == first
    assert calls == built and extensions._quotient_grid.cache_info().misses == 1


def test_the_search_reads_its_tables_from_bounded_read_only_memos():
    es, q, psi = corpus_triple("double_2z8", klein(), [0, 1, 0, 1])
    exhaustive_extension_search(es, q, psi)
    grid = extensions._quotient_grid(q)
    perm_ok, _ = extensions._pool_tables(es.b)
    tables = [*extensions._bimult_pool(es.b), perm_ok,
              grid.us, grid.vs, grid.gens, grid.free, grid.u3, grid.v3, grid.w3]
    for t in tables:
        with pytest.raises(ValueError, match="read-only"):
            t[(0,) * t.ndim] = 1
    assert isinstance(grid.sums, tuple)
    assert [memo.cache_info().maxsize for memo in SEARCH_MEMOS] == [16, 1, 1]
    # The public enumeration stays unmemoised: each call builds new tables.
    again = enumerate_bimultiplications(es.b)
    for t, memo in zip(again, extensions._bimult_pool(es.b), strict=True):
        assert t.flags.writeable and not np.shares_memory(t, memo)
        assert np.array_equal(t, memo)


# ---------------------------------------------------------------------------
# `equivalent` tests its corrections a block at a time; the walk below,
# one correction at a time, is the oracle for the map it returns.


def reference_equivalent(e1, e2, guard=CANDIDATE_LIMIT):
    """equivalent, testing one correction at a time."""
    if e1.base is not e2.base:
        raise ExtensionError("common-base", (e1.base.name, e2.base.name))
    b = e1.base.b
    q = e1.quotient
    if q is not e2.quotient and not extensions._tables_equal(q, e2.quotient):
        raise ExtensionError("quotient-presentation", (e2.quotient.name, q.name))
    nb, nq = b.order, q.order
    _guard(nb ** (nq - 1), "candidate corrections", guard)
    r1, r2 = e1.ring, e2.ring
    if r1.order != r2.order:
        return None
    t1 = [int(np.flatnonzero(e1.p.map == u)[0]) for u in range(nq)]
    t2 = [int(np.flatnonzero(e2.p.map == u)[0]) for u in range(nq)]
    jinv1 = {int(y): x for x, y in enumerate(e1.j.map)}
    u_of = np.asarray(e1.p.map, dtype=np.int64)
    b_of = np.array([jinv1[int(r1.add[x, r1.neg[t1[u_of[x]]]])] for x in range(r1.order)])
    j2m = np.asarray(e2.j.map, dtype=np.int64)
    for tail in itertools.product(range(nb), repeat=nq - 1):
        c = np.zeros(nq, dtype=np.int64)
        c[1:] = tail
        eta = r2.add[j2m[b.add[b_of, c[u_of]]], np.asarray(t2)[u_of]]
        if not np.array_equal(e2.eps.map[eta], e1.eps.map):
            continue
        if not np.array_equal(eta[r1.add], r2.add[eta[:, None], eta[None, :]]):
            continue
        if not np.array_equal(eta[r1.mul], r2.mul[eta[:, None], eta[None, :]]):
            continue
        return RingHom(r1, r2, eta)
    return None


def equivalence_record(hom):
    return None if hom is None else (hom.map.tolist(), hom.map.dtype.str)


def test_equivalent_matches_the_one_at_a_time_walk():
    # Over each classify triple: every ordered pair among the enumerated
    # classes (inequivalent but for each class with itself), each class
    # and its crossed-product rebuild, and each class and the search's
    # first three finds, both ways.  Their maps need nonzero corrections,
    # and there a correction that passes the eps and addition conditions
    # can fail the multiplication one.  Besides, flat_z2 over the dual
    # numbers, e -> 0: there c(e) = c(1 + e) = 1 gives each extension a
    # second self-equivalence, so an equivalent pair has two maps and the
    # first must be returned.
    triples = [(rc.es, psi.source, psi, rc) for _, psi, rc in classify_triples()]
    es = corpus_system("flat_z2")
    q = dual_numbers(2)
    (psi,) = unital_homs(q, es.cokernel.ring)
    triples.append((es, q, psi, reduce_esystem(es)))
    pairs = nonidentity = 0
    for es, q, psi, rc in triples:
        exts = enumerate_extensions(es, q, psi, rc=rc)
        try:
            found = exhaustive_extension_search(es, q, psi, stop_at_first=False)[:3]
        except SearchGuardError:  # the three flat_klein0 triples over order-4 quotients
            found = []
        rebuilt = []
        if q.order > 1:
            rebuilt = [crossed_product(factor_system_from_extension(e), es, psi, section=rc.section)
                       for e in exts]
        cases = [*itertools.product(exts, exts), *zip(exts, rebuilt),
                 *itertools.product(exts, found), *itertools.product(found, exts)]
        for e1, e2 in cases:
            got = equivalence_record(equivalent(e1, e2))
            assert got == equivalence_record(reference_equivalent(e1, e2))
            pairs += 1
            nonidentity += got is not None and got[0] != list(range(e1.ring.order))
    assert pairs > 100 and nonidentity > 0


@pytest.mark.parametrize("k", [3, 4])
def test_three_routes_agree_on_obstructed_instances(k):
    # The multiplier system of 2Z/2^k has a cokernel Q of order 4 with
    # unit 2 and 1*1 = 0, and two unital maps Q -> Q.  Over the identity
    # the obstruction does not vanish; over (0 0 2 2) it does.  The
    # obstruction, the enumeration and the brute-force search must agree
    # on both, so this cross-check can fail either way.  A search that
    # finds nothing has run to exhaustion.
    b, _ = subring(zmod(2**k), range(0, 2**k, 2))
    es = multiplier_esystem(b)
    q = es.cokernel.ring
    answers = {}
    for psi in unital_homs(q, q):
        cls = extension_obstruction(es, q, psi)
        exts = enumerate_extensions(es, q, psi, classification=cls)
        found = exhaustive_extension_search(es, q, psi)
        assert (len(exts) > 0) == cls.vanishes == (len(found) > 0)
        answers[tuple(psi.map.tolist())] = (cls.vanishes, len(exts), len(found))
    assert answers == {(0, 1, 2, 3): (False, 0, 0), (0, 0, 2, 2): (True, 4, 1)}


@pytest.mark.parametrize("name, finds", [("ideal_2z8", 4), ("ideal_3z9", 9)])
@pytest.mark.parametrize("stop", [True, False])
def test_search_target_lift_reads_the_defects_with_their_sign(name, finds, stop):
    # eps(b, u) = d(b) + X(u) is a ring map iff X(u) + X(v) = X(u + v)
    # + d f(u, v) and X(u) X(v) = X(uv) + d g(u, v).  Here d f and d g are
    # not 2-torsion, so reading the defects with the opposite sign accepts
    # an X that `validate_extension` then rejects.
    es, q, psi = corpus_triple(name)
    (listed,) = enumerate_extensions(es, q, psi)
    found = exhaustive_extension_search(es, q, psi, stop_at_first=stop)
    assert len(found) == (1 if stop else finds)
    assert all(equivalent(e, listed) is not None for e in found)


@pytest.mark.parametrize("name", ["id_z2", "id_z3", "id_z4", "id_klein", "mult_z2", "mult_z3"])
def test_zero_quotient_search_finds_the_base_itself(name):
    # The cokernel is the zero ring, so b x q is b: the one extension is b
    # with every map the obvious one, and enumeration returns the same.
    es, q, psi = corpus_triple(name)
    assert q.order == 1
    found = exhaustive_extension_search(es, q, psi, stop_at_first=False)
    listed = enumerate_extensions(es, q, psi)
    assert len(found) == len(listed) == 1
    for ext in (found[0], listed[0]):
        ring = ext.ring
        assert np.array_equal(ring.add, es.b.add) and np.array_equal(ring.mul, es.b.mul)
        assert ring.unit == es.b.unit
        assert ext.j.map.tolist() == list(range(es.b.order))
        assert ext.p.map.tolist() == [0] * es.b.order
        assert ext.eps.map.tolist() == es.d.map.tolist()


@pytest.mark.parametrize(
    "radices, width",
    [
        ([], 1),
        ([3], 1),
        ([2, 3, 4], 1),
        ([5, 0, 2], 1),
        ([4] * 6, 64),
        ([3, 3, 3], BLOCK_CELLS // 5),
        ([2] * 17, 1),
    ],
)
def test_product_blocks_follow_product_order(radices, width):
    blocks = list(_product_blocks(radices, width))
    assert all(b.shape[1] == len(radices) and len(b) <= max(1, BLOCK_CELLS // width)
               for b in blocks)
    got = [tuple(row) for b in blocks for row in b.tolist()]
    assert got == list(itertools.product(*(range(r) for r in radices)))


@pytest.mark.parametrize(
    "triple, calls",
    [
        (("flat_z2", zmod(4), [0, 1, 0, 1]), 5),
        (("flat_z2", klein(), [0, 1, 0, 1]), 5),
        (("mult_2z8",), 1),  # obstructed: only the bounding test runs
    ],
    ids=["flat_z2-z4", "flat_z2-z2xz2", "mult_2z8-own"],
)
def test_obstruction_factors_each_matrix_once(triple, calls, monkeypatch):
    # The bounding test and the kernel of d2 share one factorisation of
    # the augmented d2 block, and homology solves every boundary against
    # one factorisation of the cycles' embedding.  The memo of pulled
    # modules starts empty, so that a warm entry cannot hide a block.
    cohomology._pulled_memo.cache_clear()
    inputs = []
    snf = ablin.smith_normal_form

    def recording(a):
        m = np.asarray(a, dtype=np.int64)
        inputs.append((m.shape, m.tobytes()))
        return snf(a)

    es, q, psi = corpus_triple(*triple)
    rc = reduce_esystem(es)
    monkeypatch.setattr(ablin, "smith_normal_form", recording)
    out = extension_obstruction(es, q, psi, rc)
    assert out.vanishes == (calls > 1)
    assert len(inputs) == len(set(inputs)) == calls


def test_no_factorisation_outlives_classify_functors(monkeypatch):
    # No Smith normal form may be kept past the call, on the complex, its
    # maps or anywhere else: the bounded memo of pulled modules keeps the
    # d2 block's logs (`SmithLogs`), not its `SNFResult`.  It starts
    # empty, so that the call factors every block.  The collector is
    # off, so a factorisation kept in a reference cycle would show too.
    cohomology._pulled_memo.cache_clear()
    results = []
    snf = ablin.smith_normal_form

    def recording(a):
        res = snf(a)
        results.append(weakref.ref(res))
        return res

    es, q, psi = corpus_triple("flat_z2", zmod(4), [0, 1, 0, 1])
    rc = reduce_esystem(es)
    psi = _align_psi(psi, q, rc.ring)
    monkeypatch.setattr(ablin, "smith_normal_form", recording)
    enabled = gc.isenabled()
    gc.disable()
    try:
        out = classify_functors(psi, rc)
        assert out.vanishes and out.count == 2
        assert results and [r() for r in results] == [None] * len(results)
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# The factor-system validator against its one-stage form.


def one_stage_validate_factor_system(b, q, act_left, act_right, f, g):
    """`validate_factor_system` checking every condition in one pass, the
    action's with the defects', on every call."""
    if q.unit is None:
        raise FactorSystemError("quotient-unit", ())
    n, m = q.order, b.order
    al = np.asarray(act_left, dtype=np.int16)
    ar_ = np.asarray(act_right, dtype=np.int16)
    f = np.asarray(f, dtype=np.int16)
    g = np.asarray(g, dtype=np.int16)
    for tbl, shape, nm in (
        (al, (n, m), "act_left"),
        (ar_, (n, m), "act_right"),
        (f, (n, n), "f"),
        (g, (n, n), "g"),
    ):
        if tbl.shape != shape:
            raise FactorSystemError(f"{nm}-shape", tbl.shape)
        if tbl.size and (tbl.min() < 0 or tbl.max() >= m):
            raise FactorSystemError(f"{nm}-range", ())
    for tbl, nm in ((f, "f"), (g, "g")):
        edge = np.zeros((n, n), dtype=bool)
        edge[0, :] |= tbl[0, :] != 0
        edge[:, 0] |= tbl[:, 0] != 0
        if edge.any():
            raise FactorSystemError(f"{nm}-normalisation", _first_bad(~edge))

    laws = _bimult_laws(b, al, ar_)
    ok = np.stack([grid(*tables) for _, grid, *tables in laws], axis=1)
    if not ok.all():
        u, k, *cell = _first_bad(ok)
        raise FactorSystemError(f"action-{laws[k][0]}", (u, *cell))
    arm = np.arange(m)
    if al[0].any() or ar_[0].any():
        raise FactorSystemError("action-zero", (0,))
    if not ((al[q.unit] == arm).all() and (ar_[q.unit] == arm).all()):
        raise FactorSystemError("action-unit", (int(q.unit),))
    perm = _permutable(al, ar_)
    below = np.tri(n, k=-1, dtype=bool)[:, :, None, None]
    ok = np.stack([perm, perm.transpose(1, 0, 2)], axis=2) | below
    if not ok.all():
        u, v, side, a = _first_bad(ok)
        if side:
            u, v = v, u
        raise FactorSystemError(
            "permutability",
            (_flat(0, u, m), _flat(a, 0, m), _flat(0, v, m)),
            detail="crossed-product triple that fails to associate",
        )

    qa, qm = q.add, q.mul
    badd, bneg, bmul = b.add, b.neg, b.mul
    arq = np.arange(n)
    names = (
        "additive-cocycle",
        "additive-symmetry",
        "multiplicative-cocycle",
        "left-distributivity",
        "right-distributivity",
    )
    defects = reference_defect3(badd, bneg, al, ar_, qa, qm, f, g)
    conditions = list(zip(names, defects, strict=True))
    c3 = arm[None, None, :]
    f3 = f[:, :, None]
    g3 = g[:, :, None]
    conditions += [
        (
            "action-additive-left",
            _sum(badd, al[:, None, :], al[None, :, :], bneg[bmul[f3, c3]], bneg[al[qa]]),
        ),
        (
            "action-additive-right",
            _sum(badd, ar_[:, None, :], ar_[None, :, :], bneg[bmul[c3, f3]], bneg[ar_[qa]]),
        ),
        (
            "action-multiplicative-left",
            _sum(badd, al[arq[:, None, None], al[None, :, :]], bneg[bmul[g3, c3]], bneg[al[qm]]),
        ),
        (
            "action-multiplicative-right",
            _sum(badd, ar_[arq[None, :, None], ar_[arq[:, None, None], c3]], bneg[bmul[c3, g3]],
                 bneg[ar_[qm]]),
        ),
    ]
    for nm, diff in conditions:
        if diff.any():
            raise FactorSystemError(nm, _first_bad(diff == 0))
    return FactorSystem(b, q, al, ar_, f, g)


@functools.cache
def klein_census_factor_systems():
    """The factor systems of the Klein zero-ring census, as argument tuples:
    one per element of Ker d2 of each module of `klein_census_modules`,
    16 over Z/2, 256 over Z/4 and 3712 over the 40 actions of Z/2 x Z/2."""
    kl = zero_mult_klein()
    out = []
    for mod in klein_census_modules():
        cx = complex_for(mod)
        for enc in ablin.kernel(cx.d2_map).elements():
            c = cx.decode2(np.asarray(enc, dtype=np.int64))
            out.append((kl, mod.ring, mod.left, mod.right, c.f, c.g))
    return out


def outcome(validate, *args):
    """The tables a validator accepts, or the condition, witness and detail
    of its error."""
    try:
        fs = validate(*args)
    except FactorSystemError as e:
        return e.condition, e.witness, e.detail
    return [t.tolist() for t in (fs.act_left, fs.act_right, fs.f, fs.g)]


def test_klein_census_factor_systems_pass_both_validators():
    systems = klein_census_factor_systems()
    assert Counter(q.name for _, q, *_ in systems) == {"z2": 16, "z4": 256, "z2xz2": 3712}
    for args in systems:
        got = outcome(validate_factor_system, *args)
        assert isinstance(got, list)
        assert got == outcome(one_stage_validate_factor_system, *args)


def mutation_sources():
    """Valid factor systems to mutate, as argument tuples."""
    census = klein_census_factor_systems()
    flat = zero_mult(2), zmod(2), [[0, 0], [0, 1]], [[0, 0], [0, 1]]
    zero2 = np.zeros((2, 2), dtype=int)
    out = [
        census[1], census[16 + 7], census[16 + 256 + 5], census[-1],
        cocycle_case("f", []),
        # Z/4 over 2Z/4, and Z/2 x Z/2 over its ideal Z/2 x 0.
        (*flat, [[0, 0], [0, 1]], zero2),
        (zmod(2), zmod(2), [[0, 0], [0, 1]], [[0, 0], [0, 1]], zero2, zero2),
    ]
    # The upper-triangular matrices over Z/2 acting on the Klein group as
    # matrices on the left and through their first diagonal entry on the
    # right: a noncommutative quotient.
    i, x = np.arange(8)[:, None], np.arange(4)[None, :]
    a, bb, c = i >> 2, (i >> 1) & 1, i & 1
    left = 2 * ((a & (x >> 1)) ^ (bb & x & 1)) + (c & x & 1)
    zero8 = np.zeros((8, 8), dtype=int)
    out.append((zero_mult_klein(), upper_triangular_z2(), left, a * x, zero8, zero8))
    es = doubled_into_z4()
    psi = RingHom(zmod(2), reduce_esystem(es).ring, [0, 1])
    exts = [enumerate_extensions(es, zmod(2), psi)[0],
            *enumerate_extensions(*corpus_triple("ut2_first_row"))]
    for ext in exts:
        fs = factor_system_from_extension(ext)
        out.append((fs.b, fs.q, fs.act_left, fs.act_right, fs.f, fs.g))
    return out


def mutations(b, q, *tables):
    """Each table of a factor system changed in one place, labelled: one
    entry set to every other value, the out-of-range |b| included; one
    action row replaced by every additive endomap of b; the last row
    dropped."""
    names = ("act_left", "act_right", "f", "g")
    tables = [np.array(t, dtype=np.int64) for t in tables]
    endomaps = _additive_maps(b.add, b.add)
    for k, (nm, t) in enumerate(zip(names, tables, strict=True)):
        def swapped(new):
            return (b, q, *tables[:k], new, *tables[k + 1:])
        for cell in itertools.product(*map(range, t.shape)):
            for x in range(b.order + 1):
                if x != t[cell]:
                    new = t.copy()
                    new[cell] = x
                    yield f"{nm}{list(cell)}={x}", swapped(new)
        if k < 2:
            for u, row in itertools.product(range(len(t)), endomaps):
                if (row != t[u]).any():
                    new = t.copy()
                    new[u] = row
                    yield f"{nm}[{u}]={row.tolist()}", swapped(new)
        yield f"{nm} without its last row", swapped(t[:-1])


FACTOR_SYSTEM_CONDITIONS = {
    "quotient-unit",
    *(f"{nm}-{what}" for nm in ("act_left", "act_right", "f", "g") for what in ("shape", "range")),
    "f-normalisation", "g-normalisation",
    *(f"action-{nm}" for nm in ("left-map-additive", "right-map-additive", "left-product",
                                 "right-product", "mixed-product")),
    "action-zero", "action-unit", "permutability",
    "additive-cocycle", "additive-symmetry", "multiplicative-cocycle",
    "left-distributivity", "right-distributivity",
    *(f"action-{kind}-{side}" for kind in ("additive", "multiplicative")
      for side in ("left", "right")),
}


def test_factor_system_errors_match_the_one_stage_form():
    # Valid systems as given and changed in one place (`mutations`), then
    # the witness cases above.  A changed entry of an additive map on
    # three or more elements breaks additivity before the product laws or
    # permutability are read, and a changed entry of f breaks the additive
    # cocycle before its symmetry; whole-row replacements and the witness
    # cases reach those conditions.  Each case runs twice, the second time
    # with its action in the memo if the action passed.
    sources = mutation_sources()
    cases = [(f"{b.name}/{q.name} {label}", args)
             for b, q, *tables in sources
             for label, args in [("as given", (b, q, *tables)), *mutations(b, q, *tables)]]
    cases += [(f"cocycle {c}", cocycle_case(t, cells)) for t, cells, c, _ in COCYCLE_CASES]
    cases += [(f"action {c}", action_case(b, q, rows)) for b, q, rows, c, _ in ACTION_CASES]
    z2 = [[0, 0], [0, 1]]
    cases.append(("non-unital quotient", (zmod(2), zero_mult(2), z2, z2, z2, z2)))
    valid, reached = 0, set()
    for label, args in cases:
        want = outcome(one_stage_validate_factor_system, *args)
        assert outcome(validate_factor_system, *args) == want, label
        assert outcome(validate_factor_system, *args) == want, label
        if isinstance(want, tuple):
            reached.add(want[0])
        else:
            valid += 1
    assert reached == FACTOR_SYSTEM_CONDITIONS
    assert valid > len(sources)


def reference_validate_factor_system(b, q, act_left, act_right, f, g):
    """`validate_factor_system` as it was before each group of conditions
    got one reduction: every table and condition checked on its own, the
    degree-3 conditions through the five tables of `_defect3`, and the
    action stage read from the same memo."""
    if q.unit is None:
        raise FactorSystemError("quotient-unit", ())
    n, m = q.order, b.order
    al = np.asarray(act_left, dtype=np.int16)
    ar_ = np.asarray(act_right, dtype=np.int16)
    f = np.asarray(f, dtype=np.int16)
    g = np.asarray(g, dtype=np.int16)
    for tbl, shape, nm in (
        (al, (n, m), "act_left"),
        (ar_, (n, m), "act_right"),
        (f, (n, n), "f"),
        (g, (n, n), "g"),
    ):
        if tbl.shape != shape:
            raise FactorSystemError(f"{nm}-shape", tbl.shape)
        if tbl.size and (tbl.min() < 0 or tbl.max() >= m):
            raise FactorSystemError(f"{nm}-range", ())
    for tbl, nm in ((f, "f"), (g, "g")):
        edge = np.zeros((n, n), dtype=bool)
        edge[0, :] |= tbl[0, :] != 0
        edge[:, 0] |= tbl[:, 0] != 0
        if edge.any():
            raise FactorSystemError(f"{nm}-normalisation", _first_bad(~edge))
    pl, pr, ml, mr = _action_stage(b, q, al.tobytes(), ar_.tobytes())[0]

    names = (
        "additive-cocycle",
        "additive-symmetry",
        "multiplicative-cocycle",
        "left-distributivity",
        "right-distributivity",
    )
    for nm, diff in zip(names, _defect3(b.add, b.neg, al, ar_, q, f, g), strict=True):
        if diff.any():
            raise FactorSystemError(nm, _first_bad(diff == 0))
    for nm, half, inner in (
        ("action-additive-left", pl, b.mul[f]),
        ("action-additive-right", pr, b.mul.T[f]),
        ("action-multiplicative-left", ml, b.mul[g]),
        ("action-multiplicative-right", mr, b.mul.T[g]),
    ):
        ok = half == inner
        if not ok.all():
            raise FactorSystemError(nm, _first_bad(ok))
    return FactorSystem(b, q, al, ar_, f, g)


@functools.cache
def classify_factor_systems():
    """The factor systems of the extensions that enumeration builds over
    the classify triples, as argument tuples.  The zero-quotient triples
    give none: over the zero quotient no factor system exists
    (`test_zero_quotient_extensions_have_no_factor_system`)."""
    out = []
    for _, psi, rc in classify_triples():
        for ext in enumerate_extensions(rc.es, psi.source, psi, rc=rc):
            if psi.source.order > 1:
                fs = factor_system_from_extension(ext)
                out.append((fs.b, fs.q, fs.act_left, fs.act_right, fs.f, fs.g))
    return out


@pytest.mark.parametrize("name", ["id_z2", "id_z3", "id_z4", "id_klein", "mult_z2", "mult_z3"])
def test_zero_quotient_extensions_have_no_factor_system(name):
    # The one class over the zero quotient is the base ring itself.  The
    # default lift sends 0 to 0, so f and g pass their normalisation,
    # checked before the actions, and the factor system fails where 0 = 1
    # makes every one fail: the zero class, the quotient's unit, acts as
    # 0 on the nonzero base, not as the identity.
    es, q, psi = corpus_triple(name)
    rc = reduce_esystem(es)
    (ext,) = enumerate_extensions(rc.es, q, psi, rc=rc)
    assert q.order == 1 and ext.base.b.order > 1
    with pytest.raises(FactorSystemError) as e:
        factor_system_from_extension(ext)
    assert (e.value.condition, e.value.witness) == ("action-unit", (0,))


GROUPED_CONDITIONS = {
    *(f"{nm}-range" for nm in ("act_left", "act_right", "f", "g")),
    "f-normalisation", "g-normalisation",
    "additive-cocycle", "additive-symmetry", "multiplicative-cocycle",
    "left-distributivity", "right-distributivity",
    *(f"action-{kind}-{side}" for kind in ("additive", "multiplicative")
      for side in ("left", "right")),
}


def test_factor_system_errors_match_the_parent_checks():
    # Every 97th census system, the classify systems and the mutation
    # sources, as given and with eight seeded single-entry mutations per
    # table (any other value in [-1, |b|]).  No single entry of these reaches additive-symmetry
    # or action-multiplicative-right first, so the cocycle witness cases
    # and g[1, 1] = 1 over the upper-triangular first row join them.  Each
    # case runs twice, the second time with its action in the memo if the
    # action passed.
    rng = np.random.default_rng(29)
    sources = [*klein_census_factor_systems()[::97], *classify_factor_systems(),
               *mutation_sources()]
    cases = []
    for b, q, *tables in sources:
        tables = [np.array(t, dtype=np.int64) for t in tables]
        cases.append((b, q, *tables))
        for k, t in enumerate(tables):
            for _ in range(8):
                new = t.copy()
                cell = tuple(int(rng.integers(0, size)) for size in t.shape)
                new[cell] = (new[cell] + rng.integers(1, b.order + 2)) % (b.order + 2) - 1
                cases.append((b, q, *tables[:k], new, *tables[k + 1:]))
    cases += [cocycle_case(t, cells) for t, cells, _, _ in COCYCLE_CASES]
    for ext in enumerate_extensions(*corpus_triple("ut2_first_row")):
        fs = factor_system_from_extension(ext)
        g = fs.g.copy()
        g[1, 1] = 1
        cases.append((fs.b, fs.q, fs.act_left, fs.act_right, fs.f, g))
    reached = Counter()
    for args in cases:
        want = outcome(reference_validate_factor_system, *args)
        assert outcome(validate_factor_system, *args) == want
        assert outcome(validate_factor_system, *args) == want
        if isinstance(want, tuple):
            reached[want[0]] += 1
    assert GROUPED_CONDITIONS <= set(reached)
    assert len(cases) - sum(reached.values()) > len(sources)


def test_a_failing_action_is_checked_again_on_every_call():
    b, q, rows, condition, witness = ACTION_CASES[8]
    before = _action_stage.cache_info().currsize
    for _ in range(2):
        with pytest.raises(FactorSystemError) as e:
            validate_factor_system(*action_case(b, q, rows))
        assert (e.value.condition, e.value.witness) == (condition, witness)
    assert _action_stage.cache_info().currsize == before
    ident = (IDENT4, IDENT4)
    fs = validate_factor_system(*action_case(b, q, [(0, 0), (0, 0), ident, ident]))
    assert fs.b is b and fs.q is q


def test_rings_with_equal_tables_do_not_share_a_memo_entry():
    q, z2 = zmod(2), [[0, 0], [0, 1]]
    rings = [zero_mult(2), zero_mult(2)]
    args = [(b, q, z2, z2, z2, np.zeros((2, 2), dtype=int)) for b in rings]
    before = _action_stage.cache_info()
    fs = [validate_factor_system(*a) for a in args]
    mid = _action_stage.cache_info()
    assert (mid.misses - before.misses, mid.hits - before.hits) == (2, 0)
    assert [x.b for x in fs] == rings
    validate_factor_system(*args[1])
    after = _action_stage.cache_info()
    assert (after.misses - mid.misses, after.hits - mid.hits) == (0, 1)


def test_the_census_checks_each_action_once_within_the_memo_bound():
    systems = klein_census_factor_systems()
    _action_stage.cache_clear()
    for args in systems:
        validate_factor_system(*args)
    info = _action_stage.cache_info()
    # The census lists each action's cocycles together.
    assert (info.misses, info.hits) == (42, len(systems) - 42)
    assert info.currsize <= info.maxsize < 42


def test_enumerate_extensions_checks_its_action_once(monkeypatch):
    calls = []
    laws = extensions._bimult_laws

    def counting(*args):
        calls.append(args)
        return laws(*args)

    monkeypatch.setattr(extensions, "_bimult_laws", counting)
    validated = []
    validate = extensions.validate_factor_system
    monkeypatch.setattr(extensions, "validate_factor_system",
                        lambda *args: validated.append(args) or validate(*args))
    _action_stage.cache_clear()
    exts = enumerate_extensions(*flat_z2_over_z4())
    assert len(exts) == len(validated) == 2
    assert len(calls) == 1


def assert_crossed_ring_matches_validate_ring(fs):
    ring = crossed_ring(fs)
    add, mul = crossed_tables(fs.b, fs.q, fs.act_left, fs.act_right, fs.f, fs.g)
    unit = _flat(int(fs.b.neg[fs.g[fs.q.unit, fs.q.unit]]), int(fs.q.unit), fs.b.order)
    want = validate_ring(add, mul, unit)
    for got, ref in ((ring.add, want.add), (ring.mul, want.mul), (ring.neg, want.neg)):
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)
    assert type(ring.unit) is type(want.unit)
    assert ring.unit == want.unit


def test_crossed_ring_matches_validate_ring(monkeypatch):
    # The census, every factor system that enumeration builds over
    # corpus_triples(limit=16), and every system the one-stage comparison
    # above accepts; each must also pass validate_ring.
    for args in klein_census_factor_systems():
        assert_crossed_ring_matches_validate_ring(validate_factor_system(*args))

    built = []
    validate = extensions.validate_factor_system
    monkeypatch.setattr(extensions, "validate_factor_system",
                        lambda *args: built.append(validate(*args)) or built[-1])
    for triple in corpus_triples(limit=16):
        enumerate_extensions(*triple)
    monkeypatch.undo()
    assert len(built) > 0
    for fs in built:
        assert_crossed_ring_matches_validate_ring(fs)

    sources = mutation_sources()
    cases = [args for b, q, *tables in sources
             for args in [(b, q, *tables), *(a for _, a in mutations(b, q, *tables))]]
    cases += [cocycle_case(t, cells) for t, cells, _, _ in COCYCLE_CASES]
    cases += [action_case(b, q, rows) for b, q, rows, _, _ in ACTION_CASES]
    valid = 0
    for args in cases:
        try:
            fs = validate_factor_system(*args)
        except FactorSystemError:
            continue
        assert_crossed_ring_matches_validate_ring(fs)
        valid += 1
    assert valid > len(sources)


def test_crossed_rings_are_built_without_validate_ring(monkeypatch):
    def refuse(*args, **kwargs):
        pytest.fail("validate_ring called on the tables of a proved factor system")

    monkeypatch.setattr(extensions, "validate_ring", refuse)
    for args in klein_census_factor_systems()[::97]:
        assert crossed_ring(validate_factor_system(*args)).order == 4 * args[1].order
    assert len(enumerate_extensions(*flat_z2_over_z4())) == 2


def test_crossed_rings_gather_from_a_read_only_grid_memo():
    # crossed_tables reads the (b, q) grids from `_carrier_grid`, built
    # once per pair; they cannot be written, and no ring built from them
    # shares their memory.
    systems = klein_census_factor_systems()
    extensions._carrier_grid.cache_clear()
    rings_built = [crossed_ring(validate_factor_system(*args)) for args in systems[16:16 + 256:51]]
    info = extensions._carrier_grid.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (1, len(rings_built) - 1, 32)
    grid = extensions._carrier_grid(systems[16][0], systems[16][1])
    for name, t in vars(grid).items():
        with pytest.raises(ValueError, match="read-only"):
            t[(0,) * t.ndim] = 1
        for ring in rings_built:
            for table in (ring.add, ring.mul, ring.neg):
                assert not np.shares_memory(table, t), name


def test_crossed_rings_are_read_only():
    # A crossed product skips `validate_ring`, which makes its own copies
    # read-only; its new tables are made read-only in place.
    for args in klein_census_factor_systems()[::97]:
        ring = crossed_ring(validate_factor_system(*args))
        for table in (ring.add, ring.mul):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 1


def test_enumerated_extensions_induce_valid_action_systems():
    # validate_extension builds the action system induced on (B, E)
    # without validate_esystem; over the classify triples every one of
    # them must still pass it.
    count = 0
    for _, psi, rc in classify_triples():
        for ext in enumerate_extensions(rc.es, psi.source, psi, rc=rc):
            validate_esystem(rc.es.b, ext.ring, ext.j.map, *_ideal_actions(ext.ring, ext.j.map))
            count += 1
    assert count == 93


def test_the_search_validates_each_find(monkeypatch):
    # The search derives its rings from the ring axioms alone, so each
    # find keeps its own validate_ring.
    rings = []
    validate = extensions.validate_ring
    monkeypatch.setattr(extensions, "validate_ring",
                        lambda *args, **kwargs: rings.append(validate(*args, **kwargs)) or rings[-1])
    finds = exhaustive_extension_search(*flat_z2_over_z4(), stop_at_first=False)
    assert len(finds) > 1
    assert [ext.ring for ext in finds] == rings


def broken_ideal_action(m):
    # The lift of the quotient's unit seen outside the embedded base.
    def actions(ring, emb):
        left, right = ideal_actions(ring, emb)
        left = left.copy()
        left[1, 1] = -1
        return left, right

    ext = z4_extension(flat_z2())
    ideal_actions = extensions._ideal_actions
    m.setattr(extensions, "_ideal_actions", actions)
    return (functools.partial(factor_system_from_extension, ext),
            "left action leaves the embedded base")


def missing_d_preimage(m):
    # No defect value of the lift has a d-preimage.
    m.setattr(extensions, "_preimages", lambda *args: np.full(args[1], -1))
    return (functools.partial(enumerate_extensions, *flat_z2_over_z4()),
            "a defect of the lift has no d-preimage")


def collapsing_classes(m):
    m.setattr(extensions, "equivalent", lambda e1, e2: True)
    return (functools.partial(enumerate_extensions, *flat_z2_over_z4()),
            "classes 0 and 1 collapse")


def broken_unit(m):
    # The unit's row of the crossed tables corrupted.
    def tables(*args):
        add, mul = crossed_tables(*args)
        mul[2, 1] = 0
        return add, mul

    z2, zero2 = [[0, 0], [0, 1]], np.zeros((2, 2), dtype=int)
    fs = validate_factor_system(zmod(2), zmod(2), z2, z2, zero2, zero2)
    m.setattr(extensions, "crossed_tables", tables)
    return (functools.partial(crossed_ring, fs),
            "(-g(1, 1), 1) = 2 is not the unit of the crossed product")


def broken_unit_column(m):
    # The unit's column alone corrupted: its row is still the identity.
    def tables(*args):
        add, mul = crossed_tables(*args)
        mul[1, 2] = 0
        return add, mul

    z2, zero2 = [[0, 0], [0, 1]], np.zeros((2, 2), dtype=int)
    fs = validate_factor_system(zmod(2), zmod(2), z2, z2, zero2, zero2)
    mul = tables(fs.b, fs.q, fs.act_left, fs.act_right, fs.f, fs.g)[1]
    assert (mul[2] == np.arange(4)).all() and mul[1, 2] != 1
    m.setattr(extensions, "crossed_tables", tables)
    return (functools.partial(crossed_ring, fs),
            "(-g(1, 1), 1) = 2 is not the unit of the crossed product")


@pytest.mark.parametrize("check", [broken_ideal_action, missing_d_preimage, collapsing_classes,
                                   broken_unit, broken_unit_column],
                         ids=lambda f: f.__name__)
def test_broken_checks_raise_without_assert(check, monkeypatch):
    # Each internal check raises AssertionError itself, so `python -O`
    # keeps it.
    call, message = check(monkeypatch)
    with pytest.raises(AssertionError) as e:
        call()
    assert str(e.value) == message
