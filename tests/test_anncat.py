"""The 2-ring view, its axiom checker, and functors with constraint
constants."""

import collections
import copy
import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcat import anncat, crossed
from ringcat.anncat import (
    AnnCategory,
    anncat_axiom_check,
    anncat_to_esystem,
    functor_from_morphism,
    homotopy_between,
    morphism_from_functor,
    validate_ann_functor,
)
from ringcat.corpus import corpus
from ringcat.crossed import (
    ESystem,
    ideal_esystem,
    identity_esystem,
    multiplier_esystem,
    validate_esystem,
    is_regular,
    validate_morphism,
)
from ringcat.bimult import (
    _additive,
    _additive_in_source,
    _equivariant,
    _left_multiplicative,
    _left_product,
    _mixed_product,
    _permutable,
    _right_multiplicative,
    _right_product,
    _through,
)
from ringcat.rings import _sum_generators, validate_ring, zero_mult, zero_mult_klein, zmod

LAWS = [
    "add-commutative",
    "add-associative",
    "add-inverse",
    "compose-identity",
    "compose-associative",
    "add-interchange",
    "tensor-unit",
    "tensor-cod",
    "tensor-interchange",
    "tensor-associative",
    "tensor-distributive-left",
    "tensor-distributive-right",
]


def doubled_into_z4():
    i = np.arange(4)
    b = validate_ring((i[:, None] + i[None, :]) % 4, (2 * i[:, None] * i[None, :]) % 4, name="2z8")
    scal = (i[:, None] * i[None, :]) % 4
    return validate_esystem(b, zmod(4), (2 * i) % 4, scal, scal, name="d2b")


def zero_action_es():
    b = zero_mult(2)
    tl = np.zeros((2, 2), dtype=np.int16)
    return validate_esystem(b, zmod(2), [0, 0], tl, tl, name="zero_act")


def identity_action_es():
    b = zero_mult(2)
    tl = np.array([[0, 0], [0, 1]], dtype=np.int16)
    return validate_esystem(b, zmod(2), [0, 0], tl, tl, name="id_act")


@pytest.mark.parametrize(
    "make",
    [
        doubled_into_z4,
        lambda: ideal_esystem(zmod(4), [0, 2]),
        lambda: identity_esystem(zmod(4)),
        lambda: multiplier_esystem(zero_mult(2)),
        identity_action_es,
    ],
)
def test_checker_passes_on_regular_systems(make):
    report = anncat_axiom_check(make())
    assert report.ok and report.complete
    assert [r.law for r in report.results] == LAWS


def test_checker_fails_on_klein_multiplier():
    es = multiplier_esystem(zero_mult_klein())
    report = anncat_axiom_check(es, stop_at_first=True)
    assert not report.ok and not report.complete
    bad = report.failures()
    assert [r.law for r in bad] == ["tensor-associative"]
    x1, b1, b2, b3, x2, x3 = bad[0].witness
    ac = AnnCategory(es)
    f1, f2, f3 = (b1, x1), (b2, x2), (b3, x3)
    assert ac.tensor(ac.tensor(f1, f2), f3) != ac.tensor(f1, ac.tensor(f2, f3))


def test_zero_action_checker_also_fails_tensor_unit():
    report = anncat_axiom_check(zero_action_es())
    assert not report.ok
    assert "tensor-unit" in [r.law for r in report.failures()]


def test_checker_detects_theta_corruption():
    base = doubled_into_z4()
    for (x, c), table in [((1, 1), "left"), ((3, 2), "left"), ((2, 3), "right")]:
        tl = base.theta_left.copy()
        tr = base.theta_right.copy()
        t = tl if table == "left" else tr
        t[x, c] = (t[x, c] + 1) % base.b.order
        bad = ESystem(base.name, base.b, base.d_ring, base.d, tl, tr)
        assert not anncat_axiom_check(bad).ok


def test_checker_mutation_sweep_identity_action():
    base = identity_action_es()
    for table in ("left", "right"):
        for x in range(2):
            for c in range(2):
                tl = base.theta_left.copy()
                tr = base.theta_right.copy()
                t = tl if table == "left" else tr
                t[x, c] = 1 - t[x, c]
                bad = ESystem(base.name, base.b, base.d_ring, base.d, tl, tr)
                assert not anncat_axiom_check(bad).ok, (table, x, c)


def test_round_trip_through_category():
    for es in (doubled_into_z4(), ideal_esystem(zmod(4), [0, 2]), multiplier_esystem(zero_mult(2))):
        back = anncat_to_esystem(AnnCategory(es))
        assert (back.theta_left == es.theta_left).all()
        assert (back.theta_right == es.theta_right).all()
        assert (back.d.map == es.d.map).all()
        assert (back.b.mul == es.b.mul).all()


def test_category_operations():
    es = identity_esystem(zmod(4))
    ac = AnnCategory(es)
    # structure map is the identity, so each hom set is a singleton
    for x in range(4):
        for y in range(4):
            assert len(ac.hom(x, y)) == 1
    f = (1, 0)  # 0 -> 1
    g = (2, 1)  # 1 -> 3
    assert ac.compose(g, f) == (3, 0)
    with pytest.raises(ValueError, match="not composable"):
        ac.compose(f, g)
    assert ac.add(f, g) == (3, 1)
    assert ac.tensor(f, g) == (ac.tensor(f, g)[0], 0)
    assert ac.target(ac.neg(f)) == es.d_ring.neg[ac.target(f)]


def test_functor_constants_on_zero_action_target():
    es = zero_action_es()
    ident = np.arange(2)
    f = validate_ann_functor(es, es, ident, ident, 1, 1)
    m = validate_morphism(es, es, ident, ident)
    g = functor_from_morphism(m)
    assert g.add_defect == 0 and g.mul_defect == 0
    assert functor_from_morphism(m, 1, 1).add_defect == 1
    assert morphism_from_functor(f).f1.map.tolist() == [0, 1]
    assert morphism_from_functor(g) is m
    assert homotopy_between(f, g) == 1
    assert homotopy_between(g, f) == 1
    assert homotopy_between(f, f) == 0
    # mismatched constants violate coherence
    with pytest.raises(ValueError, match="distributivity"):
        validate_ann_functor(es, es, ident, ident, 1, 0)


def test_functor_constants_rigid_for_regular_target():
    es = identity_action_es()
    ident = np.arange(2)
    with pytest.raises(ValueError, match="coherence"):
        validate_ann_functor(es, es, ident, ident, 1, 1)
    ok = validate_ann_functor(es, es, ident, ident, 0, 0)
    assert ok.add_defect == 0


def test_homotopy_requires_same_form():
    src = identity_esystem(zmod(4))
    tgt = identity_esystem(zmod(2))
    mod2 = np.arange(4) % 2
    f = functor_from_morphism(validate_morphism(src, tgt, mod2, mod2))
    g = functor_from_morphism(validate_morphism(src, src, np.arange(4), np.arange(4)))
    assert homotopy_between(f, g) is None
    h = functor_from_morphism(validate_morphism(src, tgt, mod2, mod2))
    assert homotopy_between(f, h) == 0


# ---------------------------------------------------------------------------
# Factored law checking: chunks proved from lower-arity identities are not
# scanned, the others are scanned one b1 row at a time, associativity of
# addition is proved by Light's test, add-interchange is proved from the
# additive laws, and the report must equal the full scan's.

CHUNKED = LAWS[-4:]


@functools.cache
def small_sources():
    """Corpus systems with |D| <= 8 and the multiplier system of
    zero_mult(4), small enough to scan every chunk."""
    small = [es for es in corpus() if es.d_ring.order <= 8]
    return small + [multiplier_esystem(zero_mult(4))]


def first_false(ok):
    """Index of the first False cell of `ok` in C order, or None."""
    return None if ok.all() else tuple(int(x) for x in np.unravel_index(np.argmin(ok), ok.shape))


def whole_grid_assoc(t, gens):
    """First (i, j, k) with (i + j) + k != i + (j + k), from one |t|^3 grid."""
    ar = np.arange(len(t))
    return first_false(t[t[:, :, None], ar] == t[ar[:, None, None], t])


def whole_chunks(law, todo, shape):
    """Every chunk evaluated whole, from x1 = 0, whatever `todo` says."""
    for x1 in range(len(todo)):
        bad = first_false(law(x1, *np.ix_(*(np.arange(n) for n in shape))))
        if bad is not None:
            return (x1, *bad)
    return None


def nothing_holds():
    """The registry `anncat._CONDITIONS` with every condition failing."""
    return {name: lambda p: np.zeros(len(p.ad), dtype=bool) for name in anncat._CONDITIONS}


def full_scan(es, stop_at_first=False):
    with mock.patch.object(anncat, "_CONDITIONS", nothing_holds()), \
            mock.patch.object(anncat, "_assoc_failure", whole_grid_assoc), \
            mock.patch.object(anncat, "_scan", whole_chunks):
        return anncat_axiom_check(es, stop_at_first=stop_at_first)


def with_entry(es, table, cell, value):
    """A shallow copy of es with one entry of a table such as "theta_left",
    "b.mul" or "d.map" replaced, bypassing validation."""
    es = holder = copy.copy(es)
    *owner, attr = table.split(".")
    if owner:
        holder = copy.copy(getattr(es, owner[0]))
        setattr(es, owner[0], holder)
    t = getattr(holder, attr).copy()
    t[cell] = value
    setattr(holder, attr, t)
    return es


@st.composite
def mutated_systems(draw):
    es = small_sources()[draw(st.integers(0, len(small_sources()) - 1))]
    nb, nd = es.b.order, es.d_ring.order
    shapes = {
        "theta_left": ((nd, nb), nb),
        "theta_right": ((nd, nb), nb),
        "b.add": ((nb, nb), nb),
        "b.mul": ((nb, nb), nb),
        "d_ring.add": ((nd, nd), nd),
        "d_ring.mul": ((nd, nd), nd),
        "d.map": ((nb,), nd),
    }
    for _ in range(draw(st.integers(1, 2))):
        table = draw(st.sampled_from(sorted(shapes)))
        shape, n = shapes[table]
        cell = tuple(draw(st.integers(0, k - 1)) for k in shape)
        es = with_entry(es, table, cell, draw(st.integers(0, n - 1)))
    return es


@settings(max_examples=300, deadline=None)
@given(es=mutated_systems(), stop_at_first=st.booleans())
def test_factored_check_matches_full_scan(es, stop_at_first):
    fast = anncat_axiom_check(es, stop_at_first=stop_at_first)
    full = full_scan(es, stop_at_first)
    assert fast.results == full.results
    assert fast.complete == full.complete


def add_interchange_grid(es):
    """(a + b) + (c + d) == (a + c) + (b + d) on B's addition, one nb^4 grid."""
    t = es.b.add
    return t[t[:, :, None, None], t[None, None, :, :]] == t[t[:, None, :, None], t[None, :, None, :]]


@settings(max_examples=200, deadline=None)
@given(es=mutated_systems())
def test_add_interchange_matches_its_grid(es):
    (row,) = [r for r in anncat_axiom_check(es).results if r.law == "add-interchange"]
    ok = add_interchange_grid(es)
    assert (row.ok, row.witness, row.checked) == (ok.all(), first_false(ok), ok.size)


def prover(es):
    return anncat._Prover(es, _sum_generators(es.d_ring.add))


def distributive_rows(es):
    """Masks over x: y -> xy, then y -> yx, is additive, with y on D's sum
    generators; the form D's distributivity had before it was two
    conditions of `anncat._CONDITIONS`, kept as their reference."""
    d, gens = es.d_ring, _sum_generators(es.d_ring.add)
    da = d.add
    return tuple((t[:, da[gens]] == da[t[:, gens, None], t[:, None, :]]).reshape(len(t), -1).all(axis=1)
                 for t in (d.mul, d.mul.T))


def proved_chunks(es):
    """The per-law masks of `anncat._Prover`, one for each chunked law."""
    p = prover(es)
    return {law: p.chunks(law) for law in CHUNKED}


def test_identities_prove_every_chunk_of_regular_systems():
    for es in small_sources():
        if is_regular(es):
            proved = proved_chunks(es)
            assert sorted(proved) == sorted(CHUNKED)
            for mask in proved.values():
                assert mask.shape == (es.d_ring.order,) and mask.all()


def test_permutability_leaves_klein_multiplier_unproved_from_16():
    # tensor-associative is unproved exactly where theta(x1) fails to
    # permute with some action: 224 chunks, the first x1 = 16.
    es = multiplier_esystem(zero_mult_klein())
    tl, tr, ad = es.theta_left, es.theta_right, np.arange(256)
    permutes = tr[ad[None, :, None], tl[:, None, :]] == tl[ad[:, None, None], tr[None, :, :]]
    not_permuting = np.flatnonzero(~permutes.reshape(256, -1).all(axis=1))
    proved = proved_chunks(es)
    assert sorted(proved) == sorted(CHUNKED)
    unproved = np.flatnonzero(~proved["tensor-associative"])
    assert unproved.tolist() == not_permuting.tolist()
    assert unproved[0] == 16 and len(unproved) == 224
    for law in CHUNKED:
        if law != "tensor-associative":
            assert proved[law].all(), law


# A product on Z/2 x Z/2, elements as bits, x * y = x AND c(y) with
# c = (0, 1, 2, 2): right distributive and associative on S x S x D for
# D's sum generators S = {0, 1, 2}, but x(y + z) = xy + xz fails at x = 1
# and 3, and (1 * 3) * 1 = 0 differs from 1 * (3 * 1) = 1.
MASKED_KLEIN_PRODUCT = np.arange(4)[:, None] & np.array([0, 1, 2, 2])


@pytest.mark.parametrize("source, table, cell, value, stop_at_first", [
    # D is not right distributive at 0, so tensor-associative is unproved
    # everywhere; without that condition only chunks 2, 6, 10 and 14 would
    # be scanned, past the first failure, in chunk 1.
    ("mult_z4_zero", "d_ring.mul", (2, 0), 4, True),
    # lam_d(b)+x = lam_d(b) + lam_x fails at x = 1 and 3, lam_3 alone is
    # not additive: tensor-interchange first fails in chunk 1.
    ("double_2z8", "theta_left", (3, 1), 1, True),
    # Of tensor-interchange's conditions only the right half of Peiffer
    # fails, and the law fails; earlier laws fail too.
    ("id_z2", "theta_right", (1, 1), 0, False),
    # lam_2 becomes the identity, so lam is not additive in x, and
    # lam_2y = lam_2 lam_y holds for y in S = {0, 1} but not at y = 2:
    # tensor-associative first fails in chunk 2.  Likewise rho, in chunk 0.
    ("flat_z2_in_z4", "theta_left", (2, 1), 1, True),
    ("flat_z2_in_z4", "theta_right", (2, 1), 1, True),
    # lam_1 is no longer additive in b; tensor-associative fails in chunk 1.
    ("flat_klein0", "theta_left", (1, 1), 0, False),
    # D is not right distributive at 0, and x = 2 is not left distributive
    # while 0 and 1 are: only the first keeps D's left distributivity,
    # tested on S x S x D, from proving tensor-distributive-left, which
    # therefore names D's right distributivity.
    ("id_z3", "d_ring.mul", (2, 0), 1, False),
    # Tensor-associative fails in chunk 1, where among its conditions only
    # D's left distributivity at 1 fails.
    ("ideal_in_klein", "d_ring.mul", ..., MASKED_KLEIN_PRODUCT, False),
], ids=["d-distributive-right", "action-left-additive-at-d", "inner-action-right",
        "action-left-additive-in-source", "action-right-additive-in-source", "action-left-additive",
        "d-distributive-right-before-the-generator-test", "d-distributive-left"])
def test_reports_match_the_full_scan_where_one_condition_decides(source, table, cell, value, stop_at_first):
    es = with_entry({es.name: es for es in small_sources()}[source], table, cell, value)
    report = anncat_axiom_check(es, stop_at_first=stop_at_first)
    assert report.results == full_scan(es, stop_at_first).results


def test_theta_left_mutation_leaves_one_interchange_chunk_unproved():
    # d is zero on the multiplier system of zero_mult(6), so chunk x1 needs
    # theta_left additive in x only at the pair (0, x1).  A changed entry
    # of theta_left[5] breaks that pair, and lam_5's additivity in b, for
    # x1 = 5 alone.
    es = with_entry(multiplier_esystem(zero_mult(6)), "theta_left", (5, 1), 3)
    proved = proved_chunks(es)
    assert np.flatnonzero(~proved["tensor-interchange"]).tolist() == [5]
    report = anncat_axiom_check(es, stop_at_first=True)
    assert report.failures()[0].law == "tensor-interchange"
    assert report.failures()[0].witness[0] == 5
    assert report.failures()[0].checked == 6 * 6**4 * 36
    assert report.results == full_scan(es, stop_at_first=True).results


def eager_proved_chunks(es):
    """The masks of tensor-cod and the chunked laws with every identity
    evaluated up front, one expression per law: the form the proofs had
    before each law was proved only when the check reaches it, and
    before the proofs shared one table of named conditions, kept as a
    reference for the masks of `anncat._Prover`.  Its identities are
    evaluated on every element, except D's, as `distributive_rows`
    does.  For the identities `anncat._CONDITIONS` evaluates on D's
    generators, tensor-associative also needs lam and rho additive in x,
    and tensor-distributive-left needs D right distributive."""
    tl, tr, dm = es.theta_left, es.theta_right, es.d.map
    ba, bm, da, dmul = es.b.add, es.b.mul, es.d_ring.add, es.d_ring.mul
    ad = np.arange(es.d_ring.order)
    d_left, d_right = distributive_rows(es)

    def per_x(ok):
        return ok.reshape(len(ok), -1).all(axis=1)

    b_left = _additive(ba, bm).all()
    b_right = _additive_in_source(ba, ba, bm).all()
    b_assoc = _left_multiplicative(bm, bm).all()
    lam_add_x = _additive_in_source(ba, da, tl).all()
    rho_add_x = _additive_in_source(ba, da, tr).all()
    peiffer = _through(tl, dm, bm).all() and _through(tr, dm, bm.T).all()
    rho_mul = _right_multiplicative(dmul, tr).all()
    rho_inner = _right_product(bm, tr).all()
    mixed = _mixed_product(bm, tl, tr).all()
    lam_add_b = per_x(_additive(ba, tl))
    rho_add_b = per_x(_additive(ba, tr))
    lam_mul = per_x(_left_multiplicative(dmul, tl))
    lam_inner = per_x(_left_product(bm, tl))
    permutable = per_x(_permutable(tl, tr))
    lam_add_dx = per_x(tl[da[dm[None, :], ad[:, None]]] == ba[tl[dm][None, :, :], tl[:, None, :]])
    gens = _sum_generators(da)
    d_assoc = d_left & per_x(dmul[dmul[:, gens, None], ad] == dmul[:, dmul[gens]])
    d_ok = ((dm[ba] == da[dm[:, None], dm]).all() and (dm[bm] == dmul[dm[:, None], dm]).all()
            and _equivariant(dmul, tl, dm).all() and _equivariant(dmul.T, tr, dm).all())
    return {
        "tensor-cod": np.full(len(ad), d_ok and d_left.all() and d_right.all()),
        "tensor-interchange": (b_left and b_right and rho_add_x and rho_add_b.all() and peiffer)
        & lam_add_b & lam_add_dx,
        "tensor-associative": (
            b_left and b_right and b_assoc and rho_add_b.all() and rho_mul and rho_inner and mixed
            and d_right.all() and lam_add_x and rho_add_x
        ) & lam_add_b & lam_mul & lam_inner & permutable & d_assoc,
        "tensor-distributive-left": (b_left and rho_add_x and d_right.all()) & lam_add_b & d_left,
        "tensor-distributive-right": (b_right and lam_add_x) & rho_add_b & d_right,
    }


def assert_masks_match_the_eager_proof(es):
    eager, p = eager_proved_chunks(es), prover(es)
    for law in ["tensor-cod", *CHUNKED]:
        mask = p.chunks(law)
        assert mask.dtype == bool and mask.tolist() == eager[law].tolist(), law


def additions_commute_and_associate(es):
    """The premise every proof of `anncat._PROOFS` takes from the laws
    add-commutative and add-associative; the checker reads no mask
    without it."""
    return all((t == t.T).all() and whole_grid_assoc(t, None) is None
               for t in (es.b.add, es.d_ring.add))


def assert_checker_reads_no_condition(es):
    """Without the premise the checker evaluates no condition of
    `anncat._CONDITIONS` and reports as the full scan does."""
    grids = collections.defaultdict(list)
    for stop_at_first in (False, True):
        with mock.patch.object(anncat, "_CONDITIONS", recorded_conditions(grids)):
            report = anncat_axiom_check(es, stop_at_first=stop_at_first)
        full = full_scan(es, stop_at_first)
        assert (report.results, report.complete) == (full.results, full.complete)
    assert not grids


@settings(max_examples=300, deadline=None)
@given(es=mutated_systems())
def test_per_law_masks_match_the_eager_proof_on_mutations(es):
    # Without the premise, a condition evaluated on D's generators need not
    # match its full grid (id_z3 with D's 0 + 2 = 0 has lam additive in x on
    # S but not everywhere), and the checker reads none of them.
    if additions_commute_and_associate(es):
        assert_masks_match_the_eager_proof(es)
    else:
        assert_checker_reads_no_condition(es)


def test_per_law_masks_match_the_eager_proof():
    # Every small source, the multiplier systems of zero_mult(4/6/8) and
    # mult_klein0, whose tensor-associative mask is first False at x1 = 16, and
    # systems that each break one identity where the others of its law
    # hold: on the left one-sided near-ring, x1 = 1 and 3 fail only
    # x1(y + z) = x1y + x1z among tensor-associative's identities; the
    # mutated id_z2 breaks only the right half of Peiffer among
    # tensor-interchange's global identities; on the mutated double_2z8,
    # lam_3 is additive in b but lam_d(b)+3 = lam_d(b) + lam_3 fails.
    multipliers = [multiplier_esystem(r) for r in (zero_mult(4), zero_mult(6), zero_mult(8), zero_mult_klein())]
    named = {es.name: es for es in corpus()}
    one_identity_broken = [
        *(one_sided_distributive(side) for side in ("left", "right")),
        with_entry(named["id_z2"], "theta_right", (1, 1), 0),
        with_entry(named["double_2z8"], "theta_left", (1, 0), 1),
    ]
    for es in small_sources() + multipliers + one_identity_broken:
        assert_masks_match_the_eager_proof(es)


# The conditions `anncat._CONDITIONS` evaluates with one element of D on
# D's sum generators, with the conditions, whole-law and per x1, under
# which the derivations in the `anncat._PROOFS` docstring make each exact.
GENERATOR_FORMS = {
    "action-left-additive-in-source": ((), ()),
    "action-right-additive-in-source": ((), ()),
    "action-right-multiplicative": (
        ("d-distributive-right", "action-right-additive-in-source", "action-right-additive"), ()),
    "action-left-multiplicative": (
        ("action-left-additive-in-source",), ("d-distributive-left", "action-left-additive")),
    "permutability": (("action-right-additive-in-source",), ("action-left-additive",)),
    "d-distributive-left": (("d-distributive-right",), ()),
    "d-distributive-right": ((), ()),
    "d-associative": (("d-distributive-right",), ("d-distributive-left",)),
}


def full_rows(es):
    """Masks over x of the conditions `GENERATOR_FORMS` names, each from
    its grid over every element: the action laws as the `bimult` grids,
    D's identities one x at a time."""
    tl, tr, ba, da, dmul = es.theta_left, es.theta_right, es.b.add, es.d_ring.add, es.d_ring.mul
    grids = {
        "action-left-additive": _additive(ba, tl),
        "action-right-additive": _additive(ba, tr),
        "action-left-additive-in-source": _additive_in_source(ba, da, tl),
        "action-right-additive-in-source": _additive_in_source(ba, da, tr),
        "action-left-multiplicative": _left_multiplicative(dmul, tl),
        "action-right-multiplicative": _right_multiplicative(dmul, tr),
        "permutability": _permutable(tl, tr),
    }
    rows = {name: ok.reshape(len(ok), -1).all(axis=1) for name, ok in grids.items()}
    for name, row_ok in (
        ("d-distributive-left", lambda x: dmul[x, da] == da[dmul[x, :, None], dmul[x]]),
        ("d-distributive-right", lambda x: dmul[da, x] == da[dmul[:, x, None], dmul[:, x]]),
        ("d-associative", lambda x: dmul[dmul[x]] == dmul[x][dmul]),
    ):
        rows[name] = np.array([row_ok(x).all() for x in range(len(dmul))])
    return rows


def assert_generator_forms_match_the_full_grids(es):
    full, p = full_rows(es), prover(es)
    for name, (needed_by_all, needed_per_x1) in GENERATOR_FORMS.items():
        verdict, rows = p.holds(name)
        if not all(full[needed].all() for needed in needed_by_all):
            continue
        where = np.ones(es.d_ring.order, dtype=bool)
        for needed in needed_per_x1:
            where &= full[needed]
        if rows is None:
            assert where.all() and verdict == full[name].all(), name
        else:
            assert rows[where].tolist() == full[name][where].tolist(), name


def test_generator_forms_match_the_full_grids():
    # Every small source, the multiplier systems of zero_mult(4/6/8) and
    # mult_klein0, whose permutability mask is first False at x = 16, and
    # the near-ring targets, whose D breaks one distributivity.
    multipliers = [multiplier_esystem(r) for r in (zero_mult(4), zero_mult(6), zero_mult(8), zero_mult_klein())]
    named = {es.name: es for es in corpus()}
    near_rings = [*(one_sided_distributive(side) for side in ("left", "right")),
                  with_entry(named["ideal_in_klein"], "d_ring.mul", ..., MASKED_KLEIN_PRODUCT)]
    for es in small_sources() + multipliers + near_rings:
        assert_generator_forms_match_the_full_grids(es)


@settings(max_examples=300, deadline=None)
@given(es=mutated_systems())
def test_generator_forms_match_the_full_grids_on_mutations(es):
    if additions_commute_and_associate(es):
        assert_generator_forms_match_the_full_grids(es)
    else:
        assert_checker_reads_no_condition(es)


def test_every_law_names_what_its_generator_forms_need():
    # A law that reads a condition evaluated on D's generators also reads
    # the conditions that make it exact: those the condition needs whole
    # among the law's whole-law conditions, and those it needs per x1 among
    # the law's conditions of the same chunk.
    for law, (needed_by_all, needed_per_x1) in anncat._PROOFS.items():
        for name in (*needed_by_all, *needed_per_x1):
            whole, per_x1 = GENERATOR_FORMS.get(name, ((), ()))
            assert set(whole) <= set(needed_by_all), (law, name)
            chunk = needed_by_all if name in needed_by_all else (*needed_by_all, *needed_per_x1)
            assert set(per_x1) <= set(chunk), (law, name)


def test_klein_multiplier_builds_no_condition_grid_over_two_whole_copies_of_d(monkeypatch):
    # With |S| = 9 sum generators of D's 256 elements, every condition grid
    # has at most nd |S| max(nd, nb) cells.  Of those over two elements of
    # D, only D's right distributivity is built on S x D x D; the five
    # action conditions are built on nd |S| nb cells, and D's left
    # distributivity and associativity, which hold on S x S x D, come as
    # masks over x without a grid.
    es = multiplier_esystem(zero_mult_klein())
    nd, nb, ns = es.d_ring.order, es.b.order, len(_sum_generators(es.d_ring.add))
    assert (nd, nb, ns) == (256, 4, 9)
    grids = record_conditions(monkeypatch)
    anncat_axiom_check(es)
    assert len(grids) == 23 and {len(sizes) for sizes in grids.values()} == {1}
    cells = {name: size for name, (size,) in grids.items()}
    assert max(cells.values()) <= nd * ns * max(nd, nb)
    assert [name for name, size in cells.items() if size > nd * ns * nb] == ["d-distributive-right"]
    for name in ("action-left-additive-in-source", "action-right-additive-in-source",
                 "action-left-multiplicative", "action-right-multiplicative", "permutability"):
        assert cells[name] == nd * ns * nb, name
    assert cells["d-distributive-left"] == cells["d-associative"] == nd


def test_every_condition_in_the_table_is_registered_and_used():
    named = {name for proof in anncat._PROOFS.values() for names in proof for name in names}
    assert len(anncat._CONDITIONS) == 23
    assert named == set(anncat._CONDITIONS)


def test_the_checker_restates_only_the_generator_forms_of_the_action_laws():
    # The checker reads the action-system laws from `crossed._ESYSTEM_LAWS`,
    # the table `validate_esystem` walks, and states again only the four
    # quantified over two elements of D, with one of them on D's sum
    # generators (2 of 4 here).
    es = multiplier_esystem(zero_mult(4))
    p = prover(es)
    tables = crossed._esystem_tables(es.b, es.d_ring, es.d.map, es.theta_left, es.theta_right)
    restated = set()
    for law, grid, *names in crossed._ESYSTEM_LAWS:
        ok, full = anncat._CONDITIONS[law](p), grid(*(tables[t] for t in names))
        if ok.shape != full.shape or (ok != full).any():
            restated.add(law)
    assert restated == {"action-left-additive-in-source", "action-right-additive-in-source",
                        "action-left-multiplicative", "action-right-multiplicative"}


def recorded_conditions(grids):
    """`anncat._CONDITIONS` with each condition appending the cells of the
    grid it evaluates to grids[name]."""
    def recorded(name, condition):
        def run(p):
            ok = condition(p)
            grids[name].append(ok.size)
            return ok
        return run
    return {name: recorded(name, condition) for name, condition in anncat._CONDITIONS.items()}


def record_conditions(monkeypatch):
    """The cells of each grid a check evaluates through
    `anncat._CONDITIONS`, listed by condition name."""
    grids = collections.defaultdict(list)
    monkeypatch.setattr(anncat, "_CONDITIONS", recorded_conditions(grids))
    return grids


def test_each_identity_is_built_once_and_only_when_its_law_is_reached(monkeypatch):
    # A regular system needs all 23 conditions, which the six proved laws share.
    grids = record_conditions(monkeypatch)
    assert anncat_axiom_check(multiplier_esystem(zero_mult(6))).ok
    assert len(grids) == 23 and {len(sizes) for sizes in grids.values()} == {1}
    # Stopped at tensor-interchange, the check evaluates tensor-cod's six
    # conditions and tensor-interchange's eight alone.
    grids.clear()
    es = with_entry(multiplier_esystem(zero_mult(6)), "theta_left", (5, 1), 3)
    report = anncat_axiom_check(es, stop_at_first=True)
    assert report.failures()[0].law == "tensor-interchange" and not report.complete
    assert {len(sizes) for sizes in grids.values()} == {1}
    assert sorted(grids) == sorted([
        "d-additive", "d-multiplicative", "equivariance-left", "equivariance-right",
        "d-distributive-left", "d-distributive-right",
        "b-distributive-left", "b-distributive-right", "action-right-additive-in-source",
        "action-right-additive", "inner-action-left", "inner-action-right",
        "action-left-additive", "action-left-additive-at-d",
    ])


@pytest.mark.parametrize("budget", [1, 64])
@settings(max_examples=300, deadline=None)
@given(es=mutated_systems(), stop_at_first=st.booleans())
def test_slab_scan_matches_full_scan(budget, es, stop_at_first):
    # With slabs of at most `budget` cells every row splits, at budget 1
    # down to single cells.
    with mock.patch.object(anncat, "BLOCK_CELLS", budget):
        fast = anncat_axiom_check(es, stop_at_first=stop_at_first)
    full = full_scan(es, stop_at_first)
    assert fast.results == full.results
    assert fast.complete == full.complete


def test_klein_multiplier_stops_at_the_fifth_slab_of_chunk_16(monkeypatch):
    # A tensor-associative row of mult_klein0 has 4 * 4 * 256 * 256 = 2^20
    # cells, so the scan fixes b2 and b3 as well as b1: slabs of 256 * 256
    # = 65536 cells.  The first unproved chunk, 16, fails at
    # (b1, b2, b3, x2, x3) = (0, 1, 0, 0, 8), in its fifth slab.
    assert anncat.BLOCK_CELLS == 65536
    slabs, scan = [], anncat._scan

    def counted(law, todo, shape):
        def slab(x1, *axes):
            ok = law(x1, *axes)
            slabs.append((x1, tuple(a for a in axes if isinstance(a, int)), ok.size))
            return ok
        return scan(slab, todo, shape)
    monkeypatch.setattr(anncat, "_scan", counted)
    report = anncat_axiom_check(multiplier_esystem(zero_mult_klein()), stop_at_first=True)
    assert report.failures()[0].witness == (16, 0, 1, 0, 0, 8)
    assert slabs == [(16, (0, 0, b3), 65536) for b3 in range(4)] + [(16, (0, 1, 0), 65536)]


def tensor_cod_grid(es):
    """target(f1 (x) f2) == target(f1) target(f2), one nb^2 nd^2 grid over
    f1 = (b1, x1), f2 = (b2, x2), evaluated straight from the definitions."""
    b, d, dm = es.b, es.d_ring, es.d.map
    b1, x1, b2, x2 = np.ix_(*(np.arange(n) for n in (b.order, d.order, b.order, d.order)))
    base = b.add[b.add[b.mul[b1, b2], es.theta_right[x2, b1]], es.theta_left[x1, b2]]
    return d.add[dm[base], d.mul[x1, x2]] == d.mul[d.add[dm[b1], x1], d.add[dm[b2], x2]]


def tensor_cod_row(es):
    (row,) = [r for r in anncat_axiom_check(es).results if r.law == "tensor-cod"]
    return row.ok, row.witness, row.checked


@settings(max_examples=300, deadline=None)
@given(es=mutated_systems())
def test_tensor_cod_matches_its_grid(es):
    # The mutations reach d.map, D's tables, b.mul and theta, so each
    # condition of the proof fails on some of them.
    ok = tensor_cod_grid(es)
    assert tensor_cod_row(es) == (ok.all(), first_false(ok), ok.size)


def one_sided_distributive(side):
    """The ideal system of 2Z/4 in Z/4 with D's product x * y = x c(y),
    c = (0, 1, 2, 1), which keeps every condition on d and is right but
    not left distributive (1 * (1 + 2) = 1, 1 * 1 + 1 * 2 = 3), or with
    its transpose, the mirror image, for side "right"."""
    i = np.arange(4)
    mul = i[:, None] * np.array([0, 1, 2, 1]) % 4
    return with_entry(ideal_esystem(zmod(4), [0, 2]), "d_ring.mul", ..., mul if side == "left" else mul.T)


@pytest.mark.parametrize("side", ["left", "right"])
def test_one_sided_distributivity_leaves_tensor_cod_unproved(side):
    # Either way tensor-cod fails, so the proof must not hold.  Few random
    # single-entry mutations break distributivity alone.
    es = one_sided_distributive(side)
    ok = tensor_cod_grid(es)
    assert not ok.all()
    assert tensor_cod_row(es) == (False, first_false(ok), ok.size)


def test_tensor_cod_is_scanned_when_addition_is_not_commutative():
    # With 2 + 1 = 0 in D, the conditions on d and D's masks still hold,
    # but the proof rests on add-commutative, which fails, and so does
    # tensor-cod.
    es = with_entry({es.name: es for es in corpus()}["double_2z8"], "d_ring.add", (2, 1), 0)
    assert prover(es).proves("tensor-cod")
    ok = tensor_cod_grid(es)
    assert not ok.all()
    assert tensor_cod_row(es) == (False, first_false(ok), ok.size)


def test_identities_prove_tensor_cod_on_regular_systems():
    for es in small_sources():
        if is_regular(es):
            assert prover(es).proves("tensor-cod")


def test_distributivity_masks_are_built_once_and_only_when_needed(monkeypatch):
    # tensor-cod and three chunked laws share D's two distributivity masks.
    # D = Z/4 is right distributive, and its identities of the left factor
    # hold on S x S x D, S = {0, 1}: their masks come without a grid over
    # every x, as 4 cells each.
    grids = record_conditions(monkeypatch)
    assert anncat_axiom_check(doubled_into_z4()).ok
    assert grids["d-distributive-right"] == [4 * 2 * 4]
    assert grids["d-distributive-left"] == grids["d-associative"] == [4]
    # d(1) = 1 is not multiplicative on the zero ring, so the proof stops
    # before D's masks, and tensor-cod fails first.
    es = with_entry(multiplier_esystem(zero_mult(2)), "d.map", (1,), 1)
    grids.clear()
    report = anncat_axiom_check(es, stop_at_first=True)
    assert [r.law for r in report.failures()] == ["tensor-cod"]
    assert grids["d-multiplicative"] == [2 * 2]
    assert "d-distributive-left" not in grids and "d-distributive-right" not in grids


def without_4_axis_tensors(monkeypatch):
    tensor = anncat._tensor

    def run(es, b1, *rest):
        if np.ndim(b1) == 4:
            raise AssertionError("the tensor-cod grid was built")
        return tensor(es, b1, *rest)
    monkeypatch.setattr(anncat, "_tensor", run)


def test_identity_system_of_z64_passes_without_the_tensor_cod_grid(monkeypatch):
    # 64^4 = 16777216 tensor-cod cells, over the 10^7 guard: proved, not built.
    without_4_axis_tensors(monkeypatch)
    report = anncat_axiom_check(identity_esystem(zmod(64)))
    assert report.ok and report.complete
    assert [r.law for r in report.results] == LAWS
    assert rows(report)[LAWS.index("tensor-cod")] == ("tensor-cod", True, None, 16777216)


def rows(report):
    return [(r.law, r.ok, r.witness, r.checked) for r in report.results]


@pytest.mark.parametrize("n, cells", [
    (32, [2048, 65536, 64, 64, 32768, 1048576, 2112, 1048576, *[1073741824] * 4]),
    (48, [4608, 221184, 96, 96, 110592, 5308416, 4704, 5308416, *[12230590464] * 4]),
])
def test_identity_system_reports_are_unchanged(n, cells, monkeypatch):
    # The reports a scan of the whole tensor-cod grid gave, pinned; the
    # proof now gives them without building that grid.
    without_4_axis_tensors(monkeypatch)
    report = anncat_axiom_check(identity_esystem(zmod(n)))
    assert report.complete
    assert rows(report) == [(law, True, None, c) for law, c in zip(LAWS, cells, strict=True)]


def test_klein_multiplier_full_report():
    report = anncat_axiom_check(multiplier_esystem(zero_mult_klein()))
    assert report.complete
    assert rows(report) == [
        ("add-commutative", True, None, 65552),
        ("add-associative", True, None, 16777280),
        ("add-inverse", True, None, 260),
        ("compose-identity", True, None, 8),
        ("compose-associative", True, None, 64),
        ("add-interchange", True, None, 256),
        ("tensor-unit", True, None, 2560),
        ("tensor-cod", True, None, 1048576),
        ("tensor-interchange", True, None, 16777216),
        ("tensor-associative", False, (16, 0, 1, 0, 0, 8), 71303168),
        ("tensor-distributive-left", True, None, 1073741824),
        ("tensor-distributive-right", True, None, 1073741824),
    ]


def test_zero_mult_8_multiplier_full_report():
    report = anncat_axiom_check(multiplier_esystem(zero_mult(8)))
    assert report.ok and report.complete
    assert rows(report) == [
        ("add-commutative", True, None, 4160),
        ("add-associative", True, None, 262656),
        ("add-inverse", True, None, 72),
        ("compose-identity", True, None, 16),
        ("compose-associative", True, None, 512),
        ("add-interchange", True, None, 4096),
        ("tensor-unit", True, None, 1152),
        ("tensor-cod", True, None, 262144),
        ("tensor-interchange", True, None, 16777216),
        ("tensor-associative", True, None, 134217728),
        ("tensor-distributive-left", True, None, 134217728),
        ("tensor-distributive-right", True, None, 134217728),
    ]


# ---------------------------------------------------------------------------
# Internal checks of functors and homotopies, each broken on purpose.  On
# the zero-action system over Z/2 the identity with both constants 1 and
# the identity with both constants 0 are functors, homotopic through 1.


def zero_action_functors():
    es = zero_action_es()
    ident = np.arange(2)
    f = validate_ann_functor(es, es, ident, ident, 1, 1)
    g = functor_from_morphism(validate_morphism(es, es, ident, ident))
    return es, f, g


def tensor_constant_off_the_negative(m):
    es = zero_action_es()
    ident = np.arange(2)
    # With -1 read as 0, the tensor constant 1 is no longer the negative
    # of the additive constant 1.
    m.setattr(es.b, "neg", np.zeros_like(es.b.neg))
    return functools.partial(validate_ann_functor, es, es, ident, ident, 1, 1), (
        "constraint constants break their consequences at 0")


def component_outside_the_kernel(m):
    es, f, g = zero_action_functors()
    m.setattr(es.d, "map", np.ones_like(es.d.map))
    return functools.partial(homotopy_between, f, g), (
        "homotopy component leaves the kernel of d")


def component_off_the_tensor_constants(m):
    es, f, g = zero_action_functors()
    m.setattr(g, "mul_defect", 1)
    return functools.partial(homotopy_between, f, g), (
        "homotopy component misses the tensor constants")


def component_moved_by_the_actions(m):
    es, f, g = zero_action_functors()
    m.setattr(es, "theta_left", np.ones_like(es.theta_left))
    return functools.partial(homotopy_between, f, g), (
        "homotopy component is not annihilated by the actions")


@pytest.mark.parametrize("check", [
    tensor_constant_off_the_negative, component_outside_the_kernel,
    component_off_the_tensor_constants, component_moved_by_the_actions,
], ids=lambda f: f.__name__)
def test_broken_checks_raise_without_assert(check, monkeypatch):
    # Each internal check raises AssertionError itself, so `python -O`
    # keeps it.
    call, message = check(monkeypatch)
    with pytest.raises(AssertionError) as e:
        call()
    assert str(e.value) == message
