"""Cochains, differentials and second cohomology over small modules."""

import functools
import gc
import itertools
import tracemalloc
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcat import ablin, cohomology
from ringcat.ablin import FinAbGroup, LinearMap, SNFResult, homology, span_subgroup
from ringcat.bimult import bimult_ring, permutable
from ringcat.cohomology import (
    Cochain1,
    Cochain2,
    Cochain3,
    _defect2,
    _defect3,
    add2,
    b2,
    classify_functors,
    complex_for,
    d1,
    d2,
    h2,
    is_coboundary3,
    neg3,
    pullback,
    pullback_module,
    z2,
)
from ringcat.corpus import corpus_triples, unital_homs
from ringcat.crossed import validate_bimodule
from ringcat.extensions import _align_psi
from ringcat.rings import (
    RingHom,
    SearchGuardError,
    _sum,
    decompose_abelian,
    dual_numbers,
    ideal_cokernel,
    identity_hom,
    product_ring,
    zero_mult_klein,
    zmod,
)
from ringcat.transport import reduce_esystem
from test_ablin import assert_same_homology, reference_homology, reference_solve_with_certificate
from test_rings import upper_triangular_z2


def zero_cochain3(module):
    n = module.ring.order
    z3 = np.zeros((n, n, n), dtype=np.int64)
    z2 = np.zeros((n, n), dtype=np.int64)
    return Cochain3(module, z3, z2, z3.copy(), z3.copy(), z3.copy())


def random_cochain1(module, rng):
    t = rng.integers(0, module.order, size=module.ring.order)
    t[0] = 0
    return Cochain1(module, t)


def sub2(a, b):
    m = a.module
    return add2(a, Cochain2(m, m.neg[b.f], m.neg[b.g]))


def ring_as_module(r):
    """The ring acting on its own additive group by multiplication."""
    factors, _gens, coords = decompose_abelian(r.add)
    coords_arr = np.array([coords[i] for i in range(r.order)], dtype=np.int64)
    return validate_bimodule(
        r, FinAbGroup(tuple(factors)), r.add, r.neg, r.mul, r.mul.T, coords_arr
    )


def eps_module(r4=None):
    """Two-element module over Z/2[eps]/(eps^2): units act as identity,
    everything else as zero."""
    if r4 is None:
        r4 = dual_numbers(2)
    is_unit = [
        any(int(r4.mul[i, j]) == r4.unit for j in range(4)) for i in range(4)
    ]
    act = np.array([[0, 1] if u else [0, 0] for u in is_unit], dtype=np.int16)
    return validate_bimodule(
        r4,
        FinAbGroup((2,)),
        np.array([[0, 1], [1, 0]]),
        np.array([0, 1]),
        act,
        act,
        np.array([[0], [1]]),
    )


def trivial_module(r):
    shape = np.zeros((r.order, 1), dtype=np.int16)
    return validate_bimodule(
        r,
        FinAbGroup(()),
        np.zeros((1, 1), dtype=np.int16),
        np.zeros(1, dtype=np.int16),
        shape,
        shape,
        np.zeros((1, 0), dtype=np.int64),
    )


# Scalar reimplementations of both differentials, used as the independent
# route against the vectorised gathers.


def slow_d1(mod, t):
    r = mod.ring
    n = r.order

    def madd(*xs):
        acc = 0
        for x in xs:
            acc = int(mod.add[acc, int(x)])
        return acc

    f = np.zeros((n, n), dtype=np.int64)
    g = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        for v in range(n):
            f[u, v] = madd(t[u], t[v], mod.neg[t[r.add[u, v]]])
            g[u, v] = madd(
                mod.left[u, t[v]], mod.right[v, t[u]], mod.neg[t[r.mul[u, v]]]
            )
    return f, g


def slow_d2(mod, f, g):
    r = mod.ring
    n = r.order

    def madd(*xs):
        acc = 0
        for x in xs:
            acc = int(mod.add[acc, int(x)])
        return acc

    def mneg(x):
        return int(mod.neg[int(x)])

    xi = np.zeros((n, n, n), dtype=np.int64)
    eta = np.zeros((n, n), dtype=np.int64)
    ax = np.zeros((n, n, n), dtype=np.int64)
    ll = np.zeros((n, n, n), dtype=np.int64)
    rr = np.zeros((n, n, n), dtype=np.int64)
    for u in range(n):
        for v in range(n):
            eta[u, v] = madd(f[u, v], mneg(f[v, u]))
            for w in range(n):
                xi[u, v, w] = madd(
                    f[u, r.add[v, w]], f[v, w], mneg(f[u, v]), mneg(f[r.add[u, v], w])
                )
                ax[u, v, w] = madd(
                    mod.left[u, g[v, w]],
                    mneg(g[r.mul[u, v], w]),
                    g[u, r.mul[v, w]],
                    mneg(mod.right[w, g[u, v]]),
                )
                ll[u, v, w] = madd(
                    g[u, r.add[v, w]],
                    mneg(g[u, v]),
                    mneg(g[u, w]),
                    mod.left[u, f[v, w]],
                    mneg(f[r.mul[u, v], r.mul[u, w]]),
                )
                rr[u, v, w] = madd(
                    g[r.add[u, v], w],
                    mneg(g[u, w]),
                    mneg(g[v, w]),
                    mod.right[w, f[u, v]],
                    mneg(f[r.mul[u, w], r.mul[v, w]]),
                )
    return xi, eta, ax, ll, rr


def test_d1_on_the_two_element_identity_module():
    mod = ring_as_module(zmod(2))
    c = d1(Cochain1(mod, [0, 1]))
    assert c.f.tolist() == [[0, 0], [0, 0]]
    assert c.g.tolist() == [[0, 0], [0, 1]]


def test_d2_kills_both_generators_over_z2():
    mod = ring_as_module(zmod(2))
    f = np.array([[0, 0], [0, 1]])
    zero = np.zeros((2, 2), dtype=int)
    assert d2(Cochain2(mod, f, zero)).is_zero()
    assert d2(Cochain2(mod, zero, f)).is_zero()


def cochain_contract_cases(mod):
    """(cochain type, tables, message): for each table of each degree over
    the two-element module `mod`, a wrong shape, an out-of-range entry and
    a nonzero value in each argument's zero slot, the other tables zero."""
    cases = []
    for cls, arities in ((Cochain1, [1]), (Cochain2, [2, 2]), (Cochain3, [3, 2, 3, 3, 3])):
        names = [nm for nm, _ in cls.ARITIES]
        assert [k for _, k in cls.ARITIES] == arities
        for i, (name, k) in enumerate(zip(names, arities, strict=True)):
            def tables(bad, i=i):
                return [bad if j == i else np.zeros((2,) * a, dtype=int)
                        for j, a in enumerate(arities)]
            cases.append((cls, tables(np.zeros((3,) * k, dtype=int)),
                          f"{name} has shape {(3,) * k}, expected {(2,) * k}"))
            for value in (2, -1):
                bad = np.zeros((2,) * k, dtype=int)
                bad[(1,) * k] = value
                cases.append((cls, tables(bad), f"{name} holds an out-of-range module element"))
            for axis in range(k):
                bad = np.zeros((2,) * k, dtype=int)
                bad[(1,) * axis + (0,) + (1,) * (k - axis - 1)] = 1
                cases.append((cls, tables(bad), f"{name} must vanish when an argument is zero"))
    # Every table's shape is checked before any table's normalisation.
    xi = np.zeros((2, 2, 2), dtype=int)
    xi[0, 1, 1] = 1
    z3 = np.zeros((2, 2, 2), dtype=int)
    cases.append((Cochain3, [xi, np.zeros((3, 3), dtype=int), z3, z3, z3],
                  "eta has shape (3, 3), expected (2, 2)"))
    return cases


def test_cochain_normalisation_enforced():
    mod = ring_as_module(zmod(2))
    with pytest.raises(ValueError, match="vanish"):
        Cochain1(mod, [1, 0])
    with pytest.raises(ValueError, match="vanish"):
        Cochain2(mod, np.array([[0, 1], [0, 0]]), np.zeros((2, 2), dtype=int))
    with pytest.raises(ValueError, match="shape"):
        Cochain2(mod, np.zeros((3, 3), dtype=int), np.zeros((3, 3), dtype=int))
    cases = cochain_contract_cases(mod)
    assert len(cases) == 4 + 2 * 5 + (4 * 6 + 5) + 1
    for cls, tables, message in cases:
        with pytest.raises(ValueError) as e:
            cls(mod, *tables)
        assert str(e.value) == message, (cls.__name__, message)


def test_cochain1_shares_the_cochain_contract():
    mod = ring_as_module(zmod(2))
    c = Cochain1(mod, [0, 1])
    (t, name), = c.tables()
    assert name == "t" and t.dtype == np.int64 and t.tolist() == [0, 1]
    assert not c.is_zero() and Cochain1(mod, [0, 0]).is_zero()
    assert c.equals(Cochain1(mod, np.array([0, 1], dtype=np.int8)))
    assert not c.equals(Cochain1(mod, [0, 0]))
    assert not c.equals(Cochain1(ring_as_module(zmod(2)), [0, 1]))
    assert d1(c).equals(d1(Cochain1(mod, [0, 1])))


def test_vectorised_differentials_match_scalar_route():
    mod = eps_module()
    rng = np.random.default_rng(40)
    for _ in range(20):
        t = random_cochain1(mod, rng)
        sf, sg = slow_d1(mod, t.t)
        c = d1(t)
        assert np.array_equal(c.f, sf) and np.array_equal(c.g, sg)
        f = rng.integers(0, 2, size=(4, 4))
        g = rng.integers(0, 2, size=(4, 4))
        f[0] = f[:, 0] = g[0] = g[:, 0] = 0
        c2 = Cochain2(mod, f, g)
        slow = slow_d2(mod, f, g)
        fast = d2(c2)
        for got, want in zip([t_ for t_, _ in fast.tables()], slow, strict=True):
            assert np.array_equal(got, want)


def test_d2_after_d1_vanishes():
    rng = np.random.default_rng(41)
    for mod in (ring_as_module(zmod(2)), eps_module(), ring_as_module(zmod(4))):
        for _ in range(50):
            assert d2(d1(random_cochain1(mod, rng))).is_zero()


def test_counts_over_z2_identity_match_full_enumeration():
    mod = ring_as_module(zmod(2))
    # Only the (1,1) slots are free, so there are four normalised cochains.
    all_cochains = []
    for fv in range(2):
        for gv in range(2):
            f = np.zeros((2, 2), dtype=int)
            g = np.zeros((2, 2), dtype=int)
            f[1, 1], g[1, 1] = fv, gv
            all_cochains.append(Cochain2(mod, f, g))
    cocycles = [c for c in all_cochains if d2(c).is_zero()]
    assert len(cocycles) == 4

    boundary_keys = set()
    for t1 in range(2):
        c = d1(Cochain1(mod, [0, t1]))
        boundary_keys.add((tuple(c.f.ravel()), tuple(c.g.ravel())))
    assert len(boundary_keys) == 2

    assert z2(mod).order == 4
    assert b2(mod).order == 2
    hd = h2(mod)
    assert hd.order == 2 and hd.factors == (2,)
    reps = hd.representatives()
    key = lambda c: (tuple(c.f.ravel()), tuple(c.g.ravel()))
    assert len({key(r) for r in reps}) == 2
    diff = sub2(reps[0], reps[1])
    assert key(diff) not in boundary_keys
    assert hd.class_of(reps[0]) != hd.class_of(reps[1])


def test_boundaries_are_cocycles():
    for mod in (eps_module(), ring_as_module(zmod(4))):
        zg = z2(mod)
        for c in b2(mod).elements():
            assert zg.contains(c)


def test_z2_b2_h2_orders_are_consistent():
    for mod in (ring_as_module(zmod(2)), eps_module(), ring_as_module(zmod(3))):
        assert z2(mod).order == b2(mod).order * h2(mod).order


def test_h2_classes_are_stable_under_boundary_shifts():
    mod = eps_module()
    hd = h2(mod)
    reps = hd.representatives()
    assert len(reps) == hd.order
    labels = {hd.class_of(r) for r in reps}
    assert len(labels) == hd.order
    rng = np.random.default_rng(43)
    for r in reps:
        shifted = add2(r, d1(random_cochain1(mod, rng)))
        assert hd.class_of(shifted) == hd.class_of(r)


def test_trivial_module_has_trivial_h2():
    mod = trivial_module(zmod(2))
    assert h2(mod).order == 1
    assert z2(mod).order == 1


def test_pullback_module_along_unit_embedding():
    r4 = dual_numbers(2)
    mod = eps_module(r4)
    psi = RingHom(zmod(2), r4, [0, r4.unit])
    pulled = pullback_module(psi, mod)
    assert pulled.ring is psi.source
    assert pulled.left.tolist() == [[0, 0], [0, 1]]

    bad = RingHom(zmod(2), r4, [0, 0])
    with pytest.raises(ValueError, match="unital"):
        pullback_module(bad, mod)


def test_pullback_module_rejects_a_foreign_module():
    psi = RingHom(zmod(2), dual_numbers(2), [0, 2])
    with pytest.raises(ValueError, match="psi maps into"):
        pullback_module(psi, eps_module())


def test_pullback2_rejects_a_foreign_pulled_module():
    r4 = dual_numbers(2)
    mod = eps_module(r4)
    psi = RingHom(zmod(2), r4, [0, r4.unit])
    c2 = Cochain2(mod, np.zeros((4, 4), dtype=np.int64), np.zeros((4, 4), dtype=np.int64))
    with pytest.raises(ValueError, match="pulled module lives over"):
        pullback(psi, c2, mod)


def test_pullback3_rejects_a_foreign_cochain():
    r4 = dual_numbers(2)
    mod = eps_module(r4)
    psi = RingHom(zmod(2), r4, [0, r4.unit])
    k = zero_cochain3(pullback_module(psi, mod))
    with pytest.raises(ValueError, match="psi maps into"):
        pullback(psi, k, pullback_module(psi, mod))


def test_pullback_is_functorial():
    r4 = dual_numbers(2)
    z2r = zmod(2)
    mod = eps_module(r4)
    psi = RingHom(z2r, r4, [0, r4.unit])
    sigma = RingHom(zmod(4), z2r, [0, 1, 0, 1])
    combined = psi.compose(sigma)

    one_step = pullback_module(combined, mod)
    two_step = pullback_module(sigma, pullback_module(psi, mod))
    assert np.array_equal(one_step.left, two_step.left)
    assert np.array_equal(one_step.right, two_step.right)

    rng = np.random.default_rng(44)
    f = rng.integers(0, 2, size=(4, 4))
    g = rng.integers(0, 2, size=(4, 4))
    f[0] = f[:, 0] = g[0] = g[:, 0] = 0
    c2 = Cochain2(mod, f, g)
    a = pullback(combined, c2, one_step)
    b = pullback(sigma, pullback(psi, c2, pullback_module(psi, mod)), two_step)
    assert np.array_equal(a.f, b.f) and np.array_equal(a.g, b.g)

    k = d2(c2)
    ka = pullback(combined, k, one_step)
    kb = pullback(sigma, pullback(psi, k, pullback_module(psi, mod)), two_step)
    for (ta, _), (tb, _) in zip(ka.tables(), kb.tables(), strict=True):
        assert np.array_equal(ta, tb)


def test_pullback_matches_a_per_table_reference():
    r4 = dual_numbers(2)
    mod = eps_module(r4)
    z2r = zmod(2)
    psi = RingHom(z2r, r4, [0, r4.unit]).compose(RingHom(zmod(4), z2r, [0, 1, 0, 1]))
    pulled = pullback_module(psi, mod)
    rng = np.random.default_rng(47)

    def random_tables(cls):
        # random off the zero slots, and 1 where every argument is the
        # unit, which psi hits, so no pulled table is zero
        out = []
        for _, k in cls.ARITIES:
            t = rng.integers(0, 2, size=(4,) * k)
            t[(r4.unit,) * k] = 1
            for axis in range(k):
                t[(slice(None),) * axis + (0,)] = 0
            out.append(t)
        return out

    c1, c2, k = (cls(mod, *random_tables(cls)) for cls in (Cochain1, Cochain2, Cochain3))
    p = psi.map
    sq, cube = np.ix_(p, p), np.ix_(p, p, p)
    for c, want in (
        (c1, [c1.t[np.ix_(p)]]),
        (c2, [c2.f[sq], c2.g[sq]]),
        (k, [k.xi[cube], k.eta[sq], k.alpha_x[cube], k.lambda_l[cube], k.rho_r[cube]]),
    ):
        got = pullback(psi, c, pulled)
        assert type(got) is type(c) and got.module is pulled
        assert [nm for _, nm in got.tables()] == [nm for _, nm in c.tables()]
        for (t, _), w in zip(got.tables(), want, strict=True):
            assert t.dtype == np.int64 and np.array_equal(t, w)
        assert all(t.any() for t, _ in got.tables())


def test_is_coboundary3_recovers_an_image():
    mod = eps_module()
    rng = np.random.default_rng(45)
    f = rng.integers(0, 2, size=(4, 4))
    g = rng.integers(0, 2, size=(4, 4))
    f[0] = f[:, 0] = g[0] = g[:, 0] = 0
    k = d2(Cochain2(mod, f, g))
    verdict = is_coboundary3(k)
    assert verdict.is_coboundary
    assert d2(verdict.witness).equals(k)


def test_is_coboundary3_certificate_on_unreachable_target():
    # Over Z/2 with identity action every 2-cochain is a cocycle, so the
    # image of d2 is trivial and any nonzero target must be refused.
    mod = ring_as_module(zmod(2))
    xi = np.zeros((2, 2, 2), dtype=int)
    xi[1, 1, 1] = 1
    k = Cochain3(
        mod, xi, np.zeros((2, 2), int), np.zeros((2, 2, 2), int),
        np.zeros((2, 2, 2), int), np.zeros((2, 2, 2), int),
    )
    verdict = is_coboundary3(k)
    assert not verdict.is_coboundary
    assert verdict.witness is None and verdict.certificate is not None


def test_z6_smith_normal_form_overflow_is_raised():
    # Z/6 acting on itself needs 525 degree-3 coordinates, inside the
    # guard, but eliminating its d2 block leaves int64.  A wrapped solve
    # would return a witness whose d2 is not the input.
    mod = ring_as_module(zmod(6))
    rng = np.random.default_rng(48)
    f = rng.integers(0, 6, size=(6, 6))
    g = rng.integers(0, 6, size=(6, 6))
    f[0] = f[:, 0] = g[0] = g[:, 0] = 0
    with pytest.raises(OverflowError, match="leaves int64"):
        is_coboundary3(d2(Cochain2(mod, f, g)))
    with pytest.raises(OverflowError, match="leaves int64"):
        h2(mod)


def test_classify_functors_unobstructed_identity():
    mod = ring_as_module(zmod(2))
    rc = SimpleNamespace(module=mod, k=zero_cochain3(mod))
    out = classify_functors(identity_hom(mod.ring), rc)
    assert out.vanishes and out.count == 2
    hd = h2(out.pulled_module)
    assert len({hd.class_of(c) for c in out.classes}) == 2
    for c in out.classes:
        assert d2(c).equals(neg3(out.obstruction))


def test_classify_functors_reports_obstruction():
    mod = ring_as_module(zmod(2))
    xi = np.zeros((2, 2, 2), dtype=int)
    xi[1, 1, 1] = 1
    k = Cochain3(
        mod, xi, np.zeros((2, 2), int), np.zeros((2, 2, 2), int),
        np.zeros((2, 2, 2), int), np.zeros((2, 2, 2), int),
    )
    rc = SimpleNamespace(module=mod, k=k)
    out = classify_functors(identity_hom(mod.ring), rc)
    assert not out.vanishes and out.count == 0 and out.certificate is not None


def d2_embeds_c2(m):
    # d2 replaced by the embedding of each 2-cochain coordinate into the
    # 3-cochain coordinate of the same index and modulus, so that d2 after
    # d1 is d1.
    m.setattr(cohomology.CochainComplex, "_d2_rows",
              lambda self, x: np.pad(x, ((0, 0), (0, self.c3_group.rank - x.shape[1]))))
    return functools.partial(complex_for, ring_as_module(zmod(3))), "d2 after d1 is nonzero"


def wrong_solver_witness(m):
    mod = ring_as_module(zmod(3))
    c = Cochain2(mod, np.array([[0, 0, 0], [0, 1, 0], [0, 0, 0]]), np.zeros((3, 3), int))
    k = d2(c)
    assert not k.is_zero()
    m.setattr(cohomology, "d2", lambda c: zero_cochain3(c.module))
    return functools.partial(is_coboundary3, k), "solver witness must differentiate to k"


def missing_class(m):
    reps = cohomology.H2Data.representatives
    m.setattr(cohomology.H2Data, "representatives", lambda self: reps(self)[:-1])
    mod = ring_as_module(zmod(2))
    rc = SimpleNamespace(module=mod, k=zero_cochain3(mod))
    return (functools.partial(classify_functors, identity_hom(mod.ring), rc),
            "one class per element of H2")


def foreign_cochains(m):
    a, b = (Cochain2(ring_as_module(zmod(2)), np.zeros((2, 2), int), np.zeros((2, 2), int))
            for _ in range(2))
    return functools.partial(add2, a, b), "add2 of cochains over different modules"


@pytest.mark.parametrize("check", [d2_embeds_c2, wrong_solver_witness, missing_class,
                                   foreign_cochains], ids=lambda f: f.__name__)
def test_broken_checks_raise_without_assert(check, monkeypatch):
    # Each internal check raises AssertionError itself, so `python -O`
    # keeps it.
    call, message = check(monkeypatch)
    with pytest.raises(AssertionError) as e:
        call()
    assert str(e.value) == message


def test_unit_normalised_h2_agrees():
    for mod in (ring_as_module(zmod(2)), eps_module(), ring_as_module(zmod(4))):
        order, _factors, reps = reference_h2_unit_normalised(mod)
        assert order == h2(mod).order
        hd = h2(mod)
        assert len({hd.class_of(r) for r in reps}) == order


def test_coordinate_guard_applies_to_cached_complexes():
    # complex_for refuses a complex over its coordinate guard, also when
    # one was built for the module first: no complex is kept on its
    # module, so that build changes nothing the guard sees.
    mod = ring_as_module(zmod(4))
    complex_for(mod)
    with pytest.raises(SearchGuardError):
        complex_for(mod, guard=10)


def test_cached_complex_dies_with_its_module():
    # Nothing refers back from the module to its complex, so reference
    # counting frees the complex as soon as the caller drops both: with the
    # collector off, a cycle between them would keep it.
    mod = ring_as_module(zmod(4))
    cx = complex_for(mod)
    ref = weakref.ref(cx)
    assert cx in cohomology._complexes
    enabled = gc.isenabled()
    gc.disable()
    try:
        del mod, cx
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_complex_registry_is_a_weak_set():
    # The benchmark's trace mode reports len(cohomology._complexes).
    assert isinstance(cohomology._complexes, weakref.WeakSet)


def test_encode_decode_roundtrip():
    mod = eps_module()
    cx = complex_for(mod)
    rng = np.random.default_rng(46)
    f = rng.integers(0, 2, size=(4, 4))
    g = rng.integers(0, 2, size=(4, 4))
    f[0] = f[:, 0] = g[0] = g[:, 0] = 0
    c = Cochain2(mod, f, g)
    back = cx.decode2(cx.encode(c))
    assert back.equals(c)


def decode_per_element(cx, vec, axes):
    """Oracle for decoding: the element of each coordinate tuple, one
    tuple at a time, through a dict keyed by reduced coordinates."""
    m = cx.module
    index = {tuple(c): i for i, c in enumerate((m.coords % m.group.factors).tolist())}
    out = np.zeros((m.ring.order,) * axes, dtype=np.int64)
    nz = range(1, m.ring.order)
    cells = itertools.product(nz, repeat=axes)
    for cell, c in zip(cells, vec.reshape(len(nz) ** axes, m.group.rank), strict=True):
        out[cell] = index[m.group.reduce(c)]
    return out


@pytest.mark.parametrize("module", [
    ring_as_module(product_ring(zmod(2), zmod(4))),
    ring_as_module(dual_numbers(3)),
    trivial_module(zmod(3)),
], ids=["z2xz4", "z3_dual", "trivial"])
def test_decode_matches_per_element_lookup(module):
    cx = complex_for(module)
    rng = np.random.default_rng(5)
    for _ in range(5):
        # unreduced coordinates, negative ones included
        v1 = rng.integers(-50, 50, size=cx.c1_group.rank)
        assert np.array_equal(cx.decode1(v1).t, decode_per_element(cx, v1, 1))
        v2 = rng.integers(-50, 50, size=cx.c2_group.rank)
        c = cx.decode2(v2)
        f, g = np.split(v2, 2)
        assert np.array_equal(c.f, decode_per_element(cx, f, 2))
        assert np.array_equal(c.g, decode_per_element(cx, g, 2))


# ---------------------------------------------------------------------------
# complex_for as it was built before it stacked its basis cochains: one
# basis cochain at a time through d1 and d2.  It is the reference for the
# batched matrices.  H2 from cochains that also vanish at the ring unit is
# built the same way, as a cross-check of h2.


def reference_coords(mod, values):
    """The invariant-factor coordinates of some module elements, in a row."""
    fac = np.asarray(mod.group.factors, dtype=np.int64)
    return (mod.coords[np.asarray(values).reshape(-1)] % fac).reshape(-1)


def reference_encode(mod, *tables):
    """One cochain's coordinates: its tables in order, nonzero arguments
    in C order, invariant factors innermost."""
    nz = np.arange(1, mod.ring.order)
    return np.concatenate([reference_coords(mod, t[np.ix_(*[nz] * t.ndim)]) for t in tables])


def generator_elements(mod):
    rank = mod.group.rank
    return [mod.from_coords(tuple(int(i == j) for j in range(rank))) for i in range(rank)]


def reference_matrices(mod):
    """The d1 and d2 matrices, one column per basis cochain."""
    n = mod.ring.order
    gens = generator_elements(mod)
    cols1 = []
    for u in range(1, n):
        for e in gens:
            t = np.zeros(n, dtype=np.int64)
            t[u] = e
            c = d1(Cochain1(mod, t))
            cols1.append(reference_encode(mod, c.f, c.g))
    cols2 = []
    zero = np.zeros((n, n), dtype=np.int64)
    for which in range(2):
        for u in range(1, n):
            for v in range(1, n):
                for e in gens:
                    f = zero.copy()
                    g = zero.copy()
                    (f if which == 0 else g)[u, v] = e
                    c = d2(Cochain2(mod, f, g))
                    cols2.append(reference_encode(mod, *(t for t, _ in c.tables())))
    return cols1, cols2


def reference_h2_unit_normalised(mod, homology=homology):
    """H2 computed from cochains that also vanish at the ring unit:
    (order, factors, representatives).

    Correction terms must then keep the unit slots clean, which pins their
    unit value to the two-sided annihilator.  `homology` takes the two
    matrices."""
    cx = complex_for(mod)
    m = mod
    r = m.ring
    n = r.order
    one = r.unit
    gens = generator_elements(m)

    dead = (m.left == 0).all(axis=0) & (m.right == 0).all(axis=0)
    ann = [int(x) for x in np.nonzero(dead)[0]]
    ann_cols = reference_coords(m, ann).reshape(len(ann), m.group.rank).T
    ann_sub = span_subgroup(m.group, ann_cols)
    ann_gens = [m.from_coords(g) for g in ann_sub.gens]

    src_factors = []
    basis = []
    for u in range(1, n):
        if u == one:
            for gf, ge in zip(ann_sub.group.factors, ann_gens, strict=True):
                src_factors.append(gf)
                basis.append((u, ge))
        else:
            for gf, ge in zip(m.group.factors, gens, strict=True):
                src_factors.append(gf)
                basis.append((u, ge))
    c1u = FinAbGroup(tuple(src_factors))

    keep_g = [(u, v) for u in range(1, n) for v in range(1, n) if one not in (u, v)]
    mid_factors = tuple(m.group.factors) * ((n - 1) ** 2) + tuple(m.group.factors) * len(keep_g)
    c2u = FinAbGroup(mid_factors)
    nzsq = [(u, v) for u in range(1, n) for v in range(1, n)]

    def enc2u(c):
        fpart = reference_coords(m, c.f[tuple(np.array(nzsq).T)])
        for u in range(1, n):
            assert not (c.g[u, one] or c.g[one, u]), "not unit-normalised"
        if keep_g:
            gpart = reference_coords(m, c.g[tuple(np.array(keep_g).T)])
        else:
            gpart = np.zeros(0, dtype=np.int64)
        return np.concatenate([fpart, gpart])

    def dec2u(vec):
        cs = np.asarray(vec, dtype=np.int64).reshape(len(nzsq) + len(keep_g), m.group.rank)
        vals = m.elements_at(cs)
        f = np.zeros((n, n), dtype=np.int64)
        g = np.zeros((n, n), dtype=np.int64)
        f[tuple(np.array(nzsq).T)] = vals[: len(nzsq)]
        if keep_g:
            g[tuple(np.array(keep_g).T)] = vals[len(nzsq) :]
        return Cochain2(m, f, g)

    cols1 = []
    for u, e in basis:
        t = np.zeros(n, dtype=np.int64)
        t[u] = e
        cols1.append(enc2u(d1(Cochain1(m, t))))
    mat1 = np.array(cols1, dtype=np.int64).T if cols1 else np.zeros((c2u.rank, 0), dtype=np.int64)
    d1u = LinearMap(c1u, c2u, mat1)

    cols2 = []
    for e in np.eye(c2u.rank, dtype=np.int64):
        k = d2(dec2u(e))
        cols2.append(reference_encode(m, *(t for t, _ in k.tables())))
    mat2 = np.array(cols2, dtype=np.int64).T if cols2 else np.zeros((cx.c3_group.rank, 0), dtype=np.int64)
    d2u = LinearMap(c2u, cx.c3_group, mat2)

    hdata = homology(d1u, d2u)
    reps = [dec2u(np.asarray(r, dtype=np.int64)) for r in hdata.representatives()]
    return hdata.order, hdata.group.factors, reps


def klein_census_modules():
    """The Klein zero ring as a module over Z/2, Z/4 and Z/2 x Z/2: one
    module per unital map into its bimultiplication ring whose rows
    permute pairwise."""
    kl = zero_mult_klein()
    mb = bimult_ring(kl)
    factors, _gens, coords = decompose_abelian(kl.add)
    coords = np.array([coords[i] for i in range(kl.order)], dtype=np.int64)
    mods = []
    for q in (zmod(2), zmod(4), product_ring(zmod(2), zmod(2))):
        for h in unital_homs(q, mb.ring):
            rows = [mb.bimult_of(int(i)) for i in h.map]
            if all(permutable(s, t) for s in rows for t in rows):
                mods.append(validate_bimodule(
                    q, FinAbGroup(tuple(factors)), kl.add, kl.neg, mb.left[h.map],
                    mb.right[h.map], coords,
                ))
    return mods


MATRIX_MODULES = {
    **{f"z{k}": lambda k=k: [ring_as_module(zmod(k))] for k in range(2, 6)},
    "dual_z2": lambda: [ring_as_module(dual_numbers(2))],
    "z2xz2": lambda: [ring_as_module(product_ring(zmod(2), zmod(2)))],
    "rank0": lambda: [trivial_module(zmod(3))],
    "ut2_z2": lambda: [ring_as_module(upper_triangular_z2())],
    "klein_census": klein_census_modules,
}


@pytest.mark.parametrize("name", list(MATRIX_MODULES))
def test_complex_matrices_match_the_per_basis_loops(name):
    mods = MATRIX_MODULES[name]()
    if name == "klein_census":
        assert len(mods) == 42
    for mod in mods:
        cx = complex_for(mod)
        cols1, cols2 = reference_matrices(mod)
        for lm, cols in ((cx.d1_map, cols1), (cx.d2_map, cols2)):
            assert lm.matrix.shape == (lm.target.rank, len(cols))
            assert lm.matrix.T.tolist() == [c.tolist() for c in cols]


@pytest.mark.parametrize("mod", [eps_module(), ring_as_module(upper_triangular_z2())],
                         ids=["eps", "ut2_z2"])
def test_stacked_defects_match_one_cochain_at_a_time(mod):
    r = mod.ring
    n = r.order
    rng = np.random.default_rng(47)
    t = rng.integers(0, mod.order, size=(2, 3, n))
    f = rng.integers(0, mod.order, size=(2, 3, n, n))
    g = rng.integers(0, mod.order, size=(2, 3, n, n))
    stacked2 = _defect2(mod, t)
    stacked3 = _defect3(mod.add, mod.neg, mod.left, mod.right, r, f, g)
    for i, j in itertools.product(range(2), range(3)):
        one2 = _defect2(mod, t[i, j])
        one3 = _defect3(mod.add, mod.neg, mod.left, mod.right, r, f[i, j], g[i, j])
        for got, want in zip(stacked2 + stacked3, one2 + one3, strict=True):
            assert np.array_equal(got[i, j], want)


# ---------------------------------------------------------------------------
# The degree-3 tables as they were written before the term plan: each
# term a fancy-index call of its own on the ring's tables.


def reference_defect3(add, neg, left, right, radd, rmul, f, g):
    """The five degree-3 tables (xi, eta, alpha_x, lambda_l, rho_r) of a
    defect pair (f, g), leading axes stacking pairs."""
    us = np.arange(radd.shape[0])
    u, v, w = us[:, None, None], us[None, :, None], us[None, None, :]
    uv, vw = radd[u, v], radd[v, w]
    uv_m, vw_m, uw_m = rmul[u, v], rmul[v, w], rmul[u, w]
    xi = _sum(add, f[..., u, vw], f[..., v, w], neg[f[..., u, v]], neg[f[..., uv, w]])
    eta = add[f, neg[np.swapaxes(f, -1, -2)]]
    alpha_x = _sum(
        add, left[u, g[..., v, w]], neg[g[..., uv_m, w]], g[..., u, vw_m],
        neg[right[w, g[..., u, v]]],
    )
    lambda_l = _sum(
        add, g[..., u, vw], neg[g[..., u, v]], neg[g[..., u, w]], left[u, f[..., v, w]],
        neg[f[..., uv_m, uw_m]],
    )
    rho_r = _sum(
        add, g[..., uv, w], neg[g[..., u, w]], neg[g[..., v, w]], right[w, f[..., u, v]],
        neg[f[..., uw_m, vw_m]],
    )
    return xi, eta, alpha_x, lambda_l, rho_r


DEFECT3_MODULES = {
    # The reduced modules of the corpus systems, and their pullbacks.
    "corpus": lambda: [m for _, psi, rc in classify_triples()
                       for m in (rc.module, pullback_module(psi, rc.module))],
    "klein_census": klein_census_modules,
    "ut2_z2": lambda: [ring_as_module(upper_triangular_z2())],
    "zero_ring": lambda: [ring_as_module(zmod(1))],
}


@pytest.mark.parametrize("name", list(DEFECT3_MODULES))
def test_defect3_matches_the_reference(name):
    rng = np.random.default_rng(48)
    for mod in DEFECT3_MODULES[name]():
        r = mod.ring
        n = r.order
        # Stacks of 0, 1 and 2 leading axes; the (2, 50) stack spans
        # several blocks on every ring of order 4 or more.
        for lead, dtype in (((), np.int16), ((), np.int64), ((0,), np.int64),
                            ((3,), np.int64), ((2, 50), np.int16)):
            f, g = rng.integers(0, mod.order, size=(2, *lead, n, n)).astype(dtype)
            got = _defect3(mod.add, mod.neg, mod.left, mod.right, r, f, g)
            want = reference_defect3(mod.add, mod.neg, mod.left, mod.right, r.add, r.mul, f, g)
            for x, y in zip(got, want, strict=True):
                assert (x.dtype, x.shape) == (y.dtype, y.shape)
                assert np.array_equal(x, y)


def test_defect3_plan_is_built_once_per_ring():
    cohomology._defect3_plan.cache_clear()
    mod = eps_module()
    c = Cochain2(mod, np.zeros((4, 4), int), np.zeros((4, 4), int))
    for _ in range(3):
        d2(c)
    complex_for(mod)
    info = cohomology._defect3_plan.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    bound = info.maxsize
    assert bound == 32  # the bound `_defect3` sizes its memory claim by
    for k in range(bound + 5):
        r = zmod(2 + k % 3)
        _defect3(r.add, r.neg, r.mul, r.mul.T, r, np.zeros((r.order,) * 2, np.int64),
                 np.zeros((r.order,) * 2, np.int64))
    info = cohomology._defect3_plan.cache_info()
    assert info.misses == bound + 6 and info.currsize == bound
    cohomology._defect3_plan.cache_clear()


def test_blocked_defects_keep_the_complex_peak():
    # The stacked gathers of d2's basis run in blocks; gathering the whole
    # stack at once raised this traced peak from about 30 to 52 MB.
    mod = ring_as_module(upper_triangular_z2())
    tracemalloc.start()
    try:
        complex_for(mod)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 10**6


@functools.cache
def classify_triples():
    """The triples of the classify benchmark: corpus_triples(limit=16), then
    each of their 13 systems over its own cokernel with psi = id.  Each is
    (label, psi into the reduced ring, reduced data)."""
    triples = corpus_triples(limit=16)
    systems = list({id(es): es for es, _, _ in triples}.values())
    for es in systems:
        coker = ideal_cokernel(es.d, name=f"coker_{es.name}").ring
        triples.append((es, coker, RingHom(coker, coker, np.arange(coker.order))))
    rcs = {id(es): reduce_esystem(es) for es in systems}
    return [
        (f"{es.name}|{q.name}|{','.join(map(str, psi.map.tolist()))}",
         _align_psi(psi, q, rcs[id(es)].ring), rcs[id(es)])
        for es, q, psi in triples
    ]


def reference_classify(psi, rc):
    """classify_functors with each boundary solved on its own and d2's
    augmented block factored once for the solve and again for the kernel:
    (vanishes, certificate, class tables, H2 factors)."""
    pulled = pullback_module(psi, rc.module)
    cx = complex_for(pulled)
    target = neg3(pullback(psi, rc.k, pulled))
    x, cert = reference_solve_with_certificate(cx.d2_map, cx.encode(target))
    if x is None:
        return False, cert, [], ()
    g0 = cx.decode2(np.asarray(x, dtype=np.int64))
    hd = reference_homology(cx.d1_map, cx.d2_map)
    classes = [add2(g0, cx.decode2(np.asarray(r, dtype=np.int64))) for r in hd.representatives()]
    return True, None, [(c.f.tolist(), c.g.tolist()) for c in classes], hd.group.factors


def classified(out):
    """A classification in `reference_classify`'s terms: (vanishes,
    certificate, class tables, H2 factors)."""
    cert = out.certificate and (out.certificate.row.tolist(), out.certificate.modulus,
                                out.certificate.residue)
    return out.vanishes, cert, [(c.f.tolist(), c.g.tolist()) for c in out.classes], out.h2_factors


def test_classify_triples_match_the_per_column_solves():
    triples = classify_triples()
    assert len(triples) == 59
    obstructed = []
    for label, psi, rc in triples:
        out = classify_functors(psi, rc)
        assert classified(out) == reference_classify(psi, rc), label
        if not out.vanishes:
            obstructed.append(label)
        cx = complex_for(out.pulled_module)
        assert_same_homology(h2(out.pulled_module).data,
                             reference_homology(cx.d1_map, cx.d2_map),
                             z2(out.pulled_module).subgroup.gens)
    assert obstructed == ["mult_2z8|coker_mult_2z8|0,1,2,3"]


# ---------------------------------------------------------------------------
# classify_functors reads each pulled module's complex, d2 logs and H2 from
# a bounded memo keyed on the module's content.


def memo_entry(psi, rc):
    """The memo's entry for the module that rc's module pulls back to."""
    return cohomology._pulled_cohomology(pullback_module(psi, rc.module))


def test_the_memo_matches_the_reference_in_any_order():
    # The 59 triples pull back 26 distinct modules; each order runs from
    # an empty memo, then again on the full one.
    triples = classify_triples()
    want = {label: reference_classify(psi, rc) for label, psi, rc in triples}
    for seed in (3, 5, 11):
        cohomology._pulled_memo.cache_clear()
        order = np.random.default_rng(seed).permutation(len(triples))
        for state in ("cold", "warm"):
            for i in order:
                label, psi, rc = triples[i]
                assert classified(classify_functors(psi, rc)) == want[label], (seed, state, label)
        info = cohomology._pulled_memo.cache_info()
        assert (info.misses, info.hits, info.currsize) == (26, 2 * 59 - 26, 26)


@pytest.mark.parametrize("label", ["flat_z2|z4|0,1,0,1", "mult_2z8|coker_mult_2z8|0,1,2,3"],
                         ids=["vanishing", "obstructed"])
def test_a_second_call_on_equal_content_builds_nothing(label, monkeypatch):
    # The second call pulls back a module whose tables are all fresh
    # copies: equal content, other objects.  It builds no complex and
    # factors nothing, and returns the first call's pulled module.
    psi, rc = next((psi, rc) for lab, psi, rc in classify_triples() if lab == label)
    cohomology._pulled_memo.cache_clear()
    first = classify_functors(psi, rc)
    m = rc.module
    copy = replace(m, **{name: np.array(getattr(m, name)) for name in cohomology._MODULE_TABLES})
    calls = []
    monkeypatch.setattr(cohomology, "complex_for", lambda *a: calls.append("complex_for"))
    monkeypatch.setattr(ablin, "smith_normal_form", lambda a: calls.append("smith_normal_form"))
    again = classify_functors(psi, SimpleNamespace(module=copy, k=rc.k))
    assert calls == []
    assert again.pulled_module is first.pulled_module
    assert classified(again) == classified(first)


def test_the_memo_keeps_read_only_arrays_and_no_factorisation():
    triples = classify_triples()
    for _, psi, rc in triples:
        classify_functors(psi, rc)
    entries = {id(e): e for e in (memo_entry(psi, rc) for _, psi, rc in triples)}.values()
    assert len(entries) == 26
    kept_h2 = 0
    for e in entries:
        arrays = [getattr(e.module, name) for name in cohomology._MODULE_TABLES]
        arrays += [e.complex.d1_map.matrix, e.complex.d2_map.matrix]
        if e.d2 is not None:
            assert type(e.d2) is SNFResult
            arrays += [x for _, *args in (*e.d2.row_log, *e.d2.col_log)
                       for x in args if isinstance(x, np.ndarray)]
        if e._h2 is not None:
            kept_h2 += 1
            arrays += [t for rep in e._h2[0] for t in (rep.f, rep.g)]
            assert all(rep.module is e.module for rep in e._h2[0])
        assert not any(a.flags.writeable for a in arrays)
        assert e.nbytes <= cohomology._ENTRY_BYTES
    assert kept_h2 == 25  # all but the obstructed mult_2z8 over its cokernel
    with pytest.raises(ValueError, match="read-only"):
        classify_functors(psi, rc).pulled_module.add[0, 0] = 1


def test_the_memo_holds_no_more_than_it_counts():
    # With every other memo that classify reads filled, refilling this
    # one from empty grows the traced heap by less than the entries'
    # `nbytes`, which is what the byte bound charges.
    triples = classify_triples()
    for _, psi, rc in triples:
        classify_functors(psi, rc)
    cohomology._pulled_memo.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _, psi, rc in triples:
            classify_functors(psi, rc)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    entries = {id(e): e for e in (memo_entry(psi, rc) for _, psi, rc in triples)}.values()
    assert 0 < grown < sum(e.nbytes for e in entries)
    info = cohomology._pulled_memo.cache_info()
    assert (info.maxsize, cohomology._ENTRY_BYTES) == (32, 2**20)


def test_an_entry_over_the_byte_bound_is_not_kept(monkeypatch):
    psi, rc = next((psi, rc) for lab, psi, rc in classify_triples()
                   if lab == "flat_z2|z4|0,1,0,1")
    cohomology._pulled_memo.cache_clear()
    want = classified(classify_functors(psi, rc))
    entry = memo_entry(psi, rc)
    with_h2 = entry.nbytes
    entry._h2 = None
    without_h2 = entry.nbytes
    assert without_h2 < with_h2 <= cohomology._ENTRY_BYTES
    shapes = []
    snf = ablin.smith_normal_form
    monkeypatch.setattr(ablin, "smith_normal_form",
                        lambda a: shapes.append(np.shape(a)) or snf(a))
    d2_block = (117, 135)
    # Below the entry: each call builds its entry and drops it.
    monkeypatch.setattr(cohomology, "_ENTRY_BYTES", without_h2 - 1)
    cohomology._pulled_memo.cache_clear()
    for _ in range(2):
        shapes.clear()
        assert classified(classify_functors(psi, rc)) == want
        assert shapes[0] == d2_block and len(shapes) == 5
    assert cohomology._pulled_memo.cache_info().currsize == 0
    # Between: the entry is kept, H2 is not, and only H2 is built again.
    monkeypatch.setattr(cohomology, "_ENTRY_BYTES", with_h2 - 1)
    cohomology._pulled_memo.cache_clear()
    classify_functors(psi, rc)
    shapes.clear()
    assert classified(classify_functors(psi, rc)) == want
    assert len(shapes) == 4 and d2_block not in shapes
    assert memo_entry(psi, rc)._h2 is None


def test_pullback_module_matches_validate_bimodule():
    # pullback_module reuses the module's checked tables instead of running
    # validate_bimodule; over the classify triples it must build the same
    # module, array types included.
    for label, psi, rc in classify_triples():
        m = rc.module
        got = pullback_module(psi, m)
        want = validate_bimodule(psi.source, m.group, m.add, m.neg, m.left[psi.map],
                                 m.right[psi.map], m.coords)
        assert got.ring is want.ring is psi.source, label
        assert got.group == want.group, label
        for field in ("add", "neg", "left", "right", "coords", "by_code", "strides"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), (label, field)


def test_klein_census_homology_matches_the_per_column_loop():
    mods = klein_census_modules()
    assert len(mods) == 42
    for mod in mods:
        cx = complex_for(mod)
        assert_same_homology(homology(cx.d1_map, cx.d2_map),
                             reference_homology(cx.d1_map, cx.d2_map))


def test_unit_normalised_h2_matches_the_per_column_loop():
    mods = [pullback_module(psi, rc.module) for _, psi, rc in classify_triples()]
    mods = [m for m in mods if m.ring.order >= 2]
    assert len(mods) == 53
    for mod in mods:
        order, factors, reps = reference_h2_unit_normalised(mod)
        want_order, want_factors, want_reps = reference_h2_unit_normalised(
            mod, reference_homology)
        assert (order, factors) == (want_order, want_factors)
        assert [(c.f.tolist(), c.g.tolist()) for c in reps] == [
            (c.f.tolist(), c.g.tolist()) for c in want_reps
        ]


# ---------------------------------------------------------------------------
# The cochain checks in one reduction a group, and the decode in one gather.


def reference_cochain_checks(cls, module, tables):
    """`_Cochain.__post_init__` as it was before it fused its checks: each
    table's shape and range in order, then each table's normalisation
    axis by axis."""
    n, order = module.ring.order, module.order
    checked = []
    for (name, arity), t in zip(cls.ARITIES, tables, strict=True):
        t = np.asarray(t, dtype=np.int64)
        if t.shape != (n,) * arity:
            raise ValueError(f"{name} has shape {t.shape}, expected {(n,) * arity}")
        if t.size and (t.min() < 0 or t.max() >= order):
            raise ValueError(f"{name} holds an out-of-range module element")
        checked.append((t, name))
    for t, name in checked:
        for axis in range(t.ndim):
            if t[(slice(None),) * axis + (0,)].any():
                raise ValueError(f"{name} must vanish when an argument is zero")


@functools.cache
def cochain_modules():
    return (ring_as_module(zmod(2)), ring_as_module(zmod(4)), ring_as_module(dual_numbers(2)),
            klein_census_modules()[-1])


@st.composite
def cochain_tables(draw):
    """(type, module, tables): a normalised cochain's tables with at most
    a few defects, each a bad shape, an out-of-range entry or a nonzero
    entry at a zero argument, in any table."""
    module = draw(st.sampled_from(cochain_modules()))
    cls = draw(st.sampled_from((Cochain1, Cochain2, Cochain3)))
    n, order = module.ring.order, module.order
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tables = []
    for _, arity in cls.ARITIES:
        t = rng.integers(0, order, size=(n,) * arity)
        for axis in range(arity):
            t[(slice(None),) * axis + (0,)] = 0
        tables.append(t)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(tables) - 1))
        t = tables[i]
        kind = draw(st.sampled_from(("shape", "range", "zero")))
        if not t.size:
            continue
        cell = tuple(draw(st.integers(0, d - 1)) for d in t.shape)
        if kind == "shape":
            tables[i] = t[..., :-1] if draw(st.booleans()) else t[None]
        elif kind == "range":
            t[cell] = draw(st.sampled_from((-1, order, order + 7, -(2**40))))
        else:
            axis = draw(st.integers(0, t.ndim - 1))
            t[cell[:axis] + (0,) + cell[axis + 1:]] = draw(st.integers(1, max(1, order - 1)))
    return cls, module, tables


def raised(build):
    try:
        build()
    except ValueError as e:
        return type(e), str(e)
    return None


@settings(max_examples=400, deadline=None)
@given(cochain_tables())
def test_the_fused_cochain_checks_raise_what_the_table_walk_raises(case):
    cls, module, tables = case
    got = raised(lambda: cls(module, *(np.copy(t) for t in tables)))
    want = raised(lambda: reference_cochain_checks(cls, module, tables))
    assert got == want
    if got is None:
        c = cls(module, *tables)
        for (t, _), ref in zip(c.tables(), tables, strict=True):
            assert t.dtype == np.int64 and np.array_equal(t, ref)


def test_a_table_numpy_cannot_convert_raises_after_an_earlier_failure():
    # The walk reaches the ragged g only after f, so f's range error wins,
    # and a ragged table of a cochain with nothing else wrong still raises
    # numpy's own error.
    m = ring_as_module(zmod(2))
    bad_f = np.array([[0, 0], [0, 5]])
    with pytest.raises(ValueError, match="f holds an out-of-range module element"):
        Cochain2(m, bad_f, [[0, 0], [0]])
    with pytest.raises(ValueError) as e:
        Cochain2(m, np.zeros((2, 2), dtype=np.int64), [[0, 0], [0]])
    assert "out-of-range" not in str(e.value)


def reference_fill2(cx, coords):
    """`CochainComplex._fill2` as two gathers, one per table."""
    half = coords.shape[-1] // 2
    return cx._fill(coords[..., :half], 2), cx._fill(coords[..., half:], 2)


def test_decode2_on_a_stack_matches_row_by_row_decoding():
    rng = np.random.default_rng(36)
    mods = klein_census_modules()
    for mod in (mods[0], mods[1], mods[-1], ring_as_module(zmod(3)), ring_as_module(zmod(1))):
        cx = complex_for(mod)
        width = cx.c2_group.rank
        stack = rng.integers(-5, 9, size=(2, 3, width))
        f, g = cx._fill2(stack)
        want_f, want_g = reference_fill2(cx, stack)
        assert np.array_equal(f, want_f) and np.array_equal(g, want_g)
        for i, j in itertools.product(range(2), range(3)):
            c = cx.decode2(stack[i, j])
            row_f, row_g = reference_fill2(cx, stack[i, j])
            assert np.array_equal(c.f, row_f) and np.array_equal(c.g, row_g)
            assert np.array_equal(c.f, f[i, j]) and np.array_equal(c.g, g[i, j])
