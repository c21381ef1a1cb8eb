"""End-to-end acceptance battery.

One test per verification target, each ending in a single verdict line;
run `pytest -v -s tests/test_acceptance.py` to see the lines alongside
the per-test pass/fail column.
"""

import itertools
import time

import numpy as np
import pytest

from ringcat.ablin import (
    FinAbGroup,
    LinearMap,
    kernel,
    smith_normal_form,
    solve_with_certificate,
)
from ringcat.anncat import AnnCategory, anncat_axiom_check, anncat_to_esystem
from ringcat.bimult import (
    Bimult,
    bicenter,
    bimult_ring,
    permutable,
)
from ringcat.cohomology import (
    Cochain1,
    Cochain2,
    complex_for,
    d1,
    d2,
    is_coboundary3,
    sub3,
)
from ringcat.corpus import corpus, corpus_triples, unital_homs
from ringcat.crossed import (
    ESystem,
    ESystemError,
    compose_morphisms,
    compose_xb_morphisms,
    es_to_xb,
    es_to_xb_morphism,
    identity_morphism,
    is_regular,
    validate_bimodule,
    validate_morphism,
    xb_to_es,
    xb_to_es_morphism,
)
from ringcat.extensions import (
    crossed_ring,
    crossed_tables,
    enumerate_extensions,
    equivalent,
    exhaustive_extension_search,
    extension_obstruction,
    validate_factor_system,
)
from ringcat.rings import (
    RingAxiomError,
    RingHom,
    decompose_abelian,
    product_ring,
    validate_ring,
    zero_mult_klein,
    zmod,
)
from ringcat.transport import choose_section, reduce_esystem, reduced_axiom_check
from test_ablin import det_exact
from test_cohomology import random_cochain1
from test_transport import greatest_section


@pytest.fixture(scope="module")
def instances():
    return corpus()


def _same_es(a, c):
    return (
        np.array_equal(a.b.add, c.b.add)
        and np.array_equal(a.b.mul, c.b.mul)
        and np.array_equal(a.d_ring.add, c.d_ring.add)
        and np.array_equal(a.d_ring.mul, c.d_ring.mul)
        and np.array_equal(a.d.map, c.d.map)
        and np.array_equal(a.theta_left, c.theta_left)
        and np.array_equal(a.theta_right, c.theta_right)
    )


def _verdict(num, t0, detail):
    print(f"criterion {num}: pass ({time.monotonic() - t0:.2f}s) {detail}")


def _hom_set(src, tgt):
    """Every morphism src -> tgt, by brute force over the map tables."""
    out = []
    for f1 in itertools.product(range(tgt.b.order), repeat=src.b.order):
        if f1[0] != 0:
            continue
        for f0 in itertools.product(range(tgt.d_ring.order), repeat=src.d_ring.order):
            if f0[0] != 0 or f0[src.d_ring.unit] != tgt.d_ring.unit:
                continue
            try:
                out.append(validate_morphism(src, tgt, np.array(f1), np.array(f0)))
            except ESystemError:
                pass
    return out


def test_criterion_01_roundtrip_and_morphism_functoriality(instances):
    t0 = time.monotonic()
    regular = [es for es in instances if is_regular(es)]
    assert len(regular) == 13
    for es in regular:
        xb = es_to_xb(es)
        back = xb_to_es(xb)
        assert _same_es(es, back), es.name
        again = es_to_xb(back)
        assert np.array_equal(again.left, xb.left) and np.array_equal(again.right, xb.right)

    by_name = {es.name: es for es in regular}
    small = ["flat_z2", "id_z4", "flat_klein0", "flat_z2_in_z4"]
    xbs = {n: es_to_xb(by_name[n]) for n in small}
    pairs = [
        ("flat_z2", "flat_z2"),
        ("id_z4", "id_z4"),
        ("flat_klein0", "flat_klein0"),
        ("flat_z2_in_z4", "flat_z2"),
    ]
    homs = {p: _hom_set(by_name[p[0]], by_name[p[1]]) for p in pairs}
    assert [len(homs[p]) for p in pairs] == [2, 1, 16, 2]
    for n in small:
        ident = identity_morphism(by_name[n])
        xident = es_to_xb_morphism(ident, src=xbs[n], tgt=xbs[n])
        back = xb_to_es_morphism(xident, src=by_name[n], tgt=by_name[n])
        assert np.array_equal(back.f1.map, ident.f1.map)

    ncomp = 0
    for (a, mid), fs in homs.items():
        for (mid2, c), gs in homs.items():
            if mid2 != mid:
                continue
            for f in fs:
                for g in gs:
                    gf = compose_morphisms(g, f)
                    xf = es_to_xb_morphism(f, src=xbs[a], tgt=xbs[mid])
                    xg = es_to_xb_morphism(g, src=xbs[mid2], tgt=xbs[c])
                    xgf = compose_xb_morphisms(xg, xf)
                    assert np.array_equal(xgf.f1.map, gf.f1.map)
                    assert np.array_equal(xgf.f0.map, gf.f0.map)
                    ncomp += 1
    assert ncomp == 265
    dt = time.monotonic() - t0
    assert dt < 10.0
    _verdict(1, t0, f"13 round trips, {ncomp} compositions preserved")


def test_criterion_02_kernel_image_cokernel_structure(instances):
    t0 = time.monotonic()
    from ringcat.crossed import coker_action_well_defined

    for es in instances:
        kers = es.d.kernel_elements()
        assert set(kers) <= set(bicenter(es.b)), es.name
        img = set(es.d.image_elements())
        for x in range(es.d_ring.order):
            for m in img:
                assert int(es.d_ring.mul[x, m]) in img, (es.name, x, m)
                assert int(es.d_ring.mul[m, x]) in img, (es.name, m, x)
        assert coker_action_well_defined(es), es.name
    _verdict(2, t0, f"kernel/image/cokernel checks on {len(instances)} instances")


def test_criterion_03_coherence_and_theta_mutations(instances):
    # Strict associativity of the morphism tensor is equivalent to pairwise
    # permutability of the acting bimultiplications, so the one non-regular
    # built-in instance cannot pass; its witness is confirmed by hand below.
    t0 = time.monotonic()
    failing = {}
    for es in instances:
        cat = AnnCategory(es)
        assert cat.es is es
        rep = anncat_axiom_check(es)
        if is_regular(es):
            assert rep.ok, (es.name, rep.failures())
        else:
            failing[es.name] = rep.failures()
    assert list(failing) == ["mult_klein0"]
    first = failing["mult_klein0"][0]
    assert first.law == "tensor-associative"
    witness = first.witness
    assert witness == (16, 0, 1, 0, 0, 8)

    # Hand evaluation of the tensor product at the witness: morphisms are
    # pairs (b, source x) and (b, x) ⊗ (c, y) = bc + rho_y(b) + lam_x(c).
    es5 = next(es for es in instances if es.name == "mult_klein0")
    b, d, lam, rho = es5.b, es5.d_ring, es5.theta_left, es5.theta_right
    x1, b1, b2, b3, x2, x3 = witness

    def tens(bb, xx, cc, yy):
        return int(b.add[b.add[b.mul[bb, cc], rho[yy, bb]], lam[xx, cc]])

    lhs = tens(tens(b1, x1, b2, x2), int(d.mul[x1, x2]), b3, x3)
    rhs = tens(b1, x1, tens(b2, x2, b3, x3), int(d.mul[x2, x3]))
    assert lhs != rhs
    assert rho[x3, lam[x1, b2]] != lam[x1, rho[x3, b2]]

    pool = [es for es in instances if is_regular(es)]
    mutated = 0
    i = 0
    while mutated < 20:
        es = pool[i % len(pool)]
        nd, nb = es.d_ring.order, es.b.order
        side = (i // len(pool)) % 2
        x = 1 + (i % max(nd - 1, 1))
        c = i % nb
        delta = 1 + (i % (nb - 1))
        table = (es.theta_left if side == 0 else es.theta_right).copy()
        old = int(table[x, c])
        table[x, c] = (old + delta) % nb
        i += 1
        if int(table[x, c]) == old:
            continue
        mut = ESystem(
            f"{es.name}-mut{i}",
            es.b,
            es.d_ring,
            es.d,
            table if side == 0 else es.theta_left,
            es.theta_right if side == 0 else table,
        )
        rep = anncat_axiom_check(mut, stop_at_first=True)
        assert not rep.ok, (es.name, side, x, c)
        assert rep.failures()[0].witness is not None
        mutated += 1
    _verdict(
        3,
        t0,
        "13 regular instances coherent; non-regular mult_klein0 fails "
        "tensor-associative by permutability (witness confirmed); "
        "20/20 mutations rejected",
    )


def test_criterion_04_regularity_iff_associativity():
    t0 = time.monotonic()
    kl = zero_mult_klein()

    # Negative: a non-permutable action drives the raw product tables into
    # a concrete associativity failure.
    swap, proj = (0, 2, 1, 3), (0, 1, 0, 1)
    al = np.array([[0] * 4, list(swap)])
    ar = np.array([[0] * 4, list(proj)])
    zero2 = np.zeros((2, 2), dtype=int)
    add, mul = crossed_tables(kl, zmod(2), al, ar, zero2, zero2)
    with pytest.raises(RingAxiomError) as err:
        validate_ring(add, mul, None, name="bad_product")
    assert err.value.condition == "mul-associative"
    x, y, z = err.value.witness
    assert mul[mul[x, y], z] != mul[x, mul[y, z]]

    # Positive: over the same base, every factor system with permutable
    # actions is a 2-cocycle of the induced coefficient module (the base
    # multiplies to zero, so the named conditions reduce to the cocycle
    # identities), and every such cocycle crosses to an associative ring.
    factors, _, coords = decompose_abelian(kl.add)
    group = FinAbGroup(tuple(factors))
    coord_arr = np.array([coords[i] for i in range(kl.order)], dtype=np.int64)
    neg = np.array(
        [int(np.nonzero(kl.add[i] == 0)[0][0]) for i in range(kl.order)], dtype=np.int16
    )
    mb = bimult_ring(kl)
    assert mb.left.shape == mb.right.shape == (256, kl.order)

    quotients = [
        (zmod(2), 1, 16),
        (zmod(3), 0, 0),
        (zmod(4), 1, 256),
        (product_ring(zmod(2), zmod(2), name="klein"), 40, 3712),
    ]
    for q, want_actions, want_total in quotients:
        assert kl.order * q.order <= 16
        # The inner bimultiplications of a zero-multiplication base vanish,
        # so the action rows of a factor system are exactly a unital ring
        # map q -> bimultiplications of kl whose rows permute pairwise.
        actions = []
        for h in unital_homs(q, mb.ring):
            rows = [mb.bimult_of(int(i)) for i in h.map]
            if all(permutable(s, t) for s in rows for t in rows):
                actions.append(rows)
        assert len(actions) == want_actions, q.name
        total = 0
        for rows in actions:
            left = np.array([r.left for r in rows], dtype=np.int16)
            right = np.array([r.right for r in rows], dtype=np.int16)
            mod = validate_bimodule(q, group, kl.add, neg, left, right, coord_arr)
            cx = complex_for(mod)
            for enc in kernel(cx.d2_map).elements():
                c = cx.decode2(np.asarray(enc, dtype=np.int64))
                fs = validate_factor_system(kl, q, left, right, c.f, c.g)
                ring = crossed_ring(fs)
                assert ring.unit is not None and ring.order == kl.order * q.order
                total += 1
        assert total == want_total, q.name
    _verdict(4, t0, "non-regular witness triple; 16+0+256+3712 regular systems associative")


def test_criterion_05_two_extension_classes(instances):
    t0 = time.monotonic()
    es = next(e for e in instances if e.name == "flat_z2")
    q = zmod(2)
    psi = RingHom(q, reduce_esystem(es).ring, np.arange(2))
    cls = extension_obstruction(es, q, psi)
    assert cls.vanishes and cls.h2_factors == (2,)

    # Independent count over the four normalised 2-cochains: all are
    # cocycles, the boundaries form a 2-element subgroup, so |H2| = 2.
    module = cls.pulled_module
    cochains = [
        Cochain2(module, [[0, 0], [0, f]], [[0, 0], [0, g]])
        for f in range(2)
        for g in range(2)
    ]
    assert all(d2(c).is_zero() for c in cochains)
    boundary_tables = set()
    for t in range(2):
        cb = d1(Cochain1(module, [0, t]))
        boundary_tables.add((int(cb.f[1, 1]), int(cb.g[1, 1])))
    assert len(boundary_tables) == 2
    assert 4 // len(boundary_tables) == 2

    exts = enumerate_extensions(es, q, psi, classification=cls)
    assert len(exts) == 2
    assert equivalent(exts[0], exts[1]) is None
    tops = sorted(
        max(ext.ring.additive_order(i) for i in range(ext.ring.order)) for ext in exts
    )
    assert tops == [2, 4]
    dt = time.monotonic() - t0
    assert dt < 5.0
    _verdict(5, t0, "|H2| = 2 two ways; classes split by additive order 2 vs 4")


def test_criterion_06_obstruction_soundness(instances):
    t0 = time.monotonic()
    triples = corpus_triples(limit=8)
    assert len(triples) == 24
    rc_cache = {}
    outcomes = {True: 0, False: 0}
    for es, q, psi in triples:
        if id(es) not in rc_cache:
            rc_cache[id(es)] = reduce_esystem(es)
        rc = rc_cache[id(es)]
        cls = extension_obstruction(es, q, psi, rc=rc)
        exts = enumerate_extensions(es, q, psi, rc=rc, classification=cls)
        brute = exhaustive_extension_search(es, q, psi, stop_at_first=True)
        assert (len(exts) > 0) == cls.vanishes == (len(brute) > 0), (es.name, q.name)
        outcomes[cls.vanishes] += 1
    dt = time.monotonic() - t0
    assert dt < 300.0
    _verdict(
        6,
        t0,
        f"{len(triples)} triples, enumeration/obstruction/brute agree "
        f"({outcomes[True]} vanish, {outcomes[False]} obstructed)",
    )


def test_criterion_07_section_independence(instances):
    t0 = time.monotonic()
    with_kernel = [es for es in instances if len(es.d.kernel_elements()) > 1]
    assert len(with_kernel) == 7
    checked = []
    for es in with_kernel:
        if not is_regular(es):
            # The kernel of the non-regular instance is not a bimodule over
            # the cokernel (left and right actions fail to commute), so no
            # reduction exists to compare; the failure itself is asserted.
            with pytest.raises(ESystemError, match="bimodule-mixed-associative"):
                es.kernel_module
            continue
        s1 = choose_section(es)
        s2 = greatest_section(es)
        assert not (
            np.array_equal(s1.sigma, s2.sigma)
            and np.array_equal(s1.fplus, s2.fplus)
            and np.array_equal(s1.ftimes, s2.ftimes)
        ), es.name
        r1 = reduce_esystem(es, section=s1)
        r2 = reduce_esystem(es, section=s2)
        diff = sub3(r1.k, r2.k)
        verdict = is_coboundary3(diff)
        assert verdict.is_coboundary, es.name
        assert d2(verdict.witness).equals(diff)
        checked.append(es.name)
    assert len(checked) == 6
    _verdict(7, t0, f"{len(checked)} section pairs differ by coboundaries")


def test_criterion_08_complex_properties(instances):
    t0 = time.monotonic()
    modules = [
        reduce_esystem(next(e for e in instances if e.name == n)).module
        for n in ("flat_z2", "double_2z8", "flat_klein0")
    ]
    rng = np.random.default_rng(20260823)
    for i in range(1000):
        c = random_cochain1(modules[i % 3], rng)
        assert d2(d1(c)).is_zero()
    # d2 of any 2-cochain lands in the coherent cochains, so boundaries are
    # in particular cocycles.
    for m in modules:
        n = m.ring.order
        for _ in range(10):
            f = rng.integers(0, m.order, size=(n, n))
            g = rng.integers(0, m.order, size=(n, n))
            f[0, :] = f[:, 0] = g[0, :] = g[:, 0] = 0
            image = d2(Cochain2(m, f, g))
            rep = reduced_axiom_check(image)
            assert rep.ok, rep.failures()
    dt = time.monotonic() - t0
    assert dt < 30.0
    _verdict(8, t0, "1000 cochains differentiate to zero; 30 d2-images coherent")


def test_criterion_09_snf_and_solver():
    t0 = time.monotonic()
    a = np.array([[2, 4], [6, 8]])
    res = smith_normal_form(a)
    assert np.array_equal(res.s, np.diag([2, 4]))
    assert np.array_equal(res.u @ a @ res.v, res.s)
    assert abs(det_exact(res.u)) == 1 and abs(det_exact(res.v)) == 1

    rng = np.random.default_rng(7)
    unsolvable = 0
    for _ in range(100):
        while True:
            k = int(rng.integers(1, 4))
            facs = tuple(int(rng.choice([1, 2, 3, 4, 5, 8, 9])) for _ in range(k))
            if int(np.prod(facs)) <= 256:
                break
        src = FinAbGroup(facs)
        th = int(rng.integers(1, 4))
        tfacs = tuple(int(rng.choice([2, 3, 4, 6, 8])) for _ in range(th))
        tgt = FinAbGroup(tfacs)
        mat = np.zeros((th, k), dtype=np.int64)
        for i in range(th):
            for j in range(k):
                step = tfacs[i] // int(np.gcd(tfacs[i], facs[j]))
                mat[i, j] = step * int(rng.integers(0, tfacs[i] // step))
        lm = LinearMap(src, tgt, mat)
        b = tgt.random_element(rng)
        x, cert = solve_with_certificate(lm, b)
        hit = next((cand for cand in src.elements() if lm.apply(cand) == b), None)
        if x is None:
            assert hit is None
            assert int(np.dot(cert.row, b)) % cert.modulus == cert.residue != 0
            unsolvable += 1
        else:
            assert hit is not None and lm.apply(x) == tgt.reduce(b)
    _verdict(9, t0, f"snf oracle case; solver matches brute force ({unsolvable} unsolvable)")


def test_criterion_10_category_roundtrip(instances):
    t0 = time.monotonic()
    for es in instances:
        back = anncat_to_esystem(AnnCategory(es))
        assert _same_es(es, back), es.name
    _verdict(10, t0, f"{len(instances)} exact category round trips")
