"""Sections, reduction to quotient data, and the reduced checker."""

import copy
import functools

import numpy as np
import pytest

from ringcat import crossed, transport
from ringcat.anncat import CheckReport, LawResult, functor_from_morphism
from ringcat.cohomology import (
    Cochain2, Cochain3, d2, is_coboundary3, pullback, pullback_module, sub3,
)
from ringcat.corpus import corpus
from ringcat.crossed import (
    ESystemError,
    identity_esystem,
    identity_morphism,
    multiplier_esystem,
    validate_esystem,
    validate_morphism,
)
from ringcat.extensions import enumerate_extensions, extension_obstruction
from ringcat.rings import (
    RingHom,
    _first_bad,
    _lift_defects,
    _sum,
    dual_numbers,
    ideal_cokernel,
    validate_ring,
    zero_mult,
    zero_mult_klein,
    zmod,
)
from ringcat.transport import (
    choose_section,
    reduce_esystem,
    reduce_functor,
    reduced_axiom_check,
    validate_section,
)
from test_cohomology import classify_triples
from test_rings import find_ring_isomorphism


def two_z8():
    """Carrier 0..3 standing for the even residues mod 8, so products
    pick up an extra factor of two."""
    i = np.arange(4)
    return validate_ring((i[:, None] + i) % 4, (2 * i[:, None] * i) % 4, None, name="2z8")


def doubled_into_z4():
    b = two_z8()
    d4 = zmod(4)
    scal = (np.arange(4)[:, None] * np.arange(4)) % 4
    return validate_esystem(b, d4, (2 * np.arange(4)) % 4, scal, scal, name="d2b")


def identity_action_z2():
    # d = 0 forces all base products to vanish, so B is Z/2 with zero
    # multiplication and D = Z/2 acts through its own multiplication.
    b, d = zero_mult(2), zmod(2)
    return validate_esystem(
        b, d, np.zeros(2, dtype=np.int16), d.mul, d.mul, name="flat_z2"
    )


def test_choose_section_flavours_on_d2b():
    es = doubled_into_z4()
    least = choose_section(es)
    assert least.sigma.tolist() == [0, 1]
    assert least.fplus[1, 1] == 1
    assert not least.ftimes.any()
    greatest = greatest_section(es)
    assert greatest.sigma.tolist() == [0, 1]
    assert greatest.fplus[1, 1] == 3


def reference_section(es, flavor):
    """The one-class-at-a-time pick: (sigma, fplus, ftimes) tables."""
    pick = min if flavor == "least" else max
    quo = ideal_cokernel(es.d)
    rq, dd = quo.ring, es.d_ring
    n = rq.order
    members = [[] for _ in range(n)]
    for x in range(dd.order):
        members[int(quo.projection.map[x])].append(x)
    sigma = np.array([pick(m) for m in members], dtype=np.int64)
    sigma[rq.unit] = dd.unit
    sigma[0] = 0
    pre = {}
    for b in range(es.b.order):
        pre.setdefault(int(es.d.map[b]), []).append(b)
    want_add, want_mul = _lift_defects(dd, sigma, rq)
    fplus = np.zeros((n, n), dtype=np.int64)
    ftimes = np.zeros((n, n), dtype=np.int64)
    u = rq.unit
    for s in range(n):
        for r in range(n):
            if s and r:
                fplus[s, r] = pick(pre[int(want_add[s, r])])
            if s and r and s != u and r != u:
                ftimes[s, r] = pick(pre[int(want_mul[s, r])])
    return sigma.tolist(), fplus.tolist(), ftimes.tolist()


def greatest_section(es):
    """The section of greatest representatives and preimages, by the class
    walk, checked by validate_section."""
    return validate_section(es, *reference_section(es, "greatest"))


def test_choose_section_matches_the_class_walk():
    for es in corpus():
        sec = choose_section(es)
        got = sec.sigma.tolist(), sec.fplus.tolist(), sec.ftimes.tolist()
        assert got == reference_section(es, "least"), es.name


def test_validate_section_rejects_broken_tables():
    es = doubled_into_z4()
    sec = choose_section(es)
    bad = sec.fplus.copy()
    bad[1, 1] = 0
    with pytest.raises(ValueError, match="misses its class"):
        validate_section(es, sec.sigma, bad, sec.ftimes)
    bad = sec.fplus.copy()
    bad[0, 1] = 2
    with pytest.raises(ValueError, match="vanish"):
        validate_section(es, sec.sigma, bad, sec.ftimes)
    sigma = sec.sigma.copy()
    sigma[1] = 3
    with pytest.raises(ValueError, match="unit"):
        validate_section(es, sigma, sec.fplus, sec.ftimes)
    # Entries past the carriers are refused before any table indexes with them.
    sigma = sec.sigma.copy()
    sigma[1] = 99
    with pytest.raises(ValueError, match="sigma entry out of range"):
        validate_section(es, sigma, sec.fplus, sec.ftimes)
    for which in (1, 2):
        tables = [sec.sigma, sec.fplus.copy(), sec.ftimes.copy()]
        tables[which][1, 1] = 99
        with pytest.raises(ValueError, match="defect entry out of range"):
            validate_section(es, *tables)


def test_validate_section_rejects_a_non_unital_quotient(monkeypatch):
    es = doubled_into_z4()
    sec = choose_section(es)
    # The system keeps its cokernel; give it a copy without a unit.
    quo = copy.copy(es.cokernel)
    quo.ring = copy.copy(quo.ring)
    quo.ring.unit = None
    monkeypatch.setitem(vars(es), "cokernel", quo)
    with pytest.raises(ValueError, match="unital"):
        validate_section(es, sec.sigma, sec.fplus, sec.ftimes)


def test_reduce_rejects_a_section_over_another_quotient():
    # Z/4 -> Z/4/(2) and Z/2 -> Z/2 project differently
    section = choose_section(identity_action_z2())
    with pytest.raises(ValueError, match="different quotient"):
        reduce_esystem(doubled_into_z4(), section=section)


def test_reduce_requires_regular_base():
    # The Klein zero ring's multiplier system is not permutable, so its
    # kernel is no bimodule over the cokernel.  The typed regularity error
    # names that before the kernel module is built.
    es = multiplier_esystem(zero_mult_klein(), name="mult_klein0")
    with pytest.raises(ESystemError) as e:
        reduce_esystem(es)
    assert e.value.condition == "not-regular"
    assert str(e.value) == "not-regular fails at ('permutability', (16, 2, 2))"


def test_a_system_keeps_one_cokernel_and_one_kernel_module(monkeypatch):
    # The system is the one route to its quotient and kernel module:
    # sections, kernel modules and reductions keep no copy, so sub3
    # accepts the cochains of two sections, and reducing, classifying,
    # enumerating and reducing a functor build the kernel module once.
    assert not hasattr(crossed, "induced_kernel_module")
    builds = []
    decompose = crossed.decompose_abelian
    monkeypatch.setattr(crossed, "decompose_abelian",
                        lambda *a: builds.append(a) or decompose(*a))
    es = multiplier_esystem(two_z8())
    rc_l = reduce_esystem(es, section=choose_section(es))
    rc_g = reduce_esystem(es, section=greatest_section(es))
    assert not hasattr(rc_l.section, "quotient") and not hasattr(es.kernel_module, "quotient")
    assert not hasattr(rc_l, "kernel_module")
    assert rc_l.ring is rc_g.ring is es.cokernel.ring
    assert rc_l.module is rc_g.module is es.kernel_module.module
    assert sub3(rc_l.k, rc_g.k).module is es.kernel_module.module
    q = es.cokernel.ring
    psi = RingHom(q, q, [0, 0, 2, 2])
    assert extension_obstruction(es, q, psi).count == len(enumerate_extensions(es, q, psi)) == 4
    reduce_functor(functor_from_morphism(identity_morphism(es)), rc_l, rc_g)
    assert len(builds) == 1


def test_reduce_flat_system_is_trivial():
    es = identity_action_z2()
    for sec in (choose_section(es), greatest_section(es)):
        rc = reduce_esystem(es, section=sec)
        assert rc.ring.order == 2
        assert rc.module.order == 2
        assert rc.k.is_zero()


def test_reduce_trivial_kernel():
    rc = reduce_esystem(identity_esystem(zmod(4)))
    assert rc.ring.order == 1
    assert rc.module.order == 1
    assert rc.k.is_zero()


def test_reduce_d2b_both_flavours_vanish():
    es = doubled_into_z4()
    for sec in (choose_section(es), greatest_section(es)):
        rc = reduce_esystem(es, section=sec)
        assert rc.ring.order == 2 and rc.module.order == 2
        assert rc.k.is_zero()


def slow_obstruction(es, sec, km):
    """Scalar recomputation of the five tables straight from the section."""
    rq = es.cokernel.ring
    bb, dd = es.b, es.d_ring
    n = rq.order
    b_to_m = km.b_to_m
    sig, fp, ft = sec.sigma, sec.fplus, sec.ftimes

    def bsum(*xs):
        acc = 0
        for x in xs:
            acc = int(bb.add[acc, int(x)])
        return acc

    def bneg(x):
        return int(bb.neg[int(x)])

    out = {nm: np.zeros((n, n, n), dtype=np.int64) for nm in ("xi", "ax", "ll", "rr")}
    eta = np.zeros((n, n), dtype=np.int64)
    for s in range(n):
        for r in range(n):
            eta[s, r] = b_to_m[bsum(fp[s, r], bneg(fp[r, s]))]
            for t in range(n):
                out["xi"][s, r, t] = b_to_m[
                    bsum(
                        fp[s, rq.add[r, t]],
                        fp[r, t],
                        bneg(fp[s, r]),
                        bneg(fp[rq.add[s, r], t]),
                    )
                ]
                out["ax"][s, r, t] = b_to_m[
                    bsum(
                        es.theta_left[sig[s], ft[r, t]],
                        bneg(ft[rq.mul[s, r], t]),
                        ft[s, rq.mul[r, t]],
                        bneg(es.theta_right[sig[t], ft[s, r]]),
                    )
                ]
                out["ll"][s, r, t] = b_to_m[
                    bsum(
                        ft[s, rq.add[r, t]],
                        bneg(ft[s, r]),
                        bneg(ft[s, t]),
                        es.theta_left[sig[s], fp[r, t]],
                        bneg(fp[rq.mul[s, r], rq.mul[s, t]]),
                    )
                ]
                out["rr"][s, r, t] = b_to_m[
                    bsum(
                        ft[rq.add[s, r], t],
                        bneg(ft[s, t]),
                        bneg(ft[r, t]),
                        es.theta_right[sig[t], fp[s, r]],
                        bneg(fp[rq.mul[s, t], rq.mul[r, t]]),
                    )
                ]
    return out["xi"], eta, out["ax"], out["ll"], out["rr"]


def test_reduce_multiplier_system_frozen_and_dual_route():
    es = multiplier_esystem(two_z8())
    km = es.kernel_module
    assert es.cokernel.ring.order == 4
    assert find_ring_isomorphism(es.cokernel.ring, dual_numbers(2)) is not None
    assert km.module.order == 2

    rc = reduce_esystem(es)
    # Only the right-distributor table survives: the class of a one-sided
    # multiplier acts by zero from the left but not from the right.
    assert not rc.k.is_zero()
    assert not rc.k.xi.any() and not rc.k.eta.any()
    assert not rc.k.alpha_x.any() and not rc.k.lambda_l.any()
    hits = {tuple(int(v) for v in w) for w in np.argwhere(rc.k.rho_r)}
    assert hits == {(s, r, t) for s in (2, 3) for r in (2, 3) for t in (1, 3)}
    assert rc.k.rho_r[2, 2, 1] == 1

    for sec in (choose_section(es), greatest_section(es)):
        rcf = reduce_esystem(es, section=sec)
        slow = slow_obstruction(es, rcf.section, km)
        for got, want in zip([t for t, _ in rcf.k.tables()], slow, strict=True):
            assert np.array_equal(got, want)


def test_section_difference_is_a_coboundary():
    systems = [identity_action_z2(), doubled_into_z4(), multiplier_esystem(two_z8())]
    for es in systems:
        rc_l = reduce_esystem(es)
        rc_g = reduce_esystem(es, section=greatest_section(es))
        verdict = is_coboundary3(sub3(rc_l.k, rc_g.k))
        assert verdict.is_coboundary


def random_image(module, rng):
    """d2 of a random normalised 2-cochain over `module`."""
    n = module.ring.order
    f = rng.integers(0, module.order, size=(n, n))
    g = rng.integers(0, module.order, size=(n, n))
    f[0] = f[:, 0] = g[0] = g[:, 0] = 0
    return d2(Cochain2(module, f, g))


# The corpus reductions with a quotient of order at least 2 and a nonzero
# kernel module, the ones whose d2-images are not all zero.
IMAGE_SYSTEMS = ["flat_z2", "flat_z3", "flat_z2_in_z4", "flat_klein0", "double_2z8", "mult_2z8"]


def test_reduced_checker_accepts_differential_images():
    systems = {es.name: es for es in corpus()}
    for name in IMAGE_SYSTEMS:
        rc = reduce_esystem(systems[name])
        assert rc.ring.order >= 2 and rc.module.order >= 2, name
        rng = np.random.default_rng(50)
        for _ in range(20):
            assert reduced_axiom_check(random_image(rc.module, rng)).ok, name


def test_reduced_checker_flags_tampering():
    es = multiplier_esystem(two_z8())
    rc = reduce_esystem(es)
    k = rc.k
    k.xi[1, 1, 1] = (k.xi[1, 1, 1] + 1) % rc.module.order
    report = reduced_axiom_check(k)
    assert not report.ok
    bad = report.failures()[0]
    assert bad.witness is not None


def test_reduce_functor_between_two_sections_of_one_system():
    es = doubled_into_z4()
    rc_l = reduce_esystem(es)
    rc_g = reduce_esystem(es, section=greatest_section(es))
    fun = functor_from_morphism(identity_morphism(es))

    same = reduce_functor(fun, rc_l, rc_l)
    assert same.g.is_zero()
    assert same.p.map.tolist() == [0, 1]
    assert same.q.tolist() == [0, 1]

    across = reduce_functor(fun, rc_l, rc_g)
    # fplus entries 1 versus 3 differ by the kernel element 2.
    assert across.g.f[1, 1] == es.kernel_module.b_to_m[2]


def test_reduce_functor_across_systems():
    src = doubled_into_z4()
    tgt = identity_action_z2()
    m = validate_morphism(src, tgt, np.zeros(4, dtype=np.int16), np.arange(4) % 2)
    fun = functor_from_morphism(m)
    rc_src = reduce_esystem(src)
    rc_tgt = reduce_esystem(tgt)
    rf = reduce_functor(fun, rc_src, rc_tgt)
    assert rf.p.map.tolist() == [0, 1]
    assert rf.q.tolist() == [0, 0]
    assert rf.g.is_zero()

    rc_tgt_g = reduce_esystem(tgt, section=greatest_section(tgt))
    rf2 = reduce_functor(fun, rc_src, rc_tgt_g)
    assert rf2.g.f[1, 1] == 1


# ---------------------------------------------------------------------------
# Internal checks of the reduction, each broken on purpose.  The system
# doubled_into_z4 has base 2Z/8 (carrier 0..3) with kernel {0, 2}, so the
# base element 1 lies outside the kernel.


def escaping_obstruction(m):
    defects = transport._defect3
    m.setattr(transport, "_defect3", lambda *a: [t * 0 + 1 for t in defects(*a)])
    return functools.partial(reduce_esystem, doubled_into_z4()), (
        "obstruction value escapes the kernel")


def tampered_obstruction(m):
    defects = transport._defect3

    def tampered(*a):
        tables = defects(*a)
        tables[0][1, 1, 1] = 2  # xi(1, 1, 1) := the kernel element 2
        return tables

    m.setattr(transport, "_defect3", tampered)
    return functools.partial(reduce_esystem, doubled_into_z4()), (
        "reduced data breaks hexagon_add")


def identity_functor_data():
    """The identity functor of doubled_into_z4 and its system reduced
    along both sections, before any check is broken."""
    es = doubled_into_z4()
    fun = functor_from_morphism(identity_morphism(es))
    return fun, reduce_esystem(es), reduce_esystem(es, section=greatest_section(es))


def foreign_reduced_data(m):
    fun, _, _ = identity_functor_data()
    rc = reduce_esystem(doubled_into_z4())
    return functools.partial(reduce_functor, fun, rc, rc), (
        "reduced data of other systems than the functor's")


def split_class_map(m):
    fun, rc, rc_g = identity_functor_data()
    # Both sides read the system's one cokernel, with classes {0, 2} and
    # {1, 3}; an f0 sending 0 and 2 to different classes splits class 0.
    m.setattr(fun.morphism.f0, "map", np.array([0, 1, 1, 3]))
    return functools.partial(reduce_functor, fun, rc, rc_g), "class map splits on class 0"


def non_unital_class_map(m):
    fun, rc, rc_g = identity_functor_data()
    m.setattr(transport.RingHom, "unital", property(lambda self: False))
    return functools.partial(reduce_functor, fun, rc, rc_g), "class map is not unital"


def kernel_leaves_kernel(m):
    fun, rc, rc_g = identity_functor_data()
    km = rc_g.es.kernel_module
    m.setattr(km, "b_to_m", np.full_like(km.b_to_m, -1))
    return functools.partial(reduce_functor, fun, rc, rc_g), (
        "kernel does not map into the kernel")


def section_leaves_image(m):
    fun, rc, rc_g = identity_functor_data()
    m.setattr(transport, "_preimages", lambda mp, n: np.full(n, -1))
    return functools.partial(reduce_functor, fun, rc, rc_g), (
        "section difference leaves the image of d")


def comparison_leaves_kernel(m):
    fun, rc, rc_g = identity_functor_data()
    total = transport._sum
    # Every sum becomes the base element 1, which d sends to 2.
    m.setattr(transport, "_sum", lambda add, *terms: np.ones_like(total(add, *terms)))
    return functools.partial(reduce_functor, fun, rc, rc_g), (
        "comparison cochain leaves the kernel")


def broken_intertwining(m):
    fun, rc, rc_g = identity_functor_data()

    def wrong_d2(c):
        n = c.module.ring.order
        xi = np.zeros((n, n, n), dtype=np.int64)
        xi[1, 1, 1] = 1
        zero2 = np.zeros((n, n), dtype=np.int64)
        return Cochain3(c.module, xi, zero2, xi * 0, xi * 0, xi * 0)

    m.setattr(transport, "d2", wrong_d2)
    return functools.partial(reduce_functor, fun, rc, rc_g), (
        "reduction does not intertwine the obstructions")


@pytest.mark.parametrize("check", [
    escaping_obstruction, tampered_obstruction, foreign_reduced_data,
    split_class_map, non_unital_class_map, kernel_leaves_kernel, section_leaves_image,
    comparison_leaves_kernel, broken_intertwining,
], ids=lambda f: f.__name__)
def test_broken_checks_raise_without_assert(check, monkeypatch):
    # Each internal check raises AssertionError itself, so `python -O`
    # keeps it.
    call, message = check(monkeypatch)
    with pytest.raises(AssertionError) as e:
        call()
    assert str(e.value) == message


# ---------------------------------------------------------------------------
# The laws as data against the hand-built sums they replaced.


def reference_reduced_axiom_check(k):
    """The 14 laws as hand-built sums over full index grids, each side
    folded on its own and compared: the checker before its laws became
    data.  Same report, without the guard."""
    module, ring = k.module, k.ring
    n = ring.order
    xi, eta, ax, ll, rr = (tbl for tbl, _ in k.tables())
    ma, mn, mlft, mrgt = module.add, module.neg, module.left, module.right
    radd, rmul = ring.add, ring.mul
    ar = np.arange(n)
    x3, y3, z3 = ar[:, None, None], ar[None, :, None], ar[None, None, :]
    x4 = ar[:, None, None, None]
    y4 = ar[None, :, None, None]
    z4 = ar[None, None, :, None]
    t4 = ar[None, None, None, :]

    results: list[LawResult] = []

    def run(law, fn):
        lhs, rhs = fn()
        ok = lhs == rhs
        wit = None if ok.all() else _first_bad(ok)
        results.append(LawResult(law, wit is None, wit, int(ok.size)))

    run(
        "pentagon_add",
        lambda: (
            _sum(ma, xi[x4, y4, radd[z4, t4]], xi[radd[x4, y4], z4, t4]),
            _sum(ma, xi[y4, z4, t4], xi[x4, radd[y4, z4], t4], xi[x4, y4, z4]),
        ),
    )
    run("unit_add", lambda: (xi[:, 0, :], np.zeros((n, n), dtype=np.int64)))
    run("symmetry_inverse", lambda: (ma[eta, eta.T], np.zeros((n, n), dtype=np.int64)))
    run("symmetry_diagonal", lambda: (eta[ar, ar], np.zeros(n, dtype=np.int64)))
    run(
        "hexagon_add",
        lambda: (
            _sum(ma, xi[x3, y3, z3], eta[radd[x3, y3], z3], xi[z3, x3, y3]),
            _sum(ma, eta[y3, z3], xi[x3, z3, y3], eta[x3, z3]),
        ),
    )
    run(
        "pentagon_mul",
        lambda: (
            _sum(ma, ax[x4, y4, rmul[z4, t4]], ax[rmul[x4, y4], z4, t4]),
            _sum(ma, mlft[x4, ax[y4, z4, t4]], ax[x4, rmul[y4, z4], t4], mrgt[t4, ax[x4, y4, z4]]),
        ),
    )
    run(
        "left_distrib_add_assoc",
        lambda: (
            _sum(
                ma,
                ll[x4, y4, radd[z4, t4]],
                ll[x4, z4, t4],
                xi[rmul[x4, y4], rmul[x4, z4], rmul[x4, t4]],
            ),
            _sum(ma, mlft[x4, xi[y4, z4, t4]], ll[x4, radd[y4, z4], t4], ll[x4, y4, z4]),
        ),
    )
    run(
        "left_distrib_add_comm",
        lambda: (
            _sum(ma, ll[x3, y3, z3], eta[rmul[x3, y3], rmul[x3, z3]]),
            _sum(ma, mlft[x3, eta[y3, z3]], ll[x3, z3, y3]),
        ),
    )
    run(
        "right_distrib_add_assoc",
        lambda: (
            _sum(
                ma,
                rr[x4, radd[y4, z4], t4],
                rr[y4, z4, t4],
                xi[rmul[x4, t4], rmul[y4, t4], rmul[z4, t4]],
            ),
            _sum(ma, mrgt[t4, xi[x4, y4, z4]], rr[radd[x4, y4], z4, t4], rr[x4, y4, t4]),
        ),
    )
    run(
        "right_distrib_add_comm",
        lambda: (
            _sum(ma, rr[x3, y3, z3], eta[rmul[x3, z3], rmul[y3, z3]]),
            _sum(ma, mrgt[z3, eta[x3, y3]], rr[y3, x3, z3]),
        ),
    )
    run(
        "mul_assoc_left_distrib",
        lambda: (
            _sum(ma, ax[x4, y4, radd[z4, t4]], ll[rmul[x4, y4], z4, t4]),
            _sum(
                ma,
                mlft[x4, ll[y4, z4, t4]],
                ll[x4, rmul[y4, z4], rmul[y4, t4]],
                ax[x4, y4, z4],
                ax[x4, y4, t4],
            ),
        ),
    )
    run(
        "mul_assoc_right_distrib",
        lambda: (
            _sum(
                ma,
                ax[radd[x4, y4], z4, t4],
                mrgt[t4, rr[x4, y4, z4]],
                rr[rmul[x4, z4], rmul[y4, z4], t4],
            ),
            _sum(ma, rr[x4, y4, rmul[z4, t4]], ax[x4, z4, t4], ax[y4, z4, t4]),
        ),
    )
    run(
        "mul_assoc_mixed_distrib",
        lambda: (
            _sum(
                ma,
                ax[x4, radd[y4, z4], t4],
                mrgt[t4, ll[x4, y4, z4]],
                rr[rmul[x4, y4], rmul[x4, z4], t4],
            ),
            _sum(
                ma,
                mlft[x4, rr[y4, z4, t4]],
                ll[x4, rmul[y4, t4], rmul[z4, t4]],
                ax[x4, y4, t4],
                ax[x4, z4, t4],
            ),
        ),
    )

    def interchange():
        u, w, xx, yy = x4, y4, z4, t4
        p = rmul[u, xx]
        q = rmul[w, xx]
        rp = rmul[u, yy]
        sp = rmul[w, yy]
        mix = _sum(
            ma,
            mn[xi[p, q, radd[rp, sp]]],
            xi[q, rp, sp],
            eta[q, rp],
            mn[xi[rp, q, sp]],
            xi[p, rp, radd[q, sp]],
        )
        lhs = _sum(ma, ll[radd[u, w], xx, yy], rr[u, w, xx], rr[u, w, yy], mix)
        rhs = _sum(ma, rr[u, w, radd[xx, yy]], ll[u, xx, yy], ll[w, xx, yy])
        return lhs, rhs

    run("distrib_interchange", interchange)
    return CheckReport(f"reduced_{ring.name}", results, True)


def reports(report):
    return [(r.law, r.ok, r.witness, r.checked) for r in report.results]


def check_both(k):
    """reduced_axiom_check's report on k, after asserting that the
    reference gives the same laws, verdicts, witnesses and cell counts."""
    report = reduced_axiom_check(k)
    assert report.name == f"reduced_{k.ring.name}" and report.complete
    assert reports(report) == reports(reference_reduced_axiom_check(k))
    return report


def regular_reductions():
    return [reduce_esystem(es) for es in corpus() if crossed.is_regular(es)]


def test_coherence_laws_match_the_reference_on_the_corpus_and_mutations():
    rcs = regular_reductions()
    assert len(rcs) == 13
    rng = np.random.default_rng(26)
    mutated = failed = 0
    for rc in rcs:
        assert check_both(rc.k).ok
        n, m = rc.ring.order, rc.module.order
        if n < 2 or m < 2:
            continue  # no nonzero argument or no other value
        for i in range(60):
            tables = [t.copy() for t, _ in rc.k.tables()]
            for _ in range(1 + i % 2):
                t = tables[rng.integers(5)]
                at = tuple(rng.integers(1, n, size=t.ndim))
                t[at] = rc.module.add[t[at], rng.integers(1, m)]
            failed += not check_both(Cochain3(rc.module, *tables)).ok
            mutated += 1
    assert mutated == 6 * 60 and failed > mutated // 2
    # The systems mutated here are those whose d2-images are tested.
    assert [rc.es.name for rc in rcs if rc.ring.order >= 2 and rc.module.order >= 2] == (
        IMAGE_SYSTEMS)


def test_coherence_laws_match_the_reference_at_zero_arguments():
    # Cochain3 refuses a table that is nonzero at a zero argument, so these
    # cells are changed in place, after validation.
    for rc in regular_reductions():
        n, m = rc.ring.order, rc.module.order
        if n < 2 or m < 2:
            continue
        for i, (t, _) in enumerate(rc.k.tables()):
            for axis in range(t.ndim):
                k = Cochain3(rc.module, *(u.copy() for u, _ in rc.k.tables()))
                at = [1] * t.ndim
                at[axis] = 0
                k.tables()[i][0][tuple(at)] = 1
                assert not check_both(k).ok
        k = Cochain3(rc.module, *(u.copy() for u, _ in rc.k.tables()))
        k.xi[1, 0, 1] = 1
        (bad,) = [r for r in check_both(k).results if r.law == "unit_add"]
        assert (bad.ok, bad.witness) == (False, (1, 1))


def test_coherence_laws_match_the_reference_on_the_classify_pullbacks():
    rng = np.random.default_rng(2026)
    triples = classify_triples()
    for label, psi, rc in triples:
        pulled = pullback_module(psi, rc.module)
        assert check_both(pullback(psi, rc.k, pulled)).ok, label
        for _ in range(3):
            assert check_both(random_image(pulled, rng)).ok, label
