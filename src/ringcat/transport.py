"""Reduction of an action system to data over the cokernel of its
structure map.

A section lifts each cokernel class back into the target ring, picking a
definite representative with the zero and unit classes pinned.  The lift
fails to be additive or multiplicative by base-valued defect tables, and
those defects in turn fail five coherence comparisons by kernel-valued
tables.  Together the five tables form a degree-three cochain whose class
does not depend on any of the choices; `reduce_esystem` materialises it
and `reduced_axiom_check` verifies the 14 coherence laws it must satisfy.
Each law is stated once, as data in the term format of `_defect3`'s plan,
and checked one term at a time over its grid: a flat plan like
`_defect3`'s would hold n^4 indices per term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ablin import CELL_LIMIT, _guard
from .anncat import AnnFunctor, CheckReport, LawResult
from .cohomology import (
    Cochain2,
    Cochain3,
    _defect3,
    _map_codes,
    _map_table,
    d2,
    pullback,
    pullback_module,
    sub3,
)
from .crossed import Bimodule, ESystem, _require_regular
from .rings import FiniteRing, RingHom, _first_bad, _lift_defects, _preimages, _sum


@dataclass(eq=False)
class Section:
    """A lift of the cokernel `es.cokernel` into the target ring plus its
    two defects.

    `sigma` maps classes to target-ring elements, `fplus` and `ftimes`
    are base-valued and push forward to the additive and multiplicative
    failures of `sigma`.
    """

    es: ESystem
    sigma: np.ndarray
    fplus: np.ndarray
    ftimes: np.ndarray


def validate_section(es: ESystem, sigma, fplus, ftimes) -> Section:
    quo = es.cokernel
    rq, dd, bb = quo.ring, es.d_ring, es.b
    n = rq.order
    sigma = np.asarray(sigma, dtype=np.int64)
    fplus = np.asarray(fplus, dtype=np.int64)
    ftimes = np.asarray(ftimes, dtype=np.int64)
    if sigma.shape != (n,) or fplus.shape != (n, n) or ftimes.shape != (n, n):
        raise ValueError("section tables have the wrong shape")
    if sigma.min() < 0 or sigma.max() >= dd.order:
        raise ValueError("sigma entry out of range")
    if fplus.min() < 0 or fplus.max() >= bb.order or ftimes.min() < 0 or ftimes.max() >= bb.order:
        raise ValueError("defect entry out of range")
    proj = quo.projection.map
    if not (proj[sigma] == np.arange(n)).all():
        raise ValueError("sigma does not pick representatives")
    if sigma[0] != 0:
        raise ValueError("sigma must lift the zero class to zero")
    if rq.unit is None or dd.unit is None:
        raise ValueError("a section needs a unital target and quotient")
    # In the zero quotient the unit class is the zero class and stays at 0.
    if rq.unit != 0 and sigma[rq.unit] != dd.unit:
        raise ValueError("sigma must lift the unit class to the unit")

    dm = es.d.map.astype(np.int64)
    want_add, want_mul = _lift_defects(dd, sigma, rq)
    ok = dm[fplus] == want_add
    if not ok.all():
        raise ValueError(f"additive defect misses its class at {_first_bad(ok)}")
    ok = dm[ftimes] == want_mul
    if not ok.all():
        raise ValueError(f"multiplicative defect misses its class at {_first_bad(ok)}")

    if fplus[0].any() or fplus[:, 0].any():
        raise ValueError("additive defect must vanish when an argument is zero")
    u = rq.unit
    if ftimes[0].any() or ftimes[:, 0].any() or ftimes[u].any() or ftimes[:, u].any():
        raise ValueError("multiplicative defect must vanish at zero and unit slots")
    return Section(es, sigma, fplus, ftimes)


def choose_section(es: ESystem) -> Section:
    """Deterministic section: least class representatives and defect
    preimages, except where normalisation forces the value."""
    rq, dd = es.cokernel.ring, es.d_ring
    sigma = _preimages(es.cokernel.projection.map, rq.order)
    sigma[rq.unit] = dd.unit
    sigma[0] = 0

    pre = _preimages(es.d.map, dd.order)
    want_add, want_mul = _lift_defects(dd, sigma, rq)
    fplus, ftimes = pre[want_add], pre[want_mul]
    for tbl, edges in ((fplus, [0]), (ftimes, [0, rq.unit])):
        tbl[edges, :] = 0
        tbl[:, edges] = 0
    return validate_section(es, sigma, fplus, ftimes)


@dataclass(eq=False)
class ReducedAnnCat:
    """Quotient ring, kernel module, and the obstruction cochain of one
    section of an action system; `ring` and `module` are those of
    `es.cokernel` and `es.kernel_module`."""

    ring: FiniteRing
    module: Bimodule
    k: Cochain3
    es: ESystem
    section: Section


def reduce_esystem(es: ESystem, section: Section | None = None) -> ReducedAnnCat:
    # A non-regular system has no reduction: its kernel is not a bimodule
    # over the cokernel.  Say so with the typed error before building it.
    _require_regular(es)
    km = es.kernel_module
    if section is None:
        section = choose_section(es)
    elif not np.array_equal(section.es.cokernel.projection.map, es.cokernel.projection.map):
        raise ValueError("section lives over a different quotient presentation")
    rq = es.cokernel.ring
    bb = es.b
    sig = section.sigma
    defects = _defect3(
        bb.add, bb.neg, es.theta_left[sig], es.theta_right[sig], rq, section.fplus,
        section.ftimes,
    )

    tables = [km.b_to_m[tbl] for tbl in defects]
    if not all((t >= 0).all() for t in tables):
        raise AssertionError("obstruction value escapes the kernel")
    k = Cochain3(km.module, *tables)
    report = reduced_axiom_check(k)
    if not report.ok:
        raise AssertionError(f"reduced data breaks {report.failures()[0].law}")
    return ReducedAnnCat(rq, km.module, k, es, section)


def _coherence_laws(ring: FiniteRing):
    """The 14 reduced coherence laws over `ring` as data, in check order:
    (law, terms) pairs, each law saying that its terms sum to zero.

    A term is (table, args, map), as in `cohomology._defect3_plan`: table
    0 to 4 of the cochain (xi, eta, alpha_x, lambda_l, rho_r) read at the
    index arrays `args`, broadcast over the law's grid, and sent through
    row `map` of `cohomology._map_table`.  Each law is written below as
    lhs = rhs and stored as lhs - rhs: the rhs terms take negated maps.
    """
    n = ring.order
    radd, rmul = ring.add.astype(np.intp), ring.mul.astype(np.intp)
    ident, neg, left, right, minus = _map_codes(n)

    def table(i):
        return lambda *args, m=ident: (i, args, m)

    xi, eta, ax, ll, rr = map(table, range(5))
    ar = np.arange(n)
    x, y, z, t = np.ix_(ar, ar, ar, ar)
    a, b, c = np.ix_(ar, ar, ar)
    p, q = np.ix_(ar, ar)
    # Products of x or y with z or t, which several laws read.
    xz, yz, xt, yt = rmul[x, z], rmul[y, z], rmul[x, t], rmul[y, t]
    laws = (
        ("pentagon_add", [xi(x, y, radd[z, t]), xi(radd[x, y], z, t)],
         [xi(y, z, t), xi(x, radd[y, z], t), xi(x, y, z)]),
        ("unit_add", [xi(p, 0, q)], []),
        ("symmetry_inverse", [eta(p, q), eta(q, p)], []),
        ("symmetry_diagonal", [eta(ar, ar)], []),
        ("hexagon_add", [xi(a, b, c), eta(radd[a, b], c), xi(c, a, b)],
         [eta(b, c), xi(a, c, b), eta(a, c)]),
        ("pentagon_mul", [ax(x, y, rmul[z, t]), ax(rmul[x, y], z, t)],
         [ax(y, z, t, m=left(x)), ax(x, rmul[y, z], t), ax(x, y, z, m=right(t))]),
        ("left_distrib_add_assoc", [ll(x, y, radd[z, t]), ll(x, z, t), xi(rmul[x, y], xz, xt)],
         [xi(y, z, t, m=left(x)), ll(x, radd[y, z], t), ll(x, y, z)]),
        ("left_distrib_add_comm", [ll(a, b, c), eta(rmul[a, b], rmul[a, c])],
         [eta(b, c, m=left(a)), ll(a, c, b)]),
        ("right_distrib_add_assoc", [rr(x, radd[y, z], t), rr(y, z, t), xi(xt, yt, rmul[z, t])],
         [xi(x, y, z, m=right(t)), rr(radd[x, y], z, t), rr(x, y, t)]),
        ("right_distrib_add_comm", [rr(a, b, c), eta(rmul[a, c], rmul[b, c])],
         [eta(a, b, m=right(c)), rr(b, a, c)]),
        ("mul_assoc_left_distrib", [ax(x, y, radd[z, t]), ll(rmul[x, y], z, t)],
         [ll(y, z, t, m=left(x)), ll(x, yz, yt), ax(x, y, z), ax(x, y, t)]),
        ("mul_assoc_right_distrib",
         [ax(radd[x, y], z, t), rr(x, y, z, m=right(t)), rr(xz, yz, t)],
         [rr(x, y, rmul[z, t]), ax(x, z, t), ax(y, z, t)]),
        ("mul_assoc_mixed_distrib",
         [ax(x, radd[y, z], t), ll(x, y, z, m=right(t)), rr(rmul[x, y], xz, t)],
         [rr(y, z, t, m=left(x)), ll(x, yt, rmul[z, t]), ax(x, y, t), ax(x, z, t)]),
        ("distrib_interchange",
         [ll(radd[x, y], z, t), rr(x, y, z), rr(x, y, t), xi(xz, yz, radd[xt, yt], m=neg),
          xi(yz, xt, yt), eta(yz, xt), xi(xt, yz, yt, m=neg), xi(xz, xt, radd[yz, yt])],
         [rr(x, y, radd[z, t]), ll(x, z, t), ll(y, z, t)]),
    )
    return tuple(
        (law, tuple(lhs) + tuple((tbl, args, minus(m)) for tbl, args, m in rhs))
        for law, lhs, rhs in laws
    )


def reduced_axiom_check(k: Cochain3) -> CheckReport:
    """The coherence laws `_coherence_laws` of the reduced obstruction
    cochain k, over k's module and ring.

    A law holds where its terms sum to zero, and a failing law reports
    the first witness in C order of its grid.  Each term is gathered over
    the whole grid, sent through its row of the module's `_map_table` and
    folded into a running sum with `module.add`, so about three grids of
    values exist at once: a peak of 22 MB at n = 32.  The laws are not
    compiled into one flat plan of gathered indices, as `_defect3`'s are:
    that would hold n^4 indices for each of the 52 terms of the quartic
    laws, 436 MB at n = 32.  Guarded by the cells of one quartic grid.
    """
    ring, module = k.ring, k.module
    _guard(ring.order**4, "coherence grid cells", CELL_LIMIT)
    tables = [tbl for tbl, _ in k.tables()]
    maps, add = _map_table(module.neg, module.left, module.right), module.add
    ident, neg, *_ = _map_codes(ring.order)
    # Each table through id and through neg, gathered once per call, so
    # the terms through either (60 of 70) take one gather each.
    fixed = {(i, m): maps[m][tbl] for i, tbl in enumerate(tables) for m in (ident, neg)}
    results: list[LawResult] = []
    for law, terms in _coherence_laws(ring):
        acc = None
        for tbl, args, m in terms:
            v = fixed[tbl, m][args] if type(m) is int else maps[m, tables[tbl][args]]
            acc = v if acc is None else add[acc, v]
        ok = acc == 0
        wit = None if ok.all() else _first_bad(ok)
        results.append(LawResult(law, wit is None, wit, int(ok.size)))
    return CheckReport(f"reduced_{ring.name}", results, True)


@dataclass(eq=False)
class ReducedFunctor:
    """Image of a functor after reduction on both sides: a quotient-ring
    map, a kernel-module map over it, and the comparison 2-cochain."""

    p: RingHom
    q: np.ndarray
    g: Cochain2
    source: ReducedAnnCat
    target: ReducedAnnCat


def reduce_functor(fun: AnnFunctor, rc_src: ReducedAnnCat, rc_tgt: ReducedAnnCat) -> ReducedFunctor:
    """Push a functor down to the quotient data on both sides.

    The comparison cochain g measures how far the functor is from
    matching the chosen sections; it ties the two obstruction cochains
    together by q*k - p*k' = d2(g), which is checked.
    """
    m = fun.morphism
    if not (rc_src.es is m.source and rc_tgt.es is m.target):
        raise AssertionError("reduced data of other systems than the functor's")
    f1 = m.f1.map.astype(np.int64)
    f0 = m.f0.map.astype(np.int64)
    es2 = m.target
    b2, d2r = es2.b, es2.d_ring
    rq, rq2 = rc_src.ring, rc_tgt.ring
    proj2 = es2.cokernel.projection.map.astype(np.int64)
    src_proj = m.source.cokernel.projection.map.astype(np.int64)

    # The class map must not depend on the representative.
    comp = proj2[f0]
    for cls in range(rq.order):
        vals = comp[src_proj == cls]
        if not (vals == vals[0]).all():
            raise AssertionError(f"class map splits on class {cls}")
    p = RingHom(rq, rq2, comp[rc_src.section.sigma])
    if not p.unital:
        raise AssertionError("class map is not unital")

    b_to_m2 = es2.kernel_module.b_to_m
    q = b_to_m2[f1[m.source.kernel_module.carrier]]
    if not (q >= 0).all():
        raise AssertionError("kernel does not map into the kernel")

    sig, sig2 = rc_src.section.sigma, rc_tgt.section.sigma
    f0sig = f0[sig]
    # t1[s] is the least d-preimage of sig2(p(s)) - f0(sig(s)).
    t1 = _preimages(es2.d.map, d2r.order)[d2r.add[sig2[p.map], d2r.neg[f0sig]]]
    if not (t1 >= 0).all():
        raise AssertionError("section difference leaves the image of d")

    fp, ft = rc_src.section.fplus, rc_src.section.ftimes
    fp2, ft2 = rc_tgt.section.fplus, rc_tgt.section.ftimes
    pm = p.map.astype(np.int64)
    ix = np.ix_(pm, pm)
    bneg2 = b2.neg
    tau = _sum(
        b2.add,
        f1[fp],
        bneg2[fp2[ix]],
        t1[:, None],
        t1[None, :],
        bneg2[t1[rq.add]],
        np.int64(fun.add_defect),
    )
    nu = _sum(
        b2.add,
        f1[ft],
        bneg2[ft2[ix]],
        bneg2[t1[rq.mul]],
        np.int64(fun.mul_defect),
        b2.mul[t1[:, None], t1[None, :]],
        es2.theta_right[f0sig[None, :], t1[:, None]],
        es2.theta_left[f0sig[:, None], t1[None, :]],
    )
    g_f = b2.add[tau, bneg2[np.int64(fun.add_defect)]]
    g_g = b2.add[nu, bneg2[np.int64(fun.mul_defect)]]
    dm2 = es2.d.map.astype(np.int64)
    if dm2[g_f].any() or dm2[g_g].any():
        raise AssertionError("comparison cochain leaves the kernel")

    pulled = pullback_module(p, rc_tgt.module)
    g = Cochain2(pulled, b_to_m2[g_f], b_to_m2[g_g])
    qk = Cochain3(pulled, *(q[tbl] for tbl, _ in rc_src.k.tables()))
    pk = pullback(p, rc_tgt.k, pulled)
    if not sub3(qk, pk).equals(d2(g)):
        raise AssertionError("reduction does not intertwine the obstructions")
    return ReducedFunctor(p, q, g, rc_src, rc_tgt)
