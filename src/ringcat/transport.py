"""Reduction of an action system to data over the cokernel of its
structure map.

A section lifts each cokernel class back into the target ring, picking a
definite representative with the zero and unit classes pinned.  The lift
fails to be additive or multiplicative by base-valued defect tables, and
those defects in turn fail five coherence comparisons by kernel-valued
tables.  Together the five tables form a degree-three cochain whose class
does not depend on any of the choices; `reduce_esystem` materialises it
and `reduced_axiom_check` verifies the identities it must satisfy.
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


def choose_section(es: ESystem, flavor: str = "least") -> Section:
    """Deterministic section: least (or greatest) class representatives and
    defect preimages, except where normalisation forces the value."""
    if flavor not in ("least", "greatest"):
        raise ValueError(f"section flavor must be least or greatest, got {flavor!r}")
    last = flavor == "greatest"
    rq, dd = es.cokernel.ring, es.d_ring
    sigma = _preimages(es.cokernel.projection.map, rq.order, last)
    sigma[rq.unit] = dd.unit
    sigma[0] = 0

    pre = _preimages(es.d.map, dd.order, last)
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
    report = reduced_axiom_check(rq, km.module, k)
    if not report.ok:
        raise AssertionError(f"reduced data breaks {report.failures()[0].law}")
    return ReducedAnnCat(rq, km.module, k, es, section)


def reduced_axiom_check(ring: FiniteRing, module: Bimodule, k: Cochain3) -> CheckReport:
    """All coherence identities a reduced obstruction cochain must satisfy.

    Each law compares two table expressions over full index grids; a
    failing law reports the first witness in scan order.  Guarded by the
    cells of one quartic grid.
    """
    n = ring.order
    _guard(n**4, "coherence grid cells", CELL_LIMIT)
    if not (k.module is module and module.ring is ring):
        raise AssertionError("the cochain lives over another module or ring")
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
