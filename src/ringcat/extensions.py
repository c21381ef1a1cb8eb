"""Ring extensions that realise an action system as a two-sided ideal.

An extension is a unital ring holding the base of an action system
(B, D, d, theta) as an ideal, with a prescribed quotient ring and a
compatible map to the action target.  Choosing a set-lift of the
quotient casts the ring onto the product carrier B x Q, leaving behind a
factor system: one bimultiplication per quotient element plus additive
and multiplicative defect tables.  `crossed_product` rebuilds the extension
from a factor system, `enumerate_extensions` walks the degree-two
cohomology classes instead of raw tables, and
`exhaustive_extension_search` re-derives existence by a staged search
over all ring structures on the carrier, as an independent route for
tiny orders.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .ablin import CANDIDATE_LIMIT, CELL_LIMIT, _guard
from .bimult import _bimult_laws, _permutable, _row_lookup, enumerate_bimultiplications
from .cohomology import FunctorClassification, _defect3, _defect3_cells, _map_table, classify_functors
from .crossed import ESystem, ESystemError, _check_morphism, _require_regular
from .rings import (
    BLOCK_CELLS,
    FiniteRing,
    HomError,
    RingHom,
    SearchGuardError,
    WitnessError,
    _first_bad,
    _ideal_actions,
    _lift_defects,
    _preimages,
    _product_blocks,
    _sum,
    _sum_generators,
    _units,
    validate_ring,
)
from .transport import ReducedAnnCat, Section, choose_section, reduce_esystem


class ExtensionError(WitnessError):
    """An extension condition failed."""


class FactorSystemError(WitnessError):
    """A factor-system condition failed."""


# ---------------------------------------------------------------------------
# Extensions.


@dataclass(eq=False)
class Extension:
    """A unital ring with the base embedded as an ideal.

    `j` embeds the base, `p` projects onto the quotient, `eps` maps into
    the action target; `validate_extension` is the only constructor.
    """

    name: str
    base: ESystem
    ring: FiniteRing
    j: RingHom
    p: RingHom
    eps: RingHom

    @property
    def quotient(self) -> FiniteRing:
        return self.p.target

    def describe(self) -> str:
        return (
            f"extension {self.name}: order {self.ring.order} = "
            f"{self.base.b.order} x {self.quotient.order}"
        )


def validate_extension(base: ESystem, ring: FiniteRing, q: FiniteRing, j, p, eps,
                       name: str = "ext") -> Extension:
    """Check exactness, the ideal property and that the action system
    induced on (base, ring) maps to the given one by the identity on B and
    eps.  That system needs no law checked (j is injective and j(B) an
    ideal of a validated ring), and the morphism conditions run on j and
    eps as already built."""
    try:
        jh = RingHom(base.b, ring, j)
        ph = RingHom(ring, q, p)
        eh = RingHom(ring, base.d_ring, eps)
    except HomError as e:
        raise ExtensionError("structure-hom", str(e)) from e
    if not jh.is_injective():
        raise ExtensionError("embedding-injective", ())
    if not ph.is_surjective():
        raise ExtensionError("projection-surjective", ())
    kernel, image = set(ph.kernel_elements()), set(jh.image_elements())
    if kernel != image:
        raise ExtensionError("exactness", tuple(sorted(kernel ^ image)))
    if ring.unit is None:
        raise ExtensionError("unit", ())
    lt, rt = _ideal_actions(ring, jh.map)
    for mapped, side in ((lt, "left"), (rt, "right")):
        if (mapped < 0).any():
            x, bi = _first_bad(mapped >= 0)
            raise ExtensionError(f"ideal-{side}", (x, int(jh.map[bi])))
    try:
        _check_morphism(jh, base.d, (lt, rt), (base.theta_left, base.theta_right),
                        np.arange(base.b.order), eh)
    except ESystemError as e:
        raise ExtensionError("target-compatibility", str(e)) from e
    return Extension(name, base, ring, jh, ph, eh)


def induced_psi(ext: Extension) -> RingHom:
    """The quotient-level map carried by eps, checked over every preimage.

    Well-definedness is automatic (eps sends the ideal into the image of
    the structure map), but the check is kept as part of the contract.
    """
    quo = ext.base.cokernel
    vals = quo.projection.map[ext.eps.map]
    q, pm = ext.quotient, ext.p.map
    # psi(u) is read off the least preimage of u; every other preimage must agree.
    psi = vals[_preimages(pm, q.order)]
    ok = vals == psi[pm]
    if not ok.all():
        x = _first_bad(ok)[0]
        raise ExtensionError("induced-map", (int(pm[x]), x))
    h = RingHom(q, quo.ring, psi)
    if not h.unital:
        raise ExtensionError("induced-unit", (int(psi[q.unit]),))
    return h


# ---------------------------------------------------------------------------
# Factor systems.


@dataclass(eq=False)
class FactorSystem:
    """Defect tables left on b x q by a set-lift of q into an extension.

    Row u of `act_left`/`act_right` is the bimultiplication through
    which u acts on b; `f` and `g` absorb the additive and
    multiplicative failures of the lift.  `validate_factor_system` is
    the only constructor.
    """

    b: FiniteRing
    q: FiniteRing
    act_left: np.ndarray
    act_right: np.ndarray
    f: np.ndarray
    g: np.ndarray


def _flat(b_elem: int, u: int, nb: int) -> int:
    # Carrier layout for crossed products: (b, u) sits at u*nb + b.
    return u * nb + b_elem


# The zero that ends validate_factor_system's copy [act_left | act_right |
# f | g | 0], and the (left, right) axis of its inner-bimultiplication gather.
_ZERO16 = np.zeros(1, dtype=np.int16)
_SIDES = np.arange(2)[None, :, None, None]


def validate_factor_system(b: FiniteRing, q: FiniteRing, act_left, act_right, f, g) -> FactorSystem:
    """Check a factor system on b x q in two stages; raise FactorSystemError
    with the first failing condition and its first witness in C order.

    The checks run in a fixed order: the quotient's unit, the shape and
    range of each table, the normalisation of f and g, then the action
    stage, then the cocycle stage.

    - Action stage (`_action_stage`): each row is a bimultiplication (the
      first failing row, then the first law failing in it), row 0 is zero,
      the unit's row is the identity, and rows u <= v permute.  It also
      returns the f,g-free halves of the four action conditions, tables
      over (u, v, c): PL = l_u(c) + l_v(c) - l_{u+v}(c), PR the same on
      the right, ML = l_u(l_v(c)) - l_{uv}(c) and
      MR = ((c)r_u)r_v - (c)r_{uv}.
    - Cocycle stage, on every call: the five degree-3 conditions of (f, g),
      then the four action conditions, which hold where PL = f(u, v)*c,
      PR = c*f(u, v), ML = g(u, v)*c and MR = c*g(u, v).  In the additive
      group of b, PL = f(u, v)*c exactly where
      l_u(c) + l_v(c) - f(u, v)*c - l_{u+v}(c) = 0, and likewise for the
      other three, so each ok-grid is the one of the defect itself.

    Each group of conditions costs one reduction when it holds: the four
    tables' ranges (over one int16 copy [act_left | act_right | f | g | 0]
    viewed unsigned, so a negative entry reads as too large), the
    normalisation of f and g, the five degree-3 tables laid end to end
    (`cohomology._defect3_cells`, fed the copy's tail [f | g | 0]) and
    the four action conditions.  Only a group that fails is walked
    condition by condition, in the order above, for its first witness.

    The action stage depends on (b, q, act_left, act_right) alone and is
    memoised on exactly that: b and q by identity (a FiniteRing hashes by
    identity, and its tables are not changed after validation), the
    actions by the bytes of their int16 tables.  It keeps the 32 actions
    used last (`_action_stage` says what an entry holds and the memo's
    worst case).  A raise is never stored, so a memo hit stands for an
    action that passed, whose stage would pass again with the same
    tables, and a failing action is checked, and raises, on every call.
    So a hit changes no verdict and no witness.
    """
    if q.unit is None:
        raise FactorSystemError("quotient-unit", ())
    n, m = q.order, b.order
    al = np.asarray(act_left, dtype=np.int16)
    ar_ = np.asarray(act_right, dtype=np.int16)
    f = np.asarray(f, dtype=np.int16)
    g = np.asarray(g, dtype=np.int16)
    tables = ((al, (n, m), "act_left"), (ar_, (n, m), "act_right"), (f, (n, n), "f"),
              (g, (n, n), "g"))
    flat = None
    if all(tbl.shape == shape for tbl, shape, _ in tables):
        flat = np.concatenate((al, ar_, f, g, _ZERO16), axis=None)
    if flat is None or flat.view(np.uint16).max() >= m:
        for tbl, shape, nm in tables:
            if tbl.shape != shape:
                raise FactorSystemError(f"{nm}-shape", tbl.shape)
            if tbl.size and (tbl.min() < 0 or tbl.max() >= m):
                raise FactorSystemError(f"{nm}-range", ())
    fg = flat[2 * n * m :]
    defects = fg[:-1].reshape(2, n, n)
    if (defects[:, 0] | defects[:, :, 0]).any():
        for tbl, nm in ((f, "f"), (g, "g")):
            edge = np.zeros((n, n), dtype=bool)
            edge[0, :] |= tbl[0, :] != 0
            edge[:, 0] |= tbl[:, 0] != 0
            if edge.any():
                raise FactorSystemError(f"{nm}-normalisation", _first_bad(~edge))
    halves, maps, inner, _ = _action_stage(b, q, al.tobytes(), ar_.tobytes())

    if _defect3_cells(b.add, maps, q, fg[None]).any():
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
    # The action must be additive and multiplicative up to the inner
    # bimultiplications of the defect values: row (kind, side) of the
    # gather is b.mul[f], b.mul.T[f], b.mul[g], b.mul.T[g].
    ok = halves == inner[_SIDES, defects[:, None]].reshape(halves.shape)
    if not ok.all():
        names = ("action-additive-left", "action-additive-right",
                 "action-multiplicative-left", "action-multiplicative-right")
        for nm, cond in zip(names, ok, strict=True):
            if not cond.all():
                raise FactorSystemError(nm, _first_bad(cond))
    return FactorSystem(b, q, al, ar_, f, g)


@functools.lru_cache(maxsize=32)
def _action_stage(b: FiniteRing, q: FiniteRing, left: bytes, right: bytes):
    """The action stage of `validate_factor_system` on the int16 action
    tables with bytes `left` and `right`: raises its first failure, or
    returns the read-only (halves, maps, inner, part): the first three
    are what the cocycle stage reads, the last what `crossed_ring` reads.

    - halves, (4, n, n, m): PL, PR, ML and MR stacked;
    - maps, (4n + 2, m): `cohomology._map_table(b.neg, left, right)`;
    - inner, (2, m, m): b.mul and its transpose, row c of inner[0] being
      the inner left bimultiplication of c and of inner[1] the right one;
    - part, (N, N) with N = nm: the f,g-free part of the product on the
      carrier (`_carrier_product`), to which each cocycle adds its g.

    With n = |q|, m = |b| and int16 ring tables, an entry holds
    8n^2 m + 8(4n + 2)m + 4m^2 + 2N^2 bytes (maps is intp): 1.7 KB at
    n = m = 4 (part 512 B at N = 16) and 170 KB at n = m = 16 (part
    128 KB at N = 256).  So the 32 entries of the memo hold at most
    5.5 MB while both rings have at most 16 elements.
    """
    n, m = q.order, b.order
    al = np.frombuffer(left, dtype=np.int16).reshape(n, m)
    ar_ = np.frombuffer(right, dtype=np.int16).reshape(n, m)
    # Every row is a bimultiplication: the first failing row, then the
    # first condition failing in it.
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
    # Rows u <= v permute: u's left map around v's right map, then v's
    # left map around u's right map.
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

    badd, bneg, qa, qm = b.add, b.neg, q.add, q.mul
    arq = np.arange(n)
    halves = np.stack((
        _sum(badd, al[:, None, :], al[None, :, :], bneg[al[qa]]),
        _sum(badd, ar_[:, None, :], ar_[None, :, :], bneg[ar_[qa]]),
        badd[al[arq[:, None, None], al[None, :, :]], bneg[al[qm]]],
        badd[ar_[arq[None, :, None], ar_[arq[:, None, None], arm[None, None, :]]], bneg[ar_[qm]]],
    ))
    stage = (halves, _map_table(bneg, al, ar_), np.stack((b.mul, b.mul.T)),
             _carrier_product(b, q, al, ar_))
    for t in stage:
        t.flags.writeable = False
    return stage


@dataclass(frozen=True)
class _CarrierGrid:
    """The index grids and gathers of `crossed_tables` that depend on (b, q)
    alone, over the carrier e = u*|b| + a (`_flat`): `bp` and `qp` give
    each element's a and u, and the (e, e') tables hold q's sum and
    product scaled by |b| (`qadd`, `qmul`) and b's sum and product
    (`badd`, `bmul`) of the two elements' coordinates.  All read-only."""

    bp: np.ndarray
    qp: np.ndarray
    qadd: np.ndarray
    badd: np.ndarray
    bmul: np.ndarray
    qmul: np.ndarray


@functools.lru_cache(maxsize=32)
def _carrier_grid(b: FiniteRing, q: FiniteRing) -> _CarrierGrid:
    """The carrier grid of b x q, memoised on the two rings by identity for
    the 32 pairs used last.  With N = |b||q| and int16 ring tables an
    entry holds 8N^2 + 16N bytes: 33 KB at N = 64, 530 KB at N = 256.
    So the memo holds at most 17 MB while the carriers have at most 256
    elements."""
    nb, nq = b.order, q.order
    e = np.arange(nb * nq)
    bp, qp = e % nb, e // nb
    bi, bj = bp[:, None], bp[None, :]
    ui, uj = qp[:, None], qp[None, :]
    grid = _CarrierGrid(bp, qp, q.add[ui, uj] * nb, b.add[bi, bj], b.mul[bi, bj],
                        q.mul[ui, uj] * nb)
    for t in vars(grid).values():
        t.flags.writeable = False
    return grid


def _carrier_product(b: FiniteRing, q: FiniteRing, al, ar_) -> np.ndarray:
    """The f,g-free part of the product on b x q: at carrier elements
    (a, u) and (c, v) (`_flat`), ac + (a)r_v + l_u(c), an element of b.
    Leading axes of the actions stack them and lead the result."""
    grid = _carrier_grid(b, q)
    bi, bj = grid.bp[:, None], grid.bp[None, :]
    ui, uj = grid.qp[:, None], grid.qp[None, :]
    return b.add[b.add[grid.bmul, ar_[..., uj, bi]], al[..., ui, bj]]


def crossed_tables(b: FiniteRing, q: FiniteRing, act_left, act_right, f, g, part=None):
    """Addition and multiplication tables on b x q, with no validity checks.

    Feeding tables that break the factor-system conditions is allowed;
    validating the result as a ring then locates the concrete broken
    triple.
    The inputs may carry leading axes, a stack of factor data; each table
    then carries those of the inputs it reads (f for addition; the
    actions and g for multiplication).  What depends on (b, q) alone comes
    from `_carrier_grid`.  The product is g(u, v) added to its f,g-free
    part (`_carrier_product`), which `part` gives when it is already
    built, as `_action_stage` keeps it for one action.
    """
    grid = _carrier_grid(b, q)
    if part is None:
        part = _carrier_product(b, q, np.asarray(act_left), np.asarray(act_right))
    qp = grid.qp
    f, g = np.asarray(f), np.asarray(g)
    add = grid.qadd + b.add[grid.badd, f.take(qp, axis=-2).take(qp, axis=-1)]
    mul = grid.qmul + b.add[part, g.take(qp, axis=-2).take(qp, axis=-1)]
    return add.astype(np.int16, copy=False), mul.astype(np.int16, copy=False)


def crossed_ring(fs: FactorSystem, name: str | None = None) -> FiniteRing:
    """The ring a factor system builds on b x q: the crossed product.

    On the carrier, (a, u) + (c, v) = (a + c + f(u, v), u + v) and
    (a, u)(c, v) = (ac + (a)r_v + l_u(c) + g(u, v), uv), with l_u and r_u
    the rows of the actions.  `validate_factor_system` is the only
    constructor of a FactorSystem, so b and q are validated rings and
    the action stage, the five degree-3 conditions and the four action
    conditions hold.  Those prove every ring law on the tables, so the
    ring is built from them without checking its laws again:

    - zero-element: f is normalised, so (0, 0) + (c, v) = (c, v).
    - add-commutative: additive-symmetry, f(u, v) = f(v, u), with the
      additions of b and q commutative.
    - add-associative: additive-cocycle,
      f(u, v) + f(u + v, w) = f(v, w) + f(u, v + w).
    - add-inverse: follows from the group laws; (-a - f(u, -u), -u) is
      the negative of (a, u).
    - distributive-left: expand (a, u)((c, v) + (c', v')) with b and q
      distributive.  l_u is additive (a row law of the bimultiplication)
      and (a)r_v + (a)r_v' = (a)r_{v+v'} + a f(v, v')
      (action-additive-right); what remains is left-distributivity,
      l_u(f(v, v')) + g(u, v + v') = g(u, v) + g(u, v') + f(uv, uv').
      distributive-right likewise, from the additive r_u,
      action-additive-left and right-distributivity.
    - mul-associative: expand ((a, u)(c, v))(e, w) and
      (a, u)((c, v)(e, w)) with b and q associative.  The row laws match
      (l_u(c))e with l_u(ce), (ac)r_w with a((c)r_w) and ((a)r_v)e with
      a(l_v(e)); permutability matches (l_u(c))r_w with l_u((c)r_w);
      action-multiplicative turns l_u(l_v(e)) into l_{uv}(e) + g(u, v)e
      and ((a)r_v)r_w into (a)r_{vw} + a g(v, w); what remains is the
      multiplicative cocycle, (g(u, v))r_w + g(uv, w)
      = l_u(g(v, w)) + g(u, vw).
    - unit: (-g(1, 1), 1).  action-multiplicative at (1, 1) makes
      g(1, 1) annihilate b on both sides, and the multiplicative cocycle
      at (1, 1, v) and (v, 1, 1) gives g(1, v) = (g(1, 1))r_v and
      g(v, 1) = l_v(g(1, 1)), so it is a unit on both sides.  It is
      still checked on the tables, on its own row and column: a
      two-sided identity is unique, so that is `rings._units(mul) == unit`
      without scanning every row.  A failure is an internal fault and
      raises AssertionError.

    Each entry is u*|b| + a with u in q and a in b, so the tables are in
    range by construction.  The tables are new arrays, made read-only as
    `validate_ring` makes its copies; the grids they are gathered from stay
    in `_carrier_grid`'s memo (at most 32 (b, q) pairs, 8N^2 + 16N bytes
    each on a carrier of N elements).  The product's f,g-free part is the
    action's, kept by the `_action_stage` memo that validated fs (built
    again, and passing again, if the action has left it since), so each
    cocycle only adds its g.
    """
    part = _action_stage(fs.b, fs.q, fs.act_left.tobytes(), fs.act_right.tobytes())[3]
    add, mul = crossed_tables(fs.b, fs.q, fs.act_left, fs.act_right, fs.f, fs.g, part)
    unit = _flat(int(fs.b.neg[fs.g[fs.q.unit, fs.q.unit]]), int(fs.q.unit), fs.b.order)
    carrier = np.arange(len(mul))
    if not ((mul[unit] == carrier).all() and (mul[:, unit] == carrier).all()):
        raise AssertionError(f"(-g(1, 1), 1) = {unit} is not the unit of the crossed product")
    add.flags.writeable = mul.flags.writeable = False
    return FiniteRing(name or f"{fs.b.name}_x_{fs.q.name}", add, mul, unit)


def _tables_equal(r1: FiniteRing, r2: FiniteRing) -> bool:
    return (
        r1.order == r2.order
        and np.array_equal(r1.add, r2.add)
        and np.array_equal(r1.mul, r2.mul)
        and r1.unit == r2.unit
    )


def _align_psi(psi: RingHom, q: FiniteRing, rq: FiniteRing) -> RingHom:
    # Rebuild the map against the context's ring objects; the tables
    # must agree because downstream code indexes with `psi.map` directly.
    for mine, given in ((q, psi.source), (rq, psi.target)):
        if mine is not given and not _tables_equal(mine, given):
            raise ExtensionError("quotient-presentation", (given.name, mine.name))
    if psi.source is q and psi.target is rq:
        return psi
    return RingHom(q, rq, psi.map)


def crossed_product(
    fs: FactorSystem,
    base: ESystem,
    psi: RingHom,
    section: Section | None = None,
    name: str | None = None,
) -> Extension:
    """Extension on `crossed_ring(fs)` from a factor system in a context.

    The context pins the compatible map into the action target as
    eps(b, u) = d(b) + l(u), where l lifts psi through the section except
    that l(1) = 1 is forced.  (The default section already sends the
    quotient's unit class to 1, so the forcing only matters when the
    cokernel is trivial and the unit class is the zero class.)  The
    defect tables must push forward, under d, to l's defects, so that eps
    is a ring map (`structure-hom`), and (0, u) must act as l(u) does, so
    that eps maps the induced system (`target-compatibility`).
    """
    if fs.b is not base.b:
        raise ExtensionError("factor-system-base", (fs.b.name, base.b.name))
    if section is None:
        section = choose_section(base)
    psi = _align_psi(psi, fs.q, base.cokernel.ring)
    ring = crossed_ring(fs, name=name)
    return _carrier_extension(base, ring, fs.q, _context_lift(base, section, psi),
                              name or ring.name)


def _context_lift(base: ESystem, section: Section, psi: RingHom) -> np.ndarray:
    """The lift of psi through the section, sigma(psi(u)), except that the
    unit of psi's source lifts to the unit of the action target."""
    lift = section.sigma[psi.map].copy()
    lift[psi.source.unit] = base.d_ring.unit
    return lift


def _carrier_extension(base: ESystem, ring: FiniteRing, q: FiniteRing, lift,
                       name: str) -> Extension:
    """The extension of base by q on the product carrier of `ring`, with
    (b, u) at `_flat(b, u, |b|)`: j(b) = (b, 0), p(b, u) = u and
    eps(b, u) = d(b) + lift(u)."""
    nb = base.b.order
    e = np.arange(ring.order)
    bp, qp = e % nb, e // nb
    eps = base.d_ring.add[base.d.map[bp], lift[qp]]
    return validate_extension(base, ring, q, np.arange(nb), qp, eps, name=name)


def factor_system_from_extension(ext: Extension, lifts=None) -> FactorSystem:
    """Read the defect tables off a set-lift of the quotient.

    Default lift: least preimage per class, except that 0 lifts to 0
    (automatic for the least lift) and a quotient unit other than 0 lifts
    to the ring unit.  Over the zero quotient no factor system exists (see
    `enumerate_extensions`): the unit's row, the zero class's, acts as 0,
    so the check raises action-unit at (0,) on a nonzero base.
    """
    e, q, b = ext.ring, ext.quotient, ext.base.b
    if lifts is None:
        lifts = _preimages(ext.p.map, q.order)
        if q.unit != 0:
            lifts[q.unit] = e.unit
    else:
        lifts = np.asarray(lifts, dtype=np.int64)
        if lifts.shape != (q.order,) or not (ext.p.map[lifts] == np.arange(q.order)).all():
            raise ExtensionError("lift-section", ())
        if lifts[0] != 0:
            raise ExtensionError("lift-zero", (int(lifts[0]),))
    jinv = _preimages(ext.j.map, e.order)
    f, g = (jinv[t] for t in _lift_defects(e, lifts, q))
    # Row u of each action table is how lifts[u] multiplies the base.
    left, right = _ideal_actions(e, ext.j.map)
    al, ar_ = left[lifts], right[lifts]
    for out, what in ((f, "additive defect"), (g, "multiplicative defect"),
                      (al, "left action"), (ar_, "right action")):
        if (out < 0).any():
            raise AssertionError(f"{what} leaves the embedded base")
    return validate_factor_system(b, q, al, ar_, f, g)


def equivalent(e1: Extension, e2: Extension, guard: int = CANDIDATE_LIMIT) -> RingHom | None:
    """Search for an equivalence: a ring isomorphism fixing the embedded
    base pointwise, covering the identity on the quotient and commuting
    with the maps into the action target.

    Any such map sends j1(b) + t1(u) to j2(b + c(u)) + t2(u) for some
    correction c: Q -> B with c(0) = 0, so the space has |B|^(|Q|-1)
    candidates.  Returns the isomorphism, or None once it is exhausted.

    The corrections are decoded in itertools.product order, a block at a
    time (`rings._product_blocks`, about 3*|E|^2 cells per candidate for
    the eps, addition and multiplication conditions on the ring E of e1),
    and each condition drops the candidates of the block that fail it.
    Dropping keeps the order, so the first candidate left in the first
    block with one is the map a one-correction-at-a-time walk returns.
    """
    if e1.base is not e2.base:
        raise ExtensionError("common-base", (e1.base.name, e2.base.name))
    b = e1.base.b
    q = e1.quotient
    if q is not e2.quotient and not _tables_equal(q, e2.quotient):
        raise ExtensionError("quotient-presentation", (e2.quotient.name, q.name))
    nb, nq = b.order, q.order
    _guard(nb ** (nq - 1), "candidate corrections", guard)
    r1, r2 = e1.ring, e2.ring
    if r1.order != r2.order:
        return None
    t1, t2 = _preimages(e1.p.map, nq), _preimages(e2.p.map, nq)
    jinv1 = _preimages(e1.j.map, r1.order)
    xs = np.arange(r1.order)
    u_of = np.asarray(e1.p.map, dtype=np.int64)
    b_of = jinv1[r1.add[xs, r1.neg[t1[u_of]]]]
    if (b_of < 0).any():
        raise AssertionError("an element less the lift of its class leaves the embedded base")
    j2m = np.asarray(e2.j.map, dtype=np.int64)
    eps1, eps2 = e1.eps.map, e2.eps.map
    add1, mul1, add2, mul2 = r1.add, r1.mul, r2.add, r2.mul
    for tails in _product_blocks([nb] * (nq - 1), 3 * r1.order**2):
        c = np.zeros((len(tails), nq), dtype=np.int64)
        c[:, 1:] = tails
        eta = add2[j2m[b.add[b_of, c[:, u_of]]], t2[u_of]]
        # j- and p-compatibility hold by construction; check the cheap
        # eps condition first, then the two homomorphism laws, each on
        # the candidates left.
        eta = eta[(eps2[eta] == eps1).all(axis=1)]
        for op1, op2 in ((add1, add2), (mul1, mul2)):
            eta = eta[(eta[:, op1] == op2[eta[:, :, None], eta[:, None, :]]).all(axis=(1, 2))]
        if len(eta):
            return RingHom(r1, r2, eta[0])
    return None


# ---------------------------------------------------------------------------
# Obstruction and enumeration.


def extension_obstruction(
    base: ESystem, q: FiniteRing, psi: RingHom, rc: ReducedAnnCat | None = None
) -> FunctorClassification:
    """Pull the reduced obstruction back along psi and decide bounding.

    The result carries either an unsolvability certificate or one
    comparison cochain per class; `enumerate_extensions` consumes the
    latter.
    """
    _require_regular(base)
    if rc is None:
        rc = reduce_esystem(base)
    psi = _align_psi(psi, q, rc.ring)
    return classify_functors(psi, rc)


def enumerate_extensions(
    base: ESystem,
    q: FiniteRing,
    psi: RingHom,
    rc: ReducedAnnCat | None = None,
    classification: FunctorClassification | None = None,
    name: str | None = None,
) -> list[Extension]:
    """One extension per cohomology class over psi; empty iff obstructed.

    Each comparison cochain lands in the kernel module; adding it to the
    transported section defects yields a factor system whose crossed
    product represents the class.  The representatives are checked to be
    pairwise inequivalent.

    Over the zero quotient, 0 = 1 in q, so no factor system exists: the
    zero class would have to act both as 0 and as the identity.  The one
    class is then the base ring itself, with j the identity, p zero and
    eps = d; it is unital, because d is onto and the system is regular.
    """
    _require_regular(base)
    if rc is None:
        rc = reduce_esystem(base)
    psi = _align_psi(psi, q, rc.ring)
    cls = classification if classification is not None else classify_functors(psi, rc)
    if not cls.vanishes:
        return []
    stem = name or f"{base.name}_by_{q.name}"
    if q.order == 1:
        return [_carrier_extension(base, base.b, q, np.zeros(1, dtype=np.int64), f"{stem}_0")]
    sec = rc.section
    carrier = np.asarray(rc.es.kernel_module.carrier, dtype=np.int64)
    dd = base.d_ring
    lift = _context_lift(base, sec, psi)
    al = base.theta_left[lift]
    ar_ = base.theta_right[lift]
    # Base defect tables for the unit-adjusted lift, as least d-preimages.
    # With a nontrivial cokernel the lift is the transported section and
    # these reproduce the section's own defect tables.
    least_pre = _preimages(base.d.map, dd.order)
    fp, ft = (least_pre[t] for t in _lift_defects(dd, lift, q))
    if (fp < 0).any() or (ft < 0).any():
        raise AssertionError("a defect of the lift has no d-preimage")
    out = []
    for i, c in enumerate(cls.classes):
        f = base.b.add[fp, carrier[c.f]]
        g = base.b.add[ft, carrier[c.g]]
        fs = validate_factor_system(base.b, q, al, ar_, f, g)
        out.append(crossed_product(fs, base, psi, section=sec, name=f"{stem}_{i}"))
    for i in range(len(out)):
        for k in range(i + 1, len(out)):
            if equivalent(out[i], out[k]) is not None:
                raise AssertionError(f"classes {i} and {k} collapse")
    return out


# ---------------------------------------------------------------------------
# Independent existence check by staged table search.


def exhaustive_extension_search(
    base: ESystem,
    q: FiniteRing,
    psi: RingHom,
    stop_at_first: bool = True,
    guard: int = CANDIDATE_LIMIT,
) -> list[Extension]:
    """Find extensions by staged search over ring structures on b x q.

    Independent of the cohomology route: every extension admits a
    presentation on the product carrier with block embedding and
    projection, so the stages below cover all ring tables of order
    |b|*|q| extending the data.  The stages:

    - symmetric associative additive defects f;
    - per f, per-class actions drawn from the bimultiplication ring on
      the additive generators of q and derived on every other class,
      kept if pairwise permutable and additive up to f;
    - per f and block of kept actions, one `_search_g_stage` call:
      multiplicative defects g pinned slotwise by the composite-action
      rows, enumerated on pairs of additive generators of q for all the
      block's actions together and solved on every other slot by the
      distributivity conditions;
    - a unit scan of the crossed tables of the surviving g together;
    - survivor by survivor, the search for a compatible map into the
      action target (`_target_lift`).

    Each stage filters its candidates a block at a time
    (`rings._product_blocks`) and passes the survivors on in
    itertools.product order, so the finds and their order are those of
    a one-candidate-at-a-time walk over every slot.  The f stage is
    built on demand: it filters a block only once the search has read
    every f of the block before (`_additive_defects`), so a search that
    finds in the first block filters no other.  That changes no guard:
    the f guard counts the whole product, nb^(|q|(|q|-1)/2), before any
    block is built; the action guard counts as described below; the g
    and target-lift guards count the candidates their stage generates.

    The per-ring tables are memoised by identity: the bimultiplication
    pool on b (`_bimult_pool`), its permutability mask and row lookup on
    b (`_pool_tables`), and the index tables of the action and g stages
    on q (`_quotient_grid`).  Each is built only after the guards before
    it: the pool after the f guard, the mask and lookup after the action
    guard and a guard on the npool^2 |b| cells of `bimult._permutable`
    that the mask reduces.  When that last guard refuses, the pool memo
    drops its entry: a pool that large fails the same guard on every
    search over b.

    The action stage walks only the generator classes.  An action
    additive up to f has l_i(c) + l_j(c) = f(i, j)*c + l_x(c) and
    (c)r_i + (c)r_j = c*f(i, j) + (c)r_x at x = i + j, so
    l_x = l_i + l_j - f(i, j)*(-) and r_x = r_i + r_j - (-)*f(i, j).  Let
    S be `grid.gens`; every other class x != 0 has one (x, i, j) in
    `grid.sums`, with 0 < i, j < x.  The stage decodes pool choices on S
    alone, npool^|S| per f, derives l_x and r_x in increasing x from the
    rows of i and j, and finds the derived pair in the pool by its bytes
    among the sorted keys of the pool's pairs (`bimult._row_lookup`,
    memoised on b).  The pair is always there: it is a sum of
    bimultiplications and of the inner one of -f(i, j), so it is a
    bimultiplication itself, and the pool holds every one.  The
    permutability filter and the full additivity check then run,
    unchanged, on every candidate.

    The survivors are the tuples of pool rows over all classes != 0 that
    pass both filters: no more, since both run, and no fewer, since such
    a tuple is additive up to f and so is derived from its own rows on
    S.  They come in that product's order.  A derived class reads only
    classes before it, so two survivors first differ at a class in S,
    and the decoding order over S is the order over all classes, as for
    the S x S slots of `_search_g_stage`.

    The action guard still counts npool^(|q|-1), the tuples of pool rows
    over all classes != 0: the space the stage covers, though it decodes
    only npool^|S| of it per f.  Counting the decoded candidates would
    admit searches that it refuses: `flat_klein0` over its order-4
    quotients, 256 bimultiplications and so 256^3 action tuples.
    """
    b = base.b
    nb, nq = b.order, q.order
    if q.unit is None:
        raise ExtensionError("quotient-unital", (q.name,))
    psi = _align_psi(psi, q, base.cokernel.ring)
    if not psi.unital:
        raise ExtensionError("psi-unital", (int(psi.map[q.unit]),))
    grid = _quotient_grid(q)
    qa = q.add

    _guard(nb ** (nq * (nq - 1) // 2), "additive defect candidates", guard)
    # Pool row 0 is the zero bimultiplication, the action of the zero class.
    pl, pr = _bimult_pool(b)
    npool = len(pl)
    _guard(npool ** (nq - 1), "action candidates", guard)
    try:
        _guard(npool * npool * nb, "permutability grid cells", CELL_LIMIT)
    except SearchGuardError:
        # A pool this large (8 MB over the square-zero ideal of
        # Z/2[x,y,z]/(x,y,z)^2) serves no later search over b either.
        _bimult_pool.cache_clear()
        raise
    perm_ok, pool_index = _pool_tables(b)

    gens = grid.gens
    results: list[Extension] = []
    c3b = np.arange(nb)[None, None, :]
    for f in _additive_defects(b, grid):
        fl3 = b.mul[f[:, :, None], c3b]
        fr3 = b.mul[c3b, f[:, :, None]]
        for choice in _product_blocks([npool] * len(gens), nq * nq * nb):
            acts = np.zeros((len(choice), nq), dtype=np.int64)
            acts[:, gens] = choice
            for x, i, j in grid.sums:
                acts[:, x] = pool_index(
                    b.add[b.add[pl[acts[:, i]], pl[acts[:, j]]], b.neg[b.mul[f[i, j]]]],
                    b.add[b.add[pr[acts[:, i]], pr[acts[:, j]]], b.neg[b.mul[:, f[i, j]]]],
                )
            acts = acts[perm_ok[acts[:, :, None], acts[:, None, :]].all(axis=(1, 2))]
            left, right = pl[acts], pr[acts]
            ok = (
                b.add[left[:, :, None], left[:, None]] == b.add[fl3, left[:, qa]]
            ).all(axis=(1, 2, 3))
            ok &= (
                b.add[right[:, :, None], right[:, None]] == b.add[fr3, right[:, qa]]
            ).all(axis=(1, 2, 3))
            found = _search_g_stage(
                base, grid, psi, f, left[ok], right[ok], guard, stop_at_first, results
            )
            if found and stop_at_first:
                return results
    return results


@dataclass(frozen=True)
class _QuotientGrid:
    """The index tables of the action and g stages that depend on q alone.

    `us`, `vs` list the slots (u, v), u, v != 0, in C order; `gens` is S,
    `rings._sum_generators(q.add)` without 0, and `free` marks the S x S
    slots; `sums` holds one (x, i, j) with x = i + j, 0 < i, j < x, for
    each x != 0 outside S, in increasing x; `u3`, `v3`, `w3` index
    q x q x q.  Built once per quotient ring (`_quotient_grid`).
    """

    q: FiniteRing
    us: np.ndarray
    vs: np.ndarray
    gens: np.ndarray
    free: np.ndarray
    sums: tuple
    u3: np.ndarray
    v3: np.ndarray
    w3: np.ndarray


@functools.lru_cache(maxsize=16)
def _quotient_grid(q: FiniteRing) -> _QuotientGrid:
    """The read-only quotient grid of q, memoised on q by identity for the
    16 rings used last.  With n = |q| an entry holds about
    17(n - 1)^2 + 170n bytes: 6 KB at n = 16, 1.15 MB at n = 256.  So
    the memo holds at most 18 MB while quotients have at most 256
    elements."""
    arq = np.arange(q.order)
    us, vs = (a.ravel() for a in np.meshgrid(arq[1:], arq[1:], indexing="ij"))
    gens = _sum_generators(q.add)
    gens = gens[gens != 0]
    sums = tuple((x, *np.argwhere(q.add[:x, :x] == x)[0]) for x in arq[1:] if x not in gens)
    grid = _QuotientGrid(
        q, us, vs, gens, np.isin(us, gens) & np.isin(vs, gens), sums,
        arq[:, None, None], arq[None, :, None], arq[None, None, :],
    )
    for t in (us, vs, gens, grid.free, grid.u3, grid.v3, grid.w3):
        t.flags.writeable = False
    return grid


def _additive_defects(b: FiniteRing, grid: _QuotientGrid):
    """The symmetric associative additive defects f over q = grid.q, in
    itertools.product order over the slots (u, v), 0 < u <= v: each
    `rings._product_blocks` block is filtered only once the one before
    it has been read."""
    q = grid.q
    nq = q.order
    u3, v3, w3, qa = grid.u3, grid.v3, grid.w3, q.add
    free_f = [(u, v) for u in range(1, nq) for v in range(u, nq)]
    fu, fv = np.array(free_f, dtype=np.int64).reshape(-1, 2).T
    for vals in _product_blocks([b.order] * len(free_f), nq**3):
        fs = np.zeros((len(vals), nq, nq), dtype=np.int16)
        fs[:, fu, fv] = vals
        fs[:, fv, fu] = vals
        lhs = b.add[fs[:, v3, w3], fs[:, u3, qa[v3, w3]]]
        rhs = b.add[fs[:, u3, v3], fs[:, qa[u3, v3], w3]]
        yield from fs[(lhs == rhs).all(axis=(1, 2, 3))]


@functools.lru_cache(maxsize=1)
def _bimult_pool(b: FiniteRing):
    """`enumerate_bimultiplications(b)`, read-only, memoised on b by
    identity for the last ring.  An entry holds 4|b| bytes per
    bimultiplication: 4 KB for the 256 of the Klein zero ring, 8 MB for
    the 262144 of the zero ring on (Z/2)^3, and at most 64 MB, the 10^6
    pairs that the pair guard of `enumerate_bimultiplications` admits at
    |b| = 16.  So the memo keeps one ring: the searches over one base
    and its quotients usually run in a row."""
    pool = enumerate_bimultiplications(b)
    for t in pool:
        t.flags.writeable = False
    return pool


@functools.lru_cache(maxsize=1)
def _pool_tables(b: FiniteRing):
    """Over the pool `_bimult_pool(b)`: the read-only mask perm_ok[s, t],
    rows s and t permute both ways, and the row lookup
    (`bimult._row_lookup`, a function that exposes no array).  Memoised
    on b by identity for the last ring, as the pool is.

    An entry holds npool^2 bytes of mask and npool(4|b| + 8) bytes of
    sorted keys and their order.  The search builds it only once its
    permutability guard has admitted npool^2 |b| <= 10^7 cells, so an
    entry holds at most 1.3 MB (at |b| = 8); a ring of order below 8 has
    at most 256 bimultiplications, as its additive group has at most 16
    endomorphisms, and an entry of at most 75 KB."""
    pl, pr = _bimult_pool(b)
    around = _permutable(pl, pr).all(axis=2)
    perm_ok = around & around.T
    perm_ok.flags.writeable = False
    return perm_ok, _row_lookup(pl, pr)


def _search_g_stage(base, grid, psi, f, left, right, guard, stop_at_first, results):
    """Inner stages of the exhaustive search for one f and a block of
    actions, row k of `left`/`right` being action k: multiplicative
    defects, unit scan, target map.  Appends finds to `results`, returns
    whether anything was appended.

    The composite-action rows pin each slot g(u, v), u, v != 0, to a set
    of options: the x with x*c = l_u(l_v(c)) - l_uv(c) and
    c*x = r_v(r_u(c)) - r_uv(c) for every c in b.  The stage does not
    walk the product of every slot's options.  Two of the conditions it
    checks are distributivity across the quotient, for all u, v, w:

        r_w(f(u, v)) + g(u+v, w) = g(u, w) + g(v, w) + f(uw, vw),
        l_u(f(v, w)) + g(u, v+w) = g(u, v) + g(u, w) + f(uv, uw).

    In the additive group of b, the first gives g(u+v, w) and the second
    g(u, v+w) from g at the summands and the fixed f and action.  Let S
    be `rings._sum_generators(q.add)` without 0.  Every other x != 0 is
    add[i, j] for some 0 < i, j < x (i = 0 would give x = j < x).  So a
    g satisfying both conditions is fixed by its S x S slots: first the
    rows x outside S on the columns in S, g(x, w) from rows i and j, in
    increasing x; then every column x outside S, g(u, x) from columns i
    and j, in increasing x.  The stage enumerates options only on the
    S x S slots, derives every other slot by those lookups, and keeps
    the derived tables that pass the three defect conditions.

    A derived slot always holds one of its options, so no option mask
    is tested there.  The action stage passes only actions with
    l_i(c) + l_j(c) = f(i, j)*c + l_x(c) and
    r_i(c) + r_j(c) = c*f(i, j) + r_x(c), and each pool row is a
    bimultiplication: l_w and r_w are additive, l_w(a*c) = l_w(a)*c,
    r_w(a*c) = a*r_w(c) and a*l_w(c) = r_w(a)*c.  With x = i + j and
    xw = iw + jw, the row rule and the options at (i, w) and (j, w) give

        g(x, w)*c = l_i(l_w c) - l_iw(c) + l_j(l_w c) - l_jw(c)
                    + f(iw, jw)*c - r_w(f(i, j))*c
                  = [f(i, j)*l_w(c) + l_x(l_w c)] - l_xw(c)
                    - f(i, j)*l_w(c)
                  = l_x(l_w c) - l_xw(c),
        c*g(x, w) = r_w(r_i c) - r_iw(c) + r_w(r_j c) - r_jw(c)
                    + c*f(iw, jw) - c*r_w(f(i, j))
                  = r_w(c*f(i, j) + r_x c) - r_xw(c) - c*r_w(f(i, j))
                  = r_w(r_x c) - r_xw(c).

    The column rule likewise, from the options at (u, i) and (u, j):
    l_u(l_i c) + l_u(l_j c) = l_u(f(i, j)*c + l_x c) = l_u(f(i, j))*c
    + l_u(l_x c) gives g(u, x)*c = l_u(l_x c) - l_ux(c), and
    r_i(r_u c) + r_j(r_u c) = r_u(c)*f(i, j) + r_x(r_u c)
    = c*l_u(f(i, j)) + r_x(r_u c) gives c*g(u, x) = r_x(r_u c) - r_ux(c).
    Each derived slot reads slots already holding options, so by
    induction every slot does.  The survivors are therefore exactly the
    g in the product of all slots' options that pass the conditions: no
    more, since the conditions are tested, and no fewer, since such a g
    is the derived table of its own S x S values.

    They also come in that product's order, slots in C order.  A derived
    slot reads only slots before it: (i, w) and (j, w) lie in earlier
    rows, (u, i) and (u, j) earlier in the same row.  So two survivors
    first differ at an S x S slot.  Options are ascending there, so the
    enumeration order over the S x S digits is the order over all slots.

    The whole block goes through each step at once.  The option masks
    of every action come first; an action with an empty slot has no
    candidate.  A nonempty slot's options are one coset of the two-sided
    annihilator Ann(b): x and x' are both options iff x - x' kills b on
    both sides.  So every action left has |Ann(b)| options in every
    slot, and the candidates of the block are decoded together with the
    action as the leading digit, so they come action by action, as one
    stage per action would give them.  The guard counts each action's
    S x S products; as these are equal, one over the guard is the first
    action left, and the stage raises before searching any.  The
    survivors of each decoded block then get their crossed tables and
    unit scan (`rings._units`) together, and the target lift in order.
    """
    b, q = base.b, grid.q
    nb, nq = b.order, q.order
    qa, qm = q.add, q.mul
    us, vs, gens, free = grid.us, grid.vs, grid.gens, grid.free

    # The composite-action rows pin each g(u, v) to the elements whose
    # inner bimultiplication matches the defect of the action product:
    # opts[k, s, x] for action k, slot s.
    step = max(1, BLOCK_CELLS // max(1, len(us) * nb * nb))
    opts = np.zeros((len(left), len(us), nb), dtype=bool)
    for lo in range(0, len(left), step):
        lt, rt = left[lo:lo + step], right[lo:lo + step]
        lrows = b.add[np.take_along_axis(lt[:, us], lt[:, vs], axis=2), b.neg[lt[:, qm[us, vs]]]]
        rrows = b.add[np.take_along_axis(rt[:, vs], rt[:, us], axis=2), b.neg[rt[:, qm[us, vs]]]]
        opts[lo:lo + step] = (b.mul == lrows[:, :, None, :]).all(axis=3) & (
            b.mul.T == rrows[:, :, None, :]
        ).all(axis=3)
    live = opts.any(axis=2).all(axis=1)
    if not live.any():
        return False
    opts, left, right = opts[live][:, free], left[live], right[live]
    counts = opts[0].sum(axis=1).tolist()
    # The guard counts the candidates generated: the S x S products, the
    # same for every action left.
    _guard(math.prod(counts), "multiplicative defect candidates", guard)
    # Column d of pick[k, s] is the d-th option of action k's free slot s,
    # options ascending.
    pick = np.argsort(~opts, axis=2, kind="stable")
    # The constant terms of both solved conditions, per action: rows on
    # the generator columns, then whole columns.
    row_terms = [
        b.add[f[qm[i, gens], qm[j, gens]], b.neg[right[:, gens, f[i, j]]]] for x, i, j in grid.sums
    ]
    col_terms = [b.add[f[qm[:, i], qm[:, j]], b.neg[left[:, :, f[i, j]]]] for x, i, j in grid.sums]

    u3, v3, w3 = grid.u3, grid.v3, grid.w3
    f_uw_vw = f[qm[u3, w3], qm[v3, w3]]
    f_uv_uw = f[qm[u3, v3], qm[u3, w3]]
    slot = np.arange(len(counts))
    table_rows = max(1, BLOCK_CELLS // (nb * nq) ** 2)
    found = False
    for digits in _product_blocks([len(left), *counts], nq**3):
        k = digits[:, 0]
        gs = np.zeros((len(k), nq, nq), dtype=np.int16)
        gs[:, us[free], vs[free]] = pick[k[:, None], slot, digits[:, 1:]]
        for (x, i, j), term in zip(grid.sums, row_terms, strict=True):
            gs[:, x, gens] = b.add[b.add[gs[:, i, gens], gs[:, j, gens]], term[k]]
        for (x, i, j), term in zip(grid.sums, col_terms, strict=True):
            gs[:, :, x] = b.add[b.add[gs[:, :, i], gs[:, :, j]], term[k]]
        # Row k4 of `left`/`right` is the action of candidate k4.
        k4 = k[:, None, None, None]
        G_uvm_w = gs[:, qm[:, :, None], w3]
        G_uva_w = gs[:, qa[:, :, None], w3]
        G_u_vwm = gs[:, u3, qm[None, :, :]]
        G_u_vwa = gs[:, u3, qa[None, :, :]]
        G_vw = gs[:, None, :, :]
        # mixed associativity: r_w(g(u,v)) + g(uv,w) == l_u(g(v,w)) + g(u,vw)
        lhs = b.add[right[k4, w3[None], gs[:, :, :, None]], G_uvm_w]
        rhs = b.add[left[k4, u3[None], G_vw], G_u_vwm]
        ok = (lhs == rhs).all(axis=(1, 2, 3))
        # distributivity across the quotient: both defect kinds interact.
        lhs = b.add[right[k4, w3[None], f[None, :, :, None]], G_uva_w]
        rhs = b.add[b.add[gs[:, :, None, :], G_vw], f_uw_vw[None]]
        ok &= (lhs == rhs).all(axis=(1, 2, 3))
        lhs = b.add[left[k4, u3[None], f[None, None, :, :]], G_u_vwa]
        rhs = b.add[b.add[gs[:, :, :, None], gs[:, :, None, :]], f_uv_uw[None]]
        ok &= (lhs == rhs).all(axis=(1, 2, 3))
        # The unit scan and the crossed tables it reads, for the
        # survivors at once; then the target lift in survivor order.
        gs, ks = gs[ok], k[ok]
        for lo in range(0, len(gs), table_rows):
            g_blk, k_blk = gs[lo:lo + table_rows], ks[lo:lo + table_rows]
            add, mul = crossed_tables(b, q, left[k_blk], right[k_blk], f, g_blk)
            for g, a, m, unit in zip(g_blk, k_blk, mul, _units(mul).tolist(), strict=True):
                if unit < 0:
                    continue
                xrow = _target_lift(base, psi, left[a], right[a], f, g, unit, guard)
                if xrow is None:
                    continue
                ring = validate_ring(add, m, unit, name=f"{base.name}_search_{len(results)}")
                results.append(_carrier_extension(base, ring, q, xrow, ring.name))
                found = True
                if stop_at_first:
                    return True
    return found


def _target_lift(base, psi, left, right, f, g, unit, guard):
    """The first choice of one lift into the action target per class of
    q = psi.source that makes eps a unital ring map, or None."""
    dd, dm, q = base.d_ring, base.d.map, psi.source
    nb, nq = base.b.order, q.order
    # Row u masks the lifts of class u: over psi(u), acting as u does.
    lifts = (
        (base.cokernel.projection.map == psi.map[:, None])
        & (base.theta_left == left[:, None, :]).all(axis=2)
        & (base.theta_right == right[:, None, :]).all(axis=2)
    )
    counts = lifts.sum(axis=1).tolist()
    if not all(counts):
        return None
    _guard(math.prod(counts), "target-lift candidates", guard)
    pick = np.argsort(~lifts, axis=1, kind="stable")
    u0, e0 = divmod(int(unit), nb)
    for digits in _product_blocks(counts, nq * nq):
        X = pick[np.arange(nq), digits]
        fx, gx = _lift_defects(dd, X, q)
        okx = (fx == dm[f]).all(axis=(1, 2)) & (gx == dm[g]).all(axis=(1, 2))
        okx &= dd.add[dm[e0], X[:, u0]] == dd.unit
        rows = np.nonzero(okx)[0]
        if rows.size:
            return X[rows[0]]
    return None
