"""Low-degree cohomology of a finite ring acting on a finite bimodule.

Cochains are one type, `_Cochain`: dense tables of module elements
indexed by ring elements and normalised to vanish whenever an argument is
zero.  A degree names only its tables and their arities, and every
check, the per-table algebra, the pullback and the coordinate encoding
run over those tables alike.  Degree one (t) measures corrections to a
section, degree two the additive/multiplicative defect pair (f, g) of a
factor system, degree three the five obstruction tables (xi, eta,
alpha_x, lambda_l, rho_r) that the reduced structure checker evaluates.

The two differentials exist twice over: once as table evaluations (cheap,
used by property checks) and once as integer matrices over the invariant
factor coordinates of the module (used for kernels, images, quotients and
certificates), assembled by `complex_for` on each call;
`classify_functors` keeps them, with the logs of their d2 blocks, in a
bounded memo of pulled modules.
The degree-3 table formula is `_defect3`, which also computes the
obstruction cochain in `transport.reduce_esystem`; its core
`_defect3_cells` checks the cocycle conditions in
`extensions.validate_factor_system`.  Its five conditions are written
once, as data: a plan per ring (`_defect3_plan`, memoised) names each
term's cochain, arguments and map, so one evaluation is a fixed handful
of numpy gathers and folds, and a stack of cochains runs through it in
blocks of rows.  A map is a row of one table,
`_map_table` (identity, l_u, r_w and their negatives), numbered by
`_map_codes`.  The 14 reduced coherence laws of `transport` are terms of
the same format through the same table.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .ablin import (
    COORD_LIMIT,
    FinAbGroup,
    HomologyData,
    LinearMap,
    SNFResult,
    Subgroup,
    UnsolvableWitness,
    _factor,
    _homology,
    _guard,
    _solve,
    homology,
    kernel,
    span_subgroup,
)
from .crossed import Bimodule
from .rings import BLOCK_CELLS, FiniteRing, RingHom, _sum


@functools.lru_cache(maxsize=32)
def _zero_slots(n: int, arities: tuple[int, ...]) -> np.ndarray:
    """The flat positions of the cells with a zero argument in tables of
    the given arities over a ring of order n, laid end to end in C order;
    read-only.  An entry is 8 bytes a cell with a zero argument, less than
    the int64 tables of one cochain it checks: 23 KB for `Cochain3` at
    n = 16, against 133 KB of tables."""
    mask = [np.zeros((n,) * a, dtype=bool) for a in arities]
    for m in mask:
        for axis in range(m.ndim):
            m[(slice(None),) * axis + (0,)] = True
    slots = np.flatnonzero(np.concatenate(mask, axis=None))
    slots.flags.writeable = False
    return slots


@dataclass(eq=False)
class _Cochain:
    """Tables of module elements over one module, one per name in
    `ARITIES`, each with that many ring arguments and normalised to vanish
    whenever an argument is zero.  Every table's shape and range are
    checked before any table's normalisation.

    Each group of checks costs one pass when it holds: the tables' shapes,
    in order, then the range of all tables laid end to end, viewed
    unsigned so that a negative entry reads as too large, then their
    zero-argument cells (`_zero_slots`).  A failing group, or a table
    numpy cannot convert, sends the cochain to `_walk`, which raises the
    first failure table by table."""

    module: Bimodule
    ARITIES: ClassVar[tuple[tuple[str, int], ...]]

    def __post_init__(self):
        n = self.ring.order
        arities = tuple(arity for _, arity in self.ARITIES)
        try:
            tables = [np.asarray(getattr(self, name), dtype=np.int64) for name, _ in self.ARITIES]
        except (TypeError, ValueError, OverflowError):
            tables = None
        ok = tables is not None and all(t.shape == (n,) * a for t, a in zip(tables, arities))
        if ok:
            flat = np.concatenate(tables, axis=None)
            ok = not (flat.view(np.uint64).max() >= self.module.order
                      or flat.take(_zero_slots(n, arities)).any())
        if not ok:
            self._walk()
            return
        for (name, _), t in zip(self.ARITIES, tables):
            setattr(self, name, t)

    def _walk(self):
        """The checks of `__post_init__` table by table, each table's shape
        and range in order, then each table's normalisation axis by axis:
        raises the first failure."""
        n, order = self.ring.order, self.module.order
        for name, arity in self.ARITIES:
            t = np.asarray(getattr(self, name), dtype=np.int64)
            if t.shape != (n,) * arity:
                raise ValueError(f"{name} has shape {t.shape}, expected {(n,) * arity}")
            if t.size and (t.min() < 0 or t.max() >= order):
                raise ValueError(f"{name} holds an out-of-range module element")
            setattr(self, name, t)
        for t, name in self.tables():
            for axis in range(t.ndim):
                if t[(slice(None),) * axis + (0,)].any():
                    raise ValueError(f"{name} must vanish when an argument is zero")

    @property
    def ring(self) -> FiniteRing:
        return self.module.ring

    def tables(self) -> tuple[tuple[np.ndarray, str], ...]:
        """(table, name) pairs in field order."""
        return tuple((getattr(self, name), name) for name, _ in self.ARITIES)

    def is_zero(self) -> bool:
        return not any(t.any() for t, _ in self.tables())

    def equals(self, other: "_Cochain") -> bool:
        return self.module is other.module and all(
            np.array_equal(a, b)
            for (a, _), (b, _) in zip(self.tables(), other.tables(), strict=True)
        )


@dataclass(eq=False)
class Cochain1(_Cochain):
    """One ring argument; t(0) = 0."""

    t: np.ndarray
    ARITIES = (("t", 1),)


@dataclass(eq=False)
class Cochain2(_Cochain):
    """Additive defect f and multiplicative defect g, normalised at zero."""

    f: np.ndarray
    g: np.ndarray
    ARITIES = (("f", 2), ("g", 2))


@dataclass(eq=False)
class Cochain3(_Cochain):
    """The five obstruction tables, normalised at zero in every slot."""

    xi: np.ndarray
    eta: np.ndarray
    alpha_x: np.ndarray
    lambda_l: np.ndarray
    rho_r: np.ndarray
    ARITIES = (("xi", 3), ("eta", 2), ("alpha_x", 3), ("lambda_l", 3), ("rho_r", 3))


def _per_table(name: str, op, *cs: _Cochain) -> _Cochain:
    """The cochain of cs's type whose tables are op(module, *tables),
    table by table, over cs's one module."""
    m = cs[0].module
    if any(c.module is not m for c in cs):
        raise AssertionError(f"{name} of cochains over different modules")
    pairs = zip(*(c.tables() for c in cs), strict=True)
    return type(cs[0])(m, *(op(m, *(t for t, _ in p)) for p in pairs))


def add2(a: Cochain2, b: Cochain2) -> Cochain2:
    return _per_table("add2", lambda m, x, y: m.add[x, y], a, b)


def neg3(a: Cochain3) -> Cochain3:
    return _per_table("neg3", lambda m, x: m.neg[x], a)


def sub3(a: Cochain3, b: Cochain3) -> Cochain3:
    return _per_table("sub3", lambda m, x, y: m.add[x, m.neg[y]], a, b)


# ---------------------------------------------------------------------------
# The differentials, as table evaluations.


def _defect2(module: Bimodule, t):
    """The defect pair (f, g) of the 1-cochain table t[..., u]; leading
    axes of t stack cochains."""
    m, r = module, module.ring
    us = np.arange(r.order)
    tu, tv = t[..., :, None], t[..., None, :]
    f = _sum(m.add, tu, tv, m.neg[t[..., r.add]])
    g = _sum(m.add, m.left[us[:, None], tv], m.right[us[None, :], tu], m.neg[t[..., r.mul]])
    return f, g


def d1(c: Cochain1) -> Cochain2:
    return Cochain2(c.module, *_defect2(c.module, c.t))


def _map_table(neg, left, right) -> np.ndarray:
    """Every map a cochain term goes through, one row each: the maps
    [id; l_0 .. l_{n-1}; r_0 .. r_{n-1}] of a module or group with
    negation `neg` and action rows `left` and `right`, then their
    negatives in the same order.  `_map_codes` numbers the rows."""
    maps = np.concatenate((np.arange(len(neg))[None], left, right))
    return np.concatenate((maps, neg[maps]))


def _map_codes(n: int):
    """The rows of `_map_table` over a ring of order n: (id, neg, left,
    right, minus), where left(u) is the row of l_u, right(w) that of r_w,
    and minus(c) that of the negative of row c.  All but the two constant
    codes take ints or arrays alike."""
    half = 2 * n + 1
    return 0, half, lambda u: 1 + u, lambda w: 1 + n + w, lambda c: (c + half) % (2 * half)


@functools.lru_cache(maxsize=32)
def _defect3_plan(ring: FiniteRing):
    """The term plan of `_defect3` over `ring`: read-only arrays (terms,
    maps), both (5, 4n^3 + n^2).

    Column c is one cell of the five tables laid end to end (xi, eta,
    alpha_x, lambda_l, rho_r, each in C order), and row k its k-th term.
    terms[k, c] is where the term sits in the row [f | g | 0] of one
    defect pair: f(a, b) at a*n + b, g(a, b) at n^2 + a*n + b, and the
    zero that pads a table to five terms at 2n^2.  maps[k, c] is the
    `_map_codes` row of `_map_table` that it goes through.
    """
    n = ring.order
    us = np.arange(n)
    u, v, w = us[:, None, None], us[None, :, None], us[None, None, :]
    radd, rmul = ring.add.astype(np.intp), ring.mul.astype(np.intp)  # a*n passes int16
    uv, vw, uv_m, vw_m, uw_m = radd[u, v], radd[v, w], rmul[u, v], rmul[v, w], rmul[u, w]
    f, g, zero = 0, n * n, 2 * n * n
    ident, neg, left, right, minus = _map_codes(n)
    # Each table's terms (cochain, first argument, second argument, map),
    # in the order `_defect3` sums them; eta's grid is (u, v) alone.
    su, sv = u[..., 0], v[..., 0]
    conditions = (
        [(f, u, vw, ident), (f, v, w, ident), (f, u, v, neg), (f, uv, w, neg)],
        [(f, su, sv, ident), (f, sv, su, neg)],
        [(g, v, w, left(u)), (g, uv_m, w, neg), (g, u, vw_m, ident),
         (g, u, v, minus(right(w)))],
        [(g, u, vw, ident), (g, u, v, neg), (g, u, w, neg), (f, v, w, left(u)),
         (f, uv_m, uw_m, neg)],
        [(g, uv, w, ident), (g, u, w, neg), (g, v, w, neg), (f, u, v, right(w)),
         (f, uw_m, vw_m, neg)],
    )
    terms, maps = [], []
    for cond in conditions:
        shape = np.broadcast_shapes(*(np.shape(x) for term in cond for x in term))
        cond = cond + [(zero, 0, 0, ident)] * (5 - len(cond))
        terms.append([np.broadcast_to(c + a * n + b, shape).ravel() for c, a, b, _ in cond])
        maps.append([np.broadcast_to(m, shape).ravel() for *_, m in cond])
    dtype = np.min_scalar_type(2 * n * n + 4 * n)
    plan = tuple(np.concatenate(x, axis=1).astype(dtype) for x in (terms, maps))
    for x in plan:
        x.flags.writeable = False
    return plan


def _defect3(add, neg, left, right, ring: FiniteRing, f, g):
    """The five degree-3 tables (xi, eta, alpha_x, lambda_l, rho_r) of a
    defect pair (f, g) over `ring`, for ring elements u, v, w:

        xi(u, v, w)       = f(u, v+w) + f(v, w) - f(u, v) - f(u+v, w)
        eta(u, v)         = f(u, v) - f(v, u)
        alpha_x(u, v, w)  = l_u(g(v, w)) - g(uv, w) + g(u, vw) - r_w(g(u, v))
        lambda_l(u, v, w) = g(u, v+w) - g(u, v) - g(u, w) + l_u(f(v, w)) - f(uv, uw)
        rho_r(u, v, w)    = g(u+v, w) - g(u, w) - g(v, w) + r_w(f(u, v)) - f(uw, vw)

    Values live in an abelian group given by `add` and `neg`, with 0 its
    zero; ring element u acts through rows `left[u]` and `right[u]`.
    Leading axes of f[..., a, b] and g[..., a, b] stack pairs, and lead
    the returned tables, which carry add's dtype.  `_defect3_cells` does
    the work.
    """
    n = ring.order
    square = n * n
    lead = f.shape[:-2]
    rows = math.prod(lead)
    fg = np.concatenate(
        (f.reshape(rows, square), g.reshape(rows, square), np.zeros((rows, 1), f.dtype)),
        axis=1,
    )
    out = _defect3_cells(add, _map_table(neg, left, right), ring, fg)
    tables, at = [], 0
    for shape in ((n, n, n), (n, n), (n, n, n), (n, n, n), (n, n, n)):
        size = math.prod(shape)
        tables.append(out[:, at : at + size].reshape(lead + shape))
        at += size
    return tuple(tables)


def _defect3_cells(add, maps, ring: FiniteRing, fg) -> np.ndarray:
    """The tables of `_defect3` laid end to end, one row per row of `fg`:
    row r holds xi, eta, alpha_x, lambda_l and rho_r of the defect pair
    fg[r] = [f | g | 0] (f and g in C order), each table in C order.
    `maps` is the module's `_map_table`.

    The formulas are data, `_defect3_plan(ring)`: each term's cochain,
    arguments and map.  A block of pairs takes one gather of every term
    from its rows of fg, one gather through the map table, and four folds
    through `add`, summing each cell's terms left to right as `_defect3`
    writes them.  A stack runs in blocks of at most `BLOCK_CELLS`
    gathered cells, five per table cell; a stack of one block is returned
    as it is folded.

    The plan depends only on the ring, and is memoised on it by identity
    (a FiniteRing hashes by identity) for the 32 rings used last.  It
    holds 10(4n^3 + n^2) indices of the narrowest unsigned type that
    holds 2n^2 + 4n: 2.7 KB at n = 4, 21 KB at n = 8, 333 KB at n = 16.
    So the memo's worst case is 32 times the largest plan, about 11 MB
    while the rings have at most 16 elements.
    """
    rows = len(fg)
    if not rows:  # an empty stack needs no plan
        return np.empty((0, 4 * ring.order**3 + ring.order**2), dtype=add.dtype)
    terms, codes = _defect3_plan(ring)
    table = maps.ravel()  # row r starts at r * |module|
    offsets = codes.astype(np.intp) * maps.shape[1]
    step = max(1, BLOCK_CELLS // terms.size)
    out = np.empty((rows, terms.shape[1]), dtype=add.dtype) if rows > step else None
    for lo in range(0, rows, step):
        vals = table.take(offsets + fg[lo : lo + step].take(terms, axis=1))
        acc = add[vals[:, 0], vals[:, 1]]
        for k in range(2, 5):
            acc = add[acc, vals[:, k]]
        if out is None:
            return acc
        out[lo : lo + step] = acc
    return out


def d2(c: Cochain2) -> Cochain3:
    m, r = c.module, c.module.ring
    return Cochain3(m, *_defect3(m.add, m.neg, m.left, m.right, r, c.f, c.g))


# ---------------------------------------------------------------------------
# Coordinates and materialised matrices.


def _tiled_group(module: Bimodule, slots: int) -> FinAbGroup:
    return FinAbGroup(tuple(module.group.factors) * slots)


def _coords_of(module: Bimodule, values: np.ndarray) -> np.ndarray:
    """Invariant-factor coordinates of a flat array of module elements."""
    if module.group.rank == 0:
        return np.zeros((values.size, 0), dtype=np.int64)
    fac = np.asarray(module.group.factors, dtype=np.int64)
    return module.coords[values.reshape(-1)] % fac


@dataclass(eq=False)
class CochainComplex:
    """Everything needed to treat the degree 1..3 cochains of one module as
    finite abelian groups with explicit differential matrices.

    A cochain's coordinates run over its tables in order, each table's
    nonzero arguments in C order, and the module's invariant factors
    innermost."""

    module: Bimodule
    c1_group: FinAbGroup
    c2_group: FinAbGroup
    c3_group: FinAbGroup
    d1_map: LinearMap
    d2_map: LinearMap

    def _encode(self, *tables) -> np.ndarray:
        """Row i holds the coordinates of cochain i of a stack given by its
        tables, each with one leading stack axis."""
        rows = []
        for t in tables:
            inner = t[(slice(None),) + (slice(1, None),) * (t.ndim - 1)]
            width = math.prod(inner.shape[1:]) * self.module.group.rank
            rows.append(_coords_of(self.module, inner).reshape(len(t), width))
        return np.concatenate(rows, axis=1)

    def encode(self, c: _Cochain) -> np.ndarray:
        return self._encode(*(t[None] for t, _ in c.tables()))[0]

    def _fill(self, coords: np.ndarray, axes: int) -> np.ndarray:
        """Tables with `axes` ring arguments from coordinates along the last
        axis of `coords`; leading axes stack cochains."""
        m = self.module
        k = m.ring.order - 1
        lead = coords.shape[:-1]
        out = np.zeros(lead + (k + 1,) * axes, dtype=np.int64)
        out[(...,) + (slice(1, None),) * axes] = m.elements_at(
            coords.reshape(lead + (k,) * axes + (m.group.rank,))
        )
        return out

    def _fill2(self, coords: np.ndarray):
        """The (f, g) tables of 2-cochain coordinates, f's coming first,
        decoded in one gather: views of one array with f and g on the axis
        before the two ring arguments."""
        lead, width = coords.shape[:-1], coords.shape[-1]
        pair = self._fill(coords.reshape(lead + (2, width // 2)), 2)
        return pair[..., 0, :, :], pair[..., 1, :, :]

    def decode1(self, vec) -> Cochain1:
        return Cochain1(self.module, self._fill(np.asarray(vec, dtype=np.int64), 1))

    def decode2(self, vec) -> Cochain2:
        return Cochain2(self.module, *self._fill2(np.asarray(vec, dtype=np.int64)))

    # Each differential runs once on a stack of cochains, one per row of
    # coordinates.  The stacked degree-3 tables of a basis hold about as
    # many cells as the d2 matrix they fill (a few times more on the
    # smallest rings, where both are tiny).  Their five gathered terms per
    # cell would hold five times that, so `_defect3` gathers the stack in
    # blocks of rows and only the tables exist for the whole stack.

    def _d1_rows(self, coords: np.ndarray) -> np.ndarray:
        """Row i: the coordinates of d1 of the 1-cochain with coordinates
        coords[i]."""
        return self._encode(*_defect2(self.module, self._fill(coords, 1)))

    def _d2_rows(self, coords: np.ndarray) -> np.ndarray:
        """Row i: the coordinates of d2 of the 2-cochain with coordinates
        coords[i]."""
        m, r = self.module, self.module.ring
        f, g = self._fill2(coords)
        return self._encode(*_defect3(m.add, m.neg, m.left, m.right, r, f, g))


# The complexes complex_for has built that are still alive.
_complexes: weakref.WeakSet[CochainComplex] = weakref.WeakSet()


def complex_for(module: Bimodule, guard: int = COORD_LIMIT) -> CochainComplex:
    n = module.ring.order
    rank = module.group.rank
    k = n - 1
    slots = {"degree 1": k, "degree 2": 2 * k * k, "degree 3": 4 * k**3 + k * k}
    for nm, sl in slots.items():
        _guard(sl * rank, f"{nm} coordinates", guard)
    c1, c2, c3 = (_tiled_group(module, sl) for sl in slots.values())
    cx = CochainComplex(module, c1, c2, c3, None, None)
    # Column j of each matrix is the image of the j-th unit coordinate vector.
    cx.d1_map = LinearMap(c1, c2, cx._d1_rows(np.eye(c1.rank, dtype=np.int64)).T)
    cx.d2_map = LinearMap(c2, c3, cx._d2_rows(np.eye(c2.rank, dtype=np.int64)).T)

    # The composite must vanish on every generator.
    comp = cx.d2_map.matrix @ cx.d1_map.matrix
    if comp.size:
        fac = np.asarray(cx.c3_group.factors, dtype=np.int64).reshape(-1, 1)
        if np.any(comp % fac):
            raise AssertionError("d2 after d1 is nonzero")
    _complexes.add(cx)
    return cx


# ---------------------------------------------------------------------------
# Cocycles, coboundaries, cohomology.


@dataclass(eq=False)
class CocycleGroup:
    complex: CochainComplex
    subgroup: Subgroup

    @property
    def order(self) -> int:
        return self.subgroup.order

    def elements(self):
        for x in self.subgroup.elements():
            yield self.complex.decode2(np.asarray(x, dtype=np.int64))

    def contains(self, c: Cochain2) -> bool:
        return self.subgroup.contains(tuple(int(v) for v in self.complex.encode(c)))


def z2(module: Bimodule) -> CocycleGroup:
    cx = complex_for(module)
    return CocycleGroup(cx, kernel(cx.d2_map))


def b2(module: Bimodule) -> CocycleGroup:
    cx = complex_for(module)
    return CocycleGroup(cx, span_subgroup(cx.c2_group, cx.d1_map.matrix))


@dataclass(eq=False)
class H2Data:
    complex: CochainComplex
    data: HomologyData

    @property
    def order(self) -> int:
        return self.data.order

    @property
    def factors(self) -> tuple[int, ...]:
        return self.data.group.factors

    def representatives(self) -> list[Cochain2]:
        return [self.complex.decode2(np.asarray(r, dtype=np.int64)) for r in self.data.representatives()]

    def class_of(self, c: Cochain2) -> tuple[int, ...]:
        return self.data.class_of(tuple(int(v) for v in self.complex.encode(c)))


def h2(module: Bimodule, guard: int = COORD_LIMIT) -> H2Data:
    cx = complex_for(module, guard)
    return H2Data(cx, homology(cx.d1_map, cx.d2_map))


# ---------------------------------------------------------------------------
# Pullbacks along a unital ring map.


def _check_pullback(psi: RingHom, ring: FiniteRing, pulled: Bimodule | None = None):
    if psi.target is not ring:
        raise ValueError(f"psi maps into {psi.target.name}, not {ring.name}")
    if pulled is not None and pulled.ring is not psi.source:
        raise ValueError(f"pulled module lives over {pulled.ring.name}, not {psi.source.name}")


def pullback_module(psi: RingHom, module: Bimodule) -> Bimodule:
    """The same group seen as a bimodule over psi's source.  No law is
    checked again: the tables are the module's own or its rows at psi's
    images, and psi is a unital ring map, so every `group-*`, `coords-*`,
    `ring-unital` and `bimodule-*` condition still holds."""
    _check_pullback(psi, module.ring)
    if not psi.unital:
        raise ValueError(f"pullback needs a unital map, got {psi.map.tolist()}")
    return replace(module, ring=psi.source, left=module.left[psi.map],
                   right=module.right[psi.map])


def pullback(psi: RingHom, c: _Cochain, pulled: Bimodule) -> _Cochain:
    """c read through psi on every argument, over the pulled module."""
    _check_pullback(psi, c.module.ring, pulled)
    p = psi.map
    return type(c)(pulled, *(t[np.ix_(*(p,) * t.ndim)] for t, _ in c.tables()))


# ---------------------------------------------------------------------------
# Coboundary membership and functor classification.


@dataclass
class CoboundaryVerdict:
    is_coboundary: bool
    witness: Cochain2 | None
    certificate: UnsolvableWitness | None


def is_coboundary3(k: Cochain3) -> CoboundaryVerdict:
    return _coboundary_verdict(complex_for(k.module), k)


def _coboundary_verdict(cx: CochainComplex, k: Cochain3, res=None) -> CoboundaryVerdict:
    """`is_coboundary3` on k's complex cx, solved against the factorisation
    `res` of the augmented d2 block when given."""
    x, _, cert = _solve(cx.d2_map, cx.encode(k), res)
    if x is None:
        return CoboundaryVerdict(False, None, cert)
    c = cx.decode2(x[:, 0])
    if not d2(c).equals(k):
        raise AssertionError("solver witness must differentiate to k")
    return CoboundaryVerdict(True, c, None)


@dataclass
class FunctorClassification:
    """Either the obstruction certificate, or one 2-cochain per class."""

    pulled_module: Bimodule
    obstruction: Cochain3
    vanishes: bool
    certificate: UnsolvableWitness | None
    classes: list[Cochain2]
    h2_factors: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.classes)


def classify_functors(psi: RingHom, rc) -> FunctorClassification:
    """All classes of structure maps over psi against the reduced data rc.

    rc carries `module` (coefficients over the base's quotient ring) and
    `k` (its obstruction cochain).  A class exists iff the pulled-back
    obstruction bounds; then the solutions of d2(c) = -psi*k form a coset
    of Z2 and are listed one per cohomology class.

    Everything but the obstruction depends on the pulled module alone: its
    complex, the factorisation of its augmented d2 block, and H^2 with its
    representatives.  Those come from a bounded memo on the module's
    content (`_pulled_cohomology`), which keeps the factorisation, its
    diagonal and logs, and H^2 once a first obstruction over the module
    has bounded.  Each call pulls k back, solves d2(c) = -psi*k against
    the logs, and checks the witness, every class and their count again,
    so an obstructed triple factors only the d2 block.  The result's
    `pulled_module` and cochains live over the memo's copy of the pulled
    module, whose tables are read-only.
    """
    entry = _pulled_cohomology(pullback_module(psi, rc.module))
    pulled, cx = entry.module, entry.complex
    kq = pullback(psi, rc.k, pulled)
    target = neg3(kq)
    verdict = _coboundary_verdict(cx, target, entry.d2)
    if not verdict.is_coboundary:
        return FunctorClassification(pulled, kq, False, verdict.certificate, [], ())
    g0 = verdict.witness
    reps, factors, order = entry.h2()
    classes = [add2(g0, rep) for rep in reps]
    if not all(d2(c).equals(target) for c in classes):
        raise AssertionError("class representatives must differentiate to -psi*k")
    if len(classes) != order:
        raise AssertionError("one class per element of H2")
    return FunctorClassification(pulled, kq, True, None, classes, factors)


# The tables that make up a module's content, beside its ring and factors.
_MODULE_TABLES = ("add", "neg", "left", "right", "coords", "by_code", "strides")
# What `_PulledCohomology.nbytes` charges beyond array data: each log step
# (its tuple, its index and quotient array headers) and each
# representative (its two table headers and the cochain).
_STEP_BYTES = 512
_REP_BYTES = 512
# The most bytes one entry of `_pulled_memo` may hold.
_ENTRY_BYTES = 2**20


def _frozen_copy(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.flags.writeable = False
    return a


class _ModuleKey:
    """A pulled module as a key of `_pulled_memo`: `module` is a copy with
    read-only tables, equal to another key's when both lie over the same
    ring object, with the same factors and tables (dtype and bytes)."""

    __slots__ = ("module", "_hash")

    def __init__(self, module: Bimodule):
        tables = {name: _frozen_copy(getattr(module, name)) for name in _MODULE_TABLES}
        self.module = replace(module, **tables)
        self._hash = hash((id(module.ring), module.group.factors,
                           *((t.dtype.str, t.tobytes()) for t in tables.values())))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        a, b = self.module, other.module
        pairs = ((getattr(a, name), getattr(b, name)) for name in _MODULE_TABLES)
        return a.ring is b.ring and a.group.factors == b.group.factors and all(
            x.dtype == y.dtype and np.array_equal(x, y) for x, y in pairs)


@dataclass(eq=False)
class _PulledCohomology:
    """What `classify_functors` reads of one pulled module: the module, its
    complex, the factorisation of its augmented d2 block with read-only
    logs (None when the block is empty) and, once `h2` has run, H^2 as
    (representatives, factors, order), read-only cochains over `module`."""

    module: Bimodule
    complex: CochainComplex
    d2: SNFResult | None
    _h2: tuple | None = None

    @property
    def nbytes(self) -> int:
        """The bytes the entry holds, counted as its arrays' data plus
        `_STEP_BYTES` a log step and `_REP_BYTES` a representative."""
        cx = self.complex
        n = sum(getattr(self.module, name).nbytes for name in _MODULE_TABLES)
        n += cx.d1_map.matrix.nbytes + cx.d2_map.matrix.nbytes
        n += 8 * (cx.c1_group.rank + cx.c2_group.rank + cx.c3_group.rank)
        if self.d2 is not None:
            for _, *args in (*self.d2.row_log, *self.d2.col_log):
                n += _STEP_BYTES + sum(x.nbytes for x in args if isinstance(x, np.ndarray))
        if self._h2 is not None:
            n += _reps_nbytes(self._h2[0])
        return n

    def h2(self) -> tuple:
        """(representatives, factors, order) of H^2, kept on the entry if
        it then holds at most `_ENTRY_BYTES`.  The cycles are the kernel of
        d2 read from the kept logs; homology factors their embedding and
        the boundaries' cokernel, and neither factorisation is kept."""
        if self._h2 is not None:
            return self._h2
        cx = self.complex
        hd = H2Data(cx, _homology(cx.d1_map, kernel(cx.d2_map, self.d2)))
        reps = hd.representatives()
        for r in reps:
            r.f.flags.writeable = r.g.flags.writeable = False
        h2 = reps, hd.factors, hd.order
        if self.nbytes + _reps_nbytes(reps) <= _ENTRY_BYTES:
            self._h2 = h2
        return h2


def _reps_nbytes(reps) -> int:
    return sum(_REP_BYTES + r.f.nbytes + r.g.nbytes for r in reps)


class _Unkept(Exception):
    """An entry over `_ENTRY_BYTES`, raised by a memo's function
    (`_pulled_memo`, `extensions._bimult_pool` and `_pool_tables`) so that
    its `lru_cache` keeps nothing of the call that built it; `_kept` hands
    the entry to the caller."""

    def __init__(self, entry):
        super().__init__()
        self.entry = entry


def _kept(memo, key):
    """memo(key): the memo's entry, or the one it built and did not keep."""
    try:
        return memo(key)
    except _Unkept as e:
        return e.entry


@functools.lru_cache(maxsize=32)
def _pulled_memo(key: _ModuleKey) -> _PulledCohomology:
    cx = complex_for(key.module)
    cx.d1_map.matrix.flags.writeable = cx.d2_map.matrix.flags.writeable = False
    # The block's source and target are both trivial or both not; when
    # trivial, neither the solve nor the kernel needs it factored.
    d2 = _factor(cx.d2_map) if cx.c2_group.rank else None
    for _, *args in (*d2.row_log, *d2.col_log) if d2 else ():
        for x in args:
            if isinstance(x, np.ndarray):
                x.flags.writeable = False
    entry = _PulledCohomology(key.module, cx, d2)
    if entry.nbytes > _ENTRY_BYTES:
        raise _Unkept(entry)
    return entry


def _pulled_cohomology(pulled: Bimodule) -> _PulledCohomology:
    """The entry of `pulled` in a memo keyed on its content: its ring by
    identity, and the bytes of its factors and tables (`_ModuleKey`).
    The key holds the module and so its ring, whose id therefore cannot
    be reused while the entry is alive.

    The memo is an `lru_cache` of 32 entries, and keeps an
    entry only while it holds at most `_ENTRY_BYTES` = 1 MiB; a larger one
    serves the call that built it and is dropped.  So the memo holds at
    most 32 MiB; the key's module copy is the entry's module, counted
    there.  `nbytes` charges 512 bytes a log step beyond its arrays, where
    tracemalloc reads about 250.  The classify benchmark's 26 distinct
    pulled modules count 2.7 MB in all and trace 1.7 MB; the largest,
    `flat_klein0` over its order-4 quotients, count 0.49 MB each.  An
    entry's factorisation is the d2 block's diagonal and logs, what
    elimination wrote, a step's indices and quotients: s, u and v of the
    same 26 blocks would take 6.6 MB."""
    return _kept(_pulled_memo, _ModuleKey(pulled))
