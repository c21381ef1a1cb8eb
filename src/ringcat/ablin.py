"""Exact integer linear algebra over finite abelian groups.

Smith normal form with its unimodular transforms, and solve / kernel /
image / cokernel for additive maps between groups presented by invariant
factors.  Everything is integer arithmetic; no floats appear anywhere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

# Inputs are kept below this bound so int64 accumulation stays exact.
ENTRY_BOUND = 2**31
_INT64_MAX = int(np.iinfo(np.int64).max)


class SearchGuardError(ValueError):
    """An exhaustive step would exceed its size limit."""


# The size limits of the exhaustive steps.  Each site calls `_guard` with
# one of them before it allocates anything proportional to the size it
# checks.
# Ring order: bimultiplication enumeration and the isomorphism search.
ORDER_LIMIT = 16
# Elements of a materialised bimultiplication ring.
RING_ORDER_LIMIT = 256
# Candidates a search generates, or pairs it scans.
CANDIDATE_LIMIT = 10**6
# Coordinates of each cochain group.
COORD_LIMIT = 10**4
# Array cells: the reduced coherence grid, the Smith normal form arrays.
CELL_LIMIT = 10**7


def _guard(size: int, what: str, limit: int) -> None:
    """Refuse a step of `size` units of `what` over `limit`."""
    if size > limit:
        raise SearchGuardError(f"{size} {what}, over the guard {limit}")


def _guard_snf(nr: int, nc: int) -> None:
    """Refuse the Smith normal form of an nr x nc matrix by the cells of s,
    u, v and both inverses; callers that build the matrix check first."""
    _guard(nr * nc + 2 * nr * nr + 2 * nc * nc, "Smith normal form cells", CELL_LIMIT)


def as_int_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.int64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2d integer matrix, got shape {m.shape}")
    if m.size and int(np.abs(m).max()) >= ENTRY_BOUND:
        raise OverflowError("matrix entry exceeds the exact arithmetic bound")
    return m


@dataclass
class SNFResult:
    """Diagonalisation s = u @ a @ v with u, v unimodular.

    The diagonal of s is nonnegative and each entry divides the next.
    uinv and vinv are the exact integer inverses of u and v.
    """

    s: np.ndarray
    u: np.ndarray
    v: np.ndarray
    uinv: np.ndarray
    vinv: np.ndarray

    @property
    def diagonal(self) -> list[int]:
        k = min(self.s.shape)
        return [int(self.s[i, i]) for i in range(k)]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


_ZERO_KEY = np.iinfo(np.uint64).max


def _keys(a) -> np.ndarray:
    """|x| - 1 as unsigned: zero gets the largest key, so a least key is a
    least nonzero |x|."""
    return (np.abs(a) - 1).view(np.uint64)


def _batch(line, piv):
    """Positions in `line` (a row or column beside the pivot) that one
    batched elimination step clears, with their quotients.

    They are the nonzero entries up to and including the first one `piv`
    does not divide; the returned flag says whether that one exists.  Its
    remainder is then nonzero and the caller swaps it into the pivot."""
    idx = np.flatnonzero(line)
    if not idx.size:
        return idx, idx, False
    vals = line[idx]
    bad = np.flatnonzero(vals % piv)
    if bad.size:
        idx, vals = idx[: bad[0] + 1], vals[: bad[0] + 1]
    return idx, -(vals // piv), bool(bad.size)


def smith_normal_form(a) -> SNFResult:
    """Smith normal form over the integers, tracking both transforms.

    Defined on any integer matrix, including empty and rank-deficient ones.
    Raises OverflowError, before making the update, when an entry of s or
    of a transform would leave the int64 range; whatever it returns is
    exact.

    The steps are those of the classic elimination one entry at a time:
    take the first least nonzero entry in row-major order as the pivot;
    subtract the floor quotient of the pivot from each nonzero entry below
    it, then beside it, in order, swapping in the first nonzero remainder
    as the new pivot; fold the first row holding an entry the pivot does
    not divide into the pivot row; make the pivot positive.  Every entry
    the pivot divides, up to the first one it does not, is cleared in one
    rank-one update: the pivot row (column) does not change until that
    swap, the inverse transform sums the same integer terms in another
    order, and rows and columns of earlier pivots hold zeros outside the
    active block.  So s, u, v and their inverses are those of the
    one-at-a-time loop, entry for entry.

    Guarded by the cells of s, u, v and both inverses (`_guard_snf`).
    """
    s = as_int_matrix(a)
    nr, nc = s.shape
    _guard_snf(nr, nc)
    s = s.copy()
    u = np.eye(nr, dtype=np.int64)
    vinv = np.eye(nc, dtype=np.int64)
    # uinv and v are kept transposed, so that their column operations run
    # on contiguous rows.
    uinv_t = np.eye(nr, dtype=np.int64)
    v_t = np.eye(nc, dtype=np.int64)
    # For each row i > t: the least key and the gcd of s[i, t:].  Row
    # operations refresh the rows they change; swaps carry them along, and
    # column swaps and retiring a cleared column t leave them as they are.
    rkey = _keys(s).min(axis=1, initial=_ZERO_KEY)
    rgcd = np.gcd.reduce(s, axis=1)
    # bound[k] is at least every |entry| of arrays[k], as a Python int.
    arrays = (s, u, uinv_t, v_t, vinv)
    bound = [int(np.abs(s).max(initial=0)), 1, 1, 1, 1]

    def apply(step, growth):
        """Run step(*arrays) in place; growth pairs each array k it changes
        with a factor bounding how much it can grow |entries| of arrays[k].
        A bound that would pass int64 is refreshed from its array; if it
        still would, the step runs first on exact copies, and raises
        OverflowError when one of their entries leaves int64."""
        exact = False
        for k, factor in growth:
            if bound[k] * factor > _INT64_MAX:
                bound[k] = int(np.abs(arrays[k]).max(initial=0))
                exact |= bound[k] * factor > _INT64_MAX
            bound[k] *= factor
        if exact:
            copies = list(arrays)
            for k, _ in growth:
                copies[k] = arrays[k].astype(object)
            step(*copies)
            for k, _ in growth:
                bound[k] = int(np.abs(copies[k]).max(initial=0))
                if bound[k] > _INT64_MAX:
                    name = ("s", "u", "uinv", "v", "vinv")[k]
                    raise OverflowError(
                        f"Smith normal form: entry {bound[k]} of {name} leaves int64"
                    )
        step(*arrays)

    def refresh(rows):
        blk = s[rows, t:]
        rkey[rows] = _keys(blk).min(axis=1)
        rgcd[rows] = np.gcd.reduce(blk, axis=1)

    def swap_rows(i, j):
        if i != j:
            for m in (s, u, uinv_t, rkey, rgcd):
                m[[i, j]] = m[[j, i]]

    def swap_cols(i, j):
        if i != j:
            s[t:, [i, j]] = s[t:, [j, i]]
            for m in (v_t, vinv):
                m[[i, j]] = m[[j, i]]

    t = 0
    while t < min(nr, nc):
        i = t + int(np.argmin(rkey[t:]))
        if rkey[i] == _ZERO_KEY:
            break
        swap_rows(t, i)
        swap_cols(t, t + int(np.argmin(_keys(s[t, t:]))))
        # Clear column and row t; remainders shrink, so this terminates.
        while True:
            piv = int(s[t, t])
            rows, q, swap = _batch(s[t + 1 :, t], piv)
            if rows.size:
                rows += t + 1

                def step(s, u, uinv_t, v_t, vinv):
                    # row_i += q_i * row_t for every i in rows
                    s[rows, t:] += np.multiply.outer(q, s[t, t:])
                    u[rows] += np.multiply.outer(q, u[t])
                    uinv_t[t] -= q @ uinv_t[rows]

                g = max(map(abs, q.tolist()))
                apply(step, ((0, 1 + g), (1, 1 + g), (2, 1 + len(q) * g)))
                if swap:
                    swap_rows(int(rows[-1]), t)
                refresh(rows)
                continue
            cols, q, swap = _batch(s[t, t + 1 :], piv)
            if cols.size:
                cols += t + 1

                def step(s, u, uinv_t, v_t, vinv):
                    # col_j += q_j * col_t for every j in cols; below the
                    # pivot column t is zero, so only row t changes.
                    s[t, cols] += q * piv
                    v_t[cols] += np.multiply.outer(q, v_t[t])
                    vinv[t] -= q @ vinv[cols]

                g = max(map(abs, q.tolist()))
                apply(step, ((0, 1 + g), (3, 1 + g), (4, 1 + len(q) * g)))
                if swap:
                    swap_cols(int(cols[-1]), t)
                continue
            break
        # Fold the first row holding an entry the pivot does not divide
        # into the pivot row.
        if abs(piv) != 1:
            bad = np.flatnonzero(rgcd[t + 1 :] % piv)
            if bad.size:
                i = t + 1 + int(bad[0])

                def step(s, u, uinv_t, v_t, vinv):
                    # row_t += row_i
                    s[t, t:] += s[i, t:]
                    u[t] += u[i]
                    uinv_t[i] -= uinv_t[t]

                apply(step, ((0, 2), (1, 2), (2, 2)))
                refresh([t])
                continue
        if piv < 0:
            s[t, t] = -piv
            u[t] = -u[t]
            uinv_t[t] = -uinv_t[t]
        t += 1

    return SNFResult(s, u, np.ascontiguousarray(v_t.T), np.ascontiguousarray(uinv_t.T), vinv)


def det_exact(a) -> int:
    """Fraction-free determinant in arbitrary precision (small matrices)."""
    m = [[int(x) for x in row] for row in as_int_matrix(a)]
    n = len(m)
    if n == 0:
        return 1
    if n != len(m[0]):
        raise ValueError("determinant of a non-square matrix")
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class FinAbGroup:
    """Direct sum of cyclic groups; factors[i] is the modulus of slot i.

    Factors of 1 are legal and contribute nothing.  Elements are integer
    tuples reduced componentwise.
    """

    factors: tuple[int, ...]

    def __post_init__(self):
        if not all(int(m) >= 1 for m in self.factors):
            raise ValueError(f"group factors must be at least 1, got {self.factors}")

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def order(self) -> int:
        n = 1
        for m in self.factors:
            n *= m
        return n

    def reduce(self, vec) -> tuple[int, ...]:
        return tuple(int(x) % m for x, m in zip(vec, self.factors, strict=True))

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def add(self, x, y) -> tuple[int, ...]:
        return tuple((a + b) % m for a, b, m in zip(x, y, self.factors, strict=True))

    def neg(self, x) -> tuple[int, ...]:
        return tuple((-a) % m for a, m in zip(x, self.factors, strict=True))

    def sub(self, x, y) -> tuple[int, ...]:
        return self.add(x, self.neg(y))

    def elements(self):
        return itertools.product(*[range(m) for m in self.factors])

    def element_order(self, x) -> int:
        k = 1
        for a, m in zip(x, self.factors, strict=True):
            if a:
                k = np.lcm(k, m // np.gcd(a, m))
        return int(k)

    def random_element(self, rng) -> tuple[int, ...]:
        return tuple(int(rng.integers(0, m)) for m in self.factors)


@dataclass
class LinearMap:
    """Additive map given by generator images; column j is the image of e_j.

    Well-definedness requires source.factors[j] * column_j to vanish in the
    target, which __post_init__ enforces.
    """

    source: FinAbGroup
    target: FinAbGroup
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = as_int_matrix(self.matrix)
        shape = (self.target.rank, self.source.rank)
        if self.matrix.shape != shape:
            raise ValueError(f"matrix shape {self.matrix.shape}, expected {shape}")
        src = np.asarray(self.source.factors, dtype=np.int64)
        tgt = np.asarray(self.target.factors, dtype=np.int64)
        bad = np.flatnonzero(((self.matrix * src) % tgt[:, None]).any(axis=0))
        if bad.size:
            j = int(bad[0])
            raise ValueError(f"generator {j} breaks the modulus {self.source.factors[j]}")

    def apply(self, x) -> tuple[int, ...]:
        vec = self.matrix @ np.asarray(x, dtype=np.int64)
        return self.target.reduce(vec)

    def compose(self, other: "LinearMap") -> "LinearMap":
        # self after other
        if other.target.factors != self.source.factors:
            raise ValueError(
                f"cannot compose: target {other.target.factors} is not source {self.source.factors}"
            )
        return LinearMap(other.source, self.target, self.matrix @ other.matrix)


def _augmented(lm: LinearMap) -> np.ndarray:
    """[matrix | diag(target moduli)]: solving over Z against this block
    is solving in the target group."""
    n = np.diag(np.asarray(lm.target.factors, dtype=np.int64))
    return np.hstack([lm.matrix, n]) if lm.target.rank else np.zeros((0, lm.source.rank), dtype=np.int64)


@dataclass
class UnsolvableWitness:
    """Proof that a system has no solution: pairing any candidate image
    with `row` is forced to `residue` mod `modulus`, which is nonzero."""

    row: np.ndarray
    modulus: int
    residue: int

    def describe(self) -> str:
        return (
            f"pairing with {self.row.tolist()} is {self.residue} mod {self.modulus}"
        )


def _factor(lm: LinearMap) -> SNFResult:
    """The Smith normal form of lm's augmented block.  Callers that need it
    twice compute it once and hand it to `_solve` and `_kernel`; no
    factorisation is kept beyond the call that made it.  Guarded before
    the block is built."""
    _guard_snf(lm.target.rank, lm.source.rank + lm.target.rank)
    return smith_normal_form(_augmented(lm))


def _solve(lm: LinearMap, rhs, res: SNFResult | None = None):
    """Solve lm(x) = b for every column b of `rhs` against one
    factorisation `res` of lm's augmented block, made here when not given
    and there is something to solve.

    Returns (x, None, None) with column j of x solving column j of rhs, or
    (None, j, witness) for the first column j that has no solution.  The
    column-stacked products u @ rhs and v @ w do the integer arithmetic of
    one column at a time, so each column's answer and certificate are those
    of a solve of that column alone."""
    h, g = lm.target.rank, lm.source.rank
    rhs = np.asarray(rhs, dtype=np.int64)
    if rhs.ndim == 1:
        rhs = rhs[:, None]
    k = rhs.shape[1]
    if h == 0 or k == 0:
        return np.zeros((g, k), dtype=np.int64), None, None
    if res is None:
        res = _factor(lm)
    c = res.u @ rhs
    # The diagonal block has full row rank, so every diagonal entry is nonzero.
    d = np.diagonal(res.s)[:h, None]
    assert (d > 0).all(), "target moduli must make the system full row rank"
    rem = c % d
    bad = np.flatnonzero(rem.any(axis=0))
    if bad.size:
        j = int(bad[0])
        i = int(np.flatnonzero(rem[:, j])[0])
        return None, j, UnsolvableWitness(res.u[i].copy(), int(d[i, 0]), int(rem[i, j]))
    w = np.zeros((g + h, k), dtype=np.int64)
    w[:h] = c // d
    x = (res.v @ w)[:g] % np.asarray(lm.source.factors, dtype=np.int64)[:, None]
    tgt = np.asarray(lm.target.factors, dtype=np.int64)[:, None]
    assert not ((lm.matrix @ x - rhs) % tgt).any(), "solver postcondition"
    return x, None, None


def solve_with_certificate(lm: LinearMap, b):
    """Solve lm(x) = b.  Returns (x, None) or (None, UnsolvableWitness)."""
    x, _, cert = _solve(lm, b)
    if x is None:
        return None, cert
    return tuple(int(v) for v in x[:, 0]), None


def solve(lm: LinearMap, b):
    x, _ = solve_with_certificate(lm, b)
    return x


@dataclass
class Subgroup:
    """A subgroup of `ambient`, abstractly presented by `group` and embedded
    by `gens` (one ambient element per abstract generator)."""

    ambient: FinAbGroup
    group: FinAbGroup
    gens: list[tuple[int, ...]]
    _embed: LinearMap = field(repr=False, default=None)

    def __post_init__(self):
        cols = np.array([list(g) for g in self.gens], dtype=np.int64).T
        if not self.gens:
            cols = np.zeros((self.ambient.rank, 0), dtype=np.int64)
        self._embed = LinearMap(self.group, self.ambient, cols)

    @property
    def order(self) -> int:
        return self.group.order

    def embed(self, coords) -> tuple[int, ...]:
        return self._embed.apply(coords)

    def coords_of(self, x):
        """Abstract coordinates of ambient x, or None if x lies outside."""
        return solve(self._embed, x)

    def contains(self, x) -> bool:
        return self.coords_of(x) is not None

    def elements(self):
        seen = set()
        for c in self.group.elements():
            e = self.embed(c)
            if e not in seen:
                seen.add(e)
                yield e


def span_subgroup(ambient: FinAbGroup, cols) -> Subgroup:
    """Subgroup of `ambient` generated by the columns of `cols`.

    The presentation comes from the lattice spanned by the columns together
    with the ambient moduli; its index in Z^rank gives the subgroup order.
    """
    g = ambient.rank
    if g == 0:
        return Subgroup(ambient, FinAbGroup(()), [])
    cols = np.asarray(cols, dtype=np.int64).reshape(g, -1)
    _guard_snf(g, cols.shape[1] + g)
    mdiag = np.diag(np.asarray(ambient.factors, dtype=np.int64))
    span = smith_normal_form(np.hstack([cols, mdiag]))
    assert span.rank == g, "the moduli force a full-rank lattice"
    d1 = np.asarray(span.diagonal[:g], dtype=np.int64)
    basis = span.uinv * d1  # column i is d1[i] * uinv[:, i]
    # Relations of the moduli lattice in that basis present the quotient.
    rel = span.u @ mdiag
    assert not np.any(rel % d1[:, None]), "moduli must lie in the lattice"
    rel = rel // d1[:, None]
    rel_res = smith_normal_form(rel)
    newbasis = basis @ rel_res.uinv
    gens, factors = [], []
    for i in range(g):
        d = int(rel_res.s[i, i])
        if d > 1:
            factors.append(d)
            gens.append(ambient.reduce(newbasis[:, i]))
    sub = Subgroup(ambient, FinAbGroup(tuple(factors)), gens)
    # Python ints: the lattice index can pass 2**63 although the order does not
    expected = ambient.order // math.prod(int(x) for x in d1)
    assert sub.order == expected, "subgroup order must match the lattice index"
    return sub


def kernel(lm: LinearMap) -> Subgroup:
    """Kernel of lm as a presented subgroup of the source."""
    return _kernel(lm)


def _kernel(lm: LinearMap, res: SNFResult | None = None) -> Subgroup:
    """`kernel` from a factorisation `res` of lm's augmented block, made
    here when not given."""
    g = lm.source.rank
    if g == 0:
        return Subgroup(lm.source, FinAbGroup(()), [])
    if res is None:
        res = _factor(lm)
    r = res.rank
    # x-parts of an integer basis of the kernel lattice of the augmented block;
    # together with the source moduli they span the kernel as a lattice.
    kz = res.v[:g, r:]
    sub = span_subgroup(lm.source, kz)
    for x in sub.gens:
        assert lm.apply(x) == lm.target.zero(), "kernel generator sanity"
    return sub


@dataclass
class Quotient:
    """target / image, with an explicit projection and a section.

    project maps an ambient element to quotient coordinates; lift picks a
    preimage of quotient coordinates.
    """

    ambient: FinAbGroup
    group: FinAbGroup
    _rows: np.ndarray
    _moduli: tuple[int, ...]
    _lift_cols: np.ndarray

    def project(self, x) -> tuple[int, ...]:
        vec = self._rows @ np.asarray(x, dtype=np.int64)
        return tuple(int(a) % m for a, m in zip(vec, self._moduli, strict=True))

    def lift(self, c) -> tuple[int, ...]:
        x = self.ambient.reduce(self._lift_cols @ np.asarray(c, dtype=np.int64))
        assert self.project(x) == self.group.reduce(c), "section postcondition"
        return x


def cokernel(lm: LinearMap) -> Quotient:
    """target / image(lm), presented by invariant factors."""
    h = lm.target.rank
    res = _factor(lm)
    rows, moduli, lifts = [], [], []
    for i in range(h):
        d = int(res.s[i, i])
        assert d > 0
        if d > 1:
            rows.append(res.u[i])
            moduli.append(d)
            lifts.append(res.uinv[:, i])
    rows = np.array(rows, dtype=np.int64) if rows else np.zeros((0, h), dtype=np.int64)
    lifts = np.array(lifts, dtype=np.int64).T if lifts else np.zeros((h, 0), dtype=np.int64)
    return Quotient(lm.target, FinAbGroup(tuple(moduli)), rows, tuple(moduli), lifts)


@dataclass
class HomologyData:
    """Ker(outgoing) / Im(incoming) at the middle group of a two-step
    complex, with explicit representatives in the middle group."""

    cycles: Subgroup
    group: FinAbGroup
    _quot: Quotient = field(repr=False, default=None)

    @property
    def order(self) -> int:
        return self.group.order

    def class_of(self, x) -> tuple[int, ...]:
        c = self.cycles.coords_of(x)
        if c is None:
            raise ValueError(f"not a cycle: {tuple(int(v) for v in x)}")
        return self._quot.project(c)

    def representative(self, h) -> tuple[int, ...]:
        return self.cycles.embed(self._quot.lift(h))

    def representatives(self) -> list[tuple[int, ...]]:
        return [self.representative(h) for h in self.group.elements()]


def homology(incoming: LinearMap, outgoing: LinearMap) -> HomologyData:
    """Homology of `incoming` followed by `outgoing` (must compose to zero)."""
    if incoming.target.factors != outgoing.source.factors:
        raise ValueError(
            f"incoming target {incoming.target.factors} is not outgoing source "
            f"{outgoing.source.factors}"
        )
    return _homology(incoming, kernel(outgoing))


def _homology(incoming: LinearMap, cycles: Subgroup) -> HomologyData:
    """`homology` from the cycles, the kernel of the outgoing map.  Every
    boundary column is solved against one factorisation of the cycles'
    embedding."""
    tgt = np.asarray(incoming.target.factors, dtype=np.int64)[:, None]
    mat, j, _ = _solve(cycles._embed, incoming.matrix % tgt)
    if mat is None:
        raise ValueError(f"boundary {j} is not a cycle: the maps do not compose to zero")
    quot = cokernel(LinearMap(incoming.source, cycles.group, mat))
    return HomologyData(cycles, quot.group, quot)
