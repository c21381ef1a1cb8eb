"""Exact integer linear algebra over finite abelian groups.

Smith normal form as its diagonal and step logs, and solve / kernel /
image / cokernel for additive maps between groups presented by invariant
factors, each product of a transform a replay of a log.  Everything is
integer arithmetic; no floats appear anywhere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

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
    """Refuse the Smith normal form of an nr x nc matrix by nr·nc + 2nr² +
    2nc² cells, those of s, u, v and both inverses, though no transform is
    built; charging only what callers replay is ROADMAP item 2's reach
    work.  Callers that build the matrix check first."""
    _guard(nr * nc + 2 * nr * nr + 2 * nc * nc, "Smith normal form cells", CELL_LIMIT)


def as_int_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.int64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2d integer matrix, got shape {m.shape}")
    if m.size and int(np.abs(m).max()) >= ENTRY_BOUND:
        raise OverflowError("matrix entry exceeds the exact arithmetic bound")
    return m


@dataclass(frozen=True, eq=False)
class SNFResult:
    """A Smith normal form s = u @ a @ v with u, v unimodular, held as the
    diagonal of s and the logs of the steps that made it.

    The diagonal is nonnegative, each entry divides the next, and s is
    zero off it.  `row_log` holds the steps that act on u and uinv,
    `col_log` those that act on v and vinv.  Each logged step is a row
    operation E on the transform its side builds: the row log E_1 .. E_k
    gives u = E_k .. E_1, and the column log F_1 .. F_m gives v
    transposed, F_m .. F_1, so v = F_1^T .. F_m^T.  No transform is held
    or built; each product a caller reads is one replay of one log
    (`_replay`):
    - u @ x is the row log run forward on x;
    - v @ w is the column log run backwards on w with each step
      transposed.  An update ("add", t, idx, q) adds q_i times row t to
      row idx[i], so its transpose adds q @ w[idx] to w[t]; a swap and a
      sign flip are their own transposes;
    - rows of u, transposed, are u^T on columns of the identity, the row
      log run the same way;
    - v's first g rows, transposed, are the column log run forward on the
      identity's first g columns, since a row operation acts on each
      column alone;
    - uinv^T @ x is the row log run forward on x with each step inverted
      and transposed, so uinv's columns are the rows of that run on the
      identity.
    These are the integers the products of the transforms hold,
    exact past int64 on the way, so whatever is returned is exact.
    """

    diagonal: tuple[int, ...]
    row_log: tuple = field(repr=False)
    col_log: tuple = field(repr=False)

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def _grow(a: np.ndarray, bound: int, factor: int, step, name: str) -> int:
    """Run step(a) in place and return a bound on |entries| of a after it.

    `bound` is at least every |entry| of a, and the step grows |entries|
    at most `factor` times.  A bound that would pass int64 is refreshed
    from a; if it still would, the step runs first on an exact copy, and
    raises OverflowError when one of its entries leaves int64."""
    bound *= factor
    if bound > _INT64_MAX:
        bound = int(np.abs(a).max(initial=0)) * factor
        if bound > _INT64_MAX:
            exact = a.astype(object)
            step(exact)
            bound = int(np.abs(exact).max(initial=0))
            if bound > _INT64_MAX:
                raise OverflowError(f"Smith normal form: entry {bound} of {name} leaves int64")
    step(a)
    return bound


_ONE = np.ones(1, dtype=np.int64)


def _replay(log, a: np.ndarray, name: str, inverse: bool = False,
            transposed: bool = False) -> np.ndarray:
    """Run one side's `log` on the rows of the int64 array a, in place,
    and return a; `name` names the result in an OverflowError.

    A step is a swap ("swap", i, j), a sign flip ("neg", t), an update
    ("add", t, idx, q, g) with g = max |q|, or a fold ("fold", t, i), the
    update that adds row i to row t.  With the log E_1 .. E_k of row
    operations (`SNFResult` derives what each mode gives):
    - forward, an update adds q_i times row t to row idx[i], giving
      E_k .. E_1 @ a: u or v transposed from the identity, u @ a;
    - with `inverse`, it subtracts q @ a[idx] from row t, in the same
      order: each E inverted and transposed, giving uinv^T @ a, so uinv
      transposed and vinv from the identity;
    - with `transposed`, it adds q @ a[idx] to row t, in reverse: each E
      transposed, giving E_1^T .. E_k^T @ a, so v @ a or u^T @ a.
    A swap and a sign flip are their own transposes and inverses.

    Swaps move no data: row i of the result is held in row perm[i] of the
    work array, a swap exchanges two entries of perm, and perm is applied
    once at the end.  An update runs directly on int64 while a bound on
    every |entry| times its growth, 1 + g forward and 1 + len(q) g
    otherwise, stays in int64.  Past that the bound is read from the
    array again; if it is still past, the rest of the log runs on exact
    Python integers, and an entry of the result that leaves int64 raises
    OverflowError.  So whatever is returned is exact, and an entry that
    leaves int64 only on the way is no error."""
    perm = np.arange(len(a))
    work = a
    bound = int(np.abs(a).max(initial=0))
    for op, *args in (reversed(log) if transposed else log):
        if op == "swap":
            i, j = args
            perm[i], perm[j] = perm[j], perm[i]
            continue
        if op == "neg":
            work[perm[args[0]]] *= -1
            continue
        t, idx, q, g = (args[1], [args[0]], _ONE, 1) if op == "fold" else args
        if work is a:
            factor = 1 + (len(q) * g if inverse or transposed else g)
            if bound * factor > _INT64_MAX:
                bound = int(np.abs(a).max(initial=0))
            bound *= factor
            if bound > _INT64_MAX:
                work = a.astype(object)
        rows = perm[idx]
        if inverse:
            work[perm[t]] -= q @ work[rows]
        elif transposed:
            work[perm[t]] += q @ work[rows]
        else:
            work[rows] += np.multiply.outer(q, work[perm[t]])
    if work is not a:
        top = int(np.abs(work).max(initial=0))
        if top > _INT64_MAX:
            raise OverflowError(f"Smith normal form: entry {top} of {name} leaves int64")
        a[...] = work
    a[...] = a[perm]
    return a


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
    idx = line.nonzero()[0]
    if not idx.size:
        return idx, idx, False
    vals = line[idx]
    if abs(piv) == 1:
        # A unit divides everything, and vals // piv = vals * piv.
        return idx, -vals * piv, False
    bad = (vals % piv).nonzero()[0]
    if bad.size:
        idx, vals = idx[: bad[0] + 1], vals[: bad[0] + 1]
    return idx, -(vals // piv), bool(bad.size)


def smith_normal_form(a) -> SNFResult:
    """Smith normal form over the integers, s = u @ a @ v.

    Defined on any integer matrix, including empty and rank-deficient ones.
    The elimination runs on s alone and logs each step; the returned
    `SNFResult` holds the diagonal and the two logs, and a caller replays
    a log for each product of a transform it reads (`_replay`).  Raises
    OverflowError, before making the update, when an entry of s would
    leave the int64 range; a replayed product with an entry that leaves
    it raises too.  Whatever is returned is exact.

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
    active block.  So s and the transforms the logs replay to, u, v and
    their inverses, are those of the one-at-a-time loop, entry for entry.

    Only a swap needs a fresh scan.  A row update that swapped nothing
    cleared every nonzero entry below the pivot, so the scan of column t
    would find nothing and the scan of row t follows at once.  A column
    update that swapped nothing cleared row t, and changed no entry below
    the pivot, so the pivot is done.  Skipping those empty scans leaves
    the steps as they were.

    Guarded by the cells of s, u, v and both inverses (`_guard_snf`).
    """
    s = as_int_matrix(a)
    nr, nc = s.shape
    _guard_snf(nr, nc)
    s = s.copy()
    row_log, col_log = [], []
    # For each row i > t: the least key and the gcd of s[i, t:].  Row
    # operations refresh the rows they change; swaps carry them along, and
    # column swaps and retiring a cleared column t leave them as they are.
    rkey = _keys(s).min(axis=1, initial=_ZERO_KEY)
    rgcd = np.gcd.reduce(s, axis=1)
    # At least every |entry| of s, as a Python int.
    bound = int(np.abs(s).max(initial=0))

    def refresh(rows):
        blk = s[rows, t:]
        rkey[rows] = _keys(blk).min(axis=1)
        rgcd[rows] = np.gcd.reduce(blk, axis=1)

    def swap_rows(i, j):
        if i != j:
            row = s[i].copy()
            s[i] = s[j]
            s[j] = row
            rkey[i], rkey[j] = rkey[j], rkey[i]
            rgcd[i], rgcd[j] = rgcd[j], rgcd[i]
            row_log.append(("swap", i, j))

    def swap_cols(i, j):
        if i != j:
            col = s[t:, i].copy()
            s[t:, i] = s[t:, j]
            s[t:, j] = col
            col_log.append(("swap", i, j))

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
                g = max(map(abs, q.tolist()))

                def step(s):
                    # row_i += q_i * row_t for every i in rows
                    s[rows, t:] += np.multiply.outer(q, s[t, t:])

                bound = _grow(s, bound, 1 + g, step, "s")
                row_log.append(("add", t, rows, q, g))
                if swap:
                    swap_rows(int(rows[-1]), t)
                    refresh(rows)
                    continue
                refresh(rows)
            cols, q, swap = _batch(s[t, t + 1 :], piv)
            if cols.size:
                cols += t + 1
                g = max(map(abs, q.tolist()))

                def step(s):
                    # col_j += q_j * col_t for every j in cols; below the
                    # pivot column t is zero, so only row t changes.
                    s[t, cols] += q * piv

                bound = _grow(s, bound, 1 + g, step, "s")
                col_log.append(("add", t, cols, q, g))
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

                def step(s):
                    # row_t += row_i
                    s[t, t:] += s[i, t:]

                bound = _grow(s, bound, 2, step, "s")
                row_log.append(("fold", t, i))
                refresh([t])
                continue
        if piv < 0:
            s[t, t] = -piv
            row_log.append(("neg", t))
        t += 1

    return SNFResult(tuple(np.diagonal(s).tolist()), tuple(row_log), tuple(col_log))


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
    twice compute it once and hand it to `_solve` and `kernel`.  Only a
    `Subgroup` keeps one, of its embedding, and the memo behind
    `cohomology.classify_functors` one of each d2 block, with its log
    arrays made read-only; no other factorisation outlives the call that
    made it.  Guarded before the block is built."""
    _guard_snf(lm.target.rank, lm.source.rank + lm.target.rank)
    return smith_normal_form(_augmented(lm))


def _solve(lm: LinearMap, rhs, res: SNFResult | None = None):
    """Solve lm(x) = b for every column b of `rhs` against one
    factorisation `res` of lm's augmented block, made here when not given
    and there is something to solve.

    Returns (x, None, None) with column j of x solving column j of rhs, or
    (None, j, witness) for the first column j that has no solution.  It
    reads u @ rhs, (v @ w)[:g] and, for a certificate, row i of u, each a
    replay of one log (`_replay`): u @ rhs runs the row log forward on
    rhs, v @ w runs the column log backwards on w with each step
    transposed, and row i of u runs the row log the same way on e_i, only
    once a column has failed.  Every step acts on each column alone, so
    each column's answer and certificate are those of a solve of that
    column alone, and the same integers as the products of the
    transforms."""
    h, g = lm.target.rank, lm.source.rank
    rhs = np.asarray(rhs, dtype=np.int64)
    if rhs.ndim == 1:
        rhs = rhs[:, None]
    k = rhs.shape[1]
    if h == 0 or k == 0:
        return np.zeros((g, k), dtype=np.int64), None, None
    if res is None:
        res = _factor(lm)
    # The diagonal block has full row rank, so every diagonal entry is nonzero.
    d = np.array(res.diagonal[:h], dtype=np.int64)[:, None]
    if not (d > 0).all():
        raise AssertionError("target moduli must make the system full row rank")
    c = _replay(res.row_log, rhs.copy(), "u @ rhs")
    rem = c % d
    bad = np.flatnonzero(rem.any(axis=0))
    if bad.size:
        j = int(bad[0])
        i = int(np.flatnonzero(rem[:, j])[0])
        row = _replay(res.row_log, np.eye(h, 1, -i, dtype=np.int64), "u", transposed=True)
        return None, j, UnsolvableWitness(row[:, 0], int(d[i, 0]), int(rem[i, j]))
    w = np.zeros((g + h, k), dtype=np.int64)
    w[:h] = c // d
    x = _replay(res.col_log, w, "v @ w", transposed=True)[:g]
    x %= np.asarray(lm.source.factors, dtype=np.int64)[:, None]
    tgt = np.asarray(lm.target.factors, dtype=np.int64)[:, None]
    if ((lm.matrix @ x - rhs) % tgt).any():
        raise AssertionError("solver postcondition")
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

    @cached_property
    def _snf(self) -> SNFResult:
        return _factor(self._embed)

    def coords_of(self, x):
        """Abstract coordinates of ambient x, or None if x lies outside.
        The embedding is factored on the first call and kept."""
        c, _, _ = _solve(self._embed, x, self._snf)
        return None if c is None else tuple(int(v) for v in c[:, 0])

    def contains(self, x) -> bool:
        return self.coords_of(x) is not None

    def elements(self):
        """The distinct embedded elements, in the order of the abstract
        group's elements; embedded a block at a time."""
        from .rings import _product_blocks  # rings imports this module

        seen = set()
        cols = self._embed.matrix.T
        fac = np.asarray(self.ambient.factors, dtype=np.int64)
        for digits in _product_blocks(self.group.factors, max(1, self.ambient.rank)):
            for e in map(tuple, ((digits @ cols) % fac).tolist()):
                if e not in seen:
                    seen.add(e)
                    yield e


def span_subgroup(ambient: FinAbGroup, cols) -> Subgroup:
    """Subgroup of `ambient` generated by the columns of `cols`.

    The presentation comes from the lattice spanned by the columns together
    with the ambient moduli; its index in Z^rank gives the subgroup order.
    Each product of a transform is one replay of a row log (`_replay`).
    """
    g = ambient.rank
    if g == 0:
        return Subgroup(ambient, FinAbGroup(()), [])
    cols = np.asarray(cols, dtype=np.int64).reshape(g, -1)
    _guard_snf(g, cols.shape[1] + g)
    mdiag = np.diag(np.asarray(ambient.factors, dtype=np.int64))
    span = smith_normal_form(np.hstack([cols, mdiag]))
    if span.rank != g:
        raise AssertionError("the moduli force a full-rank lattice")
    d1 = np.asarray(span.diagonal[:g], dtype=np.int64)[:, None]
    # Row i is d1[i] * uinv[:, i], column i of the lattice's basis.
    basis = _replay(span.row_log, np.eye(g, dtype=np.int64), "uinv", inverse=True) * d1
    # Relations of the moduli lattice in that basis present the quotient.
    rel = _replay(span.row_log, mdiag, "u @ mdiag")
    if np.any(rel % d1):
        raise AssertionError("moduli must lie in the lattice")
    rel_res = smith_normal_form(rel // d1)
    # Row i is column i of the basis times the relations' uinv.
    newbasis = _replay(rel_res.row_log, basis, "basis @ uinv", inverse=True)
    gens, factors = [], []
    for i, d in enumerate(rel_res.diagonal):
        if d > 1:
            factors.append(d)
            gens.append(ambient.reduce(newbasis[i]))
    sub = Subgroup(ambient, FinAbGroup(tuple(factors)), gens)
    # Python ints: the lattice index can pass 2**63 although the order does not
    expected = ambient.order // math.prod(span.diagonal[:g])
    if sub.order != expected:
        raise AssertionError("subgroup order must match the lattice index")
    return sub


def kernel(lm: LinearMap, res: SNFResult | None = None) -> Subgroup:
    """Kernel of lm as a presented subgroup of the source, from a
    factorisation `res` of lm's augmented block, made here when not given.

    It reads v[:g, r:], the x-parts of the last columns of v: the column
    log run forward on the first g columns of the identity gives v's
    first g rows transposed (`_replay`)."""
    g = lm.source.rank
    if g == 0:
        return Subgroup(lm.source, FinAbGroup(()), [])
    if res is None:
        res = _factor(lm)
    r = res.rank
    # x-parts of an integer basis of the kernel lattice of the augmented block;
    # together with the source moduli they span the kernel as a lattice.
    head = np.eye(g + lm.target.rank, g, dtype=np.int64)
    kz = _replay(res.col_log, head, "v")[r:].T
    sub = span_subgroup(lm.source, kz)
    # Every generator at once: lm times the embedding, modulo the target.
    tgt = np.asarray(lm.target.factors, dtype=np.int64)
    if ((lm.matrix @ sub._embed.matrix) % tgt[:, None]).any():
        raise AssertionError("kernel generator sanity")
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
    _lift_cols: np.ndarray

    def project(self, x) -> tuple[int, ...]:
        return self.group.reduce(self._rows @ np.asarray(x, dtype=np.int64))

    def lift(self, c) -> tuple[int, ...]:
        x = self.ambient.reduce(self._lift_cols @ np.asarray(c, dtype=np.int64))
        if self.project(x) != self.group.reduce(c):
            raise AssertionError("section postcondition")
        return x


def cokernel(lm: LinearMap) -> Quotient:
    """target / image(lm), presented by invariant factors.  With keep the
    rows whose diagonal entry is over 1, it projects by rows keep of u and
    lifts by columns keep of uinv, each one replay of the row log."""
    h = lm.target.rank
    res = _factor(lm)
    d = np.array(res.diagonal[:h], dtype=np.int64)
    if not (d > 0).all():
        raise AssertionError("target moduli must make the system full row rank")
    keep = np.flatnonzero(d > 1)
    eye = np.eye(h, dtype=np.int64)
    rows = _replay(res.row_log, eye[:, keep], "u", transposed=True).T
    lifts = _replay(res.row_log, eye, "uinv", inverse=True)[keep].T
    return Quotient(lm.target, FinAbGroup(tuple(d[keep].tolist())), rows, lifts)


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
    boundary column is solved against the cycles' kept factorisation of
    their embedding, which `class_of` reads again.  With no coordinate or
    no boundary there is nothing to solve, and nothing is factored."""
    tgt = np.asarray(incoming.target.factors, dtype=np.int64)[:, None]
    res = cycles._snf if tgt.size and incoming.source.rank else None
    mat, j, _ = _solve(cycles._embed, incoming.matrix % tgt, res)
    if mat is None:
        raise ValueError(f"boundary {j} is not a cycle: the maps do not compose to zero")
    quot = cokernel(LinearMap(incoming.source, cycles.group, mat))
    return HomologyData(cycles, quot.group, quot)
