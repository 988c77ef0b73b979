"""Rank-metric codes as GF(q)-subspaces of n x m matrices.

Canonical form: a code is the row space of the RREF of its flattened
(row-major) basis vectors, so equal codes compare equal.  The Grassmannian
enumeration is indexed and deterministically ordered (pivot patterns in
lexicographic order, free entries counting in base q), which gives exact
chunked splitting for parallel sweeps: chunk [lo, hi) always yields the
same subspaces in the same order.  `Grassmannian(N, k, q).iter_range(lo,
hi)` is the one walk of the subspaces; it charges no budget, since each
caller charges its own work before it walks.

Every codeword sweep -- the minimum distance of one code, the density
sweeps here and in `restricted`, the distinguishing sweep
`critical.delta_bruteforce` -- asks one question of a span: does it hold
a bad word?  A bad word has rank < d, or, in the distinguishing sweep,
lies on a point of the given point set.  One kernel, `_SpanMinRank`,
answers it, growing the span one row at a time and testing only the
words each new row adds.  Every word is one int with a slot per base-p
digit of each entry.  Over GF(2) with nm <= 16 it is ranked by one table
probe.  Every other sweep lists its bad words once, before it counts: the
words of every matrix of rank < d in the ambient, one span of a
`linalg.solution_space` per (d-1)-dim row space, charged to the budget,
and a word is then decided by one set lookup, with no elimination.  The
packing never appears in any public signature.

The Grassmannian sweeps are pruned.  Inside a pivot pattern the last
RREF row holds the most significant base-q digits of the index, so a
depth-first search that fixes row k-1 first and row 0 last meets each
partial subcode once, as a contiguous index block.  If the rows fixed so
far already span a bad word, so does every completion, and the whole
block is skipped without being enumerated.  The count is exact, and a
chunk [lo, hi) counts exactly the surviving subspaces with index in
[lo, hi), as the flat sweep of that chunk did, so any chunking sums to
the same total.

The three Grassmannian sweeps -- `density_bruteforce`,
`restricted.restricted_density_bruteforce` and
`critical.delta_bruteforce` -- hand their field, matrix shape and
coordinate vectors to one driver, `_sweep`.  It checks d, charges the
budget before it builds the kernel and the Grassmannian, and splits the
index range into deterministic pieces; each piece, in-process or sent to
a Pool worker, counts on the one kernel and its set of bad words.  With
one worker (one job, one CPU, or a single subspace to count) it runs
in-process.  With more, it still counts in-process, in index ranges of
doubling length, until it has run `_POOL_AFTER_S` seconds, since a Pool
costs more than a short sweep takes; only what is left is split into
chunks and mapped on a multiprocessing Pool that the sweep starts, and
closes and joins, itself.
The sweeps of `verify all` all finish before the deadline, so it starts
no Pool at any `--jobs`.

The driver runs a plan of seeded counts where the ambient allows it.
X -> AXB (A, B invertible) preserves rank and is transitive on the
n x m matrices of each rank r, and maps good codes to good codes, so the
number f_r of good k-dim codes containing a word depends only on its
rank.  Counting the pairs (good code, nonzero word) gives
count * (q^k - 1) = sum_{r >= d} A_r * f_r, with A_r the number of
rank-r matrices, and each f_r is one count that starts from the span of
the partial identity E_r and sweeps G(nm-1, k-1) on the hyperplane of a
coordinate where E_r is nonzero.  (2, 3, 3, 2, 3) visits 1,210 subspaces
in place of 33,880.  The flat sweep, one count over G(nm, k), remains
the plan whenever it is the smaller one, and the only one for point
sets, which no such group preserves.

The other side of the 2 x m identity, `spectrum_free_count`, is a
separate depth-first traversal over the rows of an m x m matrix M.  For
every lambda in GF(q) it keeps the span of the rows fixed so far of
M - lambda*I as a set of row codes and drops a prefix, with all its
completions, once some lambda makes those rows dependent.  It uses only
the `linalg` row-code tables, never the span kernel, the Grassmannian
or a row reduction, so the identity still compares two independent
computations.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from typing import Collection, Iterable, Iterator, Sequence

from . import linalg
from .errors import charge, resolve_budget
from .fields import FiniteField, factorize, make_field, prime_power
from .qcomb import (
    AsymptoticEstimate, _as_int_q, _as_prime_power, gl_order, matrix_rank_count, pi_q_limit, qbinom,
)


@lru_cache(maxsize=None)
def field_for_order(q: int) -> FiniteField:
    """GF(q) for a prime power q given as a plain integer."""
    ph = prime_power(q)
    if ph is None:
        raise ValueError(f"q = {q!r} is not a prime power")
    return make_field(*ph)


# ----------------------------------------------------------------------
# Grassmannian enumeration
# ----------------------------------------------------------------------

class Grassmannian:
    """Indexed enumeration of the k-dim subspaces of GF(q)^N in RREF form.
    Only the size is stored; `_pattern_slices` walks the pivot patterns."""

    def __init__(self, N: int, k: int, q: int):
        if not 0 <= k <= N:
            raise ValueError(f"need 0 <= k <= N, got k={k}, N={N}")
        self.N = N
        self.k = k
        self.q = q
        self.field = field_for_order(q)
        self.total = qbinom(N, k, q)

    def iter_range(self, lo: int = 0, hi: int | None = None) -> Iterator[linalg.Matrix]:
        """Subspaces lo..hi-1 in canonical order, as tuples of row tuples."""
        q, k, N = self.q, self.k, self.N
        hi = self.total if hi is None else hi
        for pivots, free, a, b in self._pattern_slices(lo, hi):
            template = [[0] * N for _ in range(k)]
            for r, c in enumerate(pivots):
                template[r][c] = 1
            for fill in range(a, b):
                rows = [row[:] for row in template]
                e = fill
                for r, j in free:
                    rows[r][j] = e % q
                    e //= q
                yield tuple(tuple(row) for row in rows)

    def _pattern_slices(self, lo: int, hi: int):
        """(pivots, free entries, a, b) for each pivot pattern, in
        combinations order, whose fills a..b-1 lie in [lo, hi).  Row r has
        N - pivots[r] - (k - r) free entries."""
        if not 0 <= lo <= hi <= self.total:
            raise IndexError((lo, hi))
        N, k, q = self.N, self.k, self.q
        offset = 0
        for pivots in itertools.combinations(range(N), k):
            if offset >= hi:
                return
            count = q ** sum(N - p - (k - r) for r, p in enumerate(pivots))
            a, b = max(lo, offset) - offset, min(hi, offset + count) - offset
            if a < b:
                free = [(r, j) for r, p in enumerate(pivots)
                        for j in range(p + 1, N) if j not in pivots]
                yield pivots, free, a, b
            offset += count


# ----------------------------------------------------------------------
# MatrixCode
# ----------------------------------------------------------------------

class MatrixCode:
    """A nonzero GF(q)-subspace of n x m matrices in canonical RREF form."""

    __slots__ = ("field", "n", "m", "basis")

    def __init__(self, field: FiniteField, n: int, m: int, vectors: Iterable[Sequence[int]]):
        rows, _ = linalg.rref(vectors, field)
        if not rows:
            raise ValueError("the zero code is not a rank-metric code")
        if len(rows[0]) != n * m:
            raise ValueError(f"flattened vectors must have length n*m = {n * m}")
        self.field = field
        self.n = n
        self.m = m
        self.basis = rows

    @classmethod
    def from_matrices(
        cls, field: FiniteField, mats: Iterable[Sequence[Sequence[int]]]
    ) -> "MatrixCode":
        mats = list(mats)
        n = len(mats[0])
        m = len(mats[0][0])
        return cls(field, n, m, [tuple(x for row in mat for x in row) for mat in mats])

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def q(self) -> int:
        return self.field.order

    def basis_matrices(self) -> list[linalg.Matrix]:
        return [self._reshape(v) for v in self.basis]

    def _reshape(self, vec: Sequence[int]) -> linalg.Matrix:
        m = self.m
        return tuple(tuple(vec[r * m : (r + 1) * m]) for r in range(self.n))

    def min_distance(self, budget: int | None = None) -> int:
        """Minimum rank over all nonzero codewords, by full enumeration
        of one representative per projective point of the code."""
        k, q = self.dim, self.q
        reps = (q**k - 1) // (q - 1)
        charge(reps, resolve_budget(budget), f"min-distance sweep over {reps} codewords")
        kernel = _SpanMinRank(self.field, q, self.n, self.m)
        # Nonzero words have rank >= 1, so d = 2 stops at the first rank-1 word.
        return kernel.min_rank([kernel.vec(v) for v in self.basis], 2)

    def is_mrd(self) -> bool:
        """dim == m*(n - d + 1) for d = min_distance (Singleton-like bound
        met with equality)."""
        d = self.min_distance()
        n, m = (self.n, self.m) if self.n <= self.m else (self.m, self.n)
        return self.dim == m * (n - d + 1)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MatrixCode)
            and self.field == other.field
            and (self.n, self.m) == (other.n, other.m)
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.field, self.n, self.m, self.basis))

    def __repr__(self) -> str:
        return f"MatrixCode(GF({self.q}), {self.n}x{self.m}, dim={self.dim})"


def _by_table(fld, n: int, m: int) -> bool:
    """Whether the rank kernel over fld^(n x m) ranks its words by
    linalg.gf2_rank_table: entries in GF(2) and nm <= 16."""
    return fld.order == 2 and n * m <= 16


def _bad_word_cost(fld, q: int, n: int, m: int, N: int, d: int) -> int:
    """The steps of `_SpanMinRank.bad_words` at d on N independent n x m
    matrices over fld: one span per (d-1)-dim subspace of fld^l,
    l = min(n, m), each of at most min(q^N, |fld|^(max(n, m) * (d-1)))
    words, since every line of a word is fixed by its d - 1 pivot
    entries."""
    l, lines = min(n, m), max(n, m)
    return qbinom(l, d - 1, fld.order) * min(q**N, fld.order ** (lines * (d - 1)))


class _SpanMinRank:
    """The codeword-sweep kernel: spans grown one row at a time.

    A word, a flattened n x m matrix over fld = GF(p^h), is one int: digit t
    of entry j fills the b-bit slot at bit b*(h*j + t), b = 1 for p = 2 and
    p.bit_length() + 1 otherwise; over GF(2) it is the index of
    linalg.gf2_rank_table.  sums(x, W), the one word sum, is XOR in
    characteristic 2.  In odd characteristic it adds the ints, each slot
    then at most 2p - 2, and takes p off each slot that reached p: adding
    `carry`, 2^(b-1) - p in every slot, sets the top bit of exactly those
    slots, never carrying into the next one, and `ones`, a 1 at the bottom
    of every slot, picks those bits out after a shift.  scale(c, x) unpacks
    x, runs linalg.row_scale and packs the result.

    A span is held as the list W of all its words, zero included.  Adding
    a row x outside the span adds the words c*x + w (c != 0, w in W), and
    c*x + w is c times x + w/c, which has the same rank.  So
    clean(x, W, d) tests only the |W| words x + w and already sees every
    rank in span(W, x) that span(W) lacks; extend(W, x) lists the words of
    span(W, x), and count() also builds the values of each RREF row with
    it.  A row that completes a span to dimension k is tested against W
    but never extended.  The span coefficients range over GF(q), a
    subfield of fld.

    A word is bad when it lies in `bad`, a frozenset of words, and clean
    is then one `bad.isdisjoint(sums(x, W))`, which stops at the first bad
    word.  Given the coordinate vectors `ambient` of a sweep and its d,
    bad holds the words of every matrix of rank < d in their GF(q)-span,
    listed once by `bad_words`, one span per row space of dimension
    d - 1, which the sweep charges first; with d = 1 that is {0}.  Over
    GF(2) with nm <= 16 (`_by_table`) a sweep's kernel keeps no set and
    probes linalg.gf2_rank_table instead.  A kernel built with neither
    points nor an ambient keeps neither: min_rank, the minimum distance
    of one code, ranks each word of its span once, by the table or by
    linalg.rank, and `bad_words` lists a set.

    Given a point set `points` of GF(q)^(nm) (canonical vectors, first
    nonzero entry 1, fld = GF(q)), bad holds the words of the points, so
    with n = 1 and d = 1 count() counts the subspaces that distinguish
    the set.  Every word count() tests is x + w with x the RREF row of
    least pivot so far and w zero up to that pivot, so its first nonzero
    entry is 1: it is the canonical vector of its point.  A partial
    subspace holding a point keeps it in every completion, so the pruning
    stays exact.
    """

    __slots__ = ("fld", "q", "n", "m", "b", "ones", "carry", "table", "bad")

    def __init__(
        self, fld, q: int, n: int, m: int, points: Collection[Sequence[int]] = (),
        ambient: Sequence[Sequence[int]] | None = None, d: int = 1,
    ):
        self.fld, self.q, self.n, self.m, p = fld, q, n, m, fld.p
        self.b = b = 1 if p == 2 else p.bit_length() + 1
        self.ones = sum(1 << i for i in range(0, b * fld.h * n * m, b))
        self.carry = ((1 << b - 1) - p) * self.ones
        self.table = self.bad = None
        if points:
            self.bad = frozenset(map(self.vec, points))
        elif ambient is not None and _by_table(fld, n, m):
            self.table = linalg.gf2_rank_table(n, m)
        elif ambient is not None:
            self.bad = self.bad_words(ambient, d)

    def vec(self, flat: Sequence[int]) -> int:
        """The word of a flattened n x m matrix over fld."""
        b, h, p = self.b, self.fld.h, self.fld.p
        if h > 1 and b > 1:  # an entry's base-p digits to slots of their own
            flat = [sum(e // p**t % p << b * t for t in range(h)) for e in flat]
        word = 0
        for e in reversed(flat):  # the last entry in the top slots
            word = word << b * h | e
        return word

    def entries(self, word: int) -> list[int]:
        """The flattened n x m matrix of a word, the inverse of vec."""
        b, h, p = self.b, self.fld.h, self.fld.p
        step, size, mask = b * h, self.n * self.m, (1 << b * h) - 1
        if h == 1 or b == 1:  # one slot over GF(p), h bits over GF(2^h)
            return [word >> s & mask for s in range(0, step * size, step)]
        mask = (1 << b) - 1
        digits = [word >> s & mask for s in range(0, step * size, b)]
        out = digits[h - 1 :: h]  # Horner from the top digit of every entry
        for t in range(h - 2, -1, -1):
            out = [e * p + d for e, d in zip(out, digits[t::h])]
        return out

    def bad_words(self, ambient: Sequence[Sequence[int]], d: int) -> frozenset:
        """The words of every matrix of rank < d in the GF(q)-span of the
        flattened n x m matrices `ambient`, which must be independent.

        A matrix has rank < d iff its lines, its rows when m <= n and its
        columns otherwise, all lie in one (d-1)-dim subspace R of fld^l,
        l = min(n, m).  With B the rref basis of R and p_j its pivots, a
        line v lies in R iff v = sum_j v[p_j] * B[j], one equation per
        column outside the pivots.  Written on the N coordinates of the
        ambient, the equations of every line make one
        `linalg.solution_space`, whose GF(q)-span, grown by `extend`, is
        the words with all lines in R.  Over GF(q^2) (Hermitian, q < |fld|)
        each equation is split into its coordinates over fld.base = GF(q).
        The set is the union of those spans over every R, and
        `_bad_word_cost` bounds it.  With d = 1 it is {0}."""
        if d == 1:
            return frozenset([0])
        n, m, fld = self.n, self.m, self.fld
        l = min(n, m)
        # lines[i][c]: entry c of line i (row i, or column i when n < m)
        # of every ambient matrix, at flat index i * step + c * pos
        step, pos = (m, 1) if m <= n else (1, m)
        lines = [
            [[v[i * step + c * pos] for v in ambient] for c in range(l)] for i in range(max(n, m))
        ]
        over = fld if fld.order == self.q else fld.base
        columns = list(zip(*ambient))
        bad = set()
        for B in Grassmannian(l, d - 1, fld.order).iter_range():
            pivots = [row.index(1) for row in B]  # an rref row's first nonzero entry
            equations = []
            for line in lines:
                for c in range(l):
                    if c not in pivots:
                        e = line[c]
                        for row, p in zip(B, pivots):
                            if row[c]:
                                e = linalg.row_sub(e, row[c], line[p], fld)
                        equations.append(e)
            if over is not fld:
                equations = [[fld.coords(x)[t] for x in e] for e in equations for t in range(fld.n)]
            W = [0]
            for x in linalg.solution_space(equations, len(ambient), over):
                W = self.extend(W, self.vec(linalg.mat_vec(columns, x, fld)))
            bad.update(W)
        return frozenset(bad)

    def sums(self, x: int, W: Iterable[int]) -> Iterator[int]:
        """The words x + w for w in W, in order, made as they are read."""
        if self.b == 1:
            return map(x.__xor__, W)
        p, top, ones, xc = self.fld.p, self.b - 1, self.ones, x + self.carry
        return (x + w - ((xc + w) >> top & ones) * p for w in W)  # xc + w = x + w + carry

    def scale(self, c: int, x: int) -> int:
        return self.vec(linalg.row_scale(c, self.entries(x), self.fld))

    def clean(self, x: int, W: Iterable[int], d: int) -> bool:
        """Whether no word x + w (w in W) is bad, stopping at the first
        one that is: in `bad`, or of rank < d by the table."""
        if self.bad is not None:
            return self.bad.isdisjoint(self.sums(x, W))
        table = self.table
        for w in W:
            if table[x ^ w] < d:
                return False
        return True

    def extend(self, W: Sequence[int], x: int) -> list[int]:
        """The words c*x + w (c in GF(q), w in W): the block of c = 0, W
        itself, first, then one block per c, each in the order of W.  For
        a span W and x outside it, the words of span(W, x)."""
        out = [*W, *self.sums(x, W)]  # c = 0 and 1, all of GF(2)
        for c in range(2, self.q):
            out += self.sums(self.scale(c, x), W)
        return out

    def min_rank(self, rows: Sequence, d: int) -> int:
        """Minimum rank over the nonzero words of span(rows), for linearly
        independent rows, stopping at the first word of rank < d.  Each
        word is ranked once, by linalg.gf2_rank_table where `_by_table`
        holds, or by linalg.rank."""
        n, m, fld = self.n, self.m, self.fld
        if _by_table(fld, n, m):
            rank = linalg.gf2_rank_table(n, m).__getitem__
        else:
            def rank(word: int) -> int:
                e = self.entries(word)
                return linalg.rank([e[i * m : (i + 1) * m] for i in range(n)], fld)
        best = min(n, m)
        W = [0]
        for i, x in enumerate(rows):
            for word in self.sums(x, W):
                best = min(best, rank(word))
                if best < d:
                    return best
            if i + 1 < len(rows):
                W = self.extend(W, x)
        return best

    def count(
        self, g: Grassmannian, units: Sequence, d: int, lo: int, hi: int, seed=None
    ) -> int:
        """Number of subspaces lo..hi-1 of g with no bad word: every
        nonzero word has rank >= d, or, for a point-set kernel at d = 1,
        no word lies on a point of the set.  units[j] is the word of
        coordinate vector e_j of GF(q)^g.N (the coordinates are
        GF(q)-linear, so a subspace's words are the images of its
        vectors).  At k = 0 the one subspace, {0}, has no nonzero word.
        A word is decided by the GF(2) table at this d, or by the set of
        bad words listed for the point set or for the d the kernel was
        built with; a kernel built with neither cannot count.

        A seed, a word of rank >= d outside the span of the units, is
        added to every subspace: the count is then of the subspaces U
        for which span(seed, U) has no bad word.  The search starts from
        W = GF(q)*seed instead of {0}.  Rank kernels only: the words it
        tests no longer lead with 1, which the point-set lookup needs.

        Inside a pivot pattern, row r's free entries are the base-q digits
        of the index from weight q^(free entries of rows < r) up, so fixing
        rows k-1 down to r fixes a contiguous block of q^(free entries of
        rows < r) indices.  The depth-first search fixes row k-1 first and
        row 0 last; once a fixed row makes a bad word, every completion
        keeps that word and would fail, so the whole block is skipped.
        Only the values of a row whose block meets [lo, hi) are tried, and
        each surviving row-0 leaf, one subspace, is counted once, so the
        counts of any chunking add up to the full count.
        """
        k = g.k
        clean, extend = self.clean, self.extend
        total = 0
        for pivots, free, a, b in g._pattern_slices(lo, hi):
            # levels[r] = (the word of every value of row r, indexed by the
            # value, and the index weight of row r's lowest digit)
            levels = []
            weight = 1
            for r, p in enumerate(pivots):
                words = [units[p]]
                for rr, j in free:
                    if rr == r:
                        words = extend(words, units[j])
                levels.append((words, weight))
                weight *= len(words)

            def descend(r: int, base: int, W: list) -> int:
                words, weight = levels[r]
                vlo = max(0, (a - base) // weight)
                vhi = min(len(words), -((base - b) // weight))
                found = 0
                for v in range(vlo, vhi):
                    x = words[v]
                    if not clean(x, W, d):
                        continue
                    if r == 0:
                        found += 1
                    else:
                        found += descend(r - 1, base + v * weight, extend(W, x))
                return found

            if k:
                start = [0] if seed is None else extend([0], seed)
                total += descend(k - 1, 0, start)
            else:
                total += b - a
        return total


# ----------------------------------------------------------------------
# densities by enumeration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DensityResult:
    """Exact density of codes with minimum distance >= d among the
    k-dimensional ones, with full provenance."""

    q: int
    n: int
    m: int
    k: int
    d: int
    count: int
    total: int
    method: str
    elapsed_ms: float
    kind: str | None = dc_field(default=None)

    @property
    def density(self) -> Fraction:
        return Fraction(self.count, self.total)

    def to_json(self) -> dict:
        """Every field but the timing `elapsed_ms`."""
        d = self.density
        out = {
            "q": self.q,
            "n": self.n,
            "m": self.m,
            "k": self.k,
            "d": self.d,
            "count": str(self.count),
            "total": str(self.total),
            "density_num": str(d.numerator),
            "density_den": str(d.denominator),
            "density_float": float(d),
            "method": self.method,
        }
        if self.kind is not None:
            out["kind"] = self.kind
        return out


def _count_chunk(task: tuple) -> int:
    """Pool worker: the count of one chunk [lo, hi) of one plan entry."""
    kernel, g, units, seed, d, lo, hi = task
    return kernel.count(g, units, d, lo, hi, seed)


# A sweep with more than one worker counts in-process until it has run
# this many seconds, and only then maps the rest on a Pool.  Measured on
# a 2-core host, 15 ops per side, jobs 1 against jobs 2 (one Pool of 2
# workers): the mrd192 sweep 0.9 against 15.9 ms, (2,3,3,2,3) 6.4
# against 34.8 ms, (2,3,3,2,4) 46 against 68 ms, (3,3,2,2,3) 303 against
# 169 ms, (2,4,3,2,3) 1,033 against 582 ms.  Forking a Pool costs about
# 7 ms, closing it 2 ms and each map 1-5 ms, and 2 workers lose on every
# sweep shorter than about 0.25 s.
_POOL_AFTER_S = 0.05


def _seed_word(fld, q: int, n: int, m: int, vectors: Sequence, r: int, seed: Sequence[int]):
    """(word, p) for a seed given by its coordinates over `vectors`: the
    flattened n x m matrix it stands for, and its first nonzero
    coordinate.  Raises ValueError unless the seed lies in the ambient
    (a vector of GF(q)^N, N = len(vectors)), is nonzero and has rank r."""
    N = len(vectors)
    if len(seed) != N or not all(isinstance(c, int) and 0 <= c < q for c in seed):
        raise ValueError(f"seed {tuple(seed)} is not a vector of GF({q})^{N}")
    p = next((j for j, c in enumerate(seed) if c), None)
    if p is None:
        raise ValueError("the zero seed has no nonzero coordinate")
    word = [0] * (n * m)
    for c, vec in zip(seed, vectors):
        word = linalg.row_sub(word, fld.neg(c), vec, fld)
    if linalg.rank([word[i * m : (i + 1) * m] for i in range(n)], fld) != r:
        raise ValueError(f"seed {tuple(seed)} does not have rank {r}")
    return word, p


def _sweep(
    fld, q: int, n: int, m: int, vectors: Sequence, k: int, d: int, budget: int | None,
    what: str, points: Collection = (), jobs: int = 1, strata: Sequence | None = None,
) -> tuple[int, int]:
    """(count, total) of the pruned sweep of the k-dim subspaces of
    GF(q)^N, N = len(vectors), on the kernel _SpanMinRank(fld, q, n, m,
    points): the subspaces with no bad word, and qbinom(N, k, q).
    Coordinate j stands for vectors[j], a flattened n x m matrix over fld.

    The sweep runs a plan: entries (weight, seed, p) and a divisor, and
    the count is sum(weight * entry count) / divisor.  The flat plan is
    the one entry (1, no seed, no p) with divisor 1, one count over
    G(N, k).  `strata`, passed only for a rank kernel on an ambient that
    a rank-preserving linear group acts on transitively within each rank,
    lists (r, A_r, seed) for every rank r >= d held by A_r > 0 words,
    with the coordinates of one rank-r word as its seed.  There the
    number f_r of good k-dim codes containing a word depends only on the
    word's rank, and counting the pairs (good code, nonzero word) gives
    count * (q^k - 1) = sum_r A_r * f_r.  The seeded plan has one entry
    (A_r, seed, p) per stratum, p the seed's first nonzero coordinate, and
    divisor q^k - 1.  The codes containing the seed correspond one to one
    with their intersections with the hyperplane x_p = 0, so f_r is one
    seeded count over G(N-1, k-1) on the units other than p.  It runs
    when its len(strata) * qbinom(N-1, k-1, q) subspaces are fewer than
    the qbinom(N, k, q) of the flat plan; the seeds are checked only then.

    The charge covers the subspaces of the plan that runs and the
    q^(k-1) words of the largest span the sweep holds, labelled `what`,
    and comes before the kernel and the Grassmannian are built.  A rank
    sweep off the GF(2) table with d > 1 then charges its bad-word
    listing, `_bad_word_cost`, before any solve or kernel.  The kernel
    lists the ambient's rank < d words once, from the whole of `vectors`
    (a seeded count tests words outside its hyperplane), and every range
    and Pool task counts against that one set.

    The sweep has min(jobs, CPUs) workers, and at most one per subspace
    of the plan.  It counts each entry in-process, in index ranges
    [lo, lo + step).  With one worker the first range is the whole entry
    and there is no deadline, so jobs = 1 makes one call per entry and
    never starts a Pool.  With more, step doubles from
    1 and the sweep stops once it has run `_POOL_AFTER_S` seconds.  What
    is left, the rest of the current entry and every later entry, is
    split into 4 deterministic chunks per worker and entry, so that
    `Pool.map` hands the uneven chunks out as workers free up.  The sweep
    then starts a Pool of its own, maps the chunks on it, and closes and
    joins it before it returns, or terminates it first if the map
    raises.  A sweep that finishes in-process starts no Pool, and at
    `_POOL_AFTER_S = 0` every entry goes to the Pool whole.  The counts
    are integers, and the count of [0, size) is the sum of the counts of
    any partition of it, so the total does not depend on where the
    deadline fell or on the chunks."""
    if not 1 <= d <= min(n, m):
        raise ValueError(f"bad parameters n={n}, m={m}, k={k}, d={d}")
    if strata is not None and points:
        raise ValueError("a point-set sweep has no rank strata to seed")
    N = len(vectors)
    total = qbinom(N, k, q)
    if strata is not None and k >= 1 and len(strata) * qbinom(N - 1, k - 1, q) < total:
        plan = [(a, *_seed_word(fld, q, n, m, vectors, r, seed)) for r, a, seed in strata]
        divisor, shape = q**k - 1, (N - 1, k - 1)
    else:
        plan, divisor, shape = [(1, None, None)], 1, (N, k)
    size = qbinom(*shape, q)
    budget = resolve_budget(budget)
    charge(len(plan) * size + q ** max(k - 1, 0), budget, what)
    if not points and d > 1 and not _by_table(fld, n, m):
        charge(_bad_word_cost(fld, q, n, m, N, d), budget, f"{what}: the ambient's rank < {d} words")
    kernel = _SpanMinRank(fld, q, n, m, points, vectors, d)
    units = [kernel.vec(v) for v in vectors]
    g = Grassmannian(*shape, q)
    workers = max(min(jobs, os.cpu_count() or 1, len(plan) * size), 1)
    # one worker counts each entry as one range [0, size), with no deadline
    deadline, first = (_POOL_AFTER_S, 1) if workers > 1 else (math.inf, size)
    weighted, weights, tasks = 0, [], []
    start = time.perf_counter()
    for weight, seed, p in plan:
        entry_units = units if p is None else units[:p] + units[p + 1 :]
        seed = None if seed is None else kernel.vec(seed)
        # in-process ranges [lo, lo + step), step doubling from `first`,
        # until the sweep has run `deadline` seconds
        lo, step = 0, first
        while lo < size and time.perf_counter() - start < deadline:
            hi = min(lo + step, size)
            weighted += weight * kernel.count(g, entry_units, d, lo, hi, seed)
            lo, step = hi, 2 * step
        bounds = [lo + (size - lo) * i // (4 * workers) for i in range(4 * workers + 1)]
        for a, b in zip(bounds, bounds[1:]):
            if a < b:
                weights.append(weight)
                tasks.append((kernel, g, entry_units, seed, d, a, b))
    counts = []
    if tasks:
        import multiprocessing

        pool = multiprocessing.Pool(processes=workers)
        try:
            counts = pool.map(_count_chunk, tasks)
        except BaseException:
            pool.terminate()
            raise
        finally:
            pool.close()
            pool.join()
    count, rest = divmod(weighted + sum(w * c for w, c in zip(weights, counts)), divisor)
    if rest:
        raise AssertionError(f"{what}: the weighted count is not divisible by {divisor}")
    return count, total


def density_bruteforce(
    n: int,
    m: int,
    k: int,
    d: int,
    q,
    budget: int | None = None,
    jobs: int = 1,
) -> DensityResult:
    """Exact count of k-dim codes in GF(q)^(n x m) with min distance >= d,
    over the full Grassmannian.  jobs > 1 splits the sweep into
    deterministic chunks; the reduction is an integer sum, so the result
    is identical for any chunking."""
    q = _as_int_q(q)
    if not 1 <= k <= n * m:
        raise ValueError(f"bad parameters n={n}, m={m}, k={k}, d={d}")
    # X -> AXB (A, B invertible) is transitive on the matrices of each
    # rank; the rank-r seed is the partial identity E_r
    strata = [
        (r, matrix_rank_count(n, m, r, q), [int(i == j < r) for i in range(n) for j in range(m)])
        for r in range(max(d, 1), min(n, m) + 1)
    ]
    t0 = time.perf_counter()
    count, total = _sweep(
        field_for_order(q), q, n, m, linalg.identity(n * m), k, d, budget,
        f"G_{q}({n * m},{k}) sweep", jobs=jobs, strata=strata,
    )
    elapsed = (time.perf_counter() - t0) * 1000.0
    return DensityResult(q, n, m, k, d, count, total, "brute_force", elapsed)


# ----------------------------------------------------------------------
# spectrum-free matrices and the 2 x m identity
# ----------------------------------------------------------------------

def spectrum_free_count(m: int, q, budget: int | None = None) -> int:
    """Number of m x m matrices over GF(q) with no eigenvalue in GF(q),
    i.e. det(M - lambda*I) != 0 for every lambda.

    The maps M -> aM + bI, (a, b) in GF(q)* x GF(q), act freely on the
    spectrum-free matrices, and the traversal counts one orbit slice:
    row 0 has M[0][0] = 0 and the first nonzero entry of the rest of
    row 0 equal to 1; the count is q(q-1) times the slice's.  This is
    exact:
    - aM + bI has the eigenvalues a*lambda + b of M, so it is
      spectrum-free iff M is;
    - aM + bI = M with (a, b) != (1, 0) forces M to be scalar, and a
      scalar matrix has an eigenvalue, so every orbit has q(q-1) members;
    - row 0 of a spectrum-free M is not a multiple of e_0 (else
      M - M[0][0]*I has a zero row), so exactly one (a, b) maps it into
      the slice: b = -a*M[0][0] and a the inverse of the first nonzero
      entry of the rest of row 0.
    For m = 1 the slice is empty and the count is 0.

    One depth-first traversal over the rows of M.  For every lambda it
    keeps the span of the rows fixed so far of M - lambda*I, whose row i
    is r_i - lambda*e_i, as the set of the row codes of its vectors
    (`linalg.grow_span`).  The candidate r_x - lambda*e_i is dependent
    iff its code lies in that set, that is iff x, the code of r_x, lies
    in the set translated by lambda*e_i; so the translates of the q
    sets, one per lambda, hold exactly the rows x that some lambda makes
    dependent.  Such a prefix is dropped with its q^(m(m-1-i))
    completions, and at the last row the leaves are counted as the rows
    outside every translate.  The traversal is exact: M is spectrum-free
    iff M - lambda*I has independent rows for every lambda.  The count
    shares nothing with the density sweep on the other side of the
    2 x m identity: no span kernel, no Grassmannian, no elimination; the
    slice comes from the eigenvalues alone.  The budget is charged the
    larger of q^(m^2), the whole matrix space, and the size of the
    row-code tables, before anything is built."""
    q = _as_int_q(q)
    if m < 1:
        raise ValueError(f"need m >= 1, got m = {m}")
    fld = field_for_order(q)
    cost = max(q ** (m * m), linalg.row_arithmetic_size(q, m))
    charge(cost, resolve_budget(budget), f"enumerating GF({q})^({m}x{m})")
    Q = q**m
    add, scale = linalg.row_arithmetic(fld, m)
    # shift[i][lam] is the code of lam*e_i; shifted[i][x][lam] that of
    # r_x - lam*e_i, r_x the row of code x, for every row but the last
    shift = [[lam * q**i for lam in range(q)] for i in range(m)]
    shifted = [
        [tuple(add[x * Q + fld.neg(lam) * q**i] for lam in range(q)) for x in range(Q)]
        for i in range(m - 1)
    ]

    # the codes of the slice's row 0: digit 0 is 0 and the lowest
    # nonzero digit above it, digit j, is 1
    first_rows = [q**j + q ** (j + 1) * y for j in range(1, m) for y in range(q ** (m - 1 - j))]

    def count(i: int, spans: list) -> int:
        # spans[lam]: the codes of the span of the rows < i of M - lam*I
        dependent = set()
        for span, t in zip(spans, shift[i]):
            dependent.update([add[s * Q + t] for s in span])
        if i == m - 1:
            return Q - len(dependent)
        total = 0
        for x in first_rows if i == 0 else range(Q):
            if x not in dependent:
                grown = [linalg.grow_span(span, v, add, scale) for v, span in zip(shifted[i][x], spans)]
                total += count(i + 1, grown)
        return total

    return q * (q - 1) * count(0, [{0}] * q)


def spectrum_free_identity_check(m: int, q, budget: int | None = None) -> bool:
    """True iff the brute-force count of m-dim codes in GF(q)^(2 x m) with
    min distance 2 equals the brute-force spectrum-free count s_q(m); the
    two sides are computed independently."""
    lhs = density_bruteforce(2, m, m, 2, q, budget=budget).count
    rhs = spectrum_free_count(m, q, budget=budget)
    return lhs == rhs


# ----------------------------------------------------------------------
# closed formulas and asymptotic evaluators: each refuses a q that is not
# a prime power
# ----------------------------------------------------------------------

def density_3x3_formula(q) -> Fraction:
    """Exact density of 3-dim codes in GF(q)^(3x3) with min distance 3."""
    q = _as_prime_power(q)
    num = (
        (q - 1)
        * (q**3 - 1)
        * (q**3 - q) ** 3
        * (q**3 - q**2) ** 2
        * (q**3 - q**2 - q - 1)
    )
    den = 3 * (q**7 - 1) * (q**9 - 1) * (q**9 - q)
    return Fraction(num, den)


def mrd_lowerbound_formula(n: int, q) -> tuple[int, Fraction]:
    """Lower bound on the number of full-rank MRD codes in GF(q)^(n x n)
    (sharp for n = 3 and any q, and for n prime with q large):

        |GL_n(q)|^2/(n (q^n-1)^2) * (1 + C(n-1,2) (q^n-1)(q-2)/(q-1))

    Returns (count, count / qbinom(n^2, n, q))."""
    q = _as_prime_power(q)
    if n < 2:
        raise ValueError("need n >= 2")
    glsq = Fraction(gl_order(n, q) ** 2)
    bracket = 1 + Fraction(math.comb(n - 1, 2) * (q**n - 1) * (q - 2), q - 1)
    count = glsq / (n * (q**n - 1) ** 2) * bracket
    if count.denominator != 1:
        raise AssertionError("lower-bound formula must be integral")
    count_int = count.numerator
    return count_int, Fraction(count_int, qbinom(n * n, n, q))


def prime_factor_count(n: int) -> int:
    """Number of prime factors of n, counted with multiplicity."""
    return sum(e for _, e in factorize(n))


def kantor_lowerbound(n: int) -> int:
    """q = 2 only: lower bound |GL_n(2)|^2 2^n (2^n-1)^(gamma(n)-2) / (2n)
    on the number of full-rank MRD codes in GF(2)^(n x n), from Kantor's
    commutative semifields (chains of fields of odd degree); requires n
    odd, composite and not a power of 3.  At n = 4 it would exceed the
    exact count, 26,793,984."""
    if n % 2 == 0:
        raise ValueError(f"n = {n} is even; the bound needs n odd")
    gamma = prime_factor_count(n)
    if gamma < 2:
        raise ValueError(f"n = {n} is prime (or 1); the bound does not apply")
    k = n
    while k % 3 == 0:
        k //= 3
    if k == 1:
        raise ValueError(f"n = {n} is a power of 3; the bound does not apply")
    value = Fraction(gl_order(n, 2) ** 2 * 2**n * (2**n - 1) ** (gamma - 2), 2 * n)
    if value.denominator != 1:
        raise AssertionError("Kantor's bound must be integral")
    return value.numerator


def asymptotic_constants(
    n: int, d: int, q: int | None = None, eps: float = 1e-9
) -> dict:
    """Evaluated asymptotic expressions for the density of MRD codes in
    GF(q)^(n x n) / GF(q)^(n x m):

    - 'lower_q': the sharp q -> inf estimate (n-1)(n-2)/(2n) q^(-n^3+3n^2-n)
      (exact asymptotics when n is prime; an Omega bound in general).
    - 'upper_q': the q -> inf upper bound exponent O(q^(-(d-1)(n-d+1)+1)).
    - 'upper_m_*': both branch values of the m -> inf limsup bound, with
      pi(q) evaluated to certified precision eps; 'upper_m' is their min.
      Each is the float its exact value (from the float pi(q)) rounds
      to, 0.0 where that lies below the least subnormal.
    """
    if not 2 <= d <= n:
        raise ValueError("need 2 <= d <= n")
    out: dict = {
        "lower_q": AsymptoticEstimate(
            Fraction((n - 1) * (n - 2), 2 * n), "q", -(n**3) + 3 * n**2 - n
        ),
        "upper_q": AsymptoticEstimate(Fraction(1), "q", -(d - 1) * (n - d + 1) + 1),
    }
    if q is not None:
        q = _as_prime_power(q)
        piq, bound = pi_q_limit(q, eps)
        b1 = piq ** -(q * (d - 1) * (n - d + 1) + 1)  # underflows to 0.0
        # 1 / (Q (piq - 1) + 1) as one correctly rounded int quotient; Q =
        # qbinom(n, d - 1, q) >= q^((d-1)(n-d+1)), not formed once that is past
        num, den = (piq - 1.0).as_integer_ratio()
        past = num and (d - 1) * (n - d + 1) * math.log2(q) + math.log2(num / den) > 1076
        b2 = 0.0 if past else den / (qbinom(n, d - 1, q) * num + den)
        out["pi_q"] = piq
        out["pi_q_bound"] = bound
        out["upper_m_branch1"] = b1
        out["upper_m_branch2"] = b2
        out["upper_m"] = min(b1, b2)
    return out
