"""Exact linear algebra over the package's field handles.

Vectors are tuples of int-encoded field elements; matrices are tuples of
row vectors.  The routines work over a `fields.FiniteField`.  The one
elimination is `_echelon`: each row is reduced against the echelon basis
so far by `reduce` and appended if it stays nonzero; `rank`, `rref`,
`solution_space` and `mat_inv` all run on it.  Every step is one row
operation, `row_sub` (x - f*y) or `row_scale` (f*x).  Over a prime field
(h == 1) the row operations do the arithmetic inline modulo p; an
extension field goes through its add/mul.  `span_elements` walks a
GF(q)-space of vectors, one `row_sub` per changed digit; a space of
matrices whose ranks are counted is walked by `span_ranks` (below).
`mat_mul` and `mat_vec` also sum each entry inline modulo p over a prime
field.

A vector of GF(q)^n also has a row code, the int sum of v[c] * q^c.
`row_arithmetic` tabulates addition and scaling on these codes, cached
per (field, n), and `grow_span` grows the set of codes of a span by one
row with them; membership in a span is then one set lookup, with no
elimination.  GL_n(q) (`semifield`), the spectrum-free count (`codes`),
the point-set histograms (`critical`) and `span_ranks`, which ranks
every matrix of a matrix space row by row (the rank distributions of
`restricted` and the rank-ball point set of `critical`), test
independence that way.
`gf2_rank_table`, the rank of every n x m GF(2) matrix with nm <= 16
indexed by its row-major bits (the GF(2) word of the codeword-sweep
kernel `codes._SpanMinRank`), runs its own elimination on int rows.
Every other sweep of that kernel takes its words of rank < d from one
`span_ranks` walk pruned at rank d; nothing here caches a rank.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Sequence

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]


def row_sub(x: Sequence[int], f: int, y: Sequence[int], fld) -> list[int]:
    """The row x - f*y.  Over a prime field the arithmetic is inline
    `% p`; an extension field goes through its add/mul, as x + (-f)*y."""
    if fld.h == 1:
        p = fld.p
        return [(a - f * b) % p for a, b in zip(x, y)]
    add, mul, g = fld.add, fld.mul, fld.neg(f)
    return [add(a, mul(g, b)) for a, b in zip(x, y)]


def row_scale(f: int, x: Sequence[int], fld) -> list[int]:
    """The row f*x, inline `% p` over a prime field as in `row_sub`."""
    if fld.h == 1:
        p = fld.p
        return [f * a % p for a in x]
    mul = fld.mul
    return [mul(f, a) for a in x]


def reduce(vec: Sequence[int], rows: Sequence[Sequence[int]], pivots: Sequence[int], fld) -> list[int]:
    """vec minus the combination of rows that clears every pivot column.

    Row j must be 1 in column pivots[j] and 0 in column pivots[i] for
    every i < j.  Rref rows are, and so is a basis grown by appending each
    new vector reduced against it and scaled to 1 at its pivot.  The
    result is zero iff vec lies in the span of rows."""
    v = list(vec)
    for row, c in zip(rows, pivots):
        f = v[c]
        if f:
            v = row_sub(v, f, row, fld)
    return v


def _echelon(
    rows: Iterable[Sequence[int]], fld, full: int | None = None
) -> tuple[list[list[int]], list[int]]:
    """An echelon basis of the rows and its pivots, in input order: each
    row is reduced against the basis so far by `reduce` and, if nonzero,
    scaled to 1 at its first nonzero column and appended, so row j is 0 at
    every earlier pivot.  No row is pulled once the basis has `full` rows."""
    basis: list[list[int]] = []
    pivots: list[int] = []
    for row in rows:
        v = reduce(row, basis, pivots, fld)
        f = next(filter(None, v), 0)
        if not f:
            continue
        if f != 1:
            v = row_scale(fld.inv(f), v, fld)
        basis.append(v)
        pivots.append(v.index(1))  # the scaled first nonzero entry
        if len(basis) == full:
            break
    return basis, pivots


def _back_substitute(basis: list[list[int]], pivots: Sequence[int], fld) -> None:
    """Clear each row of an `_echelon` basis, in place, at the pivots of
    the rows below it, last row first: the rows become rref rows."""
    for j in range(len(basis) - 2, -1, -1):
        v = basis[j]
        for i in range(j + 1, len(basis)):
            f = v[pivots[i]]
            if f:
                v = row_sub(v, f, basis[i], fld)
        basis[j] = v


def rref(rows: Iterable[Sequence[int]], fld) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row-echelon form; returns (nonzero rows, pivot columns).

    The output is the canonical representative of the row space: two
    subspaces are equal iff their rref rows are equal.
    """
    basis, pivots = _echelon(rows, fld)
    if not basis:
        return (), ()
    _back_substitute(basis, pivots, fld)
    # sorted by pivot: the pivots are distinct, so no two rows are compared
    pivots, basis = zip(*sorted(zip(pivots, map(tuple, basis))))
    return basis, pivots


def rank(rows: Iterable[Sequence[int]], fld) -> int:
    return len(_echelon(rows, fld)[0])


def in_rowspan(rref_rows: Matrix, pivots: Sequence[int], vec: Sequence[int], fld) -> bool:
    """Membership test against a precomputed rref basis."""
    return not any(reduce(vec, rref_rows, pivots, fld))


def solution_space(rows: Iterable[Sequence[int]], ncols: int, fld) -> Matrix:
    """Canonical basis of the right kernel {x : row . x = 0 for every row}
    of rows of length ncols, all of GF(q)^ncols when no row is nonzero.

    The rows go through `_echelon` with full = ncols.  Once its rank
    reaches ncols the kernel is {0}: () is returned and no further row is
    pulled, so the rows may be a generator that makes each one on demand.
    Otherwise the basis is back-substituted to the rref of the rows, and
    the kernel read off it: for each free column fc, the vector with 1 at
    fc, -row[fc] at the pivot of each row and 0 elsewhere."""
    basis, pivots = _echelon(rows, fld, ncols)
    if len(basis) == ncols:
        return ()
    _back_substitute(basis, pivots, fld)
    kernel = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(basis, pivots):
            v[pc] = fld.neg(row[fc])
        kernel.append(tuple(v))
    return tuple(kernel)


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], fld) -> Matrix:
    """The product a . b.  Over a prime field each entry is one inline sum
    `% p`; an extension field goes through its add/mul."""
    bt = list(zip(*b))
    if fld.h == 1:
        p, mul = fld.p, int.__mul__
        return tuple(tuple(sum(map(mul, row, col)) % p for col in bt) for row in a)
    add, mul = fld.add, fld.mul
    out = []
    for row in a:
        orow = []
        for col in bt:
            s = 0
            for x, y in zip(row, col):
                if x and y:
                    s = add(s, mul(x, y))
            orow.append(s)
        out.append(tuple(orow))
    return tuple(out)


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int], fld) -> Vector:
    """The vector a . v, inline `% p` over a prime field as in `mat_mul`."""
    if fld.h == 1:
        p, mul = fld.p, int.__mul__
        return tuple(sum(map(mul, row, v)) % p for row in a)
    add, mul = fld.add, fld.mul
    out = []
    for row in a:
        s = 0
        for x, y in zip(row, v):
            if x and y:
                s = add(s, mul(x, y))
        out.append(s)
    return tuple(out)


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_inv(a: Sequence[Sequence[int]], fld) -> Matrix | None:
    """Inverse of a square matrix, or None if singular: the rref of
    [A | I] is [I | A^-1] exactly when its pivots are the columns of A."""
    n = len(a)
    rows, pivots = rref([tuple(row) + e for row, e in zip(a, identity(n))], fld)
    if pivots != tuple(range(n)):
        return None
    return tuple(row[n:] for row in rows)


@lru_cache(maxsize=None)
def row_arithmetic(fld, n: int) -> tuple[list[int], list[list[int]]]:
    """Addition and scaling on the row codes of GF(q)^n, the code of v
    being sum of v[c] * q^c: add[v * q^n + w] is the code of v + w and
    scale[a][v] that of a * v.  Cached per (field, n).  The two tables
    hold `row_arithmetic_size(q, n)` entries, which a caller charges to
    its budget before the first call.

    The tables of GF(q)^(k+1) are composed from those of GF(q)^k and the
    one-entry tables, q^2 field calls in all: v = v0 + q*v' splits a code
    into entry 0 and the code of the other k entries, so the code of
    v + w is add1[v0][w0] + q * (the code of v' + w'), and that of a * v
    is mul1[a][v0] + q * (the code of a * v')."""
    q = fld.order
    add1 = [[fld.add(x, y) for y in range(q)] for x in range(q)]
    mul1 = [[fld.mul(a, x) for x in range(q)] for a in range(q)]
    add, scale, Qk = [0], [[0]] * q, 1
    for _ in range(n):
        shifted = [q * t for t in add]
        grown: list[int] = []
        # v = v0 + q*v' in increasing order: v' outer, v0 inner, and the
        # same split of w inside each row
        for vp in range(0, Qk * Qk, Qk):
            row = shifted[vp : vp + Qk]
            for a in add1:
                grown += [t + s for t in row for s in a]
        add = grown
        scale = [[q * t + s for t in row for s in m] for row, m in zip(scale, mul1)]
        Qk *= q
    return add, scale


def row_arithmetic_size(q: int, n: int) -> int:
    """The number of entries of `row_arithmetic` over GF(q)^n:
    q^(2n) sums and q^(n+1) multiples."""
    return q ** (2 * n) + q ** (n + 1)


def grow_span(
    span: Iterable[int], v: int, add: Sequence[int], scale: Sequence[Sequence[int]]
) -> set[int]:
    """The row codes of span + GF(q)*v, where span holds the codes of every
    vector of a subspace and (add, scale) = `row_arithmetic(fld, n)`.  A
    vector lies in the span iff its code is in the set, so an
    independence test is one set lookup; the set grows q-fold when v is
    outside it."""
    Q = len(scale[0])
    multiples = [row[v] for row in scale]
    return {add[s * Q + w] for s in span for w in multiples}


def span_ranks(
    mats: Sequence[Sequence[Sequence[int]]], fld, q: int | None = None, below: int | None = None
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(rank, row codes) of every matrix of the GF(q)-span of independent
    n x m matrices: the q^k matrices of `span_elements` on their flattened
    entries, in another order, each ranked without elimination.

    Ranks are over fld, the field of the entries, whose row codes (over
    GF(fld.order)^m) are added and scaled by `row_arithmetic(fld, m)`; q,
    by default fld.order, is the order of the coefficient field, as in
    `span_elements` (GF(q) inside GF(q^2) for Hermitian matrices).

    The matrices are grouped by their first nonzero row.  A matrix of the
    span is a sum of one word of each group's span, and rows 0..r of the
    sum are fixed once the words of groups 0..r are chosen, so the span is
    walked row by row: level r adds each word of group r's span to the
    row codes carried down from the groups above it.  Each level keeps the
    set of row codes of the span of the rows fixed so far (`grow_span`,
    one multiple per element of fld), so a row raises the rank iff its
    code is outside that set, one lookup.  The last row needs no grown
    span: v lies in span(S, x) iff v + c*x lies in S for some c in fld.
    The span of the rows above it is grown when the last row has at least
    |S| words, and each word is tested by those lookups otherwise.  An
    empty basis spans only the zero matrix, yielded as (0, ()).

    Given below >= 1, only the matrices of rank < below are yielded.  A
    row that raises the rank to below is dropped with every completion
    of its prefix.  Once rows 0..n-2 have rank below - 1, the last row
    must lie in their span S: it is c + w, c the code carried down to row
    n-1 and w a word of the last group's span L, so the walk lists the c
    + w in S from whichever of L and S is smaller, not from every word of
    L.  The walk then costs about the number of rank < below matrices
    rather than q^k."""
    if not mats:
        yield 0, ()
        return
    q = fld.order if q is None else q
    n, m, Qe = len(mats[0]), len(mats[0][0]), fld.order
    Q = Qe**m
    add, scale = row_arithmetic(fld, m)
    weights = [Qe**c for c in range(m)]
    coefficients = scale[:q]
    # cols[r][i]: the codes of row r + i of every word of group r's span
    # (the zero word alone for an empty group); a zero row of a matrix
    # repeats the column once per coefficient
    cols = [[[0]] * (n - r) for r in range(n)]
    for mat in mats:
        codes = [sum(map(int.__mul__, row, weights)) for row in mat]
        r = codes.index(next(filter(None, codes)))
        cols[r] = [
            [add[s * Q + sc[x]] for sc in coefficients for s in col] if x else col * q
            for x, col in zip(codes[r:], cols[r])
        ]
    last = cols[-1][0]
    below = n + 1 if below is None else below
    if n == 1:
        yield from [(int(v != 0), (v,)) for v in last if int(v != 0) < below]
        return

    def fixed(r: int, carried, prefix: tuple, span: set, rank: int):
        """The states with rows 0..n-3 fixed: (the codes of rows n-2 and
        n-1 so far, those of rows 0..n-3, their span, their rank)."""
        if r == n - 2:
            yield carried, prefix, span, rank
            return
        for w in zip(*cols[r]):
            rows = [add[s * Q + t] for s, t in zip(carried, w)]
            x = rows[0]
            if x in span:
                yield from fixed(r + 1, rows[1:], prefix + (x,), span, rank)
            elif rank + 1 < below:
                grown = grow_span(span, x, add, scale)
                yield from fixed(r + 1, rows[1:], prefix + (x,), grown, rank + 1)

    nlast, ends, minus = len(last), set(last), scale[fld.neg(1)]
    for (cx, cy), prefix, span, rank in fixed(0, (0,) * n, (), {0}, 0):
        bx, by = cx * Q, cy * Q
        for wx, wy in zip(*cols[-2]):
            x = add[bx + wx]
            c = add[by + wy]
            pre = prefix + (x,)
            top = rank + (x not in span)  # the rank of rows 0..n-2
            if top >= below:
                continue
            if top == below - 1:  # only a last row inside their span S
                S = span if top == rank else grow_span(span, x, add, scale)
                if nlast <= len(S):
                    ys = [y for y in (add[c * Q + w] for w in last) if y in S]
                else:
                    ys = [y for y in S if add[y * Q + minus[c]] in ends]
                yield from [(top, pre + (y,)) for y in ys]
                continue
            base = c * Q
            ys = [add[base + w] for w in last]
            if x in span:
                yield from [(rank + (y not in span), pre + (y,)) for y in ys]
            elif nlast >= len(span):
                grown = grow_span(span, x, add, scale)
                yield from [(rank + 1 + (y not in grown), pre + (y,)) for y in ys]
            else:
                xs = [sc[x] for sc in scale]
                yield from [
                    (rank + 1 + all(add[y * Q + t] not in span for t in xs), pre + (y,))
                    for y in ys
                ]


def span_elements(basis: Sequence[Sequence[int]], fld, q: int | None = None) -> Iterator[Vector]:
    """All q^k vectors of the GF(q)-span of k basis vectors, zero included.

    q, by default fld.order, is the order of a field below fld in its
    tower (GF(q) in GF(q^2) for Hermitian matrices), whose elements are
    the ints range(q).  Element idx has the base-q digits of idx as
    coefficients, basis[0] least significant.  Each step applies one
    `row_sub` per digit it changes, by the field difference of the old
    and new digit: over GF(4), where 2 encodes t, 1 -> 2 adds t + 1 = 3."""
    q = fld.order if q is None else q
    k = len(basis)
    if not k:
        yield ()
        return
    step = [fld.sub(c, (c + 1) % q) for c in range(q)]
    digits = [0] * k
    v = [0] * len(basis[0])
    yield tuple(v)
    for _ in range(q**k - 1):
        j = 0
        while True:
            c = digits[j]
            v = row_sub(v, step[c], basis[j], fld)
            c = digits[j] = (c + 1) % q
            if c:
                break
            j += 1
        yield tuple(v)


@lru_cache(maxsize=None)
def gf2_rank_table(n: int, m: int) -> bytes:
    """rank of every n x m GF(2) matrix, indexed by its nm-bit row-major
    packing, entry j at bit j.  Only built for nm <= 16."""
    cells = n * m
    if cells > 16:
        raise ValueError("rank table limited to nm <= 16")
    out = bytearray(1 << cells)
    row_mask = (1 << m) - 1
    for code in range(1 << cells):
        work = [r for r in ((code >> (m * i)) & row_mask for i in range(n)) if r]
        rk = 0
        while work:
            pivot = work.pop()
            low = pivot & -pivot
            rk += 1
            work = [x for x in ((r ^ pivot) if (r & low) else r for r in work) if x]
        out[code] = rk
    return bytes(out)
