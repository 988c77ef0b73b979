"""Exact linear algebra over the package's field handles.

Vectors are tuples of int-encoded field elements; matrices are tuples of
row vectors.  The generic routines work over anything exposing
add/sub/neg/mul/inv on ints, as every `fields.FiniteField` does.  A
bit-packed GF(2) kernel backs the hot enumeration paths; it never leaks
into public interfaces.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]


def rref(rows: Iterable[Sequence[int]], fld) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row-echelon form; returns (nonzero rows, pivot columns).

    The output is the canonical representative of the row space: two
    subspaces are equal iff their rref rows are equal.
    """
    work = [list(r) for r in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(work)):
            if work[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        lead = work[r][c]
        if lead != 1:
            inv = fld.inv(lead)
            work[r] = [fld.mul(inv, x) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                factor = work[i][c]
                work[i] = [
                    fld.sub(x, fld.mul(factor, y)) for x, y in zip(work[i], work[r])
                ]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def rank(rows: Iterable[Sequence[int]], fld) -> int:
    return len(rref(rows, fld)[0])


def in_rowspan(rref_rows: Matrix, pivots: Sequence[int], vec: Sequence[int], fld) -> bool:
    """Membership test against a precomputed rref basis."""
    v = list(vec)
    for row, c in zip(rref_rows, pivots):
        if v[c]:
            factor = v[c]
            v = [fld.sub(x, fld.mul(factor, y)) for x, y in zip(v, row)]
    return not any(v)


def nullspace(rows: Iterable[Sequence[int]], fld) -> Matrix:
    """Canonical basis of {x : rows . x = 0} (right kernel)."""
    reduced, pivots = rref(rows, fld)
    if not reduced:
        # zero map: whole space; caller must know ncols, so demand rows
        rows = list(rows)
        raise ValueError("nullspace of an empty matrix is ambiguous")
    ncols = len(reduced[0])
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(reduced, pivots):
            # pivot var = -sum(free entries)
            v[pc] = fld.neg(row[fc])
        basis.append(tuple(v))
    return tuple(basis)


def solution_space(rows: Sequence[Sequence[int]], ncols: int, fld) -> Matrix:
    """Basis of the right kernel, handling the no-constraint case."""
    rows = [r for r in rows if any(r)]
    if not rows:
        ident = []
        for i in range(ncols):
            v = [0] * ncols
            v[i] = 1
            ident.append(tuple(v))
        return tuple(ident)
    return nullspace(rows, fld)


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], fld) -> Matrix:
    nb = len(b[0])
    bt = list(zip(*b))
    out = []
    for row in a:
        orow = []
        for col in bt:
            s = 0
            for x, y in zip(row, col):
                if x and y:
                    s = fld.add(s, fld.mul(x, y))
            orow.append(s)
        out.append(tuple(orow))
    return tuple(out)


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int], fld) -> Vector:
    out = []
    for row in a:
        s = 0
        for x, y in zip(row, v):
            if x and y:
                s = fld.add(s, fld.mul(x, y))
        out.append(s)
    return tuple(out)


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_inv(a: Sequence[Sequence[int]], fld) -> Matrix | None:
    """Inverse of a square matrix, or None if singular."""
    n = len(a)
    work = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(a)]
    r = 0
    for c in range(n):
        pivot = None
        for i in range(r, n):
            if work[i][c]:
                pivot = i
                break
        if pivot is None:
            return None
        work[r], work[pivot] = work[pivot], work[r]
        lead = work[r][c]
        if lead != 1:
            inv = fld.inv(lead)
            work[r] = [fld.mul(inv, x) for x in work[r]]
        for i in range(n):
            if i != r and work[i][c]:
                factor = work[i][c]
                work[i] = [
                    fld.sub(x, fld.mul(factor, y)) for x, y in zip(work[i], work[r])
                ]
        r += 1
    return tuple(tuple(row[n:]) for row in work)


def is_invertible(a: Sequence[Sequence[int]], fld) -> bool:
    return len(a) == len(a[0]) and rank(a, fld) == len(a)


def span_elements(basis: Sequence[Sequence[int]], fld) -> Iterable[Vector]:
    """All q^k vectors in the span of k basis vectors, zero included."""
    if not basis:
        yield ()
        return
    ncols = len(basis[0])
    q = fld.order
    k = len(basis)
    for idx in range(q**k):
        v = [0] * ncols
        e = idx
        for b in basis:
            c = e % q
            e //= q
            if c:
                v = [fld.add(x, fld.mul(c, y)) for x, y in zip(v, b)]
        yield tuple(v)


def projective_reps(k: int, q: int) -> Iterable[Vector]:
    """One coefficient vector per projective point of GF(q)^k: the first
    nonzero coordinate is 1.  Deterministic order."""
    for lead in range(k):
        prefix = (0,) * lead + (1,)
        tail = k - lead - 1
        for idx in range(q**tail):
            rest = []
            e = idx
            for _ in range(tail):
                rest.append(e % q)
                e //= q
            yield prefix + tuple(rest)


# ----------------------------------------------------------------------
# GF(2) bit-packed kernels (rows as ints, column j = bit j)
# ----------------------------------------------------------------------

def pack_row(row: Sequence[int]) -> int:
    bits = 0
    for j, x in enumerate(row):
        if x:
            bits |= 1 << j
    return bits


def rank_bits(rows: list[int]) -> int:
    work = [r for r in rows if r]
    rank_ = 0
    while work:
        pivot_row = work.pop()
        low = pivot_row & -pivot_row
        rank_ += 1
        work = [(r ^ pivot_row) if (r & low) else r for r in work]
        work = [r for r in work if r]
    return rank_


@lru_cache(maxsize=None)
def gf2_rank_table(n: int, m: int) -> bytes:
    """rank of every n x m GF(2) matrix, indexed by its nm-bit row-major
    packing.  Only built for nm <= 16."""
    cells = n * m
    if cells > 16:
        raise ValueError("rank table limited to nm <= 16")
    out = bytearray(1 << cells)
    row_mask = (1 << m) - 1
    for code in range(1 << cells):
        rows = [(code >> (m * i)) & row_mask for i in range(n)]
        out[code] = rank_bits(rows)
    return bytes(out)
