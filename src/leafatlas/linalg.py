"""Exact dense linear algebra over Q(zeta) scalars.

Vectors are tuples of CycNum, matrices tuples of row tuples.  Subspaces are
always carried as reduced-row-echelon bases, so equal subspaces have equal
bases.  Everything is pure and deterministic.  A subspace is born as the
null space of the rows that cut it out (V^P from the alphas of P, V^g from
the rows of g - 1), so an intersection is one null space of stacked cut rows.

A product a @ b is each row of a dotted with each column of b.  Group
closure does not come here: it multiplies on integer coordinates (see
`refgroup`).
"""

from __future__ import annotations

from .exactnum import CycNum, as_cyc

Vector = tuple[CycNum, ...]
Matrix = tuple[tuple[CycNum, ...], ...]

_ZERO = CycNum.zero()
_ONE = CycNum.one()


def mat(rows) -> Matrix:
    return tuple(tuple(as_cyc(e) for e in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n))


def zero_vector(n: int) -> Vector:
    return tuple(_ZERO for _ in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


def dot(c: Vector, v: Vector) -> CycNum:
    s = _ZERO
    for x, y in zip(c, v):
        if not x.is_zero() and not y.is_zero():
            s = s + x * y
    return s


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return tuple(dot(row, v) for row in a)


def covec_mat(c: Vector, a: Matrix) -> Vector:
    return tuple(dot(c, col) for col in zip(*a))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def transpose(a: Matrix) -> Matrix:
    if not a:
        return ()
    return tuple(tuple(a[i][j] for i in range(len(a))) for j in range(len(a[0])))


def scale_vec(c: CycNum, v: Vector) -> Vector:
    return tuple(c * x for x in v)


def add_vec(u: Vector, v: Vector) -> Vector:
    return tuple(x + y for x, y in zip(u, v))


def rref(rows: list[Vector] | tuple[Vector, ...]) -> tuple[Vector, ...]:
    """Reduced row echelon form; zero rows dropped.  Canonical for the span."""
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(work)) if not work[i][c].is_zero()), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = work[r][c].inverse()
        # the pivot row is zero left of c: eliminate over its nonzero columns
        nz = [(j, inv * x) for j, x in enumerate(work[r][c:], c) if not x.is_zero()]
        for j, x in nz:
            work[r][j] = x
        for i in range(len(work)):
            f = work[i][c]
            if i != r and not f.is_zero():
                row = work[i]
                for j, y in nz:
                    row[j] = row[j] - f * y
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r])


def nullspace(a: Matrix, ncols: int) -> tuple[Vector, ...]:
    """RREF basis of {v : a @ v = 0} in K^ncols (column vectors returned as tuples)."""
    if not a:
        return identity(ncols)
    red = rref(a)
    pivots = [next(c for c in range(ncols) if not row[c].is_zero()) for row in red]
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [_ZERO] * ncols
        v[fc] = _ONE
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return rref(basis) if basis else ()


def mat_inverse(a: Matrix) -> Matrix:
    """The right half of the RREF of (a | 1); a is singular iff the last
    pivot lands in the right half."""
    n = len(a)
    red = rref([tuple(row) + e for row, e in zip(a, identity(n))])
    if red[-1][n - 1].is_zero():
        raise ZeroDivisionError("singular matrix")
    return tuple(row[n:] for row in red)


def det(a: Matrix) -> CycNum:
    n = len(a)
    work = [list(row) for row in a]
    out = _ONE
    for c in range(n):
        pr = next((r for r in range(c, n) if not work[r][c].is_zero()), None)
        if pr is None:
            return _ZERO
        if pr != c:
            work[c], work[pr] = work[pr], work[c]
            out = -out
        out = out * work[c][c]
        inv = work[c][c].inverse()
        for r in range(c + 1, n):
            if not work[r][c].is_zero():
                f = work[r][c] * inv
                work[r] = [x - f * y for x, y in zip(work[r], work[c])]
    return out


def coordinates(basis: tuple[Vector, ...], v: Vector) -> Vector | None:
    """The coordinates of v over an RREF basis, its entries at the rows'
    pivots, or None if v is outside the span (of () unless v is zero)."""
    x = tuple(v[next(c for c, y in enumerate(b) if not y.is_zero())] for b in basis)
    return x if all(dot(x, tuple(b[j] for b in basis)) == y for j, y in enumerate(v)) else None


# -- subspace helpers (bases stored as RREF row tuples) ----------------------

def span(vectors) -> tuple[Vector, ...]:
    vectors = [v for v in vectors if any(not x.is_zero() for x in v)]
    return rref(vectors) if vectors else ()


def fixed_rows(m: Matrix) -> Matrix:
    """The rows of m - 1, which cut out the vectors fixed by m."""
    return mat_sub(m, identity(len(m)))


def fixed_dim(m: Matrix) -> int:
    """dim Ker(m - id), as len(m) less the rank of m - 1: one RREF, no basis."""
    return len(m) - len(rref(fixed_rows(m)))


def intersect(a: tuple[Vector, ...], b: tuple[Vector, ...], n: int) -> tuple[Vector, ...]:
    """The intersection of two spans, as three null spaces: the reference
    for one null space of stacked cut rows."""
    return nullspace(nullspace(a, n) + nullspace(b, n), n)


def subspace_leq(a: tuple[Vector, ...], b: tuple[Vector, ...]) -> bool:
    """True iff span(a) is contained in span(b), b a basis."""
    return len(rref(list(b) + list(a))) == len(b)
