"""Linear-algebra helpers that only the tests use: vector literals and the
fixed space of a matrix as a basis."""

from leafatlas import linalg as la
from leafatlas.exactnum import as_cyc


def vec(entries) -> la.Vector:
    return tuple(as_cyc(e) for e in entries)


def fixed_space(m: la.Matrix) -> tuple[la.Vector, ...]:
    """Basis of Ker(m - id), i.e. vectors fixed by m."""
    return la.nullspace(la.fixed_rows(m), len(m))
