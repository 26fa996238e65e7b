"""Closed-form leaf classifications for types B and D and the dihedral family.

Everything here is exact arithmetic over the labels (n, m, r): smoothness
windows, cuspidal-rank conditions, leaf dimensions, normalizer identifica-
tions, and the model spaces for the normalized leaf closures.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .exactnum import CycNum


class CatalogError(Exception):
    pass


# The tables report normalizer orders 2^n n!, which pass Python's 4300-digit
# limit on int-to-str conversion from n = 1424 on.
MAX_RANK = 1000


def _check_rank(n: int, least: int, what: str) -> None:
    if not least <= n <= MAX_RANK:
        raise CatalogError(f"{what} needs {least} <= rank <= {MAX_RANK}")


def _b_order(s: int) -> int:
    return 2 ** s * math.factorial(s)


class LeafRecord(namedtuple(
        "LeafRecord", "n m r dimension cuspidal support_rank normalizer_label "
                      "normalizer_order model_label")):
    """One row of the type-B table (m the ratio) or the type-D one (m None).

    `cuspidal` marks the zero-dimensional member of the list; `support_rank`
    is r(r+m) for type B and r^2 for type D; `normalizer_label` is B<corank>,
    or D<n> for type D at r = 0."""
    __slots__ = ()

    def as_row(self) -> dict:
        row = {
            "n": self.n, "m": self.m, "r": self.r,
            "dim": self.dimension,
            "cuspidal": self.cuspidal,
            "support_rank": self.support_rank,
            "normalizer": self.normalizer_label,
            "normalizer_order": self.normalizer_order,
            "model": self.model_label,
            "source": "catalog",
        }
        if self.m is None:
            del row["m"]
        return row


def smooth_B(n: int, ratio) -> bool:
    """Smoothness of the type-B space in terms of the parameter ratio:
    smooth iff the ratio avoids the integer window |m| <= n-1."""
    if n < 1:
        raise CatalogError("rank must be positive")
    if isinstance(ratio, CycNum):
        if not ratio.is_rational():
            return True
        ratio = ratio.as_fraction()
    ratio = Fraction(ratio)
    return not (ratio.denominator == 1 and abs(ratio.numerator) <= n - 1)


def leaves_B(n: int, m: int) -> tuple[LeafRecord, ...]:
    """Leaf table for the rank-n type-B space at integer ratio m >= 0."""
    _check_rank(n, 1, "type-B table")
    if m < 0:
        raise CatalogError("the ratio is normalized to be non-negative")
    out = []
    r = 0
    while r * (r + m) <= n:
        s = r * (r + m)
        corank = n - s
        out.append(LeafRecord(
            n=n, m=m, r=r,
            dimension=2 * corank,
            cuspidal=(corank == 0),
            support_rank=s,
            normalizer_label=f"B{corank}",
            normalizer_order=_b_order(corank),
            model_label=f"Z(a,{m + 2 * r}a)({corank})",
        ))
        r += 1
    return tuple(out)


def leaves_D(n: int) -> tuple[LeafRecord, ...]:
    """Leaf table for the rank-n type-D space (r = 1 is excluded)."""
    _check_rank(n, 4, "type-D table")
    out = []
    for r in [0] + [r for r in range(2, n + 1) if r * r <= n]:
        s = r * r
        corank = n - s
        out.append(LeafRecord(
            n=n, m=None, r=r,
            dimension=2 * corank,
            cuspidal=(corank == 0),
            support_rank=s,
            normalizer_label=f"D{n}" if r == 0 else f"B{corank}",
            normalizer_order=2 ** (n - 1) * math.factorial(n) if r == 0 else _b_order(corank),
            model_label=f"Z'(a)({n})" if r == 0 else f"Z(a,{2 * r}a)({corank})",
        ))
    return tuple(out)


def leaves_D_tau_t(n: int) -> dict:
    """Correspondence report for the type-D space under the order-2 diagonal
    twist: the quotient identification, the leaf matching with the ratio-0
    type-B table, the fixed locus, and the twisted leaf list."""
    _check_rank(n, 4, "type-D report")
    d_rows = leaves_D(n)
    matching = [{"d_leaf": "S'_0", "b_leaves": ["S_0", "S_1"], "t_action": "free on the S_0 part, trivial on the S_1 part"}]
    for rec in d_rows:
        if rec.r >= 2:
            matching.append({"d_leaf": f"S'_{rec.r}", "b_leaves": [f"S_{rec.r}"],
                             "t_action": "trivial"})
    tau_leaves = []
    for r in [1] + [r for r in range(2, n + 1) if r * r <= n]:
        s = r * r
        corank = n - s
        tau_leaves.append({
            "r": r,
            "dim": 2 * corank,
            "support_rank_in_quotient": s - 1,
            "normalizer": f"B{corank}",
            "normalizer_order": _b_order(corank),
            "source": "catalog",
        })
    return {
        "schema": 1,
        "rule": "type-D-twist-report",
        "n": n,
        "quotient": {"space": f"Z'(a)({n})/<t>", "is": f"Z(a,0a)({n})"},
        "fixed_locus": "preimage of the closure of the ratio-0 leaf at r=1",
        "leaf_matching": matching,
        "tau_leaves": tau_leaves,
    }


def dihedral_equal_parameter_record(d: int) -> dict:
    """Statement-level record for the twisted dihedral equal-parameter case;
    the twisted fixed locus is covered by the rank-one model list."""
    if d < 2:
        raise CatalogError("dihedral order parameter must be >= 2")
    return {
        "schema": 1,
        "rule": "dihedral-equal-parameter-twist",
        "group": f"dihedral{d}",
        "tau": "swap-twist",
        "status": "model verified externally; recorded as reference data",
    }
