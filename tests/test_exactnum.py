"""Exact cyclotomic arithmetic: examples, field axioms, canonical form."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from leafatlas.exactnum import (
    CycNum, ExactDomainError, _apply_galois, _canonicalize, _descend, _galois_fixed,
    _prime_factors, as_cyc, cyc_parse, cyc_to_str, cyclotomic_poly, root_of_unity,
)


def test_sum_of_primitive_cube_roots():
    z = root_of_unity(3)
    assert z + z * z == as_cyc(-1)


def test_exponent_arithmetic_reduces_conductor():
    z8 = root_of_unity(8)
    sq = z8 * z8
    assert sq == root_of_unity(4)
    assert sq.conductor == 4
    assert sq * sq == as_cyc(-1)


def test_inverse_of_one_plus_zeta5():
    x = as_cyc(1) + root_of_unity(5)
    # oracle: the defining property of the inverse, checked by multiplication
    assert x.inverse() * x == as_cyc(1)


@pytest.mark.parametrize("n,e,expect", [
    (1, 0, as_cyc(1)),
    (2, 1, as_cyc(-1)),
    (4, 1, None),
])
def test_root_of_unity_examples(n, e, expect):
    r = root_of_unity(n, e)
    if expect is not None:
        assert r == expect
    else:
        assert r * r == as_cyc(-1)


def test_integer_coefficients_are_stored_as_fractions():
    x = CycNum(4, {0: 2, 1: 3, 2: 1})
    assert all(type(c) is Fraction for _, c in x.coeffs)
    assert CycNum(1, {0: 2}).inverse().as_fraction() == Fraction(1, 2)
    assert type(CycNum(1, {0: 2}).inverse().as_fraction()) is Fraction


def test_division_by_zero_is_domain_error():
    with pytest.raises(ExactDomainError):
        as_cyc(1) / CycNum.zero()
    with pytest.raises(ExactDomainError):
        CycNum.zero().inverse()


def _random_cyc(draw, n):
    items = draw(st.dictionaries(
        st.integers(min_value=0, max_value=n - 1),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        max_size=3))
    return CycNum(n, {e: Fraction(c) for e, c in items.items()})


@st.composite
def cyc_triples(draw):
    n = draw(st.sampled_from([1, 3, 4, 5, 8, 9, 12, 15, 16, 24, 27, 40, 120]))
    return tuple(_random_cyc(draw, n) for _ in range(3))


@given(cyc_triples())
@settings(max_examples=60, deadline=None)
def test_field_axioms(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()
    assert (a - a).coeffs == ()
    if not a.is_zero():
        assert a * a.inverse() == as_cyc(1)


@given(cyc_triples())
@settings(max_examples=40, deadline=None)
def test_serialization_round_trip(triple):
    for v in triple:
        assert cyc_parse(cyc_to_str(v)) == v


@given(st.sampled_from([2, 3, 4, 5, 6]), cyc_triples())
@settings(max_examples=30, deadline=None)
def test_conductor_promotion_round_trip(k, triple):
    # embed into a larger field by multiplying with zeta_k * zeta_k^-1 = 1
    z = root_of_unity(k)
    for v in triple:
        assert v * z * z.inverse() == v


def test_canonical_form_across_fields():
    # zeta_3^2 reached through Q(zeta_12) must match the direct construction
    assert root_of_unity(12) ** 8 == root_of_unity(3, 2)
    # rationals always land at conductor 1
    v = root_of_unity(5) + root_of_unity(5, 2) + root_of_unity(5, 3) + root_of_unity(5, 4)
    assert v.conductor == 1 and v == as_cyc(-1)


def test_cyclotomic_polys_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in (1, 2, 3, 4, 6, 8, 12, 30, 105):
        ours = list(cyclotomic_poly(n))
        theirs = list(reversed(sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()))
        assert ours == theirs


# -- differential test of the canonical form ------------------------------------

def _reference_reduce(coeffs, n):
    # long division by Phi_n, highest degree first
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    poly = [Fraction(0)] * max(n, deg)
    for e, c in coeffs.items():
        poly[e % n] += c
    for k in range(len(poly) - 1, deg - 1, -1):
        c = poly[k]
        if c:
            for j, pj in enumerate(phi):
                poly[k - deg + j] -= c * pj
    return {e: c for e, c in enumerate(poly[:deg]) if c}


def _reference_canonicalize(n, coeffs):
    # descend by the Galois fixed-point test and the solver for every prime of n
    # (n = 2 mod 4 included: there Gal(Q(zeta_n)/Q(zeta_(n/2))) is trivial)
    coeffs = _reference_reduce(coeffs, n)
    descended = True
    while descended:
        descended = False
        for p in _prime_factors(n):
            if _galois_fixed(coeffs, n, n // p):
                n, coeffs = n // p, _descend(coeffs, n, n // p)
                descended = True
                break
    return n, coeffs


def _relative_trace(coeffs, n, m):
    # sum over Gal(Q(zeta_n)/Q(zeta_m)), m | n: an element of Q(zeta_m)
    out = {}
    for j in range(1, n + 1):
        if j % m == 1 % m and gcd(j, n) == 1:
            for e, c in _apply_galois(_reference_reduce(coeffs, n), n, j).items():
                out[e] = out.get(e, Fraction(0)) + c
    return out


DIFFERENTIAL_CONDUCTORS = (1, 3, 4, 5, 8, 9, 12, 15, 16, 24, 25, 27, 40, 120)


def test_canonical_form_matches_galois_descent():
    rng = random.Random(20260)
    descended = 0
    for n in DIFFERENTIAL_CONDUCTORS:
        for trial in range(40):
            coeffs = {rng.randrange(2 * n): Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                      for _ in range(rng.randrange(5))}
            if trial % 3 and n > 1:
                m = rng.choice([d for d in range(1, n) if n % d == 0])
                coeffs = _relative_trace(coeffs, n, m)
            got = _canonicalize(n, dict(coeffs))
            assert got == _reference_canonicalize(n, dict(coeffs)), (n, coeffs)
            descended += got[0] < n
    assert descended >= 300
