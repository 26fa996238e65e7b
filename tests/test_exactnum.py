"""Exact cyclotomic arithmetic: examples, field axioms, canonical form."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from leafatlas.exactnum import (
    CycNum, ExactDomainError, FieldCapError, FlatField, _canonicalize, _phi_degree, _prime_factors,
    _reduced_monomial, as_cyc, cyc_parse, cyc_to_str, cyclotomic_poly, from_flat, literal_fields,
    num_str, root_of_unity, to_flat,
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


def _assert_canonical_triple(x):
    # integer numerators over one positive denominator with no common factor
    assert all(type(c) is int and c for _, c in x.coeffs)
    assert type(x.den) is int and x.den > 0
    assert gcd(x.den, *(c for _, c in x.coeffs)) == 1
    exps = [e for e, _ in x.coeffs]
    assert exps == sorted(set(exps)) and all(0 <= e < _phi_degree(x.conductor) for e in exps)
    assert x.conductor % 4 != 2 or x.conductor == 1
    if x.is_zero():
        assert (x.conductor, x.coeffs, x.den) == (1, (), 1)


def test_numerators_are_ints_over_one_reduced_denominator():
    x = CycNum(4, {0: 2, 1: 3, 2: 1})
    assert (x.conductor, x.coeffs, x.den) == (4, ((0, 1), (1, 3)), 1)
    y = CycNum(12, {1: Fraction(1, 2), 3: Fraction(1, 3)})
    assert (y.coeffs, y.den) == (((1, 3), (3, 2)), 6)
    assert cyc_to_str(y) == "Q(z_12): 1/2*z^1 + 1/3*z^3"
    assert (y * 6).coeffs == ((1, 3), (3, 2)) and (y * 6).den == 1
    zero = y - y
    assert (zero.conductor, zero.coeffs, zero.den) == (1, (), 1)
    assert CycNum(1, {0: 2}).inverse().as_fraction() == Fraction(1, 2)
    assert type(CycNum(1, {0: 2}).inverse().as_fraction()) is Fraction
    for v in (x, y, zero, y * 6, CycNum(1, {0: 2}).inverse()):
        _assert_canonical_triple(v)


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


@given(cyc_triples(), st.integers(min_value=-3, max_value=3))
@settings(max_examples=60, deadline=None)
def test_results_keep_the_integer_invariant(triple, k):
    a, b, c = triple
    results = [a, a + b, a - b, a * b, (a + c) * b, a * Fraction(-3, 4), a - a]
    if not a.is_zero():
        results += [a.inverse(), a ** k, b / a]
    for v in results:
        _assert_canonical_triple(v)


@given(cyc_triples())
@settings(max_examples=40, deadline=None)
def test_serialization_round_trip(triple):
    for v in triple:
        assert cyc_parse(cyc_to_str(v)) == v
        assert cyc_parse(num_str(v)) == v


def test_one_reader_for_rationals_and_literals():
    assert cyc_parse(" -3/6 ") == as_cyc(Fraction(-1, 2))
    assert cyc_parse("Q(z_4): 1/2 + z^1") == as_cyc(Fraction(1, 2)) + root_of_unity(4)
    assert literal_fields("Q(z_8): 1 * x1 + (Q(z_3): 2*z^1)") == [8, 3]


@pytest.mark.parametrize("text", [
    "1.5", "1e3", "+2", "1/-2", "", "Q(z_5)", "Q(z_5): 1.5", "Q(z_5): 2*z^-1",
    # a zero denominator, and integers past the digit limit
    "1/0", "Q(z_5): 1/0", "9" * 5000, "Q(z_5): 1*z^" + "1" * 5000, "Q(z_" + "9" * 5000 + "): 1",
])
def test_text_outside_the_grammar_is_refused(text):
    with pytest.raises(ExactDomainError) as exc:
        cyc_parse(text)
    assert len(str(exc.value)) < 80        # at most 40 characters of text are quoted


def test_a_number_past_the_digit_limit_is_refused_by_name():
    with pytest.raises(ExactDomainError, match="digit limit"):
        num_str(as_cyc(10 ** 5000))


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


# -- the Fraction reference: differential tests of the canonical form ------------
#
# _fraction_reduce_mod_phi and _fraction_descend are the Fraction reduction and
# Galois descent that the integer triples replaced; with the long division
# _reference_reduce they are the oracle for the integer pipeline.  The
# reference descends by an independent method: the fixed points of
# Gal(Q(zeta_n)/Q(zeta_m)) and a Fraction solve, not a read-off of a basis.

def _fraction_reduce_mod_phi(coeffs, n):
    deg = _phi_degree(n)
    out = {}
    for e, c in coeffs.items():
        e %= n
        if e < deg:
            out[e] = out.get(e, Fraction(0)) + c
            continue
        for e2, f in _reduced_monomial(n, e):
            out[e2] = out.get(e2, Fraction(0)) + c * f
    return {e: c for e, c in out.items() if c}


def _apply_galois(coeffs, n, j):
    # zeta_n -> zeta_n^j on a reduced element
    out = {}
    for e, c in coeffs.items():
        for e2, f in _reduced_monomial(n, (j * e) % n):
            out[e2] = out.get(e2, 0) + c * f
    return {e: c for e, c in out.items() if c}


def _galois_fixed(coeffs, n, m):
    # True iff Gal(Q(zeta_n)/Q(zeta_m)), m | n, fixes the reduced element,
    # that is, iff it lies in Q(zeta_m)
    return all(_apply_galois(coeffs, n, j) == coeffs
               for j in range(1 + m, n, m) if gcd(j, n) == 1)


def _fraction_descent_solver(n, m):
    # (pivot_rows, inv) with coordinates over the basis of zeta_m = inv @ c[pivot_rows]
    dn, dm = _phi_degree(n), _phi_degree(m)
    mat = [[Fraction(0)] * dm for _ in range(dn)]
    for f in range(dm):
        for e, c in _reduced_monomial(n, (f * (n // m)) % n):
            mat[e][f] = Fraction(c)
    pivot_rows, reduced = [], [row[:] for row in mat]
    for col in range(dm):
        pr = next(r for r in range(dn) if r not in pivot_rows and reduced[r][col])
        pivot_rows.append(pr)
        reduced[pr] = [v / reduced[pr][col] for v in reduced[pr]]
        for r in range(dn):
            if r != pr and reduced[r][col]:
                f = reduced[r][col]
                reduced[r] = [a - f * b for a, b in zip(reduced[r], reduced[pr])]
    aug = [[mat[r][f] for f in range(dm)] + [Fraction(int(i == k)) for k in range(dm)]
           for i, r in enumerate(pivot_rows)]
    for col in range(dm):
        pr = next(r for r in range(col, dm) if aug[r][col])
        aug[col], aug[pr] = aug[pr], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(dm):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return pivot_rows, [row[dm:] for row in aug]


def _fraction_descend(coeffs, n, m):
    pivot_rows, inv = _fraction_descent_solver(n, m)
    cvec = [coeffs.get(r, Fraction(0)) for r in pivot_rows]
    new = {f: sum((a * b for a, b in zip(row, cvec)), Fraction(0)) for f, row in enumerate(inv)}
    return {f: c for f, c in new.items() if c}


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
                n, coeffs = n // p, _fraction_descend(coeffs, n, n // p)
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


def _as_triple(n, coeffs):
    # the integer triple of a Fraction coefficient map: numerators over the lcm
    den = 1
    for c in coeffs.values():
        den = den * c.denominator // gcd(den, c.denominator)
    return n, tuple(sorted((e, int(c * den)) for e, c in coeffs.items())), den


def _reference_str(n, coeffs):
    if not coeffs:
        return "Q(z_1): 0"
    parts = []
    for e, c in sorted(coeffs.items()):
        s = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
        parts.append(s if e == 0 else f"{s}*z^{e}")
    return f"Q(z_{n}): " + " + ".join(parts)


# 6, 10, 30 and 42 descend by p = 2 || n, and by two or three primes p || n
DIFFERENTIAL_CONDUCTORS = (1, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 24, 25, 27, 30, 40, 42, 120)


def _random_fraction_map(rng, n):
    coeffs = {rng.randrange(2 * n): Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
              for _ in range(rng.randrange(5))}
    if rng.randrange(3) and n > 1:
        m = rng.choice([d for d in range(1, n) if n % d == 0])
        coeffs = _relative_trace(coeffs, n, m)
    return coeffs


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
            ref = _reference_canonicalize(n, dict(coeffs))
            _, nums, den = _as_triple(n, coeffs)
            got = _canonicalize(n, dict(nums), den)
            assert got == _as_triple(*ref), (n, coeffs)
            assert _fraction_reduce_mod_phi(coeffs, n) == _reference_reduce(coeffs, n)
            descended += got[0] < n
    assert descended >= 300


@pytest.mark.parametrize("n,coeffs,expect", [
    (15, {3: 1, 6: 2}, (5, ((1, 1), (2, 2)), 1)),   # p = 3 || 15 divides every exponent
    (9, {3: 1}, (3, ((1, 1),), 1)),                  # p^2 | n
    (7, {0: 5}, (1, ((0, 5),), 1)),                  # n = p with support {0}
])
def test_descent_by_the_gcd_of_conductor_and_exponents(n, coeffs, expect):
    # zeta_n^e = zeta_(n/d)^(e/d) for d = gcd(n, exponents): the element lies
    # in Q(zeta_m), m = expect's conductor, and in no smaller field
    m = expect[0]
    assert _galois_fixed(coeffs, n, m)
    assert not any(_galois_fixed(coeffs, n, m // p) for p in _prime_factors(m))
    assert _as_triple(*_reference_canonicalize(n, coeffs)) == expect
    assert _canonicalize(n, dict(coeffs)) == expect
    x = CycNum(n, coeffs)
    assert (x.conductor, x.coeffs, x.den) == expect


def _reference_mul(a, b, n):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[(e1 + e2) % n] = out.get((e1 + e2) % n, Fraction(0)) + c1 * c2
    return _reference_reduce(out, n)


def _reference_inverse(a, n):
    # x^-1 = (product of the other Galois conjugates of x) / N(x), N(x) rational
    conj = {0: Fraction(1)}
    for j in range(2, n):
        if gcd(j, n) == 1:
            conj = _reference_mul(conj, {j * e % n: c for e, c in a.items()}, n)
    norm = _reference_mul(conj, a, n)
    assert set(norm) == {0}
    return {e: c / norm[0] for e, c in conj.items()}


def test_arithmetic_matches_fraction_reference():
    # sums, products and inverses of CycNums at mixed conductors against
    # Fraction arithmetic at the common conductor and the reference canonical form
    rng = random.Random(20261)
    descended = 0
    for n in DIFFERENTIAL_CONDUCTORS:
        for trial in range(12):
            m = rng.choice([d for d in range(1, n + 1) if n % d == 0])
            fa, fb = _random_fraction_map(rng, n), _random_fraction_map(rng, m)
            fb = {e * (n // m): c for e, c in fb.items()}    # b in Q(zeta_m), at conductor n
            if trial % 4 == 0:
                # b = (element of a subfield) - a, so that a + b descends
                fb = {e: c - fa.get(e, 0) for e, c in _random_fraction_map(rng, n).items()}
                fb.update({e: -c for e, c in fa.items() if e not in fb})
            a, b = CycNum(n, fa), CycNum(n, fb)
            refs = [(a + b, {e: fa.get(e, 0) + fb.get(e, 0) for e in set(fa) | set(fb)}),
                    (a * b, _reference_mul(_reference_reduce(fa, n), _reference_reduce(fb, n), n))]
            if not a.is_zero():
                refs.append((a.inverse(), _reference_inverse(_reference_reduce(fa, n), n)))
            for got, ref in refs:
                ref = _reference_canonicalize(n, {e: c for e, c in ref.items() if c})
                assert cyc_to_str(got) == _reference_str(*ref), (n, fa, fb)
                assert (got.conductor, got.coeffs, got.den) == _as_triple(*ref), (n, fa, fb)
                descended += got.conductor < n
    assert descended >= 250


def _fraction_euclid_inverse(x):
    # the former production inverse, the reference: extended Euclid against
    # Phi_n over Q[z], dividing leading coefficients as Fractions
    n = x.conductor
    r_prev = [Fraction(c) for c in cyclotomic_poly(n)]
    r_cur = [Fraction(c, x.den) for c in (dict(x.coeffs).get(e, 0)
                                          for e in range(x.coeffs[-1][0] + 1))]
    t_prev, t_cur = [Fraction(0)], [Fraction(1)]     # s * Phi_n + t * x = r

    def sub_scaled(p, q, c, shift):
        out = list(p) + [Fraction(0)] * max(0, len(q) + shift - len(p))
        for i, qc in enumerate(q):
            out[i + shift] -= c * qc
        while out and not out[-1]:
            out.pop()
        return out

    while len(r_cur) > 1:
        shift, c = len(r_prev) - len(r_cur), r_prev[-1] / r_cur[-1]
        r_prev = sub_scaled(r_prev, r_cur, c, shift)
        t_prev = sub_scaled(t_prev, t_cur, c, shift)
        if len(r_prev) < len(r_cur):
            r_prev, r_cur, t_prev, t_cur = r_cur, r_prev, t_cur, t_prev
    return CycNum(n, {e: c / r_cur[0] for e, c in enumerate(t_cur) if c})


def test_integer_euclid_inverse_matches_fraction_euclid():
    rng = random.Random(20262)
    one = CycNum.one()
    for n in DIFFERENTIAL_CONDUCTORS:
        xs = [CycNum(n, _random_fraction_map(rng, n)) for _ in range(12)]
        if n > 1:
            z = root_of_unity(n)
            xs += [z, one - z]
        for x in xs:
            if not x.is_zero():
                inv = x.inverse()
                assert inv == _fraction_euclid_inverse(x), (n, x)
                assert x * inv == one, (n, x)
    z = root_of_unity(211)     # phi = 210
    x = as_cyc(Fraction(3, 2)) - z + z ** 5
    assert x.conductor == 211
    assert x.inverse() == _fraction_euclid_inverse(x) and x * x.inverse() == one


# ---------------------------------------------------------------------------
# one field context: flat tuples against CycNum

def _random_in_subfield(rng, n):
    """A CycNum of Q(zeta_m) for a random divisor m of n, zero now and then."""
    m = rng.choice([d for d in range(1, n + 1) if n % d == 0])
    return CycNum(m, {rng.randrange(m): Fraction(rng.randint(-4, 4), rng.randint(1, 6))
                      for _ in range(rng.randint(0, 3))})


def _edge(F, *pairs):
    """The sum of the products a * b over pairs, summed with `addmul` and
    read back through `normal` and `cyc`."""
    acc = {}
    for a, b in pairs:
        F.addmul(acc, 0, a, b)
    t = F.normal(acc[0])
    return CycNum.zero() if t is None else F.cyc(t)


@pytest.mark.parametrize("n", [1, 3, 4, 5, 8, 12, 15])
def test_flat_field_matches_cycnum(n):
    rng = random.Random(1900 + n)
    F = FlatField(n)
    assert F.cyc(F.one) == as_cyc(1)
    cancelled = 0
    for _ in range(60):
        a, b, c = (_random_in_subfield(rng, n) for _ in range(3))
        ta, tb, tc = (F.flat(x) for x in (a, b, c))
        for x, t in ((a, ta), (b, tb), (c, tc)):
            # the dense tuple: phi(n) numerators, a positive denominator, no common factor
            d = to_flat(x, n)
            assert len(d) == F.phi + 1 and d[-1] > 0 and gcd(*d) == 1
            assert from_flat(d, n) == x
            assert from_flat(tuple(3 * v for v in d), n) == x
            # the field's own tuple is dense up to phi(n) = 2, else one pair per nonzero numerator
            assert t == d if F.phi <= 2 else len(t) == 2 * (F.phi - d.count(0)) + 1
            assert F.cyc(t) == x
            if not x.is_zero():
                acc = {}
                F.addmul(acc, 0, t, F.one)
                assert F.normal(acc[0]) == t
        assert _edge(F, (ta, tb)) == a * b
        assert _edge(F, (F.mul(ta, tb), tc)) == a * b * c
        # sums across denominators, and sums that cancel to zero
        assert _edge(F, (ta, tb), (tc, F.one)) == a * b + c
        assert _edge(F, (ta, tb), (F.flat(-a), tb)) == as_cyc(0)
        cancelled += not (a * b).is_zero()
    assert cancelled >= 20


def test_flat_edge_conversion_descends():
    for n in (3, 15):
        F = FlatField(n)
        x = _edge(F, *((F.flat(root_of_unity(3, e)), F.one) for e in (1, 2)))
        assert x == as_cyc(-1) and x.conductor == 1
    # zeta_12^3 = zeta_4 and (zeta_12^2)^3 = -1, read off a Q(zeta_12) tuple
    F = FlatField(12)
    z = F.flat(root_of_unity(12))
    x = _edge(F, (F.mul(z, z), z))
    assert x == root_of_unity(4) and x.conductor == 4
    z2 = F.mul(z, z)
    assert _edge(F, (F.mul(z2, z2), z2)) == as_cyc(-1)


def test_flat_tuple_width_follows_its_nonzero_terms():
    # phi(31 * 37 * 41 * 43) = 1814400, but a root of unity is one pair
    n = 31 * 37 * 41 * 43
    F = FlatField(n)
    z31, z41 = F.flat(root_of_unity(31)), F.flat(root_of_unity(41))
    assert z31 == (n // 31, 1, 1) and F.mul(z31, z41) == (n // 31 + n // 41, 1, 1)
    x = _edge(F, (z31, z41))
    assert x == root_of_unity(31) * root_of_unity(41) and x.conductor == 31 * 41


def test_bounded_flat_field_refuses_where_it_first_needs_phi_n():
    n = 31 * 37    # phi(n)^2 = 1166400
    cyclotomic_poly(n)    # a Phi_n built earlier does not lift the bound
    F = FlatField(n, cap=10 ** 6)
    z31, z37 = F.flat(root_of_unity(31)), F.flat(root_of_unity(37))
    assert F.mul(z31, z37) == (n // 31 + n // 37, 1, 1)
    # z_31^29 = z^1073 sits below phi(n) = 1080, but z^1110 and z_37^35 = z^1085
    # are reduced through Phi_n
    z = F.flat(root_of_unity(31, 29))
    with pytest.raises(FieldCapError):
        F.mul(z, z31)
    with pytest.raises(FieldCapError):
        F.flat(root_of_unity(37, 35))
    assert FlatField(n, cap=1080 ** 2).mul(z, z31) == FlatField(n).mul(z, z31)


def test_flat_conversion_refuses_a_value_outside_the_field():
    with pytest.raises(ExactDomainError):
        to_flat(root_of_unity(4), 3)
    with pytest.raises(ExactDomainError):
        FlatField(5).flat(root_of_unity(4))
    assert to_flat(root_of_unity(4), 12) == to_flat(root_of_unity(12, 3), 12)
