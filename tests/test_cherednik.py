"""Rewriting engine: normal ordering, grading, Poisson limit, center search."""

import copy
import random
from fractions import Fraction
from math import lcm

import pytest

from leafatlas import linalg as la
from leafatlas.cherednik import (
    CherednikAlgebra, CherednikError, CherElement, PoissonCompatibilityError,
    _add_into, associated_graded_leading, central_elements_bounded, euler_degree,
    filtration_degree, format_element, is_central, parse_element,
    poisson_bracket, rank1_center_relation, rees_specialize,
)
from leafatlas.cli import resolve_parameter
from leafatlas.exactnum import FlatField, as_cyc, root_of_unity
from leafatlas.refgroup import ParameterK, catalog


@pytest.fixture(scope="module")
def mu2():
    return catalog("cyclic2")


@pytest.fixture(scope="module")
def mu2_k(mu2):
    return ParameterK.from_lists(mu2, [[0, 1]])


def _sign_element(W):
    return next(g for i, g in enumerate(W.elements) if i != W.identity)


def test_rank1_commutator_oracle(mu2, mu2_k):
    # oracle: expand the defining relation by hand for the order-2 group with
    # e_H = 2, idempotents (1 +- s)/2 and unit pairing; the commutator comes
    # out as t + 2(k_0 - k_1) s
    alg = CherednikAlgebra(mu2, mu2_k, "t")
    s = _sign_element(mu2)
    got = alg.commutator(alg.y(0), alg.x(0))
    one = mu2.elements[mu2.identity]
    expect = alg.monomial((0,), one, (0,), {(1, 0): as_cyc(1)}) + alg.w(s) * as_cyc(-2)   # k_0 - k_1 = -1
    assert got == expect


def test_commutative_at_zero_parameter(mu2):
    alg = CherednikAlgebra(mu2, ParameterK.zero(mu2), "t0")
    assert alg.commutator(alg.y(0), alg.x(0)).is_zero()


def test_group_action_on_letters(mu2, mu2_k):
    alg = CherednikAlgebra(mu2, mu2_k, "t")
    s = _sign_element(mu2)
    sxs = alg.multiply(alg.multiply(alg.w(s), alg.x(0)), alg.w(s))
    assert sxs == alg.x(0) * as_cyc(-1)
    sys_ = alg.multiply(alg.multiply(alg.w(s), alg.y(0)), alg.w(s))
    assert sys_ == alg.y(0) * as_cyc(-1)


def test_euler_degree_examples(mu2, mu2_k):
    alg = CherednikAlgebra(mu2, mu2_k, "t0")
    s = _sign_element(mu2)
    assert euler_degree(alg.x(0, 2)) == 2
    xy = alg.multiply(alg.x(0), alg.y(0))
    assert euler_degree(xy + alg.w(s)) == 0
    assert euler_degree(alg.x(0) + alg.y(0)) is None


def test_filtration_degree_examples(mu2, mu2_k):
    alg = CherednikAlgebra(mu2, mu2_k, "t0")
    s = _sign_element(mu2)
    assert filtration_degree(alg.multiply(alg.x(0), alg.y(0))) == 2
    assert filtration_degree(alg.w(s)) == 0
    assert filtration_degree(alg.monomial((2,), s.key, (1,))) == 3


def test_graded_leading(mu2, mu2_k):
    alg = CherednikAlgebra(mu2, mu2_k, "t")
    s = _sign_element(mu2)
    yx = alg.multiply(alg.y(0), alg.x(0))
    lead = associated_graded_leading(yx)
    assert list(lead.terms) == [((1,), mu2.identity, (1,))]
    w_only = associated_graded_leading(alg.w(s))
    assert list(w_only.terms) == [((0,), mu2.by_key[s.key], (0,))]
    mixed = alg.multiply(alg.x(0), alg.y(0)) + alg.w(s)
    assert list(associated_graded_leading(mixed).terms) == [((1,), mu2.identity, (1,))]


def test_poisson_antisymmetry_and_triviality(mu2):
    alg = CherednikAlgebra(mu2, ParameterK.zero(mu2), "t0")
    z = alg.x(0, 2)
    assert poisson_bracket(z, z).is_zero()
    assert poisson_bracket(alg.monomial((0,), mu2.elements[mu2.identity], (0,)), z).is_zero()
    b = poisson_bracket(alg.x(0, 2), alg.y(0, 2))
    assert not b.is_zero()
    assert euler_degree(b) == 0


def test_poisson_incompatible_inputs(mu2, mu2_k):
    alg = CherednikAlgebra(mu2, mu2_k, "t0")
    with pytest.raises(PoissonCompatibilityError):
        poisson_bracket(alg.x(0), alg.y(0))


def test_is_central_examples(mu2, mu2_k):
    alg = CherednikAlgebra(mu2, mu2_k, "t0")
    assert is_central(alg.x(0, 2))
    assert not is_central(alg.x(0))
    mu3 = catalog("cyclic3")
    k3 = ParameterK.from_lists(mu3, [[0, 1, 2]])
    alg3 = CherednikAlgebra(mu3, k3, "t0")
    assert is_central(alg3.x(0, 3))
    assert is_central(alg3.y(0, 3))
    assert is_central(alg3.multiply(alg3.x(0, 3), alg3.y(0, 3)))


def test_central_elements_bounded_mu2(mu2, mu2_k):
    _alg, basis = central_elements_bounded(mu2, mu2_k, 0, 2)
    assert len(basis) == 2
    xy = ((1,), mu2.identity, (1,))
    led = [e for e in basis if xy in e.terms]
    assert len(led) == 1
    ident_mono = ((0,), mu2.identity, (0,))
    assert ident_mono not in led[0].terms
    _alg2, basis2 = central_elements_bounded(mu2, mu2_k, 2, 2)
    assert len(basis2) == 1
    assert list(basis2[0].terms) == [((2,), mu2.identity, (0,))]


def test_central_elements_degenerate_bounds(mu2, mu2_k):
    _alg, basis = central_elements_bounded(mu2, mu2_k, 0, 0)
    assert len(basis) == 1 and list(basis[0].terms) == [((0,), mu2.identity, (0,))]
    _alg2, basis2 = central_elements_bounded(mu2, mu2_k, 5, 0)
    assert basis2 == []


def test_central_solve_cap(mu2, mu2_k):
    with pytest.raises(CherednikError):
        central_elements_bounded(mu2, mu2_k, 0, 40, monomial_cap=10)


def test_rank1_relation(mu2, mu2_k):
    rec0 = rank1_center_relation(ParameterK.zero(mu2))
    assert rec0["gamma"].is_zero()
    rec = rank1_center_relation(mu2_k)
    assert rec["gamma"] == as_cyc(1)
    assert rec["b_over_difference"] == as_cyc(Fraction(1, 2))
    for lam in (2, 3):
        scaled = rank1_center_relation(mu2_k.scaled(lam))
        assert scaled["gamma"] == as_cyc(lam * lam)
        assert scaled["b_over_difference"] == rec["b_over_difference"]
    assert as_cyc(4) * rec["b"] * rec["b"] == rec["gamma"]


def test_rees_specialization_matches_multiplication(mu2, mu2_k):
    algh = CherednikAlgebra(mu2, mu2_k, "hbar2")
    pairs = [(algh.y(0), algh.x(0)),
             (algh.multiply(algh.x(0), algh.y(0)), algh.y(0, 2))]
    for lam in (0, 1, 2):
        for A, B in pairs:
            spec_prod = rees_specialize(algh.multiply(A, B), lam)
            target = spec_prod.algebra
            direct = target.multiply(rees_specialize(A, lam).algebra.lift(
                rees_specialize(A, lam), target), algh.lift(rees_specialize(B, lam), target))
            assert spec_prod == direct


def test_rees_at_zero_is_commutative(mu2, mu2_k):
    algh = CherednikAlgebra(mu2, mu2_k, "hbar2")
    comm = algh.commutator(algh.y(0), algh.x(0))
    gr = rees_specialize(comm, 0)
    assert gr.is_zero()


def test_parameter_shift_invariance(mu2):
    k = ParameterK.from_lists(mu2, [[0, 1]])
    k2 = k.shifted({0: as_cyc(Fraction(7, 3))})
    a1 = CherednikAlgebra(mu2, k, "t")
    a2 = CherednikAlgebra(mu2, k2, "t")
    rng = random.Random(5)
    for _ in range(10):
        a = tuple([rng.randrange(3)])
        b = tuple([rng.randrange(3)])
        g = rng.choice(mu2.elements)
        m1 = a1.monomial(a, g.key, b)
        m2 = a1.monomial(b, g.key, a)
        lhs = a1.multiply(m1, m2)
        rhs = a2.multiply(a1.lift(m1, a2), a1.lift(m2, a2))
        assert lhs.terms == rhs.terms


def _random_elem(alg, rng, dmax=2, nterms=2):
    out = alg.zero()
    for _ in range(rng.randrange(1, nterms + 1)):
        a = tuple(rng.randrange(dmax + 1) for _ in range(alg.n))
        b = tuple(rng.randrange(dmax + 1) for _ in range(alg.n))
        g = rng.choice(alg.W.elements)
        c = Fraction(rng.randrange(-3, 4) or 1, rng.randrange(1, 3))
        out = out + alg.monomial(a, g.key, b) * as_cyc(c)
    return out


@pytest.mark.parametrize("name,kvals", [
    ("cyclic2", [[0, 1]]),
    ("cyclic3", [[0, 1, -1]]),
])
def test_associativity_sample(name, kvals):
    W = catalog(name)
    k = ParameterK.from_lists(W, kvals)
    alg = CherednikAlgebra(W, k, "t")
    rng = random.Random(42)
    for _ in range(40):
        A, B, C = (_random_elem(alg, rng) for _ in range(3))
        assert alg.multiply(alg.multiply(A, B), C) == alg.multiply(A, alg.multiply(B, C))


def test_grading_additivity_on_products():
    W = catalog("cyclic3")
    k = ParameterK.from_lists(W, [[1, 0, 0]])
    alg = CherednikAlgebra(W, k, "t")
    rng = random.Random(7)
    for _ in range(20):
        a = tuple([rng.randrange(3)])
        b = tuple([rng.randrange(3)])
        g = rng.choice(W.elements)
        A = alg.monomial(a, g.key, b)
        B = alg.monomial(b, g.key, a)
        prod = alg.multiply(A, B)
        if not prod.is_zero():
            assert euler_degree(prod) == euler_degree(A) + euler_degree(B)
            assert filtration_degree(prod) <= filtration_degree(A) + filtration_degree(B)
            lead = associated_graded_leading(prod)
            gr_prod = lead.algebra.multiply(
                associated_graded_leading(A, lead.algebra),
                associated_graded_leading(B, lead.algebra))
            top = filtration_degree(A) + filtration_degree(B)
            if filtration_degree(prod) == top:
                assert lead == gr_prod


def test_poisson_laws_on_central_elements():
    for name, kv in [("cyclic2", [[0, 1]]), ("cyclic3", [[0, 1, 3]])]:
        W = catalog(name)
        k = ParameterK.from_lists(W, kv)
        e = W.hyperplanes[0].e
        alg = CherednikAlgebra(W, k, "t0")
        t_alg = CherednikAlgebra(W, k, "t")
        X, Y = alg.x(0, e), alg.y(0, e)
        prod = alg.multiply(Y, X)
        assert is_central(prod)
        def pb(u, v):
            return poisson_bracket(u, v, t_alg)
        assert (pb(X, Y) + pb(Y, X)).is_zero()
        assert pb(X, alg.multiply(Y, prod)) == \
            alg.multiply(pb(X, Y), prod) + alg.multiply(Y, pb(X, prod))
        jac = pb(X, pb(Y, prod)) + pb(Y, pb(prod, X)) + pb(prod, pb(X, Y))
        assert jac.is_zero()
        br = pb(X, Y)
        if not br.is_zero():
            assert euler_degree(br) == 0
            assert filtration_degree(br) <= 2 * e - 2


def test_literal_round_trip(mu2, mu2_k):
    alg = CherednikAlgebra(mu2, mu2_k, "t0")
    texts = [
        "x1^2 * w(g0) * y1 + (3/2) * w(e)",
        "(1) * w(e)",
        "(-2/3) * x1 * w(e) * y1^2",
    ]
    for text in texts:
        e = parse_element(alg, text)
        assert parse_element(alg, format_element(e)) == e
    algt = CherednikAlgebra(mu2, mu2_k, "t")
    e = parse_element(algt, "(3/2) * t * w(e) + x1 * w(g0)")
    assert parse_element(algt, format_element(e)) == e


def _snapshot(e):
    """A deep copy of e.terms; the scalars are immutable and are kept as they are."""
    return copy.deepcopy(e.terms, {id(c): c for p in e.terms.values() for c in p.values()})


def test_coefficient_maps_behave_as_values(mu2, mu2_k):
    # elements share the coefficient maps they do not change, so no operation
    # may change an operand's map, even where a sum cancels a key of it
    alg = CherednikAlgebra(mu2, mu2_k, "t")
    other = CherednikAlgebra(mu2, mu2_k, "t")
    A = parse_element(alg, "(2) * t * x1 + x1 + x1 * w(g0) + y1")
    B = parse_element(alg, "(-2) * t * x1 + t^2 * x1 + (-1) * x1 * w(g0) + h * y1")
    before = _snapshot(A), _snapshot(B)
    for op in (lambda: A + B, lambda: B + A, lambda: A - B, lambda: -A, lambda: A * as_cyc(3),
               lambda: A * 0, lambda: alg.lift(A, other), lambda: alg.multiply(A, B),
               lambda: alg.multiply(B, A)):
        op()
        assert (_snapshot(A), _snapshot(B)) == before
    assert (A + B).terms[((1,), mu2.identity, (0,))].keys() == {(0, 0), (2, 0)}
    assert (A * 0).is_zero() and alg.lift(A, other).terms == A.terms


def test_literal_sums_cancel(mu2, mu2_k):
    alg = CherednikAlgebra(mu2, mu2_k, "t")
    assert parse_element(alg, "0 * x1^2 + y1^2") == parse_element(alg, "y1^2")
    assert parse_element(alg, "t * x1 + (-1) * t * x1").is_zero()
    e = parse_element(alg, "t * x1 + (-1) * t * x1 + x1 + (1/2) * h^2 * t * x1")
    assert e.terms == {((1,), mu2.identity, (0,)): {(0, 0): as_cyc(1),
                                                    (1, 2): as_cyc(Fraction(1, 2))}}


def test_parse_rejects_garbage(mu2, mu2_k):
    alg = CherednikAlgebra(mu2, mu2_k, "t0")
    for bad in ["x0", "q * w(e)", "w(g7)", "x1 ** 2"]:
        with pytest.raises(CherednikError):
            parse_element(alg, bad)


@pytest.mark.parametrize("name,kvals", [
    ("cyclic3", [[0, 1, -1]]),
    ("dihedral3", [[Fraction(1, 2), 0]]),
])
def test_relation_is_group_equivariant(name, kvals):
    # conjugating the commutator of two letters by any group element must
    # equal the commutator of the conjugated letters
    W = catalog(name)
    k = ParameterK.from_lists(W, kvals)
    alg = CherednikAlgebra(W, k, "t")
    for g in range(W.order):
        wg, wginv = alg.w(W.elements[g]), alg.w(W.elements[W.inv(g)])
        for i in range(W.dim):
            for j in range(W.dim):
                lhs = alg.multiply(alg.multiply(wg, alg.commutator(alg.y(i), alg.x(j))), wginv)
                gy = alg.multiply(alg.multiply(wg, alg.y(i)), wginv)
                gx = alg.multiply(alg.multiply(wg, alg.x(j)), wginv)
                assert lhs == alg.commutator(gy, gx)


def test_normal_order_fixes_ordered_monomials(mu2, mu2_k):
    alg = CherednikAlgebra(mu2, mu2_k, "t0")
    s = _sign_element(mu2)
    mono = alg.monomial((2,), s.key, (1,))
    rebuilt = alg.multiply(alg.multiply(alg.x(0, 2), alg.w(s)), alg.y(0))
    assert rebuilt == mono


# ---------------------------------------------------------------------------
# oracle: the rewriting kernel on tuple monomials, as it stood before the
# monomials were packed into ints, with caches of its own

def _exp_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _collect(flat):
    out = {}
    for (mono, th), c in flat.items():
        out.setdefault(mono, {})[th] = c
    return out


def _pmul(p, q):
    """The product of two coefficient maps (t power, h power) -> scalar."""
    out = {}
    for (i1, j1), v1 in p.items():
        for (i2, j2), v2 in q.items():
            _add_into(out, (i1 + i2, j1 + j2), v1 * v2)
    return out


class _TupleKernel:
    def __init__(self, W, k, mode):
        self.W, self.n, self.k, self.mode = W, W.dim, k, mode
        self._commutators = self._build_commutators()
        self._yx_cache = {}

    def _build_commutators(self):
        n = self.n
        comm = [[{} for _ in range(n)] for _ in range(n)]
        for H in self.W.hyperplanes:
            pair_norm = la.dot(H.alpha, H.alpha_vee).inverse()
            weights = {}
            for u in H.pointwise:
                det_u = la.det(self.W.elements[u].mat)
                for l in range(H.e):
                    _add_into(weights, u,
                              (self.k.k_H(H, l) - self.k.k_H(H, l + 1)) * (det_u ** l))
            for i in range(n):
                for j in range(n):
                    if H.alpha[i].is_zero() or H.alpha_vee[j].is_zero():
                        continue
                    scalar = H.alpha[i] * H.alpha_vee[j] * pair_norm
                    for u, wt in weights.items():
                        _add_into(comm[i][j], u, scalar * wt)
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                entry = {u: {(0, 2) if self.mode == "hbar2" else (0, 0): c}
                         for u, c in comm[i][j].items()}
                if self.mode == "t" and i == j:
                    entry[self.W.identity] = {**entry.get(self.W.identity, {}),
                                              (1, 0): as_cyc(1)}
                row.append(entry)
            out.append(row)
        return out

    def _w_expansion(self, w, exps, dual):
        if not any(exps) or w == self.W.identity:
            return {exps: as_cyc(1)}
        inv = self.W.elements[self.W.inv(w)].mat
        forms = list(zip(*inv)) if dual else inv
        acc = {(0,) * self.n: as_cyc(1)}
        for m, e in enumerate(exps):
            for _ in range(e):
                nxt = {}
                for mono, c in acc.items():
                    for i, f in enumerate(forms[m]):
                        if not f.is_zero():
                            key = tuple(v + (idx == i) for idx, v in enumerate(mono))
                            _add_into(nxt, key, c * f)
                acc = nxt
        return acc

    def yx_product(self, b, a):
        if (b, a) in self._yx_cache:
            return self._yx_cache[(b, a)]
        n, W = self.n, self.W
        if not any(b) or not any(a):
            result = {(a, W.identity, b): {(0, 0): as_cyc(1)}}
            self._yx_cache[(b, a)] = result
            return result
        i = next(m for m in range(n) if b[m])
        j = next(m for m in range(n) if a[m])
        b1 = tuple(v - (m == i) for m, v in enumerate(b))
        a1 = tuple(v - (m == j) for m, v in enumerate(a))
        flat = {}
        e_i = tuple(int(m == i) for m in range(n))
        for (gam, v, eps), c_in in self.yx_product(e_i, a1).items():
            gam2 = tuple(x + (m == j) for m, x in enumerate(gam))
            for (mu, v2, nu), c_left in self.yx_product(b1, gam2).items():
                v2v = W.mul(v2, v)
                coeffs = _pmul(c_in, c_left).items()
                for delta, f in self._w_expansion(v, nu, True).items():
                    mono = (mu, v2v, _exp_add(delta, eps))
                    for th, c in coeffs:
                        _add_into(flat, (mono, th), c * f)
        for u, cpoly in self._commutators[i][j].items():
            for delta, f in self._w_expansion(u, b1, True).items():
                for (gam, v, eps), c_in in self.yx_product(delta, a1).items():
                    uv = W.mul(u, v)
                    coeffs = _pmul(cpoly, c_in).items()
                    for gam2, d in self._w_expansion(u, gam, False).items():
                        for th, c in coeffs:
                            _add_into(flat, ((gam2, uv, eps), th), c * (f * d))
        result = _collect(flat)
        self._yx_cache[(b, a)] = result
        return result

    def multiply(self, A, B):
        W = self.W
        flat = {}
        for (a1, w1, b1), p1 in A.terms.items():
            for (a2, w2, b2), p2 in B.terms.items():
                scale = _pmul(p1, p2)
                for (alpha, u, beta), c in self.yx_product(b1, a2).items():
                    w1uw2 = W.mul(W.mul(w1, u), w2)
                    coeffs = _pmul(c, scale).items()
                    pull = self._w_expansion(w2, beta, True)
                    for gam, d in self._w_expansion(w1, alpha, False).items():
                        for delta, f in pull.items():
                            mono = (_exp_add(a1, gam), w1uw2, _exp_add(delta, b2))
                            for th, v in coeffs:
                                _add_into(flat, (mono, th), v * (d * f))
        return _collect(flat)


# the order of a root of unity outside each algebra's field, Q(z_3), Q(z_1)
# and Q(z_12): a factor scaled by it widens the kernel's field context
OUTSIDE_ROOT = {"dihedral3": 4, "B2": 4, "G4": 5}


# G4 is the one catalog group acting by non-monomial matrices, so only its
# expansions across a group element have more than one term
@pytest.mark.parametrize("name,k,dmax", [
    ("dihedral3", "0,1", 2), ("B2", "0,1;0,1", 2), ("G4", "0,1,0", 1)])
@pytest.mark.parametrize("mode", ["t", "hbar2", "t0"])
def test_packed_kernel_matches_tuple_oracle(name, k, dmax, mode):
    W = catalog(name)
    kk = resolve_parameter(W, k)
    alg = CherednikAlgebra(W, kk, mode)
    ref = _TupleKernel(W, kk, mode)
    rng = random.Random(23)
    for _ in range(3):
        A, B, C = (_random_elem(alg, rng, dmax) for _ in range(3))
        AB = alg.multiply(A, B)
        assert AB.terms == ref.multiply(A, B)
        assert alg.multiply(AB, C).terms == ref.multiply(AB, C)
        assert alg.multiply(C, A).terms == ref.multiply(C, A)
    field, outside = alg._field.n, OUTSIDE_ROOT[name]
    D = A * root_of_unity(outside)
    assert alg.multiply(B, D).terms == ref.multiply(B, D)
    assert alg._field.n == lcm(field, outside)
    assert alg.multiply(AB, C).terms == ref.multiply(AB, C)


# a product keeps the kernel's packed form: equality compares those forms
# when both are in one field, and its terms are built only when read

@pytest.mark.parametrize("name,k,dmax", [
    ("dihedral3", "0,1", 2), ("B2", "0,1;0,1", 2), ("G4", "0,1,0", 1)])
def test_kernel_equality_agrees_with_terms_equality(name, k, dmax):
    W = catalog(name)
    alg = CherednikAlgebra(W, resolve_parameter(W, k), "t")
    rng = random.Random(29)
    unequal = 0
    for _ in range(3):
        A, B, C = (_random_elem(alg, rng, dmax) for _ in range(3))
        AB, BA = alg.multiply(A, B), alg.multiply(B, A)
        # 2 A B has the support of A B, with other scalars
        products = [AB, BA, alg.multiply(AB, C), alg.multiply(A, alg.multiply(B, C)),
                    alg.multiply(A, B), alg.multiply(A * as_cyc(2), B)]
        verdicts = [X == Y for X in products for Y in products]
        assert all(X._kernel[0] is alg._field for X in products)
        assert verdicts == [X.terms == Y.terms for X in products for Y in products]
        assert products[2] == products[3] and products[0] == products[4]
        unequal += verdicts.count(False)
    assert unequal


@pytest.mark.parametrize("name,k,dmax", [
    ("dihedral3", "0,1", 2), ("B2", "0,1;0,1", 2), ("G4", "0,1,0", 1)])
def test_unread_product_survives_a_widening(name, k, dmax):
    W = catalog(name)
    kk = resolve_parameter(W, k)
    alg = CherednikAlgebra(W, kk, "t")
    ref = _TupleKernel(W, kk, "t")
    A, B, C = (_random_elem(alg, random.Random(31), dmax) for _ in range(3))
    P, Q, R = (alg.multiply(A, B) for _ in range(3))    # none read before the widening
    field, outside = alg._field.n, OUTSIDE_ROOT[name]
    alg.multiply(B, A * root_of_unity(outside))
    assert alg._field.n == lcm(field, outside)
    assert all(X._terms is None for X in (P, Q, R))
    assert P.terms == ref.multiply(A, B)
    assert alg.multiply(Q, C).terms == ref.multiply(P, C)
    assert R == alg.multiply(A, B)


def test_products_convert_no_scalar_until_read(monkeypatch):
    converted = []
    cyc = FlatField.cyc
    monkeypatch.setattr(FlatField, "cyc", lambda F, t: converted.append(t) or cyc(F, t))
    W = catalog("dihedral3")
    alg = CherednikAlgebra(W, resolve_parameter(W, "0,1"), "t")
    rng = random.Random(37)
    A, B, C = (_random_elem(alg, rng) for _ in range(3))
    left, right = alg.multiply(alg.multiply(A, B), C), alg.multiply(A, alg.multiply(B, C))
    assert left == right and converted == []
    assert left.terms == right.terms and converted
    assert len(converted) == len(set(converted))
    assert len(set(converted)) == len({c for p in left.terms.values() for c in p.values()})


def test_packed_poisson_bracket_matches_tuple_oracle():
    W = catalog("B2")
    k = resolve_parameter(W, "1;2")
    alg = CherednikAlgebra(W, k, "t0")
    z1 = parse_element(alg, "x1^4 + x2^4 + x1^2 * x2^2")
    z2 = parse_element(alg, "y1^2 + y2^2")
    t_alg = CherednikAlgebra(W, k, "t")
    ref = _TupleKernel(W, k, "t")
    comm = CherElement(t_alg, ref.multiply(z1, z2)) - CherElement(t_alg, ref.multiply(z2, z1))
    assert all(i for p in comm.terms.values() for i, _ in p)
    expect = CherElement(alg, {m: {(0, j): c for (i, j), c in p.items() if i == 1}
                               for m, p in comm.terms.items()})
    assert expect.terms and poisson_bracket(z1, z2).terms == expect.terms


# ---------------------------------------------------------------------------
# packed fields are 16 bits wide: a product that could overflow one is refused

def test_product_refuses_a_coefficient_power_past_the_field(mu2, mu2_k):
    alg = CherednikAlgebra(mu2, mu2_k, "t")
    big = parse_element(alg, "t^70000 * y1")
    with pytest.raises(CherednikError, match="65535"):
        alg.multiply(big, alg.x(0))
    with pytest.raises(CherednikError):
        alg.multiply(alg.x(0), big)


def test_product_refusal_reads_exact_widths(mu2, mu2_k):
    # a product keeps the sum of its factors' widths as a bound; past 65535
    # the exact widths decide: Z = x^40000 (1 + s) (1 - s) is zero
    alg = CherednikAlgebra(mu2, mu2_k, "t0")
    s = _sign_element(mu2)
    Z = alg.multiply(alg.x(0, 40000) + alg.monomial((40000,), s, (0,)),
                     alg.w(mu2.elements[mu2.identity]) - alg.w(s))
    assert Z.is_zero()
    assert alg.multiply(Z, alg.x(0, 30000)).is_zero()


def test_product_refuses_a_degree_past_the_field(mu2, mu2_k):
    alg = CherednikAlgebra(mu2, mu2_k, "t0")
    e = parse_element(alg, "x1^200")
    while 2 * filtration_degree(e) <= 0xFFFF:
        e = alg.multiply(e, e)
        assert list(e.terms) == [((filtration_degree(e),), mu2.identity, (0,))]
    assert filtration_degree(e) == 51200
    with pytest.raises(CherednikError) as exc:
        alg.multiply(e, e)
    assert "\n" not in str(exc.value)
