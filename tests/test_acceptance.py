"""Acceptance gate: every exit criterion, one test each, with a summary line."""

import json
import math
import random
import time
from fractions import Fraction

from leafatlas import linalg as la
from leafatlas.catalog import leaves_B, leaves_D, smooth_B
from leafatlas.cherednik import (
    CherednikAlgebra, associated_graded_leading, euler_degree, filtration_degree,
    is_central, central_elements_bounded, poisson_bracket, rank1_center_relation,
)
from leafatlas.cli import run as cli_run
from leafatlas.exactnum import as_cyc
from leafatlas.leaves import leaves_zero_tau, strata_double
from leafatlas.refgroup import ParameterK, catalog
from leafatlas.tau import build_tau, hyperplane_restriction_matches
from leafatlas.verify import _fixed_space_match, orbit_coincidence_holds
from test_catalog import cross_check_normalizers_B


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_group_catalog_sanity():
    start = time.time()
    for d in (3, 4, 5, 6):
        W = catalog(f"dihedral{d}")
        assert W.order == 2 * d
        assert len(W.reflections) == d
    for n in (2, 3, 4):
        W = catalog(f"G(2,1,{n})")
        assert W.order == 2 ** n * math.factorial(n)
        assert len(W.reflections) == n * n
    G4 = catalog("G4")
    assert G4.order == 24
    assert len(G4.reflections) == 8
    assert len(G4.hyperplanes) == 4
    assert all(H.e == 3 for H in G4.hyperplanes)
    elapsed = time.time() - start
    assert elapsed < 10
    _report(1, f"catalog sanity in {elapsed:.1f}s")


def test_criterion_2_induced_reflection_groups(pair_contexts):
    start = time.time()
    for name, ctx in pair_contexts.items():
        assert ctx.is_full, name
        assert ctx.w_tau.generated_by_reflections(), name
        assert hyperplane_restriction_matches(ctx), name
        assert orbit_coincidence_holds(ctx), name
    elapsed = time.time() - start
    assert elapsed < 60
    _report(2, f"{len(pair_contexts)} pairs in {elapsed:.1f}s")


def test_criterion_3_split_bijection(pair_contexts):
    for name, ctx in pair_contexts.items():
        splits = ctx.split_parabolics()
        assert len(splits) == len(ctx.w_tau.parabolic_subgroups()), name
        assert len({sp.p_tau.ids for sp in splits}) == len(splits), name
        _fixed_space_match(ctx)
    _report(3, f"{len(pair_contexts)} pairs, bijection and subspace equality exact")


def test_criterion_4_leaf_atlas(pair_contexts):
    for name, ctx in pair_contexts.items():
        L = leaves_zero_tau(ctx)
        assert len(L) == len(ctx.w_tau.parabolic_classes()), name
        split_by_orbit = {oi: orbit[0] for oi, orbit in enumerate(ctx.split_orbits())}
        for leaf in L:
            sp = split_by_orbit[leaf.split_orbit]
            assert leaf.dimension == 2 * len(sp.p_tau.fixed_space), name
            assert leaf.dimension == 2 * sp.tau_rank, name
    ctx = build_tau(catalog("B2"), la.identity(2))
    L = leaves_zero_tau(ctx)
    assert sorted(l.dimension for l in L) == [0, 2, 2, 4]
    assert sorted(s.dimension for s in strata_double(ctx.W)) == [0, 2, 2, 4]
    _report(4, "leaf counts and dimensions exact, B2 identity = [4,2,2,0]")


def _random_elem(alg, rng, dmax=2):
    out = alg.zero()
    for _ in range(rng.randrange(1, 3)):
        a = tuple(rng.randrange(dmax + 1) for _ in range(alg.n))
        b = tuple(rng.randrange(dmax + 1) for _ in range(alg.n))
        g = rng.choice(alg.W.elements)
        c = Fraction(rng.randrange(-3, 4) or 1, rng.randrange(1, 3))
        out = out + alg.monomial(a, g.key, b) * as_cyc(c)
    return out


def test_criterion_5_rewriting_engine():
    start = time.time()
    configs = [
        ("cyclic2", [[0, 1]]),
        ("cyclic3", [[0, 1, -1]]),
        ("dihedral3", [[Fraction(1, 2), 0]]),
        ("B2", [[1, 0], [0, Fraction(2, 3)]]),
    ]
    for name, kvals in configs:
        W = catalog(name)
        k = ParameterK.from_lists(W, kvals)
        alg = CherednikAlgebra(W, k, "t")
        rng = random.Random(2024)
        for i in range(200):
            A, B, C = (_random_elem(alg, rng) for _ in range(3))
            assert alg.multiply(alg.multiply(A, B), C) == \
                alg.multiply(A, alg.multiply(B, C)), (name, i)
            if i % 5 == 0:
                dA, dB = euler_degree(A), euler_degree(B)
                prod = alg.multiply(A, B)
                if dA is not None and dB is not None and not prod.is_zero():
                    assert euler_degree(prod) == dA + dB
                    assert filtration_degree(prod) <= \
                        filtration_degree(A) + filtration_degree(B)
                    top = filtration_degree(A) + filtration_degree(B)
                    if filtration_degree(prod) == top:
                        lead = associated_graded_leading(prod)
                        gr = lead.algebra
                        grA = associated_graded_leading(A, gr)
                        grB = associated_graded_leading(B, gr)
                        assert lead == gr.multiply(grA, grB)
        # orbitwise shift leaves the rewriting unchanged
        shifted = k.shifted({oid: as_cyc(Fraction(3, 5)) for oid in k.orbit_e})
        alg2 = CherednikAlgebra(W, shifted, "t")
        rng2 = random.Random(77)
        for _ in range(10):
            A, B = _random_elem(alg2, rng2), _random_elem(alg2, rng2)
            assert alg.multiply(alg.lift(A, alg), alg.lift(B, alg)).terms == \
                alg2.multiply(A, B).terms

    # Poisson laws on central elements of filtration <= 4
    for name, kv in [("cyclic2", [[0, 1]]), ("cyclic3", [[0, 2, 5]])]:
        W = catalog(name)
        k = ParameterK.from_lists(W, kv)
        alg, basis = central_elements_bounded(W, k, 0, 4)
        t_alg = CherednikAlgebra(W, k, "t")
        e = W.hyperplanes[0].e
        zs = [b for b in basis if filtration_degree(b) > 0]
        zs += [alg.x(0, e), alg.y(0, e)]
        zs = [z for z in zs if filtration_degree(z) <= 4]
        assert all(is_central(z) for z in zs)

        def pb(u, v):
            return poisson_bracket(u, v, t_alg)

        for z1 in zs:
            for z2 in zs:
                br = pb(z1, z2)
                assert (br + pb(z2, z1)).is_zero()
                if not br.is_zero():
                    assert euler_degree(br) == euler_degree(z1) + euler_degree(z2)
                    assert filtration_degree(br) <= \
                        filtration_degree(z1) + filtration_degree(z2) - 2
        z1, z2, z3 = zs[0], zs[-2], zs[-1]
        assert pb(z1, alg.multiply(z2, z3)) == \
            alg.multiply(pb(z1, z2), z3) + alg.multiply(z2, pb(z1, z3))
        jac = pb(z1, pb(z2, z3)) + pb(z2, pb(z3, z1)) + pb(z3, pb(z1, z2))
        assert jac.is_zero()
    elapsed = time.time() - start
    assert elapsed < 300
    _report(5, f"800 associativity triples plus laws in {elapsed:.1f}s")


def test_criterion_6_rank1_quadric():
    W = catalog("cyclic2")
    rec0 = rank1_center_relation(ParameterK.zero(W))
    assert rec0["gamma"].is_zero()
    k = ParameterK.from_lists(W, [[1, 0]])        # difference = 1
    rec1 = rank1_center_relation(k)
    assert not rec1["gamma"].is_zero()
    ratios = {str(rec1["b_over_difference"])}
    for lam in (2, 3):
        rec = rank1_center_relation(k.scaled(lam))
        assert rec["gamma"] == as_cyc(lam * lam) * rec1["gamma"]
        ratios.add(str(rec["b_over_difference"]))
    assert len(ratios) == 1
    _report(6, f"gamma scales quadratically, calibration ratio {ratios.pop()}")


def test_criterion_7_catalog_tables():
    assert [r.dimension for r in leaves_B(4, 0)] == [8, 6, 0]
    assert [r.dimension for r in leaves_B(2, 1)] == [4, 0]
    assert [r.dimension for r in leaves_D(4)] == [8, 0]
    assert [r.dimension for r in leaves_D(5)] == [10, 2]
    assert smooth_B(3, 1) is False
    assert smooth_B(3, Fraction(1, 2)) is True
    _report(7, "type-B and type-D tables exact")


def test_criterion_8_normalizer_cross_check():
    start = time.time()
    rep = cross_check_normalizers_B(4, 0)
    assert rep["all_match"]
    by_rank = {row["support_rank"]: row["computed_order"] for row in rep["rows"]}
    assert by_rank[1] == 48
    elapsed = time.time() - start
    assert elapsed < 60
    _report(8, f"rank-1 coordinate subgroup has quotient order 48 in {elapsed:.1f}s")


ACCEPTANCE_JOBS = [
    ["reflections", "--group", "G4"],
    ["parabolics", "--group", "B3"],
    ["lehrer-springer", "--group", "dihedral5", "--tau", "swap"],
    ["tau-split", "--group", "dihedral6", "--tau", "swap"],
    ["leaves-zero", "--group", "B2", "--tau", "identity"],
    ["leaves-zero", "--group", "dihedral4", "--tau", "swap"],
    ["leaves-zero", "--group", "D4", "--tau", "diag-flip"],
    ["leaves-zero", "--group", "B3", "--tau", "neg"],
    ["leaves-zero", "--group", "G4", "--tau", '{"word":[0],"zeta":"4/1"}'],
    ["catalog-B", "--n", "4", "--m", "0"],
    ["catalog-B", "--n", "3", "--ratio", "1/2"],
    ["catalog-D", "--n", "5"],
    ["catalog-dihedral", "--d", "4"],
    ["cherednik-check", "--group", "cyclic2", "--k", "1,0"],
    ["poisson", "--group", "cyclic2", "--k", "zero", "--z1", "x1^2", "--z2", "y1^2"],
    ["verify", "--group", "dihedral3", "--tau", "swap", "--k", "0,1"],
]


def test_criterion_9_byte_determinism(tmp_path):
    for ji, job in enumerate(ACCEPTANCE_JOBS):
        outputs = []
        for threads in ("1", "4"):
            path = tmp_path / f"job{ji}-t{threads}.json"
            code = cli_run(job + ["--threads", threads, "--output", str(path)])
            assert code == 0, job
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1], job
        json.loads(outputs[0].decode())
    _report(9, f"{len(ACCEPTANCE_JOBS)} jobs byte-identical across thread settings")
