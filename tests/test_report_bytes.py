"""Report bytes: the SHA-256 of the JSON report of fixed CLI jobs.

Reports are byte-stable, so a digest that moves means a report changed.  The
first 13 digests were recorded before group operations moved from element
objects to integer ids, the next four before W_tau was built from
restricted generators of the setwise stabilizer, the next two before the
full-twist search took one fixed space per twisted class, the next eight,
which are the benchmark's `atlas` and `enumerate` digests, before scalars
became integer numerators over one denominator, the next three before
group closure moved to integer coordinates, the next one before the
reflection scan moved to the closure's trace candidates, and the last two
before the rewriting kernel moved to flat integer scalars over one field
context, and the last four, the one suite that reaches
`cherednik.poisson-laws` and three catalog tables, before the type-B and
type-D leaf records became one class, and the last two, `tau-split` on D5
`diag-flip` (403 parabolics, 116 of them split, in 12 W_tau-orbits of sizes
1 to 24) and on G(4,2,3) `identity`, before split parabolics were found in
one walk over W_tau-orbits, and the last three, rank-5 `leaves-zero` on D5
and G(2,1,5) `identity` and B4 `neg`, before a twist in W took W_tau = W
and P's own coset as its one twist class, and the last two, rank-3
`leaves-zero` over Q(z_8) and Q(z_5) (phi = 4), before subspaces were cut
from stacked rows and cyclotomic inverses ran on integer polynomials; a
refactor that keeps every report must keep them.
"""

import hashlib
import random

import pytest

from leafatlas.cherednik import CherednikAlgebra, format_element, parse_element, poisson_bracket
from leafatlas.cli import resolve_parameter, run
from leafatlas.refgroup import catalog
from leafatlas.verify import _random_elem

REPORT_DIGESTS = [
    (["parabolics", "--group", "D4"],
     "c8239c5305bba86ed21ddc426a38c3d5b1d31a195a1caec0a999c739a52530d3"),
    (["parabolics", "--group", "G(4,2,3)"],
     "219fb273a00e10045ccaf1d59b59ed78eb7824138bce057ceca681cf7502a5b5"),
    (["tau-split", "--group", "B3", "--tau", "neg"],
     "43524cc66e50d7caef1668a922106c556d983889160168c5e1544ba52c13f30a"),
    (["lehrer-springer", "--group", "G4", "--tau", '{"word":[0],"zeta":"4/1"}'],
     "f4ead4e602d83345653fd293d7344497fab91226e1688607f925486b6ee0d8d1"),
    (["leaves-zero", "--group", "D4", "--tau", "diag-flip"],
     "66e1e22a1b3ce45f47d72ed96eb2eca6d89726a12b8ddb8065a0d27311855f8b"),
    (["leaves-zero", "--group", "B3", "--tau", "neg"],
     "60daf7781d6d08f6faf68240d565e2d16e71afff6af2011acd7ed62bf4ea215b"),
    (["leaves-zero", "--group", "dihedral4", "--tau", "swap", "--verify"],
     "0b7f45e9a70d20fc52c53df959f69e279126bb56eb867ed5e3f952ae4b1cae23"),
    (["verify", "--group", "dihedral3", "--tau", "swap", "--k", "0,1"],
     "32d9218b9517163f41de2e37b733a47ce9a5045f438b58f1fa625722350b0e7f"),
    (["verify", "--group", "B3", "--tau", "neg"],
     "b3b63539f3e28196119023235c3c4d955cbd5b2f4b3e8e42f7f3e385e85c67fc"),
    (["poisson", "--group", "cyclic2", "--z1", "x1^2", "--z2", "y1^2"],
     "eefe0d26aa1115cbd4c536a51fda1f51c48f63ab93b94e329d04bc1ede73b7de"),
    (["catalog-dihedral", "--d", "5"],
     "828f2ba06a1398bba74d6619c9ca521733a78331ff8e356daecf8041a5561045"),
    (["cherednik-check", "--k", "0,1"],
     "74a563309a3b76d70798a5331fc4e8d77d41a861709d3c7d4e100bbe11581f5c"),
    (["reflections", "--group", "D4"],
     "6b51848ae9747b01b64dff6d9ac3683638928001bf03099f50feabd5cba7a72c"),
    # a pointwise stabilizer Z = W_(V^tau) of order 2
    (["leaves-zero", "--group", "B3", "--tau", '{"zeta":"4/1"}'],
     "b5ba73f89717da31d8a64ef9f3eb563d6b6ef40fc88c8ad88e832c6564ae4b8d"),
    (["leaves-zero", "--group", "G(4,2,3)", "--tau", '{"zeta":"4/1"}'],
     "3a9050e4b0997221d177e4fae2b36eed98a7f2f3b9c492402412b85857b5d431"),
    # V^tau = 0, and W_tau = W
    (["lehrer-springer", "--group", "B2", "--tau", '{"zeta":"3/1"}'],
     "0f2190b71b74fbcee8967b70bf9d558b6993b01e7a746df987226b53d5be5c24"),
    (["lehrer-springer", "--group", "G(4,2,3)", "--tau", "identity"],
     "fddf34e01c704de9bf594d93a60dd1e36b0445305cd1c345061bda9f176e1616"),
    # not full: the CLI replaces tau by the context's full twist
    (["leaves-zero", "--group", "D3", "--tau", "neg"],
     "c6223e2a6a60069419336167bd62467aa1d0ca5e739a3cdb795045d1066f0a9f"),
    (["leaves-zero", "--group", "G(4,4,3)", "--tau", "neg"],
     "739413dccacbd00517e5b426d0bb08b44fbfd4ee4e26a9d9e5da95cb98a223af"),
    # conductor 12: the only descent by a prime p || N, N != p, among these jobs
    (["leaves-zero", "--group", "G4", "--tau", '{"word":[0],"zeta":"4/1"}'],
     "deafa63e5f49e3bb19bf747e98d69664d0d86fa2586b2a5194a7ca7c75fcbd71"),
    (["leaves-zero", "--group", "G(4,2,3)", "--tau", "identity"],
     "290ce14b4818a47bac6bdefc3f6bf8f5a4a0d8cf7beaf087c98bb68f64d33d84"),
    (["leaves-zero", "--group", "dihedral5", "--tau", "swap"],
     "b2642cf193bd37279d6f8c41c0cadda4201540c45c29dd6e20543031bf558f10"),
    (["leaves-zero", "--group", "dihedral8", "--tau", "swap"],
     "ab630c8d4f405b602b66ef35ba2067d3254662be0e4cfd3e9630d0481154dd8a"),
    (["tau-split", "--group", "dihedral6", "--tau", "swap"],
     "0335ea056af802cce6fc06cc5a8cdb46dd07b5470e04ca5cababbebaf5b684cc"),
    (["lehrer-springer", "--group", "dihedral5", "--tau", "swap"],
     "c01e6ee385ba54d754e7dc9e8d94ae669602babccfc3bc8fdcfb9b07da7a26f8"),
    (["reflections", "--group", "D5"],
     "3970b549888a0b5417d375d6f1c99ff9e6f04941f37928eda1526d710097d93d"),
    # closures on every path: a signed-permutation B5, a cyclotomic G(4,2,3)
    # and a non-monomial G4 over Q(z_12)
    (["reflections", "--group", "B5"],
     "30b35120d368cacc9af5ae9c295fe13d98f7c20150384df44bb1c5f68e11ce4c"),
    (["reflections", "--group", "G4"],
     "1de518f2264723ff0c75b54507dd065a99e63ba0685cb945bd6f9ec9044aff7d"),
    (["reflections", "--group", "G(4,2,3)"],
     "f0b0df659f733caa840441cea7693e57f0268565e27a66551b5cb67c638e1891"),
    # one hyperplane with 142 reflections, over Q(z_143)
    (["reflections", "--group", '{"generators":[[["Q(z_11): z^1"]],[["Q(z_13): z^1"]]]}'],
     "3013698107acf7f61f2a3eefbb6158ecc03071a1fc41bfb684088982b8cfeb3e"),
    # scalars outside B2's field Q(z_1): the rewriting kernel widens to Q(z_5),
    # and to Q(z_1147) for the pair Q(z_31), Q(z_37)
    (["poisson", "--group", "B2", "--k", "1;1",
      "--z1", "Q(z_5):z^1 * x1^2 + Q(z_5):z^1 * x2^2", "--z2", "y1^2+y2^2"],
     "0393c25a79a6cb78edd358a0551bfb3078677d829f7758c7e3f4c3b4d943a98c"),
    (["poisson", "--group", "B2", "--k", "1;1",
      "--z1", "Q(z_31):z^1 * x1^2 + Q(z_31):z^1 * x2^2",
      "--z2", "Q(z_37):z^1 * y1^2 + Q(z_37):z^1 * y2^2"],
     "d0bc8bb717a48f13b244c11df574b8b172b9b3a01a3ad63a19d2cf1852dde9c0"),
    # rank one, where the suite runs cherednik.poisson-laws
    (["verify", "--group", "cyclic2", "--k", "1,0"],
     "4e624010e6a19d2a7fda95741618a64a7fd7cf88536747f1734975281b4dc440"),
    (["catalog-B", "--n", "4", "--m", "0"],
     "8afc8df77daaee464d218667fc52943155c1f0730d641f965d6e22fbd866095b"),
    (["catalog-B", "--n", "5", "--m", "1", "--ratio", "1/2"],
     "10fdc5b7f0c59873343806e30457adc4be6900fcfdc7473d005979d441e71739"),
    (["catalog-D", "--n", "5"],
     "db772511d94455738e6b2b5932379a2b7f2c14477945348f1dddd4218880777a"),
    (["tau-split", "--group", "D5", "--tau", "diag-flip"],
     "5711ab8091ad1d568b6cc3e458c0f5eec432575ed16e6e7feb58af94f433e09e"),
    (["tau-split", "--group", "G(4,2,3)", "--tau", "identity"],
     "feb92e6baf359bb7f1b527149850b4e143a0dc91ae08b3235a9c89fe640c34fd"),
    # inner twists: tau = 1, and -1 in B4 adjusted to 1
    (["leaves-zero", "--group", "D5", "--tau", "identity"],
     "e13978a27726834c1c7fc7b9153a8cf8746b77776dc7ec689d212d33e619029e"),
    (["leaves-zero", "--group", "G(2,1,5)", "--tau", "identity"],
     "e7ec59c5eb3db172916ceb4fa957132afd47d91615dadffbd4c981c892849315"),
    (["leaves-zero", "--group", "B4", "--tau", "neg"],
     "bb1c7aeeb790a0f873e7be10e85192c2a41abaa6549b94961422d4fa68dc4c81"),
    # phi = 4 at rank 3, where cyclotomic pivots are inverted and cut
    (["leaves-zero", "--group", "G(8,2,3)", "--tau", "identity"],
     "0cf8a775c80c2426b8250624d69cd2be68321c66fd855c3215efe9a9070b6b9a"),
    (["leaves-zero", "--group", "G(5,1,3)", "--tau", "identity"],
     "a9c564480d5c408292defd6bcb557cdb88dd8db6f22e49abdea8e1ad14c67f51"),
]


@pytest.mark.parametrize("argv, digest", REPORT_DIGESTS,
                         ids=[" ".join(argv) for argv, _ in REPORT_DIGESTS])
def test_report_digest(tmp_path, argv, digest):
    path = tmp_path / "report.json"
    assert run(argv + ["--format", "json", "--output", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv, header", [
    (["catalog-B", "--n", "4", "--m", "0"],
     "n,m,r,dim,cuspidal,support_rank,normalizer,normalizer_order,model,source"),
    (["catalog-D", "--n", "5"],
     "n,r,dim,cuspidal,support_rank,normalizer,normalizer_order,model,source"),
])
def test_catalog_csv_header(tmp_path, argv, header):
    path = tmp_path / "rows.csv"
    assert run(argv + ["--format", "csv", "--output", str(path)]) == 0
    assert path.read_text().split("\n")[0] == header


def test_poisson_law_check_catches_a_broken_bracket(monkeypatch):
    from leafatlas import verify

    bracket = verify.poisson_bracket
    monkeypatch.setattr(verify, "poisson_bracket",
                        lambda X, Y, t_alg: bracket(X, Y, t_alg) + X.algebra.monomial(
                            (0,), X.algebra.W.elements[X.algebra.W.identity], (0,)))
    W = catalog("cyclic2")
    failed = [r for r in verify.run_suite(W, k=resolve_parameter(W, "1,0"))
              if r["status"] != "pass"]
    assert failed == [{"id": "cherednik.poisson-laws", "status": "fail",
                       "detail": "antisymmetry"}]


# seeded products multiply(multiply(A, B), C) per (group, k, mode), and one
# Poisson bracket of quartic invariants; recorded before the engine summed
# every coefficient through one accumulator
PRODUCT_CONFIGS = [("dihedral3", "0,1"), ("B2", "0,1;0,1")]
PRODUCT_DIGEST = "d008708fc60a06338ab666bdb447ac718ddb5079a92a896c35f138f27a420366"


def test_product_digest():
    lines = []
    for name, k in PRODUCT_CONFIGS:
        W = catalog(name)
        for mode in ("t", "hbar2", "t0"):
            alg = CherednikAlgebra(W, resolve_parameter(W, k), mode)
            rng = random.Random(11)
            for _ in range(4):
                A, B, C = (_random_elem(alg, rng) for _ in range(3))
                lines.append(format_element(alg.multiply(alg.multiply(A, B), C)))
    W = catalog("B2")
    alg = CherednikAlgebra(W, resolve_parameter(W, "0,1;0,1"), "t0")
    z1 = parse_element(alg, "x1^4 + x2^4 + x1^2 * x2^2")
    z2 = parse_element(alg, "y1^4 + y2^4")
    lines.append(format_element(poisson_bracket(z1, z2)))
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == PRODUCT_DIGEST


# seeded products on G4 (k 0,1,0, mode t): their scalars lie in Q(z_12), Q(z_3)
# and Q(z_4), so this pins the Galois descent through the rewriting engine;
# recorded before scalars became integer numerators over one denominator
G4_PRODUCT_DIGEST = "d62e014260506ab6db53011250223437b475b42ab85eef5a60f713c1dcd967ed"


def test_g4_product_digest():
    W = catalog("G4")
    alg = CherednikAlgebra(W, resolve_parameter(W, "0,1,0"), "t")
    rng = random.Random(11)
    lines = []
    for _ in range(2):
        A, B, C = (_random_elem(alg, rng, 1) for _ in range(3))
        lines.append(format_element(alg.multiply(alg.multiply(A, B), C)))
    text = "\n".join(lines)
    assert all(f"Q(z_{n})" in text for n in (12, 3, 4))
    assert hashlib.sha256(text.encode()).hexdigest() == G4_PRODUCT_DIGEST
