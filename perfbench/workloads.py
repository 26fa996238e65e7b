"""The benchmark's workloads: fixed CLI jobs and seeded rewriting triples.

`atlas` and `enumerate` are fixed paper pairs run through `leafatlas.cli.run`;
each report's SHA-256 is checked against the digest recorded when the
benchmark was defined (reports are byte-stable, so any change is a failure).
The seed only shuffles the job order of each pass.

`rewrite` checks associativity of random triples in CherednikAlgebra(W, k,
"t").  The monomials of every triple (exponents and group element) come from
a fixed design seed, so that each pass does the same amount of rewriting
work; the workload seed draws every coefficient and the order of the
triples, which decides when the algebra's caches fill.  Drawing the monomials
from the workload seed as well made the rewriting work itself vary by about
10% (interquartile range over ten seeds) on dihedral3.
"""

from __future__ import annotations

import random
from fractions import Fraction

# (command, group, twist, sha256 of the JSON report)
ATLAS_JOBS = (
    ("leaves-zero", "D4", "diag-flip",
     "66e1e22a1b3ce45f47d72ed96eb2eca6d89726a12b8ddb8065a0d27311855f8b"),
    ("leaves-zero", "G(4,2,3)", "identity",
     "290ce14b4818a47bac6bdefc3f6bf8f5a4a0d8cf7beaf087c98bb68f64d33d84"),
    ("leaves-zero", "G4", '{"word":[0],"zeta":"4/1"}',
     "deafa63e5f49e3bb19bf747e98d69664d0d86fa2586b2a5194a7ca7c75fcbd71"),
    ("leaves-zero", "B3", "neg",
     "60daf7781d6d08f6faf68240d565e2d16e71afff6af2011acd7ed62bf4ea215b"),
    ("leaves-zero", "dihedral5", "swap",
     "b2642cf193bd37279d6f8c41c0cadda4201540c45c29dd6e20543031bf558f10"),
    ("leaves-zero", "dihedral8", "swap",
     "ab630c8d4f405b602b66ef35ba2067d3254662be0e4cfd3e9630d0481154dd8a"),
    ("tau-split", "dihedral6", "swap",
     "0335ea056af802cce6fc06cc5a8cdb46dd07b5470e04ca5cababbebaf5b684cc"),
    ("lehrer-springer", "dihedral5", "swap",
     "c01e6ee385ba54d754e7dc9e8d94ae669602babccfc3bc8fdcfb9b07da7a26f8"),
)

ENUMERATE_JOBS = (
    ("reflections", "D5", None,
     "3970b549888a0b5417d375d6f1c99ff9e6f04941f37928eda1526d710097d93d"),
    ("reflections", "B5", None,
     "30b35120d368cacc9af5ae9c295fe13d98f7c20150384df44bb1c5f68e11ce4c"),
)

# (group, parameter spec for leafatlas.cli.resolve_parameter, triples per pass)
REWRITE_CONFIGS = (
    ("dihedral3", "0,1", 100),
    ("B2", "0,1;0,1", 100),
)

DESIGN_SEED = 2112
MAX_DEGREE = 2


def job_argv(job) -> list[str]:
    command, group, twist, _ = job
    argv = [command, "--group", group]
    if twist is not None:
        argv += ["--tau", twist]
    return argv


def job_name(job) -> str:
    return " ".join(job_argv(job))


def make_triples(alg, count: int, seed: int):
    """`count` triples (A, B, C) in the style of leafatlas.verify's random elements."""
    from leafatlas.exactnum import as_cyc

    design = random.Random(DESIGN_SEED)
    draw = random.Random(seed)
    elements = alg.W.elements

    def element():
        out = alg.zero()
        for _ in range(design.randrange(1, 3)):
            a = tuple(design.randrange(MAX_DEGREE + 1) for _ in range(alg.n))
            b = tuple(design.randrange(MAX_DEGREE + 1) for _ in range(alg.n))
            g = design.choice(elements)
            c = Fraction(draw.randrange(-3, 4) or 1, draw.randrange(1, 3))
            out = out + alg.monomial(a, g.key, b) * as_cyc(c)
        return out

    triples = [tuple(element() for _ in range(3)) for _ in range(count)]
    draw.shuffle(triples)
    return triples
