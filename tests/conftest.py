import pytest

from leafatlas import linalg as la
from leafatlas.exactnum import root_of_unity
from leafatlas.refgroup import catalog, dihedral_tau
from leafatlas.tau import build_tau, make_full


def _diag_flip(n: int):
    return la.mat([[(-1 if i == 0 else 1) if i == j else 0 for j in range(n)]
                   for i in range(n)])


def catalog_pair_specs():
    """The (group, twist) pairs exercised by the structural criteria."""
    specs = [(f"dihedral{d}", "swap") for d in (3, 4, 5, 6)]
    specs.append(("D4", "t"))
    specs += [("B3", "neg"), ("D4", "neg")]
    specs += [("G4", f"zeta4-w{i}") for i in range(3)]
    specs.append(("B3", "zeta4-w0"))
    return specs


def build_pair(group_name: str, tau_name: str):
    W = catalog(group_name)
    if tau_name == "swap":
        d = int(group_name.replace("dihedral", ""))
        tau = dihedral_tau(d)
    elif tau_name == "t":
        tau = _diag_flip(W.dim)
    elif tau_name == "neg":
        tau = la.mat([[-1 if i == j else 0 for j in range(W.dim)] for i in range(W.dim)])
    elif tau_name.startswith("zeta4-w"):
        idx = int(tau_name.rsplit("w", 1)[1])
        picks = [1, len(W.elements) // 3, 2 * len(W.elements) // 3]
        z4 = root_of_unity(4)
        g = W.elements[picks[idx]]
        tau = tuple(tuple(z4 * x for x in row) for row in g.mat)
    else:
        raise ValueError(tau_name)
    tau = make_full(W, tau)
    return build_tau(W, tau)


@pytest.fixture(scope="session")
def pair_contexts():
    return {f"{g}:{t}": build_pair(g, t) for g, t in catalog_pair_specs()}
