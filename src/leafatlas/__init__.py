"""leafatlas: exact combinatorics of twisted reflection quotients.

Public surface: exact cyclotomic scalars, explicit reflection groups with
their parabolic and normalizer structure, twist contexts with the induced
group on the fixed space, the undeformed leaf atlas, the symbolic rewriting
engine for the deformed skew product, and the closed-form type-B/D tables.
"""

from .exactnum import CycNum, as_cyc, cyc_parse, cyc_to_str, root_of_unity
from .refgroup import (
    CapExceededError, GroupError, ParameterK, Parabolic, ReflectionGroup,
    close_group, dihedral_tau,
)
from .tau import TauContext, TauError, build_tau, is_regular, make_full
from .leaves import LeafLabel, Stratum, leaf_report, leaves_zero_tau, strata_double, strata_single
from .catalog import leaves_B, leaves_D, leaves_D_tau_t, smooth_B
# bound after the submodule import above, which would rebind the name
# `catalog` to the tables module
from .refgroup import catalog

# the rewriting engine's names, resolved on first use (PEP 562): importing the
# package, or a CLI job that does not rewrite, does not load it
_CHEREDNIK_NAMES = (
    "CherednikAlgebra", "CherednikError", "CherElement", "associated_graded_leading",
    "central_elements_bounded", "euler_degree", "filtration_degree", "is_central",
    "poisson_bracket", "rank1_center_relation", "rees_specialize")

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _CHEREDNIK_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import cherednik
    return getattr(cherednik, name)


def __dir__():
    return sorted({*globals(), *_CHEREDNIK_NAMES})
