"""Start-up: a graph command loads only the modules it runs, and the package
surface resolves the rewriting engine's names on first use."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import leafatlas
from leafatlas import cherednik, exactnum, leaves, linalg, refgroup, tau

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH="src")
# the package attribute `catalog` is the group builder, not this module
tables = importlib.import_module("leafatlas.catalog")

# every name the package exported when it imported all of its modules
EXPORTS = {
    exactnum: ["CycNum", "as_cyc", "cyc_parse", "cyc_to_str", "root_of_unity"],
    refgroup: ["CapExceededError", "GroupError", "ParameterK", "Parabolic", "ReflectionGroup",
               "close_group", "dihedral_tau", "catalog"],
    tau: ["TauContext", "TauError", "build_tau", "is_regular", "make_full"],
    leaves: ["LeafLabel", "Stratum", "leaf_report", "leaves_zero_tau", "strata_double",
             "strata_single"],
    cherednik: ["CherednikAlgebra", "CherednikError", "CherElement",
                "associated_graded_leading", "central_elements_bounded", "euler_degree",
                "filtration_degree", "is_central", "poisson_bracket", "rank1_center_relation",
                "rees_specialize"],
    tables: ["leaves_B", "leaves_D", "leaves_D_tau_t", "smooth_B"],
}

# oracles and test-only helpers, defined only in `verify` or tests/helpers.py
MOVED = ("orbit_coincidence_holds", "normalizer_tau", "tau_acts_trivially_on_quotient",
         "intersection_of_splits_is_split", "double_twist_nonempty", "double_membership_agrees",
         "witness_covector", "element_order", "ambient_span", "vec", "fixed_space")


def _python(code):
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _cli(*argv):
    return subprocess.run([sys.executable, "-m", "leafatlas.cli", *argv], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_loads_no_rewriting_or_verification_module():
    # measured against a bare interpreter, since `site` may preload stdlib modules
    loaded = json.loads(_python(
        "import json, sys; base = set(sys.modules); import leafatlas.cli; "
        "print(json.dumps(sorted(set(sys.modules) - base)))"))
    assert "leafatlas.cli" in loaded
    for name in ("leafatlas.cherednik", "leafatlas.verify", "dataclasses"):
        assert name not in loaded


@pytest.mark.parametrize("module", ["refgroup", "linalg", "tau", "leaves", "cli"])
def test_production_modules_load_no_oracle(module):
    loaded = json.loads(_python(
        f"import json, sys; import leafatlas.{module}; print(json.dumps(sorted(sys.modules)))"))
    assert f"leafatlas.{module}" in loaded
    assert "leafatlas.verify" not in loaded and "helpers" not in loaded


def test_oracles_are_not_attributes_of_the_modules_they_check():
    for owner in (tau, leaves, linalg, refgroup.ReflectionGroup, tau.TauContext):
        assert [name for name in MOVED if hasattr(owner, name)] == [], owner
    assert not hasattr(refgroup, "_generators")


@pytest.mark.parametrize("argv", [
    ["verify", "--group", "B2"],
    ["cherednik-check", "--group", "cyclic2", "--k", "1"],
    ["poisson", "--group", "cyclic2", "--k", "zero", "--z1", "x1^2", "--z2", "y1^2"],
])
def test_commands_load_their_modules_on_demand(argv):
    proc = _cli(*argv)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == argv[0]


@pytest.mark.parametrize("argv", [
    ["poisson", "--group", "B2", "--k", "1;1", "--z1", "x1+", "--z2", "y1"],
    ["poisson", "--group", "B2", "--k", "1;1", "--z1", "x1", "--z2", "y1"],
    ["cherednik-check", "--group", "B2", "--k", "1;1"],
])
def test_errors_of_a_deferred_module_exit2_in_a_fresh_process(argv):
    # in this process earlier tests have loaded the rewriting engine already
    proc = _cli(*argv)
    assert proc.returncode == 2
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_package_surface_resolves_every_export():
    names = dir(leafatlas)
    for module, exported in EXPORTS.items():
        for name in exported:
            assert getattr(leafatlas, name) is getattr(module, name), name
            assert name in names, name
    with pytest.raises(AttributeError):
        leafatlas.no_such_name


def test_catalog_stays_the_group_builder_after_submodule_imports():
    assert _python(
        "import leafatlas.catalog, leafatlas.cherednik, leafatlas.verify\n"
        "from leafatlas import catalog\n"
        "from leafatlas.refgroup import catalog as builder\n"
        "print(catalog is builder, catalog('dihedral4').order)").split() == ["True", "8"]
