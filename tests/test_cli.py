"""Command-line interface: dispatch, formats, determinism, exit codes."""

import csv
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from leafatlas.cli import run
from leafatlas.verify import Check

ROOT = Path(__file__).resolve().parents[1]

def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_leaves_zero_b2(capsys):
    code, out, _ = run_cli(capsys, "leaves-zero", "--group", "B2", "--tau", "identity",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["leaf_count"] == 4
    assert [leaf["dim"] for leaf in data["leaves"]] == [4, 2, 2, 0]


def test_catalog_b_table(capsys):
    code, out, _ = run_cli(capsys, "catalog-B", "--n", "4", "--m", "0")
    assert code == 0
    data = json.loads(out)
    assert [row["r"] for row in data["rows"]] == [0, 1, 2]
    assert [row["dim"] for row in data["rows"]] == [8, 6, 0]


def test_catalog_b_smoothness(capsys):
    code, out, _ = run_cli(capsys, "catalog-B", "--n", "3", "--ratio", "1")
    assert json.loads(out)["smooth"] is False
    code, out, _ = run_cli(capsys, "catalog-B", "--n", "3", "--ratio", "1/2")
    assert json.loads(out)["smooth"] is True


def test_catalog_d(capsys):
    code, out, _ = run_cli(capsys, "catalog-D", "--n", "5")
    assert code == 0
    data = json.loads(out)
    assert [row["dim"] for row in data["rows"]] == [10, 2]
    assert data["twist_report"]["n"] == 5


def test_catalog_dihedral(capsys):
    code, out, _ = run_cli(capsys, "catalog-dihedral", "--d", "4")
    assert code == 0
    data = json.loads(out)
    assert data["undeformed_twisted_atlas"]["leaf_count"] == 2


def test_cherednik_check(capsys):
    code, out, _ = run_cli(capsys, "cherednik-check", "--group", "cyclic2",
                           "--k", "0,1")
    assert code == 0
    data = json.loads(out)
    assert data["gamma"] == "1"
    assert data["b_over_difference"] == "1/2"
    code, out, _ = run_cli(capsys, "cherednik-check", "--group", "cyclic2", "--k", "zero")
    assert json.loads(out)["gamma"] == "0"


def test_poisson_command(capsys):
    code, out, _ = run_cli(capsys, "poisson", "--group", "cyclic2", "--k", "zero",
                           "--z1", "x1^2", "--z2", "y1^2")
    assert code == 0
    data = json.loads(out)
    assert data["euler_degree"] == 0
    assert "x1" in data["bracket"]


def test_poisson_report_parses_back(capsys):
    # a cyclotomic coefficient prints whole, with + and * inside its
    # parentheses; a report's elements fed back give the same report
    argv = ["poisson", "--group", "cyclic2", "--z1", "Q(z_8):z^1 * x1^2 + Q(z_8): 3/2 * x1^2",
            "--z2", "y1^2"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    data = json.loads(out)
    assert data["z1"] == "(Q(z_8): 3/2 + 1*z^1) * x1^2 * w(e)"
    assert "(Q(z_8): " in data["bracket"]
    again = run_cli(capsys, "poisson", "--group", "cyclic2", "--z1", data["z1"],
                    "--z2", data["z2"])
    assert again == (0, out, "")
    code, out, _ = run_cli(capsys, "poisson", "--group", "cyclic2", "--z1", data["bracket"],
                           "--z2", "x1")
    assert code == 0 and json.loads(out)["z1"] == data["bracket"]


def test_reflections_csv(capsys):
    code, out, _ = run_cli(capsys, "reflections", "--group", "dihedral4",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("alpha,")
    assert len(lines) == 5


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, "parabolics", "--group", "B2", "--format", "text")
    assert code == 0
    assert "class_count: 4" in out


def test_verify_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--group", "B2", "--tau", "identity",
                           "--k", "1,0;0,0")
    assert code == 0
    data = json.loads(out)
    assert data["fail_count"] == 0
    assert data["pass_count"] >= 10
    ids = {r["id"] for r in data["invariants"]}
    assert "tau.lsp-hyperplanes" in ids
    assert "cherednik.pbw-associativity" in ids


def test_corrupt_group_file_exit2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"generators": [[["1","oops"],["0","1"]]]}')
    code, _, err = run_cli(capsys, "reflections", "--group", f"@{bad}")
    assert code == 2
    assert "error" in err


BIG = "9" * 5000


def _assert_one_line_error(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_infinite_order_generator_exit2_quickly(capsys):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "reflections", "--group", '{"generators":[[["2"]]]}')
    assert time.perf_counter() - start < 1.0
    assert code == 2
    _assert_one_line_error(err)


def test_infinite_order_twist_exit2_quickly(capsys):
    # zeta_8 + zeta_8^2 has absolute value |1 + zeta_8| > 1; the powers stop at L = 120
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "leaves-zero", "--group", "cyclic4",
                           "--tau", '{"matrix":[["Q(z_8): 1*z^1 + 1*z^2"]]}')
    assert time.perf_counter() - start < 1.0
    assert code == 2
    _assert_one_line_error(err)


ONES = "1" * 5000

# scalars that ran past 10 s (a decimal exponent read as a Fraction), or
# exited 1 with a traceback: the printing of a 30001-digit gamma, zero
# denominators, integers past the digit limit, and last a legal 4001-digit k
# whose gamma passes the limit on printing
BAD_SCALARS = [
    ["cherednik-check", "--group", "cyclic2", "--k", "1e30000000,0"],
    ["catalog-B", "--n", "3", "--ratio", "1e30000000"],
    ["leaves-zero", "--group", "B2", "--tau", '{"matrix":[["1e30000000","0"],["0","1"]]}'],
    ["cherednik-check", "--group", "cyclic2", "--k", "1e30000,0"],
    ["cherednik-check", "--group", "cyclic2", "--k", "Q(z_5): 1/0,0"],
    ["reflections", "--group", '{"generators":[[["Q(z_4): 1/0"]]]}'],
    ["cherednik-check", "--group", "cyclic2", "--k", f"Q(z_5): {ONES},0"],
    ["cherednik-check", "--group", "cyclic2", "--k", f"Q(z_5): 1*z^{ONES},0"],
    ["cherednik-check", "--group", "cyclic2", "--k", "1" + "0" * 4000 + ",0"],
]

VERIFY_WITHOUT_GROUP = [
    ["catalog-B", "--n", "3", "--verify"],
    ["catalog-dihedral", "--d", "4", "--verify"],
    ["cherednik-check", "--k", "1,0", "--verify"],
]


@pytest.mark.parametrize("argv", [
    ["reflections", "--group", '{"generators":[[["0","1"],["1"]]]}'],
    ["leaves-zero", "--group", "B2", "--tau", '{"matrix":[["1"]]}'],
    ["reflections", "--group", "B0"],
    ["leaves-zero", "--group", "B2", "--tau", '{"word":["a"]}'],
    ["leaves-zero", "--group", "B2", "--tau", '{"word":5}'],
    ["leaves-zero", "--group", "B2", "--tau", '{"word":[[0]]}'],
    ["verify", "--group", "B2", "--k", '{"orbits":[5,6]}'],
    ["catalog-B", "--n", "3000", "--m", "0"],
    ["catalog-D", "--n", "3000"],
    ["catalog-B", "--n", "100000", "--m", "0"],
    ["cherednik-check", "--group", "cyclic2", "--k", "1,0,0,5"],
    ["reflections", "--group", "B2", "--cap", "0"],
    ["reflections", "--group", "B2", "--output", "/nonexistent/dir/x.json"],
    ["poisson", "--group", "cyclic2", "--z1", "x1^2000", "--z2", "y1"],
    ["poisson", "--group", "cyclic2", "--z1", "x1^99999999", "--z2", "y1"],
    # integers past the interpreter's 4300-digit limit for str -> int
    ["poisson", "--group", "cyclic2", "--z1", f"x1^{BIG}", "--z2", "y1"],
    ["poisson", "--group", "cyclic2", "--z1", f"({BIG})*x1", "--z2", "y1"],
    ["poisson", "--group", "cyclic2", "--z1", f"x{BIG}", "--z2", "y1"],
    ["leaves-zero", "--group", "B2", "--tau", f'{{"word":[0],"zeta":"{BIG}/1"}}'],
    ["leaves-zero", "--group", "B2", "--tau", f'{{"word":[{BIG}]}}'],
    ["reflections", "--group", f"G({BIG},1,1)"],
    ["reflections", "--group", f'{{"generators":[[["Q(z_{BIG}): 1"]]]}}'],
    ["poisson", "--group", "cyclic2", "--z1", "(1/0)*x1", "--z2", "y1"],
    # spec files that cannot be read: a directory, or bytes that are not UTF-8
    ["reflections", "--group", "@{dir}"],
    ["leaves-zero", "--group", "B2", "--tau", "@{dir}"],
    ["reflections", "--config", "{dir}"],
    ["reflections", "--group", "@{latin1}"],
    ["leaves-zero", "--group", "B2", "--tau", "@{latin1}"],
    ["reflections", "--config", "{latin1}"],
    # option errors: argparse's own usage block would take several lines
    ["reflections", "--group", "B2", "--n", "x"],
    ["reflections", "--group", "B2", "--no-such-flag"],
    ["reflections", "--group", "B2", "--format", "xml"],
    ["no-such-command", "--group", "B2"],
    ["reflections", "--group", "B2", "--threads", "0"],
    ["reflections"],
    # singular matrices
    ["reflections", "--group", '{"generators":[[["0"]]]}'],
    ["leaves-zero", "--group", "B2", "--tau", '{"matrix":[["0","0"],["0","0"]]}'],
    # a config line with no '=', and spec files that hold a JSON list
    ["reflections", "--config", "{noeq}"],
    ["leaves-zero", "--group", "B2", "--tau", "@{list}"],
    ["reflections", "--group", "@{list}"],
    # specs that name nothing known
    ["leaves-zero", "--group", "B2", "--tau", '{"foo":1}'],
    ["reflections", "--group", '{"foo":1}'],
    ["leaves-zero", "--group", "B2", "--tau", "bogus"],
    ["leaves-zero", "--group", "B2", "--tau", "swap"],
    ["reflections", "--group", "G(4,3,2)"],
    ["reflections", "--group", "D1"],
    ["reflections", "--group", "dihedral1"],
    # a missing or misshapen option of one command
    ["catalog-B"],
    ["catalog-D"],
    ["catalog-dihedral"],
    ["poisson", "--group", "cyclic2", "--z1", "x1"],
    ["lehrer-springer", "--group", "B2", "--format", "csv"],
    ["cherednik-check", "--group", "B2", "--k", "1;2;3"],
    # --verify runs the suite on a group, so it needs one
    *VERIFY_WITHOUT_GROUP,
    *BAD_SCALARS,
])
def test_malformed_shapes_exit2(capsys, tmp_path, argv):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"name": "B2", "note": "\u00e9"}'.encode("latin-1"))
    noeq = tmp_path / "noeq.conf"
    noeq.write_text("group = B2\nnonsense\n")
    listed = tmp_path / "list.json"
    listed.write_text('["B2"]')
    files = {"{dir}": tmp_path, "{latin1}": latin1, "{noeq}": noeq, "{list}": listed}
    for key, path in files.items():
        argv = [a.replace(key, str(path)) for a in argv]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    _assert_one_line_error(err)


@pytest.mark.parametrize("argv", BAD_SCALARS)
def test_bad_scalar_exits2_quickly(capsys, argv):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    _assert_one_line_error(err)
    assert len(err) < 120       # an error line quotes at most 40 characters


@pytest.mark.parametrize("argv,scalar", [
    (["catalog-B", "--n", "3", "--ratio", "1.5"], "1.5"),
    (["cherednik-check", "--group", "cyclic2", "--k", "1e3,0"], "1e3"),
    (["catalog-B", "--n", "3", "--ratio", "+2"], "+2"),
    (["leaves-zero", "--group", "B2", "--tau", '{"matrix":[[1.5,0],[0,1]]}'], "1.5"),
    (["poisson", "--group", "cyclic2", "--z1", "(1.5) * x1", "--z2", "y1"], "1.5"),
])
def test_decimals_exponents_and_signs_are_not_scalars(capsys, argv, scalar):
    # one grammar, p/q or a Q(z_N) literal: the line names the scalar
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and f"bad scalar {scalar!r}" in err
    _assert_one_line_error(err)


def test_verify_without_group_names_the_option(capsys):
    for argv in VERIFY_WITHOUT_GROUP:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "--group" in err, argv


def test_malformed_cap_env_exit2(capsys, monkeypatch):
    monkeypatch.setenv("LEAFATLAS_CAP", "abc")
    code, _, err = run_cli(capsys, "reflections", "--group", "B2")
    assert code == 2
    _assert_one_line_error(err)


@pytest.mark.parametrize("argv", [
    ["reflections", "--group", "B2"],
    ["parabolics", "--group", "B2"],
    ["tau-split", "--group", "dihedral4", "--tau", "swap"],
    ["leaves-zero", "--group", "B2", "--tau", "identity"],
    ["catalog-B", "--n", "3"],
    ["catalog-D", "--n", "4"],
    ["verify", "--group", "B2"],
])
def test_csv_rows_parse_to_header_width(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows)


# the last three pass the order cap, but phi(N)^2 is above it
@pytest.mark.parametrize("group", ["dihedral1000000", "B12", "cyclic1009", "dihedral1009",
                                   "G(3001,1,1)"])
def test_oversized_catalog_group_exit3_quickly(capsys, group):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "reflections", "--group", group)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    _assert_one_line_error(err)


# the last five pass the order cap, but phi(N)^2 is above it
@pytest.mark.parametrize("zeta", ["9" * 4000 + "/1", "9999991/1", "1009/1", "3001/1",
                                  "10007/1", "65536/1", "720720/1"])
def test_oversized_twist_root_of_unity_exit3_quickly(capsys, zeta):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "leaves-zero", "--group", "B2",
                           "--tau", f'{{"word":[0],"zeta":"{zeta}"}}')
    assert time.perf_counter() - start < 1.0
    assert code == 3
    _assert_one_line_error(err)


def test_twist_root_of_unity_inside_the_field_bound_runs(capsys):
    # phi(211)^2 = 44100 is under the default cap
    code, out, _ = run_cli(capsys, "leaves-zero", "--group", "B2",
                           "--tau", '{"word":[0],"zeta":"211/1"}')
    assert code == 0 and json.loads(out)["leaves"]


@pytest.mark.parametrize("argv", [
    ["leaves-zero", "--group", "B2", "--tau", '{"matrix":[["Q(z_65536): 1*z^1","0"],["0","1"]]}'],
    ["reflections", "--group", '{"generators":[[["Q(z_10007): 1*z^1"]]]}'],
    # each literal's field passes, but the generators' field Q(z_1147) does not
    ["reflections", "--group", '{"generators":[[["Q(z_31): z^1"]],[["Q(z_37): z^1"]]]}'],
    # the same for a group and a twist: w * tau lies in Q(z_1147)
    ["leaves-zero", "--group", "cyclic31", "--tau", '{"zeta":"37/1"}'],
    ["cherednik-check", "--group", "cyclic2", "--k", "Q(z_65536): 1*z^1,0"],
    ["poisson", "--group", "cyclic2", "--z1", "(Q(z_65536): 1*z^1) * x1", "--z2", "y1"],
    ["poisson", "--group", "cyclic2", "--z1", "x1^250", "--z2", "y1^250"],
    ["poisson", "--group", "cyclic2", "--z1", "y1^250 + x1", "--z2", "x1^250"],
    # a transposition moves degree between coordinates, so this slow bracket
    # reaches exponent pairs outside each term's own box; a bound over the
    # boxes let it run
    ["poisson", "--group", "B3", "--k", "1;1",
     "--z1", "x1^6+x2^6+x3^6", "--z2", "y1^6+y2^6+y3^6"],
    # each literal's field passes, but the bracket is rewritten over
    # Q(z_2022161), where the factors' scalars have exponents past
    # phi = 1814400: that needs Phi_2022161, which does not finish in 20 s
    *(["poisson", "--group", "B2", "--k", "1;1",
       "--z1", "Q(z_31):z^30 * x1^2 + Q(z_31):z^30 * x2^2"
               " + Q(z_37):z^36 * x1^2 + Q(z_37):z^36 * x2^2",
       "--z2", "Q(z_41):z^40 * y1^2 + Q(z_41):z^40 * y2^2"
               " + Q(z_43):z^42 * y1^2 + Q(z_43):z^42 * y2^2"] + cap
      for cap in ([], ["--cap", "3000000"])),
    # one literal's own sum, and one term's own product, over Q(z_2022161)
    ["poisson", "--group", "B2", "--k", "1;1", "--z1",
     "Q(z_31):z^30*x1^2 + Q(z_37):z^36*x1^2 + Q(z_41):z^40*x1^2 + Q(z_43):z^42*x1^2",
     "--z2", "y1^2"],
    ["poisson", "--group", "B2", "--k", "1;1", "--z1",
     "Q(z_31):z^30 * Q(z_37):z^36 * Q(z_41):z^40 * Q(z_43):z^42 * x1^2", "--z2", "y1^2"],
])
def test_oversized_field_or_rewrite_exit3_quickly(capsys, argv):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    _assert_one_line_error(err)


@pytest.mark.parametrize("argv", [
    # the field-axiom sample reduces in Q(z_40), whose phi^2 = 256 is above the cap
    ["verify", "--group", "B2", "--cap", "100"],
    # k lies in Q(z_1147), whose phi^2 = 1166400 is above the default cap
    ["verify", "--group", "cyclic2", "--k", "Q(z_31):z^30,Q(z_37):z^36"],
])
def test_field_bound_is_the_poisson_commands_only(argv):
    # a new process, so that no Phi_N is cached from an earlier test
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-m", "leafatlas.cli", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["fail_count"] == 0


def _sum_over_fields(var, *fields):
    return " + ".join(f"Q(z_{n}):z^1 * {var}{i}^2" for n in fields for i in (1, 2))


@pytest.mark.parametrize("z1,z2,contains,digest", [
    # Q(z_1147), phi = 1080, where a dense scalar would have 1080 numerators
    pytest.param(_sum_over_fields("x", 31), _sum_over_fields("y", 37),
                 "Q(z_1147): -4*z^68", None, id="z_1147"),
    # N = 3*5*7*11: each descent of a scalar is by a prime p || N; the digest
    # was recorded when that descent ran the Galois fixed-point test, an
    # independent method
    pytest.param(_sum_over_fields("x", 3, 5), _sum_over_fields("y", 7, 11), None,
                 "0c9b168fd5d6264a43f554a6a2646c51a960dafe74dc4477817f04046fbe6c44",
                 id="z_1155"),
    # N = 31*37*41*43, phi = 1814400: -4(z_31 + z_37)(z_41 + z_43), where the
    # exponent of z_31 z_41 is N/31 + N/41 = 114552, and so on
    pytest.param(_sum_over_fields("x", 31, 37), _sum_over_fields("y", 41, 43),
                 "Q(z_2022161): -4*z^101680 + -4*z^103974 + -4*z^112258 + -4*z^114552",
                 None, id="z_2022161"),
])
def test_poisson_in_a_wide_field_context_runs_quickly(capsys, z1, z2, contains, digest):
    # the factors' scalars widen the rewriting kernel of B2 from Q(z_1)
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "poisson", "--group", "B2", "--k", "1;1",
                           "--z1", z1, "--z2", z2)
    assert time.perf_counter() - start < 2.0
    assert code == 0
    if contains is not None:
        assert contains in json.loads(out)["bracket"]
    if digest is not None:
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    # the dry runs count 8801, 2950, 2640 and 152680 accumulations; the last
    # bracket does 123452, and a closed-form estimate put it at 9408000
    ["--group", "cyclic2", "--z1", "x1^25", "--z2", "y1^25"],
    ["--group", "B5", "--k", "1;1", "--z1", "x1^2+x2^2+x3^2+x4^2+x5^2",
     "--z2", "y1^2+y2^2+y3^2+y4^2+y5^2"],
    ["--group", "D5", "--k", "1", "--z1", "x1^2+x2^2+x3^2+x4^2+x5^2",
     "--z2", "y1^2+y2^2+y3^2+y4^2+y5^2"],
    ["--group", "B4", "--k", "1;1", "--z1", "x1^4+x2^4+x3^4+x4^4",
     "--z2", "y1^4+y2^4+y3^4+y4^4"],
])
def test_poisson_inside_the_rewrite_bound_runs(capsys, argv):
    code, out, _ = run_cli(capsys, "poisson", *argv)
    assert code == 0 and json.loads(out)["euler_degree"] == 0
    # the largest brackets of the suite: their report bytes, by group
    assert hashlib.sha256(out.encode()).hexdigest() == {
        "cyclic2": "d26286983624c776fb911dae591522320fe640dc393e15c0d30682a67203ed4f",
        "B5": "cf549fef2bc6d53f81935e7a6e5babd8bf1f15a402853ac88def3dc6e421fc37",
        "D5": "db408aa609e6e208271226c7000f114ac282448633d9ffd6f5a1a94a777f40ca",
        "B4": "c8f2eae2abbdd54c6added1dd1576bb5311c83d450d24441a7b1b75ad0f2e84a",
    }[argv[1]]


@pytest.mark.parametrize("argv,degrees", [
    (["--group", "B3", "--k", "1;1", "--z1", "x1^6+x2^6+x3^6", "--z2", "y1^6+y2^6+y3^6"],
     "y-degree 6 against x-degree 6"),
    (["--group", "cyclic2", "--z1", "y1^250 + x1", "--z2", "x1^250"],
     "y-degree 250 against x-degree 250"),
    # B4's bracket passes a cap below its dry-run count of 152680
    (["--group", "B4", "--k", "1;1", "--z1", "x1^4+x2^4+x3^4+x4^4",
      "--z2", "y1^3+y2^4+y3^4+y4^4", "--cap", "100000"], "y-degree 4 against x-degree 4"),
])
def test_poisson_cap_message_names_the_degrees(capsys, argv, degrees):
    code, _, err = run_cli(capsys, "poisson", *argv)
    assert code == 3 and degrees in err
    _assert_one_line_error(err)


def test_poisson_width_guard_exit2(capsys):
    code, _, err = run_cli(capsys, "poisson", "--group", "cyclic2", "--z1", "t^70000 * x1",
                           "--z2", "y1")
    assert code == 2 and "65535" in err
    _assert_one_line_error(err)


def test_missing_group_exit2(capsys):
    code, _, err = run_cli(capsys, "reflections", "--group", "nonsense99")
    assert code == 2


def test_cap_exit3(capsys):
    code, _, err = run_cli(capsys, "reflections", "--group", "B4", "--cap", "10")
    assert code == 3


def test_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("LEAFATLAS_CAP", "10")
    code, _, _ = run_cli(capsys, "reflections", "--group", "B4")
    assert code == 3
    monkeypatch.delenv("LEAFATLAS_CAP")


def test_group_json_inline(capsys):
    code, out, _ = run_cli(capsys, "reflections", "--group", '{"name": "B2"}')
    assert code == 0
    assert json.loads(out)["reflection_count"] == 4


def test_group_generator_file(tmp_path, capsys):
    spec = {"generators": [[["-1"]]]}
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "reflections", "--group", f"@{path}")
    assert code == 0
    assert json.loads(out)["order"] == 2


def test_tau_word_spec(capsys):
    code, out, _ = run_cli(capsys, "lehrer-springer", "--group", "B3",
                           "--tau", '{"word": [], "zeta": "2/1"}')
    assert code == 0
    data = json.loads(out)
    assert data["tau_full_adjusted"] is True     # -id sits inside the group
    assert data["induced_order"] == 48


def test_no_make_full_rejects(capsys):
    code, _, err = run_cli(capsys, "lehrer-springer", "--group", "B3",
                           "--tau", '{"word": [], "zeta": "2/1"}', "--no-make-full")
    assert code == 2


def test_config_precedence(tmp_path, capsys):
    conf = tmp_path / "conf.txt"
    conf.write_text("# defaults\ngroup = B2\nformat = json\n")
    code, out, _ = run_cli(capsys, "parabolics", "--config", str(conf))
    assert code == 0
    assert json.loads(out)["group"] == "B2"
    code, out, _ = run_cli(capsys, "parabolics", "--config", str(conf),
                           "--group", "dihedral3")
    assert json.loads(out)["group"] == "dihedral3"


def test_config_integer_keys(tmp_path, capsys):
    conf = tmp_path / "conf.txt"
    conf.write_text("n = 4\nm = 0\n")
    code, out, _ = run_cli(capsys, "catalog-B", "--config", str(conf))
    assert code == 0
    assert out == run_cli(capsys, "catalog-B", "--n", "4", "--m", "0")[1]
    conf.write_text("n = four\n")
    assert run_cli(capsys, "catalog-B", "--config", str(conf)) == \
        (2, "", "error: config key n must be an integer\n")


def test_parameter_json_spec_matches_the_list_spec(capsys):
    code, out, _ = run_cli(capsys, "cherednik-check", "--group", "cyclic2",
                           "--k", '{"orbits":[["1","0"]]}')
    assert code == 0
    assert out == run_cli(capsys, "cherednik-check", "--group", "cyclic2", "--k", "1,0")[1]


def test_failed_check_exits_4(tmp_path, capsys, monkeypatch):
    from leafatlas import verify

    def planted(W):
        raise AssertionError("planted")
    monkeypatch.setattr(verify, "_hyperplane_orders", planted)
    failed = [{"id": "group.hyperplane-orders", "status": "fail", "detail": "planted"}]
    code, out, _ = run_cli(capsys, "verify", "--group", "B2")
    assert code == 4
    assert [r for r in json.loads(out)["invariants"] if r["status"] != "pass"] == failed
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "leaves-zero", "--group", "B2", "--tau", "identity",
                           "--verify", "--output", str(path))
    assert code == 4 and out == ""
    invariants = json.loads(path.read_text())["invariants"]
    assert [r for r in invariants if r["status"] != "pass"] == failed


@pytest.mark.parametrize("argv", [
    ["leaves-zero", "--group", "D4", "--tau", "diag-flip"],
    ["tau-split", "--group", "D5", "--tau", "diag-flip"],
    ["verify", "--group", "B3", "--tau", "neg"],
])
def test_reports_do_not_depend_on_the_hash_seed(argv):
    outputs = []
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-m", "leafatlas.cli", *argv], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "parabolics", "--group", "B2",
                           "--output", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["class_count"] == 4


def test_byte_determinism_across_threads(tmp_path):
    outputs = []
    for threads in ("1", "4"):
        for rep in range(2):
            path = tmp_path / f"out-{threads}-{rep}.json"
            code = run(["leaves-zero", "--group", "dihedral4", "--tau", "swap",
                        "--threads", threads, "--output", str(path)])
            assert code == 0
            outputs.append(path.read_bytes())
    assert len(set(outputs)) == 1


def test_verify_check_reports_any_error_as_failure():
    assert Check("x", lambda: 1 / 0).run() == {
        "id": "x", "status": "fail", "detail": "ZeroDivisionError: division by zero"}


@pytest.mark.parametrize("argv", [
    ["verify", "--group", "G4", "--tau", '{"word":[0],"zeta":"4/1"}', "--k", "0,1,2"],
    ["verify", "--group", "cyclic12", "--k", "0,1"],
])
def test_verify_gates_rewriting_checks_by_order(capsys, argv):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 20
    assert code == 0
    assert not [r for r in json.loads(out)["invariants"] if r["id"].startswith("cherednik.")]


def test_deep_verify_schedules_rewriting_checks(monkeypatch):
    from leafatlas.refgroup import ParameterK, catalog
    from leafatlas.verify import run_suite
    monkeypatch.setattr(Check, "run", lambda self: {"id": self.check_id})
    W = catalog("G4")
    k = ParameterK.from_lists(W, [[0, 1, 2]])
    for deep in (False, True):
        ids = [r["id"] for r in run_suite(W, k=k, deep=deep)]
        assert any(i.startswith("cherednik.") for i in ids) == deep


def test_verify_flag_appends_invariants(capsys):
    code, out, _ = run_cli(capsys, "leaves-zero", "--group", "dihedral3",
                           "--tau", "swap", "--verify")
    assert code == 0
    data = json.loads(out)
    assert all(r["status"] == "pass" for r in data["invariants"])


def test_verify_flag_reuses_the_group_and_twist(capsys, monkeypatch):
    from leafatlas import refgroup
    argv = ["leaves-zero", "--group", "B2", "--tau", "identity"]
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    closures = []
    close_group = refgroup.close_group
    monkeypatch.setattr(refgroup, "close_group",
                        lambda *a, **kw: closures.append(a) or close_group(*a, **kw))
    code, out, _ = run_cli(capsys, *argv, "--verify")
    assert code == 0
    assert len(closures) == 1
    data = json.loads(out)
    suite = json.loads(run_cli(capsys, "verify", "--group", "B2", "--tau", "identity")[1])
    assert data.pop("invariants") == suite["invariants"]
    assert json.dumps(data, sort_keys=True) == json.dumps(json.loads(plain), sort_keys=True)


@pytest.mark.parametrize("group, twist, induced", [
    ("B3", "neg", 0),                   # -1 lies in B3: the adjusted twist is 1 and W_tau = W
    ("G(4,2,3)", '{"zeta":"4/1"}', 1),  # zeta_4 does not, and |N| = 64, |Z| = 2
])
def test_non_full_twist_builds_one_induced_group(capsys, monkeypatch, group, twist, induced):
    # the twist is not full: the context of tau is read only for its
    # fullness, and the setwise stabilizer of V^tau and W_tau are built once,
    # for the adjusted twist, by the twisted-stabilizer filter and not by a scan
    from leafatlas import refgroup, tau
    calls = {"quotient": 0, "induced": 0, "setwise": 0}

    def counted(name, fn):
        def wrapper(*a, **kw):
            calls[name] += 1
            return fn(*a, **kw)
        return wrapper
    monkeypatch.setattr(tau.TauContext, "_build_quotient",
                        counted("quotient", tau.TauContext._build_quotient))
    monkeypatch.setattr(tau, "ReflectionGroup", counted("induced", tau.ReflectionGroup))
    RG = refgroup.ReflectionGroup
    monkeypatch.setattr(RG, "setwise_stabilizer_keys",
                        counted("setwise", RG.setwise_stabilizer_keys))
    code, out, _ = run_cli(capsys, "leaves-zero", "--group", group, "--tau", twist)
    assert code == 0 and json.loads(out)["tau_full_adjusted"]
    assert calls == {"quotient": 1, "induced": induced, "setwise": 0}


def test_readme_cli_lines_run_as_a_shell_reads_them(capsys):
    # a shell ends a command at an unquoted ;, | or &, so each line of the
    # README's CLI block must have none, and must then run with exit code 0
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = readme.split("\n## CLI\n", 1)[1].split("```\n")[1].splitlines()
    assert len(lines) == 14
    for line in lines:
        lex = shlex.shlex(line, posix=True, punctuation_chars=";|&")
        lex.whitespace_split = True
        words = list(lex)
        assert not [w for w in words if not w.strip(";|&")], line
        assert words[0] == "leafatlas"
        assert run_cli(capsys, *words[1:])[0] == 0, line
