"""Command-line front end: parse group / twist / parameter specs, dispatch
the computations, and emit deterministic machine-readable reports.

Exit codes: 0 ok, 2 bad spec, 3 order cap exceeded, 4 verification failure.
All scalars in reports are exact strings; JSON output is byte-stable across
runs and thread settings.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from functools import cached_property
from math import gcd, lcm

from . import leaves as leaves_mod
from . import linalg as la
from .catalog import (
    CatalogError, dihedral_equal_parameter_record, leaves_B, leaves_D, leaves_D_tau_t, smooth_B,
)
from .exactnum import (
    CycNum, ExactDomainError, FieldCapError, _int, cyc_parse, literal_fields, num_str,
    root_of_unity,
)
from .refgroup import (
    CapExceededError, GroupError, ParameterK, ReflectionGroup, _check_field, _conductor,
    catalog as group_catalog, close_group, dihedral_tau,
)
from .tau import TauContext, TauError, build_tau, is_regular, tau_from_word

DEFAULT_CAP = 10 ** 6

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_CAP = 3
EXIT_VERIFY = 4


class SpecError(Exception):
    pass


# ---------------------------------------------------------------------------
# spec parsing

def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:   # missing, a directory, not UTF-8
        raise SpecError(f"cannot read {path}: {exc}") from exc


def _spec_object(spec: str, error: str) -> dict | None:
    """The object of a JSON spec, inline or @file; None for a spec that is
    not JSON.  `error` is the message for JSON that is not an object."""
    if not (spec.startswith("@") or spec.lstrip().startswith("{")):
        return None
    try:
        data = json.loads(_read_text(spec[1:]) if spec.startswith("@") else spec)
    except ValueError as exc:       # JSONDecodeError, or an integer past the digit limit
        raise SpecError(f"bad JSON spec: {exc}") from exc
    if not isinstance(data, dict):
        raise SpecError(error)
    return data


def _checked(text: str, cap: int) -> str:
    """text, once _check_field passes each Q(z_N) in it, before it is parsed."""
    for n in literal_fields(text):
        _check_field(n, cap)
    return text


def resolve_group(spec: str, cap: int) -> ReflectionGroup:
    if spec is None:
        raise SpecError("missing --group")
    data = _spec_object(spec, "group spec must be an object")
    if data is not None:
        if "name" in data:
            return group_catalog(str(data["name"]), cap)
        if "generators" in data:
            try:
                gens = [la.mat([[cyc_parse(_checked(str(x), cap)) for x in row] for row in mat])
                        for mat in data["generators"]]
            except (TypeError, KeyError) as exc:
                raise SpecError(f"bad generator matrix: {exc}") from exc
            return close_group(gens, cap, name="custom")
        raise SpecError("group spec needs 'name' or 'generators'")
    return group_catalog(spec, cap)


def _zeta_from_str(s: str, cap: int) -> CycNum:
    m = re.fullmatch(r"(\d+)/(\d+)|1", s.strip())
    if not m:
        raise SpecError(f"bad root-of-unity spec {s!r} (want 'N/e')")
    n, e = (_int(d or "1", "root-of-unity spec") for d in m.groups())
    if n:                           # zeta_n^e has order n/gcd(n, e)
        _check_field(n // gcd(n, e), cap)
    return root_of_unity(n, e)


def resolve_tau(W: ReflectionGroup, spec: str, cap: int):
    """Returns (matrix, human label); cap bounds the field of a root of unity."""
    if spec is None or spec == "identity":
        return la.identity(W.dim), "identity"
    if spec == "neg":
        return la.mat([[-1 if i == j else 0 for j in range(W.dim)]
                       for i in range(W.dim)]), "neg"
    if spec == "diag-flip":
        return la.mat([[(-1 if i == 0 else 1) if i == j else 0 for j in range(W.dim)]
                       for i in range(W.dim)]), "diag-flip"
    if spec == "swap":
        m = re.fullmatch(r"dihedral(\d+)", W.name or "")
        if not m:
            raise SpecError("the swap twist is defined for dihedral groups")
        return dihedral_tau(int(m.group(1))), "swap"
    data = _spec_object(spec, "twist spec must be an object")
    if data is not None:
        if "matrix" in data:
            try:
                mat = la.mat([[cyc_parse(_checked(str(x), cap)) for x in row]
                              for row in data["matrix"]])
            except TypeError as exc:
                raise SpecError(f"bad twist matrix: {exc}") from exc
            if len(mat) != W.dim or any(len(row) != W.dim for row in mat):
                raise SpecError(f"twist matrix must be {W.dim}x{W.dim}")
            return mat, "matrix"
        if "word" in data or "zeta" in data:
            zeta = _zeta_from_str(str(data["zeta"]), cap) if "zeta" in data else None
            word = data.get("word", [])
            if not isinstance(word, list) or not all(
                    isinstance(i, int) and not isinstance(i, bool) for i in word):
                raise SpecError("twist word must be a list of generator indices")
            return tau_from_word(W, word, zeta), f"word{word}" + \
                (f"*zeta({data.get('zeta')})" if "zeta" in data else "")
        raise SpecError("twist spec needs 'matrix' or 'word'/'zeta'")
    raise SpecError(f"unknown twist spec {spec!r}")


def resolve_parameter(W: ReflectionGroup, spec: str, cap: int = DEFAULT_CAP) -> ParameterK:
    if spec is None or spec == "zero":
        return ParameterK.zero(W)
    error = "parameter spec needs an 'orbits' list of value lists"
    data = _spec_object(spec, error)
    lists = [chunk.split(",") for chunk in spec.split(";")] if data is None else data.get("orbits")
    if not isinstance(lists, list) or not all(isinstance(lst, list) for lst in lists):
        raise SpecError(error)
    per_orbit = [[cyc_parse(_checked(str(v), cap)) for v in lst] for lst in lists]
    return ParameterK.from_lists(W, per_orbit)


# ---------------------------------------------------------------------------
# serialization

def emit(report: dict, fmt: str, rows_key: str | None = None) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    if fmt == "csv":
        if rows_key is None or rows_key not in report:
            raise SpecError("csv format is only available for table reports")
        rows = report[rows_key]
        if not rows:
            return ""
        cols = list(rows[0].keys())
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cols)
        for row in rows:
            writer.writerow(json.dumps(v, sort_keys=True, separators=(",", ":"))
                            if isinstance(v, (dict, list)) else str(v)
                            for v in (row[c] for c in cols))
        return buf.getvalue()
    if fmt == "text":
        return _text_render(report)
    raise SpecError(f"unknown format {fmt!r}")


def _text_render(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.append(_text_render(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
        return "\n".join(lines)
    if isinstance(obj, list):
        lines = []
        for item in obj:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.append(_text_render(item, indent + 1))
            else:
                lines.append(f"{pad}- {item}")
        return "\n".join(lines)
    return f"{pad}{obj}"


# ---------------------------------------------------------------------------
# commands

class _Job:
    """One run's options; the group and the twist context are built at most once."""

    def __init__(self, args):
        self.args = args

    @cached_property
    def group(self) -> ReflectionGroup:
        return resolve_group(self.args.group, self.args.cap)

    @cached_property
    def tau(self) -> tuple[TauContext, dict]:
        return _tau_context(self.args, self.group)

    def invariants(self) -> list[dict]:
        """The invariant suite on the group, and the twist and parameter if given."""
        from . import verify
        args = self.args
        ctx = self.tau[0] if args.tau is not None else None
        k = resolve_parameter(self.group, args.k, args.cap) if args.k is not None else None
        return verify.run_suite(self.group, ctx, k, deep=args.deep)


def _tau_context(args, W) -> tuple[TauContext, dict]:
    mat, label = resolve_tau(W, args.tau, args.cap)
    # each field passed on its own, but w * tau lies in their lcm
    _check_field(lcm(W.field, _conductor([mat])), args.cap)
    ctx = build_tau(W, mat)
    adjusted = not ctx.is_full
    if adjusted:
        if args.no_make_full:
            raise SpecError("twist is not full (rerun without --no-make-full)")
        ctx = build_tau(W, ctx.full_tau)
    info = {"tau": label, "tau_order": ctx.order, "tau_full_adjusted": adjusted,
            "tau_fixed_dim": len(ctx.v_tau)}
    return ctx, info


def cmd_reflections(job):
    W = job.group
    rows = []
    for H in W.hyperplanes:
        rows.append({
            "alpha": [num_str(x) for x in H.alpha],
            "e": H.e,
            "orbit": H.orbit_id,
        })
    report = {
        "schema": 1, "command": "reflections", "group": W.name or "custom",
        "rule": "reflection-scan",
        "order": W.order, "reflection_count": len(W.reflections),
        "hyperplane_count": len(W.hyperplanes),
        "hyperplane_orbit_count": W.hyperplane_orbit_count,
        "hyperplanes": rows,
    }
    return report, "hyperplanes"


def cmd_parabolics(job):
    W = job.group
    rows = []
    for c in W.parabolic_classes():
        N = W.normalizer(c.representative)
        rows.append({
            "class": c.class_id,
            "fixed_dim": c.fixed_dim,
            "order": c.representative.order,
            "members": len(c.members),
            "normalizer_quotient_order": N.order,
        })
    report = {
        "schema": 1, "command": "parabolics", "group": W.name or "custom",
        "rule": "parabolic-classes",
        "class_count": len(rows), "classes": rows,
    }
    return report, "classes"


def cmd_lehrer_springer(job):
    W = job.group
    ctx, info = job.tau
    from .tau import hyperplane_restriction_matches
    report = {
        "schema": 1, "command": "lehrer-springer", "group": W.name or "custom",
        "rule": "induced-reflection-group",
        **info,
        "regular": is_regular(ctx),
        "induced_order": ctx.w_tau.order,
        "induced_reflections": len(ctx.w_tau.reflections),
        "induced_hyperplanes": len(ctx.w_tau.hyperplanes),
        "reflection_generated": ctx.w_tau.generated_by_reflections(),
        "hyperplanes_match_restrictions": hyperplane_restriction_matches(ctx),
    }
    return report, None


def cmd_tau_split(job):
    W = job.group
    ctx, info = job.tau
    orbits = []
    for oi, orbit in enumerate(ctx.split_orbits()):
        sp = orbit[0]
        orbits.append({
            "orbit": oi,
            "orbit_size": len(orbit),
            "p_order": sp.parabolic.order,
            "p_class": W.class_of(sp.parabolic).class_id,
            "p_tau_order": sp.p_tau.order,
            "tau_rank": sp.tau_rank,
        })
    report = {
        "schema": 1, "command": "tau-split", "group": W.name or "custom",
        "rule": "split-parabolic-table",
        **info,
        "split_count": len(ctx.split_parabolics()),
        "induced_parabolic_count": len(ctx.w_tau.parabolic_subgroups()),
        "orbits": orbits,
    }
    return report, "orbits"


def cmd_leaves_zero(job):
    W = job.group
    ctx, info = job.tau
    report = leaves_mod.leaf_report(ctx, W.name or "custom", info["tau"])
    report["command"] = "leaves-zero"
    report.update(info)
    return report, "leaves"


def cmd_catalog_b(job):
    args = job.args
    if args.n is None:
        raise SpecError("catalog-B needs --n")
    report = {
        "schema": 1, "command": "catalog-B", "rule": "type-B-leaf-table",
        "smoothness_rule": "eq:B-lisse", "n": args.n,
    }
    if args.ratio is not None:
        ratio = cyc_parse(_checked(args.ratio, args.cap))
        report["ratio"] = num_str(ratio)
        report["smooth"] = smooth_B(args.n, ratio)
    m = args.m if args.m is not None else 0
    report["m"] = m
    report["rows"] = [rec.as_row() for rec in leaves_B(args.n, m)]
    return report, "rows"


def cmd_catalog_d(job):
    args = job.args
    if args.n is None:
        raise SpecError("catalog-D needs --n")
    report = {
        "schema": 1, "command": "catalog-D", "rule": "type-D-leaf-table",
        "n": args.n, "rows": [rec.as_row() for rec in leaves_D(args.n)],
        "twist_report": leaves_D_tau_t(args.n),
    }
    return report, "rows"


def cmd_catalog_dihedral(job):
    args = job.args
    if args.d is None:
        raise SpecError("catalog-dihedral needs --d")
    record = dihedral_equal_parameter_record(args.d)
    W = group_catalog(f"dihedral{args.d}", args.cap)
    ctx = build_tau(W, dihedral_tau(args.d))
    atlas = leaves_mod.leaf_report(ctx, W.name, "swap")
    report = {
        "schema": 1, "command": "catalog-dihedral", "rule": record["rule"],
        "d": args.d, "statement": record, "undeformed_twisted_atlas": atlas,
    }
    return report, None


def cmd_cherednik_check(job):
    from .cherednik import rank1_center_relation
    W = job.group if job.args.group else group_catalog("cyclic2", job.args.cap)
    k = resolve_parameter(W, job.args.k, job.args.cap)
    rec = rank1_center_relation(k)
    report = {
        "schema": 1, "command": "cherednik-check", "group": W.name or "custom",
        "rule": "rank1-quadric",
        "gamma": num_str(rec["gamma"]),
        "difference": num_str(rec["difference"]),
        "b": num_str(rec["b"]) if rec["b"] is not None else None,
        "b_over_difference": num_str(rec["b_over_difference"])
        if rec["b_over_difference"] is not None else None,
    }
    return report, None


def cmd_poisson(job):
    from . import cherednik as ch
    args = job.args
    W = job.group
    k = resolve_parameter(W, args.k, args.cap)
    if args.z1 is None or args.z2 is None:
        raise SpecError("poisson needs --z1 and --z2")
    # each literal's fields are checked one by one, but the bracket is
    # rewritten over their lcm: its field contexts refuse Phi_N above the cap
    alg = ch.CherednikAlgebra(W, k, "t0", args.cap)
    t_alg = ch.CherednikAlgebra(W, k, "t", args.cap)
    z1 = ch.parse_element(alg, _checked(args.z1, args.cap))
    z2 = ch.parse_element(alg, _checked(args.z2, args.cap))
    t_alg.check_rewrite_work(z1, z2, args.cap)
    bracket = ch.poisson_bracket(z1, z2, t_alg)
    deg = ch.euler_degree(bracket)
    report = {
        "schema": 1, "command": "poisson", "group": W.name or "custom",
        "rule": "deformation-limit-bracket",
        "z1": ch.format_element(z1), "z2": ch.format_element(z2),
        "bracket": ch.format_element(bracket),
        "euler_degree": deg if deg is not None else "inhomogeneous",
        "filtration_degree": ch.filtration_degree(bracket),
    }
    return report, None


def cmd_verify(job):
    W = job.group
    info = job.tau[1] if job.args.tau is not None else {}
    results = job.invariants()
    failed = [r for r in results if r["status"] != "pass"]
    report = {
        "schema": 1, "command": "verify", "group": W.name or "custom",
        "rule": "invariant-suite",
        **info,
        "pass_count": len(results) - len(failed),
        "fail_count": len(failed),
        "invariants": results,
    }
    return report, "invariants"


COMMANDS = {
    "reflections": cmd_reflections,
    "parabolics": cmd_parabolics,
    "lehrer-springer": cmd_lehrer_springer,
    "tau-split": cmd_tau_split,
    "leaves-zero": cmd_leaves_zero,
    "catalog-B": cmd_catalog_b,
    "catalog-D": cmd_catalog_d,
    "catalog-dihedral": cmd_catalog_dihedral,
    "cherednik-check": cmd_cherednik_check,
    "poisson": cmd_poisson,
    "verify": cmd_verify,
}


# ---------------------------------------------------------------------------
# option resolution

def _read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, line in enumerate(_read_text(path).split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SpecError(f"bad config line {lineno}: {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


class _Parser(argparse.ArgumentParser):
    """An option error is a SpecError, reported by `run` in one line."""

    def error(self, message):
        raise SpecError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="leafatlas",
        description="exact leaf combinatorics for twisted reflection quotients")
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("--group", help="catalog name, inline JSON, or @file.json")
    p.add_argument("--tau", help="identity | neg | swap | diag-flip | JSON | @file")
    p.add_argument("--k", help="zero | per-orbit lists '0,1;2,0' | @file.json; "
                   "at most e values per orbit, short lists padded with zeros")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--ratio", help="exact scalar for the smoothness window")
    p.add_argument("--z1", help="element literal for the poisson command")
    p.add_argument("--z2", help="element literal for the poisson command")
    p.add_argument("--format", choices=["json", "csv", "text"], default=None)
    p.add_argument("--output")
    p.add_argument("--threads", type=int, default=None,
                   help="accepted for compatibility; has no effect")
    p.add_argument("--config", help="key = value file; flags take precedence")
    p.add_argument("--cap", type=int, default=None, help="group order cap")
    p.add_argument("--verify", action="store_true",
                   help="run the invariant suite after the computation")
    p.add_argument("--deep", action="store_true",
                   help="lift the desk-scale gates in the invariant suite")
    p.add_argument("--no-make-full", action="store_true",
                   help="fail instead of adjusting a non-full twist")
    return p


_CONFIG_KEYS = ("group", "tau", "k", "format", "output", "ratio", "z1", "z2")
_CONFIG_INT_KEYS = ("n", "m", "d", "threads", "cap")


def resolve_args(argv) -> argparse.Namespace:
    args = build_parser().parse_args(argv)
    if args.config:
        conf = _read_config(args.config)
        for key in _CONFIG_KEYS:
            if getattr(args, key) is None and key in conf:
                setattr(args, key, conf[key])
        for key in _CONFIG_INT_KEYS:
            if getattr(args, key) is None and key in conf:
                try:
                    setattr(args, key, int(conf[key]))
                except ValueError as exc:
                    raise SpecError(f"config key {key} must be an integer") from exc
    if args.format is None:
        args.format = "json"
    if args.threads is not None and args.threads < 1:
        raise SpecError("--threads must be at least 1")
    if args.cap is None:
        env_cap = os.environ.get("LEAFATLAS_CAP")
        try:
            args.cap = int(env_cap) if env_cap else DEFAULT_CAP
        except ValueError as exc:
            raise SpecError("LEAFATLAS_CAP must be an integer") from exc
    if args.cap < 1:
        raise SpecError("the order cap must be at least 1")
    if args.verify and args.group is None:
        raise SpecError("--verify needs --group")
    return args


def _spec_errors() -> tuple:
    """Errors meaning a bad spec; a CherednikError needs its module loaded first."""
    errors = (SpecError, GroupError, TauError, CatalogError, ExactDomainError)
    cherednik = sys.modules.get(f"{__package__}.cherednik")
    return errors + (cherednik.CherednikError,) if cherednik else errors


def run(argv) -> int:
    try:
        args = resolve_args(argv)
        job = _Job(args)
        report, rows_key = COMMANDS[args.command](job)
        exit_code = EXIT_OK
        if args.verify and args.command != "verify":
            results = job.invariants()
            report["invariants"] = results
            if any(r["status"] != "pass" for r in results):
                exit_code = EXIT_VERIFY
        if args.command == "verify" and report.get("fail_count", 0) > 0:
            exit_code = EXIT_VERIFY
        text = emit(report, args.format, rows_key)
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(text)
            except OSError as exc:
                raise SpecError(f"cannot write {args.output}: {exc.strerror}") from exc
        else:
            sys.stdout.write(text)
        return exit_code
    except (CapExceededError, FieldCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except _spec_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
