"""Command-line front end: classification sweeps, table diffs, decompositions,
and the numerical verification batteries on matrix Lie groups.

Exit codes: 0 success / all comparisons match, 1 verification failure,
2 bad input (one `error:` line on stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys

import numpy as np

from . import conncalc, siiclass
from .chars import EXPRESSIONS, UsageError, decompose, expression_character, irrep_character
from .rootsys import RootSystem, SimpleType
from .siiclass import Budget, RangeError

USAGE_ERROR = 2
VERIFY_ERROR = 1


# ---------------------------------------------------------------------------
# Verification batteries
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""
    expected_to_fail: bool = False

    def __post_init__(self):
        self.passed = bool(self.passed)

    @property
    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        if not self.passed and self.expected_to_fail:
            mark = "FAIL (known upstream data error)"
        detail = f"  [{self.detail}]" if self.detail else ""
        return f"{mark}  {self.name}{detail}"


def _fmt(x: float) -> str:
    return f"{x:.3e}"


def un_battery(n: int, tol: float = 1e-9, seed: int = 42) -> list[Check]:
    """The u(n) bi-invariant connection battery (n >= 3).

    Includes three comparisons against externally published reference
    values for the vectorial-type Ricci tensor that are inconsistent with
    the direct curvature computation; those checks are reported honestly
    as failing (see the README for the exact computed formula, confirmed
    by two independent code paths below).
    """
    if n < 3:
        raise RangeError("the u(n) battery requires n >= 3")
    alg = conncalc.build_algebra("u", n)
    maps = conncalc.laquer_basis(alg)
    w = maps["mu4"] - maps["mu5"]
    checks: list[Check] = []

    worst = max(conncalc.equivariance_defect(alg, maps[k]) for k in
                ("mu1", "mu2", "mu3", "mu4", "mu5", "mu6"))
    checks.append(Check("mu1..mu6 equivariant", worst < tol, _fmt(worst)))

    ok_w, dw = conncalc.is_metric(alg, w, tol)
    ok_nu, dnu = conncalc.is_metric(alg, maps["nu"], tol)
    ok_th, dth = conncalc.is_metric(alg, maps["theta"], tol)
    checks.append(Check("mu4 - mu5 metric", ok_w, _fmt(dw)))
    checks.append(Check("nu = mu3 - mu4 not metric", not ok_nu, _fmt(dnu)))
    checks.append(Check("theta = mu3 + mu4 not metric", not ok_th, _fmt(dth)))

    # Metric compatibility equals skewness of every Lambda(X): compare the
    # defect against the derivative of the metric tensor.
    agree = all((conncalc.metric_defect(alg, maps[k]) < tol)
                == (conncalc.parallel_metric_defect(alg, maps[k]) < tol)
                for k in ("mu1", "mu2", "mu3", "mu4", "mu5", "mu6", "nu", "theta"))
    checks.append(Check("metricity == Lambda-skewness == parallel metric", agree))

    t = conncalc.torsion(alg, w)
    terr = (t - (-maps["nu"] - alg.bracket)).max_abs()
    checks.append(Check("torsion of mu4 - mu5 is -nu - [.,.]", terr < tol, _fmt(terr)))

    mv = conncalc.vectorial_metric_map(alg, maps)
    dec = conncalc.classify_type(conncalc.a_tensor(alg, mv), tol)
    phi_expected = np.array([float(np.real(-1j * np.trace(b))) for b in alg.basis])
    phi_err = float(np.abs(dec.phi - phi_expected).max())
    checks.append(Check("vectorial member: difference tensor pure trace type",
                        dec.a2_norm < tol and dec.a3_norm < tol,
                        f"a2={_fmt(dec.a2_norm)} a3={_fmt(dec.a3_norm)}"))
    checks.append(Check("vectorial member: phi(Z) = -i tr Z", phi_err < tol, _fmt(phi_err)))

    cond = conncalc.torsion_type_conditions(alg, mv, tol)
    checks.append(Check("vectorial member: trace-type condition holds, trace vector nonzero",
                        cond.vectorial and not cond.traceless,
                        f"|trace vec|={_fmt(cond.trace_vector_norm)}"))
    trace_vec = conncalc.trace_vector(mv)
    expect_trace = (n * n - 1) * alg.coeffs(1j * np.eye(n))
    terr2 = float(np.abs(trace_vec - expect_trace).max())
    checks.append(Check("vectorial member: sum_i mu(e_i, e_i) = i (n^2 - 1) Id",
                        terr2 < tol, _fmt(terr2)))

    cond_a = conncalc.torsion_type_conditions(alg, conncalc.bracket_family_map(alg, 1.5), tol)
    checks.append(Check("bracket family: skew and traceless",
                        cond_a.skew and cond_a.traceless))

    ric_g = conncalc.ricci_matrix(alg, conncalc.levi_civita_map(alg))
    cal = float(np.abs(ric_g + 0.25 * alg.killing).max())
    checks.append(Check("calibration Ric(LC) = -B/4", cal < tol, _fmt(cal)))

    xi = alg.coeffs(1j * np.eye(n))
    ric_vec = conncalc.ricci_matrix(alg, mv)
    two_path = float(np.abs(ric_vec - conncalc.vectorial_ricci(alg, xi, ric_g)).max())
    checks.append(Check("two-path Ricci agreement (direct curvature vs trace-type formula)",
                        two_path < tol, _fmt(two_path)))

    printed = _printed_un_ricci(alg, n)
    err_printed = float(np.abs(ric_vec - printed).max())
    checks.append(Check("Ricci equals the published u(n) closed form",
                        err_printed < tol, _fmt(err_printed), expected_to_fail=True))
    if n == 4:
        beta = _beta_form(alg)
        err_beta = float(np.abs(ric_vec + 1.5 * beta).max())
        checks.append(Check("n=4: Ricci equals -(3/2) trX trY",
                            err_beta < tol, _fmt(err_beta), expected_to_fail=True))
    if n == 3:
        x = np.random.default_rng(seed).standard_normal((1000, alg.dim))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        low = float(np.einsum("ki,ij,kj->k", x, ric_vec, x).min())
        checks.append(Check("n=3: Ricci positive on 1000 random directions",
                            low > 0, f"min={low:.3f}", expected_to_fail=True))

    defect_w = conncalc.derivation_defect(alg, w)
    checks.append(Check("mu4 - mu5 is not a derivation", defect_w > tol, _fmt(defect_w)))
    return checks


def _printed_un_ricci(alg: conncalc.MatrixAlgebra, n: int) -> np.ndarray:
    """The published form (1/2){(n-4) tr XY + (5-2n) tr X tr Y} over the basis."""
    tr_xy = np.real(np.einsum("iab,jba->ij", alg.basis, alg.basis))
    return 0.5 * ((n - 4) * tr_xy + (5 - 2 * n) * _beta_form(alg))


def _beta_form(alg: conncalc.MatrixAlgebra) -> np.ndarray:
    tr = np.array([complex(np.trace(b)) for b in alg.basis])
    return np.real(np.outer(tr, tr))


def einstein_battery(name: str, n: int, alphas, tol: float = 1e-9) -> list[Check]:
    """Einstein property of the bracket family over a list of parameters.

    Simple algebras must be Einstein for every alpha; on u(n) the family is
    Einstein only for the flat members alpha = +-1, and the center direction
    is the obstruction otherwise.
    """
    alg = conncalc.build_algebra(name, n)
    simple = name in ("su", "so")
    checks: list[Check] = []
    for alpha in alphas:
        mu = conncalc.bracket_family_map(alg, alpha)
        rep = conncalc.einstein_check(alg, mu, tol)
        dt = conncalc.parallel_defect(alg, mu, conncalc.torsion(alg, mu))
        checks.append(Check(f"alpha={alpha:g}: parallel torsion", dt < tol, _fmt(dt)))
        if alpha in (1.0, -1.0):
            flat = conncalc.flatness_defect(alg, mu)
            checks.append(Check(f"alpha={alpha:g}: flat connection", flat < 1e-10, _fmt(flat)))
        if simple:
            checks.append(Check(f"alpha={alpha:g}: Einstein", rep.is_einstein,
                                f"residual={_fmt(rep.residual)}"))
        elif alpha in (1.0, -1.0):
            checks.append(Check(f"alpha={alpha:g}: Einstein (flat)", rep.is_einstein,
                                f"residual={_fmt(rep.residual)}"))
        else:
            center = alg.coeffs(1j * np.eye(n) / np.sqrt(n))
            # Adding 0.0 turns the -0.0 that rounding noise can leave into 0.0.
            center_val = round(float(center @ rep.ric_sym @ center), 3) + 0.0
            checks.append(Check(
                f"alpha={alpha:g}: not Einstein (center direction is Ricci-flat: "
                f"{center_val:.3f} vs Einstein constant {rep.einstein_constant:.3f})",
                not rep.is_einstein, f"residual={_fmt(rep.residual)}"))
    return checks


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one `UsageError`, which `main`
    prints as one `error:` line, without the usage block."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _parse_budget(text: str) -> Budget:
    if text == "unlimited":
        return Budget.unlimited()
    m = re.fullmatch(r"(\d+),(\d+)", text)
    if not m:
        raise argparse.ArgumentTypeError("budget must be 'W,S' or 'unlimited'")
    if int(m.group(1)) <= 0 or int(m.group(2)) <= 0:
        raise argparse.ArgumentTypeError("budget values must be positive")
    return Budget(max_weyl_order=int(m.group(1)), max_support=int(m.group(2)))


def _parse_tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _parse_jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return jobs


def _parse_weight(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad weight {text!r}") from exc


def _parse_system(text: str) -> RootSystem:
    factors = []
    for part in text.split("x"):
        m = re.fullmatch(r"([A-Ga-g])(\d+)", part.strip())
        if not m:
            raise UsageError(f"bad root-system factor {part!r}; expected e.g. A2 or G2")
        factors.append(SimpleType(m.group(1).upper(), int(m.group(2))))
    return RootSystem(factors)


def _parse_alphas(text: str) -> list[float]:
    try:
        alphas = [float(a) for a in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"--alphas must be a comma-separated list of numbers, got {text!r}") from exc
    if not all(math.isfinite(a) for a in alphas):
        raise UsageError(f"--alphas must be finite numbers, got {text!r}")
    return alphas


def _parse_algebra(text: str) -> tuple[str, int]:
    m = re.fullmatch(r"(su|so|u)\(?(\d+)\)?", text.strip().lower())
    if not m:
        raise UsageError(f"bad algebra {text!r}; expected e.g. su3, so5, u3")
    return m.group(1), int(m.group(2))


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _common_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # Shared flags are accepted both before and after the subcommand; the
    # subcommand copies use SUPPRESS defaults so they never clobber values
    # given at the top level.
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    parser.add_argument("--format", choices=["json", "md", "csv"], default=d("md"))
    parser.add_argument("--tolerance", type=_parse_tolerance, default=d(1e-9))
    parser.add_argument("--seed", type=int, default=d(42))
    parser.add_argument("--budget", type=_parse_budget, default=d(Budget()))
    parser.add_argument("--strict", action="store_true",
                        default=d(False), help="treat skipped rows as failures")
    parser.add_argument("--catalog", default=d(None), help="external catalog file")
    parser.add_argument("--output", default=d(None), help="write the report to a file")
    parser.add_argument("--jobs", type=_parse_jobs, default=d(1),
                        help="worker processes for catalog sweeps")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: `parse_args`
    reads it without changing it and returns a new namespace each call."""
    p = _Parser(prog="invconn",
                description="Invariant-connection multiplicities and numerical connection checks")
    _common_flags(p, suppress=False)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        sp = sub.add_parser(name, **kw)
        _common_flags(sp, suppress=True)
        return sp

    c = add("classify", help="classify one catalog row or family instance")
    c.add_argument("selector")
    c.add_argument("--p", type=int)
    c.add_argument("--q", type=int)
    c.add_argument("--n", type=int)

    t = add("table", help="recompute the catalog and diff against the "
                          "published multiplicities")
    t.add_argument("--only", choices=["table4", "table5", "classical", "exceptions"])

    d = add("decompose", help="decompose a plethysm of an irreducible")
    d.add_argument("system", help="root system, e.g. A3 or A1xA2")
    d.add_argument("expression", choices=list(EXPRESSIONS))
    d.add_argument("--hw", required=True, type=_parse_weight)
    d.add_argument("--hw2", type=_parse_weight, default=None)

    v = add("verify-un", help="run the u(n) bi-invariant battery")
    v.add_argument("n", type=int)

    e = add("einstein", help="Einstein checks for the bracket family")
    e.add_argument("algebra")
    e.add_argument("--alphas", default="0.5,1,2")

    add("catalog-dump", help="print the active catalog")
    return p


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    sel = args.selector
    params = {k: v for k, v in (("p", args.p), ("q", args.q), ("n", args.n)) if v is not None}
    if params:
        entry = siiclass.family(sel, **params)
    else:
        entry = siiclass.get_row(sel, args.catalog)
    rep = siiclass.classify(entry, budget=args.budget)
    _emit(siiclass.emit_tables([(entry, rep)], args.format), args.output)
    if rep.status.startswith("skipped"):
        return VERIFY_ERROR if args.strict else 0
    if rep.matched_expected is False:
        return VERIFY_ERROR
    return 0


def cmd_table(args) -> int:
    entries = siiclass.load_catalog(args.catalog)
    if args.only in ("table4", "classical"):
        entries = [e for e in entries if e.source == "table4"]
    elif args.only in ("table5", "exceptions"):
        entries = [e for e in entries if e.source == "table5"]
    pairs = siiclass.classify_catalog(entries, budget=args.budget, jobs=args.jobs)
    _emit(siiclass.emit_tables(pairs, args.format), args.output)
    bad = any(rep.matched_expected is False for _, rep in pairs)
    skipped = any(rep.status.startswith("skipped") for _, rep in pairs)
    if bad or (args.strict and skipped):
        return VERIFY_ERROR
    return 0


def cmd_decompose(args) -> int:
    rs = _parse_system(args.system)
    chi = irrep_character(rs, args.hw)
    other = irrep_character(rs, args.hw2) if args.hw2 else None
    result = expression_character(args.expression, chi, other)
    terms = decompose(result)
    lines = []
    total = 0
    for lam, m in terms:
        dim = rs.weyl_dimension(lam)
        total += m * dim
        lines.append(f"{m} x R{lam}  (dim {dim})")
    lines.append(f"total dimension {total}")
    if args.expression == "plethysm21":
        lines.append(f"trivial multiplicity {dict(terms).get((0,) * rs.rank, 0)}")
    _emit("\n".join(lines), args.output)
    if total != result.dim():
        print("error: dimension bookkeeping failed", file=sys.stderr)
        return VERIFY_ERROR
    return 0


def _render_checks(title: str, checks: list[Check], fmt: str) -> str:
    if fmt == "json":
        return json.dumps({
            "battery": title,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail,
                        "known_upstream_issue": c.expected_to_fail} for c in checks],
            "passed": sum(c.passed for c in checks),
            "failed": sum(not c.passed for c in checks),
        }, indent=2, sort_keys=True)
    lines = [title]
    for c in checks:
        lines.append("  " + c.line)
    lines.append(f"{sum(c.passed for c in checks)} passed, "
                 f"{sum(not c.passed for c in checks)} failed")
    return "\n".join(lines)


def cmd_verify_un(args) -> int:
    checks = un_battery(args.n, tol=args.tolerance, seed=args.seed)
    _emit(_render_checks(f"u({args.n}) bi-invariant battery", checks, args.format), args.output)
    return 0 if all(c.passed for c in checks) else VERIFY_ERROR


def cmd_einstein(args) -> int:
    name, n = _parse_algebra(args.algebra)
    alphas = _parse_alphas(args.alphas)
    checks = einstein_battery(name, n, alphas, tol=args.tolerance)
    _emit(_render_checks(f"{name}({n}) bracket-family Einstein battery", checks, args.format),
          args.output)
    return 0 if all(c.passed for c in checks) else VERIFY_ERROR


def cmd_catalog_dump(args) -> int:
    entries = siiclass.load_catalog(args.catalog)
    if args.format == "json":
        rows = []
        for e in entries:
            rows.append({
                "id": e.id,
                "ambient": {"series": e.ambient.series, "n": e.ambient.n},
                "factors": [[f.series, f.rank] for f in e.factors],
                "constituents": [[list(w) for w in sm] for sm in e.constituents],
                "expected": None if e.expected is None else dataclasses.asdict(e.expected),
                "source": e.source,
            })
        _emit(json.dumps({"rows": rows}, indent=2, sort_keys=True), args.output)
    else:
        lines = [f"{e.id:16s} {siiclass.format_constituents(e):58s} {e.source}" for e in entries]
        _emit("\n".join(lines), args.output)
    return 0


def main(argv=None) -> int:
    handlers = {
        "classify": cmd_classify,
        "table": cmd_table,
        "decompose": cmd_decompose,
        "verify-un": cmd_verify_un,
        "einstein": cmd_einstein,
        "catalog-dump": cmd_catalog_dump,
    }
    # Every library input error and every argument error is a ValueError;
    # KeyError is an unknown row or family and OSError an unreadable catalog
    # or unwritable output.  Engine bugs (InternalError, AssertionError) keep
    # their traceback.  `--help` still prints its usage and exits 0.
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except (ValueError, KeyError, OSError) as exc:
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
