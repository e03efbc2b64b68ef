"""Reference values the benchmark checks the program against.

Nothing here imports `invconn`.  Dimensions come from the Weyl dimension
formula over positive roots generated from a Dynkin diagram written out
below (Bourbaki numbering, the same labels `invconn` uses); Weyl group
orders come from the closed formulas; catalog values come from the
published tables copied into `data/catalog_rows.json`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache
from math import comb, factorial

# Squared lengths of the simple roots (long roots have length^2 = 2) and the
# edges of the Dynkin diagram, 0-based.  Along an edge the longer root a_j
# has <a_i, a_j^vee> = -1, so (a_i, a_j) = -max(|a_i|^2, |a_j|^2) / 2.
def _diagram(series: str, n: int) -> tuple[list[Fraction], list[tuple[int, int]]]:
    two, one = Fraction(2), Fraction(1)
    chain = [(i, i + 1) for i in range(n - 1)]
    if series == "A":
        return [two] * n, chain
    if series == "B":
        return [two] * (n - 1) + [one], chain
    if series == "C":
        return [one] * (n - 1) + [two], chain
    if series == "D":
        return [two] * n, [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    if series == "E":
        return [two] * n, [(0, 2), (1, 3), (2, 3)] + [(i, i + 1) for i in range(3, n - 1)]
    if series == "F":
        return [two, two, one, one], chain
    if series == "G":
        return [Fraction(2, 3), two], chain
    raise ValueError(f"unknown series {series!r}")


@cache
def _positive_roots(series: str, n: int) -> tuple[list[tuple[int, ...]], list[list[Fraction]]]:
    """Positive roots in simple-root coordinates, by alpha_i-strings."""
    lengths, edges = _diagram(series, n)
    gram = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = lengths[i]
    for i, j in edges:
        gram[i][j] = gram[j][i] = -max(lengths[i], lengths[j]) / 2
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots = set(simple)
    layer = list(simple)
    while layer:
        nxt = []
        for beta in layer:
            for i in range(n):
                # <beta, alpha_i^vee> = 2 (beta, alpha_i) / (alpha_i, alpha_i)
                pair = 2 * sum(beta[j] * gram[j][i] for j in range(n)) / gram[i][i]
                p = 0
                down = list(beta)
                while True:
                    down[i] -= 1
                    if tuple(down) not in roots:
                        break
                    p += 1
                if p - pair > 0:
                    up = list(beta)
                    up[i] += 1
                    up = tuple(up)
                    if up not in roots:
                        roots.add(up)
                        nxt.append(up)
        layer = nxt
    return sorted(roots), gram


def parse_system(text: str) -> list[tuple[str, int]]:
    """'A1xA2' -> [('A', 1), ('A', 2)]."""
    return [(part[0].upper(), int(part[1:])) for part in text.split("x")]


def weyl_dimension(factors: list[tuple[str, int]], hw) -> int:
    """dim L(hw) = prod over positive roots of (hw + rho, a) / (rho, a)."""
    dim = Fraction(1)
    off = 0
    for series, n in factors:
        labels = hw[off:off + n]
        off += n
        roots, gram = _positive_roots(series, n)
        half = [gram[i][i] / 2 for i in range(n)]
        for c in roots:
            num = sum(c[i] * half[i] * (labels[i] + 1) for i in range(n))
            den = sum(c[i] * half[i] for i in range(n))
            dim *= num / den
    if off != len(hw) or dim.denominator != 1:
        raise ValueError(f"bad weight {hw} for {factors}")
    return int(dim)


def weyl_order(factors: list[tuple[str, int]]) -> int:
    order = 1
    for series, n in factors:
        order *= {
            "A": lambda: factorial(n + 1),
            "B": lambda: 2**n * factorial(n),
            "C": lambda: 2**n * factorial(n),
            "D": lambda: 2 ** (n - 1) * factorial(n),
            "E": lambda: {6: 51_840, 7: 2_903_040, 8: 696_729_600}[n],
            "F": lambda: 1152,
            "G": lambda: 12,
        }[series]()
    return order


def expression_dim(expr: str, d: int) -> int:
    """Dimension of a plethysm of a d-dimensional module."""
    return {
        "tensor": d * d,
        "alt2": comb(d, 2),
        "sym2": comb(d + 1, 2),
        "alt3": comb(d, 3),
        "sym3": comb(d + 2, 3),
        "plethysm21": d * (d * d - 1) // 3,
    }[expr]


# ---------------------------------------------------------------------------
# Per-workload checks.  Each returns a list of failure messages; an empty
# list means the output is correct.
# ---------------------------------------------------------------------------

# The published SO8/Sp2xSp1 counts (1, 0, 1, 1) are a known error in the
# source table; the verified values are all zero (README, Verification status).
CATALOG_PINNED = {"SO8/Sp2xSp1": (0, 0, 0, 0)}
TYPE_NAMES = {"r": "real", "c": "complex"}


def _counts_failures(label: str, computed: dict | None, a: int, s: int, N: int, l: int,
                     rep_type: str) -> list[str]:
    if computed is None:
        return [f"{label}: no computed values"]
    got = (computed["a"], computed["s"], computed["N"], computed["l"],
           computed["epsilon"], computed["type"])
    want = (a, s, N, l, a - l, TYPE_NAMES[rep_type])
    return [] if got == want else [f"{label}: computed {got} != reference {want}"]


def check_table(rows: list[dict], stdout: str, exit_code: int, max_weyl: int) -> list[str]:
    """`invconn table --format json` over `rows` against the published values."""
    try:
        report = {r["id"]: r for r in json.loads(stdout)["rows"]}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"table: unreadable output ({exc})"]
    fails = []
    if len(report) != len(rows) or set(report) != {r["id"] for r in rows}:
        fails.append(f"table: {len(report)} rows reported for {len(rows)} given")
    mismatches = 0
    for row in rows:
        got = report.get(row["id"])
        if got is None:
            continue
        over_cap = weyl_order([(s, r) for s, r in row["factors"]]) > max_weyl
        if over_cap:
            if not got["status"].startswith("skipped") or got["computed"] is not None:
                fails.append(f"{row['id']}: over the Weyl cap but status {got['status']!r}")
            continue
        e = row["expected"]
        a, s, N, l = CATALOG_PINNED.get(row["id"], (e["a"], e["s"], e["N"], e["l"]))
        mismatches += (a, s, N, l) != (e["a"], e["s"], e["N"], e["l"])
        fails += _counts_failures(row["id"], got["computed"], a, s, N, l, e["type"])
    # The pinned rows differ from the published values, so the run must
    # report a verification failure (exit code 1) exactly when one was given.
    if exit_code != (1 if mismatches else 0):
        fails.append(f"table: exit code {exit_code}")
    return fails


def check_family(member: dict, stdout: str, exit_code: int) -> list[str]:
    """`invconn classify <family> --p/--q/--n` against the family's published values."""
    label = f"{member['family']}{member['params']}"
    try:
        (got,) = json.loads(stdout)["rows"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{label}: unreadable output ({exc})"]
    a, s, N, l, rep_type = member["expected"]
    fails = _counts_failures(label, got["computed"], a, s, N, l, rep_type)
    if exit_code != 0:
        fails.append(f"{label}: exit code {exit_code}")
    return fails


def check_decompose(item: dict, stdout: str, exit_code: int) -> list[str]:
    """`invconn decompose` output: the constituent dimensions must add up to
    the binomial dimension of the plethysm."""
    label = f"decompose {item['system']} {item['expr']} {item['hw']}"
    factors = parse_system(item["system"])
    total = 0
    try:
        for line in stdout.splitlines():
            if " x R(" not in line:
                continue
            mult, rest = line.split(" x R(", 1)
            lam = tuple(int(x) for x in rest.split(")", 1)[0].split(",") if x.strip())
            if min(lam) < 0 or int(mult) <= 0:
                return [f"{label}: bad term {line!r}"]
            total += int(mult) * weyl_dimension(factors, lam)
    except ValueError as exc:
        return [f"{label}: unreadable output ({exc})"]
    want = expression_dim(item["expr"], weyl_dimension(factors, item["hw"]))
    fails = [] if total == want else [f"{label}: constituents add up to {total}, not {want}"]
    if exit_code != 0:
        fails.append(f"{label}: exit code {exit_code}")
    return fails


def check_square(item: dict, result: dict) -> list[str]:
    """Large square: dimensions of chi(x)chi, alt2, sym2 and alt2 + sym2 == chi(x)chi
    weight by weight.  `result` maps each name to {weight tuple: multiplicity}."""
    label = f"square {item['system']} {item['hw']}"
    d = weyl_dimension(parse_system(item["system"]), item["hw"])
    fails = []
    for name in ("tensor", "alt2", "sym2"):
        got = sum(result[name].values())
        if got != expression_dim(name, d):
            fails.append(f"{label}: dim {name} = {got}, not {expression_dim(name, d)}")
    alt2, sym2, sq = result["alt2"], result["sym2"], result["tensor"]
    bad = [w for w in set(alt2) | set(sym2) | set(sq)
           if alt2.get(w, 0) + sym2.get(w, 0) != sq.get(w, 0)]
    if bad:
        fails.append(f"{label}: alt2 + sym2 != tensor at {len(bad)} weights, e.g. {sorted(bad)[0]}")
    return fails


# Lines of the u(n) battery that compare against the published closed form
# for the vectorial Ricci tensor.  That form is wrong (README, Verification
# status), so these lines must fail; every other line must pass.
UN_PUBLISHED_LINES = {
    "Ricci equals the published u(n) closed form": None,
    "n=4: Ricci equals -(3/2) trX trY": 4,
    "n=3: Ricci positive on 1000 random directions": 3,
}
UN_LINES_AT_EVERY_N = 15


def check_battery(item: dict, stdout: str, exit_code: int) -> list[str]:
    label = " ".join(item["argv"][:2])
    try:
        checks = json.loads(stdout)["checks"]
        names = [c["name"] for c in checks]
        passed = {c["name"]: c["passed"] is True for c in checks}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{label}: unreadable output ({exc})"]
    if item["kind"] == "verify-un":
        n = item["n"]
        must_fail = {name for name, only in UN_PUBLISHED_LINES.items() if only in (None, n)}
        want_count = UN_LINES_AT_EVERY_N + sum(only == n for only in UN_PUBLISHED_LINES.values())
        want_exit = 1
    else:
        must_fail = set()
        want_count = sum(3 if a in (1.0, -1.0) else 2 for a in item["alphas"])
        want_exit = 0
    fails = []
    if len(names) != want_count or len(set(names)) != len(names):
        fails.append(f"{label}: {len(names)} checks, expected {want_count}")
    for name in must_fail - set(names):
        fails.append(f"{label}: missing line {name!r}")
    for name, ok in passed.items():
        if ok == (name in must_fail):
            fails.append(f"{label}: line {name!r} {'passed' if ok else 'failed'}")
    if exit_code != want_exit:
        fails.append(f"{label}: exit code {exit_code}")
    return fails
