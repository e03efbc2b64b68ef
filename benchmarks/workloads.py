"""Seeded inputs for the benchmark's three workloads.

`generate(workload, seed)` returns a list of JSON-serialisable items; the
same seed always gives byte-identical items (`serialize`).  Nothing here
imports `invconn`: the program receives only these inputs.

Draws are balanced by reference cost.  Each pool entry carries `cost`, the
seconds that item took with invconn 0.1.0 on a 2-core x86-64 machine (for
the plethysm pool: the faster of two timings inside worker processes).
`_fill` draws entries until their reference costs add up to a target, so
every seed asks for about the same amount of work and the spread between
seeds stays small.  The costs size the draws only; nothing is checked
against them.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
WORKLOADS = ("catalog", "plethysm", "batteries")

# Weyl-order cap of the catalog sweep.  It keeps E8/F4xG2 (|W| = 13824,
# about 12 s) and skips the ten rows whose orbit sums cost a minute or more.
MAX_WEYL = 20_000
BUDGET = f"{MAX_WEYL},50000"

# Published (a, s, N, l, type) of each parameterised family, and members with
# |W(K)| <= 1000 and their reference costs.  SO_4n starts at n = 3: the
# published values are wrong at n = 2, which the catalog row SO8/Sp2xSp1
# already covers.
FAMILIES = {
    "SU_alt2": ((1, 2, 3, 1, "r"), [({"n": 6}, 0.52)]),
    "SU_sym2": ((1, 2, 3, 1, "r"), [({"n": 4}, 0.015), ({"n": 5}, 0.08), ({"n": 6}, 0.97)]),
    "SU_pq": ((2, 2, 4, 2, "r"), [({"p": 3, "q": 3}, 0.016), ({"p": 3, "q": 4}, 0.089),
                                  ({"p": 3, "q": 5}, 0.64), ({"p": 4, "q": 4}, 0.6)]),
    "SU_2q": ((1, 1, 2, 1, "r"), [({"q": 4}, 0.015), ({"q": 5}, 0.095)]),
    "SO_ad": ((6, 2, 8, 4, "c"), [({"n": 4}, 0.014), ({"n": 5}, 0.105), ({"n": 6}, 1.03)]),
    "SO_alt2": ((3, 1, 4, 2, "r"), [({"n": 9}, 0.54)]),
    "SO_sym2": ((3, 1, 4, 2, "r"), [({"n": 7}, 0.065), ({"n": 8}, 0.33), ({"n": 9}, 0.83)]),
    "SO_spalt": ((3, 1, 4, 2, "r"), [({"n": 4}, 0.3)]),
    "SO_spsym": ((3, 1, 4, 2, "r"), [({"n": 3}, 0.035), ({"n": 4}, 0.5)]),
    "SO_4n": ((1, 0, 1, 1, "r"), [({"n": 3}, 0.024), ({"n": 4}, 0.34)]),
    "Sp_n": ((1, 0, 1, 1, "r"), [({"n": 6}, 0.024), ({"n": 7}, 0.053), ({"n": 8}, 0.23),
                                 ({"n": 9}, 0.54)]),
}
FAMILY_TARGET = 2.0

# The u(n) battery for n = 3..8; verify-un 8 alone is most of the workload,
# and n = 9, 10 do not fit in a run yet.
UN_SIZES = range(3, 9)
EINSTEIN = [("su3", 0.007), ("su4", 0.036), ("su5", 0.18), ("so5", 0.011), ("so6", 0.035),
            ("so7", 0.14), ("u3", 0.009), ("u4", 0.044), ("u5", 0.27)]
ALPHAS = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
EINSTEIN_TARGET = 1.5

DECOMPOSE_TARGET = 5.0
SQUARES_TARGET = 5.0


def _fill(draw, target: float) -> list[dict]:
    """Draw items until their reference costs reach `target`; an item that
    would overshoot is put back, and drawing stops after 100 misses in a row."""
    items, left, misses = [], target, 0
    while misses < 100:
        item = draw()
        if item["cost"] <= left:
            items.append(item)
            left -= item["cost"]
            misses = 0
        else:
            misses += 1
    return items


def _catalog(rng: random.Random) -> list[dict]:
    rows = json.loads((DATA / "catalog_rows.json").read_text())["rows"]
    rng.shuffle(rows)
    members = [{"family": key, "params": params, "expected": list(expected), "cost": cost}
               for key, (expected, pool) in FAMILIES.items() for params, cost in pool]
    items = [{"kind": "table", "rows": rows,
              "argv": ["table", "--format", "json", "--budget", BUDGET]}]
    for m in _fill(lambda: dict(rng.choice(members)), FAMILY_TARGET):
        flags = [x for k, v in sorted(m["params"].items()) for x in (f"--{k}", str(v))]
        items.append({"kind": "family", **m,
                      "argv": ["classify", m["family"], *flags, "--format", "json",
                               "--budget", BUDGET]})
    return items


def _plethysm(rng: random.Random) -> list[dict]:
    pool = json.loads((DATA / "plethysm_pool.json").read_text())
    cells: dict[str, dict[str, list[dict]]] = {}
    for c in pool["decompose"]:
        cells.setdefault(c["system"], {}).setdefault(c["expr"], []).append(c)
    systems = sorted(cells)

    def draw_decompose():
        exprs = cells[rng.choice(systems)]
        return dict(rng.choice(exprs[rng.choice(sorted(exprs))]))

    squares: dict[str, list[dict]] = {}
    for c in pool["squares"]:
        squares.setdefault(c["system"], []).append(c)

    def draw_square():
        return dict(rng.choice(squares[rng.choice(sorted(squares))]))

    items = []
    for c in _fill(draw_decompose, DECOMPOSE_TARGET):
        items.append({"kind": "decompose", **c,
                      "argv": ["decompose", c["system"], c["expr"],
                               "--hw", ",".join(map(str, c["hw"]))]})
    for c in _fill(draw_square, SQUARES_TARGET):
        items.append({"kind": "square", **c})
    rng.shuffle(items)
    return items


def _batteries(rng: random.Random) -> list[dict]:
    items = [{"kind": "verify-un", "n": n, "cost": 0.0,
              "argv": ["verify-un", str(n), "--format", "json", "--seed", str(rng.randrange(1000))]}
             for n in UN_SIZES]
    cases = _fill(lambda: dict(zip(("algebra", "cost"), rng.choice(EINSTEIN))), EINSTEIN_TARGET)
    for case in cases:
        alphas = sorted(rng.sample(ALPHAS, 3))
        items.append({"kind": "einstein", **case, "alphas": alphas,
                      "argv": ["einstein", case["algebra"],
                               "--alphas=" + ",".join(f"{a:g}" for a in alphas),
                               "--format", "json"]})
    rng.shuffle(items)
    return items


def generate(workload: str, seed: int) -> list[dict]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    return {"catalog": _catalog, "plethysm": _plethysm, "batteries": _batteries}[workload](rng)


def serialize(items: list[dict]) -> bytes:
    return json.dumps(items, sort_keys=True, separators=(",", ":")).encode()
