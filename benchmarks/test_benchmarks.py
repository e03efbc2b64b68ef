"""Tests of the benchmark itself: inputs, counters and oracles.

    PYTHONPATH=src python -m pytest -q benchmarks
"""

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from invconn import cli  # noqa: E402


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return out.getvalue(), code


# -- inputs -------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    first = workloads.serialize(workloads.generate(workload, 7))
    assert first == workloads.serialize(workloads.generate(workload, 7))
    assert first != workloads.serialize(workloads.generate(workload, 8))


def test_catalog_inputs_cover_every_row_once():
    rows = json.loads((workloads.DATA / "catalog_rows.json").read_text())["rows"]
    (table,) = [i for i in workloads.generate("catalog", 3) if i["kind"] == "table"]
    assert sorted(r["id"] for r in table["rows"]) == sorted(r["id"] for r in rows)
    assert [r["id"] for r in table["rows"]] != [r["id"] for r in rows]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# -- tracing -------------------------------------------------------------------

TRACED = """
import json, sys
import spans, worker
from invconn import chars, cli, rootsys
tracer = spans.Tracer()
tracer.install()
for item in json.loads(sys.argv[1]):
    worker._run_item(item, cli, chars, rootsys)
print(json.dumps(tracer.summary()["counters"], sort_keys=True))
"""


def _traced_counters(items):
    proc = subprocess.run([sys.executable, "-c", TRACED, json.dumps(items)], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": f"{HERE}:{ROOT / 'src'}",
                               "PYTHONHASHSEED": "0"},
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout)


def _cheap_items(seed):
    """The cheapest generated items of every kind except the full sweep."""
    items = [i for w in workloads.WORKLOADS for i in workloads.generate(w, seed)
             if i["kind"] in ("family", "decompose", "square", "einstein")]
    cheap = []
    for kind in ("family", "decompose", "square", "einstein"):
        cheap += sorted((i for i in items if i["kind"] == kind), key=lambda i: i["cost"])[:3]
    return cheap


def test_tiny_classify_reaches_the_orbit_sum_layers():
    counters = _traced_counters([{"kind": "cli", "argv": ["classify", "G2/SU3"]}])
    assert counters["rootsys.signed_orbit.points"] > 0
    assert counters["chars.point_query.terms"] > 0


def test_traced_counters_repeat_exactly():
    items = _cheap_items(5)
    first, second = _traced_counters(items), _traced_counters(items)
    for key in ("chars.point_query.terms", "chars.tensor.pairs",
                "rootsys.signed_orbit.points", "chars.decompose.terms"):
        assert first[key] > 0
        assert first[key] == second[key]


# -- oracles: each passes the real output and flags a corrupted one -------------

def test_table_oracle(tmp_path):
    all_rows = json.loads((workloads.DATA / "catalog_rows.json").read_text())["rows"]
    rows = [r for r in all_rows if r["id"] in ("G2/SU3", "SO7/G2", "SO8/Sp2xSp1", "SO248/E8")]
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"version": 1, "rows": rows}))
    out, code = _cli(["table", "--format", "json", "--budget", workloads.BUDGET,
                      "--catalog", str(path)])
    assert oracle.check_table(rows, out, code, workloads.MAX_WEYL) == []

    doc = json.loads(out)
    dropped = dict(doc, rows=doc["rows"][1:])
    assert oracle.check_table(rows, json.dumps(dropped), code, workloads.MAX_WEYL)
    for mutate in (lambda r: r["computed"].update(a=r["computed"]["a"] + 1),
                   lambda r: r.update(status="skipped: infeasible", computed=None)):
        bad = copy.deepcopy(doc)
        mutate(next(r for r in bad["rows"] if r["id"] == "G2/SU3"))
        assert oracle.check_table(rows, json.dumps(bad), code, workloads.MAX_WEYL)
    bad = copy.deepcopy(doc)
    skipped = next(r for r in bad["rows"] if r["id"] == "SO248/E8")
    skipped.update(status="match", computed={"a": 2, "s": 0, "N": 2, "l": 2,
                                             "epsilon": 0, "type": "real"})
    assert oracle.check_table(rows, json.dumps(bad), code, workloads.MAX_WEYL)


def test_family_oracle():
    member = {"family": "SU_pq", "params": {"p": 3, "q": 3}, "expected": [2, 2, 4, 2, "r"]}
    out, code = _cli(["classify", "SU_pq", "--p", "3", "--q", "3", "--format", "json"])
    assert oracle.check_family(member, out, code) == []
    assert oracle.check_family(member, out.replace('"s": 2', '"s": 3'), code)


def test_decompose_oracle():
    item = {"system": "A2", "expr": "alt2", "hw": [1, 1]}
    out, code = _cli(["decompose", "A2", "alt2", "--hw", "1,1"])
    assert oracle.check_decompose(item, out, code) == []
    first = next(line for line in out.splitlines() if " x R(" in line)
    assert oracle.check_decompose(item, out.replace(first, "2" + first[1:]), code)
    assert oracle.check_decompose({"system": "A1", "expr": "sym3", "hw": [2]},
                                  _cli(["decompose", "A1", "sym3", "--hw", "2"])[0], 0) == []


def test_square_oracle():
    from invconn import chars, rootsys
    rs = rootsys.RootSystem([rootsys.SimpleType("B", 2)])
    chi = chars.irrep_character(rs, (1, 1))
    result = {"tensor": chars.tensor(chi, chi).mult, "alt2": chars.alt2(chi).mult,
              "sym2": chars.sym2(chi).mult}
    item = {"system": "B2", "hw": [1, 1]}
    assert oracle.check_square(item, result) == []
    moved = dict(result["alt2"])
    w = next(iter(moved))
    moved[w] += 1
    assert oracle.check_square(item, dict(result, alt2=moved))


def test_battery_oracle():
    item = {"kind": "verify-un", "n": 3, "argv": ["verify-un", "3"]}
    out, code = _cli(["verify-un", "3", "--format", "json"])
    assert oracle.check_battery(item, out, code) == []
    doc = json.loads(out)
    for name in ("mu4 - mu5 metric", "Ricci equals the published u(n) closed form"):
        bad = copy.deepcopy(doc)
        line = next(c for c in bad["checks"] if c["name"] == name)
        line["passed"] = not line["passed"]
        assert oracle.check_battery(item, json.dumps(bad), code)
    item = {"kind": "einstein", "alphas": [-1.0, 0.5], "argv": ["einstein", "u3"]}
    out, code = _cli(["einstein", "u3", "--alphas=-1,0.5", "--format", "json"])
    assert oracle.check_battery(item, out, code) == []
    bad = json.loads(out)
    bad["checks"].pop()
    assert oracle.check_battery(item, json.dumps(bad), code)


# -- the runner -------------------------------------------------------------------

def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "catalog",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
