import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invconn
from invconn import siiclass
from invconn.cli import build_parser, main

SRC = str(Path(invconn.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_match(capsys):
    code, out, _ = run(capsys, "classify", "G2/SU3")
    assert code == 0
    assert "match" in out


def test_classify_family_params(capsys):
    code, out, _ = run(capsys, "classify", "SU_pq", "--p", "3", "--q", "3")
    assert code == 0
    assert "SU9/SU3xSU3" in out and "2 2 4 2" in out


def test_classify_unknown_selector(capsys):
    code, _, err = run(capsys, "classify", "XX/YY")
    assert code == 2
    assert "no catalog row" in err


def test_classify_out_of_range_family(capsys):
    code, _, err = run(capsys, "classify", "SU_pq", "--p", "2", "--q", "3")
    assert code == 2


def test_classify_skipped_row_exit_codes(capsys):
    code, out, _ = run(capsys, "classify", "SO248/E8")
    assert code == 0
    assert "skipped: infeasible" in out
    code, _, _ = run(capsys, "--strict", "classify", "SO248/E8")
    assert code == 1


@pytest.mark.parametrize("budget", [[], ["--budget", "unlimited"]])
def test_classify_skips_a_huge_family_member_at_once(capsys, budget):
    code, out, _ = run(capsys, *budget, "classify", "Sp_n", "--n", "99999")
    assert code == 0
    assert "| Sp99999/SO99999xSp1 |" in out and "skipped: infeasible (Weyl order ~10^" in out


def test_classify_known_mismatch_row(capsys):
    # The n=2 member of the SO_4n family is a symmetric pair; the published
    # counts cannot be reproduced and the row reports a mismatch.
    code, out, _ = run(capsys, "classify", "SO8/Sp2xSp1")
    assert code == 1
    assert "mismatch" in out


def test_classify_json_schema(capsys):
    code, out, _ = run(capsys, "--format", "json", "classify", "SO7/G2")
    assert code == 0
    doc = json.loads(out)
    row = doc["rows"][0]
    assert set(row) >= {"id", "dims", "computed", "expected", "status", "elapsed_ms"}
    assert row["dims"] == {"m": 7}
    assert row["computed"] == {"a": 1, "s": 0, "N": 1, "l": 1, "epsilon": 0, "type": "real"}
    assert row["status"] == "match"


def test_table_subset(capsys):
    code, out, _ = run(capsys, "table", "--only", "exceptions", "--budget", "2000,2000")
    # With a tight budget most rows skip; the cheap ones still match.
    assert "matched" in out and "skipped" in out
    assert code == 0


def test_table_json_deterministic_modulo_timing(capsys):
    def grab():
        code, out, _ = run(capsys, "--format", "json", "table", "--only", "exceptions",
                           "--budget", "500,500")
        assert code == 0
        doc = json.loads(out)
        for row in doc["rows"]:
            row.pop("elapsed_ms")
        return doc
    assert grab() == grab()


def test_decompose_examples(capsys):
    code, out, _ = run(capsys, "decompose", "A3", "alt2", "--hw", "1,0,1")
    assert code == 0
    assert "R(2, 1, 0)" in out and "R(0, 1, 2)" in out and "R(1, 0, 1)" in out
    assert "total dimension 105" in out

    code, out, _ = run(capsys, "decompose", "A1", "sym2", "--hw", "1")
    assert code == 0
    assert "R(2,)" in out

    code, out, _ = run(capsys, "decompose", "A2", "plethysm21", "--hw", "1,1")
    assert code == 0
    assert "trivial multiplicity 0" in out


def test_decompose_non_dominant_weight(capsys):
    code, _, err = run(capsys, "decompose", "A2", "alt2", "--hw", "1,-1")
    assert code == 2
    assert "not dominant" in err


def test_decompose_product_system(capsys):
    code, out, _ = run(capsys, "decompose", "A1xA2", "tensor", "--hw", "1,1,0",
                       "--hw2", "1,0,1")
    assert code == 0
    assert "total dimension 36" in out


def test_verify_un_exit_codes(capsys):
    code, out, _ = run(capsys, "verify-un", "3")
    # Two upstream reference values are inconsistent with the computation;
    # the battery reports them as failing and exits nonzero.
    assert code == 1
    assert "known upstream data error" in out
    assert out.count("PASS") >= 12
    code, _, err = run(capsys, "verify-un", "2")
    assert code == 2


def test_verify_un_json_bitwise_deterministic(capsys):
    code1, out1, _ = run(capsys, "--format", "json", "--seed", "7", "verify-un", "3")
    code2, out2, _ = run(capsys, "--format", "json", "--seed", "7", "verify-un", "3")
    assert out1 == out2


def test_einstein_commands(capsys):
    code, out, _ = run(capsys, "einstein", "su3", "--alphas", "0.5,1,2")
    assert code == 0
    assert out.count("Einstein") >= 3

    code, out, _ = run(capsys, "einstein", "su2", "--alphas", "1")
    assert code == 0
    assert "flat" in out

    code, out, _ = run(capsys, "einstein", "u3", "--alphas", "1,0.5")
    assert code == 0
    assert "not Einstein" in out and "center" in out

    code, _, err = run(capsys, "einstein", "sp4", "--alphas", "1")
    assert code == 2


@pytest.mark.parametrize("algebra,alphas", [("u3", "0.5"), ("u5", "0.5,3")])
def test_einstein_center_value_has_no_signed_zero(capsys, algebra, alphas):
    # Ric(xi, xi) vanishes on the center; its rounding noise must not print as -0.000.
    code, out, _ = run(capsys, "--format", "json", "einstein", algebra, f"--alphas={alphas}")
    names = [c["name"] for c in json.loads(out)["checks"] if "center" in c["name"]]
    assert code == 0 and len(names) == len(alphas.split(","))
    assert all("Ricci-flat: 0.000 vs" in name for name in names)


def _battery_shape(capsys, *argv):
    """Each check of a battery run as 'PASS name', 'FAIL name' or 'ERRATUM
    name' (a failure flagged as a known upstream data error)."""
    _, out, _ = run(capsys, "--format", "json", *argv)
    return [f"{'PASS' if c['passed'] else 'ERRATUM' if c['known_upstream_issue'] else 'FAIL'} {c['name']}"
            for c in json.loads(out)["checks"]]


UN_SHAPE = [
    "PASS mu1..mu6 equivariant",
    "PASS mu4 - mu5 metric",
    "PASS nu = mu3 - mu4 not metric",
    "PASS theta = mu3 + mu4 not metric",
    "PASS metricity == Lambda-skewness == parallel metric",
    "PASS torsion of mu4 - mu5 is -nu - [.,.]",
    "PASS vectorial member: difference tensor pure trace type",
    "PASS vectorial member: phi(Z) = -i tr Z",
    "PASS vectorial member: trace-type condition holds, trace vector nonzero",
    "PASS vectorial member: sum_i mu(e_i, e_i) = i (n^2 - 1) Id",
    "PASS bracket family: skew and traceless",
    "PASS calibration Ric(LC) = -B/4",
    "PASS two-path Ricci agreement (direct curvature vs trace-type formula)",
    "ERRATUM Ricci equals the published u(n) closed form",
]
UN_ERRATA = {3: ["ERRATUM n=3: Ricci positive on 1000 random directions"],
             4: ["ERRATUM n=4: Ricci equals -(3/2) trX trY"]}


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_verify_un_battery_shape(capsys, n):
    expect = UN_SHAPE + UN_ERRATA.get(n, []) + ["PASS mu4 - mu5 is not a derivation"]
    assert _battery_shape(capsys, "verify-un", str(n)) == expect


SIMPLE_EINSTEIN_SHAPE = [
    "PASS alpha=-1: parallel torsion", "PASS alpha=-1: flat connection", "PASS alpha=-1: Einstein",
    "PASS alpha=0.5: parallel torsion", "PASS alpha=0.5: Einstein",
    "PASS alpha=1: parallel torsion", "PASS alpha=1: flat connection", "PASS alpha=1: Einstein",
    "PASS alpha=2: parallel torsion", "PASS alpha=2: Einstein",
]
EINSTEIN_SHAPE = {
    "su3": SIMPLE_EINSTEIN_SHAPE,
    "so5": SIMPLE_EINSTEIN_SHAPE,
    "u3": [
        "PASS alpha=-1: parallel torsion", "PASS alpha=-1: flat connection",
        "PASS alpha=-1: Einstein (flat)",
        "PASS alpha=0.5: parallel torsion",
        "PASS alpha=0.5: not Einstein (center direction is Ricci-flat: 0.000 vs Einstein constant 1.000)",
        "PASS alpha=1: parallel torsion", "PASS alpha=1: flat connection",
        "PASS alpha=1: Einstein (flat)",
        "PASS alpha=2: parallel torsion",
        "PASS alpha=2: not Einstein (center direction is Ricci-flat: 0.000 vs Einstein constant -4.000)",
    ],
}


@pytest.mark.parametrize("algebra", sorted(EINSTEIN_SHAPE))
def test_einstein_battery_shape(capsys, algebra):
    shape = _battery_shape(capsys, "einstein", algebra, "--alphas=-1,0.5,1,2")
    assert shape == EINSTEIN_SHAPE[algebra]


def test_catalog_dump(capsys):
    code, out, _ = run(capsys, "catalog-dump")
    assert code == 0
    assert "G2/SU3" in out and "SO248/E8" in out
    code, out, _ = run(capsys, "--format", "json", "catalog-dump")
    doc = json.loads(out)
    assert any(r["id"] == "E7/SU3" for r in doc["rows"])


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "--format", "json", "--output", str(target),
                       "classify", "SO7/G2")
    assert code == 0
    assert json.loads(target.read_text())["rows"][0]["id"] == "SO7/G2"


SO7_G2 = {"id": "SO7/G2", "ambient": {"series": "SO", "n": 7}, "factors": [["G", 2]],
          "constituents": [[[1, 0]]], "expected": {"a": 1, "s": 0, "N": 1, "l": 1, "type": "r"},
          "source": "table5"}


def _catalog_file(tmp_path, **changes):
    return _catalog_doc(tmp_path, {"version": 1, "rows": [dict(SO7_G2, **changes)]})


def _catalog_doc(tmp_path, doc):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    return str(path)


BAD_INPUTS = {
    "missing catalog": lambda tmp: ["table", "--catalog", str(tmp / "absent.json")],
    "malformed catalog json": lambda tmp: ["table", "--catalog",
                                           str(tmp / "bad.json")],
    "non-dominant constituent": lambda tmp: [
        "table", "--catalog", _catalog_file(tmp, constituents=[[[1, -1]]])],
    "catalog weight of the wrong length": lambda tmp: [
        "table", "--catalog", _catalog_file(tmp, constituents=[[[1, 0, 0]]])],
    "catalog summand with too many weights": lambda tmp: [
        "table", "--catalog", _catalog_file(tmp, constituents=[[[1, 0], [1]]])],
    "catalog ambient of an unknown series": lambda tmp: [
        "catalog-dump", "--catalog", _catalog_file(tmp, ambient={"series": "XX", "n": 7})],
    "catalog module with a repeated constituent": lambda tmp: [
        "catalog-dump", "--catalog", _catalog_file(tmp, constituents=[[[3, 0]], [[3, 0]]])],
    "catalog row that is not an object": lambda tmp: [
        "table", "--catalog", _catalog_doc(tmp, {"rows": [1]})],
    "catalog rows that are not a list": lambda tmp: [
        "table", "--catalog", _catalog_doc(tmp, {"rows": 5})],
    "catalog family that is not an object": lambda tmp: [
        "table", "--catalog", _catalog_file(tmp, family=3)],
    "catalog row with a list id": lambda tmp: [
        "table", "--catalog", _catalog_file(tmp, id=["SO7/G2"])],
    "catalog expected type other than r or c": lambda tmp: [
        "catalog-dump", "--catalog", _catalog_file(tmp, expected=dict(SO7_G2["expected"], type="q"))],
    "catalog ambient rank that is a float": lambda tmp: [
        "table", "--catalog", _catalog_file(tmp, ambient={"series": "SO", "n": 7.9})],
    "catalog factor rank that is a float": lambda tmp: [
        "table", "--catalog", _catalog_file(tmp, factors=[["G", 2.5]])],
    "catalog weight label that is a float": lambda tmp: [
        "table", "--catalog", _catalog_file(tmp, constituents=[[[1.7, 0]]])],
    "catalog expected count that is a boolean": lambda tmp: [
        "table", "--catalog", _catalog_file(tmp, expected=dict(SO7_G2["expected"], a=True))],
    "verify-un infinite tolerance": lambda tmp: ["verify-un", "4", "--tolerance", "inf"],
    "verify-un nan tolerance": lambda tmp: ["verify-un", "4", "--tolerance", "nan"],
    "einstein nan alpha": lambda tmp: ["einstein", "u3", "--alphas=nan"],
    "einstein infinite alpha": lambda tmp: ["einstein", "u3", "--alphas=0.5,inf"],
    "einstein alpha that overflows": lambda tmp: ["einstein", "u3", "--alphas=1e400"],
    "einstein su1": lambda tmp: ["einstein", "su1"],
    "einstein non-numeric alphas": lambda tmp: ["einstein", "su3", "--alphas", "a,b"],
    "einstein over the size limit": lambda tmp: ["einstein", "su40"],
    "verify-un over the size limit": lambda tmp: ["verify-un", "30"],
    "decompose weight of the wrong length": lambda tmp: ["decompose", "A2", "alt2",
                                                         "--hw", "1,0,0"],
    "decompose second weight of the wrong length": lambda tmp: [
        "decompose", "A2", "tensor", "--hw", "1,0", "--hw2", "1"],
    "unknown catalog row": lambda tmp: ["classify", "XX/YY"],
    "verify-un non-numeric tolerance": lambda tmp: ["verify-un", "4", "--tolerance", "abc"],
    "verify-un non-numeric n": lambda tmp: ["verify-un", "x"],
    "unknown command": lambda tmp: ["frobnicate"],
    "decompose without --hw": lambda tmp: ["decompose", "A2", "alt2"],
    "table with zero jobs": lambda tmp: ["table", "--jobs", "0"],
    "table with a zero budget": lambda tmp: ["table", "--budget", "0,50000"],
    "family with a missing parameter": lambda tmp: ["classify", "SU_pq", "--p", "3"],
    "family with a foreign parameter": lambda tmp: ["classify", "SU_2q", "--n", "3"],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_one_error_line(case, tmp_path):
    (tmp_path / "bad.json").write_text('{"rows": [')
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "invconn.cli", *BAD_INPUTS[case](tmp_path)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


@pytest.mark.parametrize("argv", [["--help"], ["verify-un", "--help"]])
def test_help_prints_usage_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr().out
    assert exc.value.code == 0 and out.startswith("usage: invconn") and "--jobs" in out


def test_key_error_message_is_not_quoted(capsys):
    code, _, err = run(capsys, "classify", "XX/YY")
    assert code == 2
    assert err == "error: no catalog row with id 'XX/YY'\n"


@pytest.mark.parametrize("argv", [["einstein", "su40"], ["verify-un", "30"]])
def test_oversized_algebra_is_refused_before_allocating(capsys, argv):
    import tracemalloc
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "MiB limit" in err
    assert peak < 1 << 20


def test_batteries_never_densify(monkeypatch):
    # Every map of the batteries stays a Coo: no dense d^3 array, and the
    # derivative checks never take the dense path, which densifies.
    from invconn import cli, conncalc

    def refuse(*args, **kwargs):
        raise AssertionError("a battery densified a Coo")

    monkeypatch.setattr(conncalc.Coo, "__array__", refuse)
    runs = [cli.un_battery(n) for n in range(3, 7)]
    runs += [cli.einstein_battery(name, n, [-1.0, 0.5, 1.0, 2.0])
             for name, n in (("su", 4), ("so", 5), ("u", 4))]
    for checks in runs:
        assert checks and all(c.passed != c.expected_to_fail for c in checks)


def test_un_battery_10_peak_memory():
    # The maps and the derivative blocks hold nonzeros only; the eight
    # Laquer maps alone take 64 MiB as dense arrays.
    import tracemalloc

    from invconn import cli
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cli.un_battery(10)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 16 << 20


def test_verify_un_builds_the_laquer_maps_once(monkeypatch):
    from invconn import cli, conncalc
    calls = []
    real = conncalc.laquer_basis
    monkeypatch.setattr(conncalc, "laquer_basis", lambda alg: calls.append(alg) or real(alg))
    cli.un_battery(3)
    assert len(calls) == 1


# -- one parser per process ------------------------------------------------------

def test_the_parser_is_built_once():
    assert build_parser() is build_parser()


def test_repeated_main_calls_share_no_state(capsys, monkeypatch):
    budgets = []
    monkeypatch.setattr(siiclass, "classify_catalog",
                        lambda entries, budget, jobs: budgets.append((budget, jobs)) or [])
    assert run(capsys, "table", "--budget", "1,1", "--jobs", "2")[0] == 0
    assert run(capsys, "table")[0] == 0
    assert budgets == [(siiclass.Budget(1, 1), 2), (siiclass.Budget(), 1)]

    # Shared flags before and after the subcommand, then neither.
    before = run(capsys, "--format", "json", "verify-un", "3", "--seed", "5")
    after = run(capsys, "verify-un", "3", "--format", "json", "--seed", "5")
    plain = run(capsys, "verify-un", "3", "--seed", "5")
    assert before == after and json.loads(before[1])["battery"] == "u(3) bi-invariant battery"
    assert plain[1].startswith("u(3) bi-invariant battery\n")
    assert plain[1] != before[1] and plain[0] == before[0]

    # --help, an argument error, then a normal call.
    with pytest.raises(SystemExit):
        main(["decompose", "--help"])
    assert run(capsys, "decompose", "A2", "alt2")[0] == 2
    code, out, err = run(capsys, "decompose", "A2", "alt2", "--hw", "1,0")
    assert (code, err) == (0, "") and out == "1 x R(0, 1)  (dim 3)\ntotal dimension 3\n"


# -- CLI fuzz: random argv in one process -----------------------------------------

_FLAG_VALUES = {
    "--format": ["json", "md", "csv", "xml", ""],
    "--tolerance": ["1e-9", "1e-3", "0", "-1", "abc", "inf", "nan"],
    "--seed": ["0", "7", "x", "-3", "1.5"],
    # Only tiny or malformed budgets, so that no sweep runs for long.
    "--budget": ["1,1", "5,5", "0,1", "1", "a,b", "1,-1", ""],
    "--jobs": ["1", "0", "-2", "two"],
    "--catalog": ["absent.json", "bad.json"],
}
_COMMANDS = {
    "classify": [st.sampled_from(["G2/SU3", "SO7/G2", "Sp2/SU2", "XX/YY", "SU_pq", "SO_4n",
                                  "SU_2q", ""])],
    "table": [],
    "decompose": [st.sampled_from(["A1", "A2", "G2", "A1xA2", "B1", "Z3", "A2xq1", ""]),
                  st.sampled_from(["tensor", "alt2", "sym2", "alt3", "sym3", "plethysm21",
                                   "cube"])],
    "verify-un": [st.sampled_from(["3", "2", "x", "-1", "30", "3.5"])],
    "einstein": [st.sampled_from(["su2", "su3", "so5", "u3", "su1", "xx", "su40", "so3"])],
    "catalog-dump": [],
}
_WEIGHTS = st.sampled_from(["1", "2", "0,1", "1,0", "1,1", "1,0,0", "1,0,1", "a", "1,,0",
                            "-1,0", "", "0,1,1,0"])
_OPTIONS = {
    "classify": [("--p", st.sampled_from(["3", "2", "x", "-1"])),
                 ("--q", st.sampled_from(["3", "x", "0"])),
                 ("--n", st.sampled_from(["3", "2", "1", "x"]))],
    "table": [("--only", st.sampled_from(["table4", "exceptions", "classical", "bogus"]))],
    "decompose": [("--hw", _WEIGHTS), ("--hw", _WEIGHTS), ("--hw2", _WEIGHTS)],
    "einstein": [("--alphas", st.sampled_from(["0.5,1", "-1,2", "nan", "a,b", "1e400", ""]))],
}
_JUNK = st.sampled_from(["--frobnicate", "-q", "extra", "--hw", "--n", "--strict", "--help",
                         "--format=json", "--budget=1,1"])


@st.composite
def _argv(draw):
    """A random command line: a command, its positionals, tiny budgets for the
    sweeps, shared flags and command options with good and bad values, and
    sometimes one stray token anywhere.  `@name` stands for a file in the
    test's directory."""
    command = draw(st.sampled_from(sorted(_COMMANDS) + ["frobnicate"]))
    argv = [command] + [draw(p) for p in _COMMANDS.get(command, [])]
    if command in ("table", "classify"):
        argv += ["--budget", "1,1"]
    for flag in draw(st.lists(st.sampled_from(sorted(_FLAG_VALUES)), max_size=3)):
        value = draw(st.sampled_from(_FLAG_VALUES[flag]))
        argv += [flag, "@" + value if flag == "--catalog" else value]
    options = _OPTIONS.get(command, [("--frobnicate", st.just("1"))])
    for flag, value in draw(st.lists(st.sampled_from(options), max_size=3)):
        argv += [flag, draw(value)]
    if draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), draw(_JUNK))
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "bad.json").write_text('{"rows": [')
    return path


@settings(max_examples=120, deadline=None)
@given(argv=_argv())
def test_cli_fuzz_exits_cleanly(fuzz_dir, argv):
    argv = [str(fuzz_dir / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help prints its usage and exits 0
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err.getvalue())
