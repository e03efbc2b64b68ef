import ast
import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest
from conftest import bracket_family_map, flatness_defect
from hypothesis import given, settings
from hypothesis import strategies as st

import invconn
from invconn import cli, siiclass
from invconn.cli import build_parser, main
from invconn.rootsys import SimpleType

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
    code, _, _ = run(capsys, "classify", "SO248/E8", "--strict")
    assert code == 1


@pytest.mark.parametrize("budget", [[], ["--budget", "unlimited"]])
def test_classify_skips_a_huge_family_member_at_once(capsys, budget):
    code, out, _ = run(capsys, "classify", "Sp_n", "--n", "99999", *budget)
    assert code == 0
    assert "| Sp99999/SO99999xSp1 |" in out and "skipped: infeasible (Weyl order ~10^" in out


def test_the_weyl_gate_forms_no_factorial_of_a_huge_rank(capsys):
    # SU2q/SU2xSUq at q = 10^9, gated from lgamma: the exact order would
    # have about 8.6 * 10^9 digits.  The factors are set directly, since the
    # family builder writes out a weight with q - 1 labels.
    q = 10 ** 9
    row = dataclasses.replace(siiclass.family("SU_2q", q=3), ambient=siiclass.Ambient("SU", 2 * q),
                              factors=(SimpleType("A", 1), SimpleType("A", q - 1)))
    t0 = time.perf_counter()
    rep = siiclass.classify(row, siiclass.Budget.unlimited())
    assert time.perf_counter() - t0 < 0.5
    assert rep.status == f"skipped: infeasible (Weyl order ~10^8565705523.3 > {1 << 62})"
    rep = siiclass.classify(row, siiclass.Budget(max_weyl_order=0, max_support=0))
    assert rep.status == "skipped: infeasible (Weyl order ~10^8565705523.3 > 0)"
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "classify", "SU_2q", "--q", "1000000")  # 5.6 million digits
    assert time.perf_counter() - t0 < 2.0
    assert code == 0 and "skipped: infeasible (Weyl order ~10^5565709.2 > 1000000)" in out


@pytest.mark.parametrize("n, limit", [(99999, "0"), (1001, "640"), (5000, "100000")])
def test_a_weyl_order_prints_the_same_under_any_digit_limit(n, limit):
    # Sp99999: ~10^228283.3 also when str() would take every digit;
    # Sp1001: all 1285 digits of the order also when str() takes only 640;
    # Sp5000: ~10^8163.8, not 8165 digits, when str() would take them.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-m", "invconn.cli", "classify", "Sp_n", "--n", str(n),
            "--budget", "unlimited"]
    outs = [subprocess.run(argv, capture_output=True, text=True, timeout=120, env=env)
            for env in ({**env, "PYTHONINTMAXSTRDIGITS": "4300"},
                        {**env, "PYTHONINTMAXSTRDIGITS": limit})]
    assert [(p.returncode, p.stderr) for p in outs] == [(0, "")] * 2
    assert outs[0].stdout == outs[1].stdout and "skipped: infeasible (Weyl order " in outs[0].stdout


def test_classify_known_mismatch_row(capsys):
    # The n=2 member of the SO_4n family is a symmetric pair; the published
    # counts cannot be reproduced and the row reports a mismatch.
    code, out, _ = run(capsys, "classify", "SO8/Sp2xSp1")
    assert code == 1
    assert "mismatch" in out


def test_positive_roots_over_the_memory_bound_are_refused_before_they_are_built(
        capsys, monkeypatch):
    from invconn import rootsys

    def refuse(st):
        raise AssertionError("positive roots built")
    monkeypatch.setattr(rootsys, "_simple_positive_roots", refuse)
    code, out, err = run(capsys, "decompose", "A400", "alt2", "--hw", ",".join(["1"] + ["0"] * 399))
    assert code == 2 and out == ""
    assert err == ("error: RootSystem(A400) is too large: its 80200 positive roots of rank 400 "
                   "would take more than 128 MiB\n")


def test_no_catalog_row_or_family_member_reaches_the_root_bound():
    from invconn.rootsys import _ROOT_LABEL_BYTES, MAX_ARRAY_BYTES

    def table_bytes(factors):
        rank = sum(f.rank for f in factors)
        return sum(f.num_positive_roots for f in factors) * rank * _ROOT_LABEL_BYTES
    rows = siiclass.load_catalog()
    rows += [siiclass.family(key, n=30) for key in ("SU_alt2", "SU_sym2", "SO_ad", "SO_alt2",
                                                    "SO_sym2", "SO_spalt", "SO_spsym", "SO_4n",
                                                    "Sp_n")]
    rows += [siiclass.family("SU_2q", q=30), siiclass.family("SU_pq", p=30, q=30)]
    assert max(table_bytes(row.factors) for row in rows) * 10 < MAX_ARRAY_BYTES
    # A188 is the largest A_r accepted: its tables peak near the bound.
    assert table_bytes([SimpleType("A", 188)]) <= MAX_ARRAY_BYTES < table_bytes([SimpleType("A", 189)])


def test_classify_json_schema(capsys):
    code, out, _ = run(capsys, "classify", "SO7/G2", "--format", "json")
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
        code, out, _ = run(capsys, "table", "--format", "json", "--only", "exceptions",
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


@pytest.mark.parametrize("argv", [["tensor", "--hw2", "0,1"], ["tensor"], ["alt2"], ["sym2"],
                                  ["alt3"], ["sym3"], ["plethysm21"]])
def test_decompose_never_materializes(capsys, monkeypatch, argv):
    from invconn import chars

    def refuse(*args):
        raise AssertionError("a product was materialized")

    monkeypatch.setattr(chars, "tensor", refuse)
    monkeypatch.setattr(chars, "_convolve", refuse)
    code, out, err = run(capsys, "decompose", "B2", argv[0], "--hw", "1,1", *argv[1:])
    assert (code, err) == (0, "") and "total dimension" in out


def test_decompose_refuses_arrays_over_the_limit(capsys, monkeypatch):
    # A character too large for the limit is refused before it is built, and
    # a fold too large for it before its stack is: one `error:` line each.
    from invconn import chars

    def refuse(*args):
        raise AssertionError("the character was built")

    with monkeypatch.context() as patch:
        patch.setattr(chars, "irrep_character", refuse)
        code, out, err = run(capsys, "decompose", "A1", "sym3", "--hw", "99999999999999999999")
    assert (code, out) == (2, "")
    assert err == ("error: the weights of L(99999999999999999999,) would take more "
                   "than 128 MiB\n")
    # L(300) of A1 has 301 weights: the fold of chi^2 and psi2 chi stacks 602
    # rows of 2 labels, the cube fold 301 per constituent of chi^2, which a
    # 1 MiB limit refuses.
    stacks = []
    real = chars._shifted_stack
    monkeypatch.setattr(chars, "MAX_ARRAY_BYTES", 1 << 20)
    monkeypatch.setattr(chars, "_shifted_stack",
                        lambda weights, blocks: stacks.append(len(weights) * len(blocks))
                        or real(weights, blocks))
    code, out, err = run(capsys, "decompose", "A1", "sym3", "--hw", "300")
    assert (code, out, stacks) == (2, "", [602])
    assert err == "error: a Racah-Speiser fold of 90902 weights would take more than 1 MiB\n"


def test_decompose_checks_the_dimension_bookkeeping(capsys, monkeypatch):
    from invconn import cli

    real = cli.decompose_expression

    def corrupted(*args):
        (lam, m), *rest = real(*args)
        return [(lam, m + 1), *rest]

    monkeypatch.setattr(cli, "decompose_expression", corrupted)
    for argv in (["A2", "alt2", "--hw", "1,1"], ["A2", "tensor", "--hw", "1,0", "--hw2", "1,1"],
                 ["A1", "plethysm21", "--hw", "3"]):
        code, out, err = run(capsys, "decompose", *argv)
        assert code == 1 and err == "error: dimension bookkeeping failed\n", argv
        assert "total dimension" in out


_WIDE = ",".join(["1"] + ["0"] * 99_999)  # a weight of A100000


def _refuse_cartan_matrices(monkeypatch):
    from invconn import rootsys

    def refuse(*args):
        raise AssertionError("a Cartan matrix was built")

    monkeypatch.setattr(rootsys, "_cartan_matrix", refuse)


@pytest.mark.parametrize("argv,message", [
    (["A100000", "alt2", "--hw", "1"], "highest weight (1,) has 1 labels, but A100000 has rank 100000"),
    (["A2xA99998", "tensor", "--hw", _WIDE, "--hw2", "1"],
     "highest weight (1,) has 1 labels, but A2xA99998 has rank 100000"),
    (["A100000", "alt2", "--hw", _WIDE], "rank 100000 is too large: its Cartan matrix would take "
                                         "more than 128 MiB"),
], ids=["hw", "hw2", "rank"])
def test_decompose_of_a_huge_rank_builds_no_cartan_matrix(capsys, monkeypatch, argv, message):
    # The weights are checked against the summed factor rank first, and a
    # system whose Cartan matrix would pass the array limit is refused.
    _refuse_cartan_matrices(monkeypatch)
    code, out, err = run(capsys, "decompose", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_catalog_row_of_a_huge_rank_builds_no_cartan_matrix(capsys, monkeypatch, tmp_path):
    _refuse_cartan_matrices(monkeypatch)
    path = _catalog_file(tmp_path, factors=[["A", 100_000]], constituents=[[[1] + [0] * 99_999]])
    code, out, err = run(capsys, "table", "--catalog", path)
    assert (code, out) == (2, "")
    assert err == ("error: bad catalog record 'SO7/G2': rank 100000 is too large: its Cartan "
                   "matrix would take more than 128 MiB\n")


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
    code1, out1, _ = run(capsys, "verify-un", "3", "--format", "json", "--seed", "7")
    code2, out2, _ = run(capsys, "verify-un", "3", "--format", "json", "--seed", "7")
    assert out1 == out2


@pytest.mark.parametrize("seed", [0, 42, 999])
def test_un3_random_directions_reach_the_lowest_eigenvalue(seed):
    # Ric of the vectorial member of u(3) has eigenvalues -19.5 (eight
    # times) and 0 on the center, and 1000 directions come within rounding
    # of -19.5 whatever the seed.
    from invconn import cli
    [check] = [c for c in cli.un_battery(3, seed=seed) if c.name.startswith("n=3: Ricci positive")]
    assert check.detail == "min=-19.500" and not check.passed and check.expected_to_fail


def _run_importing(*args):
    """`python -X importtime *args` in a fresh process: the process and the
    set of modules it imported."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, timeout=120, env=env)
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    return proc, imported


def test_verify_un_3_does_not_import_numpy_random():
    # numpy.random would load secrets, hashlib and OpenSSL: 5 MB of RSS
    # for the 9000 seeded numbers of the n = 3 check.
    proc, imported = _run_importing("-m", "invconn.cli", "verify-un", "3")
    assert proc.returncode == 1 and "FAIL (known upstream data error)" in proc.stdout
    assert "invconn.conncalc" in imported
    assert not imported & {"numpy.random", "secrets"}


@pytest.mark.parametrize("argv", [["table", "--only", "table4"], ["classify", "G2/SU3"],
                                  ["decompose", "A2", "alt2", "--hw", "1,0"], ["catalog-dump"]])
def test_exact_commands_do_not_import_the_numeric_engine(argv):
    proc, imported = _run_importing("-m", "invconn.cli", *argv)
    # `table --only table4` exits 1 on the SO8/Sp2xSp1 erratum.
    assert proc.returncode == (argv[0] == "table") and proc.stdout
    assert "invconn.chars" in imported and not imported & {"invconn.conncalc", "csv"}


@pytest.mark.parametrize("argv,code", [(["table", "--only", "table4"], 1), (["classify", "G2/SU3"], 0),
                                       (["decompose", "A2", "alt2", "--hw", "1,0"], 0),
                                       (["verify-un", "3"], 1), (["einstein", "su3", "--alphas=-1,1"], 0)])
def test_commands_do_not_import_fractions(argv, code):
    # `fractions` imports `decimal`, whose C module is about 0.25 MB of RSS;
    # the commands pair weights in integers and never build a Fraction.
    proc, imported = _run_importing("-m", "invconn.cli", *argv)
    assert proc.returncode == code and proc.stdout
    assert "invconn.rootsys" in imported and not imported & {"fractions", "decimal"}


def test_no_module_imports_fractions_or_decimal():
    # Every import statement of the package, those in function bodies and
    # `if TYPE_CHECKING:` blocks included: the exact engine is integer-only.
    found = []
    for path in sorted(Path(invconn.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.stem, name) for name in names if name.split(".")[0] in ("fractions", "decimal")]
    assert found == []


def test_package_import_loads_its_names_on_first_use():
    proc, imported = _run_importing("-c", "import json, invconn; print(json.dumps(dir(invconn)))")
    assert proc.returncode == 0
    assert not {m for m in imported if m.startswith("invconn.")} and "numpy" not in imported
    assert set(invconn.__all__) <= set(json.loads(proc.stdout))
    for name in invconn.__all__:
        assert getattr(invconn, name).__name__ == name
    with pytest.raises(AttributeError):
        invconn.no_such_name


def test_batteries_run_without_an_svd(capsys, monkeypatch):
    # The algebra build reads independence from its inverse Gram matrix:
    # no battery maps LAPACK's SVD into the process (about 1.1 MB of RSS).
    import numpy as np

    def no_svd(*args, **kwargs):
        raise AssertionError("numpy.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    # matrix_rank calls the svd of its own module.
    monkeypatch.setitem(np.linalg.matrix_rank.__wrapped__.__globals__, "svd", no_svd)
    code, out, _ = run(capsys, "verify-un", "3")
    assert code == 1 and "FAIL (known upstream data error)" in out
    code, out, _ = run(capsys, "einstein", "su3", "--alphas=-1,1")
    assert code == 0 and out


# Rss of the OpenBLAS mappings in this process, in kB (None without them),
# then the batteries, then again.
_OPENBLAS_RSS = """
import contextlib, io
from invconn.cli import main

def openblas_rss():
    total, name, seen = 0, "", False
    with open("/proc/self/smaps") as f:
        for line in f:
            head = line.split()
            if not head[0].endswith(":"):
                name = head[5] if len(head) > 5 else ""
            elif head[0] == "Rss:" and "openblas" in name:
                total, seen = total + int(head[1]), True
    return total if seen else None

before = openblas_rss()
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["verify-un", "3"], ["verify-un", "5"], ["einstein", "u3"], ["einstein", "su5"]):
        main(argv)
print(before, openblas_rss())
"""


def test_batteries_map_no_openblas_code():
    # numpy's `inv`, `norm`, `@` and `tensordot` map OpenBLAS code into the
    # process on first call (about 600 kB); the batteries call none of them.
    if not Path("/proc/self/smaps").is_file():
        pytest.skip("no /proc/self/smaps")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _OPENBLAS_RSS],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    if before == "None":
        pytest.skip("numpy maps no OpenBLAS library")
    assert int(after) == int(before)


def _decisions(checks):
    """Each check as (PASS or FAIL, its name without alpha and values)."""
    return [(c.passed, c.name.split(":")[1].split("(")[0]) for c in checks]


@pytest.mark.parametrize("algebra", ["su5", "so7", "u4", "su14"])
def test_einstein_decides_large_alphas_as_at_two(capsys, algebra):
    # Every defect of mu_alpha is at most quadratic in alpha and is compared
    # with DEFAULT_TOL max(1, alpha^2); an absolute 1e-9 printed false FAILs
    # from alpha = 300 on su(14) and at 1e4 on so(7).
    name, n = cli._parse_algebra(algebra)
    at_two = _decisions(cli.einstein_battery(name, n, [2.0]))
    for alpha in (-1e7, -1e4, 1e4, 1e7):
        assert _decisions(cli.einstein_battery(name, n, [alpha])) == at_two, alpha
    code, out, _ = run(capsys, "einstein", algebra, "--alphas=-1e7,-1e4,1e4,1e7")
    assert code == 0 and "FAIL" not in out


@pytest.mark.parametrize("algebra", ["su3", "so5", "u4"])
def test_einstein_accepts_alpha_1000(capsys, algebra):
    code, out, _ = run(capsys, "einstein", algebra, "--alphas=1000")
    assert code == 0 and "FAIL" not in out and "alpha=1000: parallel torsion" in out


def test_an_alpha_whose_defects_leave_double_range_is_refused_by_name(capsys):
    # The Einstein residual of su(5) at alpha = 1e100 sums squares of about
    # 1e200, which overflow, and at 1e300 the products do: no PASS or FAIL
    # line is printed, and no numpy warning.
    code, out, err = run(capsys, "einstein", "su5", "--alphas=0.5,1e100")
    assert (code, out) == (2, "")
    assert err.startswith("error: alpha=1e+100: the defects leave double range (metric ")
    assert ", residual inf, parallel torsion " in err and err.count("\n") == 1
    code, out, err = run(capsys, "einstein", "u4", "--alphas=1e300")
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert err.startswith("error: alpha=1e+300: the defects leave double range (metric ")


def test_a_repeated_alpha_is_refused_and_minus_zero_prints_as_zero(capsys):
    code, out, err = run(capsys, "einstein", "su3", "--alphas=1,1.0,-0")
    assert (code, out) == (2, "")
    assert err == "error: --alphas repeats 1, got '1,1.0,-0'\n"
    code, out, err = run(capsys, "einstein", "su3", "--alphas=0,-0")
    assert (code, err) == (2, "error: --alphas repeats 0, got '0,-0'\n")
    code, out, _ = run(capsys, "einstein", "su3", "--alphas=-0", "--format", "json")
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert code == 0 and names == ["alpha=0: parallel torsion", "alpha=0: Einstein"]


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
    code, out, _ = run(capsys, "einstein", algebra, f"--alphas={alphas}", "--format", "json")
    names = [c["name"] for c in json.loads(out)["checks"] if "center" in c["name"]]
    assert code == 0 and len(names) == len(alphas.split(","))
    assert all("Ricci-flat: 0.000 vs" in name for name in names)


def test_check_names_give_one_value_to_the_noise_around_a_tie():
    # 35/16 = 2.1875 sits on a rounding tie of three places, so one ulp of
    # noise either side used to print 2.187 or 2.188.
    for tie, name in ((2.1875, "2.188"), (63 / 16, "3.938"), (1.40625, "1.406"), (0.0, "0.000")):
        values = (math.nextafter(tie, -math.inf), tie, math.nextafter(tie, math.inf))
        assert [cli._name_value(x) for x in values] == [name] * 3, tie
    assert cli._name_value(-1e-12) == "0.000"


def test_einstein_constant_has_one_name_per_algebra(capsys):
    # u6 has the constant 35/16 at alpha = -0.5 and at 0.5.
    code, out, _ = run(capsys, "einstein", "u6", "--alphas=-0.5,0.5", "--format", "json")
    names = [c["name"] for c in json.loads(out)["checks"] if "center" in c["name"]]
    assert code == 0 and len(names) == 2
    assert all(name.endswith("vs Einstein constant 2.188)") for name in names), names


def _battery_shape(capsys, *argv):
    """Each check of a battery run as 'PASS name', 'FAIL name' or 'ERRATUM
    name' (a failure flagged as a known upstream data error)."""
    _, out, _ = run(capsys, *argv, "--format", "json")
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
    code, out, _ = run(capsys, "catalog-dump", "--format", "json")
    doc = json.loads(out)
    assert any(r["id"] == "E7/SU3" for r in doc["rows"])


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "classify", "SO7/G2", "--format", "json",
                       "--output", str(target))
    assert code == 0
    assert json.loads(target.read_text())["rows"][0]["id"] == "SO7/G2"


SO7_G2 = {"id": "SO7/G2", "ambient": {"series": "SO", "n": 7}, "factors": [["G", 2]],
          "constituents": [[[1, 0]]], "expected": {"a": 1, "s": 0, "N": 1, "l": 1, "type": "r"},
          "source": "table5"}


# The one bundled row with two candidate modules, whose notes `classify` joins.
SP16_SPIN12 = {"id": "Sp16/Spin12", "ambient": {"series": "Sp", "n": 16}, "factors": [["D", 6]],
               "constituents": [[[0, 0, 0, 0, 0, 2]]], "alt_constituents": [[[0, 0, 0, 0, 2, 0]]],
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
    "catalog exceptional ambient of an unknown rank": lambda tmp: [
        "catalog-dump", "--catalog", _catalog_file(tmp, ambient={"series": "E", "n": 5})],
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
    "catalog note that is not a string": lambda tmp: [
        "table", "--catalog", _catalog_doc(tmp, {"rows": [dict(SP16_SPIN12, note=5)]})],
    "catalog version 2": lambda tmp: [
        "table", "--catalog", _catalog_doc(tmp, {"version": 2, "rows": [SO7_G2]})],
    "catalog version that is a string": lambda tmp: [
        "catalog-dump", "--catalog", _catalog_doc(tmp, {"version": "1", "rows": [SO7_G2]})],
    "verify-un unknown flag --tolerance inf": lambda tmp: ["verify-un", "4", "--tolerance", "inf"],
    "verify-un unknown flag --tolerance nan": lambda tmp: ["verify-un", "4", "--tolerance", "nan"],
    "einstein nan alpha": lambda tmp: ["einstein", "u3", "--alphas=nan"],
    "einstein infinite alpha": lambda tmp: ["einstein", "u3", "--alphas=0.5,inf"],
    "einstein alpha that overflows": lambda tmp: ["einstein", "u3", "--alphas=1e400"],
    "einstein alpha whose residual overflows": lambda tmp: ["einstein", "su5", "--alphas=1e100"],
    "einstein repeated alpha": lambda tmp: ["einstein", "su3", "--alphas=1,1.0,-0"],
    "einstein su1": lambda tmp: ["einstein", "su1"],
    "einstein unbalanced parenthesis su(3": lambda tmp: ["einstein", "su(3"],
    "einstein unbalanced parenthesis su3)": lambda tmp: ["einstein", "su3)"],
    "einstein non-numeric alphas": lambda tmp: ["einstein", "su3", "--alphas", "a,b"],
    "einstein over the size limit": lambda tmp: ["einstein", "su40"],
    "verify-un over the size limit": lambda tmp: ["verify-un", "30"],
    "verify-un negative seed": lambda tmp: ["verify-un", "4", "--seed", "-3"],
    "decompose weight of the wrong length": lambda tmp: ["decompose", "A2", "alt2",
                                                         "--hw", "1,0,0"],
    "decompose second weight of the wrong length": lambda tmp: [
        "decompose", "A2", "tensor", "--hw", "1,0", "--hw2", "1"],
    "decompose second weight for a square": lambda tmp: [
        "decompose", "A2", "alt2", "--hw", "1,0", "--hw2", "0,1"],
    "unknown catalog row": lambda tmp: ["classify", "XX/YY"],
    "verify-un unknown flag --tolerance abc": lambda tmp: ["verify-un", "4", "--tolerance", "abc"],
    "verify-un non-numeric n": lambda tmp: ["verify-un", "x"],
    "unknown command": lambda tmp: ["frobnicate"],
    "decompose without --hw": lambda tmp: ["decompose", "A2", "alt2"],
    "table unknown flag --jobs 0": lambda tmp: ["table", "--jobs", "0"],
    "table with a zero budget": lambda tmp: ["table", "--budget", "0,50000"],
    "family with a missing parameter": lambda tmp: ["classify", "SU_pq", "--p", "3"],
    "family with a foreign parameter": lambda tmp: ["classify", "SU_2q", "--n", "3"],
    "family with a catalog": lambda tmp: ["classify", "SU_pq", "--p", "3", "--q", "3",
                                          "--catalog", str(tmp / "absent.json")],
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


@pytest.mark.parametrize("argv", [["--help"], ["verify-un", "--help"], ["table", "--help"]])
def test_help_prints_usage_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr().out
    listed = {"--help": "catalog-dump", "verify-un": "--seed", "table": "--budget"}[argv[0]]
    assert exc.value.code == 0 and out.startswith("usage: invconn") and listed in out


def test_key_error_message_is_not_quoted(capsys):
    code, _, err = run(capsys, "classify", "XX/YY")
    assert code == 2
    assert err == "error: no catalog row with id 'XX/YY'\n"


@pytest.mark.parametrize("doc,message", [
    ({"version": True, "rows": [SO7_G2]}, "version is True, not an integer"),
    ({"version": 1, "rows": [dict(SO7_G2, ambient={"series": "SO", "n": 7.9})]},
     "bad catalog record 'SO7/G2': ambient n is 7.9, not an integer"),
    ({"rows": [dict(SO7_G2, factors=[["G", 2.5]])]}, "factor rank is 2.5, not an integer"),
    ({"rows": [dict(SO7_G2, constituents=[[[1.7, 0]]])]}, "weight label is 1.7, not an integer"),
    ({"rows": [dict(SO7_G2, expected=dict(SO7_G2["expected"], a=True))]},
     "expected a is True, not an integer"),
    # The string keys are named the same way.
    ({"rows": [dict(SP16_SPIN12, note=5)]}, "bad catalog record 'Sp16/Spin12': note is 5, not a string"),
    ({"rows": [dict(SO7_G2, source=["table5"])]}, "source is ['table5'], not a string"),
])
def test_catalog_integer_errors_name_the_key(capsys, tmp_path, doc, message):
    code, _, err = run(capsys, "table", "--catalog", _catalog_doc(tmp_path, doc))
    assert code == 2 and err.startswith("error: ") and err.endswith(f"{message}\n") and err.count("\n") == 1


def test_a_row_id_with_spaces_is_selected_with_or_without_them(capsys, tmp_path):
    path = _catalog_file(tmp_path, id="SO7 / G2")
    for selector in ("SO7 / G2", "SO7/G2", "so7/g2"):
        code, out, _ = run(capsys, "classify", selector, "--catalog", path, "--format", "json")
        assert code == 0 and [r["id"] for r in json.loads(out)["rows"]] == ["SO7 / G2"]


def test_ids_that_select_the_same_row_are_refused_by_name(capsys, tmp_path):
    path = _catalog_doc(tmp_path, {"rows": [SO7_G2, dict(SO7_G2, id="so7 / g2")]})
    code, out, err = run(capsys, "classify", "SO7/G2", "--catalog", path)
    assert (code, out, err) == (2, "", "error: duplicate row ids in catalog: 'SO7/G2' and 'so7 / g2'\n")


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


def _un_battery_peak(n: int) -> int:
    """The tracemalloc peak of `un_battery(n)` above what was allocated before."""
    import tracemalloc

    from invconn import cli
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cli.un_battery(n)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_un_battery_10_peak_memory():
    # The maps and the derivative blocks hold nonzeros only; the eight
    # Laquer maps alone take 64 MiB as dense arrays.
    assert _un_battery_peak(10) <= 16 << 20


def test_un_battery_10_peak_memory_with_small_join_blocks():
    # A join block of 2^14 products holds 640 KiB in its five arrays, and no
    # tensor keeps a join's preparations after the join.  The derivation
    # defect runs first, while only the maps are alive, and the Laquer maps
    # go once no check reads them: the peak, 2.2 MiB, is the derivation
    # defect's, with the algebra's build within 0.1 MiB of it.
    assert _un_battery_peak(10) <= 3 << 20


def test_un_battery_8_peak_memory():
    # At u(8) the join blocks set the peak: 1.57 MiB with blocks of 2^14
    # products, 2.38 MiB with blocks of 2^15.
    assert _un_battery_peak(8) <= 2 << 20


def test_battery_lines_do_not_depend_on_the_join_blocks(monkeypatch):
    # Equal codes sum in the order their products were formed, whatever
    # rows a block holds, so the residuals read the same for every block
    # size that keeps the sums on the sort branch of `sum_by_code`.
    from invconn import cli, conncalc
    alphas = [-2, -1, -0.5, 0, 0.5, 1, 1.5, 2, 3]

    def lines():
        runs = [cli.un_battery(n) for n in range(3, 9)]
        runs += [cli.einstein_battery(name, n, alphas) for name, n in (("su", 5), ("so", 7), ("u", 5), ("su", 8))]
        return [c.line for checks in runs for c in checks]

    seen = []
    for block in (1 << 12, 1 << 14, 1 << 16):
        monkeypatch.setattr(conncalc, "_BLOCK_PRODUCTS", block)
        seen.append(lines())
    assert len(seen[0]) == 172 and seen[0] == seen[1] == seen[2]


def test_verify_un_builds_the_laquer_maps_once(monkeypatch):
    from invconn import cli, conncalc
    calls = []
    real = conncalc.laquer_basis
    monkeypatch.setattr(conncalc, "laquer_basis", lambda alg: calls.append(alg) or real(alg))
    cli.un_battery(3)
    assert len(calls) == 1


def test_verify_un_forms_each_trace_join_once(monkeypatch):
    # The trace vector of the vectorial map comes with its type conditions:
    # the battery forms no second `ijk,ij->k` join on that map, and the
    # Laquer maps read the Gram matrix of the algebra instead of an
    # `iab,jba->ij` join.
    from invconn import cli, conncalc
    specs = []
    real = conncalc._einsum_blocks
    monkeypatch.setattr(conncalc, "_einsum_blocks",
                        lambda terms: specs.append([t[0] for t in terms]) or real(terms))
    cli.un_battery(3)
    assert len(specs) == 41
    assert ["iab,jba->ij"] not in specs
    assert specs.count(["ijk,ij->k"]) == 2  # the vectorial map and the bracket family


def test_each_battery_forms_its_center_direction_once(monkeypatch):
    # verify-un reads coeffs(i Id) from `MatrixAlgebra.center` in the Laquer
    # maps and in its checks; einstein forms its center direction once, not
    # once per alpha.
    from invconn import cli, conncalc
    calls = []
    real = conncalc.MatrixAlgebra.coeffs
    monkeypatch.setattr(conncalc.MatrixAlgebra, "coeffs",
                        lambda alg, m: calls.append(alg.name) or real(alg, m))
    cli.un_battery(3)
    assert calls == ["u(3)"]
    calls.clear()
    cli.einstein_battery("u", 4, [-2, -1, -0.5, 0, 0.5, 1, 1.5, 2, 3])
    assert calls == ["u(4)"]
    calls.clear()
    cli.einstein_battery("su", 3, [0.5, 2])
    assert calls == []


def test_flatness_line_follows_the_default_tolerance(monkeypatch):
    # J, the derivative of the bracket along (c, c, -c^T), is the flat line
    # at alpha = -1 and, times |t alpha| = 1 at alpha = -1 and 2, the
    # parallel-torsion line.  At 5e-10 they pass under DEFAULT_TOL = 1e-9
    # (4e-9 at alpha = 2) and fail under 1e-11, like every other line of
    # the battery; at alpha = +1 both lines read exactly 0.
    from invconn import cli, conncalc

    def lines():
        return [(c.name, c.passed, c.detail) for c in cli.einstein_battery("u", 3, [-1.0, 1.0, 2.0])
                if c.name.endswith(("flat connection", "parallel torsion"))]

    def expect(passed):
        return [("alpha=-1: parallel torsion", passed, "5.000e-10"),
                ("alpha=-1: flat connection", passed, "5.000e-10"),
                ("alpha=1: parallel torsion", True, "0.000e+00"),
                ("alpha=1: flat connection", True, "0.000e+00"),
                ("alpha=2: parallel torsion", passed, "5.000e-10")]

    monkeypatch.setattr(conncalc, "parallel_defect", lambda alg, mu, f: 5e-10)
    assert lines() == expect(True)
    monkeypatch.setattr(conncalc, "DEFAULT_TOL", 1e-11)
    assert lines() == expect(False)


# The algebras and parameters on which the Einstein battery's coefficient
# path is held against each member's own joins.
TWO_PATH_ALGEBRAS = [("su", 3), ("su", 5), ("so", 5), ("so", 7), ("u", 3), ("u", 5)]
TWO_PATH_ALPHAS = [-1e7, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0, 1e4]


def _two_path_gaps(name: str, n: int) -> list:
    """(alpha, what) wherever the Einstein battery, which reads every alpha
    from the bracket's m_c, J, Q and L, and the per-member path on
    mu_alpha = `bracket_family_map(alg, alpha)` disagree: a metric defect,
    Ricci matrix or parallel-torsion defect apart by more than
    1e-13 max(1, t^2) max|Q, L|, a refused member, or a line of the battery
    that the member's own defects decide the other way."""
    import numpy as np

    from invconn import conncalc
    alg = conncalc.build_algebra(name, n)
    c = alg.bracket
    parts = (conncalc.metric_defect(alg, c), conncalc.parallel_defect(alg, c, c),
             *conncalc.ricci_parts(alg, c))
    scale = max(np.abs(parts[2]).max(), np.abs(parts[3]).max())
    lines = iter(cli.einstein_battery(name, n, TWO_PATH_ALPHAS))
    gaps = []
    for alpha in TWO_PATH_ALPHAS:
        t, tol = (1.0 - alpha) / 2.0, conncalc.DEFAULT_TOL * max(1.0, alpha * alpha)
        mu = bracket_family_map(alg, alpha)
        member = dict(metric=conncalc.metric_defect(alg, mu), ricci=conncalc.ricci_matrix(alg, mu),
                      torsion=conncalc.parallel_defect(alg, mu, conncalc.torsion(alg, mu)))
        coeffs = dict(zip(member, cli._bracket_member(alpha, *parts)))
        gaps += [(alpha, k) for k in member
                 if np.abs(coeffs[k] - member[k]).max() > 1e-13 * max(1.0, t * t) * scale]
        if not member["metric"] < tol:
            gaps.append((alpha, "refused"))
        einstein = conncalc.einstein_report(alg, member["ricci"]).residual < tol
        decisions = [member["torsion"] < tol]
        if alpha in (1.0, -1.0):
            decisions.append(flatness_defect(alg, mu) < tol)
        decisions.append(einstein if name != "u" or alpha in (1.0, -1.0) else not einstein)
        gaps += [(alpha, line.name) for passed, line in zip(decisions, lines) if line.passed != passed]
    assert next(lines, None) is None
    return gaps


@pytest.mark.parametrize("name,n", TWO_PATH_ALGEBRAS)
def test_einstein_coefficients_agree_with_each_member(name, n):
    assert _two_path_gaps(name, n) == []


@pytest.mark.parametrize("name,n", TWO_PATH_ALGEBRAS)
def test_einstein_coefficients_are_the_members_own_joins(name, n):
    # At alpha = -1 the flat line joins the operands of J; Ricci is Q - L.
    import numpy as np

    from invconn import conncalc
    alg = conncalc.build_algebra(name, n)
    c = alg.bracket
    assert conncalc.parallel_defect(alg, c, c) == flatness_defect(alg, c)
    quad, lin = conncalc.ricci_parts(alg, c)
    assert np.array_equal(conncalc.ricci_matrix(alg, c), quad - lin)


def _drop_bracket_term(real):
    return lambda alpha, m_c, j, quad, lin: real(alpha, m_c, j, quad, 0.0 * lin)


def _t_for_t_squared(real):
    def member(alpha, m_c, j, quad, lin):
        metric, _, dt = real(alpha, m_c, j, quad, lin)
        t = (1.0 - alpha) / 2.0
        return metric, t * quad - t * lin, dt
    return member


@pytest.mark.parametrize("mutant", [_drop_bracket_term, _t_for_t_squared])
@pytest.mark.parametrize("name,n", [("su", 3), ("u", 3)])
def test_a_wrong_einstein_coefficient_fails_the_two_path_check(monkeypatch, mutant, name, n):
    monkeypatch.setattr(cli, "_bracket_member", mutant(cli._bracket_member))
    assert (0.0, "ricci") in _two_path_gaps(name, n)


def test_einstein_joins_do_not_grow_with_the_alphas(monkeypatch):
    # m_c, J, Q and L are formed once per algebra; each alpha adds no join.
    from invconn import conncalc
    joins = []
    real = conncalc._einsum_blocks
    monkeypatch.setattr(conncalc, "_einsum_blocks", lambda terms: joins.append(1) or real(terms))
    counts = []
    for alphas in ([0.5], [-2, -1, -0.5, 0, 0.5, 1, 1.5, 2, 3]):
        joins.clear()
        cli.einstein_battery("su", 5, alphas)
        counts.append(len(joins))
    assert counts[0] == counts[1]


# -- one flag set per command -----------------------------------------------------

# The shared flags each command's handler reads, besides its own arguments.
READS = {
    "classify": {"--format", "--budget", "--strict", "--catalog", "--output"},
    "table": {"--format", "--budget", "--strict", "--catalog", "--output"},
    "decompose": {"--output"},
    "verify-un": {"--format", "--seed", "--output"},
    "einstein": {"--format", "--output"},
    "catalog-dump": {"--format", "--catalog", "--output"},
}
# A cheap call of each command; the table sweeps the exception block under a tiny budget.
CHEAP = {
    "classify": ["classify", "SO7/G2"],
    "table": ["table", "--only", "exceptions", "--budget", "1,1"],
    "decompose": ["decompose", "A1", "sym2", "--hw", "1"],
    "verify-un": ["verify-un", "3"],
    "einstein": ["einstein", "su2", "--alphas", "1"],
    "catalog-dump": ["catalog-dump"],
}


def _shared_flags(tmp_path):
    """Each shared flag with a valid value (`--strict` takes none)."""
    return {"--format": ["json"], "--tolerance": ["1e-9"], "--seed": ["7"],
            "--budget": ["1,1"], "--strict": [], "--catalog": [_catalog_file(tmp_path)],
            "--output": [str(tmp_path / "report.txt")]}


def _refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "", argv
    assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)


@pytest.mark.parametrize("command", sorted(READS))
def test_each_command_parses_only_the_flags_it_reads(capsys, tmp_path, command):
    for flag, value in _shared_flags(tmp_path).items():
        argv = [*CHEAP[command], flag, *value]
        _refused(capsys, [flag, *value, *CHEAP[command]])
        if flag not in READS[command]:
            _refused(capsys, argv)
            continue
        code, out, err = run(capsys, *argv)
        assert code in (0, 1) and err == "", (argv, err)
        if flag == "--output":
            assert out == "" and (tmp_path / "report.txt").read_text(), argv
        elif flag == "--format":
            json.loads(out)
    if command in ("verify-un", "einstein", "catalog-dump"):
        _refused(capsys, [*CHEAP[command], "--format", "csv"])


@pytest.mark.parametrize("command", sorted(CHEAP))
def test_an_output_file_holds_the_stdout_bytes(capsys, tmp_path, command):
    code, out, _ = run(capsys, *CHEAP[command])
    target = tmp_path / "report.txt"
    assert run(capsys, *CHEAP[command], "--output", str(target)) == (code, "", "")
    assert target.read_bytes() == out.encode() and out.endswith("\n")


def test_catalog_dump_json_round_trips(capsys, tmp_path):
    dump = tmp_path / "dump.json"
    assert run(capsys, "catalog-dump", "--format", "json", "--output", str(dump)) == (0, "", "")
    bundled = resources.files("invconn.data").joinpath("catalog.json").read_text()
    assert json.loads(dump.read_text()) == json.loads(bundled)

    def report(*argv):
        code, out, err = run(capsys, *argv, "--format", "json")
        doc = json.loads(out)
        for row in doc["rows"]:
            row.pop("elapsed_ms")
        return code, doc, err

    budget = ("--budget", "20000,50000")
    assert report("table", *budget, "--catalog", str(dump)) == report("table", *budget)
    # Sp16/Spin12, the row with two candidate modules, is skipped under that budget.
    flip = report("classify", "Sp16/Spin12", "--catalog", str(dump))
    assert flip == report("classify", "Sp16/Spin12")
    assert flip[1]["rows"][0]["note"].endswith("; both candidate modules agree")


# -- one parser per process ------------------------------------------------------

def test_the_parser_is_built_once():
    assert build_parser() is build_parser()


def test_repeated_main_calls_share_no_state(capsys, monkeypatch):
    budgets = []
    monkeypatch.setattr(siiclass, "classify_catalog",
                        lambda entries, budget: budgets.append(budget) or [])
    assert run(capsys, "table", "--budget", "1,1")[0] == 0
    assert run(capsys, "table")[0] == 0
    assert budgets == [siiclass.Budget(1, 1), siiclass.Budget()]

    # Flags in two orders after the command, then without --format.
    before = run(capsys, "verify-un", "--format", "json", "3", "--seed", "5")
    after = run(capsys, "verify-un", "3", "--seed", "5", "--format", "json")
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
    "--catalog": ["@absent.json", "@bad.json"],
    "--output": ["@out.txt", "@", "@nodir/out.txt"],
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
    sweeps, shared flags (mostly ones the command reads, sometimes one it does
    not) and command options with good and bad values, and sometimes one
    stray token anywhere.  `@name` stands for a path in the test's directory."""
    command = draw(st.sampled_from(sorted(_COMMANDS) + ["frobnicate"]))
    argv = [command] + [draw(p) for p in _COMMANDS.get(command, [])]
    if command in ("table", "classify"):
        argv += ["--budget", "1,1"]
    own = sorted(READS.get(command, set()) & set(_FLAG_VALUES))
    foreign = sorted(set(_FLAG_VALUES) - set(own))
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.sampled_from(own if own and draw(st.integers(0, 4)) else foreign))
        argv += [flag, draw(st.sampled_from(_FLAG_VALUES[flag]))]
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
