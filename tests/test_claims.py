"""The claims ledger `docs/claims.md` against the repo: its commands are
golden cases, its golden files exist, its open rows name ROADMAP items and
its erratum rows name the erratum tests of `test_acceptance.py`."""

import ast
import itertools
import pathlib
import re

import pytest

import golden

ROOT = pathlib.Path(__file__).resolve().parents[1]
LEDGER = ROOT / "docs" / "claims.md"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
ROADMAP = ROOT / "ROADMAP.md"
COLUMNS = ["id", "result", "command", "golden file", "status"]


def _rows(text: str) -> list[dict]:
    """The ledger's table rows as {column: cell}."""
    lines = [line for line in text.splitlines() if line.startswith("|")]
    assert [c.strip() for c in lines[0].strip("|").split("|")] == COLUMNS
    return [dict(zip(COLUMNS, (c.strip() for c in line.strip("|").split("|")))) for line in lines[2:]]


def _expand(text: str) -> list[str]:
    """Shell brace expansion of `{a..b}` integer ranges."""
    match = re.search(r"\{(\d+)\.\.(\d+)\}", text)
    if match is None:
        return [text]
    head, tail = text[:match.start()], text[match.end():]
    return [f"{head}{k}{rest}" for k in range(int(match[1]), int(match[2]) + 1) for rest in _expand(tail)]


def _quoted(cell: str) -> list[str]:
    """The backquoted items of a cell, each brace-expanded."""
    return list(itertools.chain.from_iterable(_expand(q) for q in re.findall(r"`([^`]+)`", cell)))


def _open_items(roadmap: str) -> set[str]:
    """The numbers of the ROADMAP's open items."""
    return set(re.findall(r"^(\d+)\. \*\*", roadmap.split("## Open items", 1)[1], re.M))


def _erratum_tests(source: str) -> tuple[set[str], set[str]]:
    """The tests that the acceptance module's docstring names as erratum
    checks, and the test functions it defines."""
    tree = ast.parse(source)
    named = set(re.findall(r"\btest_\w+", ast.get_docstring(tree)))
    return named, {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def _problems(ledger: str, roadmap: str, acceptance: str) -> list[str]:
    """Every way the ledger disagrees with the golden cases, the golden
    files, the ROADMAP and the acceptance tests."""
    problems = []
    cases = {tuple(argv): name for name, argv in golden.CASES.items()}
    erratum_ids = set()
    rows = _rows(ledger)
    if [row["id"] for row in rows] != [f"C{k}" for k in range(1, len(rows) + 1)]:
        problems.append(f"ids are not C1, C2, ...: {[row['id'] for row in rows]}")
    for row in rows:
        rid = row["id"]
        commands = _quoted(row["command"])
        files = _quoted(row["golden file"])
        if not commands:
            problems.append(f"{rid}: names no command")
        for command in commands:
            argv = tuple(command.split())
            if argv[:1] != ("invconn",) or argv[1:] not in cases:
                problems.append(f"{rid}: {command!r} is not a case of tests/golden.py")
        for name in files:
            if not (golden.GOLDEN / name).is_file():
                problems.append(f"{rid}: golden file {name} does not exist")
        want = {cases[tuple(c.split())[1:]] for c in commands if tuple(c.split())[1:] in cases}
        if set(files) != want:
            problems.append(f"{rid}: golden files {sorted(files)} are not those of its commands {sorted(want)}")
        status = row["status"]
        if "open" in status:
            items = re.findall(r"ROADMAP item (\d+)", status)
            if not items:
                problems.append(f"{rid}: an open row names no ROADMAP item")
            problems += [f"{rid}: ROADMAP item {k} is not an open item" for k in items
                         if k not in _open_items(roadmap)]
        if "erratum" in status:
            ids = set(re.findall(r"`(test_\w+)`", status))
            if not ids:
                problems.append(f"{rid}: an erratum row names no acceptance test")
            erratum_ids |= ids
    named, defined = _erratum_tests(acceptance)
    if erratum_ids != named:
        problems.append(f"erratum tests {sorted(erratum_ids)} differ from the acceptance docstring's {sorted(named)}")
    problems += [f"{name} is not a test of test_acceptance.py" for name in sorted(named - defined)]
    return problems


def _sources() -> tuple[str, str, str]:
    return tuple(path.read_text(encoding="utf-8") for path in (LEDGER, ROADMAP, ACCEPTANCE))


def test_the_claims_ledger_agrees_with_the_repo():
    assert _problems(*_sources()) == []


def test_brace_expansion():
    assert _expand("verify-un-{3..5}.txt") == ["verify-un-3.txt", "verify-un-4.txt", "verify-un-5.txt"]
    assert _expand("{1..2}x{3..4}") == ["1x3", "1x4", "2x3", "2x4"]
    assert _expand("--alphas=-2,0") == ["--alphas=-2,0"]


@pytest.mark.parametrize("old,new,target", [
    ("`invconn table --format json`;", "`invconn table --format md`;", "ledger"),
    ("`verify-un-{3..12}.txt` | reproduced: on", "`verify-un-{3..13}.txt` | reproduced: on", "ledger"),
    ("`table.txt` | reproduced: its dimension", "`table-csv.txt` | reproduced: its dimension", "ledger"),
    ("(ROADMAP item 10)", "(the ROADMAP)", "ledger"),
    ("(ROADMAP item 10)", "(ROADMAP item 7)", "ledger"),
    (", `test_c6_n3_positivity`)", ")", "ledger"),
    ("  * test_c1_row_so4n_family_at_n2 --", "  * test_c1_so8_row --", "acceptance"),
])
def test_a_false_row_is_found(old, new, target):
    # A command that is no golden case, a golden file that does not exist or
    # is not its command's, an open row without a ROADMAP item (or with one
    # that is not open), and an erratum test missing on either side.
    ledger, roadmap, acceptance = _sources()
    if target == "ledger":
        assert old in ledger
        ledger = ledger.replace(old, new, 1)
    else:
        assert old in acceptance
        acceptance = acceptance.replace(old, new, 1)
    assert _problems(ledger, roadmap, acceptance) != []
