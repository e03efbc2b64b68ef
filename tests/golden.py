"""Golden outputs of the commands, and the script that rewrites them.

Each file under `tests/data/golden` but `decompose.txt` holds one command:
a line with its arguments, a line with its exit code, then its stdout with
every `elapsed_ms` value masked.

`decompose.txt` holds one line per `decompose` cell of the benchmark's
plethysm pool (`benchmarks/data/plethysm_pool.json`, read, never written):
the sha256 of its exit code and stdout, then its arguments.

A fresh run must match the files exactly.

    python tests/golden.py            compare; exit 1 and name the files that differ
    python tests/golden.py --write    rewrite the files

A change that alters an output on purpose commits the rewritten files.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden"
POOL = ROOT / "benchmarks" / "data" / "plethysm_pool.json"
DECOMPOSE = "decompose.txt"
ALPHAS = "--alphas=-2,-1,-0.5,0,0.5,1,1.5,2,3"
ALGEBRAS = ("su3", "su4", "su5", *(f"so{n}" for n in range(5, 11)), *(f"u{n}" for n in range(3, 9)))
CASES = {
    "table.txt": ["table", "--format", "json"],
    "table-budget-20000-50000.txt": ["table", "--format", "json", "--budget", "20000,50000"],
    "table-budget-unlimited.txt": ["table", "--format", "json", "--budget", "unlimited"],
    "table-csv.txt": ["table", "--format", "csv"],
    **{f"verify-un-{n}.txt": ["verify-un", str(n), "--format", "json"] for n in range(3, 13)},
    "verify-un-3-seed-5.txt": ["verify-un", "3", "--seed", "5", "--format", "json"],
    **{f"einstein-{alg}.txt": ["einstein", alg, ALPHAS, "--format", "json"] for alg in ALGEBRAS},
    # The md battery renderings: the n = 3 and n = 4 errata, the random-direction
    # line, "not Einstein" names, flat lines and lines with no detail.
    "verify-un-3-md.txt": ["verify-un", "3", "--format", "md"],
    "verify-un-4-md.txt": ["verify-un", "4", "--format", "md"],
    "einstein-u4-md.txt": ["einstein", "u4", ALPHAS, "--format", "md"],
    "einstein-so5-md.txt": ["einstein", "so5", ALPHAS, "--format", "md"],
}
MD = [name for name in CASES if name.endswith("-md.txt")]
FILES = [*CASES, DECOMPOSE]

_ELAPSED = re.compile(r'("elapsed_ms": )[^,\n]+')


def run(argv: list[str]) -> tuple[int, str]:
    """The exit code and stdout of one command, run in this process."""
    from invconn.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def decompose_cells() -> list[list[str]]:
    """The arguments of each `decompose` cell of the plethysm pool."""
    return [["decompose", c["system"], c["expr"], "--hw", ",".join(map(str, c["hw"]))]
            for c in json.loads(POOL.read_text(encoding="utf-8"))["decompose"]]


def _digest(argv: list[str]) -> str:
    """The sha256 of the exit code and stdout of one command."""
    code, out = run(argv)
    return hashlib.sha256(f"exit code {code}\n{out}".encode()).hexdigest()


def render(name: str) -> str:
    """The golden text of one file."""
    if name == DECOMPOSE:
        return "".join(f"{_digest(argv)}  {' '.join(argv)}\n" for argv in decompose_cells())
    argv = CASES[name]
    code, out = run(argv)
    return f"invconn {' '.join(argv)}\nexit code {code}\n" + _ELAPSED.sub(r'\1"masked"', out)


def differences(names=FILES) -> list[str]:
    """Those of the golden files `names` that are missing or differ from a
    fresh run."""
    return [name for name in names if not (GOLDEN / name).is_file()
            or (GOLDEN / name).read_text(encoding="utf-8") != render(name)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite the golden files")
    if parser.parse_args().write:
        GOLDEN.mkdir(parents=True, exist_ok=True)
        for name in FILES:
            (GOLDEN / name).write_text(render(name), encoding="utf-8")
        return 0
    bad = differences()
    for name in bad:
        print(f"differs: {GOLDEN / name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
