"""Golden outputs of the commands, and the script that rewrites them.

Each file under `tests/data/golden` but `decompose.txt` holds one command:
a line with its arguments, a line with its exit code, then

  - for `table --format json`, its stdout with every `elapsed_ms` value
    masked;
  - for a battery (`verify-un`, `einstein`), one JSON line per check:
    [name, passed, known_upstream_issue].  The float details stay out:
    their last digits depend on the BLAS kernels.

`decompose.txt` holds one line per `decompose` cell of the benchmark's
plethysm pool (`benchmarks/data/plethysm_pool.json`, read, never written):
the sha256 of its exit code and stdout, then its arguments.

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
ALPHAS = "--alphas=-2,-1,0.5,1,3"
NINE_ALPHAS = "--alphas=-2,-1,-0.5,0,0.5,1,1.5,2,3"

CASES = {
    "table.txt": ["table", "--format", "json"],
    "table-budget-20000-50000.txt": ["table", "--format", "json", "--budget", "20000,50000"],
    "table-budget-unlimited.txt": ["table", "--format", "json", "--budget", "unlimited"],
    **{f"verify-un-{n}.txt": ["verify-un", str(n), "--format", "json"] for n in range(3, 13)},
    "verify-un-3-seed-5.txt": ["verify-un", "3", "--seed", "5", "--format", "json"],
    **{f"einstein-{alg}.txt": ["einstein", alg, ALPHAS, "--format", "json"]
       for alg in ("su3", "so5", "u4")},
    **{f"einstein-{alg}.txt": ["einstein", alg, NINE_ALPHAS, "--format", "json"]
       for alg in ("su4", "su5", *(f"so{n}" for n in range(6, 11)), "u3", "u5", "u6", "u7", "u8")},
}
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
    head = f"invconn {' '.join(argv)}\nexit code {code}\n"
    if argv[0] == "table":
        return head + _ELAPSED.sub(r'\1"masked"', out)
    return head + "".join(json.dumps([c["name"], c["passed"], c["known_upstream_issue"]]) + "\n"
                          for c in json.loads(out)["checks"])


def differences(names=FILES) -> list[str]:
    """Those of the golden files `names` that are missing or differ from a
    fresh run."""
    return [name for name in names
            if not (GOLDEN / name).is_file() or (GOLDEN / name).read_text(encoding="utf-8") != render(name)]


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
