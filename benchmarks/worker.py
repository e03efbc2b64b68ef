"""One cold process of one workload: set up, run every item, report.

    python3 benchmarks/worker.py WORKLOAD SEED T0 OUT [--setup-only] [--trace SPANS]

`run.py` starts it with PYTHONPATH pointing at the checkout's `src`.  T0 is
the parent's `time.monotonic()` just before the start, so `setup_s` covers
interpreter start, importing numpy and invconn, generating the inputs and
loading the generated catalog.  OUT receives JSON lines: a header, one line
per item with its output, and a footer with the timings.  Only the item
calls themselves are timed; writing their outputs is not.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path


def _peak_rss_mb() -> float:
    """This process's peak RSS.  `ru_maxrss` would not do: after exec it still
    holds the parent's RSS at fork time, so the runner's memory leaks in."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _run_item(item: dict, cli, chars, rootsys) -> dict:
    if item["kind"] == "square":
        rs = rootsys.RootSystem([rootsys.SimpleType(p[0], int(p[1:]))
                                 for p in item["system"].split("x")])
        chi = chars.irrep_character(rs, tuple(item["hw"]))
        return {"tensor": chars.tensor(chi, chi).mult, "alt2": chars.alt2(chi).mult,
                "sym2": chars.sym2(chi).mult}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(item["argv"])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _jsonable(result: dict) -> dict:
    if "exit" in result or "error" in result:
        return result
    return {name: [[list(w), m] for w, m in sorted(mult.items())] for name, mult in result.items()}


def main(argv: list[str]) -> int:
    workload, seed, t0, out = argv[0], int(argv[1]), float(argv[2]), Path(argv[3])
    trace_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None

    import numpy
    from invconn import chars, cli, rootsys, siiclass

    import workloads

    items = workloads.generate(workload, seed)
    inputs = workloads.serialize(items).decode()
    for item in items:
        if item["kind"] == "table":
            path = out.with_name(out.stem + ".catalog.json")
            path.write_text(json.dumps({"version": 1, "rows": item["rows"]}, sort_keys=True))
            siiclass.load_catalog(str(path))
            item["argv"] = item["argv"] + ["--catalog", str(path)]
    tracer = None
    if trace_path:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    setup_s = time.monotonic() - t0

    with out.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"setup_s": setup_s, "numpy": numpy.__version__,
                             "python": sys.version.split()[0],
                             "invconn": str(Path(cli.__file__).resolve().parent),
                             "inputs": inputs}) + "\n")
        if "--setup-only" in argv:
            return 0
        wall = cpu = 0.0
        for i, item in enumerate(items):
            if tracer:
                tracer.current_item = i
            t, c = time.perf_counter(), time.process_time()
            try:
                result = _run_item(item, cli, chars, rootsys)
            except (Exception, SystemExit) as exc:  # a failed item is counted, not fatal
                result = {"error": f"{type(exc).__name__}: {exc}"}
            dt = time.perf_counter() - t
            wall += dt
            cpu += time.process_time() - c
            fh.write(json.dumps({"item": i, **_jsonable(result)}) + "\n")
        peak = _peak_rss_mb()
        # cpu_s is kept beside wall_s to show whether the machine's slow-downs
        # are time the process waits (cpu_s < wall_s) or slower running.
        footer = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak}
        if tracer:
            tracer.dump(trace_path)
            footer["trace"] = tracer.summary()
        fh.write(json.dumps(footer) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
