"""invconn benchmark: one workload, one seed, every output checked.

    python3 benchmarks/run.py --workload {catalog,plethysm,batteries} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every pass of the workload runs in a fresh
single-threaded Python process (`worker.py`) importing `invconn` from the
checkout's `src`, as a command-line user would pay for it.  Passes repeat
until S seconds have gone by (at least one).  Outputs are checked against
`oracle.py` after the worker has exited, outside the timed region.

--trace 0 reports the end-to-end metrics: `setup_s` (median over set-up
samples), `wall_s` (time to finish every item of a pass, median over
passes) and `peak_rss_mb` (median peak RSS of a pass process).
Items that raise or fail their check are `failed` of `attempted` in the
result line.

--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics of the traced one (see README.md).  Spans go to
`benchmarks/out/spans-<workload>-<seed>.json.gz`.

The last line of standard output is the result as one JSON object; each
run also writes it, with the environment, to `benchmarks/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5  # set-up-only processes before and again after the passes
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics of the traced pass.  `<span>.calls` and `<span>.s` (self
# time) come from the spans; other `<span>.<key>` names are work counters.
PER_LAYER = {
    "rootsys.signed_orbit.calls": "count", "rootsys.signed_orbit.points": "count",
    "rootsys.signed_orbit.s": "s",
    "rootsys.weyl_orbit.calls": "count", "rootsys.weyl_orbit.points": "count",
    "rootsys.weyl_orbit.s": "s",
    "rootsys.RootSystem.calls": "count", "rootsys.RootSystem.s": "s",
    "chars.point_query.calls": "count", "chars.point_query.terms": "count",
    "chars.point_query.s": "s",
    "chars.mult.calls": "count", "chars.mult.s": "s",
    "chars.PlethysmOps.init.s": "s", "chars.PlethysmOps.init.square_support": "count",
    "chars.tensor.calls": "count", "chars.tensor.pairs": "count", "chars.tensor.s": "s",
    "chars.decompose.calls": "count", "chars.decompose.terms": "count",
    "chars.decompose.input_support": "count", "chars.decompose.s": "s",
    "chars.irrep_character.calls": "count", "chars.irrep_character.repeat_ratio": "ratio",
    "chars.irrep_character.s": "s",
    "siiclass.load_catalog.calls": "count", "siiclass.load_catalog.s": "s",
    "siiclass.classify.rows": "count", "siiclass.classify.skipped": "count",
    "siiclass.classify.s": "s",
    "siiclass.support_estimate.s": "s", "siiclass.emit_tables.s": "s",
    "conncalc.build_algebra.s": "s", "conncalc.build_algebra.bytes": "B",
    "conncalc.laquer_basis.s": "s",
    "conncalc.bilinear_coeffs.matmuls": "count", "conncalc.bilinear_coeffs.s": "s",
    "conncalc.curvature.calls": "count", "conncalc.curvature.s": "s",
    "conncalc.curvature.bytes": "B",
    "conncalc.ricci_matrix.s": "s", "conncalc.equivariance_defect.s": "s",
    "conncalc.derivation_defect.s": "s", "conncalc.covariant_derivative.s": "s",
    "cli.main.s": "s", "cli.un_battery.s": "s", "cli.einstein_battery.s": "s",
    # Self time summed over each module's spans.
    "layer.rootsys.s": "s", "layer.chars.s": "s", "layer.siiclass.s": "s",
    "layer.conncalc.s": "s", "layer.cli.s": "s",
    # Shares of the traced wall time, from self times.
    "share.orbit_sum": "%", "share.tensor_decompose": "%", "share.conncalc": "%",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
}
SHARES = {
    "share.orbit_sum": ("chars.point_query", "chars.mult", "rootsys.signed_orbit"),
    "share.tensor_decompose": ("chars.tensor", "chars.decompose"),
}


class BenchError(RuntimeError):
    pass


def _environment() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        git_sha = sha.stdout.strip() if sha.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        git_sha = "unknown"
    return {"git_sha": git_sha, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine()}


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0",
            "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _worker(workload: str, seed: int, tag: str, deadline: float, extra=()) -> list[dict]:
    """Run one worker process to completion and return its JSON lines."""
    out = OUT / f"{workload}-{seed}-{os.getpid()}-{tag}.jsonl"
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), workload, str(seed),
                               repr(t0), str(out), *extra],
                              cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=timeout)
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        return [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    finally:
        out.unlink(missing_ok=True)
        out.with_name(out.stem + ".catalog.json").unlink(missing_ok=True)


def _check(items: list[dict], lines: list[dict], expected_inputs: str) -> tuple[int, list[str]]:
    """Check one pass; returns (attempted, failure messages)."""
    header, outputs = lines[0], lines[1:-1]
    if header["inputs"] != expected_inputs:
        raise BenchError("the worker generated different inputs from the same seed")
    if not header["invconn"].startswith(str(ROOT / "src")):
        raise BenchError(f"invconn imported from {header['invconn']}, not this checkout")
    attempted, fails = 0, []
    for item, out in zip(items, outputs):
        attempted += len(item["rows"]) if item["kind"] == "table" else 1
        if "error" in out:
            fails.append(f"{item['kind']} {item.get('argv', item.get('hw'))}: {out['error']}")
            continue
        kind = item["kind"]
        if kind == "table":
            found = oracle.check_table(item["rows"], out["stdout"], out["exit"],
                                       workloads.MAX_WEYL)
        elif kind == "family":
            found = oracle.check_family(item, out["stdout"], out["exit"])
        elif kind == "decompose":
            found = oracle.check_decompose(item, out["stdout"], out["exit"])
        elif kind == "square":
            found = oracle.check_square(
                item, {k: {tuple(w): m for w, m in v} for k, v in out.items()
                       if k in ("tensor", "alt2", "sym2")})
        else:
            found = oracle.check_battery(item, out["stdout"], out["exit"])
        if kind == "table":
            fails += found  # one message per wrong row
        elif found:
            fails.append("; ".join(found))
    if len(outputs) != len(items):
        fails.append(f"{len(outputs)} outputs for {len(items)} items")
    return attempted, fails


def per_layer(summary: dict, wall: float, untraced_wall: float) -> dict:
    calls, self_s, counters = summary["calls"], summary["self_s"], summary["counters"]
    values = {}
    for metric in PER_LAYER:
        span, _, key = metric.rpartition(".")
        if key in ("calls", "rows"):
            values[metric] = calls.get(span, 0)
        elif key == "s":
            values[metric] = self_s.get(span, 0.0)
        elif key == "repeat_ratio":
            n = calls.get(span, 0)
            values[metric] = counters.get(f"{span}.repeats", 0) / n if n else 0.0
        else:
            values[metric] = counters.get(metric, 0)
    for module in spans.MODULES:
        values[f"layer.{module}.s"] = sum(v for k, v in self_s.items()
                                          if k.startswith(module + "."))
    for metric, names in SHARES.items():
        values[metric] = 100.0 * sum(self_s.get(n, 0.0) for n in names) / wall
    values["share.conncalc"] = 100.0 * values["layer.conncalc.s"] / wall
    values["trace.wall_s"] = wall
    values["trace.overhead_s"] = wall - untraced_wall
    values["trace.spans"] = summary["spans"]
    return values


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    items = workloads.generate(workload, seed)
    expected_inputs = workloads.serialize(items).decode()

    def setup_samples(tag):
        return [_worker(workload, seed, f"{tag}{k}", deadline, ["--setup-only"])[0]["setup_s"]
                for k in range(0 if traced else SETUP_SAMPLES)]

    # Warm the file cache and byte-code caches; not counted.
    header = _worker(workload, seed, "warm", deadline, ["--setup-only"])[0]
    setups = setup_samples("before")
    passes = []
    start = time.monotonic()
    while not passes or (not traced and time.monotonic() - start < seconds):
        passes.append(_worker(workload, seed, f"pass{len(passes)}", deadline))
    setups += setup_samples("after")
    if traced:
        spans_path = OUT / f"spans-{workload}-{seed}.json.gz"
        passes.append(_worker(workload, seed, "traced", deadline, ["--trace", str(spans_path)]))

    attempted, fails = 0, []
    for lines in passes:
        n, found = _check(items, lines, expected_inputs)
        attempted += n
        fails += found
    footers = [lines[-1] for lines in passes]
    if traced:
        metrics = per_layer(footers[-1]["trace"], footers[-1]["wall_s"], footers[0]["wall_s"])
        units = PER_LAYER
    else:
        setups += [lines[0]["setup_s"] for lines in passes]
        metrics = {"setup_s": statistics.median(setups),
                   "wall_s": statistics.median(f["wall_s"] for f in footers),
                   "peak_rss_mb": statistics.median(f["peak_rss_mb"] for f in footers)}
        units = END_TO_END
    return {
        "result": {"correct": not fails, "attempted": attempted, "failed": len(fails),
                   "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}},
        "environment": {**_environment(), "numpy": header["numpy"]},
        "samples": {"setup_s": setups, "pass_wall_s": [f["wall_s"] for f in footers],
                    "pass_cpu_s": [f["cpu_s"] for f in footers],
                    "peak_rss_mb": [f["peak_rss_mb"] for f in footers]},
        "failures": fails,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "invconn" / "__init__.py").is_file():
        print(f"error: no invconn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = report["environment"]
    print(f"invconn benchmark  workload={args.workload} seed={args.seed} trace={args.trace}  "
          f"git {env['git_sha'][:12]}  python {env['python']}  numpy {env['numpy']}  "
          f"nproc {env['nproc']}")
    for name, m in report["result"]["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'ops':40s} {report['result']['attempted']:>16d}")
    print(f"  {'ops_failed':40s} {report['result']['failed']:>16d}")
    for msg in report["failures"][:20]:
        print(f"FAIL {msg}", file=sys.stderr)
    path = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, **report},
                               indent=1, sort_keys=True))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
