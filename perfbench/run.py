"""pkcore benchmark.

    python3 perfbench/run.py --workload {cells,queries,primes} --seed N --seconds S --trace {0,1}

Run from the root of a checkout. Builds the seeded call list and its
expected answers, then runs passes, each in a fresh worker process, until
the time budget is spent. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics: the end_to_end metrics of
BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1. Times
are scaled to a fixed reference CPU speed (see worker.py); the line before
the result records the environment and the unscaled metrics. Each
run also writes its record, and with --trace 1 the spans of its last
traced pass, under perfbench/out/.
See perfbench/README.md for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("cells", "queries", "primes")
SETUP_SAMPLES = 25  # fresh-process imports per run, pass workers included
WORKER_TIMEOUT_S = 170
STEAL_TOL = 0.01  # see call_latencies
PASS_RECORD = (
    "traced", "durations", "scaled_durations", "cpu_s", "scaled_cpu_s",
    "off_cpu", "speed", "peak_rss_mb", "import_s", "scaled_import_s", "failed",
)


def run_worker(job: dict | None) -> dict:
    """One fresh worker process: a pass when given a job, else an import probe."""
    cmd = [sys.executable, str(HERE / "worker.py")] + ([] if job else ["--import-only"])
    proc = subprocess.run(
        cmd,
        input=json.dumps(job) if job else "",
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(calls: list[dict], seconds: float, trace: bool, spans_path: Path | None = None):
    """Passes until starting another would overrun `seconds`; at least one,
    and with trace an untraced and a traced one, alternating. An import
    probe runs before each pass, so set-up samples spread over the run.
    Returns (passes, import records of probes and pass workers)."""
    passes: list[dict] = []
    setup: list[dict] = []
    start = time.perf_counter()
    while True:
        setup.append(run_worker(None))
        traced = trace and len(passes) % 2 == 1
        job = {"calls": calls, "trace": traced, "spans": str(spans_path) if traced and spans_path else None}
        passes.append(run_worker(job))
        setup.append(passes[-1])
        elapsed = time.perf_counter() - start
        if len(passes) >= (2 if trace else 1) and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    setup += [run_worker(None) for _ in range(SETUP_SAMPLES - len(setup))]
    return passes, [{k: s[k] for k in ("import_s", "scaled_import_s")} for s in setup]


def _pass_wall(passes: list[dict]) -> float:
    return statistics.mean(sum(p["scaled_durations"]) for p in passes)


def _p99(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=100, method="inclusive")[98] if len(xs) > 1 else xs[0]


def call_latencies(passes: list[dict], key: str) -> list[float]:
    """Every pass makes the same calls. A call's latency is its median time
    over the passes in which it spent at most STEAL_TOL of its time more off
    the CPU than in the pass where it spent least: on a shared VM the host
    takes the CPU away in bursts (steal time), and with the two to five
    passes a run holds, a plain median would still carry a burst into the
    tail."""
    out = []
    for offs, raw, times in zip(*(zip(*(p[k] for p in passes)) for k in ("off_cpu", "durations", key))):
        least = min(offs)
        out.append(statistics.median(t for o, r, t in zip(offs, raw, times) if o - least <= STEAL_TOL * r))
    return out


def end_to_end(passes: list[dict], setup: list[dict], scaled: bool = True) -> dict[str, float]:
    """The end_to_end metrics, times at the reference speed unless not
    `scaled`."""
    pre = "scaled_" if scaled else ""
    attempted = sum(len(p["durations"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    med = statistics.median
    latency = call_latencies(passes, pre + "durations")
    return {
        "wall_s": sum(latency),
        "cpu_s": statistics.mean(p[pre + "cpu_s"] for p in passes),
        "setup_s": med(s[pre + "import_s"] for s in setup),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
        "verified_ratio": (attempted - failed) / attempted,
        "call_ms_p50": 1000 * med(latency),
        "call_ms_p99": 1000 * _p99(latency),
    }


def per_layer(passes: list[dict], names: list[str]) -> dict[str, float]:
    """Per-pass medians of the traced passes' per-function and per-module
    totals, self times at the reference speed."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = {}
    for name in names:
        if name == "trace.overhead_ratio":
            out[name] = _pass_wall(traced) / _pass_wall(plain)
            continue
        scope, field = name.rsplit(".", 1)
        col = {"calls": 0, "self_s": 1}[field]
        values = [
            sum(v[col] for fn, v in p["layers"].items() if fn == scope or fn.startswith(scope + "."))
            for p in traced
        ]
        out[name] = statistics.median_low(values) if field == "calls" else statistics.median(values)
    return out


def environment(args) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
            env=os.environ | {"GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="pkcore benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    # a terminated run raises here, and subprocess.run then kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    missing = [p for p in ("src/pkcore/__init__.py", "tests/oracles.py", "BENCHMARK.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"not a pkcore checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import workloads  # imports tests/oracles.py (and sympy) only once the checkout is known

    calls = workloads.build(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_worker(None)  # first import in this checkout may compile bytecode; not a sample
    passes, setup = run_passes(calls, args.seconds, bool(args.trace), OUT / f"{stem}.spans.tsv")
    attempted = sum(len(p["durations"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        metrics = per_layer(passes, [m["name"] for m in spec["per_layer"]])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = end_to_end(passes, setup)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    env = environment(args)
    if not args.trace:
        env["unscaled"] = end_to_end(passes, setup, scaled=False)
    errors = [e for p in passes for e in p["errors"]]
    for err in errors[:10]:
        print(f"wrong answer: {err}", file=sys.stderr)
    record = {
        "env": env,
        "result": result,
        "passes": [{k: p[k] for k in PASS_RECORD} for p in passes],
        "traced_self_times": [p["layers"] for p in passes if p["traced"]],
        "setup_samples": setup,
        "errors": errors,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
