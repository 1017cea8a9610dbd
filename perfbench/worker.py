"""One pass of a workload in a fresh process.

Reads a job {"calls": [...], "trace": bool, "spans": path or null} as JSON
on stdin, runs every call in order, checks each answer after its timer
stops, and prints one JSON line with the per-call times, CPU time, peak
RSS, failures and, when traced, the per-function self times. With
--import-only it only reports how long importing pkcore took.

The speed of a shared CPU drifts by up to a factor of two within minutes,
so every time is also reported scaled to a fixed reference speed. Before
a call, once REF_EVERY_S has passed since the last sample, and after the
last call, the worker times ref_kernel(), fixed pure-Python work, in CPU
time, so that a moment the host takes the CPU away does not count as
slowness. A call's scaled time is its time times REF_NOMINAL_S over the
mean of the kernel times sampled last before it and first after it; the
import's is scaled by kernel runs right after it. Each call's off-CPU time,
wall time minus the process's CPU time, is reported too: on a shared VM it
is mostly time the host ran something else (steal time).

pkcore is imported first, before anything the harness needs, so that the
measured import time is that of a fresh process.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

_t0 = time.perf_counter()
import pkcore  # noqa: E402
import pkcore.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0
if not os.path.abspath(pkcore.__file__).startswith(os.path.join(ROOT, "src", "")):
    sys.exit(f"pkcore was imported from {pkcore.__file__}, not from this checkout")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from gate import KINDS  # noqa: E402
from tracing import LAYERS, Tracer, install  # noqa: E402

MAX_ERRORS = 5
# ref_kernel() CPU time at the reference speed: its typical time on the
# machine the benchmark was set up on (see README.md)
REF_NOMINAL_S = 0.010
REF_EVERY_S = 0.1
REF_MOD = 7**6
REF_BITS = 3**11
REF_MASK = (1 << REF_BITS) - 1


def ref_kernel() -> float:
    """CPU time of one run of fixed work in the mix pkcore does, about a
    third each: modular products and powers with dict and set building;
    cyclic shifts and ORs of a 3^11-bit bitset; building and using argparse
    parsers, the per-call set-up of the CLI."""
    t0 = time.process_time()
    x, seen, acc = 1, {}, 0
    for i in range(4000):
        x = x * 3 % REF_MOD
        seen[x] = i
        acc += pow(i, 17, REF_MOD)
    acc += len({v * v % 65521 for v in seen})
    bits = 1 << (REF_BITS - 1) | 1
    for i in range(100):
        s = i * 2917 % REF_BITS + 1
        bits |= (bits << s) & REF_MASK | bits >> (REF_BITS - s)
        acc += bits.bit_count()
    for _ in range(3):
        parser = argparse.ArgumentParser(prog="ref")
        sub = parser.add_subparsers(dest="command")
        for name in ("decompose", "core", "pairsums", "divisors"):
            cmd = sub.add_parser(name)
            cmd.add_argument("-p", type=int)
            cmd.add_argument("-k", type=int)
            cmd.add_argument("--format", choices=("text", "jsonl"))
        acc += parser.parse_args(["core", "-p", "5", "-k", "3", "--format", "jsonl"]).p
    return time.process_time() - t0


def peak_rss_mb() -> float:
    """VmHWM of this process image. Unlike ru_maxrss it does not carry over
    the harness's resident size from before the exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def sample_speed(speed: list, i: int, since: float | None, force: bool = False) -> float | None:
    """Before call i, append (i, kernel time) if forced, if nothing was
    sampled yet (since is None) or if REF_EVERY_S has passed since the last
    sample ended at `since`. Returns when the last sample ended."""
    if force or since is None or time.perf_counter() - since >= REF_EVERY_S:
        speed.append((i, ref_kernel()))
        return time.perf_counter()
    return since


def scale_calls(times: list[float], speed: list) -> list[float]:
    """Each call's time at the reference speed, from the samples just
    before and just after it; speed holds one before the first call and one
    after the last."""
    at = [i for i, _ in speed]
    ref = [r for _, r in speed]
    out, j = [], 0
    for i, t in enumerate(times):
        while at[j + 1] <= i:
            j += 1
        out.append(t * 2 * REF_NOMINAL_S / (ref[j] + ref[j + 1]))
    return out


def run_pass(job: dict) -> dict:
    tracer = Tracer() if job["trace"] else None
    if tracer:
        install(tracer)
    pk = SimpleNamespace(**{layer: sys.modules[f"pkcore.{layer}"] for layer in LAYERS})
    durations, cpus, errors, failed, speed, last_sampled = [], [], [], 0, [], None
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    for i, call in enumerate(job["calls"]):
        last_sampled = sample_speed(speed, i, last_sampled)
        invoke, check = KINDS[call["kind"]]
        err = None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            if tracer:
                with tracer.span(f"call.{call['kind']}"):
                    result = invoke(pk, call["args"])
            else:
                result = invoke(pk, call["args"])
        except (Exception, SystemExit) as exc:
            err = f"raised {type(exc).__name__}: {exc}"
        t1, c1 = time.perf_counter(), time.process_time()
        durations.append(t1 - t0)
        cpus.append(c1 - c0)
        if err is None:
            try:
                err = check(result, call["args"], call["expect"])
            except Exception as exc:
                err = f"answer unreadable: {type(exc).__name__}: {exc}"
        if err is not None:
            failed += 1
            if len(errors) < MAX_ERRORS:
                errors.append(f"call {i} {call['kind']} {call['args']}: {err}")
        result = None
    sample_speed(speed, len(durations), last_sampled, force=True)
    off_cpu = [d - c for d, c in zip(durations, cpus)]
    children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpus[-1] += (children1.ru_utime - children0.ru_utime) + (children1.ru_stime - children0.ru_stime)
    scaled = scale_calls(durations, speed)
    out = {
        "durations": durations,
        "scaled_durations": scaled,
        "off_cpu": off_cpu,
        "cpu_s": sum(cpus),
        "scaled_cpu_s": sum(scale_calls(cpus, speed)),
        "speed": speed,
        "failed": failed,
        "errors": errors,
        "peak_rss_mb": peak_rss_mb(),
        "traced": bool(tracer),
    }
    if tracer:
        factor = sum(scaled) / sum(durations)
        out["layers"] = {fn: [n, self_s * factor] for fn, (n, self_s) in tracer.self_times().items()}
        if job.get("spans"):
            tracer.write(job["spans"])
    return out


def main() -> None:
    # the kernel right after the import sees the speed the import ran at
    ref_s = sorted(ref_kernel() for _ in range(3))[1]
    out = {"import_s": IMPORT_S, "scaled_import_s": IMPORT_S * REF_NOMINAL_S / ref_s}
    if sys.argv[1:] != ["--import-only"]:
        out |= run_pass(json.load(sys.stdin))
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
