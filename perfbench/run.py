"""End-to-end and per-layer benchmark of the posurf classifier.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fast-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

One client in one thread sends requests in a closed loop: each request is
one input text taken to a verdict (parse, then ``classify_fast`` or
``classify_recursive``). The loop runs whole passes over the workload's
requests until ``--seconds`` have elapsed. With ``--trace 0`` it reports
the end-to-end metrics. With ``--trace 1`` it spends half the time
untraced and half traced, and reports the per-layer metrics and the
tracing overhead. Verdicts are checked after the loop; the last line of
output is one JSON object, and the exit code is 1 when any verdict failed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads
from tracing import PER_LAYER_UNITS, Tracer

ROOT = Path(__file__).resolve().parent.parent
# setup_s is the median of at least this many setups, repeated until they
# add up to the given seconds, so that a cheap setup is not one short sample.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
# Library timings include the wrapper call around each traced function, so
# they may exceed the span totals by a little, never by this much.
TIMINGS_GAP_LIMIT = 0.10
# Each setup and each pass of the timed loop runs on the next of these CPUs.
# On a shared host each CPU is slowed by other tenants at its own times, for
# seconds to minutes; a run that stayed on one CPU would measure its luck.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
END_TO_END = {
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Loop:
    # Compact, so that the loop's own records do not grow peak RSS with the request count.
    latencies: array  # seconds per request, in order
    outcomes: Counter  # (request index, verdict or error text) -> requests
    elapsed: float


def import_fresh():
    """Import posurf from the checkout's sources, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "posurf" or m.startswith("posurf.")]:
        del sys.modules[name]
    ps = importlib.import_module("posurf")
    if Path(ps.__file__).resolve().parent != ROOT / "src" / "posurf":
        raise ImportError(f"posurf imported from {ps.__file__}, not from {ROOT / 'src'}")
    return ps


def pin(turn: int | None) -> None:
    """Move the process to CPU number ``turn`` (round-robin), or back to all of them."""
    if len(CPUS) > 1:
        os.sched_setaffinity(0, CPUS if turn is None else {CPUS[turn % len(CPUS)]})


def verdict(cls) -> tuple[str, bool]:
    return (cls.category, cls.is_smooth_pcm)


def run_loop(ps, requests, mode: str, seconds: float, tracer: Tracer | None = None) -> Loop:
    parsers = {"facets": ps.read_facets, "hasse": ps.from_hasse}
    classify = ps.classify_fast if mode == "fast" else ps.classify_recursive
    latencies, outcomes = array("d"), Counter()
    start = perf_counter()
    passes = 0
    try:
        while True:
            pin(passes)
            passes += 1
            for i, req in enumerate(requests):
                if tracer is not None:
                    tracer.begin()
                t0 = perf_counter()
                try:
                    got = verdict(classify(parsers[req.fmt](req.text)))
                except Exception as exc:  # a request that raises is a failed request
                    got = f"{type(exc).__name__}: {exc}"
                latencies.append(perf_counter() - t0)
                outcomes[i, got] += 1
                if tracer is not None:
                    tracer.end(i)
            elapsed = perf_counter() - start
            if elapsed >= seconds:
                return Loop(latencies, outcomes, elapsed)
    finally:
        pin(None)


def expected_verdicts(ps, requests) -> list:
    """Known verdicts of the generated families; classify_recursive for the rest."""
    out = []
    for req in requests:
        if req.expected is not None:
            out.append(req.expected)
            continue
        try:
            out.append(verdict(ps.classify_recursive(ps.read_facets(req.text))))
        except Exception as exc:  # no verdict to match: every request on it fails
            out.append(f"oracle raised {type(exc).__name__}: {exc}")
    return out


def failures(loop: Loop, expected: list, requests) -> dict[str, int]:
    """Failed requests, counted per input and wrong outcome."""
    return {
        f"{requests[i].name}: got {got}, expected {expected[i]}": n
        for (i, got), n in loop.outcomes.items()
        if got != expected[i]
    }


def end_to_end(loop: Loop, workload: str, setup_s: float) -> dict[str, float]:
    lat = loop.latencies
    pct = workloads.TAIL_PERCENTILE[workload]
    return {
        "requests_per_s": len(lat) / loop.elapsed,
        "latency_p50_ms": statistics.median(lat) * 1000.0,
        "latency_tail_ms": statistics.quantiles(lat, n=100)[pct - 1] * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def per_layer(tracer: Tracer, traced: Loop, untraced: Loop) -> dict[str, float]:
    metrics = tracer.self_ms()
    metrics.update(tracer.per_request_counts())
    pcms = sum(n for (_, got), n in traced.outcomes.items() if got in (("pcm", True), ("pcm", False)))
    metrics["classify.fallback_frac"] = tracer.fallbacks() / pcms if pcms else 0.0
    metrics["trace.overhead_ms"] = (
        statistics.fmean(traced.latencies) - statistics.fmean(untraced.latencies)
    ) * 1000.0
    return metrics


def git_commit() -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict[str, str]:
    return {
        "python": platform.python_version(),
        "nproc": str(os.cpu_count()),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def run_workload(args) -> int:
    mode = workloads.MODES[args.workload]
    if not (ROOT / "src" / "posurf" / "__init__.py").is_file():
        print(f"error: no posurf sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    setups = []
    while len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_MIN_SECONDS:
        pin(len(setups))
        t0 = perf_counter()
        ps = import_fresh()
        requests = workloads.build(args.workload, args.seed, ps)
        setups.append(perf_counter() - t0)
    pin(None)
    setup_s = statistics.median(setups)
    gc.collect()  # the discarded setups' garbage is not the first request's cost

    if args.trace:
        untraced = run_loop(ps, requests, mode, args.seconds / 2)
        tracer = Tracer()
        with tracer.installed(ps):
            traced = run_loop(ps, requests, mode, args.seconds / 2, tracer)
        loops = [untraced, traced]
        metrics = per_layer(tracer, traced, untraced)
        units = PER_LAYER_UNITS
    else:
        loops = [run_loop(ps, requests, mode, args.seconds)]
        metrics = end_to_end(loops[0], args.workload, setup_s)
        units = END_TO_END

    expected = expected_verdicts(ps, requests)
    failed = Counter()
    for loop in loops:
        failed.update(failures(loop, expected, requests))
    attempted = sum(len(loop.latencies) for loop in loops)
    n_failed = sum(failed.values())
    correct = not n_failed
    pct = workloads.TAIL_PERCENTILE[args.workload]
    print(f"# workload {args.workload} ({mode}), seed {args.seed}, {len(requests)} inputs per pass")
    print("# environment " + " ".join(f"{k}={v}" for k, v in environment().items()))
    print(f"# setup_s per repeat: {' '.join(f'{s:.4f}' for s in setups)}")
    for loop, label in zip(loops, ("untraced", "traced") if args.trace else ("timed",)):
        print(f"# {label} loop: {len(loop.latencies)} requests in {loop.elapsed:.2f} s")
    if not args.trace:
        print(f"# latency_tail_ms is p{pct} of {len(loops[0].latencies)} samples")
    if args.trace:
        library, spans = tracer.timings_gap()
        gap = (library - spans) / library if library else 0.0
        overhead = metrics["trace.overhead_ms"] / (statistics.fmean(untraced.latencies) * 1000.0)
        print(f"# Classification.timings {library:.4f} s, matching spans {spans:.4f} s, gap {gap:.2%}")
        print(f"# tracing overhead {overhead:.1%} of the untraced mean request time")
        print("# poset.bitmask_bytes is computed from the bit_length of the alpha, beta and theta masks")
        if abs(gap) > TIMINGS_GAP_LIMIT:
            print(f"# FAILED span totals differ from Classification.timings by more than {TIMINGS_GAP_LIMIT:.0%}")
            correct = False
    print(f"# failed_frac {n_failed / attempted:.6f} ({n_failed} of {attempted} requests)")
    for msg, n in failed.most_common(10):
        print(f"# FAILED {n} x {msg}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so that each peak RSS is its own."""
    results, status = {}, 0
    for workload in workloads.MODES:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        results[workload] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.MODES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
