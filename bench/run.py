#!/usr/bin/env python3
"""partfact benchmark.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S [--out FILE]

Run from any directory; partfact is imported from ``src/`` next to this
directory and nowhere else. One run builds the workload's inputs from the
seed, sets up five times (fresh import of partfact, input generation and
a warm-up pass over the smallest inputs) and reports the median, then
runs passes over the inputs, each in a new seeded order, until
``--seconds`` have passed (at least one whole pass). Latency percentiles
and throughput are taken over every timed call. Every answer is checked;
a wrong answer makes the run fail.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``. The lines before
it repeat the metrics for people, with sample counts.

``--workload all`` runs every workload in its own process, untraced and
traced, prints one table, the tracing overhead, and can write the whole
result to ``--out``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
DEFAULT_STATE_CAP = 100_000


class SetupError(Exception):
    """The benchmark cannot run here (no partfact sources next to it)."""


def fresh_import():
    """Import partfact from ``src/`` of this checkout, discarding any copy
    imported before, so each setup pays the import again."""
    package_dir = SRC / "partfact"
    if not (package_dir / "__init__.py").is_file():
        raise SetupError(f"no partfact sources at {package_dir}")
    for name in [m for m in sys.modules if m == "partfact" or m.startswith("partfact.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    pf = importlib.import_module("partfact")
    if Path(pf.__file__).resolve().parent != package_dir.resolve():
        raise SetupError(f"imported partfact from {pf.__file__}, not from {package_dir}")
    if pf.fsa.state_cap() != DEFAULT_STATE_CAP:
        raise SetupError(f"state cap is {pf.fsa.state_cap()}, not the default {DEFAULT_STATE_CAP}")
    return pf


class Runner:
    """Runs items, times each call, classifies the outcome and checks answers."""

    def __init__(self, pf, tracer=None):
        from workloads import CapExceeded

        self.undecided = (pf.StateCapExceededError, CapExceeded)
        self.tracer = tracer
        self.latencies: list[float] = []
        self.slots: list[int] = []          # which input each timed call ran
        self.decided = 0
        self.failures: list[str] = []
        self.wrong: list[str] = []
        self.batch_walls: dict[str, list[float]] = {}

    def run(self, item, slot: int = -1, record: bool = True) -> None:
        from verify import WrongAnswer

        args = item.args()
        tracer = self.tracer
        if tracer is not None:
            tracer.item = len(self.latencies)
            tracer.active = record
        decided, failure, result = False, None, None
        started = time.perf_counter()
        try:
            result = item.fn(*args)
            decided = True
        except self.undecided:
            pass
        except Exception as exc:        # any other exception fails the item; the run goes on
            failure = f"{item.op}[{item.size}]: {type(exc).__name__}: {exc}"[:300]
        finally:
            elapsed = time.perf_counter() - started
            if tracer is not None:
                tracer.active = False
        if decided:
            try:
                item.check(result)
            except WrongAnswer as exc:
                self.wrong.append(f"{item.op}[{item.size}]: {exc}")
        if not record:
            return
        self.latencies.append(elapsed)
        self.slots.append(slot)
        self.decided += decided
        if failure:
            self.failures.append(failure)
        if item.op.startswith("cli.batch_jobs"):
            self.batch_walls.setdefault(item.op, []).append(elapsed)


def setup(workload_name: str, seed: int, tracer):
    """Import, build the first pass's inputs and warm up; returns its time."""
    from workloads import WORKLOADS

    started = time.perf_counter()
    pf = fresh_import()
    workload = WORKLOADS[workload_name](pf, tracer)
    items = workload.make_items(random.Random(seed))
    runner = Runner(pf, tracer)
    for item in items:
        if workload.is_warmup(item):
            runner.run(item, record=False)
    return time.perf_counter() - started, pf, workload, items, runner


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int]:
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
    setups, workload = [], None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.cleanup()
        took, pf, workload, items, runner = setup(name, seed, tracer)
        setups.append(took)
    if tracer is not None:
        tracer.install()
    # objects that set-up left are never garbage: keep collections from rescanning them
    gc.collect()
    gc.freeze()
    # every pass runs the items in a new order drawn from the seed, so that
    # items of like size are timed at different moments of the run; after
    # the first whole pass, the run stops when its time is up
    order_rng = random.Random(seed)

    def slots():
        while True:
            yield from order_rng.sample(range(len(items)), len(items))

    try:
        started = time.perf_counter()
        for done, slot in enumerate(slots()):
            if done >= len(items) and time.perf_counter() - started >= seconds:
                break
            if done % len(items) == 0:
                gc.collect()
            runner.run(items[slot], slot)
    finally:
        workload.cleanup()

    attempted = len(runner.latencies)
    passes = attempted / len(items)
    # percentiles over all calls: every input is timed once per pass, and
    # the passes spread over the whole run, so a burst of load elsewhere on
    # the machine moves few of the samples
    call_ms = [t * 1000 for t in runner.latencies]
    p50, p90 = quantile(call_ms, 50), quantile(call_ms, 90)
    lines = [f"workload {name}  seed {seed}  trace {int(trace)}",
             f"calls {attempted}: {passes:.2f} passes over {len(items)} items; "
             f"decided {runner.decided}, undecided {attempted - runner.decided - len(runner.failures)}, "
             f"failed {len(runner.failures)}, wrong {len(runner.wrong)}"]
    if trace:
        import tracing

        metrics = tracing.layer_metrics(
            tracer.spans, passes=passes, items=attempted,
            item_size={i: (it.family, it.size) for i, it in enumerate(items)},
            call_slot=runner.slots,
            batch_walls=runner.batch_walls,
            spawn_s=tracer.spawn_s, state_cap=pf.fsa.state_cap(),
            cap_error=pf.StateCapExceededError.__name__, traced_p50_ms=p50)
        units = tracing.per_layer_units()
        lines.append(f"spans {len(tracer.spans)}; self times, calls and sizes are per pass")
    else:
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics = {
            "latency_p50_ms": p50,
            "latency_p90_ms": p90,
            "throughput_items_per_s": 1000 * attempted / sum(call_ms),
            "decided_share": runner.decided / attempted,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss_kb / 1024,
        }
        units = {"latency_p50_ms": "ms", "latency_p90_ms": "ms", "throughput_items_per_s": "1/s",
                 "decided_share": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
        lines.append(f"latency and throughput over n={attempted} calls ({len(items)} items x "
                     f"{passes:.2f} passes); setup_s median of {SETUP_REPEATS} setups")
    for key in sorted(metrics):
        lines.append(f"  {key:55s} {metrics[key]:.6g} {units[key]}")
    for msg in runner.failures[:10] + runner.wrong[:10]:
        lines.append(f"  ! {msg}")
    result = {
        "correct": not runner.wrong,
        "attempted": attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print("\n".join(lines), flush=True)
    return result, 0 if not runner.wrong else 1


def run_all(seed: int, seconds: float, out) -> int:
    from workloads import MEASURED

    combined = {"seed": seed, "seconds": seconds, "workloads": {},
                "machine": {"python": platform.python_version(), "system": platform.platform(),
                            "cpus": os.cpu_count()}}
    status, attempted, failed, correct, flat = 0, 0, 0, True, {}
    for name in MEASURED:
        combined["workloads"][name] = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 and not proc.stdout.strip():
                return proc.returncode or 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            status = max(status, proc.returncode)
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            combined["workloads"][name]["traced" if trace else "untraced"] = result
            for key, metric in result["metrics"].items():
                flat[f"{name}.{key}"] = metric
        runs = combined["workloads"][name]
        overhead = (runs["traced"]["metrics"]["trace.latency_p50_ms"]["value"]
                    - runs["untraced"]["metrics"]["latency_p50_ms"]["value"])
        runs["trace_overhead_p50_ms"] = overhead
        flat[f"{name}.trace_overhead_p50_ms"] = {"value": overhead, "unit": "ms"}
        print(f"  tracing overhead on {name}: {overhead:.4g} ms at p50\n", flush=True)
    if out:
        Path(out).write_text(json.dumps(combined, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": flat}))
    return status


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write the combined result here")
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.out)
        result, status = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
