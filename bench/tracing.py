"""Layer spans recorded from outside the library.

:meth:`Tracer.install` wraps every public function of the layer modules
(``fsa``, ``finite_code``, ``regular``, ``lattice``, ``cli``) and the
constructors of the public classes of ``regular`` and ``cli``. It
replaces each name in the module that defines it and every other binding
of the same object in a loaded ``partfact`` module, including entries of
module-level dicts such as the CLI's command table. Calls between library
functions go through module globals, so nested calls become child spans
without any change to the library.

A span is ``[name, start, end, parent_id, id, item, size_in, size_out,
error]``. Spans stay in memory; :func:`layer_metrics` reduces them at the
end of the run.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Optional

LAYERS = ("fsa", "finite_code", "regular", "lattice", "cli")
CONSTRUCTOR_LAYERS = ("regular", "cli")
NAME, START, END, PARENT, ID, ITEM, SIZE_IN, SIZE_OUT, ERROR = range(9)


def _size(value: Any) -> Optional[int]:
    """States of an acceptor (or of a code's language), else a collection's length."""
    if hasattr(value, "n_states"):
        return value.n_states
    lang = getattr(value, "lang", None)
    if lang is not None and hasattr(lang, "n_states"):
        return lang.n_states
    if isinstance(value, (list, set, frozenset)):
        return len(value)
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.active = False          # spans are recorded only while an item runs
        self.item = -1
        self.spawn_s: list[float] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _frames(self) -> list[int]:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def wrap(self, name: str, fn, constructor: bool = False):
        tracer = self
        first_arg = 1 if constructor else 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frames = tracer._frames()
            span_id = next(tracer._ids)
            size_in = _size(args[first_arg]) if len(args) > first_arg else None
            span = [name, 0.0, 0.0, frames[-1] if frames else -1, span_id, tracer.item,
                    size_in, None, None]
            tracer.spans.append(span)
            frames.append(span_id)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = time.perf_counter()
                span[ERROR] = type(exc).__name__
                raise
            finally:
                frames.pop()
            span[END] = time.perf_counter()
            if not constructor:
                span[SIZE_OUT] = _size(result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "partfact" or name.startswith("partfact."))]
        replaced = {}
        for layer in LAYERS:
            module = sys.modules.get(f"partfact.{layer}")
            if module is None:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self.wrap(f"{layer}.{attr}", obj)
                elif (inspect.isclass(obj) and layer in CONSTRUCTOR_LAYERS
                      and "__init__" in vars(obj)):
                    obj.__init__ = self.wrap(f"{layer}.{attr}", obj.__init__, constructor=True)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(module, attr, replaced[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in replaced:
                            obj[key] = replaced[value]

    def add_child_spans(self, spans: list[list], wall_s: float) -> None:
        """Adopt the spans of one traced CLI process under the current item;
        the process's spawn cost is its wall time minus ``cli.main``."""
        if not self.active:
            return
        ids = {}
        for span in spans:
            ids[span[ID]] = next(self._ids)
        main_s = 0.0
        for span in spans:
            span = list(span)
            span[ID] = ids[span[ID]]
            span[PARENT] = ids.get(span[PARENT], -1)
            span[ITEM] = self.item
            self.spans.append(span)
            if span[NAME] == "cli.main" and span[PARENT] == -1:
                main_s += span[END] - span[START]
        self.spawn_s.append(wall_s - main_s)


# ---------------------------------------------------------------------------
# Reduction to per-layer metrics


def _self_times(spans: list[list]) -> dict[int, float]:
    """Span duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] != -1:
            children[s[PARENT]].append((s[START], s[END]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s[START]
        for a, b in sorted(children.get(s[ID], ())):
            a, b = max(a, reach), min(b, s[END])
            if b > a:
                covered += b - a
                reach = b
        out[s[ID]] = (s[END] - s[START]) - covered
    return out


def _cap_origins(spans: list[list], cap_error: str) -> int:
    """fsa spans that raised the cap error while none of their children did."""
    raising = {s[ID] for s in spans if s[ERROR] == cap_error}
    parents_of_raising = {s[PARENT] for s in spans if s[ID] in raising}
    return sum(1 for s in spans if s[ID] in raising and s[ID] not in parents_of_raising
               and s[NAME].startswith("fsa."))


def growth_exponent(spans: list[list], op: str, family: str,
                    item_size: dict[int, tuple[Optional[str], int]],
                    call_slot: list[int]) -> float:
    """Least-squares slope of log(time) against log(size) over the items
    of one scaling family.

    The op's time in a call is the time of its outermost spans there. An
    input recurs once per pass, so its time is the median over passes; the
    time at a size is that of the slowest input of that size. Items of
    other families are left out."""
    by_id = {s[ID]: s for s in spans}
    per_item: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[NAME] != op:
            continue
        parent = by_id.get(s[PARENT])
        while parent is not None and parent[NAME] != op:
            parent = by_id.get(parent[PARENT])
        if parent is None:
            per_item[s[ITEM]] += s[END] - s[START]
    per_input: dict[int, list[float]] = defaultdict(list)
    for item, seconds in per_item.items():
        per_input[call_slot[item]].append(seconds)
    slowest: dict[int, float] = defaultdict(float)
    for slot, times in per_input.items():
        item_family, size = item_size[slot]
        if item_family == family:
            slowest[size] = max(slowest[size], statistics.median(times))
    points = [(math.log(size), math.log(t)) for size, t in slowest.items() if size > 0 and t > 0]
    if len(points) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx if sxx else 0.0


# the ops reduced to per-layer metrics; every workload prints every metric
SELF_TIME_OPS = [
    "fsa.regex_to_fsa", "fsa.concat", "fsa.union", "fsa.minimize", "fsa.determinize",
    "fsa.intersection", "fsa.complement", "fsa.is_universal", "fsa.includes", "fsa.equivalent",
    "fsa.is_unambiguous", "fsa.ambiguity_witness", "fsa.trim", "fsa.eliminate_epsilon",
    "finite_code.characteristic_partition", "finite_code.cooccurrence_pairs",
    "finite_code.sp_is_ud", "finite_code.enumerate_prime_relations",
    "finite_code.p_factorize", "lattice.coding_meet", "lattice.coding_join",
    "regular.regular_is_ud", "regular.regular_is_coding", "regular.RegularPartition",
    "regular.base", "regular.is_complete", "regular.completeness_witness",
    "regular.is_full", "regular.is_dense",
    "cli.Document", "cli.run_document", "cli.render",
]
CALL_COUNT_OPS = ["fsa.minimize", "fsa.determinize", "fsa.trim",
                  "finite_code.characteristic_partition"]
STATES_OUT_OPS = ["fsa.regex_to_fsa", "fsa.minimize", "fsa.determinize", "fsa.intersection"]
# op -> the scaling family its growth exponent is fitted over: number of
# words of a dense code, long word length, or n of the blow-up languages
GROWTH_OPS = {
    "finite_code.sp_is_ud": "words", "finite_code.characteristic_partition": "words",
    "finite_code.p_factorize": "words",
    "fsa.regex_to_fsa": "word_length", "fsa.minimize": "word_length",
    "regular.regular_is_ud": "word_length", "regular.regular_is_coding": "word_length",
    "regular.RegularPartition": "word_length",
    "regular.base": "n", "fsa.is_universal": "n",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{op}.self_s": "s" for op in SELF_TIME_OPS}
    units.update({f"{op}.calls": "count" for op in CALL_COUNT_OPS})
    units.update({f"{op}.states_out": "states" for op in STATES_OUT_OPS})
    units.update({
        "fsa.determinize.blowup": "ratio",
        "fsa.determinize.max_states_out": "states",
        "fsa.determinize.cap_share": "ratio",
        "fsa.trim.kept_ratio": "ratio",
        "fsa.cap_hits": "count",
        "finite_code.characteristic_partition.calls_per_item": "ratio",
        "finite_code.cooccurrence_pairs.pairs_out": "count",
        "finite_code.enumerate_prime_relations.relations_out": "count",
        "cli.spawn_s": "s",
        "cli.batch_jobs1_s": "s",
        "cli.batch_jobs2_s": "s",
        "trace.latency_p50_ms": "ms",
    })
    units.update({f"{op}.growth": "exponent" for op in GROWTH_OPS})
    return units


def layer_metrics(spans: list[list], *, passes: float, items: int,
                  item_size: dict[int, tuple[Optional[str], int]],
                  call_slot: list[int],
                  batch_walls: dict[str, list[float]], spawn_s: list[float],
                  state_cap: int, cap_error: str, traced_p50_ms: float) -> dict[str, float]:
    """Per-layer metrics: times, calls and sizes per pass over the
    workload's items; CLI process times as medians per invocation."""
    self_s = _self_times(spans)
    total_self: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    size_in: dict[str, int] = defaultdict(int)
    size_out: dict[str, int] = defaultdict(int)
    max_out: dict[str, int] = defaultdict(int)
    for s in spans:
        name = s[NAME]
        total_self[name] += self_s[s[ID]]
        calls[name] += 1
        size_in[name] += s[SIZE_IN] or 0
        size_out[name] += s[SIZE_OUT] or 0
        max_out[name] = max(max_out[name], s[SIZE_OUT] or 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def median(values: list[float]) -> float:
        return statistics.median(values) if values else 0.0

    m: dict[str, float] = {}
    for op in SELF_TIME_OPS:
        m[f"{op}.self_s"] = total_self[op] / passes
    for op in CALL_COUNT_OPS:
        m[f"{op}.calls"] = calls[op] / passes
    for op in STATES_OUT_OPS:
        m[f"{op}.states_out"] = size_out[op] / passes
    m["fsa.determinize.blowup"] = ratio(size_out["fsa.determinize"], size_in["fsa.determinize"])
    m["fsa.determinize.max_states_out"] = float(max_out["fsa.determinize"])
    m["fsa.determinize.cap_share"] = max_out["fsa.determinize"] / state_cap
    m["fsa.trim.kept_ratio"] = ratio(size_out["fsa.trim"], size_in["fsa.trim"])
    m["fsa.cap_hits"] = _cap_origins(spans, cap_error) / passes
    m["finite_code.characteristic_partition.calls_per_item"] = ratio(
        calls["finite_code.characteristic_partition"], items)
    m["finite_code.cooccurrence_pairs.pairs_out"] = size_out["finite_code.cooccurrence_pairs"] / passes
    m["finite_code.enumerate_prime_relations.relations_out"] = (
        size_out["finite_code.enumerate_prime_relations"] / passes)
    m["cli.spawn_s"] = median(spawn_s)
    m["cli.batch_jobs1_s"] = median(batch_walls.get("cli.batch_jobs1", []))
    m["cli.batch_jobs2_s"] = median(batch_walls.get("cli.batch_jobs2", []))
    m["trace.latency_p50_ms"] = traced_p50_ms
    for op, family in GROWTH_OPS.items():
        m[f"{op}.growth"] = growth_exponent(spans, op, family, item_size, call_slot)
    return m
