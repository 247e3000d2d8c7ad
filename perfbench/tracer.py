"""In-memory span tracer that wraps triage_arena's public functions from outside.

Nothing under src/ is edited: `install` replaces each traced function at
every place the package holds a reference to it (module globals and
module-level dicts such as the scripted-strategy table), so calls made
through any import site are recorded. Spans are kept in memory as
(id, name, start, end, parent, thread) and written out once by `dump`;
counters are recorded at the same boundaries.

`aggregate` and `layer_metrics` turn the dumps of one traced pipeline
into per-layer metrics. Self time is a span's duration minus the part of its interval
covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import threading
import time
from pathlib import Path

# (module, attribute) of every traced public function.
TRACED = (
    ("agents", "scripted_rawlsian"),
    ("agents", "scripted_biased"),
    ("agents", "chat_generate"),
    ("arena", "build_prompt"),
    ("arena", "parse_allocation"),
    ("arena", "run_debate"),
    ("arena", "transcript_from_json"),
    ("arena", "emergence_delta"),
    ("model", "canonical_json"),
    ("model", "validate_allocation"),
    ("metrics", "metric_report"),
    ("metrics", "compute_weights"),
    ("persistence", "write_json"),
    ("persistence", "sha256_file"),
    ("persistence", "validate_schemas"),
    ("stats", "compare_cell"),
    ("stats", "bootstrap_ci"),
    ("stats", "wilcoxon_signed_rank"),
    ("oracle", "argmax_set"),
    ("oracle", "verify_cake_claims"),
    ("retrieval", "retrieve"),
    ("retrieval", "index_corpus"),
    ("cohortgen", "generate_cohort"),
    ("cli", "cmd_run"),
)

MODULES = (
    "model", "metrics", "cohortgen", "oracle", "retrieval",
    "arena", "agents", "stats", "persistence", "cli",
)


class Tracer:
    """Spans and counters of one process, kept in memory until `dump`."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self.queries: set[str] = set()
        # Allocation is built ~10^6 times by the oracle: count, do not span.
        self.allocations = itertools.count()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name: str, fn, after=None):
        """Record a span around every call of fn; `after(tracer, args,
        kwargs, result, error)` records counters at the same boundary."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result, error = None, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, threading.get_ident()))
                if after is not None:
                    after(self, args, kwargs, result, error)

        return traced

    def dump(self, path: str) -> None:
        counters = dict(self.counters)
        counters["model.Allocation.constructed"] = next(self.allocations)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": self.spans,
                    "counters": counters,
                    "queries": sorted(self.queries),
                },
                handle,
            )


# -- counters recorded at span boundaries -----------------------------------

def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _after_canonical_json(tracer, args, kwargs, result, error):
    if result is not None:
        tracer.add("model.canonical_json.bytes", len(result.encode("utf-8")))


def _after_validate_allocation(tracer, args, kwargs, result, error):
    if result is not None:
        tracer.add("model.validate_allocation.checked")
        if result.feasible:
            tracer.add("model.validate_allocation.feasible")


def _after_write_json(tracer, args, kwargs, result, error):
    if error is None:
        tracer.add("persistence.write_json.bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _after_sha256_file(tracer, args, kwargs, result, error):
    if error is None:
        tracer.add("persistence.sha256_file.bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _after_validate_schemas(tracer, args, kwargs, result, error):
    directory = Path(_arg(args, kwargs, 0, "directory"))
    tracer.add("persistence.validate_schemas.files", sum(1 for _ in directory.rglob("*.json")))


def _after_parse_allocation(tracer, args, kwargs, result, error):
    if error is not None:
        tracer.add("arena.parse_allocation.errors")


def _after_build_prompt(tracer, args, kwargs, result, error):
    # the next chat request of this thread reads the prompt if it sends
    # this very object
    tracer._local.pending_prompt = result


def _after_chat_generate(tracer, args, kwargs, result, error):
    prompt = _arg(args, kwargs, 1, "prompt")
    if prompt is getattr(tracer._local, "pending_prompt", None):
        tracer.add("arena.build_prompt.read")
        tracer._local.pending_prompt = None


def _after_retrieve(tracer, args, kwargs, result, error):
    with tracer._lock:
        tracer.queries.add(_arg(args, kwargs, 1, "query"))


def _after_index_corpus(tracer, args, kwargs, result, error):
    tracer.add("retrieval.index_corpus.chunks", len(_arg(args, kwargs, 0, "chunks")))


AFTER = {
    "model.canonical_json": _after_canonical_json,
    "model.validate_allocation": _after_validate_allocation,
    "persistence.write_json": _after_write_json,
    "persistence.sha256_file": _after_sha256_file,
    "persistence.validate_schemas": _after_validate_schemas,
    "arena.parse_allocation": _after_parse_allocation,
    "arena.build_prompt": _after_build_prompt,
    "agents.chat_generate": _after_chat_generate,
    "retrieval.retrieve": _after_retrieve,
    "retrieval.index_corpus": _after_index_corpus,
}


def _traced_enumeration(tracer: Tracer, fn):
    """enumerate_allocations is a generator: count what it yields and the
    time spent producing it, without a span per item."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        busy = 0.0
        yielded = 0
        try:
            while True:
                start = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    busy += time.perf_counter() - start
                    return
                busy += time.perf_counter() - start
                yielded += 1
                yield item
        finally:
            tracer.add("oracle.enumerate_allocations.yielded", yielded)
            tracer.add("oracle.enumerate_allocations.busy_s", busy)

    return traced


def _replace_everywhere(modules, original, replacement) -> int:
    """Point every module-global and module-level-dict reference to
    `original` at `replacement`; returns how many sites were patched."""
    sites = 0
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                sites += 1
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement
                        sites += 1
    return sites


def install(tracer: Tracer) -> None:
    """Wrap every function in TRACED at all of its import sites."""
    modules = [importlib.import_module(f"triage_arena.{m}") for m in MODULES]
    by_name = dict(zip(MODULES, modules))
    for module_name, attr in TRACED:
        original = getattr(by_name[module_name], attr)
        name = f"{module_name}.{attr}"
        wrapped = tracer.wrap(name, original, AFTER.get(name))
        if not _replace_everywhere(modules, original, wrapped):
            raise RuntimeError(f"no import site found for {name}")
    oracle = by_name["oracle"]
    _replace_everywhere(
        modules,
        oracle.enumerate_allocations,
        _traced_enumeration(tracer, oracle.enumerate_allocations),
    )
    allocation = by_name["model"].Allocation
    original_post_init = allocation.__post_init__
    count = tracer.allocations

    def __post_init__(self):
        next(count)
        original_post_init(self)

    allocation.__post_init__ = __post_init__


# -- arithmetic over dumped spans -------------------------------------------

def self_times(spans) -> dict[int, float]:
    """Map span id to its duration minus the time its children cover.

    Children are spans whose parent is the span; their intervals are
    clipped to the parent's and merged before subtraction, so overlapping
    or out-of-bounds children never count twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, _name, start, end, parent, _thread in spans:
        if parent != -1:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for sid, _name, start, end, _parent, _thread in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[sid] = (end - start) - covered
    return result


def aggregate(dumps) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, durations;
    plus summed counters and the union of retrieval queries."""
    by_name: dict[str, dict] = {}
    counters: dict[str, float] = {}
    queries: set[str] = set()
    for dump in dumps:
        selfs = self_times(dump["spans"])
        for sid, name, start, end, _parent, _thread in dump["spans"]:
            entry = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += selfs[sid]
            entry["durations"].append(end - start)
        for key, value in dump["counters"].items():
            counters[key] = counters.get(key, 0) + value
        queries.update(dump["queries"])
    return {"spans": by_name, "counters": counters, "queries": queries}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: dict, primary_run: dict | None) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline (names as in layers.json).

    primary_run is the aggregate of the single `run` stage whose wall time
    is the workload's run metric; cli.cmd_run.self_s comes from it. A
    layer the workload never calls reads 0.
    """
    spans, counters = agg["spans"], agg["counters"]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}

    def s(name):
        return spans.get(name, empty)

    def per_call(name, scale):
        return _ratio(s(name)["total_s"] * scale, s(name)["calls"])

    chat = s("agents.chat_generate")
    chat_ms = sorted(d * 1e3 for d in chat["durations"])
    p95 = statistics.quantiles(chat_ms, n=20)[18] if len(chat_ms) >= 20 else (chat_ms[-1] if chat_ms else 0.0)
    run_stage = (primary_run or {"spans": {}})["spans"].get("cli.cmd_run", empty)
    metrics = {
        "cohortgen.generate_cohort.calls": s("cohortgen.generate_cohort")["calls"],
        "cohortgen.generate_cohort.us_per_call": per_call("cohortgen.generate_cohort", 1e6),
        "agents.scripted_rawlsian.us_per_call": per_call("agents.scripted_rawlsian", 1e6),
        "agents.scripted_biased.us_per_call": per_call("agents.scripted_biased", 1e6),
        "agents.chat_generate.calls": chat["calls"],
        "agents.chat_generate.ms_p50": statistics.median(chat_ms) if chat_ms else 0.0,
        "agents.chat_generate.ms_p95": p95,
        "arena.build_prompt.calls": s("arena.build_prompt")["calls"],
        "arena.build_prompt.us_per_call": per_call("arena.build_prompt", 1e6),
        "arena.build_prompt.read_frac": _ratio(
            counters.get("arena.build_prompt.read", 0), s("arena.build_prompt")["calls"]
        ),
        "arena.parse_allocation.us_per_call": per_call("arena.parse_allocation", 1e6),
        "arena.parse_allocation.retry_frac": _ratio(
            counters.get("arena.parse_allocation.errors", 0), s("arena.parse_allocation")["calls"]
        ),
        "arena.run_debate.self_ms_per_call": _ratio(
            s("arena.run_debate")["self_s"] * 1e3, s("arena.run_debate")["calls"]
        ),
        "arena.transcript_from_json.us_per_call": per_call("arena.transcript_from_json", 1e6),
        "arena.emergence_delta.calls": s("arena.emergence_delta")["calls"],
        "model.canonical_json.calls": s("model.canonical_json")["calls"],
        "model.canonical_json.bytes": counters.get("model.canonical_json.bytes", 0),
        "model.canonical_json.us_per_call": per_call("model.canonical_json", 1e6),
        "model.Allocation.constructed": counters.get("model.Allocation.constructed", 0),
        "model.validate_allocation.feasible_frac": _ratio(
            counters.get("model.validate_allocation.feasible", 0),
            counters.get("model.validate_allocation.checked", 0),
        ),
        "metrics.metric_report.calls": s("metrics.metric_report")["calls"],
        "metrics.metric_report.us_per_call": per_call("metrics.metric_report", 1e6),
        "metrics.compute_weights.calls": s("metrics.compute_weights")["calls"],
        "persistence.write_json.calls": s("persistence.write_json")["calls"],
        "persistence.write_json.bytes": counters.get("persistence.write_json.bytes", 0),
        "persistence.sha256_file.bytes": counters.get("persistence.sha256_file.bytes", 0),
        "persistence.validate_schemas.ms_per_file": _ratio(
            s("persistence.validate_schemas")["total_s"] * 1e3,
            counters.get("persistence.validate_schemas.files", 0),
        ),
        "stats.compare_cell.ms_per_call": per_call("stats.compare_cell", 1e3),
        "stats.bootstrap_ci.ms_per_call": per_call("stats.bootstrap_ci", 1e3),
        "stats.wilcoxon_signed_rank.ms_per_call": per_call("stats.wilcoxon_signed_rank", 1e3),
        "oracle.enumerate_allocations.allocs_per_s": _ratio(
            counters.get("oracle.enumerate_allocations.yielded", 0),
            counters.get("oracle.enumerate_allocations.busy_s", 0),
        ),
        "oracle.argmax_set.calls": s("oracle.argmax_set")["calls"],
        "oracle.verify_cake_claims.s": s("oracle.verify_cake_claims")["total_s"],
        "retrieval.retrieve.calls": s("retrieval.retrieve")["calls"],
        "retrieval.retrieve.ms_per_call": per_call("retrieval.retrieve", 1e3),
        "retrieval.retrieve.distinct_query_frac": _ratio(
            len(agg["queries"]), s("retrieval.retrieve")["calls"]
        ),
        "retrieval.index_corpus.chunks": counters.get("retrieval.index_corpus.chunks", 0),
        "retrieval.index_corpus.s": s("retrieval.index_corpus")["total_s"],
        "cli.cmd_run.self_s": run_stage["self_s"],
    }
    return metrics
