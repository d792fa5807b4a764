"""Per-layer spans for collabmetrics, recorded from outside the program.

The tracer replaces a module's public functions with timing wrappers,
rebinding every ``collabmetrics`` module attribute that refers to the
original (so names imported with ``from module import name`` are traced
too). Spans and counters stay in memory; the caller writes them out when
the run ends. Nothing under ``src/`` is edited.

Run as a script, this file is the child process of a traced sample: it
loads one report config, optionally installs the tracer, calls the
unchanged ``report.run_report`` once and writes a JSON result file.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

# The layer boundaries of one report run, by module. Every entry is
# expected to be called; one that is not shows up as a missing span.
REPORT_LAYERS = {
    "corpus": ("load_corpus_dir", "load_registry", "load_videos", "load_comments"),
    "collab": ("partition_videos", "detect_collaborations"),
    "synergy": ("channel_baselines", "compute_synergies", "aggregate_by_dyad_type", "reciprocity"),
    "netmetrics": (
        "build_collab_graph",
        "closeness",
        "build_attention_graph",
        "commenter_entropy",
        "entropy_cdf",
    ),
    "discourse": ("score_comments", "label_comments", "aggregate_discourse"),
    "report": ("run_report",),
}

# The layer boundaries of corpus set-up (``simgen.simulate_to_dir``).
SETUP_LAYERS = {"simgen": ("generate",), "corpus": ("write_corpus",)}


def _count_registry(a, result):
    return {
        "corpus.rows_read": len(result),
        "corpus.rows_accepted": len(result),
        "corpus.input_bytes": os.path.getsize(a["path"]),
    }


def _count_videos(a, result):
    records, errors = result
    return {
        "corpus.rows_read": len(records) + len(errors),
        "corpus.rows_accepted": len(records),
        "corpus.input_bytes": os.path.getsize(a["path"]),
    }


def _count_comments(a, result):
    records, load_report = result
    return {
        "corpus.rows_read": len(records) + len(load_report.orphans) + len(load_report.errors),
        "corpus.rows_accepted": len(records),
        "corpus.input_bytes": os.path.getsize(a["path"]),
    }


# Work counts taken at a span boundary from the call's bound arguments
# (``a``) and its return value.
COUNTERS = {
    "corpus.load_registry": _count_registry,
    "corpus.load_videos": _count_videos,
    "corpus.load_comments": _count_comments,
    "collab.partition_videos": lambda a, r: {"collab.videos_scanned": len(a["corpus"].videos)},
    "collab.detect_collaborations": lambda a, r: {
        "collab.dyads": len(r[0]),
        "collab.multi_way_videos": r[1].multi_way_videos,
    },
    "synergy.compute_synergies": lambda a, r: {
        "synergy.dyads_scored": len(r[0]),
        "synergy.dyads_skipped": len(r[1].skipped_no_baseline),
    },
    "netmetrics.closeness": lambda a, r: {
        "netmetrics.nodes": len(a["graph"].nodes),
        "netmetrics.edges": len(a["graph"].edges),
    },
    "netmetrics.build_attention_graph": lambda a, r: {"netmetrics.commenters": len(r.commenters)},
    "discourse.score_comments": lambda a, r: {"discourse.comments_scored": len(r)},
    "discourse.aggregate_discourse": lambda a, r: {
        "discourse.groups": len(r.by_dyad_type) + (r.baseline is not None)
    },
}


class Tracer:
    """Wraps named module functions and records one span per call."""

    def __init__(self) -> None:
        self.spans: list[dict] = []  # id, parent, name, start, end
        self.counts: Counter = Counter()
        self.wrapped: list[str] = []
        self.absent: list[str] = []  # named in the layer table but not found
        self.broken_counters: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self, layers: dict[str, tuple[str, ...]]) -> None:
        modules = {}
        for module_name in layers:
            try:
                modules[module_name] = importlib.import_module(f"collabmetrics.{module_name}")
            except ModuleNotFoundError:
                modules[module_name] = None
        loaded = [m for name, m in sys.modules.items() if name.startswith("collabmetrics") and m]
        for module_name, functions in layers.items():
            module = modules[module_name]
            for fn_name in functions:
                span_name = f"{module_name}.{fn_name}"
                original = getattr(module, fn_name, None)
                if not callable(original):
                    self.absent.append(span_name)
                    continue
                wrapper = self._wrap(span_name, original)
                for owner in loaded:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            self._restore.append((owner, attr, original))
                            setattr(owner, attr, wrapper)
                self.wrapped.append(span_name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, span_name: str, original):
        count = COUNTERS.get(span_name)
        signature = inspect.signature(original) if count else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            span = {
                "id": span_id,
                "parent": self._stack[-1] if self._stack else None,
                "name": span_name,
            }
            self.spans.append(span)
            self._stack.append(span_id)
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    self.counts.update(count(bound, result))
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    self.broken_counters.append(span_name)
            return result

        return wrapper

    def missing(self) -> list[str]:
        """Traced names that were never called or could not be wrapped."""
        called = {span["name"] for span in self.spans}
        never = [name for name in self.wrapped if name not in called]
        return sorted(set(never + self.absent + self.broken_counters))


def self_times(spans: list[dict]) -> dict[str, float]:
    """Sum of each span name's duration minus the time its child spans cover."""
    child_time: Counter = Counter()
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    totals: Counter = Counter()
    for span in spans:
        totals[span["name"]] += span["end"] - span["start"] - child_time[span["id"]]
    return dict(totals)


def _child(config_path: str) -> None:
    config = json.loads(Path(config_path).read_text(encoding="utf-8"))
    from collabmetrics import report

    tracer = Tracer()
    if config["trace"]:
        tracer.install(REPORT_LAYERS)
    run_config = report.RunConfig(
        community_dirs=tuple(config["community_dirs"]),
        out_dir=config["out_dir"],
        attribute_key=config["attribute_key"],
        formats=tuple(config["formats"]),
    )
    start = time.perf_counter()
    report.run_report(run_config)
    elapsed = time.perf_counter() - start
    tracer.uninstall()
    result = {
        "run_report_s": elapsed,
        "spans": tracer.spans,
        "counts": dict(tracer.counts),
        "missing": tracer.missing() if config["trace"] else [],
    }
    Path(config["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    _child(sys.argv[1])
