"""Span tracer installed around acre's public functions, from outside the program.

A traced CLI command runs in its own forked child. Before `cli.main` runs, the
child wraps every public function of ingest, dsp, encoder, space, retrieval and
cli, at every binding it can be reached through: `retrieval` imports
`project`/`train` from `space` by name, and module globals such as
`space.loss_gradients` are looked up at call time, so rebinding the module
attribute catches calls from inside the module too. Spans stay in memory and
are written out once, when the command ends.

A span is (name, start, end, parent index, request id, counts). Self time is a
span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("ingest", "dsp", "encoder", "space", "retrieval", "cli")
COUNTER_ERROR = "counter_error"
COMMANDS = ("embed", "train", "finetune", "evaluate", "rank")


def _file_mb(args, kw, result):
    return {"mb": os.path.getsize(args[0]) / 1e6}


def _segment(args, kw, result):
    spec, seg_frames = args[0], args[1] if len(args) > 1 else kw["seg_frames"]
    encoded = len(result) * seg_frames
    return {"segments": len(result), "frames_encoded": encoded, "pad_frames": encoded - spec.frames}


def _project(args, kw, result):
    e = np.asarray(args[0])
    batch = e.shape[0] if e.ndim == 2 else 0
    return {"rows": batch or 1, "batch_rows": batch}


# Counts recorded at each boundary, computed from arguments and result.
COUNTERS = {
    "ingest.read_wav": _file_mb,
    "ingest.load_manifest": lambda a, k, r: {"records": len(r)},
    "ingest.read_embedding_dump": lambda a, k, r: {"entries": len(r.entries)},
    "ingest.write_embedding_dump": lambda a, k, r: {"entries": len(a[0])},
    "dsp.logmel": lambda a, k, r: {"frames": r.frames},
    "dsp.snippet_or_pad": lambda a, k, r: {"kept": len(r), "decoded": len(a[0])},
    "dsp.segment": _segment,
    "encoder.audio_encode": lambda a, k, r: {"tokens": len(a[0])},
    "encoder.text_encode": lambda a, k, r: {"tokens": len(a[0].ids)},
    "space.project": _project,
    "retrieval.rank": lambda a, k, r: {"rows_scored": len(r.ranked_ids)},
    "retrieval.evaluate": lambda a, k, r: {"map_at_10": r.map_at_10},
}


class Tracer:
    def __init__(self, request: str):
        self.request = request
        self.spans: list[list] = []
        self.stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        span = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.request, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            try:
                span[5] = counter(args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError):
                # a changed signature loses the counts, never the command; the
                # loss is reported as trace.counter_errors, so a count that
                # reads 0 is not taken for a gain
                span[5] = {COUNTER_ERROR: 1}
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of every layer at all their bindings."""
        modules = [getattr(package, layer) for layer in LAYERS]
        for layer, module in zip(LAYERS, modules):
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                traced = self.wrap(f"{layer}.{attr}", fn)
                for other in modules:
                    for other_attr, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, other_attr, traced)

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps(self.spans), encoding="utf-8")


def load_spans(path: Path) -> list[list]:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def self_times(spans: list[list]) -> list[float]:
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    return [span[2] - span[1] - child_time[i] for i, span in enumerate(spans)]


class Profile:
    """Per-span-name totals over many traced commands."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(lambda: defaultdict(float))
        self.cli_self = defaultdict(float)  # per command: self time of cli-layer spans
        self.command_s = 0.0

    @property
    def counter_errors(self) -> dict[str, int]:
        """Span name -> how many of its spans lost their counts."""
        return {name: int(c[COUNTER_ERROR]) for name, c in self.counts.items() if c.get(COUNTER_ERROR)}

    def add(self, spans: list[list]) -> None:
        own = self_times(spans)
        command = spans[0][0].split(".", 1)[1]
        self.command_s += spans[0][2] - spans[0][1]
        for span, self_s in zip(spans, own):
            name = span[0]
            self.calls[name] += 1
            self.busy[name] += span[2] - span[1]
            self.self_s[name] += self_s
            if name.startswith("cli."):
                self.cli_self[command] += self_s
            for key, value in (span[5] or {}).items():
                self.counts[name][key] += value
        # rows projected in batch calls, against the corpus the command loaded
        if command == "rank":
            rows = sum((s[5] or {}).get("batch_rows", 0) for s in spans if s[0] == "space.project")
            corpus = sum((s[5] or {}).get("records", 0) for s in spans if s[0] == "ingest.load_manifest")
            self.counts["cli.rank"]["projected_rows"] += rows
            self.counts["cli.rank"]["corpus_rows"] += corpus

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(profile: Profile, n_ops: int, overhead: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, per traced operation; 0 where the layer did not run.

    overhead is the traced operation's wall time over the untraced one's, minus 1.
    """
    c, b, n = profile.counts, profile.busy, max(n_ops, 1)

    def calls(name):
        return (profile.calls[name] / n, "count")

    def busy(name):
        return (b[name] / n, "s")

    def count(name, key):
        return (c[name][key] / n, "count")

    m = {
        "ingest.read_wav.calls": calls("ingest.read_wav"),
        "ingest.read_wav.s": busy("ingest.read_wav"),
        "ingest.read_wav.mb": (c["ingest.read_wav"]["mb"] / n, "MB"),
        "ingest.load_manifest.calls": calls("ingest.load_manifest"),
        "ingest.load_manifest.s": busy("ingest.load_manifest"),
        "ingest.read_embedding_dump.calls": calls("ingest.read_embedding_dump"),
        "ingest.read_embedding_dump.s": busy("ingest.read_embedding_dump"),
        "ingest.read_embedding_dump.entries": count("ingest.read_embedding_dump", "entries"),
        "ingest.load_augmented_captions.s": busy("ingest.load_augmented_captions"),
        "ingest.write_embedding_dump.s": busy("ingest.write_embedding_dump"),
        "ingest.write_embedding_dump.entries": count("ingest.write_embedding_dump", "entries"),
        "dsp.logmel.calls": calls("dsp.logmel"),
        "dsp.logmel.s": busy("dsp.logmel"),
        "dsp.logmel.frames": count("dsp.logmel", "frames"),
        "dsp.compute_whitening_stats.s": busy("dsp.compute_whitening_stats"),
        "dsp.segment.segments": count("dsp.segment", "segments"),
        "dsp.snippet_or_pad.kept_ratio": (
            _ratio(c["dsp.snippet_or_pad"]["kept"], c["dsp.snippet_or_pad"]["decoded"]), "ratio"),
        "dsp.segment.pad_ratio": (
            _ratio(c["dsp.segment"]["pad_frames"], c["dsp.segment"]["frames_encoded"]), "ratio"),
        "encoder.extract_patches.s": busy("encoder.extract_patches"),
        "encoder.audio_encode.calls": calls("encoder.audio_encode"),
        "encoder.audio_encode.s": busy("encoder.audio_encode"),
        "encoder.audio_encode.tokens": count("encoder.audio_encode", "tokens"),
        "encoder.tokenize.s": busy("encoder.tokenize"),
        "encoder.text_encode.calls": calls("encoder.text_encode"),
        "encoder.text_encode.s": busy("encoder.text_encode"),
        "encoder.text_encode.tokens": count("encoder.text_encode", "tokens"),
        "space.loss_gradients.calls": calls("space.loss_gradients"),
        "space.loss_gradients.s": busy("space.loss_gradients"),
        "space.adam_step.calls": calls("space.adam_step"),
        "space.adam_step.s": busy("space.adam_step"),
        "space.project.calls": calls("space.project"),
        "space.project.s": busy("space.project"),
        "space.project.rows": count("space.project", "rows"),
        "space.save_checkpoint.s": busy("space.save_checkpoint"),
        "space.load_checkpoint.s": busy("space.load_checkpoint"),
        "retrieval.rank.calls": calls("retrieval.rank"),
        "retrieval.rank.s": busy("retrieval.rank"),
        "retrieval.rank.rows_scored": count("retrieval.rank", "rows_scored"),
        "retrieval.evaluate.s": busy("retrieval.evaluate"),
        "retrieval.evaluate.map_at_10": (
            _ratio(c["retrieval.evaluate"]["map_at_10"], profile.calls["retrieval.evaluate"]), "ratio"),
        "retrieval.build_eval.s": busy("retrieval.build_eval"),
        "cli.rank.projected_rows_ratio": (
            _ratio(c["cli.rank"]["projected_rows"], c["cli.rank"]["corpus_rows"]), "ratio"),
    }
    for command in COMMANDS:
        m[f"cli.{command}.s"] = busy(f"cli.{command}")
        m[f"cli.{command}.self_s"] = (profile.cli_self[command] / n, "s")
    for layer in LAYERS:
        m[f"{layer}.self_share"] = (_ratio(profile.layer_self_s(layer), profile.command_s), "ratio")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    m["trace.counter_errors"] = (float(sum(profile.counter_errors.values())), "count")
    return m
