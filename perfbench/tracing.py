"""Per-layer spans recorded from outside imdner.

While installed, a Tracer swaps benchmark-owned wrappers in for the module
attributes listed in TARGETS, in every loaded imdner module that holds them
(so `from .evaluation import evaluate` inside `training` is caught too), and
puts the originals back on uninstall. Each call while enabled records one span
(name, start, end, parent span, op id) in memory; work counts and the keys for
useful-fraction ratios are taken after the span has closed. A target that no
longer exists is reported as a missing layer, not an error.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter_ns


def _tokens(docs) -> int:
    return sum(len(s) for d in docs for s in d.sentences)


def _b_tags(docs) -> int:
    return sum(t.tag.startswith("B-") for d in docs for s in d.sentences for t in s.tokens)


# span name -> (module, attribute path, work unit counter, useful-fraction key)
# A counter gets (tracer, args, result); a key function gets args.
TARGETS = {
    "corpus.parse_conll": ("imdner.corpus", "parse_conll", lambda tr, a, r: _tokens(r), None),
    "corpus.tokenize_raw": ("imdner.corpus", "tokenize_raw", lambda tr, a, r: sum(len(s) for s in r), None),
    "corpus.tags_to_spans": ("imdner.corpus", "tags_to_spans", None, lambda a: a[0]),
    "embeddings.load_embeddings": ("imdner.embeddings", "load_embeddings", None, None),
    "network.emissions_forward": ("imdner.network", "emissions_forward", lambda tr, a, r: len(a[0]), None),
    "network.char_features_forward": ("imdner.network", "char_features_forward", None, None),
    "network.emissions_backward": ("imdner.network", "emissions_backward", lambda tr, a, r: a[0].shape[0], None),
    "network.char_features_backward": ("imdner.network", "char_features_backward", None, None),
    "crf.nll_gradients": ("imdner.crf", "nll_gradients", None, None),
    "crf.viterbi": ("imdner.crf", "viterbi", None, None),
    "crf.masked": ("imdner.crf", "masked", None, lambda a: a[0]),
    "training.train": ("imdner.training", "train", None, None),
    "training.loss_and_gradients": ("imdner.training", "loss_and_gradients", None, None),
    "training.clip_gradients": ("imdner.training", "clip_gradients", None, None),
    "training.adam_update": ("imdner.training", "AdamState.update", None, None),
    "training.make_checkpoint": ("imdner.training", "make_checkpoint", None, None),
    "training.save_checkpoint": ("imdner.training", "save_checkpoint", None, None),
    "training.load_checkpoint": ("imdner.training", "load_checkpoint", None, None),
    "training.predict_documents": ("imdner.training", "predict_documents", None, None),
    "evaluation.evaluate": ("imdner.evaluation", "evaluate", lambda tr, a, r: tr.memo(_tokens, a[0]), None),
    "evaluation.iaa": ("imdner.evaluation", "iaa", lambda tr, a, r: tr.memo(_tokens, a[0]), None),
    "evaluation.error_breakdown": ("imdner.evaluation", "error_breakdown", lambda tr, a, r: tr.memo(_b_tags, a[1]), None),
    "kgraph.extract_graph": ("imdner.kgraph", "extract_graph", lambda tr, a, r: tr.memo(_b_tags, a[0]), None),
    "kgraph.export_graph": ("imdner.kgraph", "export_graph", None, None),
}
MODULES = ("corpus", "embeddings", "network", "crf", "training", "evaluation", "kgraph")
SETUP_OP = -1  # op id of spans recorded during set-up

# Per-layer metric -> (span name, statistic, scale, unit). Statistics:
# total/self per work unit, total per call, calls, and useful_frac (distinct
# keys per op summed, over calls: how often the same object is processed again).
LAYER_METRICS = {
    "corpus.parse_conll.us_per_tok": ("corpus.parse_conll", "total_per_work", 1e6, "us/tok"),
    "corpus.tokenize_raw.us_per_tok": ("corpus.tokenize_raw", "total_per_work", 1e6, "us/tok"),
    "corpus.tags_to_spans.calls": ("corpus.tags_to_spans", "calls", 1, "count"),
    "corpus.tags_to_spans.useful_frac": ("corpus.tags_to_spans", "useful_frac", 1, "frac"),
    "embeddings.load_embeddings.s": ("embeddings.load_embeddings", "total_per_call", 1, "s"),
    "network.emissions_forward.calls": ("network.emissions_forward", "calls", 1, "count"),
    "network.emissions_forward.self_ms_per_tok": ("network.emissions_forward", "self_per_work", 1e3, "ms/tok"),
    "network.char_features_forward.us_per_tok": ("network.char_features_forward", "total_per_call", 1e6, "us/tok"),
    "network.emissions_backward.calls": ("network.emissions_backward", "calls", 1, "count"),
    "network.emissions_backward.self_ms_per_tok": ("network.emissions_backward", "self_per_work", 1e3, "ms/tok"),
    "network.char_features_backward.us_per_tok": ("network.char_features_backward", "total_per_call", 1e6, "us/tok"),
    "crf.nll_gradients.calls": ("crf.nll_gradients", "calls", 1, "count"),
    "crf.nll_gradients.ms_per_sent": ("crf.nll_gradients", "total_per_call", 1e3, "ms/sent"),
    "crf.viterbi.ms_per_sent": ("crf.viterbi", "total_per_call", 1e3, "ms/sent"),
    "crf.masked.calls": ("crf.masked", "calls", 1, "count"),
    "crf.masked.useful_frac": ("crf.masked", "useful_frac", 1, "frac"),
    "training.loss_and_gradients.self_ms_per_batch": ("training.loss_and_gradients", "self_per_call", 1e3, "ms/batch"),
    "training.adam_update.ms_per_step": ("training.adam_update", "total_per_call", 1e3, "ms/step"),
    "training.clip_gradients.ms_per_step": ("training.clip_gradients", "total_per_call", 1e3, "ms/step"),
    "training.make_checkpoint.ms_per_call": ("training.make_checkpoint", "total_per_call", 1e3, "ms/call"),
    "training.save_checkpoint.s": ("training.save_checkpoint", "total_per_call", 1, "s"),
    "training.load_checkpoint.s": ("training.load_checkpoint", "total_per_call", 1, "s"),
    "evaluation.evaluate.us_per_tok": ("evaluation.evaluate", "total_per_work", 1e6, "us/tok"),
    "evaluation.iaa.us_per_tok": ("evaluation.iaa", "total_per_work", 1e6, "us/tok"),
    "evaluation.error_breakdown.us_per_pred_span": ("evaluation.error_breakdown", "total_per_work", 1e6, "us/span"),
    "kgraph.extract_graph.us_per_mention": ("kgraph.extract_graph", "total_per_work", 1e6, "us/mention"),
    "kgraph.export_graph.ms": ("kgraph.export_graph", "total_per_call", 1e3, "ms"),
}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = SETUP_OP
        self.spans: list = []  # (name, start_ns, end_ns, parent index or -1, op)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._work: dict[str, float] = defaultdict(float)
        self._keys: dict[str, set] = defaultdict(set)
        self._key_refs: list = []  # keeps keyed objects alive so ids stay unique within an op
        self._memo: dict[tuple, tuple] = {}
        self._patches: list[tuple] = []

    def begin_op(self, op: int) -> None:
        self.op = op
        self._key_refs.clear()

    def memo(self, fn, obj):
        """fn(obj), computed once per object for the life of the tracer."""
        k = (fn, id(obj))
        if k not in self._memo:
            self._memo[k] = (obj, fn(obj))
        return self._memo[k][1]

    def _wrap(self, name, fn, count, key):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                tracer._stack.pop()
                tracer.spans[idx] = (name, t0, t1, parent, tracer.op)
            if count is not None:
                tracer._work[name] += count(tracer, args, result)
            if key is not None:
                obj = key(args)
                tracer._keys[name].add((tracer.op, id(obj)))
                tracer._key_refs.append(obj)
            return result

        return wrapper

    def install(self) -> None:
        loaded = [m for n, m in list(sys.modules.items()) if n == "imdner" or n.startswith("imdner.")]
        for name, (modname, attr, count, key) in TARGETS.items():
            owner_path, _, leaf = attr.rpartition(".")
            try:
                owner = importlib.import_module(modname)
                if owner_path:
                    owner = getattr(owner, owner_path)
                orig = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, orig, count, key)
            holders = [owner] if owner_path else loaded
            for holder in holders:
                for attr_name, value in list(vars(holder).items()):
                    if value is orig:
                        self._patches.append((holder, attr_name, orig))
                        setattr(holder, attr_name, wrapped)

    def uninstall(self) -> None:
        for holder, attr_name, orig in reversed(self._patches):
            setattr(holder, attr_name, orig)
        self._patches.clear()
        self.enabled = False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, t0, t1, parent, op in self.spans:
                f.write(json.dumps({"name": name, "start_ns": t0, "end_ns": t1, "parent": parent, "op": op}) + "\n")

    def layer_metrics(self, op_wall_s: float, overhead_frac: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics from the recorded spans. `op_wall_s` is the wall
        time of the traced ops; set-up spans count towards per-call figures
        but not towards module shares of op wall time."""
        calls = defaultdict(int)
        total = defaultdict(int)
        child = [0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_ns = defaultdict(int)
        module_calls = defaultdict(int)
        module_self_ns = defaultdict(int)
        top_level_ns = 0
        for i, (name, t0, t1, parent, op) in enumerate(self.spans):
            calls[name] += 1
            total[name] += t1 - t0
            self_ns[name] += t1 - t0 - child[i]
            module = name.split(".")[0]
            module_calls[module] += 1
            if op != SETUP_OP:
                module_self_ns[module] += t1 - t0 - child[i]
                if parent < 0:
                    top_level_ns += t1 - t0

        def stat(span, kind):
            n = calls[span]
            if kind == "calls":
                return float(n)
            if kind == "useful_frac":
                return len(self._keys[span]) / n if n else 0.0
            if kind == "total_per_call":
                return total[span] * 1e-9 / n if n else 0.0
            if kind == "self_per_call":
                return self_ns[span] * 1e-9 / n if n else 0.0
            work = self._work[span]
            if kind == "total_per_work":
                return total[span] * 1e-9 / work if work else 0.0
            return self_ns[span] * 1e-9 / work if work else 0.0  # self_per_work

        out = {}
        for metric, (span, kind, scale, unit) in LAYER_METRICS.items():
            out[metric] = (stat(span, kind) * scale, unit)
        wall_ns = op_wall_s * 1e9
        for module in MODULES:
            out[f"{module}.calls"] = (float(module_calls[module]), "count")
            out[f"{module}.self_frac"] = (module_self_ns[module] / wall_ns if wall_ns else 0.0, "frac")
        out["trace.uncovered_wall_frac"] = (max(0.0, 1.0 - top_level_ns / wall_ns) if wall_ns else 0.0, "frac")
        out["trace.overhead_frac"] = (overhead_frac, "frac")
        out["trace.spans"] = (float(len(self.spans)), "count")
        out["trace.missing_layers"] = (float(len(self.missing)), "count")
        return out
