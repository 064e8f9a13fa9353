"""Strict entity-level scoring, error taxonomy, inter-annotator agreement.

A predicted span is correct only when a gold span with the same label and
the same half-open token range exists in the same sentence; matching is
one-to-one. Zero denominators yield 0, not an error.

`evaluate`, `error_breakdown` and `iaa` each make one `_walk` over the two
corpora, which checks their alignment, names the first difference itself, and
reads the spans each Sentence decoded when it was built. A span can only match
inside its own sentence, so only the sentence pairs whose tags differ are
matched, pair by pair, and no per-span key is built; a label's fp and fn are
its span totals minus its tp. Nothing is cached between calls.
"""

from __future__ import annotations

import json
import operator
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import chain

from .corpus import Document, LabelSet
from .errors import AlignmentError, ValidationError


@dataclass(frozen=True)
class LabelMetrics:
    label: str
    precision: float
    recall: float
    f1: float
    support: int
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @classmethod
    def from_counts(cls, label: str, tp: int, fp: int, fn: int) -> "LabelMetrics":
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        return cls(label=label, precision=p, recall=r, f1=f1, support=tp + fn, tp=tp, fp=fp, fn=fn)


@dataclass(frozen=True)
class EvalReport:
    per_label: tuple[LabelMetrics, ...]
    micro: tuple[float, float, float]
    macro: tuple[float, float, float]
    weighted: tuple[float, float, float]
    total_support: int


@dataclass(frozen=True)
class ErrorBreakdown:
    correct: int = 0
    label_error: int = 0  # exact span, wrong label
    boundary_error: int = 0  # same label, overlapping but unequal span
    spurious: int = 0  # prediction with no gold overlap
    missed: int = 0  # gold with no matching prediction


@dataclass(frozen=True)
class AgreementReport:
    token_agreement_pct: float
    entity_f1_a_as_gold: float
    token_count: int


def _walk(gold: list[Document], pred: list[Document]):
    """Raise AlignmentError at the first document, sentence or token where the
    corpora differ. Else return the (start, end, label) spans of the sentence
    pairs whose tags agree, and the gold and the predicted Sentences of the
    pairs whose tags differ, in two parallel lists."""
    if len(gold) != len(pred):
        raise AlignmentError(f"corpora have {len(gold)} vs {len(pred)} documents")
    agreed, gold_diff, pred_diff = [], [], []
    for d, (g, p) in enumerate(zip(gold, pred)):
        if len(g.sentences) != len(p.sentences):
            raise AlignmentError(f"document {d} ({g.id}): {len(g.sentences)} vs {len(p.sentences)} sentences")
        for s, (gs, ps) in enumerate(zip(g.sentences, p.sentences)):
            if gs.texts != ps.texts:
                if len(gs) != len(ps):
                    raise AlignmentError(f"document {d}, sentence {s}: {len(gs)} vs {len(ps)} tokens")
                t = next(t for t, (a, b) in enumerate(zip(gs.texts, ps.texts)) if a != b)
                raise AlignmentError(
                    f"token mismatch at document {d}, sentence {s}, token {t}: {gs.texts[t]!r} vs {ps.texts[t]!r}"
                )
            if gs.tags == ps.tags:
                agreed += gs.span_bounds
            else:
                gold_diff.append(gs)
                pred_diff.append(ps)
    return agreed, gold_diff, pred_diff


def aggregate(per_label: list[LabelMetrics]):
    """(micro, macro, weighted) (precision, recall, f1) triples.

    Micro comes from summed tp/fp/fn; macro is the unweighted mean of the
    stored per-label metrics; weighted is the support-weighted mean.
    """
    if not per_label:
        raise ValidationError("cannot aggregate an empty metric list")
    tp = sum(m.tp for m in per_label)
    fp = sum(m.fp for m in per_label)
    fn = sum(m.fn for m in per_label)
    micro_m = LabelMetrics.from_counts("micro", tp, fp, fn)
    micro = (micro_m.precision, micro_m.recall, micro_m.f1)

    n = len(per_label)
    supports = [m.support for m in per_label]
    total = sum(supports)
    macro, weighted = [], []
    for column in zip(*((m.precision, m.recall, m.f1) for m in per_label)):
        macro.append(sum(column) / n)
        weighted.append(sum(map(operator.mul, column, supports)) / total if total else 0.0)
    return micro, tuple(macro), tuple(weighted)


def _report(agreed: list, gold_diff: list, pred_diff: list, labels: LabelSet | None) -> EvalReport:
    """Score the spans `_walk` returns. Flat annotation makes a span unique in
    its sentence, so a differing pair's true positives are its gold and
    predicted spans' intersection; a label's fp and fn are its predicted and
    gold span totals minus its tp. Labels outside `labels` are not scored."""
    labels = labels or LabelSet()
    matched = [*agreed]
    for gs, ps in zip(gold_diff, pred_diff):
        matched += set(gs.span_bounds).intersection(ps.span_bounds)
    tp, preds, golds = (Counter(map(operator.itemgetter(2), spans)) for spans in (matched,
        chain(agreed, *[s.span_bounds for s in pred_diff]), chain(agreed, *[s.span_bounds for s in gold_diff])))
    per_label = [LabelMetrics.from_counts(lab, tp[lab], preds[lab] - tp[lab], golds[lab] - tp[lab])
                 for lab in labels.labels]

    micro, macro, weighted = aggregate(per_label)
    return EvalReport(
        per_label=tuple(per_label),
        micro=micro,
        macro=macro,
        weighted=weighted,
        total_support=sum(m.support for m in per_label),
    )


def evaluate(gold: list[Document], pred: list[Document], labels: LabelSet | None = None) -> EvalReport:
    """Strict entity-level scores of `pred` against `gold`: a span counts only
    with its exact label and token range in the same sentence. Spans whose
    label is not in `labels` (default `LabelSet()`) are not scored."""
    return _report(*_walk(gold, pred), labels)


def error_breakdown(gold: list[Document], pred: list[Document]) -> ErrorBreakdown:
    """Classify each predicted span exactly once, in priority order:
    exact match > label error > boundary error > spurious. A boundary error
    matches the first overlapping gold span of its label in sorted order."""
    agreed, gold_diff, pred_diff = _walk(gold, pred)
    correct, label_error, boundary_error, spurious, missed = len(agreed), 0, 0, 0, 0
    for gs, ps in zip(gold_diff, pred_diff):
        golds = gs.span_bounds
        by_range = {g[:2]: g for g in golds}
        claimed = set()
        for span in ps.span_bounds:
            start, end, lab = span
            claim = by_range.get((start, end))  # the gold span this prediction matches, if any
            if claim == span:
                correct += 1
            elif claim is not None:
                label_error += 1
            else:
                # A sentence's spans are in order, so this is the first overlap in sorted order.
                claim = next((g for g in golds if g[2] == lab and g[0] < end and start < g[1]), None)
                if claim is None:
                    spurious += 1
                    continue
                boundary_error += 1
            claimed.add(claim)
        missed += len(golds) - len(claimed)
    return ErrorBreakdown(correct, label_error, boundary_error, spurious, missed)


def iaa(annotation_a: list[Document], annotation_b: list[Document], labels: LabelSet | None = None) -> AgreementReport:
    """Token-level percentage agreement plus entity F1 with A as gold."""
    agreed, diff_a, diff_b = _walk(annotation_a, annotation_b)
    tokens = sum(len(sent.texts) for doc in annotation_a for sent in doc.sentences)
    # Tags agree everywhere outside the sentence pairs whose tags differ.
    agree = tokens - sum(sum(map(operator.ne, a.tags, b.tags)) for a, b in zip(diff_a, diff_b))
    pct = 100.0 * agree / tokens if tokens else 0.0
    f1 = _report(agreed, diff_a, diff_b, labels).micro[2]
    return AgreementReport(token_agreement_pct=pct, entity_f1_a_as_gold=f1, token_count=tokens)


def format_report(report: EvalReport) -> str:
    """Human-readable table: Category, Precision, Recall, F1-Score, Support."""
    width = max(len("Category"), *(len(m.label) for m in report.per_label), len("weighted avg"))
    lines = [f"{'Category':<{width}}  Precision  Recall  F1-Score  Support"]
    for m in report.per_label:
        lines.append(f"{m.label:<{width}}  {m.precision:9.2f}  {m.recall:6.2f}  {m.f1:8.2f}  {m.support:7d}")
    for name, (p, r, f1) in (("micro avg", report.micro), ("macro avg", report.macro), ("weighted avg", report.weighted)):
        lines.append(f"{name:<{width}}  {p:9.2f}  {r:6.2f}  {f1:8.2f}  {report.total_support:7d}")
    return "\n".join(lines) + "\n"


def report_to_json(report: EvalReport) -> str:
    """Machine-readable counterpart of format_report."""
    doc = {
        "per_label": [asdict(m) for m in report.per_label],
        "micro": dict(zip(("precision", "recall", "f1"), report.micro)),
        "macro": dict(zip(("precision", "recall", "f1"), report.macro)),
        "weighted": dict(zip(("precision", "recall", "f1"), report.weighted)),
        "total_support": report.total_support,
    }
    return json.dumps(doc, indent=2) + "\n"
