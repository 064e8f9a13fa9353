"""The quadratic reference for `evaluation.error_breakdown`: for every
predicted span it scans all gold spans, and sorts them for the overlap rule.
Tests check the indexed implementation against it on random corpora. The
alignment check and the span decode are the ones of `scoring_oracle`."""

from __future__ import annotations

from imdner.corpus import Document
from imdner.evaluation import ErrorBreakdown

from scoring_oracle import check_alignment, span_sets


def quadratic_error_breakdown(gold: list[Document], pred: list[Document]) -> ErrorBreakdown:
    """Classify each predicted span exactly once, in priority order:
    exact match > label error > boundary error > spurious."""
    check_alignment(gold, pred)
    gold_spans = span_sets(gold)
    pred_spans = span_sets(pred)

    correct = label_error = boundary_error = spurious = 0
    matched_gold = set()
    for span in sorted(pred_spans):
        d, s, start, end, lab = span
        if span in gold_spans:
            correct += 1
            matched_gold.add(span)
            continue
        same_span = next((g for g in gold_spans if g[:4] == (d, s, start, end)), None)
        if same_span is not None:
            label_error += 1
            matched_gold.add(same_span)
            continue
        overlap = next(
            (
                g
                for g in sorted(gold_spans)
                if g[0] == d and g[1] == s and g[4] == lab and g[2] < end and start < g[3]
            ),
            None,
        )
        if overlap is not None:
            boundary_error += 1
            matched_gold.add(overlap)
        else:
            spurious += 1

    missed = len(gold_spans - matched_gold)
    return ErrorBreakdown(correct, label_error, boundary_error, spurious, missed)
