"""Direct references for imdner.evaluation's `evaluate` and `iaa`: an
alignment check, a per-tag span decode and corpus-wide tag lists, each its own
pass over the documents, with corpus-wide span keys (document, sentence,
start, end, label). They read only the tokens' texts and tags, never the spans
a Sentence stores, so tests can check the implementation, which walks once and
matches each sentence pair's own spans, against them. The metrics are worked
out here too, from the counts, with sums taken left to right in label order as
the implementation takes them, so that its floats can be compared with `==`."""

from __future__ import annotations

from collections import Counter

from imdner.corpus import Document, LabelSet
from imdner.errors import AlignmentError
from imdner.evaluation import AgreementReport, EvalReport, LabelMetrics


def check_alignment(gold: list[Document], pred: list[Document]) -> None:
    if len(gold) != len(pred):
        raise AlignmentError(f"corpora have {len(gold)} vs {len(pred)} documents")
    for d, (g, p) in enumerate(zip(gold, pred)):
        if len(g.sentences) != len(p.sentences):
            raise AlignmentError(f"document {d} ({g.id}): {len(g.sentences)} vs {len(p.sentences)} sentences")
        for s, (gs, ps) in enumerate(zip(g.sentences, p.sentences)):
            if len(gs) != len(ps):
                raise AlignmentError(f"document {d}, sentence {s}: {len(gs)} vs {len(ps)} tokens")
            for t, (gt, pt) in enumerate(zip(gs.tokens, ps.tokens)):
                if gt.text != pt.text:
                    raise AlignmentError(
                        f"token mismatch at document {d}, sentence {s}, token {t}: {gt.text!r} vs {pt.text!r}"
                    )


def span_sets(docs: list[Document]) -> set:
    """All spans keyed (doc, sentence, start, end, label), decoded one tag at
    a time: a span runs from its B- tag over the I- tags of its label."""
    out = set()
    for d, doc in enumerate(docs):
        for s, sent in enumerate(doc.sentences):
            tags = [*sent.tags, "O"]  # the sentinel closes a span at the end
            open_start, open_label = None, None
            for i, tag in enumerate(tags):
                prefix, label = (tag, None) if tag == "O" else tag.split("-", 1)
                if open_start is not None and (prefix != "I" or label != open_label):
                    out.add((d, s, open_start, i, open_label))
                    open_start = None
                if prefix == "B":
                    open_start, open_label = i, label
    return out


def evaluate(gold: list[Document], pred: list[Document], labels: LabelSet | None = None) -> EvalReport:
    labels = labels or LabelSet()
    check_alignment(gold, pred)
    gold_spans = span_sets(gold)
    pred_spans = span_sets(pred)
    matched = gold_spans & pred_spans
    tp, fp, fn = (Counter(s[4] for s in spans) for spans in (matched, pred_spans - matched, gold_spans - matched))
    rows = [(lab, *prf(tp[lab], fp[lab], fn[lab]), tp[lab] + fn[lab]) for lab in labels.labels]
    per_label = tuple(LabelMetrics(lab, p, r, f1, n, tp[lab], fp[lab], fn[lab]) for lab, p, r, f1, n in rows)
    micro = prf(*(sum(c[lab] for lab in labels.labels) for c in (tp, fp, fn)))
    support = sum(n for *_, n in rows)
    macro = tuple(sum(row[i] for row in rows) / len(rows) for i in (1, 2, 3))
    weighted = tuple(sum(row[i] * row[4] for row in rows) / support if support else 0.0 for i in (1, 2, 3))
    return EvalReport(per_label, micro, macro, weighted, support)


def prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Precision, recall and F1 from counts; a zero denominator gives 0.0."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return precision, recall, 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def iaa(annotation_a: list[Document], annotation_b: list[Document], labels: LabelSet | None = None) -> AgreementReport:
    report = evaluate(annotation_a, annotation_b, labels)
    tags_a = [tok.tag for doc in annotation_a for sent in doc.sentences for tok in sent.tokens]
    tags_b = [tok.tag for doc in annotation_b for sent in doc.sentences for tok in sent.tokens]
    pct = 100.0 * sum(a == b for a, b in zip(tags_a, tags_b)) / len(tags_a) if tags_a else 0.0
    return AgreementReport(token_agreement_pct=pct, entity_f1_a_as_gold=report.micro[2], token_count=len(tags_a))
