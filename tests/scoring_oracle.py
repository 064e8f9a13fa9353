"""Direct references for imdner.evaluation's `evaluate` and `iaa`: an
alignment check, a per-tag span decode and corpus-wide tag lists, each its own
pass over the documents, with corpus-wide span keys (document, sentence,
start, end, label). They read only the tokens' texts and tags, never the spans
a Sentence stores, so tests can check the implementation, which walks once and
matches each sentence pair's own spans, against them."""

from __future__ import annotations

from collections import Counter

from imdner.corpus import Document, LabelSet
from imdner.errors import AlignmentError
from imdner.evaluation import AgreementReport, EvalReport, LabelMetrics, aggregate


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
    per_label = [LabelMetrics.from_counts(lab, tp[lab], fp[lab], fn[lab]) for lab in labels.labels]
    micro, macro, weighted = aggregate(per_label)
    return EvalReport(tuple(per_label), micro, macro, weighted, sum(m.support for m in per_label))


def iaa(annotation_a: list[Document], annotation_b: list[Document], labels: LabelSet | None = None) -> AgreementReport:
    report = evaluate(annotation_a, annotation_b, labels)
    tags_a = [tok.tag for doc in annotation_a for sent in doc.sentences for tok in sent.tokens]
    tags_b = [tok.tag for doc in annotation_b for sent in doc.sentences for tok in sent.tokens]
    pct = 100.0 * sum(a == b for a, b in zip(tags_a, tags_b)) / len(tags_a) if tags_a else 0.0
    return AgreementReport(token_agreement_pct=pct, entity_f1_a_as_gold=report.micro[2], token_count=len(tags_a))
