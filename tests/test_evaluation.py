import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imdner.corpus import Document, LabelSet, Sentence, Token, spans_to_tags, EntitySpan
from imdner.errors import AlignmentError
from imdner.evaluation import (
    ErrorBreakdown,
    LabelMetrics,
    aggregate,
    error_breakdown,
    evaluate,
    format_report,
    iaa,
    report_to_json,
)

import scoring_oracle
from breakdown_oracle import quadratic_error_breakdown
from conftest import traced_peak

LABELS = LabelSet(("Symptom", "Treatment", "Biomarker"))


def doc_from_tags(tag_lists, doc_id="d"):
    sentences = []
    for tags in tag_lists:
        sentences.append(Sentence(tuple(Token(f"w{i}", tag) for i, tag in enumerate(tags))))
    return Document(doc_id, tuple(sentences))


def brute_force_counts(gold_docs, pred_docs, labels):
    """Independent matcher: test every candidate (start, end) range per
    sentence instead of decoding the BIO stream."""

    def spans_by_scan(docs):
        found = set()
        for d, doc in enumerate(docs):
            for s, sent in enumerate(doc.sentences):
                tags = sent.tags
                n = len(tags)
                for start in range(n):
                    for end in range(start + 1, n + 1):
                        for lab in labels.labels:
                            if tags[start] != f"B-{lab}":
                                continue
                            if any(tags[i] != f"I-{lab}" for i in range(start + 1, end)):
                                continue
                            if end < n and tags[end] == f"I-{lab}":
                                continue
                            found.add((d, s, start, end, lab))
        return found

    gold = spans_by_scan(gold_docs)
    pred = spans_by_scan(pred_docs)
    out = {}
    for lab in labels.labels:
        g = {x for x in gold if x[4] == lab}
        p = {x for x in pred if x[4] == lab}
        out[lab] = (len(g & p), len(p - g), len(g - p))
    return out


class TestEvaluate:
    def test_perfect_prediction(self):
        gold = [doc_from_tags([["B-Symptom", "I-Symptom", "O"], ["B-Treatment"]])]
        report = evaluate(gold, gold, LABELS)
        assert report.micro == (1.0, 1.0, 1.0)
        assert report.macro[2] == pytest.approx((1.0 + 1.0 + 0.0) / 3)
        assert report.weighted == (1.0, 1.0, 1.0)
        assert report.total_support == 2

    def test_fully_disjoint_prediction(self):
        gold = [doc_from_tags([["B-Symptom", "O", "O"]])]
        pred = [doc_from_tags([["O", "O", "B-Symptom"]])]
        report = evaluate(gold, pred, LABELS)
        assert report.micro == (0.0, 0.0, 0.0)

    def test_hand_counted_half_micro(self):
        gold = [doc_from_tags([["B-Symptom", "I-Symptom", "O", "B-Treatment", "O"]])]
        pred = [doc_from_tags([["B-Symptom", "O", "O", "B-Treatment", "O"]])]
        report = evaluate(gold, pred, LABELS)
        by_label = {m.label: m for m in report.per_label}
        assert by_label["Symptom"].precision == 0.0
        assert by_label["Symptom"].recall == 0.0
        assert by_label["Treatment"].precision == 1.0
        assert by_label["Treatment"].recall == 1.0
        assert report.micro[0] == pytest.approx(0.5)
        assert report.micro[1] == pytest.approx(0.5)

    def test_alignment_error_names_position(self):
        gold = [doc_from_tags([["O", "O"]])]
        pred = [Document("d", (Sentence((Token("w0"), Token("DIFFERENT"))),))]
        with pytest.raises(AlignmentError, match="token 1"):
            evaluate(gold, pred, LABELS)

    def test_swapping_gold_and_pred_swaps_precision_recall(self):
        rng = np.random.default_rng(0)
        gold, pred = _random_pair(rng)
        a = evaluate(gold, pred, LABELS)
        b = evaluate(pred, gold, LABELS)
        assert a.micro[0] == pytest.approx(b.micro[1])
        assert a.micro[1] == pytest.approx(b.micro[0])
        for ma, mb in zip(a.per_label, b.per_label):
            assert ma.precision == pytest.approx(mb.recall)
            assert ma.recall == pytest.approx(mb.precision)

    def test_support_identities(self):
        rng = np.random.default_rng(1)
        gold, pred = _random_pair(rng)
        report = evaluate(gold, pred, LABELS)
        for m in report.per_label:
            assert m.support == m.tp + m.fn

    def test_against_brute_force_matcher(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            gold, pred = _random_pair(rng)
            report = evaluate(gold, pred, LABELS)
            oracle = brute_force_counts(gold, pred, LABELS)
            for m in report.per_label:
                assert (m.tp, m.fp, m.fn) == oracle[m.label]


def _random_pair(rng, max_sentences=10):
    def random_doc(doc_id):
        sentences = []
        for _ in range(int(rng.integers(1, max_sentences + 1))):
            n = int(rng.integers(1, 12))
            spans = []
            pos = 0
            while pos < n:
                if rng.random() < 0.4:
                    end = min(n, pos + int(rng.integers(1, 4)))
                    spans.append(EntitySpan(0, pos, end, str(rng.choice(LABELS.labels))))
                    pos = end
                else:
                    pos += 1
            tags = spans_to_tags(n, spans)
            sentences.append(Sentence(tuple(Token(f"w{i}", t) for i, t in enumerate(tags))))
        return Document(doc_id, tuple(sentences))

    gold = [random_doc("a"), random_doc("b")]
    pred = []
    for doc in gold:
        sentences = []
        for sent in doc.sentences:
            n = len(sent)
            spans = []
            pos = 0
            while pos < n:
                if rng.random() < 0.4:
                    end = min(n, pos + int(rng.integers(1, 4)))
                    spans.append(EntitySpan(0, pos, end, str(rng.choice(LABELS.labels))))
                    pos = end
                else:
                    pos += 1
            tags = spans_to_tags(n, spans)
            sentences.append(Sentence(tuple(Token(t.text, tag) for t, tag in zip(sent.tokens, tags))))
        pred.append(Document(doc.id, tuple(sentences)))
    return gold, pred


def _bio(raw):
    """A BIO-valid tag list from any list of O/B-/I- tags: an I- that
    continues nothing becomes a B-."""
    tags = []
    for tag in raw:
        if tag.startswith("I-") and (not tags or tags[-1][2:] != tag[2:]):
            tag = "B-" + tag[2:]
        tags.append(tag)
    return tags


_TAG = st.sampled_from(["O", *(f"{p}-{lab}" for lab in LABELS.labels for p in "BI")])


@st.composite
def _aligned_pairs(draw):
    """Gold and predicted documents over the same tokens. Each predicted
    sentence either copies its gold tags or has tags drawn apart, so that one
    corpus mixes sentences whose tags agree with sentences whose tags differ."""
    gold, pred = [], []
    for d in range(draw(st.integers(1, 3))):
        lengths = draw(st.lists(st.integers(1, 10), min_size=1, max_size=4))
        gold_tags = [_bio(draw(st.lists(_TAG, min_size=n, max_size=n))) for n in lengths]
        pred_tags = [tags if draw(st.booleans()) else _bio(draw(st.lists(_TAG, min_size=len(tags), max_size=len(tags))))
                     for tags in gold_tags]
        gold.append(doc_from_tags(gold_tags, f"d{d}"))
        pred.append(doc_from_tags(pred_tags, f"d{d}"))
    return gold, pred


@given(_aligned_pairs())
@settings(max_examples=300, deadline=None)
def test_one_walk_matches_the_oracles(pair):
    gold, pred = pair
    assert evaluate(gold, pred, LABELS) == scoring_oracle.evaluate(gold, pred, LABELS)
    assert iaa(gold, pred, LABELS) == scoring_oracle.iaa(gold, pred, LABELS)
    assert error_breakdown(gold, pred) == quadratic_error_breakdown(gold, pred)


@pytest.mark.parametrize("gold, pred", [
    ([doc_from_tags([["B-Symptom", "O"], ["O", "O"]])], [doc_from_tags([["O", "O"], ["B-Symptom", "O"]])]),
    ([doc_from_tags([["B-Symptom"]], "a"), doc_from_tags([["O"]], "b")],
     [doc_from_tags([["O"]], "a"), doc_from_tags([["B-Symptom"]], "b")]),
], ids=["sentences", "documents"])
def test_equal_spans_in_different_sentences_do_not_match(gold, pred):
    report = evaluate(gold, pred, LABELS)
    assert [(m.tp, m.fp, m.fn) for m in report.per_label] == [(0, 1, 1), (0, 0, 0), (0, 0, 0)]
    assert report == scoring_oracle.evaluate(gold, pred, LABELS)
    assert error_breakdown(gold, pred) == ErrorBreakdown(spurious=1, missed=1) == quadratic_error_breakdown(gold, pred)


def test_scoring_makes_no_per_span_keys():
    # Keys of (document, sentence, start, end, label), one per span and side,
    # peak at about 350 B per gold span here; sentence-by-sentence matching of
    # the Sentences' own span tuples at about 30 B.
    rng = np.random.default_rng(3)
    pairs = [_random_pair(rng, max_sentences=200) for _ in range(8)]
    gold = [doc for g, _ in pairs for doc in g]
    pred = [doc for _, p in pairs for doc in p]
    spans = sum(len(sent.span_bounds) for doc in gold for sent in doc.sentences)
    assert spans >= 2000
    for score in (evaluate, iaa, error_breakdown):
        assert traced_peak(lambda: score(gold, pred)) < 100 * spans, score.__name__


def _one_sentence(*texts):
    return Sentence(tuple(Token(t) for t in texts))


# Each way two corpora can differ, with the message the alignment check gives.
_MISALIGNED = {
    "documents": (
        [Document("a", (_one_sentence("x"),)), Document("b", (_one_sentence("y"),))],
        [Document("a", (_one_sentence("x"),))],
        "corpora have 2 vs 1 documents",
    ),
    "sentences": (
        [Document("a", (_one_sentence("x"),)), Document("b", (_one_sentence("y"), _one_sentence("z")))],
        [Document("a", (_one_sentence("x"),)), Document("b", (_one_sentence("y"),))],
        "document 1 (b): 2 vs 1 sentences",
    ),
    "tokens": (
        [Document("a", (_one_sentence("x"), _one_sentence("y", "z")))],
        [Document("a", (_one_sentence("x"), _one_sentence("y", "z", "w")))],
        "document 0, sentence 1: 2 vs 3 tokens",
    ),
    "token text": (
        [Document("a", (_one_sentence("x"),)), Document("b", (_one_sentence("y"), _one_sentence("p", "q", "r")))],
        [Document("a", (_one_sentence("x"),)), Document("b", (_one_sentence("y"), _one_sentence("p", "'q'", "s")))],
        "token mismatch at document 1, sentence 1, token 1: 'q' vs \"'q'\"",
    ),
    "token text after differing tags": (
        [Document("a", (Sentence((Token("x", "B-Symptom"),)), _one_sentence("y"))),
         Document("b", (_one_sentence("p", "q"),)), Document("c", (_one_sentence("z"),))],
        [Document("a", (_one_sentence("x"), Sentence((Token("y", "B-Treatment"),)))),
         Document("b", (_one_sentence("p", "r"),)), Document("c", (_one_sentence("z"), _one_sentence("w")))],
        "token mismatch at document 1, sentence 0, token 1: 'q' vs 'r'",
    ),
}


@pytest.mark.parametrize("case", _MISALIGNED)
@pytest.mark.parametrize(
    "score", [evaluate, iaa, error_breakdown, scoring_oracle.evaluate], ids=lambda f: f"{f.__module__}.{f.__name__}"
)
def test_misaligned_corpora_name_the_first_difference(score, case):
    gold, pred, message = _MISALIGNED[case]
    with pytest.raises(AlignmentError) as e:
        score(gold, pred)
    assert str(e.value) == message


class TestAggregate:
    def test_single_label_collapses(self):
        m = LabelMetrics.from_counts("Symptom", tp=8, fp=2, fn=4)
        micro, macro, weighted = aggregate([m])
        assert micro == (m.precision, m.recall, m.f1)
        assert macro == (m.precision, m.recall, m.f1)
        assert weighted == pytest.approx((m.precision, m.recall, m.f1))

    def test_macro_is_permutation_invariant(self):
        ms = [
            LabelMetrics.from_counts("A", 5, 1, 2),
            LabelMetrics.from_counts("B", 1, 4, 0),
            LabelMetrics.from_counts("C", 0, 0, 3),
        ]
        _, macro1, w1 = aggregate(ms)
        _, macro2, w2 = aggregate(ms[::-1])
        assert macro1 == pytest.approx(macro2)
        assert w1 == pytest.approx(w2)

    def test_zero_denominators_give_zero(self):
        m = LabelMetrics.from_counts("A", 0, 0, 0)
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)

    def test_micro_f1_is_harmonic_mean(self):
        ms = [LabelMetrics.from_counts("A", 5, 3, 2), LabelMetrics.from_counts("B", 2, 1, 4)]
        micro, _, _ = aggregate(ms)
        p, r, f1 = micro
        assert f1 == pytest.approx(2 * p * r / (p + r))


class TestErrorBreakdown:
    def test_identical_annotation(self):
        gold = [doc_from_tags([["B-Symptom", "I-Symptom", "O", "B-Treatment"]])]
        b = error_breakdown(gold, gold)
        assert (b.correct, b.label_error, b.boundary_error, b.spurious, b.missed) == (2, 0, 0, 0, 0)

    def test_boundary_error(self):
        gold = [doc_from_tags([["B-Symptom", "I-Symptom", "I-Symptom", "O"]])]
        pred = [doc_from_tags([["B-Symptom", "I-Symptom", "O", "O"]])]
        b = error_breakdown(gold, pred)
        assert b.boundary_error == 1
        assert b.correct == 0
        assert b.missed == 0

    def test_label_error(self):
        gold = [doc_from_tags([["B-Symptom", "I-Symptom", "O"]])]
        pred = [doc_from_tags([["B-Treatment", "I-Treatment", "O"]])]
        b = error_breakdown(gold, pred)
        assert b.label_error == 1
        assert b.missed == 0

    def test_boundary_error_matches_the_first_overlap(self):
        # The first prediction overlaps both gold spans and claims the first;
        # the second prediction claims the second, so no gold span is missed.
        gold = [doc_from_tags([["B-Symptom", "I-Symptom", "O", "B-Symptom", "I-Symptom"]])]
        pred = [doc_from_tags([["O", "B-Symptom", "I-Symptom", "I-Symptom", "B-Symptom"]])]
        b = error_breakdown(gold, pred)
        assert (b.boundary_error, b.missed) == (2, 0)

    def test_against_quadratic_reference(self):
        rng = np.random.default_rng(505)
        kinds = np.zeros(5, dtype=int)
        for _ in range(500):
            gold, pred = _random_pair(rng)
            b = error_breakdown(gold, pred)
            assert b == quadratic_error_breakdown(gold, pred)
            kinds += np.array([b.correct, b.label_error, b.boundary_error, b.spurious, b.missed]) > 0
        assert np.all(kinds > 50)  # every category is exercised

    def test_spurious_and_missed(self):
        gold = [doc_from_tags([["B-Symptom", "O", "O", "O"]])]
        pred = [doc_from_tags([["O", "O", "B-Treatment", "O"]])]
        b = error_breakdown(gold, pred)
        assert b.spurious == 1
        assert b.missed == 1


class TestIaa:
    def test_identical_annotations(self):
        docs = [doc_from_tags([["B-Symptom", "O", "B-Treatment"]])]
        report = iaa(docs, docs, LABELS)
        assert report.token_agreement_pct == 100.0
        assert report.entity_f1_a_as_gold == 1.0
        assert report.token_count == 3

    def test_nine_of_ten_matching(self):
        a = [doc_from_tags([["O"] * 10])]
        b = [doc_from_tags([["O"] * 9 + ["B-Symptom"]])]
        report = iaa(a, b, LABELS)
        assert report.token_agreement_pct == pytest.approx(90.0)

    def test_disjoint_entity_tagging_hand_count(self):
        # 6 tokens; annotator A tags 0-1, B tags 3-4; positions 2 and 5 are
        # O for both, so 2 of 6 decisions agree.
        a = [doc_from_tags([["B-Symptom", "I-Symptom", "O", "O", "O", "O"]])]
        b = [doc_from_tags([["O", "O", "O", "B-Symptom", "I-Symptom", "O"]])]
        report = iaa(a, b, LABELS)
        assert report.token_agreement_pct == pytest.approx(100.0 * 2 / 6)
        assert report.entity_f1_a_as_gold == 0.0


class TestReports:
    def test_text_report_shape(self):
        gold = [doc_from_tags([["B-Symptom", "O"]])]
        text = format_report(evaluate(gold, gold, LABELS))
        lines = text.strip().split("\n")
        assert lines[0].split()[:2] == ["Category", "Precision"]
        assert len(lines) == 1 + len(LABELS.labels) + 3
        assert lines[-3].startswith("micro avg")
        assert lines[-2].startswith("macro avg")
        assert lines[-1].startswith("weighted avg")

    def test_json_report_round_trips(self):
        import json

        gold = [doc_from_tags([["B-Symptom", "O"]])]
        doc = json.loads(report_to_json(evaluate(gold, gold, LABELS)))
        assert doc["micro"]["f1"] == 1.0
        assert len(doc["per_label"]) == 3
