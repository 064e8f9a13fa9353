"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import time

import numpy as np
import pytest

from imdner import crf as C
from imdner import network as N
from imdner.cli import main as cli_main
from imdner.corpus import (
    Document,
    EntitySpan,
    LabelSet,
    Sentence,
    Token,
    spans_to_tags,
    tags_to_spans,
)
from imdner.embeddings import CharVocab, EmbeddingTable, build_char_vocab
from imdner.evaluation import LabelMetrics, aggregate, evaluate, iaa
from imdner.kgraph import DEFAULT_RULES, Edge, Node, extract_graph
from imdner.training import TrainConfig, loss_and_gradients, predict_documents, train

from crf_oracle import brute_force_oracle, log_z_and_marginals
from test_evaluation import _random_pair, brute_force_counts

TOY_LABELS = LabelSet(("Symptom", "Treatment", "Biomarker"))


def _report(criterion, detail):
    print(f"\n[PASS] criterion {criterion}: {detail}")


def test_criterion_1_crf_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(20260823)
    worst_lz = 0.0
    worst_marg = 0.0
    for _ in range(1000):
        T_len = int(rng.integers(1, 6))
        K = 3
        emis = rng.normal(size=(T_len, K)) * 2
        params = {
            "crf.transitions": rng.normal(size=(K, K)),
            "crf.start": rng.normal(size=K),
            "crf.end": rng.normal(size=K),
        }
        lz, marg = log_z_and_marginals(emis, params)
        olz, obest, omarg = brute_force_oracle(emis, params)
        assert abs(lz - olz) < 1e-6
        worst_lz = max(worst_lz, abs(lz - olz))
        best = C.viterbi(emis, params)
        assert best.tags == obest.tags
        assert np.max(np.abs(marg - omarg)) < 1e-9
        worst_marg = max(worst_marg, float(np.max(np.abs(marg - omarg))))
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _report(1, f"1000 instances, max |logZ| err {worst_lz:.2e}, max marginal err {worst_marg:.2e}, {elapsed:.1f}s")


def test_criterion_2_gradient_correctness():
    started = time.monotonic()
    labels = TOY_LABELS
    config = N.NetworkConfig(
        num_tags=labels.num_tags, word_dim=4, char_embed_dim=3,
        char_filter_width=3, char_filter_count=5, lstm_hidden=4, dropout_rate=0.5,
    )
    rng = np.random.default_rng(1)
    words = ["fever", "rash", "the", "patient", "had", "ana", "prednisone", "."]
    table = EmbeddingTable(words, rng.normal(size=(len(words), 4)))
    sentences = [
        Sentence((Token("the"), Token("patient"), Token("had"), Token("fever", "B-Symptom"), Token("."))),
        Sentence((Token("ana", "B-Biomarker"), Token("rash", "B-Symptom"))),
        Sentence((Token("prednisone", "B-Treatment"), Token("."))),
    ]
    vocab = build_char_vocab([Document("d", tuple(sentences))])
    params = N.init_network_params(config, len(vocab), rng)
    params.update(C.init_params(config.num_tags, rng))

    def loss_only():
        value, _ = loss_and_gradients(sentences, params, table, vocab, labels, (config.dropout_rate, 7))
        return value

    _, grads = loss_and_gradients(sentences, params, table, vocab, labels, (config.dropout_rate, 7))
    eps = 1e-4
    worst = 0.0
    for name, arr in params.items():
        fd = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + eps
            lp = loss_only()
            arr[ix] = orig - eps
            lm = loss_only()
            arr[ix] = orig
            fd[ix] = (lp - lm) / (2 * eps)
        rel = np.abs(grads[name] - fd) / np.maximum(np.maximum(np.abs(grads[name]), np.abs(fd)), 1e-4)
        tensor_worst = float(rel.max())
        assert tensor_worst < 1e-3, f"{name}: max relative error {tensor_worst:.2e}"
        worst = max(worst, tensor_worst)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(2, f"all tensors within 1e-3 (worst {worst:.2e}), {elapsed:.1f}s")


def test_criterion_3_overfit_sanity(toy_corpus, toy_table):
    started = time.monotonic()
    config = N.NetworkConfig(
        num_tags=TOY_LABELS.num_tags, word_dim=8, char_embed_dim=8,
        char_filter_width=3, char_filter_count=16, lstm_hidden=32, dropout_rate=0.5,
    )
    tc = TrainConfig(batch_size=8, epochs=300, learning_rate=0.001, dropout_rate=0.5, seed=13)
    result = train(toy_corpus, [], toy_table, config, tc, TOY_LABELS)
    pred = predict_documents(result.checkpoint, toy_corpus)
    report = evaluate(toy_corpus, pred, TOY_LABELS)
    micro_f1 = report.micro[2]
    elapsed = time.monotonic() - started
    assert micro_f1 >= 0.99
    assert elapsed < 120.0
    _report(3, f"train micro-F1 {micro_f1:.3f} after 300 epochs, {elapsed:.1f}s")


# (precision, recall, f1, support) rows of the published per-label results.
PUBLISHED_ROWS = [
    ("Bacterial_Infection", 0.93, 0.95, 0.94, 439),
    ("Biomarker", 0.80, 0.91, 0.85, 183),
    ("Fungal_Infection", 0.96, 0.98, 0.97, 109),
    ("Geographical_Location", 0.96, 0.97, 0.96, 377),
    ("Immune_Mediated_Disease", 0.92, 0.87, 0.89, 330),
    ("Other_Disease_Disorder", 0.87, 0.74, 0.80, 627),
    ("Other_Test", 0.85, 0.88, 0.86, 892),
    ("Rad_Test", 0.82, 0.96, 0.89, 194),
    ("Symptom", 0.86, 0.89, 0.87, 1562),
    ("Test_Result", 0.89, 0.87, 0.88, 530),
    ("Treatment", 0.85, 0.94, 0.89, 488),
    ("Viral_Infection", 0.97, 0.81, 0.88, 247),
]


def test_criterion_4_published_averaging_reproduction():
    rows = []
    for label, p, r, f1, support in PUBLISHED_ROWS:
        tp = round(r * support)
        fp = round(tp / p - tp) if p else 0
        rows.append(
            LabelMetrics(label=label, precision=p, recall=r, f1=f1, support=support,
                         tp=tp, fp=fp, fn=support - tp)
        )
    assert sum(m.support for m in rows) == 5978
    _, macro, weighted = aggregate(rows)
    assert macro[2] == pytest.approx(0.89, abs=0.005)
    assert weighted[2] == pytest.approx(0.88, abs=0.01)
    _report(4, f"macro-F1 {macro[2]:.4f} (target 0.89±0.005), weighted-F1 {weighted[2]:.4f} (target 0.88±0.01)")


def test_criterion_5_evaluation_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(555)
    for _ in range(500):
        gold, pred = _random_pair(rng)
        report = evaluate(gold, pred, TOY_LABELS)
        oracle = brute_force_counts(gold, pred, TOY_LABELS)
        for m in report.per_label:
            assert (m.tp, m.fp, m.fn) == oracle[m.label]
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report(5, f"500 corpora, exact tp/fp/fn agreement, {elapsed:.1f}s")


def test_criterion_6_bio_codec_round_trip():
    rng = np.random.default_rng(66)
    labels = list(TOY_LABELS.labels)
    for _ in range(1000):
        length = int(rng.integers(1, 51))
        spans = []
        pos = 0
        while pos < length:
            if rng.random() < 0.5:
                end = min(length, pos + int(rng.integers(1, 5)))
                spans.append(EntitySpan(0, pos, end, labels[int(rng.integers(len(labels)))]))
                pos = end + int(rng.integers(0, 3))
            else:
                pos += 1
        tags = spans_to_tags(length, spans)
        assert tags_to_spans(tags) == sorted(spans)
    _report(6, "1000 random span sets round-trip exactly")


def test_criterion_7_determinism(data_dir, tmp_path):
    config = {"epochs": 3, "lstm_hidden": 6, "char_embed_dim": 4, "char_filter_count": 4}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    ckpts = []
    for tag in ("a", "b"):
        out = tmp_path / f"model_{tag}.ckpt"
        rc = cli_main([
            "train",
            "--corpus", str(data_dir / "toy_corpus.conll"),
            "--embeddings", str(data_dir / "test_embeddings.txt"),
            "--config", str(cfg_path),
            "--seed", "13",
            "--out", str(out),
        ])
        assert rc == 0
        ckpts.append(out.read_bytes())
    assert ckpts[0] == ckpts[1]

    preds = []
    for tag in ("p", "q"):
        out = tmp_path / f"pred_{tag}.conll"
        rc = cli_main([
            "predict",
            "--model", str(tmp_path / "model_a.ckpt"),
            "--input", str(data_dir / "toy_corpus.conll"),
            "--out", str(out),
        ])
        assert rc == 0
        preds.append(out.read_bytes())
    assert preds[0] == preds[1]
    _report(7, "bitwise-identical checkpoints and byte-identical predictions")


def test_criterion_8_knowledge_graph_fixture(sle_corpus):
    graph = extract_graph(sle_corpus, DEFAULT_RULES)

    imd = "Immune_Mediated_Disease"
    sle_full = Node("systemic lupus erythematosus", imd)
    sle = Node("sle", imd)
    expected = {
        # sentence 0 head, window 1
        Edge(sle_full, Node("joint pain", "Symptom"), "HAS_SYMPTOM"),
        Edge(sle_full, Node("malar rash", "Symptom"), "HAS_SYMPTOM"),
        Edge(sle_full, Node("photosensitivity", "Symptom"), "HAS_SYMPTOM"),
        Edge(sle_full, Node("hydroxychloroquine", "Treatment"), "TREATED_WITH"),
        Edge(sle_full, Node("corticosteroids", "Treatment"), "TREATED_WITH"),
        Edge(sle_full, Node("ana", "Biomarker"), "HAS_BIOMARKER"),
        Edge(sle_full, Node("anti-dsdna", "Biomarker"), "HAS_BIOMARKER"),
        # sentence 2 head, window 1 reaches sentence 1
        Edge(sle, Node("hydroxychloroquine", "Treatment"), "TREATED_WITH"),
        Edge(sle, Node("corticosteroids", "Treatment"), "TREATED_WITH"),
        Edge(sle, Node("ana", "Biomarker"), "HAS_BIOMARKER"),
        Edge(sle, Node("anti-dsdna", "Biomarker"), "HAS_BIOMARKER"),
        Edge(sle, Node("hypertension", "Other_Disease_Disorder"), "COMORBID_WITH"),
        Edge(sle, Node("osteopenia", "Other_Disease_Disorder"), "COMORBID_WITH"),
    }
    assert graph.edges == expected
    _report(8, f"SLE fixture yields exactly the {len(expected)} hand-enumerated edges")


def test_criterion_9_iaa_contract(toy_corpus):
    identical = iaa(toy_corpus, toy_corpus, TOY_LABELS)
    assert identical.token_agreement_pct == 100.0
    assert identical.entity_f1_a_as_gold == 1.0

    a = [Document("d", (Sentence(tuple(Token(f"w{i}", "O") for i in range(10))),))]
    tags = ["O"] * 9 + ["B-Symptom"]
    b = [Document("d", (Sentence(tuple(Token(f"w{i}", t) for i, t in enumerate(tags))),))]
    one_off = iaa(a, b, TOY_LABELS)
    assert one_off.token_agreement_pct == pytest.approx(90.0)
    _report(9, "identical -> 100.0% / F1 1.0; one disagreement in 10 tokens -> 90.0%")
