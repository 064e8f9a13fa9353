"""The benchmark workloads, each driving imdner only through its public
entry points.

Each workload runs in one process as a closed loop with one client: an op is
issued only after the previous one has returned, so nothing queues. A
workload has three phases:

- prepare(): generate the seeded inputs and write them as files (untimed);
- setup():   bytes to ready inputs, timed as `setup_s`; returns them;
- op():      one timed operation on the ready inputs; check() then verifies
             its output, untimed.

Why these: train-paper is backward/CRF/Adam-bound and rewrites the weights
every step; tag-notes is forward-only over fixed weights (so a cache of
derived checkpoint state gains there and must not cost on train-paper); the
three scoring workloads are pure-Python corpus/evaluation/kgraph work in
which network and crf do nothing, one each for evaluate + iaa
(score-corpus), error_breakdown (breakdown-corpus) and extract_graph + both
exports (kg-corpus).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from imdner import corpus, embeddings, evaluation, kgraph, network, training

import inputs


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


@dataclass
class OpResult:
    units: float  # work done, in the workload's throughput unit (tokens)
    output: object = None


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _bio_valid(tags: list[str]) -> bool:
    prev = "O"
    for tag in tags:
        if tag.startswith("I-") and prev[2:] != tag[2:]:
            return False
        prev = tag
    return True


def _file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# -- train-paper ---------------------------------------------------------------


class TrainPaper:
    """`train()` then `save_checkpoint`, as `imdner train --dev` does, at the
    paper's sizes (batch 8, dropout 0.5). Every op repeats the same seeded job,
    so every op must write a byte-identical checkpoint."""

    name = "train-paper"

    def prepare(self, size: inputs.Size, seed: int, workdir: Path) -> None:
        gen = inputs.Generator(size, seed)
        self.size = size
        gen.write_embeddings(workdir / "vectors.txt")
        self.raw = {
            "emb": (workdir / "vectors.txt").read_bytes(),
            "train": inputs.conll_bytes(gen.documents(size.train_tokens, 4, 12)),
            "dev": inputs.conll_bytes(gen.documents(size.dev_tokens, 100, 100)),
        }
        self.ckpt_path = workdir / "model.ckpt"
        self.digest = None

    def setup(self) -> SimpleNamespace:
        return SimpleNamespace(
            table=embeddings.load_embeddings(self.raw["emb"]),
            train_docs=corpus.parse_conll(self.raw["train"], name="train"),
            dev_docs=corpus.parse_conll(self.raw["dev"], name="dev"),
        )

    def op(self, ready, i: int) -> OpResult:
        size = self.size
        labels = corpus.LabelSet()
        net_cfg = network.NetworkConfig(
            num_tags=labels.num_tags, word_dim=ready.table.dim, lstm_hidden=size.lstm_hidden,
            char_embed_dim=size.char_embed_dim, char_filter_count=size.char_filter_count, dropout_rate=0.5,
        )
        train_cfg = training.TrainConfig(batch_size=8, epochs=size.epochs, dropout_rate=0.5, seed=13)
        result = training.train(ready.train_docs, ready.dev_docs, ready.table, net_cfg, train_cfg, labels)
        training.save_checkpoint(result.best_checkpoint, self.ckpt_path)
        n_tok = sum(len(s) for d in ready.train_docs for s in d.sentences)
        return OpResult(units=n_tok * size.epochs, output=result)

    def check(self, ready, res: OpResult) -> None:
        result = res.output
        _require(all(math.isfinite(r.loss) for r in result.history), "non-finite training loss")
        loaded = training.load_checkpoint(self.ckpt_path)
        in_memory = training.predict_documents(result.best_checkpoint, ready.dev_docs)
        reloaded = training.predict_documents(loaded, ready.dev_docs)
        _require([s.tags for d in in_memory for s in d.sentences] == [s.tags for d in reloaded for s in d.sentences],
                 "save -> load -> predict changed the dev tags")
        digest = _file_digest(self.ckpt_path)
        self.digest = self.digest or digest
        _require(digest == self.digest, "the same seeded training run wrote a different checkpoint")
        self.last = result

    def report(self, ready, ops: list[OpResult], wall_s: float, e2e: dict) -> dict[str, tuple[float, str]]:
        sents = sum(len(d.sentences) for d in ready.train_docs) * self.size.epochs * len(ops)
        last = self.last.history[-1]
        return {
            "train_sent_per_s": (sents / wall_s, "sent/s"),
            "train_loss": (last.loss, "nll"),
            "train_dev_f1": (last.dev_f1, "f1"),
            "checkpoint_sha256": (self.digest, ""),
        }


# -- tag-notes -----------------------------------------------------------------


class TagNotes:
    """Raw notes tagged one at a time through `tokenize_raw` and
    `predict_documents`, with a paper-size checkpoint from `load_checkpoint`."""

    name = "tag-notes"

    def prepare(self, size: inputs.Size, seed: int, workdir: Path) -> None:
        gen = inputs.Generator(size, seed)
        gen.write_embeddings(workdir / "vectors.txt")
        docs = corpus.parse_conll(inputs.conll_bytes(gen.documents(size.ckpt_tokens, 4, 8)), name="train")
        table = embeddings.load_embeddings((workdir / "vectors.txt").read_bytes())
        labels = corpus.LabelSet()
        net_cfg = network.NetworkConfig(
            num_tags=labels.num_tags, word_dim=table.dim, lstm_hidden=size.lstm_hidden,
            char_embed_dim=size.char_embed_dim, char_filter_count=size.char_filter_count,
        )
        result = training.train(docs, [], table, net_cfg, training.TrainConfig(epochs=1, seed=seed), labels)
        self.ckpt_path = workdir / "served.ckpt"
        training.save_checkpoint(result.checkpoint, self.ckpt_path)
        self.notes = gen.notes(size.notes)

    def setup(self) -> training.Checkpoint:
        return training.load_checkpoint(self.ckpt_path)

    def op(self, ckpt, i: int) -> OpResult:
        text, expected_tokens = self.notes[i % len(self.notes)]
        sentences = corpus.tokenize_raw(text)
        docs = [corpus.Document(f"note-{i}", tuple(sentences))]
        pred = training.predict_documents(ckpt, docs)
        return OpResult(units=expected_tokens, output=(sentences, pred, expected_tokens))

    def check(self, ckpt, res: OpResult) -> None:
        sentences, pred, expected_tokens = res.output
        _require(len(pred) == 1 and len(pred[0].sentences) == len(sentences), "sentence count changed")
        for src, out in zip(sentences, pred[0].sentences):
            _require(out.texts == src.texts, "predicted tokens differ from tokenize_raw")
            _require(_bio_valid(out.tags), f"BIO-invalid prediction {out.tags}")
        _require(sum(len(s) for s in sentences) == expected_tokens, "tokenize_raw token count differs from the note")

    def report(self, ckpt, ops: list[OpResult], wall_s: float, e2e: dict) -> dict[str, tuple[float, str]]:
        return {"tag_tok_per_s": e2e["tok_per_s"], "note_p50_ms": e2e["op_p50_ms"], "note_p95_ms": e2e["op_p95_ms"]}


# -- scoring: score-corpus, breakdown-corpus, kg-corpus ----------------------------


class _Scoring:
    """Gold corpus against a seeded prediction with planted errors, both read
    with `parse_conll` in set-up. Each scoring workload times one cost of its
    own, so that a slower `evaluate` cannot hide behind `error_breakdown`."""

    name = ""

    def _tokens(self, size: inputs.Size) -> int:
        return size.score_tokens

    def prepare(self, size: inputs.Size, seed: int, workdir: Path) -> None:
        gen = inputs.Generator(size, seed)
        gold = gen.documents(self._tokens(size), 5, 40)
        pred, self.expected = gen.plant_errors(gold)
        self.raw_gold = inputs.conll_bytes(gold)
        self.raw_pred = inputs.conll_bytes(pred)
        self._prepare_reference(pred)

    def _prepare_reference(self, pred) -> None:
        pass

    def setup(self) -> tuple:
        return corpus.parse_conll(self.raw_gold, name="gold"), corpus.parse_conll(self.raw_pred, name="pred")


class ScoreCorpus(_Scoring):
    """`evaluate` and `iaa`, checked against the planted counts."""

    name = "score-corpus"

    def op(self, ready, i: int) -> OpResult:
        gold, pred = ready
        return OpResult(units=self.expected.tokens, output=(evaluation.evaluate(gold, pred), evaluation.iaa(gold, pred)))

    def check(self, ready, res: OpResult) -> None:
        report, agreement = res.output
        exp = self.expected
        for m in report.per_label:
            _require((m.tp, m.fp, m.fn) == (exp.tp[m.label], exp.fp[m.label], exp.fn[m.label]),
                     f"evaluate counts for {m.label}")
        tp, fp, fn = (sum(d.values()) for d in (exp.tp, exp.fp, exp.fn))
        p, r = tp / (tp + fp), tp / (tp + fn)
        f1 = 2 * p * r / (p + r)
        _require(math.isclose(report.micro[2], f1, rel_tol=1e-12), "evaluate micro F1")
        _require(agreement.token_count == exp.tokens, "iaa token count")
        _require(math.isclose(agreement.token_agreement_pct, 100.0 * exp.agreeing_tokens / exp.tokens, rel_tol=1e-12),
                 "iaa token agreement")
        _require(math.isclose(agreement.entity_f1_a_as_gold, f1, rel_tol=1e-12), "iaa entity F1")

    def report(self, ready, ops: list[OpResult], wall_s: float, e2e: dict) -> dict[str, tuple[float, str]]:
        return {"score_tok_per_s": e2e["tok_per_s"]}


class BreakdownCorpus(_Scoring):
    """`error_breakdown`, checked against the planted counts, on a smaller
    corpus: its cost grows with the square of the corpus today."""

    name = "breakdown-corpus"

    def _tokens(self, size: inputs.Size) -> int:
        return size.breakdown_tokens

    def op(self, ready, i: int) -> OpResult:
        gold, pred = ready
        return OpResult(units=self.expected.tokens, output=evaluation.error_breakdown(gold, pred))

    def check(self, ready, res: OpResult) -> None:
        exp = self.expected.breakdown
        _require({k: getattr(res.output, k) for k in exp} == exp, "error_breakdown counts")

    def report(self, ready, ops: list[OpResult], wall_s: float, e2e: dict) -> dict[str, tuple[float, str]]:
        return {"breakdown_tok_per_s": e2e["tok_per_s"]}


class KgCorpus(_Scoring):
    """`extract_graph` on the prediction and `export_graph` in both formats,
    checked against a naive re-implementation computed in prepare()."""

    name = "kg-corpus"

    def _prepare_reference(self, pred) -> None:
        rules = [(r.head_label, r.tail_label, r.relation_name, r.window) for r in kgraph.DEFAULT_RULES]
        self.nodes, self.edges = inputs.naive_graph(pred, rules)

    def op(self, ready, i: int) -> OpResult:
        graph = kgraph.extract_graph(ready[1])
        structured = kgraph.export_graph(graph, "structured")
        dot = kgraph.export_graph(graph, "dot")
        return OpResult(units=self.expected.tokens, output=(graph, structured, dot))

    def check(self, ready, res: OpResult) -> None:
        graph, structured, dot = res.output
        nodes = {(n.text, n.label) for n in graph.nodes}
        edges = {((e.head.text, e.head.label), (e.tail.text, e.tail.label), e.relation) for e in graph.edges}
        _require(nodes == self.nodes and edges == self.edges, "extract_graph differs from the naive reference")
        doc = json.loads(structured)
        _require(len(doc["nodes"]) == len(nodes) and len(doc["edges"]) == len(edges), "structured export counts")
        _require(dot.decode("utf-8").count(" -> ") == len(edges), "dot export edge count")

    def report(self, ready, ops: list[OpResult], wall_s: float, e2e: dict) -> dict[str, tuple[float, str]]:
        return {"kg_tok_per_s": e2e["tok_per_s"]}


WORKLOADS = {w.name: w for w in (TrainPaper, TagNotes, ScoreCorpus, BreakdownCorpus, KgCorpus)}
