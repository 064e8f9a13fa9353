"""Command-line workflow: split, train, eval, predict, stats, iaa, kg.

Exit codes: 0 success, 1 runtime/data error, 2 usage error. All randomness
flows from --seed (default 13); repeated runs produce identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields as dc_fields
from pathlib import Path

from . import evaluation, kgraph, training
from .corpus import (
    Document,
    LabelSet,
    corpus_stats,
    parse_conll,
    serialize_conll,
    split_corpus,
    tokenize_raw,
)
from .embeddings import load_embeddings
from .errors import ConfigError, ImdnerError, SchemaError
from .network import NetworkConfig
from .training import TrainConfig


def _read(path) -> bytes:
    return Path(path).read_bytes()


def _parse_corpus(path, labels=None):
    return parse_conll(_read(path), labels, name=Path(path).name)


def _split_config(overrides: dict):
    """Partition a flat config mapping into TrainConfig/NetworkConfig kwargs."""
    if not isinstance(overrides, dict):
        raise ConfigError("the config file must hold a JSON object of config keys")
    train_keys = {f.name for f in dc_fields(TrainConfig)}
    net_keys = {f.name for f in dc_fields(NetworkConfig)} - {"num_tags", "word_dim"}
    train_kw, net_kw = {}, {}
    for key, value in overrides.items():
        if key == "seed":
            raise ConfigError("the config may not set 'seed'; give it with --seed")
        if key in train_keys:
            train_kw[key] = value
        elif key in net_keys:
            net_kw[key] = value
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return train_kw, net_kw


def cmd_train(args) -> int:
    try:
        overrides = json.loads(_read(args.config)) if args.config else {}
    except (ValueError, RecursionError) as e:  # JSONDecodeError, UnicodeDecodeError, or nested too deep
        raise ConfigError(f"{args.config}: not a valid JSON file: {e}") from None
    train_kw, net_kw = _split_config(overrides)
    train_cfg = TrainConfig(**train_kw, seed=args.seed)

    labels = LabelSet()
    table = load_embeddings(_read(args.embeddings))
    net_cfg = NetworkConfig(
        num_tags=labels.num_tags,
        word_dim=table.dim,
        dropout_rate=train_cfg.dropout_rate,
        **net_kw,
    )
    print(
        f"training: epochs={train_cfg.epochs} batch_size={train_cfg.batch_size} "
        f"learning_rate={train_cfg.learning_rate} dropout={train_cfg.dropout_rate} "
        f"optimizer=adam seed={train_cfg.seed} word_dim={table.dim}"
    )

    train_docs = _parse_corpus(args.corpus, labels)
    dev_docs = _parse_corpus(args.dev, labels) if args.dev else []
    result = training.train(train_docs, dev_docs, table, net_cfg, train_cfg, labels)

    training.save_checkpoint(result.best_checkpoint, args.out)
    history_path = Path(str(args.out) + ".history.txt")
    history_path.write_text(training.format_history(result.history), encoding="utf-8")
    print(f"checkpoint written to {args.out}")
    print(f"history written to {history_path}")
    return 0


def cmd_eval(args) -> int:
    ckpt = training.load_checkpoint(args.model)
    try:
        gold = _parse_corpus(args.corpus, ckpt.label_set)
    except SchemaError as e:
        raise SchemaError(f"{e}; checkpoint labels are {sorted(ckpt.label_set.labels)}") from e
    pred = training.predict_documents(ckpt, gold)
    report = evaluation.evaluate(gold, pred, ckpt.label_set)
    sys.stdout.write(evaluation.format_report(report))
    if args.report:
        Path(args.report).write_text(evaluation.report_to_json(report), encoding="utf-8")
    return 0


def cmd_predict(args) -> int:
    ckpt = training.load_checkpoint(args.model)
    data = _read(args.input)
    if args.raw:
        sentences = tokenize_raw(data)
        docs = [Document("input", tuple(sentences))] if sentences else []
    else:
        docs = parse_conll(data, ckpt.label_set, name=Path(args.input).name) if data.strip() else []
    predicted = training.predict_documents(ckpt, docs)
    Path(args.out).write_text(serialize_conll(predicted), encoding="utf-8")
    return 0


def cmd_split(args) -> int:
    docs = _parse_corpus(args.corpus)
    train, test = split_corpus(docs, args.test_fraction, args.seed)
    Path(args.train_out).write_text(serialize_conll(train), encoding="utf-8")
    Path(args.test_out).write_text(serialize_conll(test), encoding="utf-8")
    print(f"split {len(docs)} documents into {len(train)} train / {len(test)} test")
    return 0


def cmd_stats(args) -> int:
    stats = corpus_stats(_parse_corpus(args.corpus))
    out = [
        f"documents\t{stats.document_count}",
        f"sentences\t{stats.sentence_count}",
        f"tokens\t{stats.token_count}",
    ]
    for label in sorted(stats.entity_counts, key=lambda k: (-stats.entity_counts[k], k)):
        out.append(f"{label}\t{stats.entity_counts[label]}")
    text = "\n".join(out) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_iaa(args) -> int:
    a = _parse_corpus(args.a)
    b = _parse_corpus(args.b)
    report = evaluation.iaa(a, b)
    print(f"token_agreement_pct\t{report.token_agreement_pct:.1f}")
    print(f"entity_f1_a_as_gold\t{report.entity_f1_a_as_gold:.4f}")
    print(f"token_count\t{report.token_count}")
    return 0


def cmd_kg(args) -> int:
    docs = _parse_corpus(args.corpus)
    rules = kgraph.DEFAULT_RULES
    if args.window is not None:
        rules = tuple(
            kgraph.RelationRule(r.head_label, r.tail_label, r.relation_name, args.window) for r in rules
        )
    graph = kgraph.extract_graph(docs, rules)
    payload = kgraph.export_graph(graph, format=args.format)
    if args.out:
        Path(args.out).write_bytes(payload)
    else:
        sys.stdout.buffer.write(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="imdner", description="Clinical NER workflow")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on a tagged corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dev")
    p.add_argument("--config", help="JSON file of training/network overrides")
    p.add_argument("--seed", type=int, default=13)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a tagged corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--report", help="write a machine-readable JSON report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="tag a corpus or raw text")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--raw", action="store_true", help="input is raw text, not CoNLL")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("split", help="document-level train/test split")
    p.add_argument("--corpus", required=True)
    p.add_argument("--test-fraction", type=float, default=0.2, dest="test_fraction")
    p.add_argument("--seed", type=int, default=13)
    p.add_argument("--train-out", required=True, dest="train_out")
    p.add_argument("--test-out", required=True, dest="test_out")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("stats", help="corpus size and entity distribution")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("iaa", help="inter-annotator agreement between two annotations")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_iaa)

    p = sub.add_parser("kg", help="extract and export an entity knowledge graph")
    p.add_argument("--corpus", required=True, help="tagged CoNLL corpus (gold or predicted)")
    p.add_argument("--format", choices=("structured", "dot"), default="structured")
    p.add_argument("--window", type=int, help="override the sentence window of the default rules")
    p.add_argument("--out")
    p.set_defaults(func=cmd_kg)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ImdnerError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:  # numpy's says how much it could not allocate
        print("error: out of memory" + (f": {e}" if str(e) else ""), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
