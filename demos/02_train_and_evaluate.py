"""Train a small tagger on the bundled toy corpus and evaluate it.

The model is the full Char-CNN -> BiLSTM -> CRF stack, just with small
dimensions so the demo finishes in a few seconds. Run from the repository
root:

    python3 demos/02_train_and_evaluate.py
"""

from pathlib import Path

from imdner.corpus import LabelSet, parse_conll
from imdner.embeddings import load_embeddings
from imdner.evaluation import error_breakdown, evaluate, format_report
from imdner.network import NetworkConfig
from imdner.training import TrainConfig, format_history, predict_documents, train

DATA = Path(__file__).resolve().parent.parent / "data"


def main():
    docs = parse_conll((DATA / "toy_corpus.conll").read_text(), name="toy_corpus")
    table = load_embeddings((DATA / "test_embeddings.txt").read_text())
    labels = LabelSet(("Symptom", "Treatment", "Biomarker"))

    # Small dimensions keep this quick; the defaults (word_dim=200,
    # lstm_hidden=200, ...) are what you would use on a real corpus.
    net_config = NetworkConfig(
        num_tags=labels.num_tags,
        word_dim=table.dim,
        char_embed_dim=8,
        char_filter_width=3,
        char_filter_count=16,
        lstm_hidden=32,
    )
    train_config = TrainConfig(epochs=250, seed=13)

    print("training (250 epochs on 20 sentences, ~15s)...")
    result = train(docs, dev_docs=docs[:1], table=table,
                   net_config=net_config, train_config=train_config, labels=labels)
    print(format_history(result.history[-5:]))

    # Evaluation is strict entity-level: a predicted span counts only when
    # its boundaries and label both match a gold span exactly.
    predicted = predict_documents(result.checkpoint, docs)
    report = evaluate(docs, predicted, labels)
    print()
    print(format_report(report))

    breakdown = error_breakdown(docs, predicted)
    print(f"\nerror breakdown: correct={breakdown.correct} "
          f"label={breakdown.label_error} boundary={breakdown.boundary_error} "
          f"spurious={breakdown.spurious} missed={breakdown.missed}")


if __name__ == "__main__":
    main()
