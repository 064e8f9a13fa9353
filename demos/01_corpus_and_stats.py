"""Walk through the corpus layer: parsing, the BIO codec, and statistics.

Run from the repository root:

    python3 demos/01_corpus_and_stats.py
"""

from pathlib import Path

from imdner.corpus import (
    corpus_stats,
    parse_conll,
    spans_to_tags,
    split_corpus,
    tags_to_spans,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def main():
    # A corpus is a list of documents; each document is a tuple of sentences
    # of (token, BIO-tag) pairs. Blank lines separate sentences and
    # -DOCSTART- lines separate documents.
    docs = parse_conll((DATA / "toy_corpus.conll").read_text(), name="toy_corpus")
    print(f"loaded {len(docs)} documents from toy_corpus.conll")
    for doc in docs:
        print(f"  {doc.id}: {len(doc.sentences)} sentences")

    # Tag sequences and entity spans are two views of the same annotation.
    # tags_to_spans decodes a BIO stream; spans_to_tags re-encodes it.
    first = docs[0].sentences[0]
    print("\nfirst sentence:", " ".join(t.text for t in first.tokens))
    spans = tags_to_spans(first.tags)
    for span in spans:
        words = " ".join(t.text for t in first.tokens[span.start : span.end])
        print(f"  entity: {span.label!r} -> {words!r} [{span.start}:{span.end})")
    assert tuple(spans_to_tags(len(first), spans)) == first.tags  # lossless round trip

    # corpus_stats tallies documents, sentences, tokens, and entity counts.
    stats = corpus_stats(docs)
    print(f"\n{stats.document_count} documents, {stats.sentence_count} sentences, "
          f"{stats.token_count} tokens")
    for label, count in sorted(stats.entity_counts.items()):
        print(f"  {label}: {count} entities")

    # Splits happen at document granularity so no document leaks across the
    # boundary, and a fixed seed makes the split reproducible.
    train, test = split_corpus(docs, test_fraction=0.25, seed=7)
    print(f"\nsplit: {len(train)} train / {len(test)} test documents")
    print("train ids:", [d.id for d in train])
    print("test ids: ", [d.id for d in test])


if __name__ == "__main__":
    main()
