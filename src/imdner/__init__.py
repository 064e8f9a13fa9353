"""Clinical named-entity recognition: Char-CNN + BiLSTM + CRF, built on numpy.

Submodules:
    corpus      tokens, BIO tags, spans, CoNLL I/O, splits, stats
    embeddings  word-embedding tables and character vocabularies
    network     emission network (Char-CNN + BiLSTM + projection)
    crf         linear-chain CRF: NLL and its gradients from one forward-backward, packed Viterbi, BIO mask
    training    gradients, Adam, checkpoints, prediction
    evaluation  strict entity-level metrics, error taxonomy, IAA
    kgraph      rule-based relation extraction and graph export
    cli         the `imdner` command-line workflow
"""

from .corpus import (
    DEFAULT_LABELS,
    CorpusStats,
    Document,
    EntitySpan,
    LabelSet,
    Sentence,
    Token,
    corpus_stats,
    parse_conll,
    serialize_conll,
    spans_to_tags,
    split_corpus,
    tags_to_spans,
    tokenize_raw,
)
from .embeddings import CharVocab, EmbeddingTable, build_char_vocab, load_embeddings
from .evaluation import AgreementReport, EvalReport, LabelMetrics, evaluate, iaa
from .kgraph import DEFAULT_RULES, EntityGraph, RelationRule, extract_graph, export_graph
from .training import (
    Checkpoint,
    TrainConfig,
    TrainResult,
    load_checkpoint,
    predict_documents,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
