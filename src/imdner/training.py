"""Supervised training: analytic gradients, Adam, checkpoints, prediction.

The whole trajectory (init, shuffles, dropout masks) flows from spawns of one
SeedSequence, so a repeated run produces a bitwise-identical checkpoint. The
weights are one name -> tensor dict, the network's tensors and then the
CRF's; gradients, Adam's moments and the checkpoint keep its names and
order. Every weight is drawn in float64 and cast once to WEIGHT_DTYPE,
float32, so the gradients and Adam moments are float32 too. A batch makes one
crf.nll_gradients call, whose forward-backward runs in float64; its emission
gradients are cast back to float32 for the network's backward pass
(Micikevicius et al., arXiv:1710.03740: store in low precision, reduce in
high). A checkpoint holds a float32 copy of every weight and the frozen
float32 embedding table, so the on-disk float32 container is lossless and a
checkpoint decodes in float32 whether it was just made or loaded from disk.
It stores no network config: its labels and tensor shapes declare every
size. Training, dev scoring and every checkpoint of a run use one and the
same table.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import crf as crf_mod
from . import network as net_mod
from .corpus import Document, LabelSet, Sentence
from .embeddings import CharVocab, EmbeddingTable, build_char_vocab
from .errors import IntegrityError, NumericError, UnsupportedVersionError, ValidationError, check_field_types
from .evaluation import evaluate

CHECKPOINT_VERSION = 4
_HEADER_CHUNK = 1 << 20  # bytes per read of a checkpoint header
# The bytes JSON text cannot hold unescaped: control characters other than tab, newline and carriage return.
_RAW_CONTROL = re.compile(rb"[\x00-\x08\x0b\x0c\x0e-\x1f]")
GRAD_CLIP_NORM = 5.0
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
WEIGHT_DTYPE = np.float32  # the dtype every weight trains in


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 8
    epochs: int = 16
    learning_rate: float = 0.001
    dropout_rate: float = 0.5
    seed: int = 13

    def __post_init__(self):
        check_field_types(self)
        if self.batch_size < 1 or self.epochs < 1:
            raise ValidationError("batch_size and epochs must be positive")
        if not (0.0 < self.learning_rate < 1.0):
            raise ValidationError("learning_rate must be in (0, 1)")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValidationError("dropout_rate must be in [0, 1)")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")


class AdamState:
    """First/second moment accumulators mirroring every parameter tensor, and
    one scratch buffer per tensor, so that a step allocates nothing."""

    def __init__(self, params: dict[str, np.ndarray]):
        self.first_moment = {k: np.zeros_like(v) for k, v in params.items()}
        self.second_moment = {k: np.zeros_like(v) for k, v in params.items()}
        self.scratch = {k: np.empty_like(v) for k, v in params.items()}
        self.step_count = 0

    def update(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray], cfg: TrainConfig):
        """One Adam step in place: p -= m / (sqrt(v / c2) + eps) * (lr / c1),
        with the bias corrections c1 = 1 - beta1^t and c2 = 1 - beta2^t."""
        self.step_count += 1
        t = self.step_count
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        c1, c2 = 1 - b1**t, 1 - b2**t
        step = cfg.learning_rate / c1
        for k, p in params.items():
            g, m, v, s = grads[k], self.first_moment[k], self.second_moment[k], self.scratch[k]
            m *= b1
            m += np.multiply(g, 1 - b1, out=s)
            v *= b2
            np.multiply(g, 1 - b2, out=s)
            v += np.multiply(s, g, out=s)
            np.divide(v, c2, out=s)
            np.sqrt(s, out=s)
            s += ADAM_EPSILON
            np.divide(m, s, out=s)
            p -= np.multiply(s, step, out=s)


def loss_and_gradients(batch: list[Sentence], params: dict[str, np.ndarray], table: EmbeddingTable,
                       vocab: CharVocab, labels: LabelSet, dropout=None):
    """Mean per-sentence CRF negative log-likelihood and its gradients, keyed as params.

    The network and the CRF's forward-backward each run once over the whole
    batch, and the network once backward. Dropout is on only given a (rate,
    seed) pair, the seed anything np.random.default_rng takes: training's
    Generator continues one stream of masks, and an int repeats one mask.
    """
    if not batch:
        raise ValidationError("empty batch")
    grads = {name: np.zeros_like(arr) for name, arr in params.items()}
    scale = 1.0 / len(batch)
    texts = [t for sent in batch for t in sent.texts]
    lengths = [len(sent) for sent in batch]
    gold = [labels.tag_index(t) for sent in batch for t in sent.tags]
    emis, cache = net_mod.emissions_forward(texts, lengths, table, params, vocab, dropout)
    total, d_emis, d_trans = crf_mod.nll_gradients(emis, params, gold, lengths)
    # Back in the weights' dtype, so the network's backward runs in float32 in training.
    d_emis = d_emis.astype(emis.dtype, copy=False)
    d_emis *= scale
    grads["crf.transitions"] += scale * d_trans
    ends = np.cumsum(lengths)
    grads["crf.start"] += d_emis[ends - lengths].sum(axis=0)
    grads["crf.end"] += d_emis[ends - 1].sum(axis=0)
    net_mod.emissions_backward(d_emis, cache, params, grads)
    return total * scale, grads


def clip_gradients(grads: dict[str, np.ndarray]):
    """Scale grads in place to a global L2 norm of at most GRAD_CLIP_NORM;
    returns the norm before clipping. A NaN or Inf norm raises NumericError."""
    # A Python float, so that the float32 scaling below is not buffered through float64.
    total = math.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))
    if not np.isfinite(total):
        raise NumericError(f"non-finite gradient norm {total}")
    if total > GRAD_CLIP_NORM:
        factor = GRAD_CLIP_NORM / total
        for g in grads.values():
            g *= factor
    return total


@dataclass
class Checkpoint:
    params: dict[str, np.ndarray]  # ordered by network.param_shapes + crf.param_shapes
    label_set: LabelSet
    char_vocab: CharVocab
    embeddings: EmbeddingTable
    metadata: dict = field(default_factory=dict)


def make_checkpoint(params, labels, vocab, table, metadata=None) -> Checkpoint:
    """Snapshot the weights as float32 copies, exactly what save_checkpoint
    writes, so predictions from memory and from disk agree. Float32 weights
    are copied, and the weights of a float64 run are cast.

    The embedding table is frozen and already float32, so it is shared, not
    copied: one table serves training and every checkpoint of a run.
    """
    weights = {n: arr.astype(np.float32) for n, arr in params.items()}
    return Checkpoint(weights, labels, vocab, table, metadata=dict(metadata or {}))


# The sizes each tensor's shape declares; H is read from lstm.wh's 4H axis, so a cut last axis is refused as lstm.wh.
_DECLARED_SIZES = {
    "conv_filters": lambda f, w, d: {"char_filter_count": f, "char_filter_width": w, "char_embed_dim": d},
    "lstm.wh": lambda two, gates, h: {"lstm_hidden": gates // 4},
    "embeddings.matrix": lambda rows, dim: {"word_dim": dim},
}


def _layout(shapes: dict, labels: LabelSet, vocab: CharVocab, words) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every tensor of a checkpoint file, in payload order: the network's, the CRF's,
    then the embedding matrix. The labels set the tag count and the shapes, name -> shape, every other
    size; a shape that is missing, or of a size NetworkConfig refuses, is an IntegrityError naming it."""
    config = net_mod.NetworkConfig(labels.num_tags)
    for name, sizes in _DECLARED_SIZES.items():
        try:
            config = replace(config, **sizes(*shapes.get(name)))
        except (TypeError, ValidationError) as e:  # the first: no shape, or not one of the tensor's rank
            raise IntegrityError(f"tensor {name!r} of shape {shapes.get(name)} declares no network: {e}") from e
    return [*net_mod.param_shapes(config, len(vocab)), *crf_mod.param_shapes(config.num_tags),
            ("embeddings.matrix", (len(words), config.word_dim))]


def save_checkpoint(ckpt: Checkpoint, path):
    """Write the header, then every tensor in layout order, each listed with its actual shape."""
    arrays = {**ckpt.params, "embeddings.matrix": ckpt.embeddings.matrix}
    layout = _layout({n: a.shape for n, a in arrays.items()}, ckpt.label_set, ckpt.char_vocab, ckpt.embeddings.words)
    tensors = [(name, arrays[name]) for name, _ in layout]

    header = {
        "format_version": CHECKPOINT_VERSION,
        "labels": list(ckpt.label_set.labels),
        "char_vocab": "".join(ckpt.char_vocab.chars),
        "embedding_words": list(ckpt.embeddings.words),
        "metadata": ckpt.metadata,
        "tensors": [[name, list(arr.shape)] for name, arr in tensors],
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, ensure_ascii=False).encode("utf-8"))
        f.write(b"\n")
        for _, arr in tensors:
            f.write(np.ascontiguousarray(arr, dtype="<f4"))


def _header_field(header: dict, key: str, kind: type):
    value = header.get(key)
    if not isinstance(value, kind):
        raise IntegrityError(f"checkpoint header field {key!r} is missing or not a {kind.__name__}")
    return value


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint whose tensor listing is the layout its own shapes declare.

    The header is parsed and checked before the payload is read. Its labels
    set the tag count, and the shapes it lists every other size. Its `tensors`
    list must equal the layout those sizes declare, entry by entry and as JSON
    text, so a tensor of another name, shape or place, or a dimension such as
    30.0 or true, is refused, naming the first entry that differs; then the
    payload size is checked. The payload is read into one aligned float32
    buffer, and every tensor, the embedding table included, is a view of it.

    That buffer is allocated first, before the header is read for keeps, so
    a reload takes the heap block that the payload of a checkpoint of the
    same size left when it was freed, whatever was allocated around that
    block since: the peak memory of a reload does not depend on the heap's
    history. A file too large for memory fails with MemoryError before its
    header is checked. Before that allocation the header's end is found in
    chunks, none kept, so a file with no newline is read only as far as its
    first byte that JSON text cannot hold. One open file serves the load from
    its first byte to its last, so a file replaced by rename at any point of
    a load is read as one file. A file rewritten in place is caught only
    when its size changes.
    """
    with open(path, "rb") as f:
        if f.read(1) != b"{":  # so a file of another kind is not read to its first newline
            raise IntegrityError("not a checkpoint: it does not start with a JSON header")
        f.seek(0)
        chunk, offset = f.readline(_HEADER_CHUNK), 0
        while len(chunk) == _HEADER_CHUNK and not chunk.endswith(b"\n"):
            if raw := _RAW_CONTROL.search(chunk):
                at = offset + raw.start()
                raise IntegrityError(f"unreadable checkpoint header: byte {raw[0]!r} at offset {at} is not JSON text")
            chunk, offset = f.readline(_HEADER_CHUNK), offset + len(chunk)
        del chunk  # up to _HEADER_CHUNK bytes, not held across the payload's allocation
        payload_start = f.tell()
        payload_bytes = os.fstat(f.fileno()).st_size - payload_start
        payload = np.empty(payload_bytes // 4, dtype="<f4")
        f.seek(0)
        try:
            header = json.loads(f.read(payload_start).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:  # the last: nested too deep
            raise IntegrityError(f"unreadable checkpoint header: {e}") from e
        if not isinstance(header, dict):
            raise IntegrityError("checkpoint header is not a JSON object")

        version = header.get("format_version")
        if version != CHECKPOINT_VERSION:
            raise UnsupportedVersionError(version, CHECKPOINT_VERSION)

        try:
            labels = LabelSet(tuple(_header_field(header, "labels", list)))
            vocab = CharVocab(tuple(_header_field(header, "char_vocab", str)))
            words = _header_field(header, "embedding_words", list)
            listing = _header_field(header, "tensors", list)
            shapes = dict(listing)
        except (TypeError, ValueError, ValidationError) as e:
            raise IntegrityError(f"inconsistent checkpoint: {e}") from e

        layout = _layout(shapes, labels, vocab, words)
        listed = [json.dumps(entry) for entry in listing]
        declared = [json.dumps([name, list(shape)]) for name, shape in layout]
        for got, want in itertools.zip_longest(listed, declared, fillvalue="no tensor"):
            if got != want:
                raise IntegrityError(f"the checkpoint lists {got} where its shapes declare {want}")
        sizes = [math.prod(shape) for _, shape in layout]
        expected = sum(sizes) * 4
        if payload_bytes != expected:
            raise IntegrityError(f"checkpoint payload has {payload_bytes} bytes, expected {expected}")
        filled = f.readinto(payload)
        size = os.fstat(f.fileno()).st_size - payload_start
    if filled != payload.nbytes or size != payload.nbytes:
        raise IntegrityError(f"checkpoint payload changed size while it was read: {size} bytes")

    offsets = np.cumsum([0, *sizes])
    params = {name: payload[a:b].reshape(shape) for (name, shape), a, b in zip(layout, offsets, offsets[1:])}
    try:
        table = EmbeddingTable(words, params.pop("embeddings.matrix"))
    except ValidationError as e:  # a word that is not a string or repeats an earlier one
        raise IntegrityError(f"inconsistent checkpoint: {e}") from e
    # The embedding table is left to emissions_forward, which checks the rows a text uses.
    for name, arr in params.items():
        if not np.isfinite(arr).all():
            raise IntegrityError(f"tensor {name!r} holds NaN or Inf values")
    return Checkpoint(params, labels, vocab, table, metadata=_header_field(header, "metadata", dict))


def _split_long(sent: Sentence) -> list[Sentence]:
    """[sent], or, with a warning, its pieces of at most MAX_SENTENCE_LEN tokens."""
    limit = net_mod.MAX_SENTENCE_LEN
    if len(sent) <= limit:
        return [sent]
    warnings.warn(f"splitting a {len(sent)}-token sentence at the {limit}-token boundary")
    out = []
    for i in range(0, len(sent), limit):
        tags = sent.tags[i:i + limit]
        # A piece may not begin mid-entity; promote a leading I- to B-.
        if tags[0].startswith("I-"):
            tags = ("B-" + tags[0][2:], *tags[1:])
        out.append(Sentence._from_columns(sent.texts[i:i + limit], tags))
    return out


def predict_documents(ckpt: Checkpoint, docs: list[Document]) -> list[Document]:
    """BIO tags for every sentence (deterministic, dropout off).

    A sentence over the network's limit is cut into chunks. The chunks of all
    documents are run through the network in consecutive groups of at most
    MAX_SENTENCE_LEN tokens, one forward call and one Viterbi call per group,
    in the dtype of the checkpoint. The BIO-masked CRF is built once per call,
    so every predicted sequence is BIO-valid.
    """
    decode_crf = crf_mod.masked(ckpt.params, ckpt.label_set)
    tag_names = ckpt.label_set.tags
    chunks = [piece.texts for doc in docs for sent in doc.sentences for piece in _split_long(sent)]
    limit = net_mod.MAX_SENTENCE_LEN
    groups, size = [], limit  # a full group: the first chunk opens a new one
    for chunk in chunks:
        if size + len(chunk) > limit:
            groups.append([])
            size = 0
        groups[-1].append(chunk)
        size += len(chunk)
    tags = []
    for group in groups:
        lengths = [len(chunk) for chunk in group]
        texts = [t for chunk in group for t in chunk]
        emis, _ = net_mod.emissions_forward(texts, lengths, ckpt.embeddings, ckpt.params, ckpt.char_vocab)
        tags.extend(tag_names[y] for y in crf_mod.viterbi(emis, decode_crf, lengths).tags)
    # Slices of the flat list, so each tag tuple is allocated once at its size:
    # tuple() over an iterator grows it in steps, which with tokenize_raw's
    # tuples raised tag-notes' peak RSS by 1.6 MB over 3,000 notes. zip takes
    # the sentence first, so it draws one (start, end) per sentence.
    bounds = itertools.pairwise(itertools.accumulate((len(s) for doc in docs for s in doc.sentences), initial=0))
    return [
        Document(doc.id, tuple(Sentence._from_columns(s.texts, tuple(tags[a:b]))
                               for s, (a, b) in zip(doc.sentences, bounds)))
        for doc in docs
    ]


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    loss: float
    dev_precision: float | None = None
    dev_recall: float | None = None
    dev_f1: float | None = None


@dataclass
class TrainResult:
    checkpoint: Checkpoint  # final epoch
    best_checkpoint: Checkpoint  # highest dev F1 (== final without a dev set)
    history: list[EpochRecord]


def _check_network_fits(net_config: net_mod.NetworkConfig, vocab_size: int, sentences: list[Sentence],
                        batch_size: int):
    """Raise ValidationError if training surely needs more memory than the machine has, before any
    of it is allocated: the weights, and the char-CNN buffers of the batch_size sentences with the most
    convolution windows. A token has one window per char when it is shorter than the filter, and
    len - width + 1 otherwise."""
    weights = sum(math.prod(shape) for _, shape in net_mod.param_shapes(net_config, vocab_size))
    itemsize = np.dtype(WEIGHT_DTYPE).itemsize
    width = net_config.char_filter_width
    windows = sorted(sum(n if n < width else n - width + 1 for n in map(len, s.texts)) for s in sentences)
    batch_windows = sum(windows[-batch_size:])
    batch_tokens = sum(sorted(map(len, sentences))[-batch_size:])
    # Five arrays per weight: the weight, its gradient, Adam's two moments and Adam's scratch. Per char-CNN
    # window: its char indices (win_idx), its rows of windows and d_windows, width * char_embed_dim each,
    # and its rows of scores and d_scores, char_filter_count each.
    window = (width * (np.dtype(np.intp).itemsize + 2 * net_config.char_embed_dim * itemsize)
              + 2 * net_config.char_filter_count * itemsize)
    need = weights * 5 * itemsize + batch_windows * window
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # the platform does not say
        return
    if need > memory:
        raise ValidationError(f"training {weights:,} weights on batches of up to {batch_tokens:,} tokens "
                              f"({batch_windows:,} char-CNN windows) needs {need / 2**30:,.1f} GiB, "
                              f"more than this machine's {memory / 2**30:,.1f} GiB of memory")


def train(
    train_docs: list[Document],
    dev_docs: list[Document],
    table: EmbeddingTable,
    net_config: net_mod.NetworkConfig,
    train_config: TrainConfig,
    labels: LabelSet | None = None,
) -> TrainResult:
    """Train on train_docs and return the last epoch's checkpoint, the best-dev one and the history.

    With a dev set, every epoch is checkpointed and scored; without one, only
    the last epoch is, and that one snapshot is both checkpoints.
    """
    labels = labels or LabelSet()
    if not train_docs:
        raise ValidationError("empty training set")
    if net_config.num_tags != labels.num_tags:
        raise ValidationError(
            f"network num_tags {net_config.num_tags} does not match label set ({labels.num_tags})"
        )

    vocab = build_char_vocab(train_docs)
    sentences = [s for doc in train_docs for sent in doc.sentences for s in _split_long(sent)]
    _check_network_fits(net_config, len(vocab), sentences, train_config.batch_size)
    ss = np.random.SeedSequence(train_config.seed)
    init_rng, shuffle_rng, dropout_rng = (np.random.default_rng(s) for s in ss.spawn(3))
    dropout = (train_config.dropout_rate, dropout_rng)
    # Drawn in float64 and cast once, so the draws and their order are those of a float64 run.
    drawn = net_mod.init_network_params(net_config, len(vocab), init_rng)
    drawn.update(crf_mod.init_params(net_config.num_tags, init_rng))
    params = {n: arr.astype(WEIGHT_DTYPE) for n, arr in drawn.items()}
    adam = AdamState(params)

    history: list[EpochRecord] = []
    best_f1 = -1.0
    best_ckpt = None

    for epoch in range(1, train_config.epochs + 1):
        order = shuffle_rng.permutation(len(sentences))
        total = 0.0
        for b_start in range(0, len(sentences), train_config.batch_size):
            batch = [sentences[i] for i in order[b_start: b_start + train_config.batch_size]]
            try:
                loss, grads = loss_and_gradients(batch, params, table, vocab, labels, dropout)
                clip_gradients(grads)
            except NumericError as e:
                batch_no = b_start // train_config.batch_size + 1
                raise NumericError(f"epoch {epoch}, batch {batch_no}: {e}") from e
            adam.update(params, grads, train_config)
            total += loss * len(batch)
        epoch_loss = float(total / len(sentences))

        p = r = f1 = None
        if dev_docs or epoch == train_config.epochs:
            metadata = {"seed": train_config.seed, "epochs_completed": epoch, "final_loss": epoch_loss}
            ckpt = make_checkpoint(params, labels, vocab, table, metadata)
        if dev_docs:
            p, r, f1 = evaluate(dev_docs, predict_documents(ckpt, dev_docs), labels).micro
            if f1 > best_f1:
                best_f1, best_ckpt = f1, ckpt
        history.append(EpochRecord(epoch, epoch_loss, p, r, f1))

    return TrainResult(checkpoint=ckpt, best_checkpoint=best_ckpt or ckpt, history=history)


def format_history(history: list[EpochRecord]) -> str:
    """One record per epoch: epoch, mean loss, dev precision/recall/F1."""
    lines = []
    for rec in history:
        if rec.dev_f1 is None:
            lines.append(f"epoch {rec.epoch}\tloss {rec.loss:.6f}")
        else:
            lines.append(
                f"epoch {rec.epoch}\tloss {rec.loss:.6f}\tdev_precision {rec.dev_precision:.4f}"
                f"\tdev_recall {rec.dev_recall:.4f}\tdev_f1 {rec.dev_f1:.4f}"
            )
    return "\n".join(lines) + "\n"
