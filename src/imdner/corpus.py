"""Corpus model: tokens, BIO tags, entity spans, CoNLL I/O, splits and stats.

All values are plain frozen dataclasses, immutable after construction and
safe to share across threads. A Sentence holds its tokens as two tuples of
str, `texts` and `tags`, not as one Token object per token, so a parsed
corpus leaves about one garbage-collected object per sentence.
"""

from __future__ import annotations

import re
import string
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import ParseError, SchemaError, TaggingError, ValidationError

# Table of the 12 entity categories, in canonical order.
DEFAULT_LABELS = (
    "Bacterial_Infection",
    "Biomarker",
    "Fungal_Infection",
    "Geographical_Location",
    "Immune_Mediated_Disease",
    "Other_Disease_Disorder",
    "Other_Test",
    "Rad_Test",
    "Symptom",
    "Test_Result",
    "Treatment",
    "Viral_Infection",
)

_LABEL_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class LabelSet:
    """Ordered set of entity labels defining the tag vocabulary.

    The tag vocabulary is "O" at index 0, then B-/I- pairs in label order,
    so num_tags == 2 * len(labels) + 1.
    """

    labels: tuple[str, ...] = DEFAULT_LABELS

    def __post_init__(self):
        if not self.labels:
            raise ValidationError("label set must be non-empty")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("duplicate labels in label set")
        for lab in self.labels:
            if not _LABEL_RE.match(lab):
                raise ValidationError(f"invalid label name: {lab!r}")
        object.__setattr__(self, "labels", tuple(self.labels))

    def __contains__(self, label):
        return label in self.labels

    def __len__(self):
        return len(self.labels)

    @cached_property
    def tags(self) -> tuple[str, ...]:
        return ("O", *(f"{prefix}-{lab}" for lab in self.labels for prefix in "BI"))

    @cached_property
    def _tag_ids(self) -> dict[str, int]:
        return {tag: k for k, tag in enumerate(self.tags)}

    @property
    def num_tags(self) -> int:
        return 2 * len(self.labels) + 1

    def tag_index(self, tag: str) -> int:
        try:
            return self._tag_ids[tag]
        except KeyError:
            raise SchemaError(f"unknown tag {tag!r}") from None


def _split_tag(tag):
    """Return (prefix, label) where prefix is 'O', 'B' or 'I'."""
    if tag == "O":
        return "O", None
    if tag.startswith("B-") or tag.startswith("I-"):
        return tag[0], tag[2:]
    raise TaggingError(f"malformed tag {tag!r}")


def _bio_walk(tags):
    """One pass over a tag sequence: the (start, end, label) of each span, and
    the index of the first tag that breaks BIO (None if there is none). An I-
    that continues nothing opens no span and closes the open one."""
    spans, bad = [], None
    start, label, inside = None, None, None  # inside: the tag that continues the open span
    for i, tag in enumerate(tags):
        if tag == inside:
            continue
        if start is not None:
            spans.append((start, i, label))
            start, inside = None, None
        if tag == "O":
            continue
        prefix, lab = _split_tag(tag)
        if prefix == "B":
            start, label, inside = i, lab, "I-" + lab
        elif bad is None:
            bad = i
    if start is not None:
        spans.append((start, len(tags), label))
    return tuple(spans), bad


def validate_bio(tags):
    """Raise TaggingError if the tag sequence is not BIO-valid; otherwise
    return its spans as (start, end, label) tuples."""
    spans, bad = _bio_walk(tags)
    if bad is not None:
        raise TaggingError(f"{tags[bad]} follows {tags[bad - 1] if bad else 'O'} at token {bad}")
    return spans


@dataclass(frozen=True)
class Token:
    text: str
    tag: str = "O"

    def __post_init__(self):
        _check_text(self.text)
        _split_tag(self.tag)


def _check_text(text):
    if text.split() != [text]:  # also rejects the empty string
        raise ValidationError(f"token text must be non-empty and whitespace-free: {text!r}")


@dataclass(frozen=True, init=False, repr=False)
class Sentence:
    """A BIO-valid token sequence, held as two columns: the token texts and
    their tags. Its (start, end, label) spans are decoded once, into
    `span_bounds`, which is not a field: eq and hash see the two columns.

    `Sentence(tokens)` builds one from Token objects, and `tokens` rebuilds
    them; both are for callers outside the hot paths, which read the columns.
    """

    texts: tuple[str, ...]
    tags: tuple[str, ...]

    def __init__(self, tokens):
        tokens = tuple(tokens)
        self._set_columns(tuple(t.text for t in tokens), tuple(t.tag for t in tokens))

    @classmethod
    def _from_columns(cls, texts: tuple[str, ...], tags: tuple[str, ...]) -> Sentence:
        """A Sentence from texts that the caller has checked (or built whitespace-
        free) and well-formed tags; only the BIO structure is checked here."""
        sent = object.__new__(cls)
        sent._set_columns(texts, tags)
        return sent

    def _set_columns(self, texts, tags):
        if not texts:
            raise ValidationError("sentence must contain at least one token")
        object.__setattr__(self, "texts", texts)
        object.__setattr__(self, "tags", tags)
        object.__setattr__(self, "span_bounds", validate_bio(tags))

    def __len__(self):
        return len(self.texts)

    def __repr__(self):
        return f"Sentence(tokens={self.tokens!r})"

    @property
    def tokens(self) -> tuple[Token, ...]:
        return tuple(map(Token, self.texts, self.tags))


@dataclass(frozen=True)
class Document:
    id: str
    sentences: tuple[Sentence, ...]

    def __post_init__(self):
        object.__setattr__(self, "sentences", tuple(self.sentences))
        if not self.sentences:
            raise ValidationError(f"document {self.id!r} has no sentences")


@dataclass(frozen=True, order=True)
class EntitySpan:
    """Half-open token range [start, end) with a label, within one sentence."""

    sentence_index: int
    start: int
    end: int
    label: str

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise ValidationError(f"bad span bounds [{self.start}, {self.end})")


@dataclass(frozen=True)
class CorpusStats:
    document_count: int
    sentence_count: int
    token_count: int
    entity_counts: dict[str, int] = field(default_factory=dict)


def tags_to_spans(sentence: Sentence | Sequence[str], sentence_index: int = 0) -> list[EntitySpan]:
    """Decode BIO tags into sorted, non-overlapping spans: a Sentence's own
    `span_bounds`, or a walk over a sequence of tags. That sequence need not be
    BIO-valid: an I- that continues nothing opens no span and closes the open one."""
    bounds = sentence.span_bounds if isinstance(sentence, Sentence) else _bio_walk(sentence)[0]
    return [EntitySpan(sentence_index, start, end, label) for start, end, label in bounds]


def spans_to_tags(length: int, spans: list[EntitySpan]) -> list[str]:
    """Encode spans as a BIO tag list; inverse of tags_to_spans."""
    tags = ["O"] * length  # a placed span writes no "O", so a token still "O" is free
    for s in sorted(spans):
        if s.end > length:
            raise ValidationError(f"span {s} out of bounds for length {length}")
        if any(tag != "O" for tag in tags[s.start:s.end]):
            raise ValidationError(f"span {s} overlaps another span")
        tags[s.start] = f"B-{s.label}"
        for i in range(s.start + 1, s.end):
            tags[i] = f"I-{s.label}"
    return tags


DOCSTART = "-DOCSTART-"


def decode_text(data: bytes | str) -> str:
    """UTF-8 text without a leading byte-order mark, CRLF read as LF."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(f"not valid UTF-8 ({e.reason})", line=data.count(b"\n", 0, e.start) + 1) from None
    return data.removeprefix("\ufeff").replace("\r\n", "\n")


def parse_conll(data: bytes | str, labels: LabelSet | None = None, name: str = "corpus") -> list[Document]:
    """Parse CoNLL-style text: one `token<TAB>tag` per line, blank line ends a
    sentence, a -DOCSTART- line starts a new document. The input ends as if
    with a -DOCSTART- line that has its last line's number."""
    labels = labels or LabelSet()
    lines = decode_text(data).split("\n")
    known = {tag: tag for tag in labels.tags}  # so every parsed tag is the label set's own string

    groups: list[list[Sentence]] = []
    sentences: list[Sentence] = []
    texts: list[str] = []
    tags: list[str] = []
    for line_no, line in chain(enumerate(lines, start=1), [(len(lines), DOCSTART)]):
        if line == DOCSTART or line.strip() == "":
            if texts:
                try:
                    sentences.append(Sentence._from_columns(tuple(texts), tuple(tags)))
                except TaggingError as e:
                    raise TaggingError(f"{e} ({name} near line {line_no})") from e
                texts.clear()
                tags.clear()
            if line == DOCSTART and sentences:
                groups.append(sentences)
                sentences = []
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError(f"expected 2 tab-separated fields, got {len(fields)}: {line!r}", line=line_no)
        text, raw = fields
        if (tag := known.get(raw)) is None:  # so it is malformed or has an unknown label
            try:
                _split_tag(raw)
            except TaggingError as e:
                raise TaggingError(f"{e} ({name} line {line_no})") from e
            raise SchemaError(f"unknown label {raw[2:]!r} in tag {raw!r} ({name} line {line_no})")
        try:
            _check_text(text)
        except ValidationError as e:
            raise ParseError(str(e), line=line_no) from e
        texts.append(text)
        tags.append(tag)

    if len(groups) == 1:
        return [Document(name, tuple(groups[0]))]
    return [Document(f"{name}#{k}", tuple(g)) for k, g in enumerate(groups)]


def serialize_conll(docs: list[Document]) -> str:
    """Inverse of parse_conll (document ids are not preserved in the format)."""
    chunks = []
    for d, doc in enumerate(docs):
        if d > 0:
            chunks.append(f"{DOCSTART}\n\n")
        for sent in doc.sentences:
            chunks.extend(f"{text}\t{tag}\n" for text, tag in zip(sent.texts, sent.tags))
            chunks.append("\n")
    text = "".join(chunks)
    # decode_text strips one leading byte-order mark, so a text that starts with U+FEFF gets one in front.
    return "\ufeff" + text if text.startswith("\ufeff") else text


def split_corpus(docs: list[Document], test_fraction: float, seed: int):
    """Document-level train/test split, deterministic for a given seed."""
    if len(docs) < 2:
        raise ValidationError("need at least 2 documents to split")
    if not (0.0 < test_fraction < 1.0):
        raise ValidationError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    n_test = int(np.floor(test_fraction * len(docs) + 0.5))
    n_test = max(1, min(n_test, len(docs) - 1))
    perm = np.random.default_rng(seed).permutation(len(docs))
    test_idx = set(int(i) for i in perm[:n_test])
    train = [d for i, d in enumerate(docs) if i not in test_idx]
    test = [d for i, d in enumerate(docs) if i in test_idx]
    return train, test


def corpus_stats(docs: list[Document]) -> CorpusStats:
    entity_counts: dict[str, int] = {}
    sentence_count = 0
    token_count = 0
    for doc in docs:
        for sent in doc.sentences:
            sentence_count += 1
            token_count += len(sent)
            for _, _, label in sent.span_bounds:
                entity_counts[label] = entity_counts.get(label, 0) + 1
    return CorpusStats(len(docs), sentence_count, token_count, entity_counts)


_SENT_BOUNDARY = re.compile(r"(?<=[.!?])\s+")


def _split_token(word: str) -> list[str]:
    """Peel leading/trailing punctuation into tokens of one character each.

    At least one character stays as the core, so a word of punctuation alone
    ends in its last character. Internal hyphens and slashes are left alone
    so forms like "anti-dsDNA" survive intact. Each run is measured once by
    lstrip/rstrip, so a long run of punctuation costs time linear in its length.
    """
    n = len(word)
    lead = min(n - len(word.lstrip(string.punctuation)), n - 1)
    trail = min(n - len(word.rstrip(string.punctuation)), n - 1 - lead)
    return [*word[:lead], word[lead:n - trail], *word[n - trail:]]


def tokenize_raw(text: bytes | str) -> list[Sentence]:
    """Tokenize raw text into untagged (all-"O") sentences."""
    sentences = []
    for chunk in _SENT_BOUNDARY.split(decode_text(text)):
        words = chunk.split()
        if not words:
            continue
        # Pieces of whitespace-split words are whitespace-free and non-empty. A
        # list first, so the tuple is allocated once (see predict_documents).
        texts = tuple([p for w in words for p in _split_token(w)])
        sentences.append(Sentence._from_columns(texts, ("O",) * len(texts)))
    return sentences
