"""Fixed word-embedding tables and character vocabularies."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import Document, decode_text
from .errors import FormatError, ValidationError


@dataclass
class EmbeddingTable:
    """Word -> vector lookup, total over all strings.

    Row i of `matrix`, a (len(words), dim) float32 array, is the vector of
    words[i], each word a distinct string. Values in another dtype are
    stored as their float32 rounding, so a checkpoint holds the table as used.
    Lookup order: exact match, then lowercased match, then unk_vector, a
    float32 zero vector that is not a constructor argument and that no
    checkpoint stores. Vectors are never trained.
    """

    words: tuple[str, ...]
    matrix: np.ndarray
    unk_vector: np.ndarray = field(init=False)
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.words = tuple(self.words)
        self.matrix = np.asarray(self.matrix, dtype=np.float32)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != len(self.words):
            raise ValidationError(f"matrix of shape {self.matrix.shape} does not hold {len(self.words)} word vectors")
        self.index = {}
        for i, word in enumerate(self.words):
            if not isinstance(word, str) or self.index.setdefault(word, i) != i:
                raise ValidationError(f"embedding word {i}, {word!r}, is not a string or repeats an earlier word")
        self.unk_vector = np.zeros(self.dim, np.float32)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def lookup(self, word: str) -> np.ndarray:
        i = self.index.get(word)
        if i is None:
            i = self.index.get(word.lower())
        return self.unk_vector if i is None else self.matrix[i]

    def __len__(self):
        return len(self.words)


def load_embeddings(data: bytes | str) -> EmbeddingTable:
    """Parse the text embedding format: optional `<count> <dim>` header, then
    one `<word> <v1> ... <vdim>` line per word."""
    lines = decode_text(data).split("\n")

    vectors: dict[str, np.ndarray] = {}
    line_of: dict[str, int] = {}
    dim = None
    start = 0

    # Header detection: exactly two integer fields.
    fields = lines[0].split()
    if len(fields) == 2:
        try:
            int(fields[0]), int(fields[1])
            start = 1
        except ValueError:
            pass

    for line_no in range(start, len(lines)):
        line = lines[line_no].strip()
        if not line:
            continue
        fields = line.split(" ")
        if len(fields) < 2:
            raise FormatError(f"expected a word and at least one value: {line!r}", line=line_no + 1)
        word = fields[0]
        try:
            # numpy parses each str as float() does: same accepted strings, same values.
            vec = np.array(fields[1:], dtype=np.float64)
        except ValueError:
            raise FormatError(f"non-numeric vector component: {line!r}", line=line_no + 1) from None
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise FormatError(f"vector of length {len(vec)}, expected {dim}", line=line_no + 1)
        vectors[word] = vec
        line_of[word] = line_no + 1

    if dim is None:
        raise FormatError("embedding file contains no vectors")
    with np.errstate(over="ignore"):
        matrix = np.array(list(vectors.values()), dtype=np.float32)
    # A row's float64 sum is finite exactly when all its float32 values are.
    bad = ~np.isfinite(matrix.sum(axis=1, dtype=np.float64))
    if bad.any():
        word = list(vectors)[bad.argmax()]
        raise FormatError(f"vector of {word!r} holds a NaN, an Inf or a value beyond float32", line=line_of[word])
    return EmbeddingTable(tuple(vectors), matrix)


@dataclass(frozen=True)
class CharVocab:
    """Character alphabet plus reserved unk and pad entries.

    Characters occupy indices [0, len(chars)); unk and pad follow.
    """

    chars: tuple[str, ...]
    index: dict[str, int] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "chars", tuple(self.chars))
        if len(set(self.chars)) != len(self.chars):
            raise ValidationError("duplicate characters in vocabulary")
        object.__setattr__(self, "index", {c: i for i, c in enumerate(self.chars)})

    @property
    def unk_index(self) -> int:
        return len(self.chars)

    @property
    def pad_index(self) -> int:
        return len(self.chars) + 1

    def __len__(self):
        return len(self.chars) + 2

    def encode(self, text: str) -> list[int]:
        unk = self.unk_index
        return [self.index.get(c, unk) for c in text]


def build_char_vocab(docs: list[Document]) -> CharVocab:
    """Collect every character of every token, sorted by code point."""
    chars = set()
    for doc in docs:
        for sent in doc.sentences:
            chars.update(*sent.texts)
    if not chars:
        raise ValidationError("cannot build a character vocabulary from an empty corpus")
    return CharVocab(tuple(sorted(chars)))
