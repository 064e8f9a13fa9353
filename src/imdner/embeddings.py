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


def _entries(text: str):
    """(line number, stripped line) of every line of text that is neither blank
    nor the header, walked without splitting text into a list of lines."""
    pos, line_no = 0, 0
    while pos <= len(text):
        end = text.find("\n", pos)
        if end < 0:
            end = len(text)
        line, pos, line_no = text[pos:end], end + 1, line_no + 1
        if line_no == 1 and _is_header(line):
            continue
        if line := line.strip():
            yield line_no, line


def _is_header(line: str) -> bool:
    """A `<count> <dim>` header: exactly two integer fields."""
    fields = line.split()
    if len(fields) != 2:
        return False
    try:
        int(fields[0]), int(fields[1])
    except ValueError:
        return False
    return True


# A value beyond float32 becomes inf, and a row holding both infs sums to NaN: the finite-row check reports both.
@np.errstate(over="ignore", invalid="ignore")
def load_embeddings(data: bytes | str) -> EmbeddingTable:
    """Parse the text embedding format: optional `<count> <dim>` header, then
    one `<word> <v1> ... <vdim>` line per word.

    Each vector is parsed in float64 as float() parses its strings and
    rounded into its row of one float32 matrix, so the peak memory is about
    the decoded text plus the table. A repeated word keeps its first row and
    takes its last vector.
    """
    text = decode_text(data)
    row_of: dict[str, int] = {}  # in row order
    matrix = None
    for line_no, line in _entries(text):
        fields = line.split(" ")
        if len(fields) < 2:
            raise FormatError(f"expected a word and at least one value: {line!r}", line=line_no)
        word = fields[0]
        try:
            # numpy parses each str as float() does: same accepted strings, same values.
            vec = np.array(fields[1:], dtype=np.float64)
        except ValueError:
            raise FormatError(f"non-numeric vector component: {line!r}", line=line_no) from None
        if matrix is None:
            # At most one row per line, and per 2 * dim + 2 characters: a vector line holds a word and dim
            # values, each one character or more after a space, and a newline ends it.
            dim = len(vec)
            rows = min(text.count("\n") + 1, (len(text) + 1) // (2 * dim + 2))
            matrix = np.empty((rows, dim), np.float32)
        elif len(vec) != dim:
            raise FormatError(f"vector of length {len(vec)}, expected {dim}", line=line_no)
        matrix[row_of.setdefault(word, len(row_of))] = vec

    if matrix is None:
        raise FormatError("embedding file contains no vectors")
    matrix = matrix[:len(row_of)]
    # A row's float64 sum is finite exactly when all its float32 values are.
    bad = ~np.isfinite(matrix.sum(axis=1, dtype=np.float64))
    if bad.any():
        word = list(row_of)[bad.argmax()]
        # The line of its last vector, found again so that no line number is kept per word.
        line_no = max(n for n, line in _entries(text) if line.split(" ", 1)[0] == word)
        raise FormatError(f"vector of {word!r} holds a NaN, an Inf or a value beyond float32", line=line_no)
    return EmbeddingTable(tuple(row_of), matrix)


@dataclass(frozen=True)
class CharVocab:
    """Character alphabet plus reserved unk and pad entries.

    Characters occupy indices [0, len(chars)); unk and pad follow.
    """

    chars: tuple[str, ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)

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
