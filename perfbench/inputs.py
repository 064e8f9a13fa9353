"""Seeded synthetic inputs for the imdner benchmark.

Everything here derives from one seed, so the same seed gives the same bytes.
The program under test only ever sees the generated bytes (CoNLL text,
embedding text, raw notes) and, for tag-notes, a checkpoint trained on them.

The corpus is built to look like clinical text where it matters for cost:
- every label has its own lexicon, and lexicon words have embeddings near a
  per-label centroid, so training has a signal to learn;
- sentence lengths are log-normal (long-tailed), as are sentences per note;
- the embedding vocabulary is several times the corpus vocabulary, so costs
  that scale with the embedding table show up;
- predictions for the scoring workloads carry planted errors whose expected counts are
  recorded here, independently of imdner's own scoring code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# The shares below are ASSUMPTIONS, not measurements: neither the paper nor
# this repository has an annotated clinical corpus or a tagger's predictions
# on one to take them from. Each is chosen so the cost it drives is plausible
# and the same from seed to seed; replace it with a measured figure when one
# exists.
#
# Relative frequency of each entity label, in imdner's DEFAULT_LABELS order.
# Assumption: clinical notes on immune-mediated disease mention symptoms,
# the disease itself and treatments most, and infections and places least.
# Only the spread matters for cost: kgraph rules pair specific labels.
LABEL_WEIGHTS = {
    "Bacterial_Infection": 5,
    "Biomarker": 10,
    "Fungal_Infection": 3,
    "Geographical_Location": 4,
    "Immune_Mediated_Disease": 14,
    "Other_Disease_Disorder": 10,
    "Other_Test": 8,
    "Rad_Test": 5,
    "Symptom": 16,
    "Test_Result": 9,
    "Treatment": 12,
    "Viral_Infection": 4,
}
LABELS = tuple(LABEL_WEIGHTS)

# Share of sentence slots that start an entity. Assumption: with 1-3 tokens
# per entity this makes about one token in five part of an entity, a dense
# clinical note, so that span-level scoring has work on every sentence.
ENTITY_RATE = 0.14

# Scoring workloads: share of gold spans given each fate in the prediction,
# and spurious spans planted as a share of the gold span count. Assumption: a
# mid-quality tagger at about 0.6 micro-F1, with the errors split roughly
# evenly between label, boundary, missed and spurious. The non-exact share
# sets the cost of error_breakdown, which scans the gold spans once for every
# predicted span that is not an exact match: more errors make it slower.
ERROR_MIX = {"exact": 0.6, "label": 0.12, "boundary": 0.14, "missed": 0.14}
SPURIOUS_SHARE = 0.12

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class Size:
    """Model and input sizes for one benchmark profile."""

    word_dim: int
    lstm_hidden: int
    char_embed_dim: int
    char_filter_count: int
    emb_vocab: int  # words in the embedding file
    filler_vocab: int  # non-entity words used in sentences
    lexicon_per_label: int
    train_tokens: int  # train-paper: corpus of each train() call
    dev_tokens: int
    epochs: int
    ckpt_tokens: int  # tag-notes: corpus that trains the served checkpoint
    notes: int  # tag-notes: pool of distinct notes, cycled if a run outlasts it
    score_tokens: int  # score-corpus and kg-corpus: gold corpus
    breakdown_tokens: int  # breakdown-corpus: gold corpus (error_breakdown is quadratic in it)
    max_len: int  # longest generated sentence
    setup_seconds: float  # set-up repeats at least this long in all (half before the ops, half after)


# The paper's default network sizes (Ma & Hovy, arXiv:1603.01354) and a
# 22k-word, 200-dim embedding table.
PAPER = Size(
    word_dim=200, lstm_hidden=200, char_embed_dim=25, char_filter_count=30,
    emb_vocab=22000, filler_vocab=3000, lexicon_per_label=60,
    train_tokens=250, dev_tokens=100, epochs=2, ckpt_tokens=120, notes=1500,
    score_tokens=26000, breakdown_tokens=6000, max_len=150, setup_seconds=2.0,
)
# Toy sizes for the harness self-check; every code path, seconds per run.
TOY = Size(
    word_dim=16, lstm_hidden=8, char_embed_dim=4, char_filter_count=5,
    emb_vocab=600, filler_vocab=150, lexicon_per_label=8,
    train_tokens=120, dev_tokens=40, epochs=1, ckpt_tokens=60, notes=40,
    score_tokens=1200, breakdown_tokens=1200, max_len=40, setup_seconds=0.2,
)
SIZES = {"paper": PAPER, "toy": TOY}


@dataclass
class GenSentence:
    tokens: list[str]
    tags: list[str]
    spans: list[tuple[int, int, str]]  # half-open [start, end) with label


@dataclass
class PlantedScore:
    """What a correct scorer must report for gold vs the planted prediction."""

    breakdown: dict[str, int] = field(default_factory=dict)
    tp: dict[str, int] = field(default_factory=dict)
    fp: dict[str, int] = field(default_factory=dict)
    fn: dict[str, int] = field(default_factory=dict)
    agreeing_tokens: int = 0
    tokens: int = 0


class Generator:
    def __init__(self, size: Size, seed: int):
        self.size = size
        self.rng = np.random.default_rng(seed)
        taken: set[str] = set()
        self.lexicon = {lab: self._words(size.lexicon_per_label, 3, taken) for lab in LABELS}
        # Frequent words are short. Word lengths depend on rank only, so the
        # character-CNN work per token does not vary from seed to seed.
        self.filler = self._words(40, 2, taken) + self._words(size.filler_vocab - 40, 3, taken)
        n_extra = size.emb_vocab - len(taken)
        if n_extra < 0:
            raise ValueError("emb_vocab is smaller than the corpus vocabulary")
        self.extra = self._words(n_extra, 4, taken)
        w = np.array([LABEL_WEIGHTS[lab] for lab in LABELS], dtype=float)
        self._label_cdf = np.cumsum(w / w.sum())
        z = 1.0 / np.arange(1, len(self.filler) + 1) ** 1.1  # Zipf-like word frequencies
        self._filler_cdf = np.cumsum(z / z.sum())

    def _words(self, n: int, syllables: int, taken: set[str]) -> list[str]:
        """n new pseudo-words of 2 * syllables letters each."""
        out = []
        while len(out) < n:
            on = self.rng.integers(len(_CONSONANTS), size=syllables)
            vo = self.rng.integers(len(_VOWELS), size=syllables)
            w = "".join(_CONSONANTS[a] + _VOWELS[b] for a, b in zip(on, vo))
            if w not in taken:
                taken.add(w)
                out.append(w)
        return out

    # -- sentences ---------------------------------------------------------

    def _length(self) -> int:
        return int(np.clip(round(self.rng.lognormal(math.log(18), 0.6)), 3, self.size.max_len))

    def sentence(self, length: int | None = None) -> GenSentence:
        rng = self.rng
        length = length or self._length()
        u = rng.random(length)
        labels = np.searchsorted(self._label_cdf, rng.random(length))
        fill = np.searchsorted(self._filler_cdf, rng.random(length))
        ent_len = rng.choice([1, 2, 3], size=length, p=[0.6, 0.3, 0.1])
        lex_idx = rng.integers(self.size.lexicon_per_label, size=(length, 3))
        numbers = rng.integers(1, 500, size=length)
        tokens: list[str] = []
        tags: list[str] = []
        spans: list[tuple[int, int, str]] = []
        j = 0
        while len(tokens) < length - 1:
            x = u[j]
            if x < ENTITY_RATE:
                lab = LABELS[min(labels[j], len(LABELS) - 1)]
                k = min(int(ent_len[j]), length - 1 - len(tokens))
                start = len(tokens)
                tokens += [self.lexicon[lab][i] for i in lex_idx[j, :k]]
                tags += [f"B-{lab}"] + [f"I-{lab}"] * (k - 1)
                spans.append((start, start + k, lab))
            elif x < ENTITY_RATE + 0.03:
                tokens.append(str(numbers[j]))  # out of the embedding vocabulary
                tags.append("O")
            elif x < ENTITY_RATE + 0.07 and tokens and tokens[-1] != ",":
                tokens.append(",")
                tags.append("O")
            else:
                tokens.append(self.filler[min(fill[j], len(self.filler) - 1)])
                tags.append("O")
            j += 1
        tokens.append(".")
        tags.append("O")
        tokens[0] = tokens[0][:1].upper() + tokens[0][1:]  # exercises the lowercase fallback
        return GenSentence(tokens, tags, spans)

    def documents(self, n_tokens: int, min_doc: int, max_doc: int) -> list[list[GenSentence]]:
        """Exactly `n_tokens` tokens in long-tailed sentences, grouped into
        documents of min_doc..max_doc sentences. A fixed token count keeps the
        work per op the same from seed to seed."""
        lengths: list[int] = []
        total = 0
        while total < n_tokens:
            n = min(self._length(), n_tokens - total)
            if n < 3 and lengths:
                lengths[-1] += n  # too short for a sentence of its own
            else:
                lengths.append(n)
            total += n
        docs = []
        while lengths:
            k = int(self.rng.integers(min_doc, max_doc + 1))
            docs.append([self.sentence(n) for n in lengths[:k]])
            del lengths[:k]
        return docs

    # -- embeddings --------------------------------------------------------

    def write_embeddings(self, path) -> None:
        """`<count> <dim>` header, then one line per word, written in chunks."""
        dim = self.size.word_dim
        centroids = self.rng.normal(0.0, 0.3, size=(len(LABELS), dim))
        rows: list[tuple[str, int | None]] = []
        for li, lab in enumerate(LABELS):
            rows += [(w, li) for w in self.lexicon[lab]]
        rows += [(w, None) for w in self.filler + self.extra]
        order = self.rng.permutation(len(rows))
        fmt = " ".join(["%.5f"] * dim)
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"{len(rows)} {dim}\n")
            for lo in range(0, len(rows), 2000):
                chunk = [rows[i] for i in order[lo: lo + 2000]]
                vecs = self.rng.normal(0.0, 0.1, size=(len(chunk), dim))
                lines = []
                for (word, li), v in zip(chunk, vecs):
                    if li is not None:
                        v = v + centroids[li]
                    lines.append(word + " " + fmt % tuple(v.tolist()))
                f.write("\n".join(lines) + "\n")

    # -- planted prediction errors -----------------------------------------

    def plant_errors(self, docs: list[list[GenSentence]]) -> tuple[list[list[GenSentence]], PlantedScore]:
        """A prediction of `docs` with exact, label, boundary, spurious and
        missed spans planted in fixed shares, plus what a scorer must report.
        Fixed shares, rather than a coin flip per span, keep the error mix (and
        with it the cost of error_breakdown) the same from seed to seed."""
        rng = self.rng
        exp = PlantedScore(
            breakdown=dict(correct=0, label_error=0, boundary_error=0, spurious=0, missed=0),
            tp={lab: 0 for lab in LABELS}, fp={lab: 0 for lab in LABELS}, fn={lab: 0 for lab in LABELS},
        )
        sents = [gs for doc in docs for gs in doc]
        n_spans = sum(len(gs.spans) for gs in sents)
        fates = [fate for fate, share in ERROR_MIX.items() for _ in range(round(share * n_spans))]
        fates = (fates + ["exact"] * n_spans)[:n_spans]
        rng.shuffle(fates)
        fate_iter = iter(fates)
        preds: list[list[tuple[int, int, str]]] = []
        used: list[list[bool]] = []  # token covered by a predicted span
        for gs in sents:
            n = len(gs.tokens)
            u = [False] * n
            pred = []
            for s, e, lab in gs.spans:
                fate = next(fate_iter)
                if fate == "boundary":
                    if e - s >= 2:
                        s2, e2 = (s, e - 1) if rng.random() < 0.5 else (s + 1, e)
                    elif e < n and gs.tags[e] == "O" and gs.tokens[e] not in ",.":
                        s2, e2 = s, e + 1
                    elif s > 0 and gs.tags[s - 1] == "O" and not u[s - 1] and gs.tokens[s - 1] != ",":
                        s2, e2 = s - 1, e
                    else:
                        fate = "exact"
                if fate == "exact":
                    s2, e2, lab2 = s, e, lab
                    exp.breakdown["correct"] += 1
                    exp.tp[lab] += 1
                elif fate == "label":
                    others = [x for x in LABELS if x != lab]
                    s2, e2, lab2 = s, e, others[int(rng.integers(len(others)))]
                    exp.breakdown["label_error"] += 1
                    exp.fp[lab2] += 1
                    exp.fn[lab] += 1
                elif fate == "boundary":
                    lab2 = lab
                    exp.breakdown["boundary_error"] += 1
                    exp.fp[lab] += 1
                    exp.fn[lab] += 1
                else:
                    exp.breakdown["missed"] += 1
                    exp.fn[lab] += 1
                    continue
                pred.append((s2, e2, lab2))
                for i in range(s2, e2):
                    u[i] = True
            preds.append(pred)
            used.append(u)
        # Spurious one-token spans on gold-O words, never on punctuation.
        free = [(k, i) for k, gs in enumerate(sents) for i in range(len(gs.tokens) - 1)
                if gs.tags[i] == "O" and not used[k][i] and gs.tokens[i] != ","]
        for j in rng.choice(len(free), size=round(SPURIOUS_SHARE * n_spans), replace=False):
            k, i = free[j]
            lab = LABELS[int(rng.integers(len(LABELS)))]
            preds[k].append((i, i + 1, lab))
            exp.breakdown["spurious"] += 1
            exp.fp[lab] += 1
        out = []
        for gs, pred in zip(sents, preds):
            pred.sort()
            tags = ["O"] * len(gs.tokens)
            for s2, e2, lab2 in pred:
                tags[s2] = f"B-{lab2}"
                for i in range(s2 + 1, e2):
                    tags[i] = f"I-{lab2}"
            exp.tokens += len(tags)
            exp.agreeing_tokens += sum(a == b for a, b in zip(gs.tags, tags))
            out.append(GenSentence(list(gs.tokens), tags, pred))
        it = iter(out)
        return [[next(it) for _ in doc] for doc in docs], exp

    # -- raw notes ---------------------------------------------------------

    def notes(self, n_notes: int) -> list[tuple[str, int]]:
        """(note text, expected token count) pairs; sentences per note are
        log-normal, from one to many."""
        out = []
        for _ in range(n_notes):
            k = int(np.clip(round(self.rng.lognormal(math.log(3), 0.7)), 1, 30))
            sents = [self.sentence() for _ in range(k)]
            out.append((" ".join(raw_text(s.tokens) for s in sents), sum(len(s.tokens) for s in sents)))
        return out


def raw_text(tokens: list[str]) -> str:
    """Tokens as running text: punctuation attaches to the word before it."""
    parts: list[str] = []
    for t in tokens:
        if t in ",." and parts:
            parts[-1] += t
        else:
            parts.append(t)
    return " ".join(parts)


def conll_bytes(docs: list[list[GenSentence]]) -> bytes:
    chunks = []
    for d, doc in enumerate(docs):
        if d:
            chunks.append("-DOCSTART-\n\n")
        for s in doc:
            chunks.extend(f"{t}\t{g}\n" for t, g in zip(s.tokens, s.tags))
            chunks.append("\n")
    return "".join(chunks).encode("utf-8")


def naive_graph(docs: list[list[GenSentence]], rules) -> tuple[set, set]:
    """Nodes and edges of the co-occurrence graph, recomputed from the
    generator's own spans: the reference the kgraph output is checked against.
    `rules` are (head_label, tail_label, relation, window) tuples."""
    nodes, edges = set(), set()
    for doc in docs:
        mentions = [
            (si, (" ".join(s.tokens[a:b]).lower(), lab))
            for si, s in enumerate(doc)
            for a, b, lab in s.spans
        ]
        nodes.update(m for _, m in mentions)
        for head_label, tail_label, relation, window in rules:
            for hs, h in mentions:
                if h[1] != head_label:
                    continue
                for ts, t in mentions:
                    if t[1] == tail_label and h != t and abs(hs - ts) <= window:
                        edges.add((h, t, relation))
    return nodes, edges
