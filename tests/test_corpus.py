import dataclasses
import gc
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imdner import corpus as corpus_module
from imdner.corpus import (
    DEFAULT_LABELS,
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
    validate_bio,
)
from imdner.errors import ParseError, SchemaError, TaggingError, ValidationError

_TAG_LISTS = st.lists(st.sampled_from(["O", "B-A", "I-A", "B-B", "I-B"]), max_size=30)
# Token texts that survive a CoNLL round trip: whitespace-free, U+FEFF included.
_TEXTS = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6)
_TEXTS = _TEXTS.filter(lambda text: text.split() == [text])


@st.composite
def bio_sentences(draw):
    """A Sentence of valid BIO tags over two of the default labels."""
    tags = []
    for _ in range(draw(st.integers(1, 20))):
        choices = ["O", "B-Symptom", "B-Treatment"]
        if tags and tags[-1] != "O":
            choices.append("I-" + tags[-1][2:])
        tags.append(draw(st.sampled_from(choices)))
    texts = draw(st.lists(_TEXTS, min_size=len(tags), max_size=len(tags)))
    return Sentence(tuple(map(Token, texts, tags)))


def per_tag_validate_bio(tags):
    """The BIO check as one test per tag against the tag before it."""
    prev_prefix, prev_label = "O", None
    for i, tag in enumerate(tags):
        prefix, label = (tag, None) if tag == "O" else tag.split("-", 1)
        if prefix == "I":
            if prev_prefix == "O" or prev_label != label:
                prev = "O" if prev_prefix == "O" else f"{prev_prefix}-{prev_label}"
                raise TaggingError(f"{tag} follows {prev} at token {i}")
        prev_prefix, prev_label = prefix, label


class TestLabelSet:
    def test_default_is_the_12_label_schema(self):
        assert LabelSet().labels == DEFAULT_LABELS
        assert len(DEFAULT_LABELS) == 12
        assert DEFAULT_LABELS[0] == "Bacterial_Infection"
        assert DEFAULT_LABELS[-1] == "Viral_Infection"

    def test_num_tags(self):
        assert LabelSet().num_tags == 25
        assert LabelSet(("A",)).num_tags == 3

    def test_rejects_duplicates_and_bad_names(self):
        with pytest.raises(ValidationError):
            LabelSet(("A", "A"))
        with pytest.raises(ValidationError):
            LabelSet(("9bad",))
        with pytest.raises(ValidationError):
            LabelSet(())

    def test_tag_vocabulary_order(self):
        ls = LabelSet(("Symptom", "Treatment"))
        assert ls.tags == ("O", "B-Symptom", "I-Symptom", "B-Treatment", "I-Treatment")
        assert ls.tag_index("I-Treatment") == 4

    @pytest.mark.parametrize("labels", [DEFAULT_LABELS, ("A",), ("Symptom", "Treatment")])
    def test_every_tag_round_trips_through_tag_index(self, labels):
        ls = LabelSet(labels)
        assert len(ls.tags) == ls.num_tags
        assert [ls.tags[ls.tag_index(tag)] for tag in ls.tags] == list(ls.tags)
        assert ls.tags is ls.tags  # built once per label set
        for unknown in ("B-Nope", "o", "B-", ""):
            with pytest.raises(SchemaError):
                ls.tag_index(unknown)

    def test_cached_tags_leave_equality_and_hash_alone(self):
        a, b = LabelSet(("A", "B")), LabelSet(("A", "B"))
        a.tag_index("B-A")
        assert a == b and hash(a) == hash(b)


class TestParseConll:
    def test_minimal_single_token(self):
        docs = parse_conll("SLE\tB-Immune_Mediated_Disease\n")
        assert len(docs) == 1
        assert len(docs[0].sentences) == 1
        tok = docs[0].sentences[0].tokens[0]
        assert (tok.text, tok.tag) == ("SLE", "B-Immune_Mediated_Disease")

    def test_empty_input(self):
        assert parse_conll("") == []
        assert parse_conll(b"\n\n") == []

    def test_docstart_splits_documents(self):
        text = (
            "fever\tB-Symptom\n\n"
            "rash\tB-Symptom\n\n"
            "-DOCSTART-\n\n"
            "cough\tB-Symptom\n\n"
        )
        docs = parse_conll(text, name="f")
        assert [len(d.sentences) for d in docs] == [2, 1]
        assert [d.id for d in docs] == ["f#0", "f#1"]

    def test_single_document_gets_the_file_name(self):
        docs = parse_conll("a\tO\n", name="notes.conll")
        assert docs[0].id == "notes.conll"

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_conll("a\tO\nb\tO\nbad line without tab\n")

    def test_unknown_label_rejected(self):
        with pytest.raises(SchemaError, match="Made_Up"):
            parse_conll("a\tB-Made_Up\n")

    @pytest.mark.parametrize("tag, error, message", [
        ("X-Symptom", TaggingError, "malformed tag 'X-Symptom' (notes.conll line 3)"),
        ("B-", SchemaError, "unknown label '' in tag 'B-' (notes.conll line 3)"),
        ("I-Nope", SchemaError, "unknown label 'Nope' in tag 'I-Nope' (notes.conll line 3)"),
        ("o", TaggingError, "malformed tag 'o' (notes.conll line 3)"),
    ])
    def test_a_tag_outside_the_vocabulary_is_named(self, tag, error, message):
        with pytest.raises(error) as e:
            parse_conll(f"a\tO\n\nb\t{tag}\n", name="notes.conll")
        assert str(e.value) == message

    def test_i_after_o_rejected(self):
        with pytest.raises(TaggingError):
            parse_conll("a\tO\nb\tI-Symptom\n")

    def test_i_after_different_label_rejected(self):
        with pytest.raises(TaggingError):
            parse_conll("a\tB-Symptom\nb\tI-Treatment\n")

    def test_bio_error_names_the_token_file_and_sentence_end(self):
        with pytest.raises(TaggingError, match=r"^I-Symptom follows O at token 1 \(notes\.conll near line 5\)$"):
            parse_conll("x\tO\n\na\tO\nb\tI-Symptom\n", name="notes.conll")

    def test_crlf_and_bom_copy_parses_to_the_same_documents(self, data_dir, toy_labels):
        data = data_dir.joinpath("toy_corpus.conll").read_bytes()
        assert b"\r" not in data
        windows = b"\xef\xbb\xbf" + data.replace(b"\n", b"\r\n")
        assert parse_conll(windows, toy_labels, name="toy") == parse_conll(data, toy_labels, name="toy")

    def test_non_utf8_input_is_a_parse_error_naming_the_line(self):
        with pytest.raises(ParseError, match="line 2: not valid UTF-8"):
            parse_conll(b"Fever\tB-Symptom\nfi\xe8vre\tO\n")

    def test_serialize_round_trip(self, toy_corpus, toy_labels):
        text = serialize_conll(toy_corpus)
        again = parse_conll(text, toy_labels, name="toy")
        assert [[s.texts for s in d.sentences] for d in again] == [
            [s.texts for s in d.sentences] for d in toy_corpus
        ]
        assert [[s.tags for s in d.sentences] for d in again] == [
            [s.tags for s in d.sentences] for d in toy_corpus
        ]

    @pytest.mark.parametrize("text", ["\ufeffx", "\ufeff"])
    def test_a_first_token_that_starts_with_u_feff_round_trips(self, text):
        sentence = Sentence((Token(text, "O"), Token("y", "B-Symptom")))
        (doc,) = parse_conll(serialize_conll([Document("d", (sentence,))]), name="d")
        assert doc.sentences == (sentence,)

    def test_a_parsed_corpus_leaves_about_one_tracked_object_per_sentence(self):
        rng = random.Random(11)
        lines, tokens = [], 0
        while tokens < 20_000:
            tag = "O"
            for _ in range(rng.randint(3, 40)):
                if rng.random() < 0.15:
                    tag = "B-" + rng.choice(DEFAULT_LABELS)
                elif tag == "O" or rng.random() < 0.5:
                    tag = "O"
                else:
                    tag = "I-" + tag[2:]
                lines.append(f"w{rng.randrange(500)}\t{tag}")
                tokens += 1
            lines.append("")
        text = "\n".join(lines)
        gc.collect()
        gc.collect()
        before = len(gc.get_objects())
        docs = parse_conll(text)
        gc.collect()
        gc.collect()
        after = len(gc.get_objects())
        assert sum(len(s) for d in docs for s in d.sentences) == tokens
        # One Token object per token made this 1.10.
        assert (after - before) / tokens < 0.1


class TestSpanCodec:
    def test_all_o_gives_no_spans(self):
        assert tags_to_spans(["O", "O", "O"]) == []

    def test_basic_decode(self):
        spans = tags_to_spans(["B-Symptom", "I-Symptom", "O", "B-Treatment"])
        assert spans == [EntitySpan(0, 0, 2, "Symptom"), EntitySpan(0, 3, 4, "Treatment")]

    def test_adjacent_b_opens_new_span(self):
        spans = tags_to_spans(["B-Symptom", "B-Symptom"])
        assert spans == [EntitySpan(0, 0, 1, "Symptom"), EntitySpan(0, 1, 2, "Symptom")]

    def test_encode_empty(self):
        assert spans_to_tags(3, []) == ["O", "O", "O"]

    def test_encode_basic(self):
        tags = spans_to_tags(4, [EntitySpan(0, 1, 3, "Biomarker")])
        assert tags == ["O", "B-Biomarker", "I-Biomarker", "O"]

    def test_encode_rejects_overlap(self):
        with pytest.raises(ValidationError):
            spans_to_tags(2, [EntitySpan(0, 0, 1, "Symptom"), EntitySpan(0, 0, 2, "Symptom")])

    def test_encode_rejects_out_of_bounds(self):
        with pytest.raises(ValidationError):
            spans_to_tags(2, [EntitySpan(0, 1, 3, "Symptom")])

    @given(_TAG_LISTS)
    @settings(max_examples=300, deadline=None)
    def test_decoder_matches_per_tag_reference_on_any_tags(self, tags):
        """Also on BIO-invalid input, where an I- that continues nothing opens
        no span and closes the open one."""
        expected, open_start, open_label = [], None, None
        for i, tag in enumerate(tags):
            prefix, label = (tag, None) if tag == "O" else tag.split("-", 1)
            if open_start is not None and (prefix != "I" or label != open_label):
                expected.append(EntitySpan(3, open_start, i, open_label))
                open_start = None
            if prefix == "B":
                open_start, open_label = i, label
        if open_start is not None:
            expected.append(EntitySpan(3, open_start, len(tags), open_label))
        assert tags_to_spans(tags, sentence_index=3) == expected

    @given(_TAG_LISTS)
    @settings(max_examples=300, deadline=None)
    def test_walker_validates_as_the_per_tag_check_does(self, tags):
        """validate_bio raises exactly where the per-tag check raises, with its
        message; on a valid list a Sentence's stored spans are the list's."""
        try:
            per_tag_validate_bio(tags)
        except TaggingError as expected:
            with pytest.raises(TaggingError) as e:
                validate_bio(tags)
            assert str(e.value) == str(expected)
            return
        validate_bio(tags)
        if tags:
            sentence = Sentence(tuple(Token(f"w{i}", tag) for i, tag in enumerate(tags)))
            assert tags_to_spans(sentence, sentence_index=2) == tags_to_spans(tags, sentence_index=2)

    def test_decoder_rejects_a_malformed_tag(self):
        with pytest.raises(TaggingError):
            tags_to_spans(["B-A", "I-A", "X-A"])

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, data):
        length = data.draw(st.integers(1, 50))
        labels = ["Symptom", "Treatment", "Biomarker"]
        spans = []
        cursor = 0
        while cursor < length:
            start = data.draw(st.integers(cursor, length))
            if start >= length:
                break
            end = data.draw(st.integers(start + 1, length))
            spans.append(EntitySpan(0, start, end, data.draw(st.sampled_from(labels))))
            cursor = end
        taken = data.draw(st.permutations(spans)) if spans else []
        tags = spans_to_tags(length, taken)
        assert tags_to_spans(tags) == sorted(spans)


class TestSplit:
    def _docs(self, n):
        return parse_conll(
            "\n-DOCSTART-\n\n".join(f"tok{i}\tO\n" for i in range(n)), name="d"
        )

    def test_counts_and_disjointness(self):
        docs = self._docs(10)
        train, test = split_corpus(docs, 0.2, seed=42)
        assert (len(train), len(test)) == (8, 2)
        ids = {d.id for d in train} | {d.id for d in test}
        assert ids == {d.id for d in docs}
        assert not ({d.id for d in train} & {d.id for d in test})

    def test_determinism(self):
        docs = self._docs(10)
        a = split_corpus(docs, 0.3, seed=7)
        b = split_corpus(docs, 0.3, seed=7)
        assert [d.id for d in a[0]] == [d.id for d in b[0]]
        assert [d.id for d in a[1]] == [d.id for d in b[1]]

    def test_five_docs_fraction_point_two(self):
        train, test = split_corpus(self._docs(5), 0.2, seed=0)
        assert (len(train), len(test)) == (4, 1)

    def test_minimum_one_test_document(self):
        train, test = split_corpus(self._docs(3), 0.01, seed=0)
        assert len(test) == 1

    def test_requires_two_documents(self):
        with pytest.raises(ValidationError):
            split_corpus(self._docs(1), 0.2, seed=0)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValidationError):
            split_corpus(self._docs(4), 1.5, seed=0)


class TestCorpusStats:
    def test_empty(self):
        stats = corpus_stats([])
        assert (stats.document_count, stats.sentence_count, stats.token_count) == (0, 0, 0)
        assert stats.entity_counts == {}

    def test_toy_corpus_hand_tally(self, toy_corpus):
        stats = corpus_stats(toy_corpus)
        assert stats.document_count == 4
        assert stats.sentence_count == 20
        assert stats.token_count == 102
        assert stats.entity_counts == {"Symptom": 11, "Treatment": 8, "Biomarker": 8}

    def test_additivity(self, toy_corpus):
        a = corpus_stats(toy_corpus[:2])
        b = corpus_stats(toy_corpus[2:])
        whole = corpus_stats(toy_corpus)
        assert whole.document_count == a.document_count + b.document_count
        assert whole.sentence_count == a.sentence_count + b.sentence_count
        assert whole.token_count == a.token_count + b.token_count
        for lab in set(a.entity_counts) | set(b.entity_counts):
            assert whole.entity_counts[lab] == a.entity_counts.get(lab, 0) + b.entity_counts.get(lab, 0)


class TestTokenizeRaw:
    def test_simple_sentence(self):
        sents = tokenize_raw("Fever persisted.")
        assert len(sents) == 1
        assert sents[0].texts == ("Fever", "persisted", ".")
        assert all(t.tag == "O" for t in sents[0].tokens)

    def test_punctuation_and_hyphens(self):
        sents = tokenize_raw("ANA (positive), anti-dsDNA high.")
        tokens = sents[0].texts
        for expected in ["(", "positive", ")", ",", "anti-dsDNA"]:
            assert expected in tokens

    def test_empty(self):
        assert tokenize_raw("") == []

    def test_bom_and_crlf(self):
        assert tokenize_raw("\ufeffFever rose.\r\nRash appeared.") == tokenize_raw("Fever rose.\nRash appeared.")
        assert tokenize_raw(b"\xef\xbb\xbfFever rose.") == tokenize_raw("Fever rose.")

    def test_sentence_boundaries(self):
        sents = tokenize_raw("Fever rose. Rash appeared! Was it SLE? Yes.")
        assert len(sents) == 4


class TestTypes:
    def test_token_rejects_whitespace(self):
        with pytest.raises(ValidationError):
            Token("two words")
        with pytest.raises(ValidationError):
            Token("")

    def test_token_rejects_exactly_the_whitespace_code_points(self):
        rejected = []
        for code in range(0x110000):
            try:
                Token(chr(code))
            except ValidationError:
                rejected.append(chr(code))
        assert rejected == [c for c in map(chr, range(0x110000)) if c.isspace()]

    @pytest.mark.parametrize("tag", ["X-Symptom", "o", "B", "b-Symptom", "", "BSymptom", "-Symptom"])
    def test_token_built_directly_rejects_a_malformed_tag(self, tag):
        with pytest.raises(TaggingError) as e:
            Token("fever", tag)
        assert str(e.value) == f"malformed tag {tag!r}"

    def test_parsed_tokens_equal_tokens_built_directly(self, data_dir, toy_labels):
        docs = parse_conll(data_dir.joinpath("toy_corpus.conll").read_bytes(), toy_labels)
        tokens = [tok for doc in docs for sent in doc.sentences for tok in sent.tokens]
        assert len(tokens) > 50
        for tok in tokens:
            direct = Token(tok.text, tok.tag)
            assert tok == direct and hash(tok) == hash(direct) and repr(tok) == repr(direct)
            assert pickle.loads(pickle.dumps(tok)) == direct
            with pytest.raises(dataclasses.FrozenInstanceError):
                tok.tag = "O"
        with pytest.raises(ParseError, match=r"line 2: token text must be non-empty"):
            parse_conll("a\tO\nb\u00a0c\tO\n")

    def test_parsing_splits_only_the_tags_the_bio_walk_needs(self, monkeypatch):
        # Token's own tag check would split every tag again, although parse_conll
        # has just found each one in the label set's tag index.
        calls = []
        real = corpus_module._split_tag
        monkeypatch.setattr(corpus_module, "_split_tag", lambda tag: calls.append(tag) or real(tag))
        parse_conll("a\tO\nb\tB-Symptom\nc\tI-Symptom\nd\tO\n\ne\tO\n")
        assert calls == ["B-Symptom"]  # the walk splits a tag only where a span may open

    @given(st.lists(bio_sentences(), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_built_and_parsed_sentences_are_the_same_value(self, sentences):
        (doc,) = parse_conll(serialize_conll([Document("d", tuple(sentences))]), name="d")
        for built, parsed in zip(sentences, doc.sentences, strict=True):
            assert parsed == built and hash(parsed) == hash(built)
            assert repr(parsed) == repr(built)
            assert parsed.tokens == built.tokens == tuple(map(Token, built.texts, built.tags))
            for sent in (built, parsed):
                assert type(sent.texts) is tuple and type(sent.tags) is tuple
                assert all(type(value) is str for value in sent.texts + sent.tags)
                assert [f.name for f in dataclasses.fields(sent)] == ["texts", "tags"]

    @given(st.lists(bio_sentences(), min_size=1, max_size=4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_bad_text_or_tag_raises_the_same_error_built_or_parsed(self, sentences, data):
        j = data.draw(st.integers(0, len(sentences) - 1))
        i = data.draw(st.integers(0, len(sentences[j]) - 1))
        tokens = list(sentences[j].tokens)
        first_line = sum(len(s) + 1 for s in sentences[:j]) + 1
        name, text, tag = "notes.conll", tokens[i].text, tokens[i].tag
        if data.draw(st.booleans()):
            text = data.draw(st.sampled_from(["", "two words", "\u00a0", "a\u2003b"]))
            with pytest.raises(ValidationError, match="token text must be non-empty"):
                Token(text, tag)
            error, message = ParseError, rf"^line {first_line + i}: token text must be non-empty"
        else:
            prev = tokens[i - 1].tag if i else "O"
            tag = "I-Treatment" if prev not in ("B-Treatment", "I-Treatment") else "I-Symptom"
            message = rf"^{tag} follows {prev} at token {i}"
            with pytest.raises(TaggingError, match=message + "$"):
                Sentence((*tokens[:i], Token(text, tag), *tokens[i + 1:]))
            error, message = TaggingError, rf"{message} \({name} near line {first_line + len(tokens)}\)$"
        # Behind one byte-order mark, which parse_conll strips, the first line may start with U+FEFF.
        lines = serialize_conll([Document("d", tuple(sentences))]).removeprefix("\ufeff").split("\n")
        lines[first_line + i - 1] = f"{text}\t{tag}"
        with pytest.raises(error, match=message):
            parse_conll("\ufeff" + "\n".join(lines), name=name)

    def test_sentence_rejects_invalid_bio(self):
        with pytest.raises(TaggingError):
            Sentence((Token("a", "I-Symptom"),))
        with pytest.raises(ValidationError):
            Sentence(())

    def test_stored_spans_are_read_only_and_not_a_field(self):
        sent = Sentence((Token("a", "B-A"), Token("b", "I-A"), Token("c", "B-B")))
        assert sent.span_bounds == ((0, 2, "A"), (2, 3, "B"))
        assert [f.name for f in dataclasses.fields(sent)] == ["texts", "tags"]
        assert repr(sent) == f"Sentence(tokens={sent.tokens!r})"
        assert sent == Sentence(sent.tokens) and hash(sent) == hash(Sentence(sent.tokens))
        assert pickle.loads(pickle.dumps(sent)).span_bounds == sent.span_bounds
        with pytest.raises(dataclasses.FrozenInstanceError):
            sent.span_bounds = ()

    def test_span_bounds(self):
        with pytest.raises(ValidationError):
            EntitySpan(0, 2, 2, "Symptom")
