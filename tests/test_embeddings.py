import numpy as np
import pytest

from imdner.corpus import parse_conll
from imdner.embeddings import CharVocab, EmbeddingTable, build_char_vocab, load_embeddings
from imdner.errors import FormatError, ParseError, ValidationError


class TestLoadEmbeddings:
    def test_minimal_two_line_file(self):
        table = load_embeddings("fever 0.1 0.2\nrash 0.3 0.4")
        assert table.dim == 2
        assert len(table) == 2
        assert np.allclose(table.lookup("fever"), [0.1, 0.2])

    def test_header_line_is_skipped(self):
        table = load_embeddings("2 3\na 1 2 3\nb 4 5 6")
        assert table.dim == 3
        assert len(table) == 2
        assert table.words == ("a", "b")

    def test_lowercase_fallback(self):
        table = load_embeddings("fever 0.1 0.2")
        assert np.allclose(table.lookup("FEVER"), [0.1, 0.2])

    def test_case_sensitive_primary_lookup(self):
        table = load_embeddings("ANA 1 1\nana 2 2")
        assert np.allclose(table.lookup("ANA"), [1, 1])
        assert np.allclose(table.lookup("ana"), [2, 2])

    def test_oov_gets_unk_vector(self):
        table = load_embeddings("fever 0.1 0.2")
        assert np.array_equal(table.lookup("xyzzy"), table.unk_vector)
        assert np.array_equal(table.unk_vector, np.zeros(2))

    def test_inconsistent_dimension_reports_line(self):
        with pytest.raises(FormatError, match="line 2"):
            load_embeddings("a 1 2\nb 1 2 3")

    def test_non_numeric_field(self):
        with pytest.raises(FormatError):
            load_embeddings("a 1 banana")

    # float() accepts the left column and rejects the right; the loader must
    # agree with it on every string, including underscores and non-ASCII digits.
    # Of the accepted strings, those that are not finite in float32 are
    # rejected as non-finite instead.
    @pytest.mark.parametrize("value", [
        "1", "-1.5", "+3", "1e5", "1E-5", ".5", "1.", "nan", "-NaN", "inf", "-Infinity", "1e999", "1_000", "\uff11",
        "", "1__0", "_1", "0x10", "1e", ".", "1.5.2", "1,5", "1d5", "--1", "nan(1)", "\ufeff1", "1\x1c",
    ])
    def test_components_parse_as_float_does(self, value):
        try:
            expected = np.float32(float(value))
        except ValueError:
            with pytest.raises(FormatError, match="non-numeric"):
                load_embeddings(f"w {value} 0")
        else:
            if np.isfinite(expected):
                assert load_embeddings(f"w {value} 0").lookup("w")[0] == expected
            else:
                with pytest.raises(FormatError, match="NaN, an Inf"):
                    load_embeddings(f"w {value} 0")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e39"])
    def test_non_finite_component_names_the_word_and_line(self, value, recwarn):
        with pytest.raises(FormatError, match="line 2: vector of 'fever' holds a NaN"):
            load_embeddings(f"rash 0.1 0.2\nfever {value} 0.2\n")
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_later_duplicate_wins_at_the_first_position(self):
        table = load_embeddings("a 1 1\nb 2 2\na 3 3")
        assert table.words == ("a", "b")
        assert np.array_equal(table.matrix, [[3, 3], [2, 2]])

    def test_crlf_and_bom_copy_loads_the_same_table(self, data_dir):
        data = data_dir.joinpath("test_embeddings.txt").read_bytes()
        assert b"\r" not in data
        windows = load_embeddings(b"\xef\xbb\xbf" + data.replace(b"\n", b"\r\n"))
        table = load_embeddings(data)
        assert windows.words == table.words
        assert np.array_equal(windows.matrix, table.matrix)

    def test_non_utf8_file_is_a_parse_error(self):
        with pytest.raises(ParseError, match="line 2"):
            load_embeddings(b"a 1 2\n\xff 1 2\n")

    def test_empty_file_rejected(self):
        with pytest.raises(FormatError):
            load_embeddings("")

    def test_loading_is_deterministic(self, data_dir):
        data = data_dir.joinpath("test_embeddings.txt").read_bytes()
        t1, t2 = load_embeddings(data), load_embeddings(data)
        assert t1.words == t2.words
        assert np.array_equal(t1.matrix, t2.matrix)

    def test_shipped_table_shape(self, toy_table):
        assert toy_table.dim == 8
        assert len(toy_table) == 50

    def test_lookup_is_total_and_fixed_length(self, toy_table):
        for word in ("fever", "FEVER", "", "🧬", "never-seen-token"):
            assert toy_table.lookup(word).shape == (8,)


class TestCharVocab:
    def test_single_token(self):
        docs = parse_conll("ab\tO\n")
        vocab = build_char_vocab(docs)
        assert vocab.chars == ("a", "b")
        assert vocab.unk_index == 2
        assert vocab.pad_index == 3
        assert len(vocab) == 4

    def test_sorted_by_code_point(self):
        docs = parse_conll("ba\tO\nAz\tO\n")
        vocab = build_char_vocab(docs)
        assert vocab.chars == ("A", "a", "b", "z")

    def test_covers_mixed_case_and_hyphen(self):
        docs = parse_conll("anti-dsDNA\tO\n")
        vocab = build_char_vocab(docs)
        for c in "-adstinDNA":
            assert c in vocab.chars

    def test_unseen_char_maps_to_unk(self):
        vocab = build_char_vocab(parse_conll("ab\tO\n"))
        assert vocab.encode("axb") == [0, vocab.unk_index, 1]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            build_char_vocab([])

    def test_duplicate_chars_rejected(self):
        with pytest.raises(ValidationError):
            CharVocab(("a", "a"))


class TestEmbeddingTable:
    def test_duplicate_words_rejected(self):
        with pytest.raises(ValidationError, match="word 2, 'rash', is not a string or repeats"):
            EmbeddingTable(("rash", "fever", "rash"), np.zeros((3, 2)))
