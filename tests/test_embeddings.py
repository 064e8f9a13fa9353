import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imdner.corpus import parse_conll
from imdner.embeddings import CharVocab, EmbeddingTable, build_char_vocab, load_embeddings
from imdner.errors import FormatError, ParseError, ValidationError

from conftest import traced_peak


def naive_load_embeddings(text: str):
    """(words, float32 matrix) of an LF-ended, well-formed embedding file:
    an optional `<count> <dim>` first line, blank lines skipped, float() per
    value, and a repeated word at its first row with its last vector."""
    lines = text.split("\n")
    try:
        count, dim = lines[0].split()
        int(count), int(dim)
        lines = lines[1:]
    except ValueError:
        pass
    rows = {}
    for line in lines:
        if line.strip():
            word, *values = line.strip().split(" ")
            rows[word] = [float(v) for v in values]
    return tuple(rows), np.array(list(rows.values()), dtype=np.float64).astype(np.float32)


# Pieces that reach the header check, the field splitter and float(): separators, numbers, nan/inf, NUL, CR,
# a BOM and a vertical tab, which str.strip removes but the line walk does not split on.
_EMBEDDING_PIECES = [" ", "\t", "\n", "\r", "\r\n", "\x00", "\ufeff", "\x0b", *"0123456789", ".", "-", "+", "e", "_",
                     "nan", "inf", "w"]


@st.composite
def well_formed_embedding_files(draw):
    dim = draw(st.integers(1, 4))
    pool = draw(st.lists(st.text("abzAZé-_", min_size=1, max_size=4), min_size=1, max_size=4, unique=True))
    value = st.builds(lambda x, fmt: fmt(x), st.floats(-3e38, 3e38, allow_nan=False),
                      st.sampled_from([repr, "{:.3g}".format, "{:e}".format, "{:+.9f}".format]))
    pad = st.sampled_from(["", " ", "\t", " \t"])
    entry = st.builds(lambda lead, word, values, trail: lead + " ".join([word, *values]) + trail,
                      pad, st.sampled_from(pool), st.lists(value, min_size=dim, max_size=dim), pad)
    lines = draw(st.lists(entry | pad, min_size=1, max_size=12).filter(lambda ls: any(map(str.strip, ls))))
    if draw(st.booleans()):
        lines.insert(0, f"{draw(st.integers(0, 99))} {dim}")
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


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

    @pytest.mark.parametrize("header", ["2\t3", " 2 3 ", "2 3 \r"])
    def test_a_first_line_of_two_integer_fields_is_a_header(self, header):
        table = load_embeddings(f"{header}\na 1 2 3\nb 4 5 6")
        assert table.words == ("a", "b")

    def test_a_header_is_dropped_even_where_it_would_be_a_vector(self):
        table = load_embeddings("2 3\na 1\nb 2")  # "2 3" reads as word 2, but only the first line is checked
        assert table.words == ("a", "b")

    @pytest.mark.parametrize("first", ["2.0 3", "2 3.0", "x 3"])
    def test_a_first_line_of_two_fields_not_both_integers_is_a_vector(self, first):
        table = load_embeddings(f"{first}\na 1")
        assert table.words == (first.split()[0], "a")
        assert table.matrix[0, 0] == 3

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

    @pytest.mark.parametrize("vector", ["nan 0.2", "inf 0.2", "-inf 0.2", "1e39 0.2", "1e39 -1e39"],
                             ids=["nan", "inf", "-inf", "1e39", "1e39-and--1e39"])
    def test_non_finite_component_names_the_word_and_line(self, vector, recwarn):
        with pytest.raises(FormatError, match="line 2: vector of 'fever' holds a NaN"):
            load_embeddings(f"rash 0.1 0.2\nfever {vector}\n")
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_later_duplicate_wins_at_the_first_position(self):
        table = load_embeddings("a 1 1\nb 2 2\na 3 3")
        assert table.words == ("a", "b")
        assert np.array_equal(table.matrix, [[3, 3], [2, 2]])

    def test_a_repeated_word_is_checked_by_its_last_vector_at_its_line(self, recwarn):
        assert load_embeddings("a inf 1\nb 1 1\na 2 2").words == ("a", "b")
        with pytest.raises(FormatError, match="line 4: vector of 'a' holds a NaN"):
            load_embeddings("2 2\na 1 1\nb 1 1\na 1 nan\n\nc 1 1\n")
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_crlf_and_bom_copy_loads_the_same_table(self, data_dir):
        data = data_dir.joinpath("test_embeddings.txt").read_bytes()
        assert b"\r" not in data
        windows = load_embeddings(b"\xef\xbb\xbf" + data.replace(b"\n", b"\r\n"))
        table = load_embeddings(data)
        assert windows.words == table.words
        assert np.array_equal(windows.matrix, table.matrix)

    def test_the_table_is_float64_rows_cast_once(self):
        # Values across float32's range, subnormals included, with a header, blank lines, a repeated word,
        # trailing whitespace, CRLF and a BOM.
        rng = np.random.default_rng(29)
        values = rng.normal(size=(300, 7)) * 10.0 ** rng.integers(-44, 38, size=(300, 7))
        lines = ["300 7"] + [f"w{i % 280} " + " ".join(map(repr, row.tolist())) for i, row in enumerate(values)]
        for at in sorted(rng.choice(len(lines), 20, replace=False), reverse=True):
            lines.insert(at + 1, " \t" if at % 2 else "")
        lines[5] += " \t"
        data = b"\xef\xbb\xbf" + "\r\n".join(lines).encode()

        rows = {}
        for line in data.decode("utf-8-sig").split("\r\n")[1:]:
            if line.strip():
                word, *fields = line.strip().split(" ")
                rows[word] = [float(f) for f in fields]
        table = load_embeddings(data)
        assert table.words == tuple(rows) == tuple(f"w{i}" for i in range(280))
        expected = np.array(list(rows.values()), dtype=np.float64).astype(np.float32)
        assert table.matrix.tobytes() == expected.tobytes()
        assert np.count_nonzero((expected != 0) & (np.abs(expected) < np.finfo(np.float32).tiny)) > 0

    def test_the_traced_peak_is_about_the_text_plus_the_table(self):
        fmt = " ".join(["%.5f"] * 200)
        rows = np.random.default_rng(31).normal(0, 0.1, (5000, 200))
        text = "".join(f"w{i} " + fmt % tuple(row) + "\n" for i, row in enumerate(rows))
        data = text.encode()
        assert len(data) == len(text)  # ASCII: the decoded text takes a byte per character
        assert traced_peak(lambda: load_embeddings(data)) <= len(text) + 1.5 * (5000 * 200 * 4)

    def test_blank_lines_after_a_long_vector_allocate_no_row_each(self):
        data = ("w " + " ".join(["1"] * 20_000) + "\n" * 20_000).encode()  # a row per line would be 1.6 GB
        assert traced_peak(lambda: load_embeddings(data)) < 8 << 20

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

    @pytest.mark.parametrize("word", ["fever", "zzz"])
    def test_a_lookup_cannot_rewrite_the_table(self, word):
        rows = np.array([[0.5, -1.0, 2.0]], np.float32)
        table = EmbeddingTable(("fever",), rows)
        vector = table.lookup(word)
        with pytest.raises(ValueError, match="read-only"):
            vector += 7
        assert np.array_equal(table.lookup("fever"), rows[0])
        assert np.array_equal(table.lookup("qqq"), np.zeros(3, np.float32))
        assert rows.flags.writeable


class TestLoadEmbeddingsProperties:
    @given(st.lists(st.sampled_from(_EMBEDDING_PIECES), max_size=40).map("".join), st.booleans())
    @settings(deadline=None)
    def test_any_text_is_a_table_or_a_parse_error(self, text, as_bytes):
        try:
            table = load_embeddings(text.encode() if as_bytes else text)
        except ParseError:  # FormatError included
            return
        assert isinstance(table, EmbeddingTable)
        assert table.matrix.dtype == np.float32 and np.isfinite(table.matrix).all()

    @given(well_formed_embedding_files())
    @settings(deadline=None)
    def test_a_well_formed_file_loads_as_the_naive_parser_reads_it(self, text):
        words, matrix = naive_load_embeddings(text)
        table = load_embeddings(text)
        assert table.words == words
        assert table.matrix.shape == matrix.shape and table.matrix.tobytes() == matrix.tobytes()


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

    def test_index_is_not_an_argument(self):
        # It is always built from chars, so passing one would be silently overwritten.
        with pytest.raises(TypeError):
            CharVocab(("a",), index={"a": 5})


class TestEmbeddingTable:
    def test_duplicate_words_rejected(self):
        with pytest.raises(ValidationError, match="word 2, 'rash', is not a string or repeats"):
            EmbeddingTable(("rash", "fever", "rash"), np.zeros((3, 2)))
