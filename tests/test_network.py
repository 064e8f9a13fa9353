import numpy as np
import pytest

from imdner import crf as C
from imdner import network as N
from imdner import training
from imdner.corpus import Document, LabelSet, Sentence, Token
from imdner.embeddings import CharVocab, EmbeddingTable
from imdner.errors import NumericError, ValidationError


def make_config(**kw):
    defaults = dict(
        num_tags=5, word_dim=4, char_embed_dim=3, char_filter_width=3,
        char_filter_count=2, lstm_hidden=3, dropout_rate=0.5,
    )
    defaults.update(kw)
    return N.NetworkConfig(**defaults)


@pytest.fixture
def vocab():
    return CharVocab(tuple("abcdefghijklmnopqrstuvwxyz"))


@pytest.fixture
def table():
    rng = np.random.default_rng(0)
    return EmbeddingTable(("fever", "rash", "the", "high"), rng.normal(size=(4, 4)))


def emissions(texts, table, params, config, vocab, dropout_seed=None):
    """Emissions of one sentence through the batched forward pass."""
    return N.emissions_forward(texts, [len(texts)], table, params, config, vocab, dropout_seed)[0]


def char_features(text, vocab, params):
    """Char features of one token through the batched forward pass."""
    return N.char_features_forward([text], vocab, params)[0][0]


def zero_params(config, vocab):
    rng = np.random.default_rng(0)
    params = N.init_network_params(config, len(vocab), rng)
    for arr in params.values():
        arr[...] = 0.0
    return params


class TestConfig:
    def test_rejects_even_filter_width(self):
        with pytest.raises(ValidationError):
            make_config(char_filter_width=4)

    def test_rejects_bad_dropout(self):
        with pytest.raises(ValidationError):
            make_config(dropout_rate=1.0)

    def test_input_dim(self):
        assert make_config().lstm_input_dim == 6


class TestParams:
    def test_weights_grads_and_checkpoints_are_keyed_in_param_shapes_order(self, table, tmp_path, monkeypatch):
        labels = LabelSet(("Symptom",))
        config = make_config(num_tags=labels.num_tags)
        docs = [Document("d", (Sentence((Token("the"), Token("fever", "B-Symptom"))), Sentence((Token("rash"),))))]
        steps = []
        real_update = training.AdamState.update

        def spy(adam, params, grads, cfg):
            steps.append([{name: d[name].dtype for name in d}
                          for d in (params, grads, adam.first_moment, adam.second_moment)])
            return real_update(adam, params, grads, cfg)

        monkeypatch.setattr(training.AdamState, "update", spy)
        for batch_size in (1, 2):  # two epochs of two sentences, one or two at a time, with dropout on
            steps.clear()
            tc = training.TrainConfig(epochs=2, batch_size=batch_size, dropout_rate=0.5, seed=4)
            ckpt = training.train(docs, [], table, config, tc, labels).checkpoint
            training.save_checkpoint(ckpt, tmp_path / "model.ckpt")
            loaded = training.load_checkpoint(tmp_path / "model.ckpt")
            declared = N.param_shapes(config, len(ckpt.char_vocab)) + C.param_shapes(config.num_tags)
            names = [name for name, _ in declared]
            params = N.init_network_params(config, len(ckpt.char_vocab), np.random.default_rng(0))
            params.update(C.init_params(config.num_tags, np.random.default_rng(1)))
            assert [(name, arr.shape) for name, arr in params.items()] == declared
            assert len(steps) == 4 // batch_size
            for step in steps:  # the weights, their gradients and both Adam moments, while training
                for dtypes in step:
                    assert list(dtypes) == names
                    for name, dtype in dtypes.items():
                        assert dtype == np.float32, name
            for weights in (ckpt.params, loaded.params):
                assert [(name, arr.shape) for name, arr in weights.items()] == declared
                assert {arr.dtype for arr in weights.values()} == {np.dtype(np.float32)}


class TestCharFeatures:
    def test_zero_parameters_give_zero_vector(self, vocab):
        config = make_config()
        params = zero_params(config, vocab)
        feat = char_features("a", vocab, params)
        assert np.array_equal(feat, np.zeros(config.char_filter_count))

    def test_identical_tokens_identical_features(self, vocab):
        config = make_config()
        rng = np.random.default_rng(1)
        params = N.init_network_params(config, len(vocab), rng)
        f1 = char_features("fever", vocab, params)
        f2 = char_features("fever", vocab, params)
        assert np.array_equal(f1, f2)

    def test_single_filter_detects_a_trigram(self, vocab):
        # One filter whose weights copy the char embeddings of "e","v","e";
        # on "fever" the convolution must peak at the "eve" window.
        config = make_config(char_filter_count=1)
        params = zero_params(config, vocab)
        rng = np.random.default_rng(2)
        params["char_embeddings"][...] = rng.normal(size=params["char_embeddings"].shape)
        trigram = [vocab.encode("eve")[i] for i in range(3)]
        params["conv_filters"][0] = params["char_embeddings"][trigram]

        feat = char_features("fever", vocab, params)

        # Hand convolution over the 3 windows of "fever".
        emb = params["char_embeddings"][vocab.encode("fever")]
        scores = []
        for p in range(3):
            s = 0.0
            for k in range(3):
                s += float(np.dot(params["conv_filters"][0, k], emb[p + k]))
            scores.append(np.tanh(s))
        assert feat[0] == pytest.approx(max(scores), abs=1e-12)
        assert int(np.argmax(scores)) == 1  # the "eve" window

    def test_short_tokens_are_padded(self, vocab):
        config = make_config()
        rng = np.random.default_rng(3)
        params = N.init_network_params(config, len(vocab), rng)
        feat = char_features("a", vocab, params)
        assert feat.shape == (config.char_filter_count,)
        assert np.all(np.isfinite(feat))

    def test_a_bare_string_is_not_a_token_list(self, vocab):
        config = make_config()
        params = N.init_network_params(config, len(vocab), np.random.default_rng(3))
        with pytest.raises(ValidationError, match="not a string"):
            N.char_features_forward("fever", vocab, params)

    def test_batched_tokens_match_each_token_alone(self, vocab):
        # Tokens of 1, 2 and 20 chars: the short ones have one window, the
        # long one eighteen, so no window of another token may win a max.
        config = make_config(char_filter_count=8)
        rng = np.random.default_rng(9)
        params = N.init_network_params(config, len(vocab), rng)
        params["char_embeddings"][...] = rng.normal(size=params["char_embeddings"].shape)
        tokens = ["a", "ab", "abcdefghijklmnopqrst", "a"]
        feats, _ = N.char_features_forward(tokens, vocab, params)
        assert feats.shape == (4, 8)
        for token, feat in zip(tokens, feats):
            # One GEMM over more rows may round the last bit differently.
            np.testing.assert_allclose(feat, char_features(token, vocab, params), rtol=1e-12, atol=1e-15)


class TestEmissions:
    def test_zero_network_outputs_proj_bias(self, vocab, table):
        config = make_config()
        params = zero_params(config, vocab)
        params["proj_bias"][...] = np.arange(config.num_tags, dtype=float)
        emis = emissions(["fever", "rash", "the"], table, params, config, vocab)
        assert emis.shape == (3, config.num_tags)
        for row in emis:
            assert np.allclose(row, params["proj_bias"])

    def test_deterministic_without_dropout(self, vocab, table):
        config = make_config()
        params = N.init_network_params(config, len(vocab), np.random.default_rng(4))
        a = emissions(["fever", "high"], table, params, config, vocab)
        b = emissions(["fever", "high"], table, params, config, vocab)
        assert np.array_equal(a, b)

    def test_matches_hand_unrolled_lstm(self, vocab):
        # hidden size 1, word dim 1, zero char path: the whole network is a
        # pair of scalar LSTMs we can unroll by hand.
        config = make_config(num_tags=2, word_dim=1, char_filter_count=1, lstm_hidden=1)
        table = EmbeddingTable(("u", "v"), [[0.3], [-0.7]])
        params = zero_params(config, vocab)
        # input to each LSTM is [word, char]=[x, 0]
        wx = np.array([[0.5, 0.0], [-0.3, 0.0], [0.8, 0.0], [0.2, 0.0]])
        wh = np.array([[0.1], [0.4], [-0.2], [0.6]])
        b = np.array([0.05, -0.1, 0.2, 0.3])
        params["lstm.wx"][...] = [wx, 2 * wx]  # [forward, backward]
        params["lstm.wh"][...] = [wh, -wh]
        params["lstm.b"][...] = [b, b / 2]
        params["proj_weights"][...] = np.array([[1.0, -1.0], [0.5, 2.0]])
        params["proj_bias"][...] = np.array([0.1, -0.2])

        def sig(z):
            return 1.0 / (1.0 + np.exp(-z))

        def unroll(xs, wx_, wh_, b_):
            h = c = 0.0
            out = []
            for x in xs:
                z = wx_ @ np.array([x, 0.0]) + wh_[:, 0] * h + b_
                i, f, g, o = sig(z[0]), sig(z[1]), np.tanh(z[2]), sig(z[3])
                c = f * c + i * g
                h = o * np.tanh(c)
                out.append(h)
            return out

        xs = [float(table.lookup(w)[0]) for w in ("u", "v")]
        fw = unroll(xs, wx, wh, b)
        bw = unroll(xs[::-1], 2 * wx, -wh, b / 2)[::-1]
        expected = np.array(
            [
                [fw[t] * 1.0 + bw[t] * 0.5 + 0.1, fw[t] * -1.0 + bw[t] * 2.0 - 0.2]
                for t in range(2)
            ]
        )
        emis = emissions(["u", "v"], table, params, config, vocab)
        assert np.max(np.abs(emis - expected)) < 1e-10

    @pytest.mark.parametrize("T", [1, 2, 17, 64])
    def test_output_shape(self, vocab, table, T):
        config = make_config()
        params = N.init_network_params(config, len(vocab), np.random.default_rng(5))
        emis = emissions(["fever"] * T, table, params, config, vocab)
        assert emis.shape == (T, config.num_tags)

    def test_reversal_is_not_reversal_of_rows(self, vocab, table):
        config = make_config()
        params = N.init_network_params(config, len(vocab), np.random.default_rng(6))
        words = ["fever", "rash", "the", "high"]
        fwd = emissions(words, table, params, config, vocab)
        rev = emissions(words[::-1], table, params, config, vocab)
        assert not np.allclose(rev, fwd[::-1])

    def test_finite_for_bounded_parameters(self, vocab, table):
        config = make_config()
        params = N.init_network_params(config, len(vocab), np.random.default_rng(7))
        for arr in params.values():
            arr[...] = np.clip(arr * 100, -5, 5)
        emis = emissions(["fever", "rash"] * 20, table, params, config, vocab)
        assert np.all(np.isfinite(emis))

    def test_rejects_empty_and_oversized(self, vocab, table):
        config = make_config()
        params = zero_params(config, vocab)
        with pytest.raises(ValidationError):
            emissions([], table, params, config, vocab)
        with pytest.raises(ValidationError):
            emissions(["a"] * (N.MAX_SENTENCE_LEN + 1), table, params, config, vocab)

    def test_non_finite_parameters_name_the_stage(self, vocab, table):
        config = make_config()
        params = zero_params(config, vocab)
        params["proj_bias"][0] = np.inf
        with pytest.raises(NumericError, match="projection"):
            emissions(["fever"], table, params, config, vocab)

    def test_word_dim_mismatch(self, vocab):
        config = make_config(word_dim=9)
        params = zero_params(config, vocab)
        bad_table = EmbeddingTable(("a",), np.zeros((1, 4)))
        with pytest.raises(ValidationError):
            emissions(["a"], bad_table, params, config, vocab)


class TestDropout:
    def test_masks_are_seeded(self, vocab, table):
        config = make_config()
        params = N.init_network_params(config, len(vocab), np.random.default_rng(8))
        a = emissions(["fever", "rash"], table, params, config, vocab, dropout_seed=11)
        b = emissions(["fever", "rash"], table, params, config, vocab, dropout_seed=11)
        c = emissions(["fever", "rash"], table, params, config, vocab, dropout_seed=12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_inverted_dropout_expectation(self):
        # Averaging 10,000 seeded masks reproduces the unmasked vector within 2%.
        x = np.array([1.0, -2.0, 0.5, 3.0])
        acc = np.zeros_like(x)
        n = 10_000
        for seed in range(n):
            acc += N.dropout_mask(x.shape, 0.5, seed) * x
        assert np.max(np.abs(acc / n - x) / np.abs(x)) < 0.02
