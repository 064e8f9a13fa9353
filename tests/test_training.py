import dataclasses
import io
import json
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from imdner import crf as C
from imdner import network as N
from imdner import training as T
from imdner.corpus import Document, LabelSet, Sentence, Token
from imdner.embeddings import CharVocab, EmbeddingTable, build_char_vocab
from imdner.errors import IntegrityError, NumericError, UnsupportedVersionError, ValidationError

from checkpoint_files import DAMAGED, damage, read_checkpoint, write_checkpoint
from conftest import traced_peak


def small_net_config(labels, word_dim=8, **kw):
    defaults = dict(
        num_tags=labels.num_tags, word_dim=word_dim, char_embed_dim=4,
        char_filter_width=3, char_filter_count=4, lstm_hidden=6, dropout_rate=0.0,
    )
    defaults.update(kw)
    return N.NetworkConfig(**defaults)


@pytest.fixture
def labels():
    return LabelSet(("Symptom", "Treatment", "Biomarker"))


@pytest.fixture
def tiny_setup(labels, toy_table):
    config = small_net_config(labels)
    sents = [
        Sentence((Token("the"), Token("fever", "B-Symptom"))),
        Sentence((Token("prednisone", "B-Treatment"), Token("."))),
        Sentence((Token("ana", "B-Biomarker"), Token("was"), Token("high"))),
    ]
    vocab = build_char_vocab([Document("d", tuple(sents))])
    rng = np.random.default_rng(0)
    params = N.init_network_params(config, len(vocab), rng)
    params.update(C.init_params(config.num_tags, rng))
    return config, sents, vocab, params


@pytest.fixture(scope="session")
def trained(toy_corpus, toy_table):
    labels = LabelSet(("Symptom", "Treatment", "Biomarker"))
    config = N.NetworkConfig(
        num_tags=labels.num_tags, word_dim=8, char_embed_dim=4,
        char_filter_width=3, char_filter_count=4, lstm_hidden=6, dropout_rate=0.5,
    )
    tc = T.TrainConfig(epochs=3, seed=13)
    result = T.train(toy_corpus, [], toy_table, config, tc, labels)
    return labels, result


class TestTrainConfig:
    def test_defaults_match_tuned_values(self):
        cfg = T.TrainConfig()
        assert cfg.batch_size == 8
        assert cfg.epochs == 16
        assert cfg.learning_rate == 0.001
        assert cfg.dropout_rate == 0.5
        assert (T.ADAM_BETA1, T.ADAM_BETA2, T.ADAM_EPSILON) == (0.9, 0.999, 1e-8)

    def test_validation(self):
        with pytest.raises(ValidationError):
            T.TrainConfig(learning_rate=2.0)
        with pytest.raises(ValidationError):
            T.TrainConfig(epochs=0)


class TestLossAndGradients:
    def test_zero_model_uniform_loss_and_bias_gradient(self, labels, toy_table, tiny_setup):
        config, sents, vocab, params = tiny_setup
        for arr in params.values():
            arr[...] = 0.0
        batch = sents[:1]  # ("the", "fever"), T=2
        loss, grads = T.loss_and_gradients(batch, params, toy_table, vocab, labels)
        K = labels.num_tags
        assert loss == pytest.approx(2 * np.log(K), abs=1e-9)
        # uniform marginals: d proj_bias = sum_t (1/K - onehot(gold_t))
        expected = np.full(K, 2.0 / K)
        expected[labels.tag_index("O")] -= 1.0
        expected[labels.tag_index("B-Symptom")] -= 1.0
        assert np.allclose(grads["proj_bias"], expected, atol=1e-9)

    def test_mean_semantics_under_duplication(self, labels, toy_table, tiny_setup):
        config, sents, vocab, params = tiny_setup
        loss1, _ = T.loss_and_gradients(sents, params, toy_table, vocab, labels)
        loss2, _ = T.loss_and_gradients(sents + sents, params, toy_table, vocab, labels)
        assert loss1 == pytest.approx(loss2, abs=1e-12)

    def test_empty_batch_rejected(self, labels, toy_table, tiny_setup):
        config, _, vocab, params = tiny_setup
        with pytest.raises(ValidationError):
            T.loss_and_gradients([], params, toy_table, vocab, labels)

    def test_finite_differences_spot_check(self, labels, toy_table, tiny_setup):
        config, sents, vocab, params = tiny_setup
        _, grads = T.loss_and_gradients(sents, params, toy_table, vocab, labels)
        eps = 1e-4
        rng = np.random.default_rng(1)
        for name in ("lstm.wx", "conv_filters", "crf.transitions", "proj_weights"):
            arr = params[name]
            flat_i = int(rng.integers(arr.size))
            ix = np.unravel_index(flat_i, arr.shape)
            orig = arr[ix]
            arr[ix] = orig + eps
            lp, _ = T.loss_and_gradients(sents, params, toy_table, vocab, labels)
            arr[ix] = orig - eps
            lm, _ = T.loss_and_gradients(sents, params, toy_table, vocab, labels)
            arr[ix] = orig
            fd = (lp - lm) / (2 * eps)
            denom = max(abs(fd), abs(grads[name][ix]), 1e-4)
            assert abs(fd - grads[name][ix]) / denom < 1e-3, name


    def test_one_network_forward_and_backward_per_batch(self, labels, toy_table, tiny_setup, monkeypatch):
        config, sents, vocab, params = tiny_setup
        calls = {"emissions_forward": 0, "emissions_backward": 0}
        for name in calls:
            real = getattr(N, name)

            def counting(*args, _real=real, _name=name, **kw):
                calls[_name] += 1
                return _real(*args, **kw)

            monkeypatch.setattr(N, name, counting)
        T.loss_and_gradients(sents, params, toy_table, vocab, labels, (config.dropout_rate, 5))
        assert len(sents) == 3 and calls == {"emissions_forward": 1, "emissions_backward": 1}

    def test_the_network_backward_gets_float32_gradients_from_float32_weights(self, labels, toy_table, tiny_setup,
                                                                              monkeypatch):
        # The CRF returns float64 gradients; they must be cast back before the backward pass.
        config, sents, vocab, params = tiny_setup
        params = {name: arr.astype(T.WEIGHT_DTYPE) for name, arr in params.items()}
        seen = []
        real = N._bilstm_backward

        def recording(d_out, *args, **kw):
            seen.append(d_out.dtype)
            return real(d_out, *args, **kw)

        monkeypatch.setattr(N, "_bilstm_backward", recording)
        _, grads = T.loss_and_gradients(sents, params, toy_table, vocab, labels, (config.dropout_rate, 5))
        assert seen == [np.dtype(T.WEIGHT_DTYPE)]
        assert {g.dtype for g in grads.values()} == {np.dtype(T.WEIGHT_DTYPE)}


def reference_adam_update(state, params, grads, cfg):
    """The allocating Adam step the in-place one replaced, kept as a reference:
    six full-size temporaries per tensor and the bias corrections applied to
    m and v separately. state holds "m", "v" (dicts like params) and "t"."""
    state["t"] += 1
    t = state["t"]
    b1, b2, eps, lr = T.ADAM_BETA1, T.ADAM_BETA2, T.ADAM_EPSILON, cfg.learning_rate
    for k, p in params.items():
        g, m, v = grads[k], state["m"][k], state["v"][k]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


class TestAdam:
    SHAPES = {"a": (40, 30), "b": (7,), "c": (3, 4, 5)}

    def test_in_place_update_matches_the_reference_over_5_steps(self):
        rng = np.random.default_rng(4)
        params = {k: rng.uniform(-0.1, 0.1, size=shape) for k, shape in self.SHAPES.items()}
        start = {k: p.copy() for k, p in params.items()}
        ref_params = {k: p.copy() for k, p in params.items()}
        adam = T.AdamState(params)
        ref = {"m": {k: np.zeros_like(p) for k, p in params.items()},
               "v": {k: np.zeros_like(p) for k, p in params.items()}, "t": 0}
        cfg = T.TrainConfig(learning_rate=0.01)
        for step in range(5):
            # Gradient entries from 1e-6 to 1e2, so that the steps span many scales.
            grads = {k: rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 3, size=p.shape)
                     for k, p in params.items()}
            adam.update(params, grads, cfg)
            reference_adam_update(ref, ref_params, grads, cfg)
            for k in params:
                np.testing.assert_allclose(params[k], ref_params[k], rtol=1e-12, atol=0, err_msg=f"{k}, step {step}")
                np.testing.assert_allclose(adam.first_moment[k], ref["m"][k], rtol=1e-12, atol=0)
                np.testing.assert_allclose(adam.second_moment[k], ref["v"][k], rtol=1e-12, atol=0)
        assert all(np.all(params[k] != start[k]) for k in params)

    def test_a_step_allocates_no_full_size_temporary(self):
        rng = np.random.default_rng(5)
        params = {"w": rng.uniform(-0.1, 0.1, size=(250, 400)).astype(np.float32)}  # 400 kB
        grads = {"w": rng.normal(size=(250, 400)).astype(np.float32)}
        adam = T.AdamState(params)
        cfg = T.TrainConfig()
        adam.update(params, grads, cfg)
        peak = traced_peak(lambda: adam.update(params, grads, cfg))
        assert peak < 0.1 * params["w"].nbytes, peak
        assert all(arr.dtype == np.float32 for arr in (*adam.first_moment.values(), *adam.second_moment.values()))


class TestClipping:
    def test_clipping_allocates_no_full_size_temporary(self):
        grads = {"w": np.random.default_rng(5).normal(size=(250, 400)).astype(np.float32)}  # 400 kB
        peak = traced_peak(lambda: T.clip_gradients(grads))
        assert np.linalg.norm(grads["w"]) == pytest.approx(T.GRAD_CLIP_NORM, rel=1e-5)  # so the gradient was scaled too
        assert peak < 0.1 * grads["w"].nbytes, peak

    def test_large_gradients_scaled_to_norm(self):
        grads = {"a": np.full(4, 100.0), "b": np.full(3, -50.0)}
        T.clip_gradients(grads)
        norm = np.sqrt(sum(np.sum(g * g) for g in grads.values()))
        assert norm == pytest.approx(5.0)

    def test_small_gradients_untouched(self):
        grads = {"a": np.array([0.1, -0.2])}
        T.clip_gradients(grads)
        assert np.array_equal(grads["a"], [0.1, -0.2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_norm_raises(self, bad):
        # NaN > GRAD_CLIP_NORM is False, so a bare comparison would pass NaN on to Adam.
        grads = {"a": np.array([0.1, bad])}
        with pytest.raises(NumericError, match="non-finite gradient norm"):
            T.clip_gradients(grads)


class TestTrain:
    def test_history_length_and_determinism(self, toy_corpus, toy_table, labels, tmp_path):
        config = small_net_config(labels, dropout_rate=0.5)
        tc = T.TrainConfig(epochs=3, seed=99)
        r1 = T.train(toy_corpus, [], toy_table, config, tc, labels)
        r2 = T.train(toy_corpus, [], toy_table, config, tc, labels)
        assert len(r1.history) == 3
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        T.save_checkpoint(r1.checkpoint, p1)
        T.save_checkpoint(r2.checkpoint, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loss_decreases_by_epoch_50(self, toy_corpus, toy_table, labels):
        config = small_net_config(labels, lstm_hidden=8, dropout_rate=0.5)
        tc = T.TrainConfig(epochs=50, seed=13)
        result = T.train(toy_corpus, [], toy_table, config, tc, labels)
        assert result.history[49].loss < result.history[0].loss

    def test_dev_history_and_best_checkpoint(self, toy_corpus, toy_table, labels):
        config = small_net_config(labels, dropout_rate=0.5)
        tc = T.TrainConfig(epochs=2, seed=5)
        result = T.train(toy_corpus, toy_corpus[:1], toy_table, config, tc, labels)
        assert all(r.dev_f1 is not None for r in result.history)
        assert result.best_checkpoint is not None

    def test_nan_gradients_stop_training_with_epoch_and_batch(self, toy_corpus, toy_table, labels, monkeypatch):
        real = T.loss_and_gradients
        calls = []

        def nan_on_third_batch(*args, **kwargs):
            loss, grads = real(*args, **kwargs)
            calls.append(1)
            if len(calls) == 3:
                grads["lstm.wh"][0, 0, 0] = np.nan
            return loss, grads

        monkeypatch.setattr(T, "loss_and_gradients", nan_on_third_batch)
        adam_steps = []
        real_update = T.AdamState.update
        monkeypatch.setattr(T.AdamState, "update", lambda self, *a: adam_steps.append(1) or real_update(self, *a))
        tc = T.TrainConfig(epochs=1, batch_size=1, seed=3)
        with pytest.raises(NumericError, match=r"^epoch 1, batch 3: non-finite gradient norm"):
            T.train(toy_corpus, [], toy_table, small_net_config(labels), tc, labels)
        assert len(adam_steps) == 2  # the NaN batch never reached Adam

    def test_non_finite_forward_names_epoch_and_batch(self, toy_corpus, labels):
        table = EmbeddingTable(("fever",), np.full((1, 8), np.nan))
        with pytest.raises(NumericError,
                           match=r"^epoch 1, batch \d+: non-finite values in word vectors and char features"):
            T.train(toy_corpus, [], table, small_net_config(labels), T.TrainConfig(epochs=1, seed=3), labels)

    def test_every_checkpoint_of_a_run_is_the_training_table(self, toy_corpus, toy_table, labels, monkeypatch):
        trained_on, checkpoints = [], []
        real_loss, real_make = T.loss_and_gradients, T.make_checkpoint

        def recording_loss(batch, params, table, *args, **kw):
            trained_on.append(table)
            return real_loss(batch, params, table, *args, **kw)

        def recording_make(*args, **kw):
            checkpoints.append(real_make(*args, **kw))
            return checkpoints[-1]

        monkeypatch.setattr(T, "loss_and_gradients", recording_loss)
        monkeypatch.setattr(T, "make_checkpoint", recording_make)
        config = small_net_config(labels)
        result = T.train(toy_corpus, toy_corpus[:1], toy_table, config, T.TrainConfig(epochs=2, seed=5), labels)
        assert len(checkpoints) == 2  # one per epoch for dev scoring; the last epoch's is the final one
        assert checkpoints[-1] is result.checkpoint and any(c is result.best_checkpoint for c in checkpoints)
        assert trained_on and all(table is toy_table for table in trained_on)
        assert all(ckpt.embeddings is toy_table for ckpt in checkpoints)

    def test_without_a_dev_set_only_the_last_epoch_is_checkpointed(self, toy_corpus, toy_table, labels, monkeypatch):
        checkpoints = []
        real_make = T.make_checkpoint

        def recording_make(*args, **kw):
            checkpoints.append(real_make(*args, **kw))
            return checkpoints[-1]

        monkeypatch.setattr(T, "make_checkpoint", recording_make)
        config = small_net_config(labels)
        result = T.train(toy_corpus, [], toy_table, config, T.TrainConfig(epochs=3, seed=5), labels)
        assert len(checkpoints) == 1
        assert result.checkpoint is checkpoints[0] and result.best_checkpoint is checkpoints[0]
        assert result.checkpoint.metadata == {"seed": 5, "epochs_completed": 3, "final_loss": result.history[-1].loss}

    def test_no_dropout_mask_repeats_within_a_run(self, toy_table, labels, monkeypatch):
        masks = []
        real_mask = N.dropout_mask

        def recording_mask(*args, **kw):
            masks.append(real_mask(*args, **kw))
            return masks[-1]

        monkeypatch.setattr(N, "dropout_mask", recording_mask)
        sents = [Sentence((Token("fever", "B-Symptom" if i % 2 else "O"),)) for i in range(1010)]
        config = small_net_config(labels, char_filter_count=56, dropout_rate=0.5)  # an LSTM input 64 wide
        T.train([Document("d", tuple(sents))], [], toy_table, config,
                T.TrainConfig(epochs=2, batch_size=1, dropout_rate=0.5, seed=3), labels)
        assert len(masks) == 2020 and all(m.shape == (1, 64) for m in masks)
        assert len({m.tobytes() for m in masks}) == 2020

    def test_char_windows_that_cannot_fit_are_refused_before_training(self, toy_corpus, toy_table, labels,
                                                                      monkeypatch):
        # 4 MiB of memory. The weights of a width-1501 char-CNN fit, with Adam's copies about 0.5 MB, but
        # its windows over the toy corpus's 102 tokens, one batch of them, take about 6 MB.
        monkeypatch.setattr(T.os, "sysconf", lambda name: {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1024}[name])
        monkeypatch.setattr(T, "loss_and_gradients", lambda *args, **kw: pytest.fail("training started"))
        config = small_net_config(labels, char_filter_width=1501)
        with pytest.raises(ValidationError, match="batches of up to 102 tokens"):
            T.train(toy_corpus, [], toy_table, config, T.TrainConfig(epochs=1, batch_size=64), labels)

    def test_char_windows_are_counted_exactly_not_by_tokens(self, toy_corpus, toy_table, labels, monkeypatch):
        # 16 MiB of memory. Counted as one window per token, the toy corpus's 102 tokens at width 1501 need
        # about 6.3 MiB; its tokens are shorter than the filter, so they have one window per char, 476 in all,
        # and need about 27.7 MiB.
        monkeypatch.setattr(T.os, "sysconf", lambda name: {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 4096}[name])
        monkeypatch.setattr(T, "loss_and_gradients", lambda *args, **kw: pytest.fail("training started"))
        config = small_net_config(labels, char_filter_width=1501)
        with pytest.raises(ValidationError, match=r"batches of up to 102 tokens \(476 char-CNN windows\)"):
            T.train(toy_corpus, [], toy_table, config, T.TrainConfig(epochs=1, batch_size=64), labels)

    def test_table_from_float64_values_holds_their_float32_rounding(self, labels):
        values = np.random.default_rng(0).normal(size=(3, 8))
        table = EmbeddingTable(("fever", "rash", "ana"), values)
        assert table.matrix.dtype == np.float32 and table.unk_vector.dtype == np.float32
        assert np.array_equal(table.matrix, values.astype(np.float32))
        assert np.array_equal(table.lookup("RASH"), values[1].astype(np.float32))
        config = small_net_config(labels)
        rng = np.random.default_rng(0)
        vocab = CharVocab(("a",))
        params = N.init_network_params(config, len(vocab), rng)
        params.update(C.init_params(labels.num_tags, rng))
        assert T.make_checkpoint(params, labels, vocab, table).embeddings is table

    def test_empty_train_set_rejected(self, toy_table, labels):
        config = small_net_config(labels)
        with pytest.raises(ValidationError):
            T.train([], [], toy_table, config, T.TrainConfig(epochs=1), labels)

    def test_num_tags_mismatch_rejected(self, toy_corpus, toy_table, labels):
        config = small_net_config(labels, num_tags=99)
        with pytest.raises(ValidationError):
            T.train(toy_corpus, [], toy_table, config, T.TrainConfig(epochs=1), labels)

    def test_long_training_sentence_is_split_at_an_entity(self, labels, toy_table, monkeypatch):
        # Tokens 510-515 are one entity; the 512-token cut falls inside it.
        tags = ["O"] * 600
        tags[510] = "B-Symptom"
        tags[511:516] = ["I-Symptom"] * 5
        sent = Sentence(tuple(Token("fever" if t != "O" else "the", t) for t in tags))
        seen = []
        real = T.loss_and_gradients

        def recording(batch, *args, **kw):
            seen.extend(batch)
            return real(batch, *args, **kw)

        monkeypatch.setattr(T, "loss_and_gradients", recording)
        config = small_net_config(labels)
        with pytest.warns(UserWarning, match="splitting a 600-token sentence"):
            T.train([Document("d", (sent,))], [], toy_table, config, T.TrainConfig(epochs=1, seed=1), labels)
        assert sorted(len(s) for s in seen) == [88, 512]
        (second,) = [s for s in seen if len(s) == 88]
        assert second.tags[:4] == ("B-Symptom", "I-Symptom", "I-Symptom", "I-Symptom")
        assert second.tags[4:] == ("O",) * 84


def learnable_corpus(seed, train_tokens, dev_tokens, dim=16):
    """Seeded train and dev documents over the toy labels, with a word table in
    which each label's words sit around their own centre, and each label's
    words share a suffix the char-CNN can see. Entities are 1-2 tokens."""
    rng = np.random.default_rng(seed)
    suffixes = {"Symptom": "itis", "Treatment": "mab", "Biomarker": "ase"}
    letters = list("bcdfgklmnprstv")
    lexicon = {lab: ["".join(rng.choice(letters, 3)) + suffix for _ in range(25)] for lab, suffix in suffixes.items()}
    filler = ["".join(rng.choice(letters + list("aeiou"), int(rng.integers(2, 7)))) for _ in range(80)]
    words, vectors = [], []
    for words_of_label in [*lexicon.values(), filler]:
        centre = rng.normal(size=dim)
        words += words_of_label
        vectors += [centre + 0.7 * rng.normal(size=dim) for _ in words_of_label]

    def documents(n_tokens, name):
        sentences, total = [], 0
        while total < n_tokens:
            tokens = []
            for _ in range(int(rng.integers(6, 18))):
                if rng.random() < 0.25:
                    label = list(suffixes)[int(rng.integers(3))]
                    for k in range(int(rng.integers(1, 3))):
                        tokens.append(Token(lexicon[label][int(rng.integers(25))], ("I-" if k else "B-") + label))
                else:
                    tokens.append(Token(filler[int(rng.integers(80))]))
            sentences.append(Sentence(tuple(tokens)))
            total += len(tokens)
        return [Document(name, tuple(sentences))]

    return documents(train_tokens, "train"), documents(dev_tokens, "dev"), EmbeddingTable(tuple(words), np.array(vectors))


class TestTrainingPrecision:
    """Every weight trains in float32; the CRF's forward-backward runs in float64."""

    def test_float32_gradients_match_float64_on_a_paper_size_batch(self):
        rng = np.random.default_rng(11)
        labels = LabelSet()
        config = N.NetworkConfig(num_tags=labels.num_tags)  # the paper's sizes: H=200, word_dim 200, 25 tags
        words = [f"w{i}x" for i in range(300)]
        table = EmbeddingTable(tuple(words), rng.normal(scale=0.5, size=(300, config.word_dim)))
        batch = []
        for n in [25, 3, 17, 40, 9, 12, 1, 22]:  # 129 tokens, as in a batch of 8 of the benchmark's corpus
            tags, prev = [], "O"
            for _ in range(n):
                label = labels.labels[int(rng.integers(len(labels.labels)))]
                r = rng.random()
                prev = f"B-{label}" if r < 0.2 else f"I-{prev[2:]}" if r < 0.35 and prev != "O" else "O"
                tags.append(prev)
            batch.append(Sentence(tuple(Token(words[int(rng.integers(300))], tag) for tag in tags)))
        vocab = build_char_vocab([Document("d", tuple(batch))])
        drawn = N.init_network_params(config, len(vocab), rng)
        drawn.update(C.init_params(config.num_tags, rng))
        w32 = {k: v.astype(np.float32) for k, v in drawn.items()}  # as training holds them
        w64 = {k: v.astype(np.float64) for k, v in w32.items()}  # the same values, in float64
        for dropout in (None, (config.dropout_rate, 7)):
            loss32, grads32 = T.loss_and_gradients(batch, w32, table, vocab, labels, dropout)
            loss64, grads64 = T.loss_and_gradients(batch, w64, table, vocab, labels, dropout)
            assert loss32 == pytest.approx(loss64, rel=1e-7)
            for name, ref in grads64.items():
                # Measured: at most about 5e-7 of the largest entry for the network
                # tensors and 6e-8 for the CRF's, whose forward-backward is float64.
                tol = 1e-6 if name.startswith("crf.") else 1e-5
                assert grads32[name].dtype == np.float32
                err = np.max(np.abs(grads32[name] - ref)) / np.max(np.abs(ref))
                assert err < tol, (name, dropout, err)

    def test_seeded_float32_training_learns_as_float64_training_does(self, monkeypatch):
        labels = LabelSet(("Symptom", "Treatment", "Biomarker"))
        train_docs, dev_docs, table = learnable_corpus(3, 3000, 1000)
        config = N.NetworkConfig(num_tags=labels.num_tags, word_dim=16, char_embed_dim=8, char_filter_count=16,
                                 lstm_hidden=32, dropout_rate=0.5)
        tc = T.TrainConfig(epochs=4, learning_rate=0.01, seed=3)
        f1 = {}
        for dtype in (np.float32, np.float64):
            monkeypatch.setattr(T, "WEIGHT_DTYPE", dtype)
            result = T.train(train_docs, dev_docs, table, config, tc, labels)
            assert result.checkpoint.params["lstm.wx"].dtype == np.float32
            f1[dtype] = result.history[-1].dev_f1
        # Both reach 0.9346 on this corpus; an untrained model scores about 0.
        assert f1[np.float32] >= 0.90
        assert abs(f1[np.float32] - f1[np.float64]) <= 0.02


class TestCheckpoint:
    def test_round_trip_preserves_predictions(self, trained, toy_corpus, tmp_path):
        labels, result = trained
        path = tmp_path / "model.ckpt"
        T.save_checkpoint(result.checkpoint, path)
        loaded = T.load_checkpoint(path)
        before = T.predict_documents(result.checkpoint, toy_corpus)
        after = T.predict_documents(loaded, toy_corpus)
        assert [[s.tags for s in d.sentences] for d in before] == [
            [s.tags for s in d.sentences] for d in after
        ]

    def test_round_trip_preserves_metadata_and_vocab(self, trained, tmp_path):
        labels, result = trained
        path = tmp_path / "model.ckpt"
        T.save_checkpoint(result.checkpoint, path)
        loaded = T.load_checkpoint(path)
        assert loaded.label_set.labels == labels.labels
        assert loaded.char_vocab.chars == result.checkpoint.char_vocab.chars
        assert loaded.metadata["seed"] == 13
        assert loaded.embeddings.dim == result.checkpoint.embeddings.dim

    def test_truncated_file_is_an_integrity_error(self, trained, tmp_path):
        _, result = trained
        path = tmp_path / "model.ckpt"
        T.save_checkpoint(result.checkpoint, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 17])
        with pytest.raises(IntegrityError):
            T.load_checkpoint(path)

    def test_unsupported_version_names_both(self, trained, tmp_path):
        _, result = trained
        path = tmp_path / "model.ckpt"
        T.save_checkpoint(result.checkpoint, path)
        data = path.read_bytes()
        head, _, rest = data.partition(b"\n")
        head = head.replace(b'"format_version": %d' % T.CHECKPOINT_VERSION, b'"format_version": 999')
        path.write_bytes(head + b"\n" + rest)
        with pytest.raises(UnsupportedVersionError, match=f"999.*{T.CHECKPOINT_VERSION}"):
            T.load_checkpoint(path)

    def test_load_keeps_the_table_and_the_weights_float32_aligned_views(self, trained, toy_table, tmp_path):
        _, result = trained
        path = tmp_path / "model.ckpt"
        T.save_checkpoint(result.checkpoint, path)
        loaded = T.load_checkpoint(path)
        assert loaded.embeddings.matrix.dtype == np.float32
        assert loaded.embeddings.words == toy_table.words
        assert np.array_equal(loaded.embeddings.matrix, toy_table.matrix)
        tensors = list(loaded.params.values())
        for arr in [*tensors, loaded.embeddings.matrix]:
            assert arr.dtype == np.float32 and arr.flags.aligned and arr.flags.c_contiguous
            assert not arr.flags.owndata  # a view of the one payload buffer, not a copy
        assert len({id(arr.base) for arr in tensors}) == 1

    def test_in_memory_and_reloaded_checkpoints_predict_identically(self, trained, toy_corpus, tmp_path):
        _, result = trained
        ckpt = result.checkpoint
        path = tmp_path / "model.ckpt"
        T.save_checkpoint(ckpt, path)
        loaded = T.load_checkpoint(path)
        for (name, arr), (_, again) in zip(ckpt.params.items(), loaded.params.items()):
            assert arr.dtype == np.float32 and np.array_equal(arr, again), name
        texts = [t for d in toy_corpus for s in d.sentences for t in s.texts]
        lengths = [len(s) for d in toy_corpus for s in d.sentences]
        emis = [N.emissions_forward(texts, lengths, c.embeddings, c.params, c.char_vocab)[0]
                for c in (ckpt, loaded)]
        assert emis[0].dtype == np.float32 and np.array_equal(emis[0], emis[1])
        tags = [[s.tags for d in T.predict_documents(c, toy_corpus) for s in d.sentences] for c in (ckpt, loaded)]
        assert tags[0] == tags[1]

    def test_sorted_word_order_still_loads(self, trained, toy_table, tmp_path):
        # Checkpoints written before the table kept its file order listed the
        # words sorted; words and rows in another order still read the same.
        _, result = trained
        path = tmp_path / "model.ckpt"
        T.save_checkpoint(result.checkpoint, path)
        head, _, blob = path.read_bytes().partition(b"\n")
        header = json.loads(head)
        words = header["embedding_words"]
        order = sorted(range(len(words)), key=words.__getitem__)
        assert order != list(range(len(words)))
        header["embedding_words"] = [words[i] for i in order]
        payload = np.frombuffer(blob, dtype="<f4")
        start = len(payload) - len(words) * toy_table.dim  # the matrix ends the payload
        rows = payload[start:].reshape(len(words), -1)[order]
        payload = np.concatenate([payload[:start], rows.ravel()])
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload.astype("<f4").tobytes())
        loaded = T.load_checkpoint(path)
        for word in words:
            assert np.array_equal(loaded.embeddings.lookup(word), toy_table.lookup(word))

    @pytest.mark.parametrize("edit", [
        pytest.param({"tensors": None}, id="no-tensors"),
        pytest.param({"tensors": 7}, id="tensors-not-a-list"),
        pytest.param({"tensors": [["char_embeddings", ["x"]]]}, id="tensor-shape-not-integers"),
        pytest.param({"labels": None}, id="no-labels"),
        pytest.param({"labels": "Symptom"}, id="labels-not-a-list"),
        pytest.param({"char_vocab": None}, id="no-char-vocab"),
        pytest.param({"embedding_words": None}, id="no-embedding-words"),
        pytest.param({"embedding_words": lambda words: [123, *words[1:]]}, id="embedding-word-not-a-string"),
        pytest.param({"embedding_words": lambda words: [*words[:-1], "rash"]}, id="embedding-word-repeated"),
        pytest.param({"metadata": None}, id="no-metadata"),
    ])
    def test_missing_or_ill_typed_header_key_is_an_integrity_error(self, trained, tmp_path, edit):
        _, result = trained
        path = tmp_path / "model.ckpt"
        T.save_checkpoint(result.checkpoint, path)
        head, _, blob = path.read_bytes().partition(b"\n")
        header = json.loads(head)
        for key, value in edit.items():
            if value is None:
                del header[key]
            else:
                header[key] = value(header[key]) if callable(value) else value
        path.write_bytes(json.dumps(header).encode() + b"\n" + blob)
        with pytest.raises(IntegrityError):
            T.load_checkpoint(path)

    def test_header_that_is_not_an_object_is_an_integrity_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"[1, 2]\n")
        with pytest.raises(IntegrityError):
            T.load_checkpoint(path)

    @pytest.mark.parametrize("kind", ["corpus", "binary", "json-without-newline", "truncated-checkpoint"])
    def test_a_file_that_is_not_a_checkpoint_is_refused_before_its_payload_is_read(self, trained, data_dir,
                                                                                    tmp_path, monkeypatch, kind):
        _, result = trained
        path = tmp_path / "model.ckpt"
        T.save_checkpoint(result.checkpoint, path)
        data = {
            "corpus": data_dir.joinpath("toy_corpus.conll").read_bytes(),
            "binary": np.random.default_rng(0).bytes(1 << 16),
            "json-without-newline": b'{"format_version": 1, "tensors": []' + b" " * 100_000,
            "truncated-checkpoint": path.read_bytes()[:-4],
        }[kind]
        reads = []

        class Reader(io.BufferedReader):  # records the payload read, the one readinto a load makes
            def readinto(self, buffer):
                reads.append(len(buffer))
                return super().readinto(buffer)

        monkeypatch.setattr(T, "open", lambda file, mode: Reader(io.FileIO(file, mode)), raising=False)
        T.load_checkpoint(path)
        assert len(reads) == 1  # so the hook sees the read that a refusal must not make
        reads.clear()
        path.write_bytes(data)
        with pytest.raises(IntegrityError):
            T.load_checkpoint(path)
        assert reads == []

    def test_the_payload_buffer_is_allocated_before_the_header_is_parsed(self, trained, tmp_path, monkeypatch):
        # So a reload takes the heap block a freed payload left before anything made from the header splits it.
        _, result = trained
        path = tmp_path / "model.ckpt"
        T.save_checkpoint(result.checkpoint, path)
        events = []
        real_empty, real_loads = np.empty, json.loads
        monkeypatch.setattr(np, "empty", lambda *a, **kw: events.append("empty") or real_empty(*a, **kw))
        monkeypatch.setattr(json, "loads", lambda *a, **kw: events.append("loads") or real_loads(*a, **kw))
        T.load_checkpoint(path)
        assert events[:2] == ["empty", "loads"]

    @pytest.mark.parametrize("module, hook, longer", [
        (json, "loads", 0),  # a file of the same size, renamed while the header is parsed
        (np, "empty", 40),  # a longer header, renamed when the payload buffer is allocated
    ], ids=["same-size-at-parse", "longer-header-at-allocation"])
    def test_a_checkpoint_replaced_mid_load_is_read_as_one_file(self, trained, tmp_path, monkeypatch, module, hook,
                                                                longer):
        _, result = trained
        ckpt = result.checkpoint
        path, other = tmp_path / "model.ckpt", tmp_path / "other.ckpt"
        T.save_checkpoint(dataclasses.replace(ckpt, metadata={**ckpt.metadata, "seed": 13}), path)
        shifted = {name: arr + 1 for name, arr in ckpt.params.items()}
        padding = {"note": "x" * (longer - len(', "note": ""'))} if longer else {}
        T.save_checkpoint(dataclasses.replace(ckpt, params=shifted, metadata={**ckpt.metadata, "seed": 14, **padding}),
                          other)
        assert other.stat().st_size - path.stat().st_size == longer
        real = getattr(module, hook)

        def replace_then_call(*a, **kw):  # the other file is renamed over the path, once
            if other.exists():
                os.replace(other, path)
            return real(*a, **kw)

        monkeypatch.setattr(module, hook, replace_then_call)
        loaded = T.load_checkpoint(path)
        assert not other.exists()
        assert loaded.metadata["seed"] == 13
        assert all(np.array_equal(loaded.params[k], v) for k, v in ckpt.params.items())

    def test_a_header_with_no_newline_is_read_only_to_its_first_control_byte(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"{\x00" + b"a" * (16 << 20))

        def load():
            with pytest.raises(IntegrityError, match=r"byte b'\\x00' at offset 1"):
                T.load_checkpoint(path)

        assert traced_peak(load) < 4 << 20

    def test_a_header_longer_than_one_read_still_loads(self, trained, tmp_path):
        _, result = trained
        path = tmp_path / "model.ckpt"
        T.save_checkpoint(result.checkpoint, path)
        header, payload = path.read_bytes().split(b"\n", 1)
        path.write_bytes(header[:-1] + b" " * (3 << 20) + b"}\n" + payload)  # JSON whitespace before the last brace
        loaded = T.load_checkpoint(path)
        assert loaded.embeddings.words == result.checkpoint.embeddings.words
        assert all(np.array_equal(loaded.params[k], v) for k, v in result.checkpoint.params.items())

    @pytest.mark.parametrize("case", sorted(DAMAGED))
    def test_damaged_checkpoint_is_an_integrity_error_naming_it(self, trained, tmp_path, case):
        _, result = trained
        path = tmp_path / "model.ckpt"
        T.save_checkpoint(result.checkpoint, path)
        named = damage(path, case)
        with pytest.raises(IntegrityError, match=re.escape(named)):
            T.load_checkpoint(path)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_rewritten_tensor_shapes_are_rejected_or_predict(self, trained, toy_corpus, tmp_path, data):
        # Up to three tensors get a new shape, their payload resized to match.
        _, result = trained
        path = tmp_path / "model.ckpt"
        T.save_checkpoint(result.checkpoint, path)
        header, tensors = read_checkpoint(path)
        for name in data.draw(st.lists(st.sampled_from(sorted(tensors)), max_size=3, unique=True)):
            old = tensors[name].shape
            shape = data.draw(st.one_of(
                st.lists(st.integers(0, 12), max_size=3),
                st.integers(0, len(old) - 1).flatmap(
                    lambda axis: st.integers(0, 12).map(lambda n: [*old[:axis], n, *old[axis + 1:]])),
            ))
            tensors[name] = np.resize(tensors[name], shape)
        write_checkpoint(path, header, tensors)
        try:
            ckpt = T.load_checkpoint(path)
        except IntegrityError:
            return
        (doc,) = T.predict_documents(ckpt, toy_corpus[:1])
        assert doc.sentences[0].texts == toy_corpus[0].sentences[0].texts

    def test_save_is_deterministic(self, trained, tmp_path):
        _, result = trained
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        T.save_checkpoint(result.checkpoint, p1)
        T.save_checkpoint(result.checkpoint, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_writes_the_layout_order_whatever_the_order_of_params(self, trained, tmp_path):
        _, result = trained
        ckpt = result.checkpoint
        reversed_params = dataclasses.replace(ckpt, params=dict(reversed(ckpt.params.items())))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        T.save_checkpoint(ckpt, p1)
        T.save_checkpoint(reversed_params, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_a_boolean_dimension_is_refused_where_the_declared_one_is_1(self, labels, tmp_path):
        config = small_net_config(labels, char_filter_count=1)  # conv_bias has shape (1,), and True == 1
        rng = np.random.default_rng(0)
        vocab = CharVocab(("a",))
        params = N.init_network_params(config, len(vocab), rng)
        params.update(C.init_params(labels.num_tags, rng))
        table = EmbeddingTable(("fever",), rng.normal(size=(1, config.word_dim)))
        path = tmp_path / "model.ckpt"
        T.save_checkpoint(T.make_checkpoint(params, labels, vocab, table), path)
        header, tensors = read_checkpoint(path)
        assert header["tensors"][2] == ["conv_bias", [1]]
        header["tensors"][2][1] = [True]
        write_checkpoint(path, header, tensors, header["tensors"])
        with pytest.raises(IntegrityError, match="conv_bias"):
            T.load_checkpoint(path)


class TestPredict:
    def test_prediction_is_deterministic(self, trained, toy_corpus):
        _, result = trained
        a = T.predict_documents(result.checkpoint, toy_corpus)
        b = T.predict_documents(result.checkpoint, toy_corpus)
        assert [[s.tags for s in d.sentences] for d in a] == [
            [s.tags for s in d.sentences] for d in b
        ]

    def test_predictions_are_bio_valid(self, trained, toy_corpus):
        _, result = trained
        from imdner.corpus import validate_bio

        for doc in T.predict_documents(result.checkpoint, toy_corpus):
            for sent in doc.sentences:
                validate_bio(sent.tags)

    def test_long_sentence_is_split_with_warning(self, trained):
        _, result = trained
        from imdner.corpus import validate_bio

        doc = Document("long", (Sentence(tuple(Token("fever") for _ in range(600))),))
        with pytest.warns(UserWarning, match="splitting"):
            (pred,) = T.predict_documents(result.checkpoint, [doc])
        (sent,) = pred.sentences
        assert sent.texts == ("fever",) * 600
        validate_bio(sent.tags)

    def test_one_network_forward_for_a_three_sentence_document(self, trained, toy_corpus, monkeypatch):
        _, result = trained
        forwards = []
        real = N.emissions_forward

        def counting(texts, lengths, *args, **kw):
            forwards.append(list(lengths))
            return real(texts, lengths, *args, **kw)

        monkeypatch.setattr(N, "emissions_forward", counting)
        doc = Document("three", tuple(toy_corpus[0].sentences[:3]))
        assert len(doc.sentences) == 3
        (pred,) = T.predict_documents(result.checkpoint, [doc])
        assert forwards == [[len(s) for s in doc.sentences]]
        assert [s.texts for s in pred.sentences] == [s.texts for s in doc.sentences]

    def test_chunks_are_grouped_up_to_the_sentence_limit(self, trained, monkeypatch):
        _, result = trained
        forwards = []
        real = N.emissions_forward

        def counting(texts, lengths, *args, **kw):
            forwards.append(list(lengths))
            return real(texts, lengths, *args, **kw)

        decodes = []
        real_viterbi = C.viterbi

        def counting_viterbi(emis, params, lengths=None):
            decodes.append(None if lengths is None else list(lengths))
            return real_viterbi(emis, params, lengths)

        monkeypatch.setattr(N, "emissions_forward", counting)
        monkeypatch.setattr(C, "viterbi", counting_viterbi)
        sizes = [300, 200, 12, 600, 5]
        docs = [Document(f"d{n}", (Sentence(tuple(Token("fever") for _ in range(n))),)) for n in sizes]
        with pytest.warns(UserWarning, match="splitting a 600-token sentence"):
            pred = T.predict_documents(result.checkpoint, docs)
        assert forwards == [[300, 200, 12], [512], [88, 5]]
        assert decodes == forwards  # one Viterbi call per group
        assert [len(d.sentences[0]) for d in pred] == sizes

    def test_bio_mask_is_built_once_per_call(self, trained, toy_corpus, monkeypatch):
        _, result = trained
        calls = []
        real = T.crf_mod.masked

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(T.crf_mod, "masked", counting)
        T.predict_documents(result.checkpoint, toy_corpus)
        assert sum(len(d.sentences) for d in toy_corpus) > 1
        assert len(calls) == 1
