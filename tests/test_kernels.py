"""Oracle tests for the hoisted BiLSTM and the inline CRF log-sum-exp.

The references below are the straightforward per-step kernels: one
matrix-vector product per gate input and two np.outer calls per step in the
LSTM backward, and scipy.special.logsumexp in the CRF recursions. The
package's kernels reorder floating-point sums, so they are held to a
relative tolerance, not to bitwise equality.
"""

import numpy as np
import pytest
from scipy.special import logsumexp

from imdner import crf as C
from imdner import network as N
from imdner.embeddings import CharVocab, EmbeddingTable

RTOL = 1e-10


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def reference_lstm_forward(xs, blk, hidden):
    T = xs.shape[0]
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    hs = np.zeros((T, hidden))
    caches = []
    for t in range(T):
        z = blk.wx @ xs[t] + blk.wh @ h + blk.b
        i = _sigmoid(z[:hidden])
        f = _sigmoid(z[hidden: 2 * hidden])
        g = np.tanh(z[2 * hidden: 3 * hidden])
        o = _sigmoid(z[3 * hidden:])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        h_new = o * tanh_c
        caches.append({"x": xs[t], "h_prev": h, "c_prev": c, "i": i, "f": f, "g": g, "o": o, "tanh_c": tanh_c})
        h, c = h_new, c_new
        hs[t] = h
    return hs, caches


def reference_lstm_backward(d_hs, caches, blk, hidden, prefix, grads):
    T = d_hs.shape[0]
    d_xs = np.zeros((T, blk.wx.shape[1]))
    dh_next = np.zeros(hidden)
    dc_next = np.zeros(hidden)
    for t in range(T - 1, -1, -1):
        cc = caches[t]
        dh = d_hs[t] + dh_next
        do = dh * cc["tanh_c"] * cc["o"] * (1.0 - cc["o"])
        dc = dh * cc["o"] * (1.0 - cc["tanh_c"] ** 2) + dc_next
        di = dc * cc["g"] * cc["i"] * (1.0 - cc["i"])
        df = dc * cc["c_prev"] * cc["f"] * (1.0 - cc["f"])
        dg = dc * cc["i"] * (1.0 - cc["g"] ** 2)
        dz = np.concatenate([di, df, dg, do])
        grads[f"{prefix}.wx"] += np.outer(dz, cc["x"])
        grads[f"{prefix}.wh"] += np.outer(dz, cc["h_prev"])
        grads[f"{prefix}.b"] += dz
        d_xs[t] = blk.wx.T @ dz
        dh_next = blk.wh.T @ dz
        dc_next = dc * cc["f"]
    return d_xs


def reference_char_features_backward(d_feat, cache, params, config, grads):
    w, f_count, d = config.char_filter_width, config.char_filter_count, config.char_embed_dim
    activ, argmax, windows, win_idx = cache["activ"], cache["argmax"], cache["windows"], cache["win_idx"]
    d_activ = np.zeros_like(activ)
    d_activ[argmax, np.arange(f_count)] = d_feat
    d_scores = d_activ * (1.0 - activ**2)
    filters_flat = params.conv_filters.reshape(f_count, -1)
    grads["conv_filters"] += (d_scores.T @ windows).reshape(params.conv_filters.shape)
    grads["conv_bias"] += d_scores.sum(axis=0)
    d_windows = d_scores @ filters_flat
    for p in range(d_windows.shape[0]):
        for k in range(w):
            grads["char_embeddings"][win_idx[p, k]] += d_windows[p, k * d: (k + 1) * d]


def assert_close(got, ref):
    # A sum of many signed terms can cancel to near zero, where the reordered
    # sum differs from the reference by a few ulps of the terms, not of the
    # result; so the error is also allowed RTOL of the tensor's largest entry.
    np.testing.assert_allclose(got, ref, rtol=RTOL, atol=RTOL * np.max(np.abs(ref)))


# -- BiLSTM at the paper's sizes -------------------------------------------------

PAPER = N.NetworkConfig(num_tags=25, word_dim=200, lstm_hidden=200)
WORDS = [f"w{i}" for i in range(30)] + ["Prednisone", "anti-dsDNA", "fever", "a", "SLE"]


def _paper_setup():
    rng = np.random.default_rng(2026)
    vocab = CharVocab(tuple("abcdefghijklmnopqrstuvwxyz0123456789-ADNPS"))
    table = EmbeddingTable(WORDS[:-5], rng.normal(size=(len(WORDS) - 5, PAPER.word_dim)))
    params = N.init_network_params(PAPER, len(vocab), rng)
    texts = [WORDS[int(k)] for k in rng.integers(0, len(WORDS), size=40)]
    d_emis = rng.normal(size=(len(texts), PAPER.num_tags))
    return vocab, table, params, texts, d_emis


def _run(params, texts, table, vocab, d_emis, dropout_seed):
    emis, cache = N.emissions_forward(texts, table, params, PAPER, vocab, dropout_seed)
    grads = {name: np.zeros_like(arr) for name, arr in params.param_items()}
    N.emissions_backward(d_emis, cache, params, PAPER, grads)
    return emis, grads


@pytest.mark.parametrize("dropout_seed", [None, 17], ids=["dropout-off", "dropout-on"])
def test_hoisted_bilstm_matches_per_step_reference(monkeypatch, dropout_seed):
    vocab, table, params, texts, d_emis = _paper_setup()
    emis, grads = _run(params, texts, table, vocab, d_emis, dropout_seed)

    monkeypatch.setattr(N, "_lstm_forward", reference_lstm_forward)
    monkeypatch.setattr(N, "_lstm_backward", reference_lstm_backward)
    monkeypatch.setattr(N, "char_features_backward", reference_char_features_backward)
    ref_emis, ref_grads = _run(params, texts, table, vocab, d_emis, dropout_seed)

    assert len(texts) == 40 and PAPER.lstm_hidden == 200
    assert_close(emis, ref_emis)
    for name, ref in ref_grads.items():
        assert np.any(ref != 0.0), name
        assert_close(grads[name], ref)


def test_hoisted_lstm_input_gradients_match_reference():
    rng = np.random.default_rng(3)
    hidden, T, d_in = 200, 40, 230
    blk = N.LstmBlock(wx=rng.uniform(-0.1, 0.1, (4 * hidden, d_in)),
                      wh=rng.uniform(-0.1, 0.1, (4 * hidden, hidden)),
                      b=rng.uniform(-0.1, 0.1, 4 * hidden))
    xs = rng.normal(size=(T, d_in))
    d_hs = rng.normal(size=(T, hidden))

    hs, cache = N._lstm_forward(xs, blk, hidden)
    ref_hs, ref_cache = reference_lstm_forward(xs, blk, hidden)
    assert_close(hs, ref_hs)

    names = ("blk.wx", "blk.wh", "blk.b")
    grads = {n: np.zeros_like(a) for n, a in zip(names, (blk.wx, blk.wh, blk.b))}
    ref_grads = {n: np.zeros_like(a) for n, a in zip(names, (blk.wx, blk.wh, blk.b))}
    d_xs = N._lstm_backward(d_hs, cache, blk, hidden, "blk", grads)
    ref_d_xs = reference_lstm_backward(d_hs, ref_cache, blk, hidden, "blk", ref_grads)
    assert_close(d_xs, ref_d_xs)
    for n in names:
        assert_close(grads[n], ref_grads[n])


# -- CRF log-sum-exp against scipy ------------------------------------------------


def reference_alphas_betas(emissions, crf):
    T = emissions.shape[0]
    alpha = np.empty_like(emissions)
    beta = np.empty_like(emissions)
    alpha[0] = crf.start_scores + emissions[0]
    for t in range(1, T):
        alpha[t] = emissions[t] + logsumexp(alpha[t - 1][:, None] + crf.transitions, axis=0)
    beta[T - 1] = crf.end_scores
    for t in range(T - 2, -1, -1):
        beta[t] = logsumexp(crf.transitions + (emissions[t + 1] + beta[t + 1])[None, :], axis=1)
    return alpha, beta, logsumexp(alpha[-1] + crf.end_scores)


def reference_nll_gradients(emissions, crf, gold):
    T, K = emissions.shape
    alpha, beta, log_z = reference_alphas_betas(emissions, crf)
    marg = np.exp(alpha + beta - log_z)
    d_emis = marg.copy()
    for t, y in enumerate(gold):
        d_emis[t, y] -= 1.0
    d_trans = np.zeros((K, K))
    for t in range(T - 1):
        d_trans += np.exp(alpha[t][:, None] + crf.transitions + (emissions[t + 1] + beta[t + 1])[None, :] - log_z)
    for t in range(1, T):
        d_trans[gold[t - 1], gold[t]] -= 1.0
    d_start = marg[0].copy()
    d_start[gold[0]] -= 1.0
    d_end = marg[-1].copy()
    d_end[gold[-1]] -= 1.0
    return d_emis, d_trans, d_start, d_end


def _crf_instance(rng, T, K=25, scale=1e3):
    emis = rng.choice([-scale, scale], size=(T, K)) * rng.uniform(0.5, 1.0, size=(T, K))
    params = C.CrfParams(rng.normal(size=(K, K)), rng.normal(size=K), rng.normal(size=K))
    return emis, params


@pytest.mark.parametrize("scale", [1.0, 1e3])
@pytest.mark.parametrize("T", [1, 2, 40])
def test_inline_logsumexp_matches_scipy(T, scale):
    rng = np.random.default_rng(T)
    for _ in range(5):
        emis, params = _crf_instance(rng, T, scale=scale)
        alpha, beta, log_z = reference_alphas_betas(emis, params)
        assert C.log_partition(emis, params) == pytest.approx(float(log_z), rel=RTOL)

        ref_marg = np.exp(alpha + beta - log_z)
        ref_marg /= ref_marg.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(C.marginals(emis, params), ref_marg, rtol=RTOL, atol=1e-300)

        gold = list(rng.integers(0, params.num_tags, size=T))
        value, *got = C.nll_gradients(emis, params, gold)
        assert value == pytest.approx(float(log_z) - C.path_score(emis, params, gold), rel=RTOL)
        for g, ref in zip(got, reference_nll_gradients(emis, params, gold)):
            np.testing.assert_allclose(g, ref, rtol=RTOL, atol=1e-300)
