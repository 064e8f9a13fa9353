"""Oracle tests for the packed BiLSTM, the batched char-CNN and the packed
CRF forward-backward.

The references below are the straightforward per-sentence, per-step kernels:
one matrix-vector product per gate input and two np.outer calls per step in
the LSTM backward, a per-token char-CNN that takes the max over tanh, and
scipy.special.logsumexp in log-space CRF recursions. The package's kernels
batch sentences and reorder floating-point sums, so they are held to a
relative tolerance, not to bitwise equality. Where the emissions span
thousands of nats, a float64 log-space recursion is itself off by up to
2e-11, so there the CRF is checked against exact values from a 60-digit
mpmath forward-backward instead."""

from collections import Counter

import mpmath
import numpy as np
import pytest
from scipy.special import logsumexp

from imdner import crf as C
from imdner import network as N
from imdner.embeddings import CharVocab, EmbeddingTable
from imdner.errors import NumericError

from crf_oracle import path_score

RTOL = 1e-10


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def reference_lstm_forward(xs, params, d, hidden):
    """One direction, d (0 forward, 1 backward), over xs, with its slice of the stacked LSTM tensors."""
    wx, wh, b = (params[f"lstm.{part}"][d] for part in ("wx", "wh", "b"))
    T = xs.shape[0]
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    hs = np.zeros((T, hidden))
    caches = []
    for t in range(T):
        z = wx @ xs[t] + wh @ h + b
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


def reference_lstm_backward(d_hs, caches, params, hidden, d, grads):
    """One direction's BPTT; adds to direction d's slice of the stacked LSTM gradients."""
    wx, wh = params["lstm.wx"][d], params["lstm.wh"][d]
    T = d_hs.shape[0]
    d_xs = np.zeros((T, wx.shape[1]))
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
        grads["lstm.wx"][d] += np.outer(dz, cc["x"])
        grads["lstm.wh"][d] += np.outer(dz, cc["h_prev"])
        grads["lstm.b"][d] += dz
        d_xs[t] = wx.T @ dz
        dh_next = wh.T @ dz
        dc_next = dc * cc["f"]
    return d_xs


def reference_char_features_forward(text, vocab, params, config):
    w, f_count = config.char_filter_width, config.char_filter_count
    idx = vocab.encode(text)
    if len(idx) < w:
        pad = [vocab.pad_index] * ((w - 1) // 2)
        idx = pad + idx + pad
    win_idx = np.array([idx[p: p + w] for p in range(len(idx) - w + 1)])
    windows = params["char_embeddings"][win_idx].reshape(len(win_idx), -1)
    activ = np.tanh(windows @ params["conv_filters"].reshape(f_count, -1).T + params["conv_bias"])
    argmax = activ.argmax(axis=0)
    feat = activ[argmax, np.arange(f_count)]
    return feat, {"win_idx": win_idx, "windows": windows, "activ": activ, "argmax": argmax}


def reference_char_features_backward(d_feat, cache, params, config, grads):
    w, f_count, d = config.char_filter_width, config.char_filter_count, config.char_embed_dim
    activ, argmax, windows, win_idx = cache["activ"], cache["argmax"], cache["windows"], cache["win_idx"]
    d_activ = np.zeros_like(activ)
    d_activ[argmax, np.arange(f_count)] = d_feat
    d_scores = d_activ * (1.0 - activ**2)
    filters_flat = params["conv_filters"].reshape(f_count, -1)
    grads["conv_filters"] += (d_scores.T @ windows).reshape(params["conv_filters"].shape)
    grads["conv_bias"] += d_scores.sum(axis=0)
    d_windows = d_scores @ filters_flat
    for p in range(d_windows.shape[0]):
        for k in range(w):
            grads["char_embeddings"][win_idx[p, k]] += d_windows[p, k * d: (k + 1) * d]


def reference_sentence(texts, table, params, config, vocab, mask, d_emis, grads):
    """One sentence through the per-token char-CNN and the per-step BiLSTM,
    forward and backward; returns its emissions and adds to grads."""
    h = config.lstm_hidden
    chars = [reference_char_features_forward(t, vocab, params, config) for t in texts]
    xs = np.concatenate([np.stack([table.lookup(t) for t in texts]), np.stack([f for f, _ in chars])], axis=1)
    xs = xs * mask
    hs_fw, cache_fw = reference_lstm_forward(xs, params, 0, h)
    hs_bw, cache_bw = reference_lstm_forward(xs[::-1], params, 1, h)
    hidden = np.concatenate([hs_fw, hs_bw[::-1]], axis=1)
    emis = hidden @ params["proj_weights"] + params["proj_bias"]

    grads["proj_weights"] += hidden.T @ d_emis
    grads["proj_bias"] += d_emis.sum(axis=0)
    d_hidden = d_emis @ params["proj_weights"].T
    d_xs = reference_lstm_backward(d_hidden[:, :h], cache_fw, params, h, 0, grads)
    d_xs += reference_lstm_backward(d_hidden[::-1, h:], cache_bw, params, h, 1, grads)[::-1]
    d_xs = d_xs * mask
    for t, (_, cache) in enumerate(chars):
        reference_char_features_backward(d_xs[t, config.word_dim:], cache, params, config, grads)
    return emis


def assert_close(got, ref):
    # A sum of many signed terms can cancel to near zero, where the reordered
    # sum differs from the reference by a few ulps of the terms, not of the
    # result; so the error is also allowed RTOL of the tensor's largest entry.
    np.testing.assert_allclose(got, ref, rtol=RTOL, atol=RTOL * np.max(np.abs(ref)))


# -- packed BiLSTM at the paper's sizes, on a ragged batch -------------------------

PAPER = N.NetworkConfig(num_tags=25, word_dim=200, lstm_hidden=200)
WORDS = [f"w{i}" for i in range(30)] + ["Prednisone", "anti-dsDNA", "fever", "a", "SLE"]
LENGTHS = [7, 1, 40, 2]  # shuffled, so that packing must reorder the sentences


def _paper_setup():
    rng = np.random.default_rng(2026)
    vocab = CharVocab(tuple("abcdefghijklmnopqrstuvwxyz0123456789-ADNPS"))
    table = EmbeddingTable(WORDS[:-5], rng.normal(size=(len(WORDS) - 5, PAPER.word_dim)))
    params = N.init_network_params(PAPER, len(vocab), rng)
    texts = [WORDS[int(k)] for k in rng.integers(0, len(WORDS), size=sum(LENGTHS))]
    d_emis = rng.normal(size=(len(texts), PAPER.num_tags))
    return vocab, table, params, texts, d_emis


def _zero_grads(params):
    return {name: np.zeros_like(arr) for name, arr in params.items()}


@pytest.mark.parametrize("dropout_seed", [None, 17], ids=["dropout-off", "dropout-on"])
def test_hoisted_bilstm_matches_per_step_reference(dropout_seed):
    vocab, table, params, texts, d_emis = _paper_setup()
    emis, cache = N.emissions_forward(texts, LENGTHS, table, params, PAPER, vocab, dropout_seed)
    grads = _zero_grads(params)
    N.emissions_backward(d_emis, cache, params, grads)

    shape = (len(texts), PAPER.lstm_input_dim)
    if dropout_seed is None:
        assert cache["mask"] is None
        mask = np.ones(shape)
    else:  # one mask for the whole batch; each sentence takes its rows of it
        mask = cache["mask"]
        assert np.array_equal(mask, N.dropout_mask(shape, PAPER.dropout_rate, dropout_seed))
    ref_grads = _zero_grads(params)
    ref_emis, end = [], 0
    for n in LENGTHS:
        rows = slice(end, end + n)
        end += n
        ref_emis.append(reference_sentence(texts[rows], table, params, PAPER, vocab, mask[rows], d_emis[rows], ref_grads))

    assert PAPER.lstm_hidden == 200
    assert_close(emis, np.concatenate(ref_emis))
    for name, ref in ref_grads.items():
        assert np.any(ref != 0.0), name
        assert_close(grads[name], ref)


def test_hoisted_lstm_input_gradients_match_reference():
    """The weight gradients and the input gradients of the unfrozen (char)
    columns; the first `frozen` (word-vector) columns take none."""
    rng = np.random.default_rng(3)
    hidden, d_in, frozen = 200, 230, 200
    params = {"lstm.wx": rng.uniform(-0.1, 0.1, (2, 4 * hidden, d_in)),
              "lstm.wh": rng.uniform(-0.1, 0.1, (2, 4 * hidden, hidden)),
              "lstm.b": rng.uniform(-0.1, 0.1, (2, 4 * hidden))}
    xs = rng.normal(size=(sum(LENGTHS), d_in))
    d_hs = rng.normal(size=(sum(LENGTHS), 2 * hidden))

    hs, cache = N._bilstm_forward(xs, np.array(LENGTHS), params)
    grads = {name: np.zeros_like(arr) for name, arr in params.items()}
    ref_grads = {name: np.zeros_like(arr) for name, arr in grads.items()}
    d_xs = N._bilstm_backward(d_hs, cache, params, grads, frozen)
    assert d_xs.shape == (len(xs), d_in - frozen)

    end = 0
    for n in LENGTHS:
        rows = slice(end, end + n)
        end += n
        ref_fw, cache_fw = reference_lstm_forward(xs[rows], params, 0, hidden)
        ref_bw, cache_bw = reference_lstm_forward(xs[rows][::-1], params, 1, hidden)
        assert_close(hs[rows], np.concatenate([ref_fw, ref_bw[::-1]], axis=1))
        ref_d_xs = reference_lstm_backward(d_hs[rows, :hidden], cache_fw, params, hidden, 0, ref_grads)
        ref_d_xs += reference_lstm_backward(d_hs[rows, hidden:][::-1], cache_bw, params, hidden, 1, ref_grads)[::-1]
        assert_close(d_xs[rows], ref_d_xs[:, frozen:])
    for name, ref in ref_grads.items():
        assert_close(grads[name], ref)


# -- CRF forward-backward against scipy and against exact values -----------------


def reference_alphas_betas(emissions, crf):
    T = emissions.shape[0]
    alpha = np.empty_like(emissions)
    beta = np.empty_like(emissions)
    alpha[0] = crf["crf.start"] + emissions[0]
    for t in range(1, T):
        alpha[t] = emissions[t] + logsumexp(alpha[t - 1][:, None] + crf["crf.transitions"], axis=0)
    beta[T - 1] = crf["crf.end"]
    for t in range(T - 2, -1, -1):
        beta[t] = logsumexp(crf["crf.transitions"] + (emissions[t + 1] + beta[t + 1])[None, :], axis=1)
    return alpha, beta, logsumexp(alpha[-1] + crf["crf.end"])


def reference_nll_gradients(emissions, crf, gold):
    T, K = emissions.shape
    alpha, beta, log_z = reference_alphas_betas(emissions, crf)
    marg = np.exp(alpha + beta - log_z)
    d_emis = marg.copy()
    for t, y in enumerate(gold):
        d_emis[t, y] -= 1.0
    d_trans = np.zeros((K, K))
    for t in range(T - 1):
        d_trans += np.exp(alpha[t][:, None] + crf["crf.transitions"] + (emissions[t + 1] + beta[t + 1])[None, :] - log_z)
    for t in range(1, T):
        d_trans[gold[t - 1], gold[t]] -= 1.0
    return d_emis, d_trans


def exact_nll_gradients(emissions, crf, gold):
    """(nll, d_emis, d_trans) from an unscaled 60-digit forward-backward, each
    correctly rounded to float64. mpmath's exponent range is unbounded, so
    nothing is shifted or scaled; every exp is computed once."""
    T, K = emissions.shape
    with mpmath.workdps(60):
        def exp(a):
            return [[mpmath.exp(float(x)) for x in row] for row in np.atleast_2d(a)]

        e, p = exp(emissions), exp(crf["crf.transitions"])
        (start,), (end,) = exp(crf["crf.start"]), exp(crf["crf.end"])
        alpha = [[start[j] * e[0][j] for j in range(K)]]
        for t in range(1, T):
            alpha.append([e[t][j] * mpmath.fdot(alpha[-1], (p[i][j] for i in range(K))) for j in range(K)])
        beta = [end]
        for t in range(T - 1, 0, -1):
            beta.insert(0, [mpmath.fdot(p[i], [e[t][j] * beta[0][j] for j in range(K)]) for i in range(K)])
        z = mpmath.fdot(alpha[-1], end)
        score = mpmath.fsum([crf["crf.start"][gold[0]], crf["crf.end"][gold[-1]],
                             *(emissions[t, y] for t, y in enumerate(gold)),
                             *(crf["crf.transitions"][a, b] for a, b in zip(gold, gold[1:]))])
        d_emis = [[float(alpha[t][k] * beta[t][k] / z - (k == gold[t])) for k in range(K)] for t in range(T)]
        # message[t][j]: the factor of every pair that moves to tag j at step t.
        message = [[e[t][j] * beta[t][j] / z for j in range(K)] for t in range(1, T)]
        observed = Counter(zip(gold, gold[1:]))
        d_trans = [[float(mpmath.fsum(alpha[t][i] * message[t][j] for t in range(T - 1)) * p[i][j] - observed[i, j])
                    for j in range(K)] for i in range(K)]
        return float(mpmath.log(z) - score), np.array(d_emis), np.array(d_trans)


def _crf_instance(rng, T, K=25, scale=1e3):
    emis = rng.choice([-scale, scale], size=(T, K)) * rng.uniform(0.5, 1.0, size=(T, K))
    params = {"crf.transitions": rng.normal(size=(K, K)), "crf.start": rng.normal(size=K), "crf.end": rng.normal(size=K)}
    return emis, params


def _crf_cases(T, scale):
    """Five seeded (emissions, CRF tensors, gold tags) instances of T tokens and 25 tags."""
    rng = np.random.default_rng(T)
    for _ in range(5):
        emis, params = _crf_instance(rng, T, scale=scale)
        yield emis, params, list(rng.integers(0, emis.shape[1], size=T))


@pytest.mark.parametrize("T", [1, 2, 40])
def test_nll_gradients_match_scipy(T):
    for emis, params, gold in _crf_cases(T, scale=1.0):
        _, _, log_z = reference_alphas_betas(emis, params)
        value, *got = C.nll_gradients(emis, params, gold)
        path = path_score(emis, params, gold)
        assert value + path == pytest.approx(float(log_z), rel=RTOL)
        assert value == pytest.approx(float(log_z) - path, rel=RTOL)
        # got[0] is d nll / d emissions = marginals - onehot(gold).
        for g, ref in zip(got, reference_nll_gradients(emis, params, gold), strict=True):
            np.testing.assert_allclose(g, ref, rtol=RTOL, atol=1e-300)


@pytest.mark.parametrize("T", [1, 2, 40])
def test_nll_gradients_match_exact_values_at_emissions_of_1e3(T):
    # Marginals here run from 1 down past 1e-300, so a log-space float64
    # recursion is off by up to 2e-11; the scaled one keeps within 2e-15.
    for emis, params, gold in _crf_cases(T, scale=1e3):
        for got, ref in zip(C.nll_gradients(emis, params, gold), exact_nll_gradients(emis, params, gold), strict=True):
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize("lengths", [[1], [1, 1, 1], [6, 6, 6], [5, 1, 12, 1, 3], [2, 9, 9, 1, 30, 4, 4, 7]])
def test_a_ragged_batch_equals_per_sentence_calls(lengths):
    rng = np.random.default_rng(len(lengths) + sum(lengths))
    emis, params = _crf_instance(rng, sum(lengths), K=7, scale=5.0)
    gold = rng.integers(0, 7, size=sum(lengths))
    value, d_emis, d_trans = C.nll_gradients(emis, params, gold, lengths)
    ends = np.cumsum(lengths)
    parts = [C.nll_gradients(emis[b - n: b], params, gold[b - n: b]) for n, b in zip(lengths, ends)]
    assert value == pytest.approx(sum(part[0] for part in parts), rel=RTOL)
    for n, b, part in zip(lengths, ends, parts):
        np.testing.assert_allclose(d_emis[b - n: b], part[1], rtol=RTOL, atol=1e-14)
    np.testing.assert_allclose(d_trans, sum(part[2] for part in parts), rtol=RTOL, atol=1e-14)


@pytest.mark.parametrize("name", ["crf.transitions", "crf.start", "crf.end"])
def test_a_crf_tensor_spanning_the_limit_is_a_numeric_error(name):
    emis, params = _crf_instance(np.random.default_rng(0), 6, K=4, scale=1.0)
    for low in (-C.MAX_SPREAD, -600.0, -1e4, -np.inf, np.nan):
        moved = {**params, name: np.zeros_like(params[name])}
        moved[name].flat[-1] = low
        with np.errstate(all="raise"), pytest.raises(NumericError, match=name):
            C.nll_gradients(emis, moved, [0] * 6, [2, 4])


def test_crf_tensors_just_inside_the_limit_give_exact_values():
    # Every CRF tensor spans just under MAX_SPREAD nats and the emissions
    # span thousands, so many products underflow; none of it may show.
    rng = np.random.default_rng(3)
    for _ in range(4):
        emis = rng.normal(scale=1e3, size=(12, 4))
        params = {n: rng.choice([0.0, 0.1 - C.MAX_SPREAD], size=shape) for n, shape in C.param_shapes(4)}
        for x in params.values():
            x.flat[0], x.flat[-1] = 0.0, 0.1 - C.MAX_SPREAD
        gold = list(rng.integers(0, 4, size=12))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = C.nll_gradients(emis, params, gold)
        for g, ref in zip(got, exact_nll_gradients(emis, params, gold), strict=True):
            np.testing.assert_allclose(g, ref, rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize("T", [1, 2, 7])
def test_first_and_last_emission_gradient_rows_are_the_start_and_end_gradients(T):
    # nll_gradients returns no start or end gradient: training reads them
    # from d_emis[0] and d_emis[-1], so check those against central differences.
    rng = np.random.default_rng(100 + T)
    emis, params = _crf_instance(rng, T, K=5, scale=1.0)
    gold = list(rng.integers(0, 5, size=T))
    _, d_emis, _ = C.nll_gradients(emis, params, gold)
    h = 1e-6
    for name, row in (("crf.start", d_emis[0]), ("crf.end", d_emis[-1])):
        numeric = np.empty(5)
        for k in range(5):
            nll = []
            for step in (h, -h):
                moved = {**params, name: params[name].copy()}
                moved[name][k] += step
                nll.append(C.nll_gradients(emis, moved, gold)[0])
            numeric[k] = (nll[0] - nll[1]) / (2 * h)
        np.testing.assert_allclose(row, numeric, rtol=1e-6, atol=1e-8, err_msg=name)


def test_nll_gradients_runs_float32_emissions_in_float64():
    # At 512 tokens a float32 forward-backward is off by up to about 1% of a
    # marginal, so the emissions are upcast before the recursions.
    rng = np.random.default_rng(512)
    K = 25
    emis = rng.normal(scale=3.0, size=(512, K)).astype(np.float32)
    params = {"crf.transitions": rng.uniform(-0.1, 0.1, (K, K)), "crf.start": rng.uniform(-0.1, 0.1, K),
              "crf.end": rng.uniform(-0.1, 0.1, K)}
    gold = list(rng.integers(0, K, size=len(emis)))
    value, *got = C.nll_gradients(emis, params, gold)
    ref_value, *ref = C.nll_gradients(emis.astype(np.float64), params, gold)
    assert value == pytest.approx(ref_value, rel=1e-10, abs=1e-10)
    for g, r in zip(got, ref, strict=True):
        assert g.dtype == np.float64
        np.testing.assert_allclose(g, r, rtol=1e-10, atol=1e-10)
