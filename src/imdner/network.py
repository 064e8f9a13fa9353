"""Emission network: Char-CNN features + word vectors -> BiLSTM -> projection.

One call runs a ragged batch: the flat tokens of B sentences and their
lengths, with emissions returned packed as (N, num_tags) for the N tokens in
sentence order. Arithmetic, the dropout mask included, runs in the dtype of
the parameters it is given: float32 in training and from a checkpoint, and
float64 when a caller passes float64 weights, as the gradient checks do.
Dropout applies only when a (rate, seed) pair is supplied, one mask for the
whole batch drawn from the seed. The forward pass caches every intermediate
the manual backward pass needs. sentence_lengths, beside pack, is the one
rule for a batch's lengths, which the CRF applies too.

The weights are the model's one name -> tensor dict: param_shapes declares
the network's tensors, and the CRF's follow them. The gradients, Adam and the
checkpoint use the same names, and the kernels read their sizes from the
tensors. A forward pass stops with a NumericError naming the first stage
whose output holds a NaN or an Inf; numpy's overflow and invalid-value
warnings are off inside it.

- Char-CNN: the convolution windows of all N tokens, packed token after
  token with no padding, are gathered with one fancy index and scored with
  one GEMM. Each token keeps the max over its own windows and then applies
  tanh, which gives the same feature as max-over-tanh because tanh is
  monotonic. The backward pass is one scatter into the char embeddings.
- BiLSTM: the sentences are packed time-major in order of decreasing length
  (Appleyard et al., arXiv:1604.01946), so the sentences still running at
  step t are a prefix of the batch, and both directions advance in the same
  step; the backward direction reads each sentence reversed. Each LSTM
  tensor holds both directions on axis 0, forward first, and its gate rows
  in [input, forget, cell, output] order, so X @ Wx.T + b and the weight and
  input gradients are each one stacked GEMM over all N tokens. Only
  h @ Wh.T, against a contiguous transposed copy of Wh, stays in the time
  loop, and the backward loop only fills the stacked gate gradients dZ.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .embeddings import CharVocab, EmbeddingTable
from .errors import ValidationError, check_field_types, check_finite

MAX_SENTENCE_LEN = 512


@dataclass(frozen=True)
class NetworkConfig:
    num_tags: int
    word_dim: int = 200
    char_embed_dim: int = 25
    char_filter_width: int = 3
    char_filter_count: int = 30
    lstm_hidden: int = 200
    dropout_rate: float = 0.5  # read by nothing in the package: training takes its rate from TrainConfig

    def __post_init__(self):
        check_field_types(self)
        for name in ("num_tags", "word_dim", "char_embed_dim", "char_filter_width", "char_filter_count", "lstm_hidden"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValidationError("dropout_rate must be in [0, 1)")
        if self.char_filter_width % 2 != 1:
            raise ValidationError("char_filter_width must be odd")

    @property
    def lstm_input_dim(self) -> int:
        return self.word_dim + self.char_filter_count


def param_shapes(config: NetworkConfig, vocab_size: int) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every network tensor, in the order of the weight dict.

    lstm.wx (2, 4H, In), lstm.wh (2, 4H, H) and lstm.b (2, 4H) stack the forward and
    backward direction on axis 0, gate order along 4H [input, forget, cell, output].
    """
    h = config.lstm_hidden
    return [
        ("char_embeddings", (vocab_size, config.char_embed_dim)),
        ("conv_filters", (config.char_filter_count, config.char_filter_width, config.char_embed_dim)),
        ("conv_bias", (config.char_filter_count,)),
        ("lstm.wx", (2, 4 * h, config.lstm_input_dim)),
        ("lstm.wh", (2, 4 * h, h)),
        ("lstm.b", (2, 4 * h)),
        ("proj_weights", (2 * h, config.num_tags)),
        ("proj_bias", (config.num_tags,)),
    ]


def init_network_params(config: NetworkConfig, vocab_size: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Seeded uniform(-0.1, 0.1) drawn in param_shapes order, forget-gate biases at 1.0."""
    params = {n: rng.uniform(-0.1, 0.1, size=s) for n, s in param_shapes(config, vocab_size)}
    params["lstm.b"].reshape(2, 4, -1)[:, 1] = 1.0  # gate 1 of 4, the forget gate
    return params


def _sigmoid_inplace(x):
    """Logistic sigmoid, in place."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    np.reciprocal(x, out=x)


def dropout_mask(shape, rate: float, seed, dtype=np.float64) -> np.ndarray:
    """Inverted dropout mask in dtype: entries are 0 or 1/(1-rate), E[mask] == 1. The uniform draws are
    float64 from np.random.default_rng(seed): a Generator advances, an int gives the same mask each time."""
    rng = np.random.default_rng(seed)
    keep = 1.0 - rate
    mask = (rng.random(shape) < keep).astype(dtype)
    mask *= 1.0 / keep
    return mask


def _char_windows(token_texts: list[str], vocab: CharVocab, width: int):
    """Char indices of every convolution window, (P, width), packed token after
    token, and each token's window count; tokens shorter than width are padded."""
    pad = [vocab.pad_index] * ((width - 1) // 2)
    codes = [idx if len(idx) >= width else pad + idx + pad for idx in map(vocab.encode, token_texts)]
    n_pos = np.fromiter((len(c) - width + 1 for c in codes), dtype=np.intp, count=len(codes))
    if not len(codes) or n_pos.min() < 1:
        raise ValidationError("char features need at least one token and no empty token")
    chars = np.fromiter(chain.from_iterable(codes), dtype=np.intp)
    # Token i's windows start (width - 1) * i chars further on than their packed row.
    starts = np.arange(n_pos.sum()) + (width - 1) * np.repeat(np.arange(len(codes)), n_pos)
    return chars[starts[:, None] + np.arange(width)], n_pos


def char_features_forward(token_texts: list[str], vocab: CharVocab, params: dict[str, np.ndarray]):
    """(N, F) features of N tokens: 1-D convolution over char embeddings, max
    over each token's windows, then tanh. conv_filters (F, width, d) sets the sizes."""
    if isinstance(token_texts, str):
        raise ValidationError("char features take a list of tokens, not a string")
    filters = params["conv_filters"]
    win_idx, n_pos = _char_windows(token_texts, vocab, filters.shape[1])
    windows = params["char_embeddings"][win_idx].reshape(len(win_idx), -1)  # (P, w*d)
    scores = windows @ filters.reshape(len(filters), -1).T + params["conv_bias"]  # (P, F)
    first = np.cumsum(n_pos) - n_pos
    best = np.maximum.reduceat(scores, first, axis=0)  # (N, F)
    # The gradient goes to the first window of the token that attains the max.
    hit = scores == np.repeat(best, n_pos, axis=0)
    argmax = np.minimum.reduceat(np.where(hit, np.arange(len(scores))[:, None], len(scores)), first, axis=0)
    feat = np.tanh(best)
    return feat, {"win_idx": win_idx, "windows": windows, "argmax": argmax, "feat": feat}


def char_features_backward(d_feat, cache, params: dict[str, np.ndarray], grads):
    """Accumulate char-CNN gradients given d loss / d features (N, F)."""
    windows, win_idx, feat, filters = cache["windows"], cache["win_idx"], cache["feat"], params["conv_filters"]
    d_scores = np.zeros((len(windows), len(filters)), dtype=windows.dtype)  # nonzero only at each max
    d_scores[cache["argmax"], np.arange(len(filters))] = d_feat * (1.0 - feat**2)
    grads["conv_filters"] += (d_scores.T @ windows).reshape(filters.shape)
    grads["conv_bias"] += d_scores.sum(axis=0)
    d_windows = d_scores @ filters.reshape(len(filters), -1)  # (P, w*d)
    np.add.at(grads["char_embeddings"], win_idx.ravel(), d_windows.reshape(win_idx.size, -1))


def sentence_lengths(lengths, n_tok: int) -> np.ndarray:
    """lengths as an intp array, [n_tok] for None: integers, each 1 or more, summing to n_tok, or ValidationError."""
    lengths = np.asarray([n_tok] if lengths is None else lengths)
    if (lengths.dtype.kind not in "iu" or lengths.ndim != 1 or not lengths.size
            or lengths.min() < 1 or lengths.sum() != n_tok):
        raise ValidationError(f"sentence lengths {lengths} must be integers, each 1 or more, summing to {n_tok} tokens")
    return lengths.astype(np.intp, copy=False)


def pack(lengths: np.ndarray):
    """Time-major packing of B sentences sorted by decreasing length.

    Packed row r is step t[r] of the k[r]-th longest sentence; the rows of
    step t are start[t]:start[t+1], and the sentences still running then are
    the first active[t] of the sorted batch. Returns the token each
    direction reads at every row (2, N), start, active, the row of every
    packed row's previous state in a state array whose first B rows hold the
    zero initial state, and packed_at (N,), the packed row of every token,
    which inverts rows[0].
    """
    by_len = np.argsort(-lengths, kind="stable")
    sorted_len = lengths[by_len]
    t, k = np.nonzero(sorted_len > np.arange(sorted_len[0])[:, None])
    first = (np.cumsum(lengths) - lengths)[by_len][k]
    rows = np.stack([first + t, first + sorted_len[k] - 1 - t])
    active = np.bincount(t)
    start = np.concatenate([[0], np.cumsum(active)])
    prev = np.concatenate([[0], len(lengths) + start[:-2]])[t] + k
    return rows, start, active, prev, np.argsort(rows[0])


def _bilstm_forward(xs: np.ndarray, lengths: np.ndarray, params: dict[str, np.ndarray]):
    """Both LSTM directions over the packed sentences xs (N, In); returns the
    hidden states (N, 2H) in sentence order, [forward, backward], and the cache.

    Gates are kept as (2, N, 4, H) in [input, forget, cell, output] order;
    hidden and cell states as (2, B + N, H), the first B rows zero.
    """
    rows, start, active, prev, _ = pack(lengths)
    n_tok, batch, hidden, dtype = len(xs), len(lengths), params["lstm.wh"].shape[2], xs.dtype
    x = xs[rows]  # (2, N, In), the token each direction reads at each packed row
    gates = np.matmul(x, params["lstm.wx"].transpose(0, 2, 1)).reshape(2, n_tok, 4, hidden)
    gates += params["lstm.b"].reshape(2, 1, 4, hidden)
    wh_t = params["lstm.wh"].transpose(0, 2, 1).copy()  # (2, H, 4H), C-contiguous
    hs = np.zeros((2, batch + n_tok, hidden), dtype=dtype)
    cs = np.zeros((2, batch + n_tok, hidden), dtype=dtype)
    tanh_cs = np.empty((2, n_tok, hidden), dtype=dtype)
    for t, n in enumerate(active):
        a, b, p = start[t], batch + start[t], prev[start[t]]
        z = gates[:, a: a + n]
        z += np.matmul(hs[:, p: p + n], wh_t).reshape(2, n, 4, hidden)
        g = np.tanh(z[:, :, 2])
        _sigmoid_inplace(z)
        z[:, :, 2] = g
        c = cs[:, b: b + n]
        np.multiply(z[:, :, 1], cs[:, p: p + n], out=c)
        c += z[:, :, 0] * g
        np.tanh(c, out=tanh_cs[:, a: a + n])
        np.multiply(z[:, :, 3], tanh_cs[:, a: a + n], out=hs[:, b: b + n])
    check_finite(hs[0], "forward LSTM")
    check_finite(hs[1], "backward LSTM")
    out = np.empty((n_tok, 2, hidden), dtype=dtype)
    out[rows, [[0], [1]]] = hs[:, batch:]  # direction d's packed row r is token rows[d, r]
    cache = {"x": x, "rows": rows, "start": start, "active": active, "prev": prev,
             "gates": gates, "hs": hs, "cs": cs, "tanh_cs": tanh_cs}
    return out.reshape(n_tok, -1), cache


def _bilstm_backward(d_out: np.ndarray, cache, params: dict[str, np.ndarray], grads, frozen: int):
    """BPTT through both directions; d_out (N, 2H) are gradients on the
    hidden states in sentence order. The time loop only carries dh/dc
    through Wh and fills the stacked gate gradients dZ; the weight and input
    gradients are then one stacked GEMM each. Returns d xs (N, In - frozen):
    the first `frozen` input columns take no gradient."""
    rows, start, active, prev = cache["rows"], cache["start"], cache["active"], cache["prev"]
    gates, tanh_cs, x, wh = cache["gates"], cache["tanh_cs"], cache["x"], params["lstm.wh"]
    n_tok, hidden = len(d_out), wh.shape[2]
    i, f, g, o = (gates[:, :, q] for q in range(4))
    # d z / d c for the i, f, g gates and d z / d h for the o gate, per row.
    coef = np.stack(
        [g * i * (1.0 - i), cache["cs"][:, prev] * f * (1.0 - f), i * (1.0 - g**2), tanh_cs * o * (1.0 - o)],
        axis=2,
    )
    dc_dh = o * (1.0 - tanh_cs**2)
    d_hs = d_out.reshape(n_tok, 2, hidden)[rows, [[0], [1]]]  # (2, N, H), packed
    d_z = np.empty((2, n_tok, 4, hidden), dtype=d_out.dtype)
    dh_next = dc_next = np.zeros((2, 0, hidden), dtype=d_out.dtype)
    for t in range(len(active) - 1, -1, -1):
        a, n, m = start[t], active[t], dh_next.shape[1]  # the first m sentences run on to step t+1
        dh = d_hs[:, a: a + n]
        dh[:, :m] += dh_next
        dc = dh * dc_dh[:, a: a + n]
        dc[:, :m] += dc_next
        dz = d_z[:, a: a + n]
        np.multiply(coef[:, a: a + n, :3], dc[:, :, None], out=dz[:, :, :3])
        np.multiply(coef[:, a: a + n, 3], dh, out=dz[:, :, 3])
        dh_next = np.matmul(dz.reshape(2, n, -1), wh)
        dc_next = dc * f[:, a: a + n]
    d_z = d_z.reshape(2, n_tok, -1)
    grads["lstm.wx"] += np.matmul(d_z.transpose(0, 2, 1), x)
    grads["lstm.wh"] += np.matmul(d_z.transpose(0, 2, 1), cache["hs"][:, prev])
    grads["lstm.b"] += d_z.sum(axis=1)
    d_x = np.matmul(d_z, params["lstm.wx"][:, :, frozen:])  # (2, N, In - frozen), packed
    d_xs = np.empty_like(d_x[0])
    d_xs[rows[0]] = d_x[0]
    d_xs[rows[1]] += d_x[1]
    return d_xs


# A sigmoid's exp may overflow to inf, which gives 0; a NaN or an Inf in any
# stage's output is caught by the check_finite that ends the stage.
@np.errstate(over="ignore", invalid="ignore")
def emissions_forward(token_texts: list[str], lengths, table: EmbeddingTable, params: dict[str, np.ndarray],
                      vocab: CharVocab, dropout=None):
    """Packed emission scores (N, num_tags) of the sentences whose lengths are
    given, their N tokens flat in token_texts, plus the backward cache.

    Dropout (inverted, scaled by 1/(1-rate)) is applied to the LSTM input
    only when dropout is a (rate, seed) pair: one (N, In) mask for the batch.
    """
    lengths = sentence_lengths(lengths, len(token_texts))
    if lengths.max() > MAX_SENTENCE_LEN:
        raise ValidationError(f"sentence of {lengths.max()} tokens exceeds the {MAX_SENTENCE_LEN}-token limit")
    word_dim = params["lstm.wx"].shape[2] - len(params["conv_bias"])
    if table.dim != word_dim:
        raise ValidationError(f"embedding dim {table.dim} does not match the network's word_dim {word_dim}")

    char_feats, char_cache = char_features_forward(token_texts, vocab, params)
    word_vecs = np.stack([table.lookup(t) for t in token_texts])
    xs = np.concatenate([word_vecs, char_feats], axis=1, dtype=params["lstm.wx"].dtype)
    check_finite(xs, "word vectors and char features")
    mask = None
    if dropout is not None and dropout[0] > 0.0:
        mask = dropout_mask(xs.shape, *dropout, xs.dtype)
        xs *= mask

    hidden, lstm_cache = _bilstm_forward(xs, lengths, params)
    emis = hidden @ params["proj_weights"] + params["proj_bias"]
    check_finite(emis, "projection")
    return emis, {"char_cache": char_cache, "mask": mask, "lstm_cache": lstm_cache, "hidden": hidden}


def emissions_backward(d_emis: np.ndarray, cache, params: dict[str, np.ndarray], grads):
    """Accumulate network gradients given d loss / d emissions (N, num_tags)."""
    grads["proj_weights"] += cache["hidden"].T @ d_emis
    grads["proj_bias"] += d_emis.sum(axis=0)
    # Word vectors are frozen; only the char features, the last F input columns, take a gradient.
    word_dim = params["lstm.wx"].shape[2] - len(params["conv_bias"])
    d_chars = _bilstm_backward(d_emis @ params["proj_weights"].T, cache["lstm_cache"], params, grads, frozen=word_dim)
    if cache["mask"] is not None:
        d_chars *= cache["mask"][:, word_dim:]
    char_features_backward(d_chars, cache["char_cache"], params, grads)
