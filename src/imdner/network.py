"""Emission network: Char-CNN features + word vectors -> BiLSTM -> projection.

Forward passes are deterministic (dropout only when a seed is supplied) and
cache every intermediate needed for the manual backward pass in training.
All math is float64; parameters live in plain numpy arrays.

Each LSTM direction does its heavy work in a few large GEMMs, with only the
recurrent matrix-vector product left inside the time loop (input hoisting
as in Appleyard et al., arXiv:1604.01946):

- forward: the input projection X @ Wx.T + b of all T steps is one GEMM;
  gates, hidden and cell states are cached as (T, .) arrays;
- backward: the loop fills the stacked gate gradients dZ (T, 4H); then
  dWx += dZ.T @ X, dWh += dZ.T @ H_prev, db += sum(dZ) and dX = dZ @ Wx.

The char-CNN gathers every convolution window with one fancy index and
scatters its embedding gradients back with one np.add.at.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    dropout_rate: float = 0.5

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


@dataclass
class LstmBlock:
    """One direction's weights; gate order along axis 0 is [input, forget, cell, output]."""

    wx: np.ndarray  # (4H, In)
    wh: np.ndarray  # (4H, H)
    b: np.ndarray  # (4H,)


@dataclass
class NetworkParams:
    char_embeddings: np.ndarray  # (|CharVocab|, char_embed_dim)
    conv_filters: np.ndarray  # (filter_count, filter_width, char_embed_dim)
    conv_bias: np.ndarray  # (filter_count,)
    lstm_fw: LstmBlock
    lstm_bw: LstmBlock
    proj_weights: np.ndarray  # (2H, num_tags)
    proj_bias: np.ndarray  # (num_tags,)

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        return [
            ("char_embeddings", self.char_embeddings),
            ("conv_filters", self.conv_filters),
            ("conv_bias", self.conv_bias),
            ("lstm_fw.wx", self.lstm_fw.wx),
            ("lstm_fw.wh", self.lstm_fw.wh),
            ("lstm_fw.b", self.lstm_fw.b),
            ("lstm_bw.wx", self.lstm_bw.wx),
            ("lstm_bw.wh", self.lstm_bw.wh),
            ("lstm_bw.b", self.lstm_bw.b),
            ("proj_weights", self.proj_weights),
            ("proj_bias", self.proj_bias),
        ]

    @classmethod
    def from_items(cls, items) -> NetworkParams:
        """Inverse of param_items: the (name, tensor) pairs in its order."""
        ce, cf, cb, fw_x, fw_h, fw_b, bw_x, bw_h, bw_b, pw, pb = (arr for _, arr in items)
        return cls(ce, cf, cb, LstmBlock(fw_x, fw_h, fw_b), LstmBlock(bw_x, bw_h, bw_b), pw, pb)


def param_shapes(config: NetworkConfig, vocab_size: int) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every network tensor, in param_items order; init and load_checkpoint read it."""
    h, d_in = config.lstm_hidden, config.lstm_input_dim
    lstm = [("wx", (4 * h, d_in)), ("wh", (4 * h, h)), ("b", (4 * h,))]
    return [
        ("char_embeddings", (vocab_size, config.char_embed_dim)),
        ("conv_filters", (config.char_filter_count, config.char_filter_width, config.char_embed_dim)),
        ("conv_bias", (config.char_filter_count,)),
        *((f"{direction}.{name}", shape) for direction in ("lstm_fw", "lstm_bw") for name, shape in lstm),
        ("proj_weights", (2 * h, config.num_tags)),
        ("proj_bias", (config.num_tags,)),
    ]


def init_network_params(config: NetworkConfig, vocab_size: int, rng: np.random.Generator) -> NetworkParams:
    """Seeded uniform(-0.1, 0.1) drawn in param_shapes order, forget-gate biases at 1.0."""
    params = NetworkParams.from_items((n, rng.uniform(-0.1, 0.1, size=s)) for n, s in param_shapes(config, vocab_size))
    h = config.lstm_hidden
    params.lstm_fw.b[h: 2 * h] = 1.0
    params.lstm_bw.b[h: 2 * h] = 1.0
    return params


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def dropout_mask(shape, rate: float, seed) -> np.ndarray:
    """Inverted dropout mask: entries are 0 or 1/(1-rate), E[mask] == 1."""
    rng = np.random.default_rng(seed)
    keep = 1.0 - rate
    return (rng.random(shape) < keep).astype(float) / keep


def _char_windows(text: str, vocab: CharVocab, width: int) -> np.ndarray:
    """(P, width) char indices of every convolution window, short tokens padded."""
    idx = vocab.encode(text)
    if len(idx) < width:
        pad = (width - 1) // 2
        idx = [vocab.pad_index] * pad + idx + [vocab.pad_index] * pad
    n_pos = len(idx) - width + 1
    return np.asarray(idx)[np.arange(n_pos)[:, None] + np.arange(width)]


def char_features_forward(text: str, vocab: CharVocab, params: NetworkParams, config: NetworkConfig):
    """1-D convolution over char embeddings, tanh, max-over-time pooling."""
    f_count = config.char_filter_count
    win_idx = _char_windows(text, vocab, config.char_filter_width)
    windows = params.char_embeddings[win_idx].reshape(len(win_idx), -1)  # (P, w*d)
    filters_flat = params.conv_filters.reshape(f_count, -1)  # (F, w*d)
    scores = windows @ filters_flat.T + params.conv_bias  # (P, F)
    activ = np.tanh(scores)
    argmax = activ.argmax(axis=0)
    feat = activ[argmax, np.arange(f_count)]
    cache = {"win_idx": win_idx, "windows": windows, "activ": activ, "argmax": argmax}
    return feat, cache


def char_features_backward(d_feat, cache, params: NetworkParams, config: NetworkConfig, grads):
    f_count, d = config.char_filter_count, config.char_embed_dim
    activ, argmax, windows, win_idx = cache["activ"], cache["argmax"], cache["windows"], cache["win_idx"]
    d_activ = np.zeros_like(activ)
    d_activ[argmax, np.arange(f_count)] = d_feat
    d_scores = d_activ * (1.0 - activ**2)  # (P, F)
    filters_flat = params.conv_filters.reshape(f_count, -1)
    grads["conv_filters"] += (d_scores.T @ windows).reshape(params.conv_filters.shape)
    grads["conv_bias"] += d_scores.sum(axis=0)
    d_windows = d_scores @ filters_flat  # (P, w*d)
    np.add.at(grads["char_embeddings"], win_idx.ravel(), d_windows.reshape(-1, d))


def _lstm_forward(xs: np.ndarray, blk: LstmBlock, hidden: int):
    """Unidirectional pass over xs (T, In); returns hidden states (T, H) and the cache.

    The input projection of all T steps is one GEMM; the recurrence adds
    only Wh @ h per step. Activated gates are stored as (T, 4, H) in
    [input, forget, cell, output] order.
    """
    T = xs.shape[0]
    zx = (xs @ blk.wx.T + blk.b).reshape(T, 4, hidden)
    gates = np.empty((T, 4, hidden))
    hs = np.zeros((T + 1, hidden))  # hs[t] is the state before step t
    cs = np.zeros((T + 1, hidden))
    tanh_cs = np.empty((T, hidden))
    for t in range(T):
        z = zx[t] + (blk.wh @ hs[t]).reshape(4, hidden)
        gt = gates[t]
        gt[...] = _sigmoid(z)
        gt[2] = np.tanh(z[2])
        cs[t + 1] = gt[1] * cs[t] + gt[0] * gt[2]
        tanh_cs[t] = np.tanh(cs[t + 1])
        hs[t + 1] = gt[3] * tanh_cs[t]
    cache = {"xs": xs, "hs": hs, "cs": cs, "gates": gates, "tanh_cs": tanh_cs}
    return hs[1:], cache


def _lstm_backward(d_hs: np.ndarray, cache, blk: LstmBlock, hidden: int, prefix: str, grads):
    """BPTT; d_hs (T, H) are gradients on the per-step hidden states.

    The time loop only carries dh/dc through Wh and fills the stacked gate
    gradients dZ (T, 4H); the weight and input gradients are then three
    GEMMs over all steps. Returns gradients on the inputs xs (T, In).
    """
    T = d_hs.shape[0]
    gates, tanh_cs = cache["gates"], cache["tanh_cs"]
    i, f, g, o = gates[:, 0], gates[:, 1], gates[:, 2], gates[:, 3]
    # d z / d c for the i, f, g gates and d z / d h for the o gate, per step.
    coef = np.stack(
        [g * i * (1.0 - i), cache["cs"][:-1] * f * (1.0 - f), i * (1.0 - g**2), tanh_cs * o * (1.0 - o)],
        axis=1,
    )
    dc_dh = o * (1.0 - tanh_cs**2)
    d_z = np.empty((T, 4, hidden))
    dh_next = np.zeros(hidden)
    dc_next = np.zeros(hidden)
    for t in range(T - 1, -1, -1):
        dh = d_hs[t] + dh_next
        dc = dh * dc_dh[t] + dc_next
        d_z[t, :3] = coef[t, :3] * dc
        d_z[t, 3] = coef[t, 3] * dh
        dh_next = blk.wh.T @ d_z[t].reshape(-1)
        dc_next = dc * f[t]
    d_z = d_z.reshape(T, -1)
    grads[f"{prefix}.wx"] += d_z.T @ cache["xs"]
    grads[f"{prefix}.wh"] += d_z.T @ cache["hs"][:-1]
    grads[f"{prefix}.b"] += d_z.sum(axis=0)
    return d_z @ blk.wx


def emissions_forward(
    token_texts: list[str],
    table: EmbeddingTable,
    params: NetworkParams,
    config: NetworkConfig,
    vocab: CharVocab,
    dropout_seed=None,
):
    """Per-token emission scores (T, num_tags) plus the backward cache.

    Dropout (inverted, scaled by 1/(1-rate)) is applied to the LSTM input
    only when a dropout_seed is given.
    """
    T = len(token_texts)
    if T < 1:
        raise ValidationError("emissions require at least one token")
    if T > MAX_SENTENCE_LEN:
        raise ValidationError(f"sentence of {T} tokens exceeds the {MAX_SENTENCE_LEN}-token limit")
    if table.dim != config.word_dim:
        raise ValidationError(f"embedding dim {table.dim} does not match configured word_dim {config.word_dim}")

    word_vecs = np.stack([table.lookup(t) for t in token_texts])
    char_caches = []
    char_feats = np.zeros((T, config.char_filter_count))
    for t, text in enumerate(token_texts):
        char_feats[t], cc = char_features_forward(text, vocab, params, config)
        char_caches.append(cc)
    check_finite(char_feats, "char features")

    xs = np.concatenate([word_vecs, char_feats], axis=1)
    mask = None
    if dropout_seed is not None and config.dropout_rate > 0.0:
        mask = dropout_mask(xs.shape, config.dropout_rate, dropout_seed)
        xs = xs * mask

    h = config.lstm_hidden
    hs_fw, cache_fw = _lstm_forward(xs, params.lstm_fw, h)
    hs_bw_rev, cache_bw = _lstm_forward(xs[::-1], params.lstm_bw, h)
    hs_bw = hs_bw_rev[::-1]
    check_finite(hs_fw, "forward LSTM")
    check_finite(hs_bw, "backward LSTM")

    hidden = np.concatenate([hs_fw, hs_bw], axis=1)  # (T, 2H)
    emis = hidden @ params.proj_weights + params.proj_bias
    check_finite(emis, "projection")

    cache = {
        "char_caches": char_caches,
        "mask": mask,
        "cache_fw": cache_fw,
        "cache_bw": cache_bw,
        "hidden": hidden,
    }
    return emis, cache


def emissions(sentence, table, params, config, vocab, dropout_seed=None) -> np.ndarray:
    """Emission matrix for a Sentence or a list of token strings."""
    texts = sentence if isinstance(sentence, list) else sentence.texts
    emis, _ = emissions_forward(texts, table, params, config, vocab, dropout_seed)
    return emis


def emissions_backward(d_emis: np.ndarray, cache, params: NetworkParams, config: NetworkConfig, grads):
    """Accumulate network gradients given d loss / d emissions."""
    hidden = cache["hidden"]
    grads["proj_weights"] += hidden.T @ d_emis
    grads["proj_bias"] += d_emis.sum(axis=0)
    d_hidden = d_emis @ params.proj_weights.T  # (T, 2H)

    h = config.lstm_hidden
    d_xs_fw = _lstm_backward(d_hidden[:, :h], cache["cache_fw"], params.lstm_fw, h, "lstm_fw", grads)
    d_xs_bw_rev = _lstm_backward(d_hidden[::-1, h:], cache["cache_bw"], params.lstm_bw, h, "lstm_bw", grads)
    d_xs = d_xs_fw + d_xs_bw_rev[::-1]

    if cache["mask"] is not None:
        d_xs = d_xs * cache["mask"]

    d_char = d_xs[:, config.word_dim:]  # word vectors are frozen
    for t, cc in enumerate(cache["char_caches"]):
        char_features_backward(d_char[t], cc, params, config, grads)
