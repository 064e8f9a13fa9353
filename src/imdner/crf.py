"""Linear-chain CRF: NLL and its gradients from one forward-backward, Viterbi, BIO mask.

Its tensors live in the model's one weight dict under the names param_shapes
declares: crf.transitions[i, j] scores tag i -> tag j, crf.start and crf.end
the first and last tag.

The forward-backward is log-space float64: nll_gradients upcasts its
emissions and the float32 CRF tensors on entry, because in float32 a long
sentence's marginals drift (about 1% of a marginal at 512 tokens). Viterbi
runs in the dtype of its inputs, float32 when decoding from a checkpoint. Ties in Viterbi are broken
toward the lowest tag index at every backtracking step, so decoding is
deterministic and directly comparable with exhaustive enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import LabelSet
from .errors import check_finite

# Score of a move the BIO scheme forbids: no emission can beat it.
MASK_SCORE = -np.inf


def param_shapes(num_tags: int) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of the CRF tensors, in weight-dict order."""
    return [("crf.transitions", (num_tags, num_tags)), ("crf.start", (num_tags,)), ("crf.end", (num_tags,))]


def init_params(num_tags: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Seeded uniform(-0.1, 0.1) drawn in param_shapes order."""
    return {n: rng.uniform(-0.1, 0.1, size=s) for n, s in param_shapes(num_tags)}


@dataclass(frozen=True)
class PathScore:
    tags: tuple[int, ...]
    score: float


def path_score(emissions: np.ndarray, params: dict[str, np.ndarray], tags) -> float:
    """Unnormalized log-score of one tag sequence."""
    tags = np.asarray(list(tags), dtype=int)
    s = params["crf.start"][tags[0]] + params["crf.end"][tags[-1]]
    s += emissions[np.arange(len(tags)), tags].sum()
    s += params["crf.transitions"][tags[:-1], tags[1:]].sum()
    return float(s)


def _logsumexp(a, axis=None):
    """log(sum(exp(a))) along axis, shifted by the max for stability."""
    m = a.max(axis=axis, keepdims=True)
    return np.log(np.exp(a - m).sum(axis=axis)) + m.squeeze(axis)


def nll_gradients(emissions: np.ndarray, params: dict[str, np.ndarray], gold_tags):
    """(nll, d/d emissions, d/d transitions), every result float64.

    nll = log Z - gold path score, log Z summing exp(score) over all paths
    d/d emissions = marginals - onehot(gold)
    d/d transitions = expected pairwise counts - observed counts
    d/d start and d/d end are the first and last rows of d/d emissions.

    The emissions and the CRF tensors are upcast to float64 on entry.
    """
    emissions = np.asarray(emissions, dtype=np.float64)
    crf = {n: np.asarray(params[n], dtype=np.float64) for n in ("crf.transitions", "crf.start", "crf.end")}
    trans, start, end = crf.values()
    T = emissions.shape[0]
    gold = np.asarray(gold_tags)
    alpha = np.empty_like(emissions)
    alpha[0] = start + emissions[0]
    for t in range(1, T):
        alpha[t] = emissions[t] + _logsumexp(alpha[t - 1][:, None] + trans, axis=0)
    beta = np.empty_like(emissions)
    beta[T - 1] = end
    for t in range(T - 2, -1, -1):
        beta[t] = _logsumexp(trans + (emissions[t + 1] + beta[t + 1])[None, :], axis=1)
    log_z = _logsumexp(alpha[-1] + end)
    value = float(log_z) - path_score(emissions, crf, gold)

    d_emis = np.exp(alpha + beta - log_z)  # the marginals
    d_emis[np.arange(T), gold] -= 1.0

    # Expected pairwise counts of all T-1 transitions at once: (T-1, K, K).
    pair = np.exp(
        alpha[:-1, :, None]
        + trans
        + (emissions[1:] + beta[1:])[:, None, :]
        - log_z
    )
    d_trans = pair.sum(axis=0)
    np.add.at(d_trans, (gold[:-1], gold[1:]), -1.0)
    return value, d_emis, d_trans


@np.errstate(over="ignore", invalid="ignore")  # the path score is checked
def viterbi(emissions: np.ndarray, params: dict[str, np.ndarray]) -> PathScore:
    """Maximum-score tag sequence; ties resolved toward the lowest index."""
    check_finite(emissions, "emissions")
    T, K = emissions.shape
    trans = params["crf.transitions"]
    v = params["crf.start"] + emissions[0]
    backptr = np.zeros((T, K), dtype=int)
    for t in range(1, T):
        scores = v[:, None] + trans  # (prev, cur)
        backptr[t] = np.argmax(scores, axis=0)  # first max = lowest index
        v = emissions[t] + scores[backptr[t], np.arange(K)]
    v = v + params["crf.end"]
    last = int(np.argmax(v))
    best_score = float(v[last])
    # An overflow to +inf meets a -inf mask as NaN, which argmax would pick.
    check_finite(best_score, "Viterbi path score")
    tags = [last]
    for t in range(T - 1, 0, -1):
        tags.append(int(backptr[t, tags[-1]]))
    return PathScore(tuple(reversed(tags)), best_score)


def bio_transition_mask(labels: LabelSet) -> np.ndarray:
    """(num_tags+1, num_tags) additive mask; row num_tags masks start scores.

    Invalid moves (O -> I-X, B-X -> I-Y, I-X -> I-Y, start -> I-X) get
    MASK_SCORE; everything else 0.
    """
    label = np.array([t[2:] for t in labels.tags])  # "" for O
    inside = np.array([t.startswith("I-") for t in labels.tags])
    # I-X may follow only B-X or I-X, the tags that share its label.
    forbidden = inside & (label[:, None] != label)
    return np.where(np.vstack([forbidden, inside]), MASK_SCORE, 0.0)


@np.errstate(invalid="ignore")  # inf + MASK_SCORE is NaN, which viterbi rejects
def masked(params: dict[str, np.ndarray], labels: LabelSet) -> dict[str, np.ndarray]:
    """The CRF tensors of params with the hard BIO mask applied, for decoding only.

    Invalid moves score -inf, so Viterbi output is BIO-valid whatever the
    emissions; the result is not fit for gradients. It keeps the dtype of
    the CRF tensors, so a float32 CRF decodes in float32.
    """
    trans = params["crf.transitions"]
    mask = bio_transition_mask(labels).astype(trans.dtype, copy=False)
    return {"crf.transitions": trans + mask[:-1], "crf.start": params["crf.start"] + mask[-1],
            "crf.end": params["crf.end"].copy()}
