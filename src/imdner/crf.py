"""Linear-chain CRF: NLL and its gradients from one forward-backward, Viterbi, BIO mask.

Its tensors live in the model's one weight dict under the names param_shapes
declares: crf.transitions[i, j] scores tag i -> tag j, crf.start and crf.end
the first and last tag.

nll_gradients and viterbi each walk a batch of sentences packed time-major by
network.pack, as the BiLSTM does: a step is one (n, K) @ (K, K) product in
the forward-backward, and one (n, K, 1) + (K, K) max and argmax in Viterbi,
for the n sentences still running. The forward-backward works in
probabilities, not logs: every factor is exp(score - max), and alpha is
divided by its row sum c at every step and beta by the same c (Rabiner,
1989, as CRFsuite does). It runs in float64, upcasting its emissions and the
float32 CRF tensors on entry, because in float32 a long sentence's marginals
drift (about 1% of a marginal at 512 tokens). Viterbi runs in the dtype of
its inputs, float32 when decoding from a checkpoint. Its ties are broken
toward the lowest tag index at every backtracking step, so decoding is
deterministic and directly comparable with exhaustive enumeration. Both
check a batch's lengths with network.sentence_lengths, the network's rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import LabelSet
from .errors import NumericError, ValidationError, check_finite
from .network import pack, sentence_lengths

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


# A CRF tensor must span less than MAX_SPREAD nats (max - min). Each scaled
# step's row sum c is then at least exp(-MAX_SPREAD) / K, so a product that
# underflows below float64's smallest normal, about exp(-708), weighs at most
# K**3 * exp(2 * MAX_SPREAD - 708) of what the next step keeps: about 1e-43 at
# K = 25. At 400 nats a lost product can outweigh everything kept.
MAX_SPREAD = 300.0


def _factor(x: np.ndarray, name: str):
    """(exp(x - max x), max x) of one float64 CRF tensor x."""
    top = x.max()
    spread = top - x.min()
    if not spread < MAX_SPREAD:  # NaN too
        raise NumericError(f"{name} spans {spread:.4g} nats; the CRF forward-backward holds less than {MAX_SPREAD:g}")
    return np.exp(x - top), top


def nll_gradients(emissions: np.ndarray, params: dict[str, np.ndarray], gold_tags, lengths=None):
    """(nll, d/d emissions, d/d transitions) of B sentences, every result float64.

    emissions (N, K) and gold_tags (N,) hold the sentences back to back, with
    the given lengths, integers each 1 or more and summing to N, else ValidationError;
    lengths=None means one sentence. Summed over them:
    nll = log Z - gold path score, log Z summing exp(score) over all paths
    d/d emissions = marginals - onehot(gold), (N, K) in sentence order
    d/d transitions = expected pairwise counts - observed counts
    d/d start and d/d end are each sentence's first and last rows of d/d emissions.

    The emissions and the CRF tensors are upcast to float64 on entry. A CRF
    tensor that spans MAX_SPREAD nats or more raises NumericError.
    """
    emissions = np.asarray(emissions, dtype=np.float64)
    n_tok = len(emissions)
    lengths = sentence_lengths(lengths, n_tok)
    gold = np.asarray(gold_tags)
    crf = {n: np.asarray(params[n], dtype=np.float64) for n in ("crf.transitions", "crf.start", "crf.end")}
    (trans, m_trans), (start, m_start), (end, m_end) = (_factor(x, n) for n, x in crf.items())
    rows, step_start, active, prev, packed_at = pack(lengths)
    batch = len(lengths)
    top = emissions.max(axis=1, keepdims=True)
    e = np.exp(emissions - top)[rows[0]]  # packed time-major

    # Forward: alpha at step t is divided by its row sum c at step t.
    alpha = np.empty_like(e)
    c = np.empty(n_tok)
    alpha[:batch] = start * e[:batch]
    for t, (a, n) in enumerate(zip(step_start, active)):
        if t:
            p = step_start[t - 1]
            np.matmul(alpha[p: p + n], trans, out=alpha[a: a + n])
            alpha[a: a + n] *= e[a: a + n]
        c[a: a + n] = alpha[a: a + n].sum(axis=1)
        alpha[a: a + n] /= c[a: a + n, None]
    ends = np.cumsum(lengths)
    last = packed_at[ends - 1]
    z_end = alpha[last] @ end

    # Backward, divided by the same c, so that alpha * beta are the marginals.
    beta = np.empty_like(e)
    beta[last] = end / z_end[:, None]
    w = e / c[:, None]  # becomes e * beta / c, the message each row passes back
    for t in range(len(active) - 1, 0, -1):
        a, n, p = step_start[t], active[t], step_start[t - 1]
        w[a: a + n] *= beta[a: a + n]
        np.matmul(w[a: a + n], trans.T, out=beta[p: p + n])
    log_z = np.log(c).sum() + np.log(z_end).sum() + top.sum() + (n_tok - batch) * m_trans + batch * (m_start + m_end)

    has_next = np.ones(n_tok, dtype=bool)
    has_next[ends - 1] = False
    i = np.flatnonzero(has_next)  # every token but the last of its sentence
    gold_score = (emissions[np.arange(n_tok), gold].sum() + crf["crf.transitions"][gold[i], gold[i + 1]].sum()
                  + crf["crf.start"][gold[ends - lengths]].sum() + crf["crf.end"][gold[ends - 1]].sum())
    d_emis = (alpha * beta)[packed_at]  # the marginals
    d_emis[np.arange(n_tok), gold] -= 1.0
    # Expected pairwise counts: the alpha before each row of steps 1.. against its message, one GEMM.
    d_trans = trans * (alpha[prev[batch:] - batch].T @ w[batch:])
    np.add.at(d_trans, (gold[i], gold[i + 1]), -1.0)
    return float(log_z - gold_score), d_emis, d_trans


@np.errstate(over="ignore", invalid="ignore")  # the path scores are checked
def viterbi(emissions: np.ndarray, params: dict[str, np.ndarray], lengths=None) -> PathScore:
    """Maximum-score tag sequences of B sentences; ties resolved toward the lowest index.

    emissions (N, K) and lengths are as nll_gradients takes them. The best tagging of independent sentences is
    their concatenation: tags in sentence order, and score the float64 sum of the sentences' best scores.
    """
    check_finite(emissions, "emissions")
    lengths = sentence_lengths(lengths, len(emissions))
    rows, step_start, active, _, packed_at = pack(lengths)
    trans, start, end = (params[n] for n in ("crf.transitions", "crf.start", "crf.end"))
    # v, packed time-major: the best score of a path that ends at each row's tag, the row's emission included.
    v = emissions[rows[0]].astype(np.result_type(emissions, trans, start, end))
    back = np.empty(v.shape, dtype=np.intp)
    v[:len(lengths)] += start
    for t in range(1, len(active)):
        a, n, p = step_start[t], active[t], step_start[t - 1]
        scores = v[p: p + n, :, None] + trans  # (n, prev, cur)
        back[a: a + n] = np.argmax(scores, axis=1)  # first max = lowest index
        v[a: a + n] += scores.max(axis=1)
    last = packed_at[np.cumsum(lengths) - 1]
    final = v[last] + end
    best = final.max(axis=1)
    # An overflow to +inf meets a -inf mask as NaN, which argmax would pick.
    check_finite(best, "Viterbi path score")
    y = np.empty_like(packed_at)
    y[last] = np.argmax(final, axis=1)
    for t in range(len(active) - 1, 0, -1):
        a, n, p = step_start[t], active[t], step_start[t - 1]
        y[p: p + n] = back[a: a + n][np.arange(n), y[a: a + n]]
    return PathScore(tuple(y[packed_at].tolist()), float(best.sum(dtype=np.float64)))


def masked(params: dict[str, np.ndarray], labels: LabelSet) -> dict[str, np.ndarray]:
    """The CRF tensors of params with the hard BIO mask applied, for decoding only.

    Invalid moves (O -> I-X, B-X -> I-Y, I-X -> I-Y, start -> I-X) score -inf,
    so Viterbi output is BIO-valid whatever the emissions; other moves keep
    their weights. Not fit for gradients. A float32 CRF decodes in float32.
    """
    label = np.array([t[2:] for t in labels.tags])  # "" for O
    inside = np.array([t.startswith("I-") for t in labels.tags])
    # I-X may follow only B-X or I-X, the tags that share its label.
    forbidden = inside & (label[:, None] != label)
    return {"crf.transitions": np.where(forbidden, MASK_SCORE, params["crf.transitions"]),
            "crf.start": np.where(inside, MASK_SCORE, params["crf.start"]),
            "crf.end": params["crf.end"].copy()}
