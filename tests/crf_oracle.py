"""Exhaustive-enumeration oracle for the linear-chain CRF in imdner.crf, the
score of one tag path, and the log Z and marginals that
imdner.crf.nll_gradients implies."""

import itertools

import numpy as np
from scipy.special import logsumexp

from imdner.crf import PathScore, nll_gradients
from imdner.errors import ValidationError


def path_score(emissions: np.ndarray, params: dict[str, np.ndarray], tags) -> float:
    """Unnormalized log-score of one tag sequence."""
    tags = np.asarray(list(tags), dtype=int)
    s = params["crf.start"][tags[0]] + params["crf.end"][tags[-1]]
    s += emissions[np.arange(len(tags)), tags].sum()
    s += params["crf.transitions"][tags[:-1], tags[1:]].sum()
    return float(s)


def brute_force_oracle(emissions: np.ndarray, crf: dict[str, np.ndarray]):
    """Exhaustive enumeration over all num_tags**T paths.

    Returns (log Z, PathScore, marginals) under the same tie rule as
    viterbi: among max-score paths, the one minimal in reversed-sequence
    lexicographic order (which is what lowest-index backtracking yields).
    """
    T, K = emissions.shape
    n_paths = K**T
    if n_paths > 10**6:
        raise ValidationError(f"instance too large for brute force: {K}^{T} paths")

    paths = np.array(list(itertools.product(range(K), repeat=T)), dtype=int)
    scores = crf["crf.start"][paths[:, 0]] + crf["crf.end"][paths[:, -1]]
    for t in range(T):
        scores = scores + emissions[t, paths[:, t]]
    for t in range(1, T):
        scores = scores + crf["crf.transitions"][paths[:, t - 1], paths[:, t]]

    log_z = float(logsumexp(scores))

    best_i = 0
    for i in range(1, n_paths):
        if scores[i] > scores[best_i]:
            best_i = i
        elif scores[i] == scores[best_i]:
            if tuple(paths[i][::-1]) < tuple(paths[best_i][::-1]):
                best_i = i
    best = PathScore(tuple(int(y) for y in paths[best_i]), float(scores[best_i]))

    weights = np.exp(scores - log_z)
    marg = np.zeros((T, K))
    for t in range(T):
        np.add.at(marg[t], paths[:, t], weights)
    return log_z, best, marg


def log_z_and_marginals(emissions: np.ndarray, crf: dict[str, np.ndarray]):
    """(log Z, marginals) recovered from nll_gradients on the all-zero gold path.

    nll = log Z - path score and d nll / d emissions = marginals - onehot(gold),
    whatever the gold path.
    """
    gold = np.zeros(emissions.shape[0], dtype=int)
    value, d_emis, *_ = nll_gradients(emissions, crf, gold)
    d_emis[:, 0] += 1.0
    return value + path_score(emissions, crf, gold), d_emis
