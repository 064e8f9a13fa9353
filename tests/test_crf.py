import numpy as np
import pytest

from imdner import crf as C
from imdner.corpus import LabelSet, validate_bio
from imdner.errors import NumericError, ValidationError

from crf_oracle import brute_force_oracle, log_z_and_marginals, path_score


def random_instance(rng, T=None, K=3):
    T = T if T is not None else int(rng.integers(1, 6))
    emis = rng.normal(size=(T, K))
    params = {
        "crf.transitions": rng.normal(size=(K, K)),
        "crf.start": rng.normal(size=K),
        "crf.end": rng.normal(size=K),
    }
    return emis, params


def zero_params(K):
    return {"crf.transitions": np.zeros((K, K)), "crf.start": np.zeros(K), "crf.end": np.zeros(K)}


def zeros_instance(T, K):
    return np.zeros((T, K)), zero_params(K)


def _log_z(emis, params):
    return log_z_and_marginals(emis, params)[0]


def _nll(emis, params, gold):
    return C.nll_gradients(emis, params, gold)[0]


def _marginals(emis, params):
    return log_z_and_marginals(emis, params)[1]


class TestLogPartition:
    def test_uniform_t1(self):
        emis, params = zeros_instance(1, 2)
        assert _log_z(emis, params) == pytest.approx(np.log(2), abs=1e-12)

    def test_uniform_t2(self):
        emis, params = zeros_instance(2, 2)
        assert _log_z(emis, params) == pytest.approx(np.log(4), abs=1e-12)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            emis, params = random_instance(rng, T=3, K=3)
            oracle_lz, _, _ = brute_force_oracle(emis, params)
            assert _log_z(emis, params) == pytest.approx(oracle_lz, abs=1e-9)


class TestNll:
    def test_single_tag_degenerate(self):
        emis, params = zeros_instance(3, 1)
        assert _nll(emis, params, [0, 0, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_equals_log4(self):
        emis, params = zeros_instance(2, 2)
        for gold in ([0, 0], [0, 1], [1, 0], [1, 1]):
            assert _nll(emis, params, gold) == pytest.approx(np.log(4), abs=1e-12)

    def test_matches_brute_force_softmax(self):
        rng = np.random.default_rng(5)
        emis, params = random_instance(rng, T=3, K=3)
        gold = [1, 0, 2]
        lz, _, _ = brute_force_oracle(emis, params)
        expected = lz - path_score(emis, params, gold)
        assert _nll(emis, params, gold) == pytest.approx(expected, abs=1e-9)

    def test_always_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            emis, params = random_instance(rng)
            gold = rng.integers(0, 3, size=emis.shape[0])
            v = _nll(emis, params, list(gold))
            assert v >= 0.0
            assert 0.0 < np.exp(-v) <= 1.0


class TestViterbi:
    def test_t1_argmax(self):
        emis = np.array([[1.0, 3.0, 2.0]])
        params = zero_params(3)
        best = C.viterbi(emis, params)
        assert best.tags == (1,)
        assert best.score == pytest.approx(3.0)

    def test_tie_breaks_to_lowest_index(self):
        emis, params = zeros_instance(2, 2)
        assert C.viterbi(emis, params).tags == (0, 0)

    def test_matches_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            emis, params = random_instance(rng, T=4, K=3)
            v = C.viterbi(emis, params)
            _, best, _ = brute_force_oracle(emis, params)
            assert v.tags == best.tags
            assert v.score == pytest.approx(best.score, abs=1e-9)

    def test_beats_random_paths(self):
        rng = np.random.default_rng(8)
        emis, params = random_instance(rng, T=6, K=4)
        v = C.viterbi(emis, params)
        for _ in range(100):
            path = list(rng.integers(0, 4, size=6))
            assert v.score >= path_score(emis, params, path) - 1e-12

    def test_rejects_non_finite(self):
        emis, params = zeros_instance(2, 2)
        emis[0, 0] = np.nan
        with pytest.raises(NumericError):
            C.viterbi(emis, params)

    def test_a_ragged_batch_decodes_as_its_sentences_do(self):
        # Integer-valued scores tie often, and their sums are exact in either dtype.
        labels = LabelSet(("Symptom", "Treatment"))
        rng = np.random.default_rng(13)
        K = labels.num_tags
        for dtype in (np.float32, np.float64):
            for draw in (lambda size: rng.integers(-2, 3, size=size), rng.normal):
                for _ in range(50):
                    lengths = rng.integers(1, 40, size=rng.integers(1, 9))
                    emis = draw(size=(lengths.sum(), K)).astype(dtype)
                    params = {n: draw(size=s).astype(dtype) for n, s in C.param_shapes(K)}
                    for decode in (params, C.masked(params, labels)):
                        best = C.viterbi(emis, decode, lengths)
                        each = [C.viterbi(rows, decode) for rows in np.split(emis, np.cumsum(lengths)[:-1])]
                        assert best.tags == sum((b.tags for b in each), ())
                        assert best.score == pytest.approx(sum(b.score for b in each), rel=1e-12)

    def test_one_overflowing_sentence_in_a_finite_batch_is_a_numeric_error(self):
        labels = LabelSet(("Symptom",))
        K = labels.num_tags
        emis = np.zeros((5, K))
        emis[2:] = 1e308  # the second of sentences of 2 and 3 tokens
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError, match="Viterbi"):
            C.viterbi(emis, C.masked(zero_params(K), labels), [2, 3])

    def test_float32_scores_whose_sum_overflows_float32_give_a_finite_score(self):
        params = {n: a.astype(np.float32) for n, a in zero_params(3).items()}
        emis = np.full((4, 3), 3e38, dtype=np.float32)
        best = C.viterbi(emis, params, [1, 1, 1, 1])  # four scores of 3e38; float32 ends at 3.4e38
        assert best.score == 4 * float(np.float32(3e38))


class TestLengths:
    # Each is 1 or more and they sum to the 3 emission rows, or neither function reads them.
    @pytest.mark.parametrize("lengths", [[0, 3], [3, 0], [1, 1], [2, 2]], ids=lambda l: "+".join(map(str, l)))
    def test_lengths_that_do_not_split_the_rows_are_refused(self, lengths):
        emis, params = random_instance(np.random.default_rng(3), T=3, K=4)
        with pytest.raises(ValidationError, match="sentence lengths"):
            C.viterbi(emis, params, lengths)
        with pytest.raises(ValidationError, match="sentence lengths"):
            C.nll_gradients(emis, params, [0, 1, 2], lengths)


class TestMarginals:
    def test_uniform(self):
        emis, params = zeros_instance(3, 4)
        assert np.allclose(_marginals(emis, params), 0.25, atol=1e-12)

    def test_single_tag(self):
        emis, params = zeros_instance(3, 1)
        assert np.allclose(_marginals(emis, params), 1.0)

    def test_matches_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            emis, params = random_instance(rng)
            _, _, om = brute_force_oracle(emis, params)
            assert np.max(np.abs(_marginals(emis, params) - om)) < 1e-9

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            emis, params = random_instance(rng)
            m = _marginals(emis, params)
            assert np.allclose(m.sum(axis=1), 1.0, atol=1e-9)
            assert np.all((m >= 0) & (m <= 1))


class TestShiftInvariance:
    def test_constant_emission_shift(self):
        rng = np.random.default_rng(11)
        emis, params = random_instance(rng, T=4, K=3)
        c = 1.7
        gold = np.array([2, 0, 1, 1])
        value, d_emis, *_ = C.nll_gradients(emis, params, gold)
        value_shift, d_emis_shift, *_ = C.nll_gradients(emis + c, params, gold)
        assert value_shift == pytest.approx(value, abs=1e-9)
        assert C.viterbi(emis + c, params).tags == C.viterbi(emis, params).tags
        assert np.allclose(d_emis_shift, d_emis, atol=1e-9)  # marginals - onehot(gold)


class TestBruteForce:
    def test_refuses_large_instances(self):
        emis, params = zeros_instance(30, 5)
        with pytest.raises(ValidationError):
            brute_force_oracle(emis, params)


class TestBioMask:
    def test_masked_decode_is_bio_valid(self):
        # The -inf mask wins whatever the size of the emissions and parameters,
        # in float64 and, up to float32's range, in float32, which the mask keeps.
        labels = LabelSet(("Symptom", "Treatment"))
        rng = np.random.default_rng(12)
        K = labels.num_tags
        for dtype, scales in ((np.float64, (5.0, 1e3, 1e10, 1e50, 1e100)), (np.float32, (5.0, 1e3, 1e10, 1e30))):
            for scale in scales:
                batch = []
                for _ in range(50):
                    emis = (rng.normal(size=(rng.integers(1, 8), K)) * scale).astype(dtype)
                    params = {n: (rng.normal(size=s) * scale).astype(dtype) for n, s in C.param_shapes(K)}
                    decode = C.masked(params, labels)
                    assert {a.dtype for a in decode.values()} == {np.dtype(dtype)}
                    best = C.viterbi(emis, decode)
                    tags = [labels.tags[i] for i in best.tags]
                    validate_bio(tags)  # raises on violation
                    batch.append(emis)
                # The same emissions as one batch, under the last CRF drawn.
                lengths = np.array([len(e) for e in batch])
                tags = [labels.tags[i] for i in C.viterbi(np.concatenate(batch), decode, lengths).tags]
                for end, n in zip(np.cumsum(lengths), lengths):
                    validate_bio(tags[end - n: end])

    def test_huge_inside_emission_cannot_beat_the_mask(self):
        # A soft -1e4 mask loses to a 2e4 emission; decoding must not.
        labels = LabelSet(("Symptom",))
        K = labels.num_tags
        emis = np.zeros((1, K))
        emis[0, labels.tag_index("I-Symptom")] = 2e4
        params = zero_params(K)
        best = C.viterbi(emis, C.masked(params, labels))
        assert labels.tags[best.tags[0]] != "I-Symptom"

    def test_overflowing_path_score_is_a_numeric_error(self):
        labels = LabelSet(("Symptom",))
        K = labels.num_tags
        emis = np.full((3, K), 1e308)
        params = zero_params(K)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError, match="Viterbi"):
            C.viterbi(emis, C.masked(params, labels))

    def test_mask_blocks_start_with_inside_tag(self):
        labels = LabelSet(("Symptom",))
        mask = C.bio_transition_mask(labels)
        i_idx = labels.tag_index("I-Symptom")
        assert mask[labels.num_tags, i_idx] == C.MASK_SCORE  # start row
        assert mask[labels.tag_index("O"), i_idx] == C.MASK_SCORE
        assert mask[labels.tag_index("B-Symptom"), i_idx] == 0.0
