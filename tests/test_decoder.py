import itertools
import random

import pytest

from skewconv import QSChannel, Sequence, bcjr, viterbi
from skewconv import trellis as trellis_module
from skewconv.trellis import Trellis, build_trellis

from conftest import A, A2


@pytest.fixture(scope="module")
def tr(example_code):
    return build_trellis(example_code)


def all_inputs(length, q=4, k=1):
    return itertools.product(itertools.product(range(q), repeat=k), repeat=length)


def brute_force_metric(code, received_flat, length, terminated):
    best = None
    for u in all_inputs(length):
        cw = code.encode([list(b) for b in u], terminate=terminated).flat_values()
        d = sum(1 for a, b in zip(cw, received_flat) if a != b)
        if best is None or d < best:
            best = d
    return best


# -- viterbi -----------------------------------------------------------------


def test_noiseless_round_trip(example_code, tr):
    rng = random.Random(21)
    for length in range(1, 7):
        for _ in range(5):
            u = [[rng.randrange(4)] for _ in range(length)]
            for term in (False, True):
                v = example_code.encode(u, terminate=term)
                res = viterbi(tr, v, terminated=term)
                assert res.metric == 0
                assert res.info_est.to_ints() == [tuple(b) for b in u]


def test_single_error_spot_corrections(example_code, tr):
    u = [[1], [A], [0], [A2]]
    v = [list(b) for b in example_code.encode(u, terminate=True).to_ints()]
    for t in range(len(v)):
        for j in range(2):
            for wrong in range(4):
                if wrong == v[t][j]:
                    continue
                corrupted = [b[:] for b in v]
                corrupted[t][j] = wrong
                res = viterbi(tr, corrupted, terminated=True)
                assert res.metric == 1
                assert res.info_est.to_ints() == [tuple(b) for b in u]


def test_metric_equals_brute_force_on_random_frames(example_code, tr):
    rng = random.Random(22)
    for _ in range(10):
        recv = [[rng.randrange(4) for _ in range(2)] for _ in range(5)]
        flat = [s for b in recv for s in b]
        res = viterbi(tr, recv, terminated=False)
        assert res.metric == brute_force_metric(example_code, flat, 5, False)


def test_metric_equals_brute_force_exhaustive_received(example_code, tr):
    for recv_flat in itertools.product(range(4), repeat=4):
        recv = [recv_flat[0:2], recv_flat[2:4]]
        res = viterbi(tr, recv, terminated=True)
        assert res.metric == brute_force_metric(example_code, list(recv_flat), 1, True)


def test_metric_monotone_under_error_injection(example_code, tr):
    rng = random.Random(23)
    for _ in range(20):
        u = [[rng.randrange(4)] for _ in range(4)]
        v = [list(b) for b in example_code.encode(u, terminate=True).to_ints()]
        positions = [(t, j) for t in range(len(v)) for j in range(2)]
        rng.shuffle(positions)
        last = 0
        # stay within half the free distance, where the ML metric tracks the
        # number of injected errors
        for t, j in positions[:2]:
            v[t][j] = (v[t][j] + rng.randrange(1, 4)) % 4
            metric = viterbi(tr, v, terminated=True).metric
            assert metric >= last
            last = metric


def test_viterbi_validation(tr):
    with pytest.raises(ValueError, match="length"):
        viterbi(tr, [[1, 2, 3]])
    with pytest.raises(ValueError, match="short"):
        viterbi(tr, [[1, 2]], terminated=True)


def test_unterminated_ends_at_best_state(example_code, tr):
    # one info block, no tail: the decoder may end in any state
    v = example_code.encode([[A]], terminate=False)
    res = viterbi(tr, v, terminated=False)
    assert res.metric == 0
    assert res.info_est.to_ints() == [(A,)]


def test_decoding_is_phase_aware(example_code, tr):
    u = [[0], [1], [0]]
    v = example_code.encode(u, terminate=True)
    good = viterbi(tr, v, terminated=True)
    assert good.metric == 0 and good.info_est.to_ints() == [(0,), (1,), (0,)]
    # a degraded decoder that replays section 0 at every time misreads it
    frozen = Trellis(tr.field, tr.k, tr.n, tr.register_lengths, tr.next_state[:1], tr.label[:1])
    degraded = viterbi(frozen, v, terminated=True)
    assert degraded.metric > 0 or degraded.info_est.to_ints() != [(0,), (1,), (0,)]


# -- bcjr --------------------------------------------------------------------


def test_bcjr_near_noiseless(example_code, tr):
    rng = random.Random(24)
    channel = QSChannel(4, 1e-9)
    for _ in range(5):
        u = [[rng.randrange(4)] for _ in range(4)]
        v = example_code.encode(u, terminate=True)
        res = bcjr(tr, v, channel, terminated=True)
        assert res.info_est.to_ints() == [tuple(b) for b in u]
        for t, block in enumerate(u):
            assert res.posteriors[t][block[0]] >= 0.999


def test_bcjr_posteriors_normalized(example_code, tr):
    rng = random.Random(25)
    channel = QSChannel(4, 0.2)
    recv = [[rng.randrange(4) for _ in range(2)] for _ in range(5)]
    for term in (False, True):
        res = bcjr(tr, recv, channel, terminated=term)
        for post in res.posteriors:
            assert abs(float(post.sum()) - 1.0) <= 1e-9


def bayes_posteriors(code, received_flat, length, eps):
    """Exhaustive posterior over u_t by direct channel-law enumeration."""
    weights = {}
    for u in all_inputs(length):
        cw = code.encode([list(b) for b in u], terminate=True).flat_values()
        d = sum(1 for a, b in zip(cw, received_flat) if a != b)
        weights[u] = (1 - eps) ** (len(cw) - d) * (eps / 3) ** d
    total = sum(weights.values())
    post = [[0.0] * 4 for _ in range(length)]
    for u, w in weights.items():
        for t, block in enumerate(u):
            post[t][block[0]] += w / total
    return post


def test_bcjr_matches_exhaustive_bayes(example_code, tr):
    rng = random.Random(26)
    channel = QSChannel(4, 0.1)
    for _ in range(10):
        recv = [[rng.randrange(4) for _ in range(2)] for _ in range(4)]
        flat = [s for b in recv for s in b]
        res = bcjr(tr, recv, channel, terminated=True)
        expected = bayes_posteriors(example_code, flat, 3, 0.1)
        for t in range(3):
            for c in range(4):
                assert abs(res.posteriors[t][c] - expected[t][c]) <= 1e-9


def test_bcjr_hard_decisions_match_viterbi_noiseless(example_code, tr):
    rng = random.Random(27)
    channel = QSChannel(4, 1e-6)
    for _ in range(10):
        u = [[rng.randrange(4)] for _ in range(5)]
        v = example_code.encode(u, terminate=True)
        hard = bcjr(tr, v, channel, terminated=True).info_est
        assert hard == viterbi(tr, v, terminated=True).info_est


def test_bcjr_eps_validation(tr, example_code):
    v = example_code.encode([[1], [0]], terminate=True)
    with pytest.raises(ValueError, match="eps"):
        bcjr(tr, v, QSChannel(4, 0.0), terminated=True)
    with pytest.raises(ValueError, match="eps"):
        bcjr(tr, v, QSChannel(4, 0.9), terminated=True)


def test_decoders_refuse_a_word_over_another_field(tr, example_code, f8):
    # GF(8) symbols below 4 would pass a range check against the GF(4) trellis
    received = Sequence(f8, [[7, 7]] * 6)
    low = Sequence(f8, [[1, 3]] * 6)
    channel = QSChannel(4, 0.1)
    for word in (received, low):
        with pytest.raises(ValueError, match="^mixed-field operands$"):
            example_code.encode(Sequence(f8, [[1]] * 6))
        with pytest.raises(ValueError, match="^mixed-field operands$"):
            viterbi(tr, word, terminated=True)
        with pytest.raises(ValueError, match="^mixed-field operands$"):
            bcjr(tr, word, channel, terminated=True)
    with pytest.raises(ValueError, match="^blocks have length 1, expected 2$"):
        bcjr(tr, Sequence(tr.field, [[1]] * 4), channel)


def test_bcjr_refuses_a_word_over_the_edge_budget(tr, example_code, monkeypatch):
    v = example_code.encode([[1], [0]], terminate=True)  # 3 blocks x 4 states x 4 inputs
    channel = QSChannel(4, 0.1)
    monkeypatch.setattr(trellis_module, "EDGE_BUDGET", 48)
    assert bcjr(tr, v, channel, terminated=True).posteriors.shape == (2, 4)
    monkeypatch.setattr(trellis_module, "EDGE_BUDGET", 47)
    with pytest.raises(ValueError) as err:
        bcjr(tr, v, channel, terminated=True)
    assert str(err.value) == (
        "a BCJR word of 3 blocks x 4 states x 4 inputs has 48 edges, over the budget of 47"
    )


# -- channel -------------------------------------------------------------------


def test_channel_transition_probabilities_sum_to_one():
    ch = QSChannel(4, 0.3)
    for sent in range(4):
        assert abs(sum(ch.transition_prob(sent, r) for r in range(4)) - 1.0) <= 1e-12


def test_channel_validation():
    with pytest.raises(ValueError):
        QSChannel(4, 1.0)
    with pytest.raises(ValueError):
        QSChannel(4, -0.1)
    with pytest.raises(ValueError):
        QSChannel(1, 0.1)


def test_block_likelihood_refuses_blocks_of_unequal_length():
    ch = QSChannel(4, 0.1)
    with pytest.raises(ValueError, match="blocks of unequal length 3 and 1"):
        ch.block_likelihood([0, 0, 0], [1])
    with pytest.raises(ValueError, match="blocks of unequal length 0 and 2"):
        ch.block_likelihood([], [1, 1])
    assert ch.block_likelihood([0, 0, 0], [1, 0, 0]) == pytest.approx(0.9**2 * 0.1 / 3)


def test_channel_transmit_statistics(f4):
    ch = QSChannel(4, 0.25)
    rng = random.Random(28)
    seq = Sequence(f4, [[1, 2]] * 4000)
    out = ch.transmit(seq, rng)
    flips = sum(1 for a, b in zip(seq.flat_values(), out.flat_values()) if a != b)
    assert 0.20 <= flips / 8000 <= 0.30
    # surviving symbols unchanged, substitutions uniform over the other three
    subs = [b for a, b in zip(seq.flat_values(), out.flat_values()) if a != b]
    assert all(0 <= s < 4 for s in subs)
