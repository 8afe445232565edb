"""The batched simulation and the split channel against the frame-at-a-time
and symbol-at-a-time references, and the committed benchmark counts."""

import json
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import decoder_reference as reference
from skewconv import (
    QSChannel,
    Sequence,
    SkewConvCode,
    analysis,
    build_trellis,
    load_code,
    run_simulation,
)

from test_decoder_fast_paths import CODES, TRELLISES

SUITE = Path(__file__).resolve().parents[1] / "perfbench" / "suite"


@pytest.mark.parametrize("eps", [0.0, 0.05, 0.3])
@pytest.mark.parametrize("name", ["gf4-k2-right", "gf9-k2-right", "gf8-right", "memory0"])
def test_reports_equal_the_frame_at_a_time_loop(name, eps, monkeypatch):
    code, tr = dict(CODES)[name], TRELLISES[name]
    want = reference.run_simulation(code, eps, 11, 3, seed=77, trellis=tr)
    assert run_simulation(code, eps, 11, 3, seed=77, trellis=tr) == want
    # four frames a batch: the last batch holds three
    monkeypatch.setattr(analysis, "BATCH_EDGES", 4 * tr.num_states * tr.num_inputs)
    assert run_simulation(code, eps, 11, 3, seed=77, trellis=tr) == want


def test_a_batch_holds_its_symbols_in_the_narrowest_dtype():
    # one batch of 512 frames of 250 GF(4) information symbols, 257,024
    # channel symbols; with info, sent, received and offsets at 8 bytes a
    # symbol the peak was 39 bytes a channel symbol (9.6 MiB), at a byte
    # each it is 19 (4.6 MiB)
    code = load_code(SUITE / "gf4_worked.json")
    tr = build_trellis(code)
    run_simulation(code, 0.05, 2, 250, seed=3, trellis=tr)  # the per-code tables
    tracemalloc.start()
    try:
        got = run_simulation(code, 0.05, 512, 250, seed=3, trellis=tr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (got.symbol_errors_in, got.symbol_errors_out, got.frame_errors) == (12948, 597, 277)
    assert peak < 25 * 512 * 251 * 2


@pytest.mark.parametrize("seed", [0, 3, 2**32 - 1])
@pytest.mark.parametrize("spec", sorted(p.stem for p in SUITE.glob("*.json") if p.stem != "expected"))
def test_reports_equal_the_frame_at_a_time_loop_on_the_suite_specs(spec, seed):
    code = load_code(SUITE / f"{spec}.json")
    tr = build_trellis(code)
    eps = 0.6 * (code.field.size - 1) / code.field.size
    for trials, frame_len in ((7, 1), (3, 8)):
        want = reference.run_simulation(code, eps, trials, frame_len, seed=seed, trellis=tr)
        assert run_simulation(code, eps, trials, frame_len, seed=seed, trellis=tr) == want


def test_the_committed_benchmark_counts_are_reproduced():
    # the default-seed counts the benchmark checks every run against
    want = json.loads((SUITE / "expected.json").read_text(encoding="utf-8"))["sim_gf4"]
    code = load_code(SUITE / "gf4_worked.json")
    got = run_simulation(code, want["eps"], want["trials"], want["frame_len"], seed=want["seed"])
    assert got.to_dict() == want


def test_a_simulation_encodes_once_per_batch(monkeypatch):
    code, tr = dict(CODES)["gf9-k2-left"], TRELLISES["gf9-k2-left"]
    encode_batch = SkewConvCode.encode_batch
    batches = []

    def counted(self, u, terminate=False):
        batches.append((len(u), terminate))
        return encode_batch(self, u, terminate)

    def refused(*args, **kwargs):
        raise AssertionError("a frame went through the one-frame path")

    monkeypatch.setattr(SkewConvCode, "encode_batch", counted)
    monkeypatch.setattr(SkewConvCode, "encode", refused)
    monkeypatch.setattr(QSChannel, "transmit", refused)
    monkeypatch.setattr(analysis, "BATCH_EDGES", 5 * tr.num_states * tr.num_inputs)
    run_simulation(code, 0.1, 23, 4, seed=5, trellis=tr)
    assert batches == [(5, True)] * 4 + [(3, True)]


@pytest.mark.parametrize("q,eps", [(2, 0.3), (4, 0.05), (9, 0.5), (16, 0.9)])
def test_transmit_matches_the_symbol_at_a_time_channel(q, eps):
    field = dict(CODES)[{2: "gf2-left", 4: "worked", 9: "gf9-left", 16: "gf16-left"}[q]].field
    channel = QSChannel(q, eps)
    rng = random.Random(q)
    for blocks, width in ((0, 2), (1, 1), (6, 2), (9, 3)):
        seq = Sequence(field, [[rng.randrange(q) for _ in range(width)] for _ in range(blocks)], width=width)
        got_rng, want_rng = random.Random(blocks), random.Random(blocks)
        got = channel.transmit(seq, got_rng)
        want = reference.transmit(channel, seq, want_rng)
        assert got == want and got.width == want.width == width
        assert all(type(s) is int for block in got.to_ints() for s in block)
        assert got_rng.getstate() == want_rng.getstate()


def test_the_channel_draws_do_not_depend_on_the_symbols():
    channel = QSChannel(4, 0.4)
    errors, offsets = channel.draw_errors(random.Random(8), 200)
    assert len(errors) == len(offsets) == 200 and 40 < sum(errors) < 120
    assert all(0 <= o < 3 for o in offsets) and not any(o for e, o in zip(errors, offsets) if not e)
    errors = np.array(errors)
    for sent in (np.zeros(200, dtype=np.intp), np.arange(200) % 4):
        received = QSChannel.apply_errors(sent, errors, np.array(offsets))
        assert np.array_equal(received != sent, errors)
        assert ((0 <= received) & (received < 4)).all()
