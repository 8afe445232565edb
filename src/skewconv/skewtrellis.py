"""Right-module skew trellis codes: the `build_trellis_right` name and a
check of their linearity.

`SkewTrellisCode` is defined in `code`.  Its trellis comes from
`trellis.build_trellis` as for a left-module code; it is time-invariant (a
single section) and plugs directly into viterbi()/bcjr().
"""

import bisect
import random
from dataclasses import dataclass

import numpy as np

from .code import (
    ENCODE_CHUNK,
    Sequence,
    SkewTrellisCode,
    _block_words,
    _draws_by_words,
    _randbelow_words,
    _redraw,
    _words,
)
from .trellis import build_trellis

__all__ = ["SkewTrellisCode", "LinearityReport", "build_trellis_right", "linearity_report"]

build_trellis_right = build_trellis


@dataclass
class LinearityReport:
    fixed_subfield: list
    additive_ok: bool
    subfield_homogeneous: bool
    witness: tuple | None  # (scale value, input blocks, encode(a*u), a*encode(u))


def linearity_report(code, rng=None, pairs=50, max_len=3, witness_len=2):
    """Checks additivity and fixed-subfield homogeneity on random inputs and,
    when theta != id, searches exhaustively for a full-field homogeneity
    violation on short inputs."""
    rng = rng or random.Random(0)
    field = code.field
    additive_ok = _first_failure(code, rng, [1] * pairs, max_len) is None
    fixed = field.fixed_subfield()
    scales = [c for c in fixed for _ in range(pairs // 5 + 1)]
    subfield_homogeneous = _first_failure(code, rng, scales, max_len) is None
    witness = None
    if field.automorphism_order > 1:
        witness = _homogeneity_witness(code, witness_len)
    return LinearityReport(fixed, additive_ok, subfield_homogeneous, witness)


def _first_failure(code, rng, scales, max_len):
    """The index of the first pair that fails encode(c u1 + u2) =
    c encode(u1) + encode(u2), one pair per scale c, or None.

    Each pair draws a length in [1, max_len], then u1's symbols and u2's
    (`_draw_pairs`).  All pairs are drawn first and checked at once,
    zero-padded to max_len blocks: a padded terminated codeword is the
    unpadded one followed by zero blocks.  On a failure the generator is set
    back to its state before the draws and the pairs up to the first failing
    one are drawn again, so it is left where a check that stops there leaves
    it.
    """
    field = code.field
    q, k = field.size, code.k

    def pair():
        length = rng.randrange(1, max_len + 1)
        return [rng.randrange(q) for _ in range(2 * length * k)]

    start = rng.getstate()
    u1, u2 = _draw_pairs(rng, pair, q, k, max_len, len(scales), start).reshape(
        2, len(scales), max_len, k
    )
    c = np.array(scales, dtype=np.intp)[:, None, None]
    lhs = code.encode_batch(field.add(field.mul(c, u1), u2), terminate=True)
    rhs = field.add(
        field.mul(c, code.encode_batch(u1, terminate=True)), code.encode_batch(u2, terminate=True)
    )
    failed = (lhs != rhs).any(axis=(1, 2))
    if not failed.any():
        return None
    first = int(failed.argmax())
    _redraw(rng, start, pair, first + 1)
    return first


def _draw_pairs(rng, pair, q, k, max_len, count, state):
    """count draws of pair(), randrange(1, max_len + 1) blocks of k symbols
    randrange(q) for u1 and as many for u2, as a (2, count, max_len * k)
    intp array, zero past each draw's blocks; rng is left where the draws
    leave it, and state is rng.getstate() before them.

    For a generator that draws randrange on its 32-bit words
    (`code._draws_by_words`) the words are one getrandbits block (`_words`,
    grown by further blocks while it falls short), read by
    `_randbelow_words` for both bounds at once and walked pair by pair: a
    pair's length is the first word from its start that randrange(max_len)
    keeps, and its symbols the next 2 length k words that randrange(q)
    keeps.  The generator is then set back to state and advanced by the
    words used.  Any other generator draws pair by pair.
    """
    pairs = np.zeros((2, count, max_len * k), dtype=np.intp)
    if not 0 < max_len < 1 << 32 or q.bit_length() > 32 or not _draws_by_words(rng):
        for row in range(count):
            symbols = pair()
            half = len(symbols) // 2
            pairs[:, row, :half] = symbols[:half], symbols[half:]
        return pairs
    mean = count * (
        (1 << max_len.bit_length()) / max_len + (max_len + 1) * k * (1 << q.bit_length()) / q
    )
    words = np.zeros(0, dtype="<u4")
    while True:
        words = np.concatenate((words, _words([rng], _block_words(mean))[0]))
        lengths, length_kept = _randbelow_words(words, max_len)
        symbols, symbol_kept = _randbelow_words(words, q)
        length_at = np.flatnonzero(length_kept).tolist()
        symbol_at = np.flatnonzero(symbol_kept)
        kept = symbol_at.tolist()
        # each pair's first symbol, as an index of `kept`, and u1's symbols
        firsts, halves, end = [], [], 0
        for _ in range(count):
            i = bisect.bisect_left(length_at, end)
            if i == len(length_at):
                break
            at = length_at[i]
            half = (lengths.item(at) + 1) * k
            first = bisect.bisect_left(kept, at + 1)
            if first + 2 * half > len(kept):
                break
            firsts.append(first)
            halves.append(half)
            end = kept[first + 2 * half - 1] + 1
        else:
            break
    rng.setstate(state)
    rng.getrandbits(32 * end)
    cols = np.arange(max_len * k)
    half = np.array(halves, dtype=np.intp)[:, None]
    used = cols < half
    first = np.array(firsts, dtype=np.intp)[:, None]
    for part, offset in zip(pairs, (first, first + half)):
        part[used] = symbols[symbol_at[(offset + cols)[used]]]
    return pairs


def _homogeneity_witness(code, witness_len):
    """The first scale a = 1, 2, ... and input u of witness_len blocks, in
    `itertools.product` order over the q^k input blocks, with
    encode(a u) != a encode(u), as (a, u, encode(a u), a encode(u)); None if
    there is none.

    The inputs are encoded in chunks of about ENCODE_CHUNK output symbols,
    so memory does not grow with q^(k * witness_len); with one chunk they are
    encoded once for all scales.
    """
    field = code.field
    q, k, n = field.size, code.k, code.n
    words = q ** (k * witness_len)
    chunk = max(1, ENCODE_CHUNK // ((witness_len + code.memory) * n))

    def inputs(start, stop):
        # the base-q digits of the word ids, least significant first: the
        # symbols of the last block, then those of the one before, ...
        ids = np.arange(start, stop)
        u = np.empty((len(ids), witness_len, k), dtype=np.intp)
        for block in range(witness_len - 1, -1, -1):
            for row in range(k):
                ids, u[:, block, row] = np.divmod(ids, q)
        return u

    plain = None
    for a in range(1, q):
        for start in range(0, words, chunk):
            if plain is None or plain[0] != start:
                u = inputs(start, min(start + chunk, words))
                plain = start, u, code.encode_batch(u, terminate=True)
            _, u, v = plain
            lhs = code.encode_batch(field.mul(a, u), terminate=True)
            rhs = field.mul(a, v)
            failed = (lhs != rhs).any(axis=(1, 2))
            if failed.any():
                i = int(failed.argmax())
                return (
                    a,
                    [tuple(block) for block in u[i].tolist()],
                    Sequence._trusted(field, lhs[i], n),
                    Sequence._trusted(field, rhs[i], n),
                )
    return None
