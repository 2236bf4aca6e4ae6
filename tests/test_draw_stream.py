"""The scan's child generators against numpy's own seeding.

run_scan hashes the child seeds of a block of chunks in one vectorized pass
of SeedSequence's hash (separable._seed_words) and seeds each child PCG64
from those words in C. These tests hold the words to
np.random.SeedSequence(seed).generate_state(4, np.uint64), and every chunk's
draws, and each child generator's state after its sample, to what
np.random.default_rng(seed) gives through the three calls random, uniform
and dirichlet. They compare against whatever numpy is installed, so they
also guard the hand-written uint32 hashing against that numpy's promotion
rules.
"""

import numpy as np
import pytest

from bosewit import scan, separable
from bosewit.scan import _draw_chunk, run_scan
from bosewit.separable import _seed_words

import oracles

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]


def _reference_words(seeds):
    return np.array([np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds])


def test_seed_words_are_the_seed_sequence_words():
    random_seeds = np.random.default_rng(2026).integers(2**63, size=10_000)
    for seeds in (random_seeds, random_seeds.tolist(), EDGE_SEEDS, np.array(EDGE_SEEDS, dtype=np.uint64)):
        words = _seed_words(seeds)
        assert words.dtype == np.dtype(np.uint64) and words.shape == (len(seeds), 4)
        assert np.array_equal(words, _reference_words([int(s) for s in seeds]))


def test_seed_words_join_the_little_end_first():
    # SeedSequence's uint64 words are pairs of its uint32 words, low first,
    # on every host; words put together by a byte view would swap them on a
    # big-endian one
    for seed, words in zip(EDGE_SEEDS, _seed_words(EDGE_SEEDS).tolist()):
        halves = np.random.SeedSequence(seed).generate_state(8, np.uint32).tolist()
        assert words == [low | high << 32 for low, high in zip(halves[0::2], halves[1::2])]


@pytest.mark.parametrize("seeds", [[-1], [2**64], [0, 2**64], [2**70, 1], np.array([3, -1])])
def test_seeds_outside_the_words_range_are_refused(seeds):
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        _seed_words(seeds)
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        _draw_chunk(seeds, 1, 2)


@pytest.mark.parametrize("sectors", [1, 60])
@pytest.mark.parametrize("n_components", [1, 9, 1000])
def test_chunk_draws_are_default_rng_draws_word_for_word(n_components, sectors, monkeypatch):
    seeds = [0, 2**32, 2**64 - 1, 12345]
    states = []
    fill = scan._fill_sectors

    def fill_and_record(rng, draws):
        fill(rng, draws)
        states.append(rng.bit_generator.state)

    monkeypatch.setattr(scan, "_fill_sectors", fill_and_record)
    draws = _draw_chunk(seeds, sectors, n_components)
    assert draws.shape == (3, len(seeds), sectors, n_components)
    assert len(states) == len(seeds)
    for i, seed in enumerate(seeds):
        reference = np.random.default_rng(seed)
        for j in range(sectors):
            expected = oracles.draw_components_three_calls(reference, n_components)
            assert [part.tobytes() for part in draws[:, i, j]] == [part.tobytes() for part in expected]
        assert states[i] == reference.bit_generator.state


def test_seed_blocks_leave_the_report_as_it_is(monkeypatch):
    # two samples per chunk; blocks of one, two and many chunks, the last
    # block short, hash the same seeds into the same words
    arguments = dict(samples=11, seed=9, n_total=12, n_components=4)
    monkeypatch.setattr(scan, "STACK_AMPLITUDES", 2 * 4 * 13)
    calls = []

    def counted(seeds):
        calls.append(len(seeds))
        return separable._seed_words(seeds)

    monkeypatch.setattr(scan, "_seed_words", counted)
    reports = []
    for block in (1, 4, 7, scan.SEED_BLOCK):
        monkeypatch.setattr(scan, "SEED_BLOCK", block)
        reports.append(run_scan(**arguments))
    assert all(report == reports[0] for report in reports)
    assert calls == [2] * 5 + [1] + [4, 4, 3] + [6, 5] + [11]
