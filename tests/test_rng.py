import pytest

from xfersel.rng import subsample_indices, word

from oracles import (
    subsample_reference,
    subsample_sparse_reference,
    word_reference,
)


def test_words_match_documented_algorithm():
    for seed in (0, 1, 42, 2**64 - 1):
        for i in range(20):
            assert word(seed, i) == word_reference(seed, i)


def test_subsample_matches_reference_sampler():
    for seed in (7, 42, 123456789):
        for n, k in ((4, 2), (10, 3), (100, 17), (4096, 256)):
            assert subsample_indices(n, k, seed) == \
                subsample_reference(n, k, seed)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_subsample_matches_reference_at_seed_edges(seed):
    # the seed and the step counter wrap mod 2**64 in the vectorised words
    for n, k in ((2, 1), (37, 36), (1000, 999), (5000, 17)):
        assert subsample_indices(n, k, seed) == \
            subsample_reference(n, k, seed)


def test_sparse_reference_agrees_with_list_reference():
    for n, k, seed in ((10, 9, 3), (500, 80, 2**64 - 1), (4096, 256, 0)):
        assert subsample_sparse_reference(n, k, seed) == \
            subsample_reference(n, k, seed)


def test_subsample_population_above_32_bits():
    for n, seed in ((2**32 + 7, 0), (2**40, 42), (2**63 + 5, 2**64 - 1)):
        out = subsample_indices(n, 50, seed)
        assert out == subsample_sparse_reference(n, 50, seed)
        assert len(set(out)) == 50 and 0 <= out[0] and out[-1] < n


def test_subsample_full_when_k_at_least_n():
    assert subsample_indices(5, 5, 1) == [0, 1, 2, 3, 4]
    assert subsample_indices(5, 9, 1) == [0, 1, 2, 3, 4]


def test_subsample_properties():
    out = subsample_indices(1000, 64, 99)
    assert len(out) == 64
    assert len(set(out)) == 64
    assert out == sorted(out)
    assert all(0 <= i < 1000 for i in out)
    # deterministic
    assert out == subsample_indices(1000, 64, 99)
    # seed-sensitive
    assert out != subsample_indices(1000, 64, 100)


def test_subsample_rejects_negative():
    with pytest.raises(ValueError):
        subsample_indices(-1, 2, 0)
