import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xfersel.bundle import LabelMaskSet
from xfersel.errors import EmptyImageError, ShapeMismatchError
from xfersel.roisim import (
    PairingMode,
    resample_nearest,
    roi_sim,
    ssim_global,
)

from oracles import ssim_reference


def half_ones(h=8, w=8):
    x = np.zeros((h, w))
    x[:, : w // 2] = 1.0
    return x


class TestSsimGlobal:
    def test_identity_is_one(self):
        rng = np.random.Generator(np.random.Philox(0))
        for _ in range(10):
            x = rng.integers(0, 2, (6, 6)).astype(float)
            assert ssim_global(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_constant_zero_images(self):
        z = np.zeros((5, 5))
        assert ssim_global(z, z) == pytest.approx(1.0, abs=1e-12)

    def test_half_ones_complement_matches_oracle(self):
        x = half_ones()
        y = 1.0 - x
        expected = ssim_reference(x.tolist(), y.tolist())
        got = ssim_global(x, y)
        assert got == pytest.approx(expected, abs=1e-9)
        # strong anticorrelation: mu 0.5 each, var 0.25 each, cov -0.25
        assert got == pytest.approx(-0.996, abs=1e-3)

    def test_symmetry_exact(self):
        rng = np.random.Generator(np.random.Philox(1))
        for _ in range(20):
            x = rng.random((4, 7))
            y = rng.random((4, 7))
            assert ssim_global(x, y) == ssim_global(y, x)

    def test_bounded_on_random_binary_pairs(self):
        rng = np.random.Generator(np.random.Philox(2))
        for _ in range(1000):
            x = rng.integers(0, 2, (16, 16)).astype(float)
            y = rng.integers(0, 2, (16, 16)).astype(float)
            assert abs(ssim_global(x, y)) <= 1.0 + 1e-9

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_oracle_on_random_floats(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        x = rng.random((5, 5))
        y = rng.random((5, 5))
        assert ssim_global(x, y) == pytest.approx(
            ssim_reference(x.tolist(), y.tolist()), abs=1e-12)

    def test_identity_maximal_over_2x2_binary_masks(self):
        grids = [np.array(bits, dtype=float).reshape(2, 2)
                 for bits in itertools.product((0, 1), repeat=4)]
        for x in grids:
            self_score = ssim_global(x, x)
            assert self_score == pytest.approx(1.0, abs=1e-12)
            for y in grids:
                if not np.array_equal(x, y):
                    assert ssim_global(x, y) < self_score

    def test_constant_shift_changes_only_mean_terms(self):
        rng = np.random.Generator(np.random.Philox(3))
        x = rng.random((6, 6))
        y = rng.random((6, 6))
        for c in (0.5, 2.0, -1.0):
            assert ssim_global(x + c, y + c) == pytest.approx(
                ssim_reference((x + c).tolist(), (y + c).tolist()), abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            ssim_global(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_empty_image(self):
        with pytest.raises(EmptyImageError):
            ssim_global(np.zeros((0, 2)), np.zeros((0, 2)))


class TestResample:
    def test_identity_when_same_shape(self):
        m = np.arange(12).reshape(3, 4)
        np.testing.assert_array_equal(resample_nearest(m, 3, 4), m)

    def test_preserves_binary_values(self):
        m = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        up = resample_nearest(m, 4, 4)
        assert set(np.unique(up)) <= {0, 1}
        np.testing.assert_array_equal(up[:2, :2], np.zeros((2, 2)))


def mask_set(task_id, masks):
    return LabelMaskSet(task_id=task_id, masks=np.asarray(masks, np.uint8))


class TestRoiSim:
    def test_identical_sets_score_one_both_modes(self):
        rng = np.random.Generator(np.random.Philox(4))
        masks = rng.integers(0, 2, (5, 8, 8))
        a = mask_set("a", masks)
        b = mask_set("b", masks)
        for mode in PairingMode:
            assert roi_sim(a, b, mode=mode).score == pytest.approx(1.0,
                                                                   abs=1e-12)

    def test_singletons_reduce_to_ssim_both_modes(self):
        x = half_ones()
        y = np.zeros((8, 8))
        y[:4, :] = 1.0
        expected = ssim_global(x, y)
        a = mask_set("a", x[None])
        b = mask_set("b", y[None])
        for mode in PairingMode:
            assert roi_sim(a, b, mode=mode).score == pytest.approx(expected,
                                                                   abs=1e-12)

    def test_mean_mask_matches_hand_averaged_oracle(self):
        rng = np.random.Generator(np.random.Philox(5))
        src = rng.integers(0, 2, (3, 6, 6))
        tgt = rng.integers(0, 2, (3, 6, 6))
        mean_src = [[sum(src[k][i][j] for k in range(3)) / 3.0
                     for j in range(6)] for i in range(6)]
        mean_tgt = [[sum(tgt[k][i][j] for k in range(3)) / 3.0
                     for j in range(6)] for i in range(6)]
        expected = ssim_reference(mean_src, mean_tgt)
        got = roi_sim(mask_set("s", src), mask_set("t", tgt),
                      mode=PairingMode.MEAN).score
        assert got == pytest.approx(expected, abs=1e-12)

    def test_mean_mode_symmetric(self):
        rng = np.random.Generator(np.random.Philox(6))
        a = mask_set("a", rng.integers(0, 2, (4, 8, 8)))
        b = mask_set("b", rng.integers(0, 2, (4, 8, 8)))
        assert roi_sim(a, b, mode=PairingMode.MEAN).score == \
            roi_sim(b, a, mode=PairingMode.MEAN).score

    def test_paired_mode_deterministic_and_capped(self):
        rng = np.random.Generator(np.random.Philox(7))
        a = mask_set("a", rng.integers(0, 2, (9, 8, 8)))
        b = mask_set("b", rng.integers(0, 2, (5, 8, 8)))
        r1 = roi_sim(a, b, seed=11, max_pairs=3)
        r2 = roi_sim(a, b, seed=11, max_pairs=3)
        assert r1.score == r2.score
        assert r1.n_pairs == 3

    def test_binarizes_against_positive_class(self):
        masks = np.full((2, 4, 4), 2, dtype=np.uint8)
        a = LabelMaskSet(task_id="a", masks=masks, positive_class=2)
        b = LabelMaskSet(task_id="b", masks=np.ones((2, 4, 4), np.uint8),
                         positive_class=1)
        # both binarize to all-foreground, hence identical
        assert roi_sim(a, b).score == pytest.approx(1.0, abs=1e-12)

    def test_cross_resolution_resampling(self):
        big = np.zeros((2, 16, 16), np.uint8)
        big[:, :, :8] = 1
        small = np.zeros((2, 8, 8), np.uint8)
        small[:, :, :4] = 1
        score = roi_sim(mask_set("big", big), mask_set("small", small)).score
        assert score == pytest.approx(1.0, abs=1e-12)
