"""One foreground rule: every stage reads a task's labels through
``LabelMaskSet.foreground``, ``masks == positive_class`` as 0/1.

So OTCE, the H-score, RoI-Sim and the probe score masks with any label
values as their 0/1 copy, and a label value that is not the positive
class carries no information into any of them.
"""

import numpy as np
import pytest

from xfersel.bundle import LabelMaskSet, SubsampleSpec
from xfersel.hscore import hscore_segmentation
from xfersel.otce import otce
from xfersel.roisim import PairingMode, roi_sim
from xfersel.synth import SynthSpec, generate_tasks, probe_transfer

from conftest import relabel

SAMPLER = SubsampleSpec(max_pixels=256, seed=7)

# stage -> score of a (source, target) pair of bundles
STAGES = {
    "otce": lambda s, t: otce(s.features, t.features, SAMPLER).score,
    "hscore": lambda s, t: hscore_segmentation(s.features).score,
    "roi-sim-paired": lambda s, t: roi_sim(s.labels, t.labels).score,
    "roi-sim-mean": lambda s, t: roi_sim(s.labels, t.labels,
                                         PairingMode.MEAN).score,
    "probe": lambda s, t: probe_transfer(s, t, seed=7).accuracy,
}

# variant -> (foreground label, background labels, positive class)
VARIANTS = {
    "three-label": (2, (0, 1), 2),
    "split-background": (1, (0, 3), 1),
}


def binary_pair():
    spec = SynthSpec(n_tasks=2, n_samples=8, height=12, width=12,
                     channels=3, signal_strengths=(0.8, 0.5), seed=42)
    return generate_tasks(spec)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("stage", STAGES)
def test_stage_scores_the_binarized_copy(stage, variant):
    pair = binary_pair()
    relabelled = [relabel(b, *VARIANTS[variant], seed=i)
                  for i, b in enumerate(pair)]
    assert all(len(np.unique(b.labels.masks)) == 3 for b in relabelled)
    assert round(STAGES[stage](*relabelled), 6) == \
        round(STAGES[stage](*pair), 6)


def test_foreground_is_computed_at_each_call():
    masks = np.array([[[0, 2], [3, 2]]], np.uint8)
    labels = LabelMaskSet(task_id="x", masks=masks, positive_class=2)
    first = labels.foreground
    assert first.dtype == np.uint8
    np.testing.assert_array_equal(first, [[[0, 1], [0, 1]]])
    assert first is not labels.foreground
    assert not np.shares_memory(first, labels.masks)
    assert set(vars(labels)) == {"task_id", "masks", "positive_class"}
