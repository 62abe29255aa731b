import dataclasses

import numpy as np
import pytest

from xfersel.bundle import (
    LabelMaskSet,
    PixelFeatureSet,
    TaskBundle,
    TaskDescriptor,
)


def make_bundle(task_id="ED-14-T2", n=3, h=8, w=8, c=4, seed=0,
                with_features=True, roi_class=None, modality=None,
                masks=None):
    """Small random-but-deterministic bundle for I/O and metric tests."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    desc = TaskDescriptor.from_name(task_id, dataset="test")
    if roi_class or modality:
        desc = TaskDescriptor(task_id=task_id,
                              roi_class=roi_class or desc.roi_class,
                              modality=modality or desc.modality,
                              dataset="test", partition=desc.partition)
    if masks is None:
        masks = rng.integers(0, 2, size=(n, h, w)).astype(np.uint8)
    else:
        masks = np.asarray(masks, dtype=np.uint8)
        n, h, w = masks.shape
    labels = LabelMaskSet(task_id=task_id, masks=masks)
    features = None
    if with_features:
        features = PixelFeatureSet(
            task_id=task_id,
            features=rng.standard_normal((n, h, w, c)).astype(np.float32),
            aligned_labels=labels)
    return TaskBundle(descriptor=desc, labels=labels, features=features,
                      extractor="test-extractor")


def relabel(bundle, foreground, background, positive_class, seed):
    """``bundle`` with its 0/1 masks relabelled: the foreground pixels
    ``foreground``, each background pixel drawn from ``background``, and
    ``positive_class`` on the labels; the features are kept."""
    rng = np.random.default_rng(seed)
    binary = bundle.labels.masks
    masks = np.where(binary == 1, foreground,
                     rng.choice(background, binary.shape)).astype(np.uint8)
    labels = LabelMaskSet(bundle.task_id, masks, positive_class)
    features = PixelFeatureSet(bundle.task_id, bundle.features.features,
                               labels)
    return dataclasses.replace(bundle, labels=labels, features=features)


@pytest.fixture
def bundle():
    return make_bundle()
