import numpy as np
import pytest

import quality
from framescore.evaluation import ConfusionCounts, fbeta


def pairwise_auroc(scores, positive):
    pos = [s for s, p in zip(scores, positive) if p]
    neg = [s for s, p in zip(scores, positive) if not p]
    wins = sum(1.0 if a > b else 0.5 if a == b else 0.0 for a in pos for b in neg)
    return wins / (len(pos) * len(neg))


@pytest.mark.parametrize("seed", range(40))
def test_auroc_matches_pairwise_definition_with_ties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    scores = rng.integers(0, 5, size=n).astype(float)  # few values: many ties
    positive = rng.random(n) < 0.5
    positive[0], positive[1] = True, False
    assert quality.auroc(scores, positive) == pytest.approx(
        pairwise_auroc(scores, positive), abs=1e-12)


def test_auroc_extremes():
    assert quality.auroc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0
    assert quality.auroc([0.1, 0.2, 0.9, 0.8], [1, 1, 0, 0]) == 0.0
    assert quality.auroc([0.5, 0.5, 0.5], [1, 0, 0]) == 0.5


def test_auroc_needs_both_classes():
    with pytest.raises(ValueError):
        quality.auroc([0.1, 0.2], [1, 1])


@pytest.mark.parametrize("n0,n1", [(1, 1), (9344, 4892), (22224, 90758), (3, 0),
                                   (1, 1000), (7, 11)])
def test_all_positive_f2_matches_fbeta(n0, n1):
    counts = ConfusionCounts(tp=n0, fp=n1, tn=0, fn=0)
    assert quality.all_positive_f2(n0, n1) == pytest.approx(
        fbeta(counts, 2.0), rel=1e-12)
