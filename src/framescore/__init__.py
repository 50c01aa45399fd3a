"""Weakly supervised localization of salient frames in motion time series.

Train a feed-forward classifier on trial-level labels, attribute its loss to
individual input frames via exact input gradients, normalize pooled frame
scores, and calibrate a detection threshold against F-beta.
"""

__version__ = "0.1.0"
