"""Synthetic exercise-trial generator with injectable compensatory segments.

Each trial is a smooth reach motion of one arm (wrist and elbow follow the
profile 3u^2 - 2u^3) on top of a fixed base pose, with iid Gaussian pixel
noise everywhere. A compensatory trial additionally displaces the head, the
neck, and both shoulders during one contiguous segment, ramped in and out
over a few frames. Frame labels mark exactly the injected segment.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .data import (
    DEFAULT_T_MAX,
    LABEL_COMPENSATORY,
    LABEL_NORMAL,
    SIDES,
    DatasetManifest,
    JointLayout,
    check_feature_block,
    json_object,
    random_stream,
)
from .errors import DataValidationError

# base pose in pixels, indexed like DEFAULT_JOINTS
_BASE_POSE = np.array(
    [
        [320.0, 80.0],   # Head
        [320.0, 140.0],  # Neck
        [380.0, 150.0],  # ShoulderRight
        [400.0, 230.0],  # ElbowRight
        [410.0, 300.0],  # WristRight
        [260.0, 150.0],  # ShoulderLeft
        [240.0, 230.0],  # ElbowLeft
        [230.0, 300.0],  # WristLeft
    ]
)
_HEAD, _NECK = 0, 1
_SHOULDER_R, _ELBOW_R, _WRIST_R = 2, 3, 4
_SHOULDER_L, _ELBOW_L, _WRIST_L = 5, 6, 7

RAMP_FRAMES = 5


def _checked(name: str, value, default):
    """The value, a pair as a tuple, if it has its default's kind: an integer
    or a finite number, or a pair of them; a bool is neither."""
    pair = isinstance(default, tuple)
    integral = isinstance(default[0] if pair else default, int)
    kind = numbers.Integral if integral else numbers.Real
    items = tuple(value) if pair and isinstance(value, (list, tuple)) else (value,)
    if len(items) != (2 if pair else 1) or not all(
        isinstance(v, kind) and not isinstance(v, bool)
        and (integral or math.isfinite(v))
        for v in items
    ):
        noun = "integer" if integral else "finite number"
        what = f"a pair of {noun}s" if pair else ("an " if integral else "a ") + noun
        raise DataValidationError(f"{name} must be {what}, got {value!r}")
    return items if pair else value


@dataclass(frozen=True)
class SynthConfig:
    patient_count: int = 15
    trials_per_patient_per_side: int = 10
    length_range: tuple[int, int] = (120, 200)
    compensation_probability_affected: float = 0.55
    compensation_probability_unaffected: float = 0.0
    compensation_coverage_range: tuple[float, float] = (0.5, 0.8)
    compensation_amplitude: float = 25.0
    motion_amplitude: float = 80.0
    noise_std: float = 1.0
    t_max: int = DEFAULT_T_MAX
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(
                self, f.name, _checked(f.name, getattr(self, f.name), f.default)
            )
        for name, least in (("patient_count", 1),
                            ("trials_per_patient_per_side", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise DataValidationError(f"{name} must be at least {least}")
        lo, hi = self.length_range
        if not (1 <= lo <= hi <= self.t_max):
            raise DataValidationError(
                f"length_range {self.length_range} must satisfy "
                f"1 <= min <= max <= t_max ({self.t_max})"
            )
        check_feature_block(
            self.patient_count * len(SIDES) * self.trials_per_patient_per_side,
            self.t_max, JointLayout())
        for name in (
            "compensation_probability_affected",
            "compensation_probability_unaffected",
        ):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise DataValidationError(f"{name} must be in [0, 1], got {p}")
        clo, chi = self.compensation_coverage_range
        if not (0.0 <= clo <= chi <= 1.0):
            raise DataValidationError(
                f"compensation_coverage_range {self.compensation_coverage_range} "
                f"must be within [0, 1] with min <= max"
            )
        for name in ("compensation_amplitude", "motion_amplitude", "noise_std"):
            if getattr(self, name) < 0:
                raise DataValidationError(f"{name} must be non-negative")


def load_synth_config(path=None, **overrides) -> SynthConfig:
    """A SynthConfig from a JSON file's fields (the defaults when path is
    None), with every non-None override replacing its field before the
    config is validated."""
    obj = {}
    if path is not None:
        with open(path, "rb") as fh:
            obj = json_object(fh.read(), path)
        unknown = sorted(set(obj) - {f.name for f in fields(SynthConfig)})
        if unknown:
            raise DataValidationError(
                f"{path}: unknown synth config fields: {unknown}"
            )
    obj.update((k, v) for k, v in overrides.items() if v is not None)
    try:
        return SynthConfig(**obj)
    except DataValidationError as exc:
        if path is None:
            raise
        raise DataValidationError(f"{path}: {exc}") from exc


def _reach_profile(length: int) -> np.ndarray:
    if length == 1:
        return np.zeros(1)
    u = np.arange(length) / (length - 1)
    return 3.0 * u**2 - 2.0 * u**3


def _segment_envelope(length: int, start: int, seg_len: int) -> np.ndarray:
    """Unit plateau over the segment, linear ramps over RAMP_FRAMES."""
    env = np.zeros(length)
    t = np.arange(start, start + seg_len)
    rise = (t - start + 1) / RAMP_FRAMES
    fall = (start + seg_len - t) / RAMP_FRAMES
    env[t] = np.minimum(1.0, np.minimum(rise, fall))
    return env


def generate_trial(
    config: SynthConfig,
    patient_id: str,
    side: str,
    rng: np.random.Generator,
    trial_index: int = 0,
) -> tuple[str, str, str, np.ndarray, np.ndarray]:
    """Generate one labelled trial, consuming randomness only from rng.

    Returns the trial's (trial_id, patient_id, side, frames, frame_labels)
    columns: frames (L, joints, 2) in pixels, labels over the L frames.
    The draw order is fixed (length, compensation coin, coverage, segment
    start, noise) so a trial is reproducible from its substream alone.
    """
    if side not in SIDES:
        raise DataValidationError(f"unknown side {side!r}")
    lo, hi = config.length_range
    length = int(rng.integers(lo, hi + 1))
    pos = np.tile(_BASE_POSE, (length, 1, 1))
    reach = _reach_profile(length)

    # the affected side exercises the right arm, the unaffected the left;
    # lateral motion mirrors accordingly
    if side == "affected":
        wrist, elbow = _WRIST_R, _ELBOW_R
        shoulder_ipsi, shoulder_contra = _SHOULDER_R, _SHOULDER_L
        lat = -1.0
        p_comp = config.compensation_probability_affected
    else:
        wrist, elbow = _WRIST_L, _ELBOW_L
        shoulder_ipsi, shoulder_contra = _SHOULDER_L, _SHOULDER_R
        lat = 1.0
        p_comp = config.compensation_probability_unaffected
    amp = config.motion_amplitude
    pos[:, wrist] += amp * reach[:, None] * np.array([-0.35 * lat, -0.94])
    pos[:, elbow] += 0.55 * amp * reach[:, None] * np.array([-0.25 * lat, -0.97])

    labels = np.full(length, LABEL_NORMAL, dtype=np.int64)
    if rng.random() < p_comp:
        clo, chi = config.compensation_coverage_range
        coverage = rng.uniform(clo, chi)
        seg_len = int(np.clip(round(coverage * length), 1, length))
        start = int(rng.integers(0, length - seg_len + 1))
        labels[start : start + seg_len] = LABEL_COMPENSATORY
        env = _segment_envelope(length, start, seg_len)
        comp = config.compensation_amplitude
        # compensation phenotype: head and trunk lean sideways, the
        # contralateral shoulder follows, the exercising shoulder hikes up
        pos[:, _HEAD, 0] += comp * env * lat
        pos[:, _NECK, 0] += 0.6 * comp * env * lat
        pos[:, shoulder_contra, 0] += 0.8 * comp * env * lat
        pos[:, shoulder_ipsi, 1] += -0.7 * comp * env

    pos += rng.normal(0.0, config.noise_std, pos.shape)
    return f"{patient_id}-{side}-{trial_index:02d}", patient_id, side, pos, labels


def generate_dataset(config: SynthConfig) -> DatasetManifest:
    """patient_count x 2 sides x trials_per_patient_per_side labelled trials."""
    rows = []
    for p in range(config.patient_count):
        patient_id = f"P{p:02d}"
        for s, side in enumerate(SIDES):
            for k in range(config.trials_per_patient_per_side):
                rows.append(generate_trial(
                    config, patient_id, side,
                    random_stream(config.seed, p, s, k), trial_index=k))
    return DatasetManifest.from_rows(rows, config.t_max, JointLayout(),
                                     config.seed)
