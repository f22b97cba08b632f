"""The 17 data-transformation evaluation datasets of Table 6 (sub. S7).

Analogues of AutoLearn's UCI datasets (fertility ... poker). Each
dataset plants the traits the transformation recommenders act on:

* features on wildly different scales (so a scaler matters),
* a numeric-shape trait (outliers / uniform / gaussian) deciding which
  scaler is near-optimal (matching the pipeline corpus's planted rule),
* log-/sqrt-skewed features whose *linearized* version carries the
  label signal (so unary transforms matter),

with sizes ramping so the AutoLearn-like baseline times out on the
large half (ids 24-29) and runs out of memory on poker (id 30), as in
the paper. The evaluation model is scale-sensitive multinomial logistic
regression (S9 in DESIGN.md).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd


@dataclass(frozen=True)
class TransformDatasetSpec:
    id: int
    name: str
    shape: str  # numeric-scale trait: outliers | uniform | gaussian
    rows: int
    n_classes: int = 2
    signal: float = 2.0
    noise: float = 1.0


SPECS: list[TransformDatasetSpec] = [
    TransformDatasetSpec(14, "fertility_Diagnosis", "gaussian", 120, signal=1.6),
    TransformDatasetSpec(15, "haberman", "outliers", 306, signal=1.0),
    TransformDatasetSpec(16, "wine", "gaussian", 178, n_classes=3, signal=3.2),
    TransformDatasetSpec(17, "Ecoli", "uniform", 336, n_classes=4, signal=2.4),
    TransformDatasetSpec(18, "pima_diabetes", "outliers", 768, signal=1.2),
    TransformDatasetSpec(19, "Banke_Note", "gaussian", 600, signal=4.0),
    TransformDatasetSpec(20, "ionosphere", "gaussian", 351, signal=2.6),
    TransformDatasetSpec(21, "sonar", "uniform", 208, signal=1.4),
    TransformDatasetSpec(22, "Abalone", "outliers", 1200, n_classes=8, signal=0.8),
    TransformDatasetSpec(23, "libras", "uniform", 360, n_classes=5, signal=2.0),
    TransformDatasetSpec(24, "waveform", "gaussian", 2500, n_classes=3, signal=1.8),
    TransformDatasetSpec(25, "letter_recognition", "uniform", 4000,
                         n_classes=10, signal=2.6),
    TransformDatasetSpec(26, "opticaldigits", "gaussian", 3500, n_classes=10,
                         signal=3.0),
    TransformDatasetSpec(27, "featurepixel", "gaussian", 3000, n_classes=10,
                         signal=3.0),
    TransformDatasetSpec(28, "shuttle", "outliers", 6000, n_classes=3, signal=4.5),
    TransformDatasetSpec(29, "featurefourier", "uniform", 4500, n_classes=10,
                         signal=2.0),
    TransformDatasetSpec(30, "poker", "uniform", 10000, n_classes=4, signal=1.2),
]


def build_dataset(
    spec: TransformDatasetSpec, seed: int = 0
) -> tuple[pd.DataFrame, dict[str, str]]:
    """Generate (dataset, ground-truth unary transforms per column)."""
    rng = np.random.default_rng(seed + spec.id * 777)
    n, k = spec.rows, 6
    latent = rng.normal(0, 1, (n, k))
    if spec.shape == "uniform":
        latent = rng.uniform(-1.7, 1.7, (n, k))
    cols: dict[str, np.ndarray] = {}
    truth: dict[str, str] = {}
    scales = 10.0 ** rng.integers(-2, 4, k)  # wildly different magnitudes
    for i in range(k):
        z = latent[:, i]
        if i % 3 == 2:
            # signal is linear in z, observed feature is exp-warped -> log helps
            cols[f"f{i}"] = np.exp(1.5 * z) * scales[i]
            truth[f"f{i}"] = "log"
        elif i % 3 == 1:
            cols[f"f{i}"] = np.square(z + 3.0) * scales[i]
            truth[f"f{i}"] = "sqrt"
        else:
            cols[f"f{i}"] = z * scales[i]
            truth[f"f{i}"] = "none"
        if spec.shape == "outliers":
            mask = rng.random(n) < 0.04
            cols[f"f{i}"] = np.where(mask, cols[f"f{i}"] * 25, cols[f"f{i}"])
    # label depends on the *latent* (i.e. transformed) features linearly,
    # so linearizing transforms genuinely improve a linear classifier
    w = rng.normal(0, spec.signal, k)
    logits = latent @ w + rng.normal(0, spec.noise, n)
    if spec.n_classes == 2:
        y = (logits > np.median(logits)).astype(int)
    else:
        qs = np.quantile(logits, np.linspace(0, 1, spec.n_classes + 1)[1:-1])
        y = np.digitize(logits, qs)
    pdf = pd.DataFrame({c: np.round(v, 6) for c, v in cols.items()})
    pdf["target"] = y
    return pdf, truth


# Paper Table 6: (baseline, autolearn_reported, autolearn_reproduced, kglids)
# reproduced value None = TO (>3h) or OOM in the paper's rerun.
PAPER_TABLE6 = {
    "fertility_Diagnosis": (82.00, 84.00, 86.12, 85.00),
    "haberman": (68.63, 65.34, 71.89, 71.92),
    "wine": (96.07, 97.20, 98.33, 97.17),
    "Ecoli": (82.73, 86.59, 81.23, 88.10),
    "pima_diabetes": (75.37, 73.05, 75.13, 75.14),
    "Banke_Note": (99.05, 99.56, 99.93, 98.91),
    "ionosphere": (93.15, 92.30, 93.46, 93.44),
    "sonar": (73.55, 77.87, 78.83, 78.86),
    "Abalone": (22.91, 22.21, 24.96, 24.56),
    "libras": (71.94, 70.22, 79.13, 81.39),
    "waveform": (82.10, 81.12, None, 85.00),
    "letter_recognition": (93.96, 94.14, None, 96.46),
    "opticaldigits": (96.38, 96.57, None, 98.10),
    "featurepixel": (95.5, 94.20, None, 97.65),
    "shuttle": (99.97, 99.81, None, 99.96),
    "featurefourier": (79.9, 79.31, None, 82.55),
    "poker": (68.1, 72.26, None, 75.32),
}
