"""Per-layer parameter counting, inference-memory estimation, and the
logistic regressor that decides on-device vs. offloaded inference.

The memory model is deliberately coarse: every parameter costs a fixed
number of bytes, `bytes_per_param` (default KB = 1024). The CLI's
`--n-batches`, `--batch-size` and `--kb-per-param` flags multiply into it.
All byte arithmetic uses Python integers, so totals never overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cnn
from .errors import DegenerateLabels, UnfittedModel, UnresolvedShape
from .rng import SplitMix64

KB = 1024

FEATURE_NAMES = (
    "total_params",
    "total_weights",
    "total_biases",
    "total_activations",
    "res_model_bytes",
    "res_node_bytes",
    "res_node_minus_model",
)

ON_DEVICE = "OnDevice"
OFFLOAD = "Offload"

_FIT_ITERATIONS = 500
_FIT_RATE = 0.1


@dataclass(frozen=True)
class ParamProfile:
    """Learnable-parameter count per layer plus the total."""

    per_layer: tuple[int, ...]
    total: int


@dataclass
class RegressorModel:
    """Linear model with sigmoid link over standardized features.

    beta holds one weight per feature plus a trailing bias term; mean/std are
    the training-set standardization constants.
    """

    beta: np.ndarray
    feature_names: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray


@dataclass(frozen=True)
class OffloadDecision:
    verdict: str   # ON_DEVICE or OFFLOAD
    score: float   # in [0, 1]; ON_DEVICE iff score >= 0.5


def count_layer_params(layer: cnn.LayerSpec) -> int:
    """Learnable parameters of one layer.

    Conv: (kernel area * input channels + 1 bias) per filter.
    Dense/Softmax: one weight per input-output pair plus one bias per unit.
    Input, Pool and Flatten have none.
    """
    if layer.kind == cnn.KIND_CONV:
        if layer.in_channels is None:
            raise UnresolvedShape("Conv layer needs in_channels resolved")
        return (layer.kernel_w * layer.kernel_h * layer.in_channels + 1) * layer.filters
    if layer.kind in (cnn.KIND_DENSE, cnn.KIND_SOFTMAX):
        if layer.prev_units is None:
            raise UnresolvedShape(f"{layer.kind} layer needs prev_units resolved")
        return layer.units * layer.prev_units + layer.units
    return 0


def count_model_params(spec: cnn.ModelSpec) -> ParamProfile:
    """Per-layer counts in layer order; resolves the spec first."""
    return _param_profile(cnn.resolve_spec(spec))


def _param_profile(rspec: cnn.ModelSpec) -> ParamProfile:
    per_layer = tuple(count_layer_params(layer) for layer in rspec.layers)
    return ParamProfile(per_layer, sum(per_layer))


def _layer_bytes(profile: ParamProfile, bytes_per_param: int) -> list[int]:
    if bytes_per_param < 1:
        raise ValueError(f"bytes_per_param must be >= 1, got {bytes_per_param}")
    return [count * bytes_per_param for count in profile.per_layer]


def layer_bytes(spec: cnn.ModelSpec, *, bytes_per_param: int = KB) -> list[int]:
    """Bytes each layer needs to host inference: its parameters times
    `bytes_per_param`. A `bytes_per_param` below 1 raises ValueError."""
    return _layer_bytes(count_model_params(spec), bytes_per_param)


def model_bytes(spec: cnn.ModelSpec, *, bytes_per_param: int = KB) -> int:
    return sum(layer_bytes(spec, bytes_per_param=bytes_per_param))


# --- feature assembly -------------------------------------------------------------

def feature_vector(spec: cnn.ModelSpec, node_free_bytes: int, *,
                   bytes_per_param: int = KB) -> np.ndarray:
    """Regressor input in FEATURE_NAMES order. total_activations counts every
    layer's output elements, the input passthrough included."""
    rspec = cnn.resolve_spec(spec)
    profile = _param_profile(rspec)
    mem = sum(_layer_bytes(profile, bytes_per_param))
    return _features(rspec, profile, mem, node_free_bytes)


def _features(rspec: cnn.ModelSpec, profile: ParamProfile, mem: int,
              node_free_bytes: int) -> np.ndarray:
    """feature_vector's row for a resolved spec, its profile and model bytes.
    A layer with parameters has one bias per output channel or unit."""
    biases = sum(layer.out_shape[-1]
                 for layer, count in zip(rspec.layers, profile.per_layer) if count)
    weights = profile.total - biases
    activations = sum(math.prod(layer.out_shape) for layer in rspec.layers)
    return np.array([profile.total, weights, biases, activations,
                     mem, node_free_bytes, node_free_bytes - mem],
                    dtype=np.float64)


def sample_model_spec(rng: SplitMix64) -> cnn.ModelSpec:
    """Random small-but-valid model spec: optional conv/pool stages, an
    optional dense layer, and a softmax head."""
    side = 6 + rng.randint(11)
    channels = 1 + rng.randint(2)
    layers = [cnn.LayerSpec(cnn.KIND_INPUT)]
    cur = (side, side, channels)
    for _ in range(rng.randint(3)):
        max_k = min(3, cur[0], cur[1])
        if max_k < 1:
            break
        k = 1 + rng.randint(max_k)
        filters = 1 + rng.randint(8)
        act = "relu" if rng.randint(2) else "none"
        layers.append(cnn.LayerSpec(cnn.KIND_CONV, kernel_w=k, kernel_h=k,
                                    filters=filters, activation=act))
        cur = (cur[0] - k + 1, cur[1] - k + 1, filters)
        if rng.randint(2) and min(cur[0], cur[1]) >= 2:
            layers.append(cnn.LayerSpec(cnn.KIND_POOL, pool_window=2))
            cur = (cur[0] // 2, cur[1] // 2, cur[2])
    layers.append(cnn.LayerSpec(cnn.KIND_FLATTEN))
    if rng.randint(2):
        act = "relu" if rng.randint(2) else "none"
        layers.append(cnn.LayerSpec(cnn.KIND_DENSE, units=2 + rng.randint(15),
                                    activation=act))
    layers.append(cnn.LayerSpec(cnn.KIND_SOFTMAX, units=2 + rng.randint(7)))
    return cnn.ModelSpec((side, side, channels), tuple(layers))


def build_regressor_dataset(seed: int, n_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample random specs and node capacities; the label is the ground-truth
    comparator: 1 (fits on device) iff model bytes <= node free bytes.

    Two distribution choices keep the target learnable by a linear model at
    the fixed fitting budget: batch scaling lands every model's memory in a
    bounded 1..16 MB window (raw byte features would otherwise span four
    orders of magnitude and drown small models in the standardization), and
    node capacities stay at least 10% away from the boundary except for the
    one case in ten that pins node == model exactly, which trains the tie
    rule (<= means on-device).
    """
    if n_samples < 10:
        raise ValueError("n_samples must be >= 10")
    rng = SplitMix64(seed)
    xs = np.zeros((n_samples, len(FEATURE_NAMES)), dtype=np.float64)
    ys = np.zeros(n_samples, dtype=np.float64)
    for i in range(n_samples):
        rspec = cnn.resolve_spec(sample_model_spec(rng))
        profile = _param_profile(rspec)
        target = (1 + rng.randint(16)) * 1024 * KB
        scale = max(1, round(target / (profile.total * KB)))
        # this draw selects nothing, since (1, scale) and (scale, 1) batches
        # cost the same bytes; it stays so that the stream, and with it the
        # dataset, does not move
        rng.randint(2)
        mem = profile.total * scale * KB
        roll = rng.randint(10)
        if roll == 0:
            node = mem
        elif roll <= 4:
            node = int(mem * rng.uniform(0.2, 0.9))
        else:
            node = int(mem * rng.uniform(1.1, 1.8))
        xs[i] = _features(rspec, profile, mem, node)
        ys[i] = 1.0 if mem <= node else 0.0
    return xs, ys


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def fit_regressor(dataset: tuple[np.ndarray, np.ndarray]) -> RegressorModel:
    """Gradient descent on the mean log-loss: fixed 500 iterations at rate
    0.1, features standardized by training mean/std. Deterministic."""
    xs, ys = dataset
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if not (np.any(ys == 0.0) and np.any(ys == 1.0)):
        raise DegenerateLabels("need both label classes to fit")
    mean = xs.mean(axis=0)
    std = xs.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    xn = (xs - mean) / std
    n, d = xn.shape
    design = np.hstack([xn, np.ones((n, 1))])
    beta = np.zeros(d + 1, dtype=np.float64)
    for _ in range(_FIT_ITERATIONS):
        p = _sigmoid(design @ beta)
        grad = design.T @ (p - ys) / n
        beta -= _FIT_RATE * grad
    return RegressorModel(beta, FEATURE_NAMES, mean, std)


def regressor_score(reg: RegressorModel, features: np.ndarray) -> float:
    xn = (np.asarray(features, dtype=np.float64) - reg.mean) / reg.std
    z = float(xn @ reg.beta[:-1] + reg.beta[-1])
    return float(_sigmoid(np.array([z]))[0])


def predict_offload(reg: RegressorModel | None, spec: cnn.ModelSpec,
                    node_free_bytes: int, *,
                    bytes_per_param: int = KB) -> OffloadDecision:
    """Assemble the feature vector, apply the fitted model, threshold at 0.5."""
    if reg is None or reg.beta is None or len(reg.beta) != len(FEATURE_NAMES) + 1:
        raise UnfittedModel("predict_offload needs a fitted regressor")
    feats = feature_vector(spec, node_free_bytes, bytes_per_param=bytes_per_param)
    score = regressor_score(reg, feats)
    verdict = ON_DEVICE if score >= 0.5 else OFFLOAD
    return OffloadDecision(verdict, score)


# --- JSON interchange ---------------------------------------------------------------

def regressor_to_json(reg: RegressorModel) -> dict:
    return {
        "beta": [float(v) for v in reg.beta],
        "feature_names": list(reg.feature_names),
        "mean": [float(v) for v in reg.mean],
        "std": [float(v) for v in reg.std],
    }


def regressor_from_json(doc: dict) -> RegressorModel:
    reg = RegressorModel(
        np.asarray(doc["beta"], dtype=np.float64),
        tuple(doc["feature_names"]),
        np.asarray(doc["mean"], dtype=np.float64),
        np.asarray(doc["std"], dtype=np.float64),
    )
    if reg.feature_names != FEATURE_NAMES:
        raise ValueError(f"regressor features must be {list(FEATURE_NAMES)}")
    n = len(FEATURE_NAMES)
    if reg.beta.shape != (n + 1,) or reg.mean.shape != (n,) or reg.std.shape != (n,):
        raise ValueError("regressor needs a mean, a std and a weight per feature,"
                         " plus a bias")
    if not (np.isfinite(np.concatenate([reg.beta, reg.mean, reg.std])).all()
            and (reg.std > 0.0).all()):
        raise ValueError("regressor values must be finite, and each std > 0")
    return reg
