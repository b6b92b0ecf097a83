import hashlib
import json

import numpy as np
import pytest

from edgemal import cnn, resources
from edgemal.errors import DegenerateLabels, UnfittedModel, UnresolvedShape
from edgemal.rng import SplitMix64


# --- parameter counting ---

def test_conv_count_example():
    layer = cnn.LayerSpec("Conv", kernel_w=3, kernel_h=3, filters=32, in_channels=1)
    assert resources.count_layer_params(layer) == 320


def test_dense_count_example():
    layer = cnn.LayerSpec("Dense", units=10, prev_units=128)
    assert resources.count_layer_params(layer) == 1290


def test_pool_has_no_params():
    assert resources.count_layer_params(cnn.LayerSpec("Pool", pool_window=2)) == 0
    assert resources.count_layer_params(cnn.LayerSpec("Input")) == 0
    assert resources.count_layer_params(cnn.LayerSpec("Flatten")) == 0


def test_unresolved_shape_raises():
    with pytest.raises(UnresolvedShape):
        resources.count_layer_params(cnn.LayerSpec("Conv", kernel_w=3,
                                                   kernel_h=3, filters=4))
    with pytest.raises(UnresolvedShape):
        resources.count_layer_params(cnn.LayerSpec("Dense", units=4))


def test_minimal_spec_profile():
    spec = cnn.ModelSpec((1, 1, 1), (
        cnn.LayerSpec("Input"),
        cnn.LayerSpec("Pool", pool_window=1),
        cnn.LayerSpec("Flatten"),
        cnn.LayerSpec("Softmax", units=1),
    ))
    profile = resources.count_model_params(spec)
    assert profile.per_layer == (0, 0, 0, 2)
    assert profile.total == 2


def test_counts_match_enumeration(default_spec):
    rng = SplitMix64(17)
    specs = [default_spec] + [resources.sample_model_spec(rng) for _ in range(50)]
    for i, spec in enumerate(specs):
        profile = resources.count_model_params(spec)
        model = cnn.build_model(spec, i)
        enumerated = sum(lw.weight.array.size + lw.bias.array.size
                         for lw in model.weights.values())
        assert profile.total == enumerated
        for idx, lw in model.weights.items():
            assert profile.per_layer[idx] == lw.weight.array.size + lw.bias.array.size


# --- memory estimation ---

def _dense_spec(inputs: int, units: int) -> cnn.ModelSpec:
    """Input, Flatten and a Softmax head: (inputs + 1) x units parameters."""
    return cnn.ModelSpec((inputs, 1, 1), (cnn.LayerSpec("Input"),
                                          cnn.LayerSpec("Flatten"),
                                          cnn.LayerSpec("Softmax", units=units)))


def test_memory_example():
    spec = _dense_spec(999, 5)  # 5000 parameters
    assert resources.model_bytes(spec) == 5_120_000
    assert resources.layer_bytes(spec) == [0, 0, 5_120_000]


def test_memory_zero_params():
    spec = cnn.ModelSpec((1, 1, 1), (
        cnn.LayerSpec("Input"),
        cnn.LayerSpec("Pool", pool_window=1),
        cnn.LayerSpec("Flatten"),
        cnn.LayerSpec("Softmax", units=1),
    ))
    assert resources.layer_bytes(spec) == [0, 0, 0, 2 * 1024]


def test_memory_linearity():
    spec = _dense_spec(99, 1)  # 100 parameters
    base = resources.model_bytes(spec)
    for factor in (2, 3, 4):
        assert resources.model_bytes(
            spec, bytes_per_param=factor * resources.KB) == factor * base
    assert resources.model_bytes(spec, bytes_per_param=1) == 100


def test_memory_no_overflow(default_spec):
    huge = 10 ** 24 * resources.KB
    assert resources.model_bytes(default_spec, bytes_per_param=huge) == 8744 * huge
    assert resources.feature_vector(default_spec, 0, bytes_per_param=huge)[
        resources.FEATURE_NAMES.index("res_model_bytes")] == float(8744 * huge)


def test_layer_bytes_sum_to_model_bytes(default_spec):
    per = resources.layer_bytes(default_spec)
    assert sum(per) == resources.model_bytes(default_spec) == 8_953_856


@pytest.mark.parametrize("scale", [{"bytes_per_param": 0}, {"bytes_per_param": -1},
                                   {"bytes_per_param": -resources.KB}])
def test_memory_scale_must_be_positive(default_spec, scale):
    with pytest.raises(ValueError):
        resources.layer_bytes(default_spec, **scale)
    with pytest.raises(ValueError):
        resources.model_bytes(default_spec, **scale)
    with pytest.raises(ValueError):
        resources.feature_vector(default_spec, 0, **scale)


# --- regressor dataset ---

def test_dataset_deterministic():
    a = resources.build_regressor_dataset(3, 50)
    b = resources.build_regressor_dataset(3, 50)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_dataset_bytes_pinned():
    """sha256 of xs then ys, measured when every sample resolved its spec
    once per use (four times); the integer arithmetic must not move."""
    xs, ys = resources.build_regressor_dataset(42, 600)
    digest = hashlib.sha256(xs.tobytes() + ys.tobytes()).hexdigest()
    assert digest == "f7ec95f24635d332f3621e24b32eba206f71e69b37e11e7ea54e73969f2e8a5a"


def test_dataset_labels_follow_comparator():
    xs, ys = resources.build_regressor_dataset(5, 200)
    mem = xs[:, resources.FEATURE_NAMES.index("res_model_bytes")]
    node = xs[:, resources.FEATURE_NAMES.index("res_node_bytes")]
    assert np.array_equal(ys, (mem <= node).astype(np.float64))
    assert ys.min() == 0.0 and ys.max() == 1.0


def test_feature_weights_and_biases_match_enumeration(default_spec):
    rng = SplitMix64(23)
    specs = [default_spec] + [resources.sample_model_spec(rng) for _ in range(50)]
    index = {name: resources.FEATURE_NAMES.index(name)
             for name in ("total_weights", "total_biases")}
    for i, spec in enumerate(specs):
        weights = cnn.build_model(spec, i).weights.values()
        feats = resources.feature_vector(spec, 0)
        assert feats[index["total_weights"]] == sum(lw.weight.array.size for lw in weights)
        assert feats[index["total_biases"]] == sum(lw.bias.array.size for lw in weights)


def test_zero_capacity_labels_offload(default_spec):
    feats = resources.feature_vector(default_spec, 0)
    assert feats[resources.FEATURE_NAMES.index("res_node_minus_model")] < 0


# --- fitting and prediction ---

@pytest.fixture(scope="module")
def fitted():
    return resources.fit_regressor(resources.build_regressor_dataset(11, 600))


def test_fit_deterministic(fitted):
    again = resources.fit_regressor(resources.build_regressor_dataset(11, 600))
    assert np.array_equal(fitted.beta, again.beta)
    assert np.array_equal(fitted.mean, again.mean)


def test_fit_needs_both_classes():
    xs = np.ones((20, len(resources.FEATURE_NAMES)))
    ys = np.ones(20)
    with pytest.raises(DegenerateLabels):
        resources.fit_regressor((xs, ys))


def test_identical_features_mixed_labels_score_half():
    xs = np.ones((40, len(resources.FEATURE_NAMES)))
    ys = np.array([i % 2 for i in range(40)], dtype=np.float64)
    reg = resources.fit_regressor((xs, ys))
    score = resources.regressor_score(reg, xs[0])
    assert score == pytest.approx(0.5, abs=1e-9)


def test_held_out_agreement(fitted):
    xs, ys = resources.build_regressor_dataset(99, 1000)
    hits = 0
    for x, y in zip(xs, ys):
        pred = 1.0 if resources.regressor_score(fitted, x) >= 0.5 else 0.0
        hits += pred == y
    assert hits / len(ys) >= 0.95


def test_predict_examples(fitted, default_spec):
    mem = resources.model_bytes(default_spec)
    roomy = resources.predict_offload(fitted, default_spec, 10 * mem)
    assert roomy.verdict == resources.ON_DEVICE
    assert roomy.score >= 0.5
    starved = resources.predict_offload(fitted, default_spec, 0)
    assert starved.verdict == resources.OFFLOAD
    assert starved.score < 0.5


def test_predict_boundary_ties(fitted):
    rng = SplitMix64(7)
    hits = 0
    for _ in range(100):
        spec = resources.sample_model_spec(rng)
        mem = resources.model_bytes(spec)
        decision = resources.predict_offload(fitted, spec, mem)
        hits += decision.verdict == resources.ON_DEVICE
    assert hits >= 95


def test_predict_is_pure(fitted, default_spec):
    a = resources.predict_offload(fitted, default_spec, 123456789)
    b = resources.predict_offload(fitted, default_spec, 123456789)
    assert a == b


def test_unfitted_model_rejected(default_spec):
    with pytest.raises(UnfittedModel):
        resources.predict_offload(None, default_spec, 1000)


def test_regressor_json_round_trip(fitted):
    back = resources.regressor_from_json(
        json.loads(json.dumps(resources.regressor_to_json(fitted))))
    assert np.array_equal(back.beta, fitted.beta)
    assert back.feature_names == fitted.feature_names
    assert np.array_equal(back.mean, fitted.mean)
    assert np.array_equal(back.std, fitted.std)
