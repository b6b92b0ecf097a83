import json
from pathlib import Path

import numpy as np
import pytest

from edgemal import cnn, partitioning
from edgemal.cli import data_path
from edgemal.rng import SplitMix64

# input counts for random inference cases: a few inputs, and each side of
# one and of two `cnn.forward_batch` chunks
INPUT_COUNTS = (1, 2, 3, cnn.FORWARD_CHUNK - 1, cnn.FORWARD_CHUNK,
                cnn.FORWARD_CHUNK + 1, 2 * cnn.FORWARD_CHUNK + 1)


@pytest.fixture(scope="session")
def default_spec() -> cnn.ModelSpec:
    return cnn.load_spec(data_path("default_model.json"))


@pytest.fixture(scope="session")
def tiny_spec() -> cnn.ModelSpec:
    return cnn.ModelSpec((6, 6, 1), (
        cnn.LayerSpec("Input"),
        cnn.LayerSpec("Conv", kernel_w=3, kernel_h=3, filters=2, activation="relu"),
        cnn.LayerSpec("Pool", pool_window=2),
        cnn.LayerSpec("Flatten"),
        cnn.LayerSpec("Dense", units=5, activation="relu"),
        cnn.LayerSpec("Softmax", units=3),
    ))


def rand_tensor(shape, seed, lo=0.0, hi=1.0) -> cnn.Tensor:
    """Deterministic test input: SplitMix64 uniforms in row-major order."""
    draws = SplitMix64(seed).uniforms(int(np.prod(shape)), lo, hi)
    return cnn.Tensor(draws.astype(np.float32).reshape(shape))


def node_profiles(budgets) -> list[partitioning.NodeProfile]:
    """Nodes for `partition_layers` from (node id, free bytes) pairs; it reads
    nothing else of a node."""
    return [partitioning.NodeProfile(node_id, free, 1.0) for node_id, free in budgets]


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def count_forward_batch(monkeypatch) -> list:
    """Records the input count of every `cnn.forward_batch` call from here on."""
    calls = []
    original = cnn.forward_batch

    def counting(model, xs):
        calls.append(len(xs))
        return original(model, xs)

    monkeypatch.setattr(cnn, "forward_batch", counting)
    return calls
