import hashlib
import json
import math
import sys
import threading

import numpy as np
import pytest

from edgemal import cnn, resources
from edgemal.errors import (
    EmptyCorpus,
    LabelOutOfRange,
    ShapeMismatch,
    Unsupported,
)
from edgemal.rng import SplitMix64

from conftest import rand_tensor, read_json


# --- spec resolution and model construction ---

def test_default_spec_shape_chain(default_spec):
    shapes = [layer.out_shape for layer in cnn.resolve_spec(default_spec).layers]
    assert len(shapes) == 11
    assert shapes == [
        (32, 32, 1), (30, 30, 8), (15, 15, 8), (13, 13, 8), (6, 6, 8),
        (4, 4, 16), (2, 2, 16), (64,), (64,), (6,), (6,),
    ]


def test_build_model_default(default_spec):
    model = cnn.build_model(default_spec, 7)
    assert len(model.spec.layers) == 11
    total = sum(w.weight.array.size + w.bias.array.size
                for w in model.weights.values())
    assert total == 8744
    for lw in model.weights.values():
        assert float(np.abs(lw.weight.array).max()) <= 0.05
        assert float(np.abs(lw.bias.array).max()) <= 0.05


def test_build_model_seed_determinism(default_spec):
    m1 = cnn.build_model(default_spec, 7)
    m2 = cnn.build_model(default_spec, 7)
    for i in m1.weights:
        assert np.array_equal(m1.weights[i].weight.array, m2.weights[i].weight.array)
        assert np.array_equal(m1.weights[i].bias.array, m2.weights[i].bias.array)
    m3 = cnn.build_model(default_spec, 8)
    assert not np.array_equal(m3.weights[1].weight.array,
                              m1.weights[1].weight.array)


def test_build_model_matches_scalar_init(default_spec):
    """Bulk init equals one `uniform` draw per element in C order, weights
    then bias, layer by layer."""
    model = cnn.build_model(default_spec, 42)
    rng = SplitMix64(42)
    span = cnn.WEIGHT_INIT_SPAN
    for i in sorted(model.weights):
        for tensor in (model.weights[i].weight, model.weights[i].bias):
            ref = np.array([np.float32(rng.uniform(-span, span))
                            for _ in range(tensor.array.size)], dtype=np.float32)
            assert tensor.array.tobytes() == ref.reshape(tensor.array.shape).tobytes()


def test_bad_prev_units_rejected():
    spec = cnn.ModelSpec((4, 4, 1), (
        cnn.LayerSpec("Input"),
        cnn.LayerSpec("Flatten"),
        cnn.LayerSpec("Dense", units=3, prev_units=99),
        cnn.LayerSpec("Softmax", units=2),
    ))
    with pytest.raises(ShapeMismatch):
        cnn.build_model(spec, 1)


def test_unknown_kind_rejected():
    spec = cnn.ModelSpec((4, 4, 1), (
        cnn.LayerSpec("Input"),
        cnn.LayerSpec("Blur"),
        cnn.LayerSpec("Softmax", units=2),
    ))
    with pytest.raises(Unsupported):
        cnn.build_model(spec, 1)


def test_first_and_last_layer_enforced():
    with pytest.raises(ShapeMismatch):
        cnn.resolve_spec(cnn.ModelSpec((4, 4, 1), (
            cnn.LayerSpec("Flatten"), cnn.LayerSpec("Softmax", units=2))))
    with pytest.raises(ShapeMismatch):
        cnn.resolve_spec(cnn.ModelSpec((4, 4, 1), (
            cnn.LayerSpec("Input"), cnn.LayerSpec("Flatten"),
            cnn.LayerSpec("Dense", units=2))))


def test_softmax_only_as_the_last_layer():
    with pytest.raises(ShapeMismatch, match="Softmax allowed only as the last layer"):
        cnn.resolve_spec(cnn.ModelSpec((4, 4, 1), (
            cnn.LayerSpec("Input"), cnn.LayerSpec("Flatten"),
            cnn.LayerSpec("Softmax", units=3), cnn.LayerSpec("Softmax", units=2))))
    with pytest.raises(Unsupported, match="reserved for the Softmax layer"):
        cnn.resolve_spec(cnn.ModelSpec((4, 4, 1), (
            cnn.LayerSpec("Input"), cnn.LayerSpec("Flatten"),
            cnn.LayerSpec("Dense", units=3, activation="softmax"),
            cnn.LayerSpec("Softmax", units=2))))


# --- forward ---

def test_zero_weights_give_uniform_probs(default_spec):
    model = cnn.build_model(default_spec, 1)
    for lw in model.weights.values():
        lw.weight = cnn.Tensor(np.zeros_like(lw.weight.array))
        lw.bias = cnn.Tensor(np.zeros_like(lw.bias.array))
    probs = cnn.forward(model, rand_tensor((32, 32, 1), 5)).array
    assert np.allclose(probs, 1.0 / 6.0, atol=1e-9)


def test_probability_vector_invariant(default_spec):
    # the normalization itself is exact in float64; rounding the six entries
    # to float32 storage costs up to ~4e-7, so that is the testable bound
    for seed in range(20):
        model = cnn.build_model(default_spec, seed)
        probs = cnn.forward(model, rand_tensor((32, 32, 1), seed + 100)).array
        assert probs.shape == (6,)
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)
        assert abs(float(probs.sum()) - 1.0) <= 1e-6


def test_forward_is_pure(default_spec):
    model = cnn.build_model(default_spec, 3)
    x = rand_tensor((32, 32, 1), 4)
    out1 = cnn.forward(model, x).array
    out2 = cnn.forward(model, x).array
    assert np.array_equal(out1, out2)


def test_forward_wrong_shape(default_spec):
    model = cnn.build_model(default_spec, 3)
    with pytest.raises(ShapeMismatch):
        cnn.forward(model, rand_tensor((16, 16, 1), 0))


def test_composition_equals_forward(default_spec, tiny_spec):
    for spec, seed in ((default_spec, 0), (tiny_spec, 1)):
        model = cnn.build_model(spec, seed)
        x = rand_tensor(spec.input_shape, seed + 50)
        act = x
        for i, layer in enumerate(model.spec.layers):
            act = cnn.layer_forward(layer, model.weights.get(i), act)
        assert np.array_equal(act.array, cnn.forward(model, x).array)


def test_golden_sample_prediction(default_spec):
    from edgemal import features
    from edgemal.cli import data_path

    model = cnn.weights_from_json(
        read_json(data_path("trained", "default_weights.json")), default_spec)
    golden = read_json(data_path("trained", "golden_sample.json"))
    img = features.GrayImage(golden["side"],
                             np.asarray(golden["pixels"], dtype=np.uint8),
                             golden["label"])
    probs = cnn.forward(model, features.image_to_tensor(img)).array
    assert int(np.argmax(probs)) == golden["label"]


# --- layer_forward ---

def test_relu_clamps_negatives():
    layer = cnn.LayerSpec("Dense", units=3, prev_units=3, activation="relu",
                          out_shape=(3,))
    weights = cnn.LayerWeights(cnn.Tensor(np.eye(3, dtype=np.float32)),
                               cnn.Tensor(np.zeros(3, dtype=np.float32)))
    out = cnn.layer_forward(layer, weights, cnn.Tensor(np.array([-1.0, 0.0, 2.0],
                                                                dtype=np.float32)))
    assert out.array.tolist() == [0.0, 0.0, 2.0]


def test_relu_idempotent():
    layer = cnn.LayerSpec("Dense", units=4, prev_units=4, activation="relu",
                          out_shape=(4,))
    weights = cnn.LayerWeights(cnn.Tensor(np.eye(4, dtype=np.float32)),
                               cnn.Tensor(np.zeros(4, dtype=np.float32)))
    x = cnn.Tensor(np.array([-2.0, -0.5, 0.5, 3.0], dtype=np.float32))
    once = cnn.layer_forward(layer, weights, x)
    twice = cnn.layer_forward(layer, weights, once)
    assert np.array_equal(once.array, twice.array)


def test_identity_conv():
    layer = cnn.LayerSpec("Conv", kernel_w=1, kernel_h=1, filters=1,
                          in_channels=1, out_shape=(3, 3, 1))
    weights = cnn.LayerWeights(
        cnn.Tensor(np.ones((1, 1, 1, 1), dtype=np.float32)),
        cnn.Tensor(np.zeros(1, dtype=np.float32)))
    x = rand_tensor((3, 3, 1), 9)
    out = cnn.layer_forward(layer, weights, x)
    assert np.array_equal(out.array, x.array)


def test_ones_conv_sums_window():
    layer = cnn.LayerSpec("Conv", kernel_w=3, kernel_h=3, filters=1,
                          in_channels=1, out_shape=(3, 3, 1))
    weights = cnn.LayerWeights(
        cnn.Tensor(np.ones((3, 3, 1, 1), dtype=np.float32)),
        cnn.Tensor(np.zeros(1, dtype=np.float32)))
    out = cnn.layer_forward(layer, weights,
                            cnn.Tensor(np.ones((5, 5, 1), dtype=np.float32)))
    assert out.shape == (3, 3, 1)
    assert np.all(out.array == 9.0)


def test_pool_of_constant_region():
    layer = cnn.LayerSpec("Pool", pool_window=2, out_shape=(2, 2, 1))
    x = cnn.Tensor(np.full((4, 4, 1), 3.5, dtype=np.float32))
    out = cnn.layer_forward(layer, None, x)
    assert np.all(out.array == 3.5)


def test_pool_takes_max():
    layer = cnn.LayerSpec("Pool", pool_window=2, out_shape=(1, 1, 1))
    x = cnn.Tensor(np.array([[1.0, 4.0], [3.0, 2.0]],
                            dtype=np.float32).reshape(2, 2, 1))
    out = cnn.layer_forward(layer, None, x)
    assert out.array.ravel().tolist() == [4.0]


# --- fast kernels against the reference im2col and pool ---
#
# The references are the earlier kernels: im2col through sliding_window_view
# plus a transposed reshape, pooling through a reshape and max. The fast
# kernels must match them bit for bit, in float32 and in float64.

def _ref_conv_cols(a, kh, kw):
    windows = np.lib.stride_tricks.sliding_window_view(a, (kh, kw), axis=(0, 1))
    oh, ow = windows.shape[0], windows.shape[1]
    return windows.transpose(0, 1, 3, 4, 2).reshape(oh * ow, kh * kw * a.shape[2])


def _ref_apply_conv(layer, w, b, a, out_dtype, c_order=False):
    """The earlier conv kernel. For a kw == 1 kernel on one channel its
    im2col reshape is a view, so astype handed BLAS an F-ordered operand;
    c_order=True passes the C-ordered operand every other shape gets."""
    kh, kw, f = layer.kernel_h, layer.kernel_w, layer.filters
    oh, ow = a.shape[0] - kh + 1, a.shape[1] - kw + 1
    cols = _ref_conv_cols(a, kh, kw).astype(np.float64)
    if c_order:
        cols = np.ascontiguousarray(cols)
    w2 = w.reshape(kh * kw * a.shape[2], f).astype(np.float64)
    z = (cols @ w2 + b.astype(np.float64)).reshape(oh, ow, f)
    if layer.activation == "relu":
        z = np.maximum(z, 0.0)
    return z.astype(out_dtype)


def _ref_pool(a, win):
    oh, ow = a.shape[0] // win, a.shape[1] // win
    return a[: oh * win, : ow * win, :].reshape(oh, win, ow, win, a.shape[2]) \
        .max(axis=(1, 3))


def _bits(arr):
    return arr.view(np.uint64 if arr.dtype == np.float64 else np.uint32)


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(_bits(np.ascontiguousarray(got)),
                          _bits(np.ascontiguousarray(want)))


def _draws(shape, seed, dtype):
    n = int(np.prod(shape))
    return SplitMix64(seed).uniforms(n, -2.0, 2.0).astype(dtype).reshape(shape)


_KERNEL_SIZES = ((3, 3), (5, 7), (6, 4), (11, 9))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c", [1, 3, 8])
def test_conv_kernel_matches_reference_bits(dtype, c):
    seed = 0
    for h, w in _KERNEL_SIZES:
        for kh in (1, 2, 3):
            for kw in (1, 2, 3):
                seed += 1
                a = _draws((h, w, c), seed, dtype)
                _assert_same_bits(cnn._conv_cols(a, kh, kw), _ref_conv_cols(a, kh, kw))
                f = 1 + seed % 5
                wt = _draws((kh, kw, c, f), seed + 1000, dtype)
                b = _draws((f,), seed + 2000, dtype)
                # Float64 products round, so the BLAS kernel an operand layout
                # selects can show in the last bit. Float32 inputs multiply
                # exactly in float64: that path matches the earlier kernel
                # on every shape here.
                c_order = dtype == np.float64 and kw == 1 and c == 1
                for act in ("none", "relu"):
                    layer = cnn.LayerSpec("Conv", kernel_h=kh, kernel_w=kw,
                                          filters=f, activation=act)
                    _assert_same_bits(cnn._apply_conv(layer, wt, b, a, dtype),
                                      _ref_apply_conv(layer, wt, b, a, dtype, c_order))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c", [1, 3, 8])
def test_pool_kernel_matches_reference_bits(dtype, c):
    seed = 100
    for h, w in _KERNEL_SIZES:
        for win in (1, 2, 3):
            seed += 1
            a = _draws((h, w, c), seed, dtype)
            got = cnn._apply_pool(cnn.LayerSpec("Pool", pool_window=win), a)
            _assert_same_bits(got, _ref_pool(a, win))
            assert not np.shares_memory(got, a)


def test_im2col_index_cached_read_only():
    idx = cnn._im2col_index(5, 4, 3, 2, 3)
    assert idx is cnn._im2col_index(5, 4, 3, 2, 3)
    assert not idx.flags.writeable
    a = _draws((5, 4, 3), 1, np.float64)
    cols = cnn._conv_cols(a, 2, 3)
    cols[:] = 0.0  # the gather is a copy: the input stays untouched
    assert np.array_equal(a, _draws((5, 4, 3), 1, np.float64))
    col2im = cnn._col2im_index(5, 4, 3, 2, 3)
    assert col2im is cnn._col2im_index(5, 4, 3, 2, 3)
    assert not col2im.flags.writeable
    # (kh*kw, c, oh*ow) order: the patch element index varies slowest
    assert np.array_equal(col2im, idx.T.ravel())
    base = cnn._pool_base_index(7, 5, 3, 2)
    assert base is cnn._pool_base_index(7, 5, 3, 2)
    assert not base.flags.writeable
    # the (0, 0) element of every 2x2 window, in the pool output's layout
    flat = np.arange(7 * 5 * 3).reshape(7, 5, 3)
    assert np.array_equal(base, flat[:6:2, :4:2])


# --- fast backward kernels against the reference col2im and pool backward ---
#
# The references are the earlier kernels: col2im as a loop of slice adds over
# the kernel offsets, pool backward through a reshape, transpose, argmax and
# put_along_axis. The fast kernels, per sample and batched, must match them
# bit for bit in float64, the training precision. The batched steps run on
# the stack of _tie_inputs, with one spare row in their buffers.

def _ref_conv_backward(layer, a_prev, dz, weight):
    kh, kw, f = layer.kernel_h, layer.kernel_w, layer.filters
    cin = a_prev.shape[2]
    oh, ow = dz.shape[0], dz.shape[1]
    cols = np.ascontiguousarray(_ref_conv_cols(a_prev, kh, kw))
    dz2 = dz.reshape(oh * ow, f)
    dw = (cols.T @ dz2).reshape(kh, kw, cin, f)
    db = dz2.sum(axis=0)
    dcols = (dz2 @ weight.reshape(kh * kw * cin, f).T).reshape(oh, ow, kh, kw, cin)
    da = np.zeros_like(a_prev)
    for di in range(kh):
        for dj in range(kw):
            da[di:di + oh, dj:dj + ow, :] += dcols[:, :, di, dj, :]
    return dw, db, da


def _ref_pool_backward(win, a_prev, d):
    oh, ow, c = d.shape
    trimmed = a_prev[: oh * win, : ow * win, :]
    blocks = trimmed.reshape(oh, win, ow, win, c).transpose(0, 2, 4, 1, 3) \
                    .reshape(oh, ow, c, win * win)
    idx = blocks.argmax(axis=3)
    dblocks = np.zeros_like(blocks)
    np.put_along_axis(dblocks, idx[..., None], d[..., None], axis=3)
    da = np.zeros_like(a_prev)
    da[: oh * win, : ow * win, :] = dblocks.reshape(oh, ow, c, win, win) \
        .transpose(0, 3, 1, 4, 2).reshape(oh * win, ow * win, c)
    return da


def _tie_inputs(shape, seed):
    """Random, all-zero, ReLU'd random and 2x2-constant-block inputs: the last
    three put equal maxima in most pool windows."""
    h, w, c = shape
    rand = _draws(shape, seed, np.float64)
    blocks = _draws(((h + 1) // 2, (w + 1) // 2, c), seed + 500, np.float64)
    blocks = blocks.repeat(2, axis=0).repeat(2, axis=1)[:h, :w]
    return {"random": rand, "zeros": np.zeros(shape), "relu": np.maximum(rand, 0.0),
            "blocks": np.ascontiguousarray(blocks)}


@pytest.mark.parametrize("c", [1, 3, 8])
def test_conv_backward_matches_reference_bits(c):
    seed = 200
    for h, w in _KERNEL_SIZES:
        for kh in (1, 2, 3):
            for kw in (1, 2, 3):
                seed += 1
                f = 1 + seed % 5
                oh, ow = h - kh + 1, w - kw + 1
                layer = cnn.LayerSpec("Conv", kernel_h=kh, kernel_w=kw, filters=f)
                wt = _draws((kh, kw, c, f), seed + 1000, np.float64)
                inputs = _tie_inputs((h, w, c), seed)
                wb = (wt, np.zeros(f))
                forward = cnn._batch_conv(layer, wb, (h, w, c), len(inputs) + 1, np.float64)
                batched = cnn._grad_conv(layer, wb, (h, w, c), forward.cols, True)
                stack, dzs, wants = np.stack(list(inputs.values())), [], []
                for name, a in inputs.items():
                    # a ReLU'd gradient carries exact zeros, as training's does
                    dz = _draws((oh, ow, f), seed + 2000, np.float64)
                    if name != "random":
                        dz = np.maximum(dz, 0.0)
                    want = _ref_conv_backward(layer, a, dz, wt)
                    got = cnn._conv_backward(layer, a, dz, wt)
                    for g, r in zip(got, want):
                        _assert_same_bits(g, r)
                    dw, db, da = cnn._conv_backward(layer, a, dz, wt, input_grad=False)
                    assert da is None
                    _assert_same_bits(dw, want[0])
                    _assert_same_bits(db, want[1])
                    dzs.append(dz)
                    wants.append(want)
                da, (dw, db) = batched(stack, forward(stack), np.stack(dzs))
                for item, want in enumerate(wants):
                    for g, r in zip((dw[item], db[item], da[item]), want):
                        _assert_same_bits(g, r)


@pytest.mark.parametrize("c", [1, 3, 8])
def test_pool_backward_matches_reference_bits(c):
    seed = 300
    for h, w in _KERNEL_SIZES:
        for win in (1, 2, 3):
            seed += 1
            layer = cnn.LayerSpec("Pool", pool_window=win)
            inputs = list(_tie_inputs((h, w, c), seed).values())
            batched = cnn._grad_pool(layer, (h, w, c), len(inputs) + 1)
            outs = [cnn._apply_pool(layer, a) for a in inputs]
            # -max(x, 0) carries negative zeros: a sign slip shows in the bits
            for d in (_draws(outs[0].shape, seed + 1000, np.float64),
                      -np.maximum(_draws(outs[0].shape, seed + 2000, np.float64), 0.0)):
                for a, out in zip(inputs, outs):
                    _assert_same_bits(cnn._pool_backward(layer, a, out, d),
                                      _ref_pool_backward(win, a, d))
                da, _ = batched(np.stack(inputs), np.stack(outs), np.stack([d] * len(inputs)))
                for item, a in enumerate(inputs):
                    _assert_same_bits(da[item], _ref_pool_backward(win, a, d))


# --- finiteness checks ---

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_tensor_rejects_non_finite(bad):
    arr = np.zeros((2, 3, 1), dtype=np.float32)
    arr[1, 2, 0] = bad
    with pytest.raises(ShapeMismatch):
        cnn.Tensor(arr)


def test_dense_overflow_to_inf_rejected():
    rspec = cnn.resolve_spec(cnn.ModelSpec((1, 2, 1), (
        cnn.LayerSpec("Input"),
        cnn.LayerSpec("Flatten"),
        cnn.LayerSpec("Dense", units=1),
        cnn.LayerSpec("Softmax", units=2),
    )))
    weights = cnn.LayerWeights(cnn.Tensor(np.full((2, 1), 3e38, dtype=np.float32)),
                               cnn.Tensor(np.zeros(1, dtype=np.float32)))
    x = cnn.Tensor(np.ones(2, dtype=np.float32))
    with np.errstate(over="ignore"), pytest.raises(ShapeMismatch):
        cnn.layer_forward(rspec.layers[2], weights, x)


# --- pinned output bits ---
#
# sha256 digests measured with the earlier kernels (sliding_window_view
# im2col, reshape-max pool). Any change to the forward or training float
# arithmetic changes them.

@pytest.fixture(scope="module")
def pin_corpus():
    from edgemal import features

    bundle = features.gen_synthetic_corpus(samples_per_class=5, seed=7)
    images = features.corpus_images(bundle, list(range(bundle.traces.rows.shape[1])))
    return [features.image_to_tensor(img) for img in images], [img.label for img in images]


def test_forward_bits_pinned(default_spec, pin_corpus):
    from edgemal.cli import data_path

    model = cnn.weights_from_json(
        read_json(data_path("trained", "default_weights.json")), default_spec)
    digest = hashlib.sha256()
    for x in pin_corpus[0]:
        digest.update(cnn.forward(model, x).array.tobytes())
    assert digest.hexdigest() == \
        "38d28bd0af4da6f2983fe1fddd6222824666b7474029e2d4a07d0bf4f7d486c2"


def test_training_bits_pinned(default_spec, pin_corpus):
    tensors, labels = pin_corpus
    trained, history = cnn.train_model(
        cnn.build_model(default_spec, 42), _stack(tensors), labels, epochs=2,
        learning_rate=0.1, batch_size=8, seed=42, clip_norm=0.5)
    digest = hashlib.sha256()
    for i in sorted(trained.weights):
        digest.update(trained.weights[i].weight.array.tobytes())
        digest.update(trained.weights[i].bias.array.tobytes())
    digest.update(np.array(history, dtype=np.float64).tobytes())
    assert digest.hexdigest() == \
        "743c8f4f12843971d961cc9fb8cda12d233e7ae631d6da1316c8708b3c741307"


# --- forward_batch ---

def _stack(xs: list) -> np.ndarray:
    """The (n, *shape) input stack of equal-shaped Tensors."""
    return np.stack([x.array for x in xs])


def test_forward_batch_bits_pinned(default_spec, pin_corpus):
    from edgemal.cli import data_path

    model = cnn.weights_from_json(
        read_json(data_path("trained", "default_weights.json")), default_spec)
    assert len(pin_corpus[0]) > cnn.FORWARD_CHUNK
    digest = hashlib.sha256()
    for probs in cnn.forward_batch(model, _stack(pin_corpus[0])):
        digest.update(probs.tobytes())
    assert digest.hexdigest() == \
        "38d28bd0af4da6f2983fe1fddd6222824666b7474029e2d4a07d0bf4f7d486c2"


@pytest.mark.parametrize("count", [1, cnn.FORWARD_CHUNK - 1, cnn.FORWARD_CHUNK,
                                   cnn.FORWARD_CHUNK + 1, 2 * cnn.FORWARD_CHUNK + 1])
def test_forward_batch_equals_forward(default_spec, tiny_spec, count):
    """Also: rows of the first chunk keep their bits while later chunks reuse
    the work buffers, and the result is a fresh array."""
    for spec, seed in ((default_spec, 3), (tiny_spec, 4)):
        model = cnn.build_model(spec, seed)
        xs = [rand_tensor(spec.input_shape, seed * 100 + i, -1e3, 1e3)
              for i in range(count)]
        got = cnn.forward_batch(model, _stack(xs))
        assert got.shape == (count, spec.layers[-1].units)
        for out, x in zip(got, xs):
            _assert_same_bits(out, cnn.forward(model, x).array)
        assert got.base is None


@pytest.mark.parametrize("count", [1, cnn.FORWARD_CHUNK, cnn.FORWARD_CHUNK + 1])
def test_forward_batch_products_match_per_sample_bits(default_spec, monkeypatch, count):
    """Every float64 product of a batched conv or dense step equals, item by
    item, the per-sample `cols @ w2` or `a @ w` of `_apply_conv` and
    `_apply_dense`. A one-ulp change there can vanish in the float32 rounding
    that follows, so the output-level tests above may not see it."""
    model = cnn.build_model(default_spec, 5)
    rng = SplitMix64(17)
    xs = (rng.normals(count * int(np.prod(default_spec.input_shape)))
          .astype(np.float32).reshape(count, *default_spec.input_shape))
    calls = []
    matmul = np.matmul

    def spy(a, w, **kwargs):
        product = matmul(a, w, **kwargs)
        calls.append((a.copy(), w, product.copy()))
        return product

    monkeypatch.setattr(np, "matmul", spy)
    cnn.forward_batch(model, xs)
    monkeypatch.undo()

    chunks = -(-count // cnn.FORWARD_CHUNK)
    kinds = [layer.kind for layer in default_spec.layers]
    assert len(calls) == chunks * sum(kind in (cnn.KIND_CONV, cnn.KIND_DENSE,
                                               cnn.KIND_SOFTMAX) for kind in kinds)
    convs = 0
    for a, w, product in calls:
        for item, got in zip(a, product):
            if item.ndim == 2 and item.shape[0] > 1:  # a conv's (oh*ow, K) columns
                convs += 1
                want = item @ w
            else:  # a dense input row
                want = item.reshape(-1) @ w
            _assert_same_bits(got.reshape(want.shape), want)
    assert convs == count * kinds.count(cnn.KIND_CONV)


def test_forward_batch_empty(tiny_spec):
    got = cnn.forward_batch(cnn.build_model(tiny_spec, 0), np.empty((0, 6, 6, 1), np.float32))
    assert got.shape == (0, 3) and got.dtype == np.float32


def test_forward_batch_rejects_wrong_shape(tiny_spec):
    model = cnn.build_model(tiny_spec, 0)
    for shape in ((4, 6, 5, 1), (4, 6, 6), (4, 6, 6, 2), (0, 5, 6, 1), (36,)):
        with pytest.raises(ShapeMismatch, match=r"expected input \(6, 6, 1\), got \("):
            cnn.forward_batch(model, np.zeros(shape, dtype=np.float32))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, cnn.FORWARD_CHUNK + 1])
def test_forward_batch_rejects_non_finite_input(tiny_spec, value, row):
    """A non-finite input row, in the first chunk or a later one."""
    model = cnn.build_model(tiny_spec, 0)
    xs = _stack([rand_tensor((6, 6, 1), i) for i in range(cnn.FORWARD_CHUNK + 3)])
    xs[row, 2, 3, 0] = value
    with pytest.raises(ShapeMismatch, match="finite"):
        cnn.forward_batch(model, xs)


def test_forward_batch_dense_overflow_rejected(monkeypatch):
    """The overflow of test_dense_overflow_to_inf_rejected, as the third input
    of a chunk whose other inputs stay finite; then in a chunk that a second
    worker runs, where the caller's np.errstate must hold as well (without
    it the overflow raises RuntimeWarning there, not ShapeMismatch)."""
    model = cnn.build_model(cnn.ModelSpec((1, 2, 1), (
        cnn.LayerSpec("Input"),
        cnn.LayerSpec("Flatten"),
        cnn.LayerSpec("Dense", units=1),
        cnn.LayerSpec("Softmax", units=2),
    )), 0)
    model.weights[2] = cnn.LayerWeights(
        cnn.Tensor(np.full((2, 1), 3e38, dtype=np.float32)),
        cnn.Tensor(np.zeros(1, dtype=np.float32)))
    xs = np.zeros((5, 1, 2, 1), dtype=np.float32)
    assert len(cnn.forward_batch(model, xs)) == 5
    xs[2] = 1.0
    with np.errstate(over="ignore"), pytest.raises(ShapeMismatch):
        cnn.forward_batch(model, xs)

    _force_workers(monkeypatch, 2)
    xs = np.zeros((2 * cnn.FORWARD_CHUNK, 1, 2, 1), dtype=np.float32)
    assert len(cnn.forward_batch(model, xs)) == len(xs)
    xs[cnn.FORWARD_CHUNK + 2] = 1.0
    with np.errstate(over="ignore"), pytest.raises(ShapeMismatch, match="finite"):
        cnn.forward_batch(model, xs)


def test_forward_batch_missing_weight(tiny_spec):
    model = cnn.build_model(tiny_spec, 0)
    del model.weights[4]
    with pytest.raises(ShapeMismatch):
        cnn.forward_batch(model, _stack([rand_tensor((6, 6, 1), 0)]))


def test_forward_batch_writes_no_input(default_spec):
    model = cnn.build_model(default_spec, 42)
    xs = _stack([rand_tensor(default_spec.input_shape, 42 + i) for i in range(3)])
    saved = xs.copy()
    cnn.forward_batch(model, xs)
    _assert_same_bits(xs, saved)


# --- chunks on several workers ---
#
# forward_batch deals its chunks out to one worker per CPU, and train_model
# runs the chunks of a minibatch one per worker at a time. The tests force
# the worker count through cnn._cpu_count; worker k runs chunks k, k + w, ...

def _force_workers(monkeypatch, count):
    monkeypatch.setattr(cnn, "_cpu_count", lambda: count)


def _count_threads(monkeypatch) -> list:
    """Records every thread started from here on."""
    started, thread = [], threading.Thread

    def counting(*args, **kwargs):
        started.append(1)
        return thread(*args, **kwargs)

    monkeypatch.setattr(threading, "Thread", counting)
    return started


def test_run_jobs_results_in_order_and_earliest_error():
    def fail(message):
        def job():
            raise ValueError(message)
        return job

    before = threading.active_count()
    assert cnn._run_jobs([lambda k=k: k * k for k in range(4)]) == [0, 1, 4, 9]
    with pytest.raises(ValueError, match="^job 1$"):
        cnn._run_jobs([lambda: 0, fail("job 1"), fail("job 2")])
    with pytest.raises(ValueError, match="^job 0$"):
        cnn._run_jobs([fail("job 0"), lambda: 1, fail("job 2")])
    assert threading.active_count() == before


@pytest.mark.parametrize("count", [1, cnn.FORWARD_CHUNK + 1, 3 * cnn.FORWARD_CHUNK + 2])
def test_forward_batch_workers_equal_forward(default_spec, monkeypatch, count):
    model = cnn.build_model(default_spec, 9)
    xs = [rand_tensor(default_spec.input_shape, 900 + i, -1e3, 1e3) for i in range(count)]
    want = [cnn.forward(model, x).array for x in xs]
    for workers in (1, 2, 3):
        _force_workers(monkeypatch, workers)
        got = cnn.forward_batch(model, _stack(xs))
        assert len(got) == count
        for out, ref in zip(got, want):
            _assert_same_bits(out, ref)


def test_more_workers_than_cores_under_fast_thread_switches(tiny_spec, monkeypatch):
    """Seven workers switching threads every microsecond: each output row and
    each gradient fold still gets one worker's bits."""
    model = cnn.build_model(tiny_spec, 3)
    images = [rand_tensor((6, 6, 1), 300 + i, -1.0, 1.0) for i in range(7 * cnn.FORWARD_CHUNK)]
    labels = [i % 3 for i in range(len(images))]
    xs = _stack(images)
    kwargs = dict(epochs=2, learning_rate=0.1, batch_size=len(images), seed=3)
    _force_workers(monkeypatch, 1)
    want = cnn.forward_batch(model, xs)
    want_model, want_history = cnn.train_model(model, xs, labels, **kwargs)
    _force_workers(monkeypatch, 7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            _assert_same_bits(cnn.forward_batch(model, xs), want)
        trained, history = cnn.train_model(model, xs, labels, **kwargs)
    finally:
        sys.setswitchinterval(interval)
    assert history == want_history
    for i, lw in want_model.weights.items():
        _assert_same_bits(trained.weights[i].weight.array, lw.weight.array)
        _assert_same_bits(trained.weights[i].bias.array, lw.bias.array)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("chunk", [1, 2])
def test_forward_batch_non_finite_in_a_worker_chunk(tiny_spec, monkeypatch, value, chunk):
    _force_workers(monkeypatch, 3)
    model = cnn.build_model(tiny_spec, 0)
    xs = _stack([rand_tensor((6, 6, 1), i) for i in range(3 * cnn.FORWARD_CHUNK)])
    xs[chunk * cnn.FORWARD_CHUNK + 5, 4, 1, 0] = value
    with pytest.raises(ShapeMismatch, match="finite"):
        cnn.forward_batch(model, xs)


def test_one_worker_or_one_chunk_starts_no_thread(tiny_spec, monkeypatch):
    model = cnn.build_model(tiny_spec, 0)
    images = [rand_tensor((6, 6, 1), i) for i in range(2 * cnn.FORWARD_CHUNK + 1)]
    labels = [i % 3 for i in range(len(images))]
    started = _count_threads(monkeypatch)
    _force_workers(monkeypatch, 1)
    cnn.forward_batch(model, _stack(images))
    cnn.train_model(model, _stack(images), labels, epochs=1, learning_rate=0.1, batch_size=40,
                    seed=1)
    _force_workers(monkeypatch, 4)
    cnn.forward_batch(model, _stack(images[:cnn.FORWARD_CHUNK]))
    cnn.train_model(model, _stack(images), labels, epochs=1, learning_rate=0.1,
                    batch_size=cnn.FORWARD_CHUNK, seed=1)
    assert not started
    cnn.forward_batch(model, _stack(images))
    assert len(started) == 2


def test_no_thread_outlives_a_call(tiny_spec, monkeypatch):
    """Neither a call that returns nor one that raises leaves a thread behind."""
    _force_workers(monkeypatch, 3)
    model = cnn.build_model(tiny_spec, 0)
    images = [rand_tensor((6, 6, 1), i) for i in range(3 * cnn.FORWARD_CHUNK)]
    labels = [i % 3 for i in range(len(images))]
    xs = _stack(images)
    started = _count_threads(monkeypatch)
    before = threading.active_count()
    cnn.forward_batch(model, xs)
    cnn.train_model(model, xs, labels, epochs=1, learning_rate=0.1, batch_size=48, seed=1)
    assert threading.active_count() == before
    assert len(started) == 2 + 2

    xs[2 * cnn.FORWARD_CHUNK, 0, 0, 0] = np.nan
    with pytest.raises(ShapeMismatch, match="finite"):
        cnn.forward_batch(model, xs)
    assert threading.active_count() == before

    build = cnn._train_pass
    runners = []

    def second_runner_fails(spec, params, rows):
        runners.append(build(spec, params, rows))
        if len(runners) == 1:
            return runners[0]

        def run(chunk, chunk_labels):
            raise RuntimeError("worker pass failed")

        return run

    monkeypatch.setattr(cnn, "_train_pass", second_runner_fails)
    with pytest.raises(RuntimeError, match="worker pass failed"):
        cnn.train_model(model, _stack(images), labels, epochs=1, learning_rate=0.1,
                        batch_size=48, seed=1)
    assert len(runners) == 3
    assert threading.active_count() == before


# --- flop counting ---

def test_layer_flops_examples(default_spec):
    dense = cnn.LayerSpec("Dense", units=10, prev_units=128, out_shape=(10,))
    assert cnn.layer_flops(dense) == 2560
    rspec = cnn.resolve_spec(default_spec)
    assert cnn.layer_flops(rspec.layers[0]) == 0  # Input
    assert cnn.layer_flops(rspec.layers[1]) == 129600  # first conv
    assert cnn.model_flops(default_spec) == 396968


# --- training ---

def _separable_set(n, seed):
    """Two classes split by mean brightness; dense model learns it fast."""
    rng = SplitMix64(seed)
    spec = cnn.ModelSpec((8, 8, 1), (
        cnn.LayerSpec("Input"),
        cnn.LayerSpec("Flatten"),
        cnn.LayerSpec("Dense", units=8, activation="relu"),
        cnn.LayerSpec("Softmax", units=2),
    ))
    images = []
    labels = []
    for i in range(n):
        label = i % 2
        base = -60.0 if label == 0 else 60.0
        arr = np.empty((8, 8, 1), dtype=np.float32)
        flat = arr.ravel()
        for j in range(flat.size):
            flat[j] = np.float32(base + rng.uniform(-25.0, 25.0))
        images.append(cnn.Tensor(arr))
        labels.append(label)
    return spec, images, labels


def test_train_separable_two_class():
    spec, images, labels = _separable_set(200, 1)
    model = cnn.build_model(spec, 1)
    trained, history = cnn.train_model(model, _stack(images), labels, epochs=10,
                                       learning_rate=0.05, batch_size=16, seed=1)
    assert len(history) == 10
    hits = sum(int(np.argmax(cnn.forward(trained, x).array)) == lab
               for x, lab in zip(images, labels))
    assert hits / len(images) >= 0.95


def test_train_zero_learning_rate_keeps_weights(tiny_spec):
    model = cnn.build_model(tiny_spec, 2)
    images = [rand_tensor((6, 6, 1), i) for i in range(8)]
    labels = [i % 3 for i in range(8)]
    trained, history = cnn.train_model(model, _stack(images), labels, epochs=3,
                                       learning_rate=0.0, batch_size=4, seed=2)
    for i in model.weights:
        assert np.array_equal(trained.weights[i].weight.array,
                              model.weights[i].weight.array)
    # constant up to the float summation order of the shuffled batches
    assert max(history) - min(history) <= 1e-12


def test_train_zero_epochs_is_identity(tiny_spec):
    model = cnn.build_model(tiny_spec, 2)
    trained, history = cnn.train_model(model, _stack([rand_tensor((6, 6, 1), 0)]), [0],
                                       epochs=0, learning_rate=0.1,
                                       batch_size=1, seed=0)
    assert history == []
    for i in model.weights:
        assert np.array_equal(trained.weights[i].weight.array,
                              model.weights[i].weight.array)


def test_train_errors(tiny_spec):
    model = cnn.build_model(tiny_spec, 2)
    one = _stack([rand_tensor((6, 6, 1), 0)])
    kwargs = dict(epochs=1, learning_rate=0.1, batch_size=1, seed=0)
    with pytest.raises(EmptyCorpus):
        cnn.train_model(model, np.empty((0, 6, 6, 1), dtype=np.float32), [], **kwargs)
    with pytest.raises(LabelOutOfRange):
        cnn.train_model(model, one, [3], **kwargs)
    with pytest.raises(EmptyCorpus, match="differ in length"):
        cnn.train_model(model, one, [0, 1], **kwargs)
    with pytest.raises(ShapeMismatch, match="sample shape"):
        cnn.train_model(model, _stack([rand_tensor((6, 5, 1), i) for i in range(2)]), [0, 1],
                        **kwargs)
    for value in (np.nan, np.inf, -np.inf):
        xs = _stack([rand_tensor((6, 6, 1), i) for i in range(3)])
        xs[1, 2, 3, 0] = value
        with pytest.raises(ShapeMismatch, match="finite"):
            cnn.train_model(model, xs, [0, 1, 2], **kwargs)
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        cnn.train_model(model, one, [0], **{**kwargs, "batch_size": 0})


def test_train_is_deterministic(tiny_spec):
    model = cnn.build_model(tiny_spec, 5)
    images = [rand_tensor((6, 6, 1), i, -80.0, 80.0) for i in range(12)]
    labels = [i % 3 for i in range(12)]
    t1, h1 = cnn.train_model(model, _stack(images), labels, epochs=4,
                             learning_rate=0.05, batch_size=4, seed=9)
    t2, h2 = cnn.train_model(model, _stack(images), labels, epochs=4,
                             learning_rate=0.05, batch_size=4, seed=9)
    assert h1 == h2
    for i in t1.weights:
        assert np.array_equal(t1.weights[i].weight.array,
                              t2.weights[i].weight.array)


# --- batched training ---
#
# train_model runs each minibatch through cnn._train_pass, FORWARD_CHUNK
# samples at a time. The per-sample _forward_acts and _backward are its
# oracle, item by item and bit for bit.

def _dead_relu_model() -> cnn.Model:
    """Dense unit 0 never fires on positive inputs, and with every label 0 its
    output gradient is negative, so its bias gradient is -0.0 for every item.
    Its bias is -0.0 too: only the fold acc + g keeps the -0.0 sum that turns
    it into +0.0 at the first update; a sum from +0.0 would leave it -0.0."""
    model = cnn.build_model(cnn.ModelSpec((2, 1, 1), (
        cnn.LayerSpec("Input"),
        cnn.LayerSpec("Flatten"),
        cnn.LayerSpec("Dense", units=2, activation="relu"),
        cnn.LayerSpec("Softmax", units=2),
    )), 6)
    dense, top = model.weights[2], model.weights[3]
    dense.weight = cnn.Tensor(np.array([[-1.0, 0.5], [-1.0, 0.25]], dtype=np.float32))
    dense.bias = cnn.Tensor(np.array([-0.0, 0.1], dtype=np.float32))
    top.weight = cnn.Tensor(np.array([[1.0, -1.0], [0.5, 0.25]], dtype=np.float32))
    return model


def _train_inputs(shape, count, seed, lo, hi):
    """Every other input is one value throughout, so that every pool window
    after a conv holds ties, and the first-maximum routing decides."""
    xs = [rand_tensor(shape, seed + i, lo, hi) for i in range(count)]
    return [cnn.Tensor(np.full(shape, x.array.flat[0])) if i % 2 else x
            for i, x in enumerate(xs)]


def _train_case(name, default_spec, tiny_spec):
    """(model, a function drawing that many inputs and their labels) for a
    named case."""
    specs = {
        "default": default_spec,
        "tiny": tiny_spec,
        # f = 1 convs, one with an input gradient, and a ragged 3x3 pool
        "one-filter": cnn.ModelSpec((9, 9, 2), (
            cnn.LayerSpec("Input"),
            cnn.LayerSpec("Conv", kernel_w=3, kernel_h=3, filters=1, activation="relu"),
            cnn.LayerSpec("Pool", pool_window=3),
            cnn.LayerSpec("Conv", kernel_w=2, kernel_h=1, filters=1),
            cnn.LayerSpec("Flatten"),
            cnn.LayerSpec("Softmax", units=3))),
        "pool-first": cnn.ModelSpec((6, 6, 1), (
            cnn.LayerSpec("Input"),
            cnn.LayerSpec("Pool", pool_window=2),
            cnn.LayerSpec("Conv", kernel_w=2, kernel_h=2, filters=2, activation="relu"),
            cnn.LayerSpec("Flatten"),
            cnn.LayerSpec("Softmax", units=3))),
        "dense-first": cnn.ModelSpec((3, 2, 1), (
            cnn.LayerSpec("Input"),
            cnn.LayerSpec("Flatten"),
            cnn.LayerSpec("Dense", units=4),
            cnn.LayerSpec("Softmax", units=3))),
    }
    if name == "dead-relu":
        model = _dead_relu_model()
        return model, lambda count: (
            _train_inputs((2, 1, 1), count, 60, 0.5, 1.0), [0] * count)
    model = cnn.build_model(specs[name], 8)
    classes = model.spec.layers[-1].units
    return model, lambda count: (
        _train_inputs(model.spec.input_shape, count, 70, -1.0, 1.0),
        [i % classes for i in range(count)])


_TRAIN_CASES = ("default", "tiny", "one-filter", "pool-first", "dense-first", "dead-relu")


@pytest.mark.parametrize("name", _TRAIN_CASES)
@pytest.mark.parametrize("count", [1, cnn.FORWARD_CHUNK - 1, cnn.FORWARD_CHUNK,
                                   cnn.FORWARD_CHUNK + 1, 2 * cnn.FORWARD_CHUNK + 1])
def test_train_pass_matches_per_sample_bits(default_spec, tiny_spec, name, count):
    model, draw = _train_case(name, default_spec, tiny_spec)
    xs, labels = draw(count)
    params = cnn._collect_params(model)
    run = cnn._train_pass(model.spec, params, min(count, cnn.FORWARD_CHUNK))
    for start in range(0, count, cnn.FORWARD_CHUNK):
        chunk = range(start, min(count, start + cnn.FORWARD_CHUNK))
        acts, grads = run(_stack([xs[k] for k in chunk]), [labels[k] for k in chunk])
        for item, k in enumerate(chunk):
            x = xs[k].array.astype(np.float64)
            want_acts = cnn._forward_acts(model.spec, params, x, np.float64)
            want = cnn._backward(model.spec, params, x, want_acts, labels[k])
            for got, ref in zip(acts, want_acts, strict=True):
                _assert_same_bits(got[item], ref)
            assert (cnn._loss_from_probs(acts[-1][item], labels[k])
                    == cnn._loss_from_probs(want_acts[-1], labels[k]))
            assert list(grads) == list(want)
            for i, (gw, gb) in want.items():
                _assert_same_bits(grads[i][0][item], gw)
                _assert_same_bits(grads[i][1][item], gb)
        if name == "dead-relu":
            assert np.signbit(grads[2][1][:, 0]).all() and not grads[2][1][:, 0].any()


def _reference_train(model, images, labels, *, epochs, learning_rate, batch_size,
                     seed, clip_norm=None):
    """train_model one sample at a time: _forward_acts and _backward per
    sample, gradients folded as acc + g in sample order."""
    trained, rng, history = model.copy(), SplitMix64(seed), []
    lr = np.float32(learning_rate)
    for _ in range(epochs):
        order = list(range(len(images)))
        rng.shuffle(order)
        losses = []
        for start in range(0, len(order), batch_size):
            batch = order[start:start + batch_size]
            params = cnn._collect_params(trained)
            acc, loss_sum = {}, 0.0
            for idx in batch:
                x = images[idx].array.astype(np.float64)
                acts = cnn._forward_acts(trained.spec, params, x, np.float64)
                loss_sum += cnn._loss_from_probs(acts[-1], labels[idx])
                for i, (gw, gb) in cnn._backward(trained.spec, params, x, acts,
                                                 labels[idx]).items():
                    acc[i] = (acc[i][0] + gw, acc[i][1] + gb) if i in acc else (gw, gb)
            scale = 1.0 / len(batch)
            if clip_norm is not None:
                norm = math.sqrt(sum(float(np.sum((gw * scale) ** 2) + np.sum((gb * scale) ** 2))
                                     for gw, gb in acc.values()))
                if norm > clip_norm:
                    scale *= clip_norm / norm
            for i, (gw, gb) in acc.items():
                lw = trained.weights[i]
                lw.weight = cnn.Tensor(lw.weight.array - lr * (gw * scale).astype(np.float32))
                lw.bias = cnn.Tensor(lw.bias.array - lr * (gb * scale).astype(np.float32))
            losses.append(loss_sum / len(batch))
        history.append(sum(losses) / len(losses))
    return trained, history


@pytest.mark.parametrize("name", ["default", "tiny", "dead-relu"])
@pytest.mark.parametrize("batch_size, count", [
    (1, 20), (5, 45), (cnn.FORWARD_CHUNK, 45), (cnn.FORWARD_CHUNK + 1, 45), (40, 45),
    pytest.param(cnn.FORWARD_CHUNK, 7, id="corpus-below-one-chunk")])
def test_train_matches_per_sample_reference(default_spec, tiny_spec, name, batch_size,
                                            count):
    model, draw = _train_case(name, default_spec, tiny_spec)
    images, labels = draw(count)
    kwargs = dict(epochs=2, learning_rate=0.1, batch_size=batch_size, seed=11,
                  clip_norm=0.5 if name == "default" else None)
    trained, history = cnn.train_model(model, _stack(images), labels, **kwargs)
    want, want_history = _reference_train(model, images, labels, **kwargs)
    assert history == want_history
    for i, lw in want.weights.items():
        _assert_same_bits(trained.weights[i].weight.array, lw.weight.array)
        _assert_same_bits(trained.weights[i].bias.array, lw.bias.array)
    if name == "dead-relu":  # the -0.0 bias became +0.0, as the fold has it
        assert not np.signbit(trained.weights[2].bias.array[0])


@pytest.mark.parametrize("name", ["default", "tiny", "dead-relu"])
@pytest.mark.parametrize("batch_size", [2 * cnn.FORWARD_CHUNK, 40])
def test_train_workers_match_per_sample_reference(default_spec, tiny_spec, monkeypatch, name,
                                                  batch_size):
    """Two chunks of a minibatch trained at once give the bits of one worker
    and of the reference. A batch of 40 ends on a ragged 8-sample chunk."""
    model, draw = _train_case(name, default_spec, tiny_spec)
    images, labels = draw(45)
    kwargs = dict(epochs=2, learning_rate=0.1, batch_size=batch_size, seed=13,
                  clip_norm=0.5 if name == "default" else None)
    want, want_history = _reference_train(model, images, labels, **kwargs)
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        trained, history = cnn.train_model(model, _stack(images), labels, **kwargs)
        assert history == want_history
        for i, lw in want.weights.items():
            _assert_same_bits(trained.weights[i].weight.array, lw.weight.array)
            _assert_same_bits(trained.weights[i].bias.array, lw.bias.array)


# --- gradient checking ---

def scaled_model(spec: cnn.ModelSpec, seed: int, factor: float = 8.0) -> cnn.Model:
    """Seeded model with weights scaled up so pre-activations clear the
    relu/pool kinks at the finite-difference step."""
    model = cnn.build_model(spec, seed)
    for lw in model.weights.values():
        lw.weight = cnn.Tensor(lw.weight.array * np.float32(factor))
        lw.bias = cnn.Tensor(lw.bias.array * np.float32(factor))
    return model


def test_backward_check_dense_only():
    spec = cnn.ModelSpec((4, 1, 1), (
        cnn.LayerSpec("Input"),
        cnn.LayerSpec("Flatten"),
        cnn.LayerSpec("Dense", units=5, activation="relu"),
        cnn.LayerSpec("Softmax", units=3),
    ))
    err = cnn.backward_check(scaled_model(spec, 3), rand_tensor((4, 1, 1), 0), 1)
    assert err <= 1e-4


def test_backward_check_conv_pool_dense(tiny_spec):
    err = cnn.backward_check(scaled_model(tiny_spec, 4),
                             rand_tensor((6, 6, 1), 1), 2)
    assert err <= 1e-4


@pytest.mark.parametrize("layers, shape", [
    pytest.param((cnn.LayerSpec("Input"),
                  cnn.LayerSpec("Pool", pool_window=2),
                  cnn.LayerSpec("Conv", kernel_w=2, kernel_h=2, filters=2,
                                activation="relu"),
                  cnn.LayerSpec("Flatten"),
                  cnn.LayerSpec("Softmax", units=3)), (6, 6, 1), id="pool-first"),
    pytest.param((cnn.LayerSpec("Input"),
                  cnn.LayerSpec("Flatten"),
                  cnn.LayerSpec("Dense", units=4),
                  cnn.LayerSpec("Softmax", units=3)), (3, 2, 1), id="dense-first"),
])
def test_backward_check_before_first_trainable_layer(layers, shape):
    spec = cnn.ModelSpec(shape, layers)
    err = cnn.backward_check(scaled_model(spec, 5), rand_tensor(shape, 2), 1)
    assert err <= 1e-4


def test_backward_grads_every_trainable_layer(default_spec, tiny_spec):
    for spec, seed in ((default_spec, 42), (tiny_spec, 4)):
        model = cnn.build_model(spec, seed)
        params = cnn._collect_params(model)
        x = rand_tensor(spec.input_shape, seed).array.astype(np.float64)
        acts = cnn._forward_acts(model.spec, params, x, np.float64)
        grads = cnn._backward(model.spec, params, x, acts, 1)
        assert sorted(grads) == sorted(model.weights)
        for i, (gw, gb) in grads.items():
            assert gw.shape == model.weights[i].weight.shape
            assert gb.shape == model.weights[i].bias.shape


def test_training_pass_writes_no_input(default_spec, tiny_spec, monkeypatch):
    # Input and Flatten hand on views in float64, and the conv and dense
    # kernels add biases in place: no pass may write through to an array
    # it did not allocate. And train_model hands back fresh weights: none of
    # them is, or views, a work buffer that its pass's next call overwrites.
    buffers = []
    build = cnn._train_pass

    def recording(spec, params, rows):
        buffers.extend(array for pair in params.values() for array in pair)
        run = build(spec, params, rows)

        def recorded(xs, labels):
            acts, grads = run(xs, labels)
            buffers.extend(acts[1:])
            buffers.extend(array for pair in grads.values() for array in pair)
            return acts, grads

        return recorded

    for spec, seed in ((default_spec, 42), (tiny_spec, 4)):
        model = cnn.build_model(spec, seed)
        params = cnn._collect_params(model)
        x = rand_tensor(spec.input_shape, seed).array.astype(np.float64)
        saved_x = x.copy()
        saved_params = {i: (w.copy(), b.copy()) for i, (w, b) in params.items()}
        want, a = [], saved_x
        for i, layer in enumerate(model.spec.layers):
            wb = saved_params.get(i)
            a = cnn._apply_layer(layer, wb and (wb[0].copy(), wb[1].copy()),
                                 a.copy(), np.float64).copy()
            want.append(a)
        acts = cnn._forward_acts(model.spec, params, x, np.float64)
        cnn._backward(model.spec, params, x, acts, 1)
        _assert_same_bits(x, saved_x)
        for i, (w, b) in params.items():
            _assert_same_bits(w, saved_params[i][0])
            _assert_same_bits(b, saved_params[i][1])
        assert len(acts) == len(want)
        for got, ref in zip(acts, want):
            _assert_same_bits(got, ref)

        # the batched pass, over two chunks
        images = [rand_tensor(spec.input_shape, seed + i) for i in range(cnn.FORWARD_CHUNK + 3)]
        labels = [i % model.spec.layers[-1].units for i in range(len(images))]
        stacked = _stack(images)
        saved_images = stacked.copy()
        run = cnn._train_pass(model.spec, params, cnn.FORWARD_CHUNK)
        for start in range(0, len(images), cnn.FORWARD_CHUNK):
            run(stacked[start:start + cnn.FORWARD_CHUNK], labels[start:start + cnn.FORWARD_CHUNK])
        _assert_same_bits(stacked, saved_images)
        for i, (w, b) in params.items():
            _assert_same_bits(w, saved_params[i][0])
            _assert_same_bits(b, saved_params[i][1])

        monkeypatch.setattr(cnn, "_train_pass", recording)
        buffers.clear()
        trained, _ = cnn.train_model(model, stacked, labels, epochs=2, learning_rate=0.1,
                                     batch_size=len(images), seed=seed)
        monkeypatch.undo()
        _assert_same_bits(stacked, saved_images)
        assert buffers
        roots = [b if b.base is None else b.base for b in buffers]
        for lw in trained.weights.values():
            for array in (lw.weight.array, lw.bias.array):
                assert not any(np.shares_memory(array, root) for root in roots)


def test_layer_forward_writes_no_input(default_spec):
    model = cnn.build_model(default_spec, 42)
    act = rand_tensor(default_spec.input_shape, 42)
    for i, layer in enumerate(model.spec.layers):
        saved = act.array.copy()
        out = cnn.layer_forward(layer, model.weights.get(i), act)
        _assert_same_bits(act.array, saved)
        act = out


def test_backward_check_degenerate_zero_model():
    spec = cnn.ModelSpec((2, 1, 1), (
        cnn.LayerSpec("Input"),
        cnn.LayerSpec("Flatten"),
        cnn.LayerSpec("Dense", units=2, activation="relu"),
        cnn.LayerSpec("Softmax", units=2),
    ))
    model = cnn.build_model(spec, 0)
    for lw in model.weights.values():
        lw.weight = cnn.Tensor(np.zeros_like(lw.weight.array))
        lw.bias = cnn.Tensor(np.zeros_like(lw.bias.array))
    x = cnn.Tensor(np.zeros((2, 1, 1), dtype=np.float32))
    # the relu-dead branch gives 0/0 on its weights; guarded as zero error
    assert cnn.backward_check(model, x, 0) <= 1e-9


# --- serialization ---

def test_spec_round_trip(default_spec):
    doc = cnn.spec_to_json(default_spec)
    again = cnn.spec_from_json(doc)
    assert cnn.resolve_spec(again) == cnn.resolve_spec(default_spec)


def test_weights_round_trip_exact(tiny_spec):
    model = cnn.build_model(tiny_spec, 11)
    doc = cnn.weights_to_json(model)
    back = cnn.weights_from_json(doc, tiny_spec)
    for i in model.weights:
        assert np.array_equal(back.weights[i].weight.array,
                              model.weights[i].weight.array)
        assert np.array_equal(back.weights[i].bias.array,
                              model.weights[i].bias.array)


def test_weights_round_trip_sampled_specs():
    rng = SplitMix64(23)
    for seed in range(50):
        spec = resources.sample_model_spec(rng)
        model = cnn.build_model(spec, seed)
        read_spec = cnn.spec_from_json(json.loads(json.dumps(cnn.spec_to_json(spec))))
        back = cnn.weights_from_json(
            json.loads(json.dumps(cnn.weights_to_json(model))), read_spec)
        assert back.spec == model.spec
        assert back.weights.keys() == model.weights.keys()
        for i, lw in model.weights.items():
            assert np.array_equal(back.weights[i].weight.array, lw.weight.array)
            assert np.array_equal(back.weights[i].bias.array, lw.bias.array)
