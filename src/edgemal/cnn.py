"""From-scratch CNN kernel: declarative layer specs, seeded initialization,
forward inference, minibatch SGD training, and a per-layer compute cost model.

Conventions fixed for reproducibility:
  - activations are channels-last float32 arrays of rank <= 3;
  - convolutions use valid padding and stride 1; pooling is non-overlapping
    max with a square window (ragged border rows/columns are dropped);
  - im2col is one index gather into patch rows in (kh, kw, channels) order,
    with the index array cached per input shape and kernel size;
  - dot products accumulate in float64 and round back to float32 at every
    layer boundary, so outputs are bit-stable on one machine and agree across
    implementations to ~1e-6;
  - forward_batch gives forward's bits for many inputs, taken as one
    (n, *input_shape) stack and returned as one (n, classes) array; its Input
    step copies each chunk of the stack into a work buffer. It applies each
    layer to FORWARD_CHUNK (16) inputs at a time, sized to one core's 2 MB L2
    cache: at 32, conv L1's float64 column matrix (32*900*9*8 B, about 2 MB)
    no longer fits it, and chunks of 8 to 24 ran within 5% of each other.
    Each layer's chunk buffers are allocated once per worker and written with
    out=, since fresh temporaries for every chunk cost tens of page faults
    per input and made the batch slower than one forward per input. Every
    float64 sum keeps forward's operands and order: the conv is a stacked
    (B, oh*ow, K) @ (K, F) matmul, one gemm per item with forward's shapes;
    Dense and Softmax keep a unit row axis, (B, 1, K) @ (K, N), because a
    plain (B, K) @ (K, N) gemm sums in another order; the conv bias is one
    flat np.tile(b, oh*ow) add; the softmax max, exp and sum run along
    each row;
  - weight initialization draws from a user-seeded SplitMix64 stream, element
    by element in C order (weights first, then bias, layer by layer);
  - backpropagation runs in float64 and stops at the first trainable layer,
    whose input gradient nothing reads;
  - a conv input gradient is one col2im bincount over the column gradient
    weight @ dz.T, laid out (kh*kw, c, oh*ow): each input element sums its
    contributions in ascending (di, dj) kernel order, starting from 0.0;
  - a pool routes each output gradient to the first maximum of its window in
    (di, dj) row-major order; the other elements of the window get 0.0. The
    window offsets are tested from last to first, each hit overwriting the
    window's offset, so the earliest maximum is the one kept, and one scatter
    routes the gradient;
  - train_model gives the bits of per-sample backpropagation (_forward_acts
    and _backward, which stay as the oracle of backward_check and the tests).
    It takes one (n, *input_shape) stack and runs each minibatch FORWARD_CHUNK
    samples at a time: forward through forward_batch's layer steps in float64,
    backward through batched steps, all writing into buffers allocated once
    per worker. Every per-item product keeps the per-sample shapes: the conv
    weight gradient is a stacked cols^T @ dz, the column gradient
    W2 @ dz^T, a dense input gradient W @ dz as (K, N) @ (n, N, 1), one
    gemv per item. Pool backward is one scatter and col2im one bincount,
    with each item's indices offset past the earlier items. A conv bias gradient is dz.sum(axis=1), which
    sums each item as the per-sample dz2.sum(axis=0) does: row by row, or
    pairwise when f = 1. The minibatch gradient is the fold acc = g[0];
    acc = acc + g[k] in sample order. An np.sum or np.add.reduce over the
    item axis is not: it starts from +0.0, so a column that is -0.0 for
    every item (a dead relu unit's bias) comes out +0.0, and a bias of -0.0
    updated by it stays -0.0 where the fold gives +0.0;
  - forward_batch and train_model spread their chunks over the CPUs the
    process may run on (os.sched_getaffinity, else os.cpu_count), one worker
    per CPU and at most one per chunk. forward_batch deals chunk k to worker
    k mod w, and each worker writes its own rows of the output. train_model
    runs the chunks of a minibatch one per worker at a time, then adds their
    losses and folds their gradients on the calling thread. Each worker has
    its own work buffers. The bits cannot change: a chunk's result depends
    only on its inputs and the weights, and every sum across chunks runs on
    the calling thread in sample order, as with one worker. The first worker
    is the calling thread and each other runs on a thread of its own, in a
    copy of the caller's contextvars context, so the caller's np.errstate
    holds in every worker. Every thread is joined before the call returns
    or raises the error of the earliest worker that failed. With one CPU or
    one chunk no thread starts. Workers call no public function, so an
    outside-in tracer sees one span per call.
"""

from __future__ import annotations

import contextvars
import functools
import json
import math
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    EmptyCorpus,
    LabelOutOfRange,
    ShapeMismatch,
    Unsupported,
    UnresolvedShape,
)
from .rng import SplitMix64

KIND_INPUT = "Input"
KIND_CONV = "Conv"
KIND_POOL = "Pool"
KIND_FLATTEN = "Flatten"
KIND_DENSE = "Dense"
KIND_SOFTMAX = "Softmax"

LAYER_KINDS = (KIND_INPUT, KIND_CONV, KIND_POOL, KIND_FLATTEN, KIND_DENSE, KIND_SOFTMAX)
ACTIVATIONS = ("none", "relu", "softmax")

LOG_CLAMP = 1e-12  # floor inside the cross-entropy log
WEIGHT_INIT_SPAN = 0.05
FORWARD_CHUNK = 16  # inputs per layer call in forward_batch and train_model


class Tensor:
    """Dense float32 array with validated shape.

    Activations are rank 1..3; convolution kernels are the one rank-4 case.
    The wrapped array must be treated as immutable.
    """

    __slots__ = ("array",)

    def __init__(self, array) -> None:
        arr = np.ascontiguousarray(array, dtype=np.float32)
        if arr.ndim < 1 or arr.ndim > 4:
            raise ShapeMismatch(f"tensor rank must be 1..4, got {arr.ndim}")
        if arr.size == 0:
            raise ShapeMismatch("tensor extents must be positive")
        if not np.isfinite(arr).all():
            raise ShapeMismatch("tensor elements must be finite")
        self.array = arr

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.array.shape)

    @property
    def data(self) -> np.ndarray:
        """Row-major flat view of the elements."""
        return self.array.ravel()

    def copy(self) -> "Tensor":
        return Tensor(self.array.copy())

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the network. Fields irrelevant to the kind stay None.

    `in_channels`, `prev_units` and `out_shape` may be left unset in a raw
    spec; `resolve_spec` fills them from the shape chain.
    """

    kind: str
    kernel_w: int | None = None
    kernel_h: int | None = None
    filters: int | None = None
    in_channels: int | None = None
    units: int | None = None
    prev_units: int | None = None
    pool_window: int | None = None
    activation: str = "none"
    out_shape: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ModelSpec:
    """Ordered layer list plus the expected input image shape (H, W, C)."""

    input_shape: tuple[int, int, int]
    layers: tuple[LayerSpec, ...]


@dataclass
class LayerWeights:
    weight: Tensor
    bias: Tensor


@dataclass
class Model:
    """A resolved spec plus per-trainable-layer weights, keyed by layer index."""

    spec: ModelSpec
    weights: dict[int, LayerWeights]

    def copy(self) -> "Model":
        return Model(self.spec, {i: LayerWeights(w.weight.copy(), w.bias.copy())
                                 for i, w in self.weights.items()})


def _positive(value, name: str) -> int:
    if not isinstance(value, int) or value < 1:
        raise ShapeMismatch(f"{name} must be a positive integer, got {value!r}")
    return value


def resolve_spec(spec: ModelSpec) -> ModelSpec:
    """Validate the layer chain and fill derived fields.

    Returns a new ModelSpec whose layers carry in_channels / prev_units and
    the resolved out_shape. Raises ShapeMismatch on inconsistent chains and
    Unsupported on unknown kinds or activations.
    """
    if len(spec.input_shape) != 3:
        raise ShapeMismatch(f"input_shape must be (H, W, C), got {spec.input_shape}")
    for extent in spec.input_shape:
        _positive(extent, "input extent")
    if not spec.layers:
        raise ShapeMismatch("model needs at least Input and Softmax layers")
    if spec.layers[0].kind != KIND_INPUT:
        raise ShapeMismatch("first layer must be Input")
    if spec.layers[-1].kind != KIND_SOFTMAX:
        raise ShapeMismatch("last layer must be Softmax")

    resolved: list[LayerSpec] = []
    shape: tuple[int, ...] = tuple(spec.input_shape)
    for i, layer in enumerate(spec.layers):
        if layer.kind not in LAYER_KINDS:
            raise Unsupported(f"unknown layer kind {layer.kind!r}")
        if layer.activation not in ACTIVATIONS:
            raise Unsupported(f"unknown activation {layer.activation!r}")

        if layer.kind == KIND_INPUT:
            if i != 0:
                raise ShapeMismatch("Input layer allowed only at position 0")
            resolved.append(replace(layer, activation="none", out_shape=shape))
            continue

        if layer.kind == KIND_CONV:
            if len(shape) != 3:
                raise ShapeMismatch(f"Conv at layer {i} needs an image input, got {shape}")
            h, w, c = shape
            kh = _positive(layer.kernel_h, "kernel_h")
            kw = _positive(layer.kernel_w, "kernel_w")
            f = _positive(layer.filters, "filters")
            if kh > h or kw > w:
                raise ShapeMismatch(f"kernel {kh}x{kw} exceeds input {h}x{w} at layer {i}")
            if layer.in_channels is not None and layer.in_channels != c:
                raise ShapeMismatch(f"in_channels {layer.in_channels} != {c} at layer {i}")
            if layer.activation == "softmax":
                raise Unsupported("softmax activation is reserved for the Softmax layer")
            shape = (h - kh + 1, w - kw + 1, f)
            resolved.append(replace(layer, in_channels=c, out_shape=shape))
        elif layer.kind == KIND_POOL:
            if len(shape) != 3:
                raise ShapeMismatch(f"Pool at layer {i} needs an image input, got {shape}")
            h, w, c = shape
            win = _positive(layer.pool_window, "pool_window")
            if win > h or win > w:
                raise ShapeMismatch(f"pool window {win} exceeds input {h}x{w} at layer {i}")
            if layer.activation != "none":
                raise Unsupported("Pool takes no activation")
            shape = (h // win, w // win, c)
            resolved.append(replace(layer, out_shape=shape))
        elif layer.kind == KIND_FLATTEN:
            if len(shape) != 3:
                raise ShapeMismatch(f"Flatten at layer {i} needs an image input, got {shape}")
            if layer.activation != "none":
                raise Unsupported("Flatten takes no activation")
            shape = (shape[0] * shape[1] * shape[2],)
            resolved.append(replace(layer, out_shape=shape))
        else:  # Dense or Softmax
            if len(shape) != 1:
                raise ShapeMismatch(
                    f"{layer.kind} at layer {i} needs a flat input (add Flatten), got {shape}")
            units = _positive(layer.units, "units")
            prev = shape[0]
            if layer.prev_units is not None and layer.prev_units != prev:
                raise ShapeMismatch(
                    f"prev_units {layer.prev_units} != incoming size {prev} at layer {i}")
            if layer.kind == KIND_SOFTMAX:
                if i != len(spec.layers) - 1:
                    raise ShapeMismatch("Softmax allowed only as the last layer")
                activation = "softmax"
            else:
                if layer.activation == "softmax":
                    raise Unsupported("softmax activation is reserved for the Softmax layer")
                activation = layer.activation
            shape = (units,)
            resolved.append(replace(layer, prev_units=prev, activation=activation,
                                    out_shape=shape))

    return ModelSpec(tuple(spec.input_shape), tuple(resolved))


def build_model(spec: ModelSpec, seed: int) -> Model:
    """Validate the spec and initialize weights uniformly in
    [-WEIGHT_INIT_SPAN, WEIGHT_INIT_SPAN] from a SplitMix64 stream.

    The same seed always produces byte-identical weights.
    """
    rspec = resolve_spec(spec)
    rng = SplitMix64(seed)
    weights: dict[int, LayerWeights] = {}
    for i, (w_shape, b_shape) in _param_shapes(rspec).items():
        w = rng.uniforms(math.prod(w_shape), -WEIGHT_INIT_SPAN, WEIGHT_INIT_SPAN)
        b = rng.uniforms(math.prod(b_shape), -WEIGHT_INIT_SPAN, WEIGHT_INIT_SPAN)
        weights[i] = LayerWeights(Tensor(w.astype(np.float32).reshape(w_shape)),
                                  Tensor(b.astype(np.float32)))
    return Model(rspec, weights)


def _param_shapes(rspec: ModelSpec) -> dict:
    """Layer index -> (weight shape, bias shape) of each layer with parameters."""
    return {i: ((ly.kernel_h, ly.kernel_w, ly.in_channels, ly.filters)
                if ly.kind == KIND_CONV else (ly.prev_units, ly.units), ly.out_shape[-1:])
            for i, ly in enumerate(rspec.layers)
            if ly.kind in (KIND_CONV, KIND_DENSE, KIND_SOFTMAX)}


# --- layer application -------------------------------------------------------
#
# The private kernels take and return plain ndarrays (weights as a (w, b)
# pair). `out_dtype` is float32 on the public path; the gradient checker runs
# the same kernels end to end in float64.

@functools.lru_cache(maxsize=64)
def _im2col_index(h: int, w: int, c: int, kh: int, kw: int) -> np.ndarray:
    """Flat-input index of every patch element: row p = i*ow + j is the patch
    at output (i, j), column q = (di*kw + dj)*c + ch its (kh, kw, c) element.
    Read-only, since every caller shares the cached array."""
    oh, ow = h - kh + 1, w - kw + 1
    starts = (np.arange(oh)[:, None] * w + np.arange(ow)).reshape(-1, 1) * c
    offsets = ((np.arange(kh)[:, None, None] * w + np.arange(kw)[:, None]) * c
               + np.arange(c)).reshape(1, -1)
    idx = starts + offsets
    idx.flags.writeable = False
    return idx


def _conv_cols(a: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """im2col with patch layout (kh, kw, channels), matching the kernel layout."""
    h, w, c = a.shape
    return a.ravel()[_im2col_index(h, w, c, kh, kw)]


def _apply_conv(layer: LayerSpec, w: np.ndarray, b: np.ndarray, a: np.ndarray,
                out_dtype) -> np.ndarray:
    kh, kw, f = layer.kernel_h, layer.kernel_w, layer.filters
    oh, ow = a.shape[0] - kh + 1, a.shape[1] - kw + 1
    cols = _conv_cols(a.astype(np.float64, copy=False), kh, kw)
    w2 = w.reshape(kh * kw * a.shape[2], f).astype(np.float64, copy=False)
    z = cols @ w2
    z += b.astype(np.float64, copy=False)
    if layer.activation == "relu":
        np.maximum(z, 0.0, out=z)
    return z.reshape(oh, ow, f).astype(out_dtype, copy=False)


def _apply_pool(layer: LayerSpec, a: np.ndarray) -> np.ndarray:
    """Maximum over the win*win strided slices, one per window offset."""
    win = layer.pool_window
    oh, ow = a.shape[0] // win, a.shape[1] // win
    out = a[: oh * win : win, : ow * win : win].copy()
    for di in range(win):
        for dj in range(win):
            if di or dj:
                np.maximum(out, a[di : oh * win : win, dj : ow * win : win], out=out)
    return out


def _apply_dense(layer: LayerSpec, w: np.ndarray, b: np.ndarray, a: np.ndarray,
                 out_dtype) -> np.ndarray:
    z = a.astype(np.float64, copy=False) @ w.astype(np.float64, copy=False)
    z += b.astype(np.float64, copy=False)
    if layer.activation == "relu":
        np.maximum(z, 0.0, out=z)
    elif layer.activation == "softmax":
        e = np.exp(z - z.max())
        z = e / e.sum()
    return z.astype(out_dtype, copy=False)


def _apply_layer(layer: LayerSpec, wb: tuple[np.ndarray, np.ndarray] | None,
                 a: np.ndarray, out_dtype=np.float32) -> np.ndarray:
    if layer.kind == KIND_INPUT:
        return a.astype(out_dtype, copy=False)
    if layer.kind == KIND_CONV:
        return _apply_conv(layer, wb[0], wb[1], a, out_dtype)
    if layer.kind == KIND_POOL:
        return _apply_pool(layer, a).astype(out_dtype, copy=False)
    if layer.kind == KIND_FLATTEN:
        return a.reshape(-1).astype(out_dtype, copy=False)
    if layer.kind in (KIND_DENSE, KIND_SOFTMAX):
        return _apply_dense(layer, wb[0], wb[1], a, out_dtype)
    raise Unsupported(f"unknown layer kind {layer.kind!r}")


def _check_layer_input(layer: LayerSpec, shape: tuple[int, ...]) -> None:
    if layer.out_shape is None:
        raise UnresolvedShape(f"layer {layer.kind} is not shape-resolved")
    if layer.kind == KIND_INPUT:
        if shape != layer.out_shape:
            raise ShapeMismatch(f"expected input {layer.out_shape}, got {shape}")
    elif layer.kind == KIND_CONV:
        if len(shape) != 3 or shape[2] != layer.in_channels:
            raise ShapeMismatch(f"Conv expects (H, W, {layer.in_channels}), got {shape}")
        if shape[0] < layer.kernel_h or shape[1] < layer.kernel_w:
            raise ShapeMismatch(f"kernel exceeds input {shape}")
    elif layer.kind == KIND_POOL:
        if len(shape) != 3 or shape[0] < layer.pool_window or shape[1] < layer.pool_window:
            raise ShapeMismatch(f"Pool window {layer.pool_window} does not fit {shape}")
    elif layer.kind == KIND_FLATTEN:
        if len(shape) != 3:
            raise ShapeMismatch(f"Flatten expects an image input, got {shape}")
    else:
        if len(shape) != 1 or shape[0] != layer.prev_units:
            raise ShapeMismatch(f"{layer.kind} expects ({layer.prev_units},), got {shape}")


def layer_forward(layer: LayerSpec, weights: LayerWeights | None, x: Tensor) -> Tensor:
    """Apply one resolved layer to an activation tensor.

    This is the unit the partitioner schedules: composing layer_forward over
    all layers in order is bit-identical to forward().
    """
    _check_layer_input(layer, x.shape)
    wb = None
    if layer.kind in (KIND_CONV, KIND_DENSE, KIND_SOFTMAX):
        if weights is None:
            raise ShapeMismatch(f"{layer.kind} needs weights")
        wb = (weights.weight.array, weights.bias.array)
    return Tensor(_apply_layer(layer, wb, x.array))


def forward(model: Model, x: Tensor) -> Tensor:
    """Run the full network; returns the class-probability vector.

    Pure function: identical model and input give a bit-identical output.
    """
    if x.shape != model.spec.input_shape:
        raise ShapeMismatch(f"expected input {model.spec.input_shape}, got {x.shape}")
    act = x
    for i, layer in enumerate(model.spec.layers):
        act = layer_forward(layer, model.weights.get(i), act)
    return act


# --- batched layer steps ---------------------------------------------------------
#
# Each `_batch_*` builder allocates one layer's work buffers for `rows` inputs
# and returns the step that applies the layer to a chunk of n <= rows inputs,
# (n, *in_shape) -> (n, *out_shape), writing into those buffers. A step's
# output is overwritten by the next chunk. `wb` is a float64 (weight, bias)
# pair that the step reads at every call, so training updates it in place
# between minibatches. `out_dtype` is float32 for inference and float64 for
# training, whose steps take float64 chunks.

def _batch_conv(layer: LayerSpec, wb: tuple[np.ndarray, np.ndarray],
                in_shape: tuple[int, ...], rows: int, out_dtype):
    h, w, c = in_shape
    kh, kw, f = layer.kernel_h, layer.kernel_w, layer.filters
    oh, ow = h - kh + 1, w - kw + 1
    idx = _im2col_index(h, w, c, kh, kw)
    w2 = wb[0].reshape(kh * kw * c, f)  # a view, so it sees in-place updates
    bias = np.empty((oh * ow, f))
    a64 = np.empty((rows, h * w * c))
    cols = np.empty((rows, *idx.shape))
    z = np.empty((rows, oh * ow, f))
    out = z.reshape(rows, oh, ow, f)
    rounds = out_dtype != np.float64
    if rounds:
        out = np.empty((rows, oh, ow, f), dtype=out_dtype)

    def step(a: np.ndarray) -> np.ndarray:
        n = len(a)
        a64[:n] = a.reshape(n, -1)
        # idx is built from the shapes, so it is in range; "clip" skips the
        # bounds-checked copy that "raise" makes before writing into `out`
        np.take(a64[:n], idx, axis=1, out=cols[:n], mode="clip")
        np.matmul(cols[:n], w2, out=z[:n])
        # the bias tiled over oh*ow, so the add runs along one flat axis
        np.copyto(bias, wb[1])
        zf = z[:n].reshape(n, -1)
        zf += bias.reshape(-1)
        if layer.activation == "relu":
            np.maximum(zf, 0.0, out=zf)
        if rounds:
            out[:n] = z[:n].reshape(n, oh, ow, f)
        return out[:n]

    step.cols = cols  # the chunk's im2col, which training's backward reuses
    return step


def _batch_pool(layer: LayerSpec, in_shape: tuple[int, ...], rows: int, out_dtype):
    win = layer.pool_window
    oh, ow = in_shape[0] // win, in_shape[1] // win
    out = np.empty((rows, oh, ow, in_shape[2]), dtype=out_dtype)

    def step(a: np.ndarray) -> np.ndarray:
        o = out[:len(a)]
        o[...] = a[:, : oh * win : win, : ow * win : win]
        for di in range(win):
            for dj in range(win):
                if di or dj:
                    np.maximum(o, a[:, di : oh * win : win, dj : ow * win : win], out=o)
        return o

    return step


def _batch_dense(layer: LayerSpec, wb: tuple[np.ndarray, np.ndarray], rows: int,
                 out_dtype):
    a64 = np.empty((rows, 1, layer.prev_units))
    z = np.empty((rows, 1, layer.units))
    out = np.empty((rows, layer.units), dtype=out_dtype)

    def step(a: np.ndarray) -> np.ndarray:
        n = len(a)
        a64[:n, 0] = a
        zn = np.matmul(a64[:n], wb[0], out=z[:n])
        zn += wb[1]
        if layer.activation == "relu":
            np.maximum(zn, 0.0, out=zn)
        elif layer.activation == "softmax":
            np.subtract(zn, zn.max(axis=2, keepdims=True), out=zn)
            np.exp(zn, out=zn)
            np.divide(zn, zn.sum(axis=2, keepdims=True), out=zn)
        out[:n] = zn[:, 0]
        return out[:n]

    return step


def _batch_step(layer: LayerSpec, wb: tuple[np.ndarray, np.ndarray] | None,
                in_shape: tuple[int, ...], rows: int, out_dtype):
    """Check `layer` against the shape it receives and build its chunk step."""
    _check_layer_input(layer, in_shape)
    if layer.kind == KIND_INPUT:  # copies the chunk of the input stack
        buf = np.empty((rows, *in_shape), dtype=out_dtype)

        def copy_in(a: np.ndarray) -> np.ndarray:
            out = buf[:len(a)]
            out[...] = a
            return out

        return copy_in
    if layer.kind == KIND_POOL:
        return _batch_pool(layer, in_shape, rows, out_dtype)
    if layer.kind == KIND_FLATTEN:
        return lambda a: a.reshape(len(a), -1)
    if layer.kind not in (KIND_CONV, KIND_DENSE, KIND_SOFTMAX):
        raise Unsupported(f"unknown layer kind {layer.kind!r}")
    if wb is None:
        raise ShapeMismatch(f"{layer.kind} needs weights")
    if layer.kind == KIND_CONV:
        return _batch_conv(layer, wb, in_shape, rows, out_dtype)
    return _batch_dense(layer, wb, rows, out_dtype)


# --- running chunks on every CPU -------------------------------------------------

def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _run_jobs(jobs: list) -> list:
    """Call every job: the first on the calling thread, each other on a
    thread of its own, all in a copy of the caller's context, so that its
    np.errstate holds in every job. Returns the results in job order, or
    raises the error of the earliest job that failed. Every thread is joined
    before the call returns or raises."""
    outcomes: list = [None] * len(jobs)

    def run(k: int) -> None:
        try:
            outcomes[k] = (jobs[k](), None)
        except BaseException as exc:  # re-raised on the calling thread below
            outcomes[k] = (None, exc)

    threads = []
    try:
        for k in range(1, len(jobs)):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(run, k))
            thread.start()
            threads.append(thread)
        run(0)
    finally:
        for thread in threads:
            thread.join()
    for _, exc in outcomes:
        if exc is not None:
            raise exc
    return [result for result, _ in outcomes]


def forward_batch(model: Model, xs: np.ndarray) -> np.ndarray:
    """Run the full network on an (n, *input_shape) stack of float32 inputs;
    returns a fresh (n, classes) float32 array whose row k is bit-identical
    to `forward(model, Tensor(xs[k])).array`. The errors are forward's: a
    wrong input shape, or a non-finite input or activation, raises
    ShapeMismatch.

    Applies each layer to FORWARD_CHUNK inputs at a time, through work
    buffers allocated once per worker, and deals the chunks out to one
    worker per CPU (see the module docstring).
    """
    if xs.shape[1:] != model.spec.input_shape:
        raise ShapeMismatch(f"expected input {model.spec.input_shape}, got {xs.shape[1:]}")
    outputs = np.empty((len(xs), *model.spec.layers[-1].out_shape), dtype=np.float32)
    starts = range(0, len(xs), FORWARD_CHUNK)
    if not starts:
        return outputs
    rows = min(len(xs), FORWARD_CHUNK)
    params = _collect_params(model)

    def work(share: range) -> None:
        steps = []
        shape = model.spec.input_shape
        for i, layer in enumerate(model.spec.layers):
            steps.append(_batch_step(layer, params.get(i), shape, rows, np.float32))
            shape = layer.out_shape
        for start in share:
            act = xs[start:start + FORWARD_CHUNK]
            for step in steps:
                act = step(act)
                if not np.isfinite(act).all():
                    raise ShapeMismatch("tensor elements must be finite")
            outputs[start:start + len(act)] = act

    workers = min(_cpu_count(), len(starts))
    _run_jobs([functools.partial(work, starts[w::workers]) for w in range(workers)])
    return outputs


# --- cost model ---------------------------------------------------------------

def layer_flops(layer: LayerSpec) -> int:
    """Deterministic per-layer flop count used by the fleet simulator.

    Conv counts multiply-adds over every output position; Dense/Softmax count
    the matrix product; Pool counts window comparisons. Input and Flatten move
    data only.
    """
    if layer.out_shape is None:
        raise UnresolvedShape(f"layer {layer.kind} is not shape-resolved")
    if layer.kind == KIND_CONV:
        oh, ow, f = layer.out_shape
        return 2 * layer.kernel_h * layer.kernel_w * layer.in_channels * f * oh * ow
    if layer.kind in (KIND_DENSE, KIND_SOFTMAX):
        return 2 * layer.prev_units * layer.units
    if layer.kind == KIND_POOL:
        oh, ow, c = layer.out_shape
        return oh * ow * c * layer.pool_window ** 2
    return 0


def model_flops(spec: ModelSpec) -> int:
    rspec = resolve_spec(spec)
    return sum(layer_flops(layer) for layer in rspec.layers)


# --- training -----------------------------------------------------------------

def _collect_params(model: Model) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Float64 copies of all weights, for the check/gradient path."""
    return {i: (lw.weight.array.astype(np.float64), lw.bias.array.astype(np.float64))
            for i, lw in model.weights.items()}


def _forward_acts(spec: ModelSpec, params: dict, x: np.ndarray,
                  out_dtype) -> list[np.ndarray]:
    """Per-layer post-activation values; acts[i] is the output of layer i."""
    acts = []
    a = x
    for i, layer in enumerate(spec.layers):
        a = _apply_layer(layer, params.get(i), a, out_dtype)
        acts.append(a)
    return acts


def _loss_from_probs(probs: np.ndarray, label: int) -> float:
    return float(-math.log(max(float(probs[label]), LOG_CLAMP)))


def _backward(spec: ModelSpec, params: dict, x: np.ndarray, acts: list[np.ndarray],
              label: int) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Gradients of the cross-entropy loss w.r.t. every weight and bias.

    Float64 throughout (`x`, `acts` and `params` are float64 arrays); callers
    round to float32 for SGD updates. The Softmax layer folds the loss
    derivative into probs - onehot, exact whenever the log clamp is inactive.
    The pass stops at the first trainable layer, whose input gradient nothing
    reads.
    """
    grads: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    first = min(params)
    d = None  # gradient w.r.t. the current layer's output
    for i in range(len(spec.layers) - 1, first - 1, -1):
        layer = spec.layers[i]
        a_prev = acts[i - 1] if i > 0 else x
        if layer.kind in (KIND_SOFTMAX, KIND_DENSE):
            if layer.kind == KIND_SOFTMAX:
                dz = acts[i].copy()
                dz[label] -= 1.0
            else:
                dz = d if layer.activation != "relu" else d * (acts[i] > 0)
            grads[i] = (np.outer(a_prev, dz), dz)
            if i > first:
                d = params[i][0] @ dz
        elif layer.kind == KIND_FLATTEN:
            d = d.reshape(a_prev.shape)
        elif layer.kind == KIND_POOL:
            d = _pool_backward(layer, a_prev, acts[i], d)
        elif layer.kind == KIND_CONV:
            dz = d if layer.activation != "relu" else d * (acts[i] > 0)
            dw, db, d = _conv_backward(layer, a_prev, dz, params[i][0],
                                       input_grad=i > first)
            grads[i] = (dw, db)
    return grads


@functools.lru_cache(maxsize=64)
def _pool_base_index(h: int, w: int, c: int, win: int) -> np.ndarray:
    """Flat-input index of the (0, 0) element of every pool window, in the
    (oh, ow, c) layout of the pool output. Read-only, since every caller
    shares the cached array."""
    oh, ow = h // win, w // win
    idx = ((np.arange(oh)[:, None] * (win * w) + np.arange(ow) * win)[:, :, None] * c
           + np.arange(c))
    idx.flags.writeable = False
    return idx


def _pool_backward(layer: LayerSpec, a_prev: np.ndarray, out: np.ndarray,
                   d: np.ndarray) -> np.ndarray:
    """Route each output gradient to the first maximum of its window, in
    (di, dj) row-major order, over the same strided slices as _apply_pool.

    `first` holds each window's flat offset of its maximum. It starts at the
    last offset, since every window holds its own maximum, and the earlier
    offsets overwrite it from last to first, so the earliest maximum wins.
    """
    win = layer.pool_window
    h, w, c = a_prev.shape
    oh, ow = d.shape[0], d.shape[1]
    first = np.full(d.shape, ((win - 1) * w + win - 1) * c, dtype=np.intp)
    for k in range(win * win - 2, -1, -1):
        di, dj = divmod(k, win)
        window = (slice(di, oh * win, win), slice(dj, ow * win, win))
        np.copyto(first, (di * w + dj) * c, where=a_prev[window] == out)
    first += _pool_base_index(h, w, c, win)
    da = np.zeros(a_prev.size)
    da[first] = d
    return da.reshape(a_prev.shape)


@functools.lru_cache(maxsize=64)
def _col2im_index(h: int, w: int, c: int, kh: int, kw: int) -> np.ndarray:
    """_im2col_index flattened in (kh*kw, c, oh*ow) order, the layout of the
    column gradient weight @ dz.T, so a bincount over it adds every input
    element's contributions in ascending (di, dj) order. Read-only, since
    every caller shares the cached array."""
    idx = _im2col_index(h, w, c, kh, kw).T.ravel()
    idx.flags.writeable = False
    return idx


def _conv_backward(layer: LayerSpec, a_prev: np.ndarray, dz: np.ndarray,
                   weight: np.ndarray, input_grad: bool = True
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(dw, db, da) of one float64 conv; da is None unless `input_grad`."""
    kh, kw, f = layer.kernel_h, layer.kernel_w, layer.filters
    h, w, cin = a_prev.shape
    oh, ow = dz.shape[0], dz.shape[1]
    cols = _conv_cols(a_prev, kh, kw)  # (oh*ow, kh*kw*cin)
    dz2 = dz.reshape(oh * ow, f)
    dw = (cols.T @ dz2).reshape(kh, kw, cin, f)
    db = dz2.sum(axis=0)
    if not input_grad:
        return dw, db, None
    # col2im: scatter the (kh*kw*cin, oh*ow) column gradient onto the image
    dcols = weight.reshape(kh * kw * cin, f) @ dz2.T
    da = np.bincount(_col2im_index(h, w, cin, kh, kw),
                     weights=dcols.ravel(), minlength=h * w * cin)
    return dw, db, da.reshape(h, w, cin)


# --- batched training -------------------------------------------------------------
#
# Each `_grad_*` builder allocates one layer's backward buffers for `rows`
# samples and returns the step (a_prev, a, d) -> (d_prev, grads) that
# back-propagates a chunk: a_prev and a are the layer's float64 input and
# output, d the gradient w.r.t. its output (w.r.t. the logits for Softmax).
# d_prev is None for the first trainable layer, and grads is None for a
# layer without weights, else each item's (weight, bias) gradient stacked
# along axis 0. Both are overwritten by the next chunk.

def _grad_dense(layer: LayerSpec, wb: tuple[np.ndarray, np.ndarray], rows: int,
                input_grad: bool):
    k, units = layer.prev_units, layer.units
    relu = layer.activation == "relu"
    alive = np.empty((rows, units), dtype=bool)
    dz = np.empty((rows, units))
    gw = np.empty((rows, k, units))
    da = np.empty((rows, k, 1))

    def step(a_prev, a, d):
        n = len(d)
        if relu:
            d = np.multiply(d, np.greater(a, 0, out=alive[:n]), out=dz[:n])
        np.multiply(a_prev[:, :, None], d[:, None, :], out=gw[:n])  # np.outer
        if not input_grad:
            return None, (gw[:n], d)
        np.matmul(wb[0], d[:, :, None], out=da[:n])  # W @ dz, one gemv per item
        return da[:n, :, 0], (gw[:n], d)

    return step


def _grad_conv(layer: LayerSpec, wb: tuple[np.ndarray, np.ndarray],
               in_shape: tuple[int, ...], cols: np.ndarray, input_grad: bool):
    h, w, c = in_shape
    kh, kw, f = layer.kernel_h, layer.kernel_w, layer.filters
    size, p, k = h * w * c, (h - kh + 1) * (w - kw + 1), kh * kw * c
    rows = len(cols)
    relu = layer.activation == "relu"
    w2 = wb[0].reshape(k, f)
    alive = np.empty((rows, p, f), dtype=bool)
    dz = np.empty((rows, p, f))
    gw = np.empty((rows, k, f))
    gb = np.empty((rows, f))
    if input_grad:
        dcols = np.empty((rows, k, p))
        # item j's bins shifted past the j earlier items' images
        bins = (_col2im_index(h, w, c, kh, kw) + np.arange(rows)[:, None] * size).ravel()

    def step(a_prev, a, d):
        n = len(d)
        d = d.reshape(n, p, f)
        if relu:
            d = np.multiply(d, np.greater(a.reshape(n, p, f), 0, out=alive[:n]), out=dz[:n])
        np.matmul(cols[:n].transpose(0, 2, 1), d, out=gw[:n])
        np.sum(d, axis=1, out=gb[:n])
        grads = (gw[:n].reshape(n, kh, kw, c, f), gb[:n])
        if not input_grad:
            return None, grads
        np.matmul(w2, d.transpose(0, 2, 1), out=dcols[:n])
        da = np.bincount(bins[: n * k * p], weights=dcols[:n].ravel(), minlength=n * size)
        return da.reshape(n, h, w, c), grads

    return step


def _grad_pool(layer: LayerSpec, in_shape: tuple[int, ...], rows: int):
    win = layer.pool_window
    h, w, c = in_shape
    oh, ow = h // win, w // win
    base = _pool_base_index(h, w, c, win) + (np.arange(rows) * (h * w * c))[:, None, None, None]
    hit = np.empty((rows, oh, ow, c), dtype=bool)
    first = np.empty((rows, oh, ow, c), dtype=np.intp)
    delta = np.empty_like(first)
    da = np.empty((rows, h, w, c))

    def step(a_prev, a, d):
        # _pool_backward's routing; first = where(hit, offset, first) runs
        # as integer arithmetic, about 3x faster than a masked copyto
        n = len(d)
        at = first[:n]
        at.fill(((win - 1) * w + win - 1) * c)
        for k in range(win * win - 2, -1, -1):
            di, dj = divmod(k, win)
            window = a_prev[:, di : oh * win : win, dj : ow * win : win]
            np.subtract(at, (di * w + dj) * c, out=delta[:n])
            np.multiply(delta[:n], np.equal(window, a, out=hit[:n]), out=delta[:n])
            at -= delta[:n]
        at += base[:n]
        da[:n] = 0.0
        da.reshape(-1)[at] = d
        return da[:n], None

    return step


def _grad_step(layer: LayerSpec, wb: tuple[np.ndarray, np.ndarray] | None,
               in_shape: tuple[int, ...], rows: int, input_grad: bool, forward_step):
    if layer.kind == KIND_CONV:
        return _grad_conv(layer, wb, in_shape, forward_step.cols, input_grad)
    if layer.kind == KIND_POOL:
        return _grad_pool(layer, in_shape, rows)
    if layer.kind == KIND_FLATTEN:
        return lambda a_prev, a, d: (d.reshape(a_prev.shape), None)
    return _grad_dense(layer, wb, rows, input_grad)


def _train_pass(spec: ModelSpec, params: dict, rows: int):
    """The batched forward and backward pass of up to `rows` samples.

    Returns run(xs, labels) -> (acts, grads) for an (n, *input_shape) chunk
    of inputs: acts[i] is layer i's float64 output and grads[i] each item's
    (weight, bias) gradient, in _backward's key order, each stacked along
    axis 0. Both equal _forward_acts and _backward item by item, bit for
    bit, and are views of work buffers that the next call overwrites. `params` is read at every
    call, so it may be updated in place between calls.
    """
    first = min(params)
    forward, backward = [], {}
    shape = spec.input_shape
    for i, layer in enumerate(spec.layers):
        forward.append(_batch_step(layer, params.get(i), shape, rows, np.float64))
        if i >= first:
            backward[i] = _grad_step(layer, params.get(i), shape, rows, i > first,
                                     forward[-1])
        shape = layer.out_shape
    top = np.empty((rows, shape[0]))

    def run(xs: np.ndarray, labels: list[int]):
        n = len(xs)
        acts, a = [], xs
        for step in forward:
            a = step(a)
            acts.append(a)
        d = top[:n]
        d[...] = a  # probs - onehot: the loss gradient w.r.t. the logits
        d[np.arange(n), labels] -= 1.0
        grads = {}
        for i in range(len(spec.layers) - 1, first - 1, -1):
            d, g = backward[i](acts[i - 1], acts[i], d)
            if g is not None:
                grads[i] = g
        return acts, grads

    return run


def train_model(model: Model, images: np.ndarray, labels: list[int], *,
                epochs: int, learning_rate: float, batch_size: int,
                seed: int, clip_norm: float | None = None) -> tuple[Model, list[float]]:
    """Minibatch SGD with cross-entropy loss on `images`, the samples as one
    (n, *input_shape) float32 stack, and their n labels.

    The input model is untouched; a trained copy is returned together with
    the per-epoch mean training loss. The shuffle order comes from the given
    seed, so the whole run is reproducible.

    clip_norm bounds the global l2 norm of each batch gradient. The small
    uniform init leaves the deep default network with vanishing logits, and
    the learning rates needed to escape that plateau overshoot once the
    signal grows; clipping keeps those rates stable.
    """
    xs = np.ascontiguousarray(images, dtype=np.float32)
    if len(xs) == 0:
        raise EmptyCorpus("no training samples")
    if len(xs) != len(labels):
        raise EmptyCorpus("images and labels differ in length")
    classes = model.spec.layers[-1].units
    for lab in labels:
        if not 0 <= lab < classes:
            raise LabelOutOfRange(f"label {lab} outside [0, {classes})")
    if xs.shape[1:] != model.spec.input_shape:
        raise ShapeMismatch(f"sample shape {xs.shape[1:]} != {model.spec.input_shape}")
    if not np.isfinite(xs).all():
        raise ShapeMismatch("tensor elements must be finite")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")

    trained = model.copy()
    params = _collect_params(trained)
    rows = min(len(xs), batch_size, FORWARD_CHUNK)
    workers = min(_cpu_count(), -(-min(len(xs), batch_size) // FORWARD_CHUNK))
    runners = [_train_pass(trained.spec, params, rows) for _ in range(workers)]
    rng = SplitMix64(seed)
    lr = np.float32(learning_rate)
    history: list[float] = []
    for _ in range(epochs):
        order = list(range(len(xs)))
        rng.shuffle(order)
        batch_losses: list[float] = []
        for start in range(0, len(order), batch_size):
            batch = order[start:start + batch_size]
            acc: dict[int, tuple[np.ndarray, np.ndarray]] = {}
            loss_sum = 0.0
            chunks = [batch[c:c + FORWARD_CHUNK] for c in range(0, len(batch), FORWARD_CHUNK)]
            # one chunk per runner at a time, then the fold in sample order
            for first in range(0, len(chunks), workers):
                group = chunks[first:first + workers]
                passes = _run_jobs([
                    functools.partial(run, xs[chunk], [labels[idx] for idx in chunk])
                    for run, chunk in zip(runners, group)])
                for chunk, (acts, grads) in zip(group, passes):
                    for probs, idx in zip(acts[-1], chunk):
                        loss_sum += _loss_from_probs(probs, labels[idx])
                    # the fold acc + g in sample order, from the first gradient
                    for i, (gw, gb) in grads.items():
                        if i not in acc:
                            acc[i] = (gw[0].copy(), gb[0].copy())
                            gw, gb = gw[1:], gb[1:]
                        aw, ab = acc[i]
                        for item_w, item_b in zip(gw, gb):
                            np.add(aw, item_w, out=aw)
                            np.add(ab, item_b, out=ab)
            scale = 1.0 / len(batch)
            if clip_norm is not None:
                sq = sum(float(np.sum((gw * scale) ** 2) + np.sum((gb * scale) ** 2))
                         for gw, gb in acc.values())
                norm = math.sqrt(sq)
                if norm > clip_norm:
                    scale *= clip_norm / norm
            for i, (gw, gb) in acc.items():
                lw = trained.weights[i]
                lw.weight = Tensor(lw.weight.array - lr * (gw * scale).astype(np.float32))
                lw.bias = Tensor(lw.bias.array - lr * (gb * scale).astype(np.float32))
                np.copyto(params[i][0], lw.weight.array)
                np.copyto(params[i][1], lw.bias.array)
            batch_losses.append(loss_sum / len(batch))
        history.append(sum(batch_losses) / len(batch_losses))
    return trained, history


def backward_check(model: Model, x: Tensor, label: int, step: float = 1e-3) -> float:
    """Max relative error between backprop and central finite differences.

    Both sides run the float64 path so the comparison is limited by the
    algorithms, not by float32 rounding. 0/0 cases report 0.
    """
    params = _collect_params(model)
    x64 = x.array.astype(np.float64)
    acts = _forward_acts(model.spec, params, x64, np.float64)
    grads = _backward(model.spec, params, x64, acts, label)

    def loss() -> float:
        a = _forward_acts(model.spec, params, x64, np.float64)
        return _loss_from_probs(a[-1], label)

    worst = 0.0
    for i, (gw, gb) in grads.items():
        for analytic, arr in ((gw, params[i][0]), (gb, params[i][1])):
            flat = arr.ravel()
            gflat = analytic.ravel()
            for j in range(flat.size):
                old = flat[j]
                flat[j] = old + step
                lp = loss()
                flat[j] = old - step
                lm = loss()
                flat[j] = old
                fd = (lp - lm) / (2.0 * step)
                denom = max(abs(gflat[j]), abs(fd))
                if denom > 0.0:
                    worst = max(worst, abs(gflat[j] - fd) / denom)
    return worst


# --- JSON interchange -----------------------------------------------------------

_SPEC_FIELDS = ("kernel_w", "kernel_h", "filters", "in_channels", "units",
                "prev_units", "pool_window")


def spec_to_json(spec: ModelSpec) -> dict:
    layers = []
    for layer in spec.layers:
        entry: dict = {"kind": layer.kind}
        for name in _SPEC_FIELDS:
            value = getattr(layer, name)
            if value is not None:
                entry[name] = value
        if layer.activation != "none":
            entry["activation"] = layer.activation
        layers.append(entry)
    return {"input_shape": list(spec.input_shape), "layers": layers}


def spec_from_json(doc: dict) -> ModelSpec:
    layers = tuple(
        LayerSpec(kind=entry["kind"],
                  activation=entry.get("activation", "none"),
                  **{name: entry.get(name) for name in _SPEC_FIELDS})
        for entry in doc["layers"])
    return resolve_spec(ModelSpec(tuple(doc["input_shape"]), layers))


def load_spec(path) -> ModelSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_json(json.load(fh))


def weights_to_json(model: Model) -> dict:
    layers = {}
    for i, lw in model.weights.items():
        layers[str(i)] = {
            "weight_shape": list(lw.weight.shape),
            "weight": [float(v) for v in lw.weight.data],
            "bias": [float(v) for v in lw.bias.data],
        }
    return {"layers": layers}


def weights_from_json(doc: dict, spec: ModelSpec) -> Model:
    """Rebuild a Model from serialized weights; exact at float32 precision.
    Raises ShapeMismatch unless the layers and shapes are the spec's."""
    rspec = resolve_spec(spec)
    shapes = {str(i): shape for i, shape in _param_shapes(rspec).items()}
    if set(doc["layers"]) != set(shapes):
        raise ShapeMismatch(f"weights for layers {sorted(doc['layers'])}, not {sorted(shapes)}")
    weights: dict[int, LayerWeights] = {}
    for key, (w_shape, b_shape) in shapes.items():
        entry = doc["layers"][key]
        w = np.asarray(entry["weight"], dtype=np.float32).reshape(w_shape)
        b = np.asarray(entry["bias"], dtype=np.float32)
        if tuple(entry["weight_shape"]) != w_shape or b.shape != b_shape:
            raise ShapeMismatch(f"layer {key} needs a {w_shape} weight and a {b_shape} bias")
        weights[int(key)] = LayerWeights(Tensor(w), Tensor(b))
    return Model(rspec, weights)
