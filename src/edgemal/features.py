"""Trace and binary-byte featurization.

Turns labeled hardware-counter traces plus raw binary bytes into grayscale
images for the classifier, ranks counter events by correlation with the class
labels, and generates the seeded synthetic corpus used throughout the tests
and the CLI.

Pixel conventions fixed for reproducibility: trace values are min-max scaled
to 0..255 with rounding half away from zero; a constant trace maps to 0; the
pixel stream is trace values followed by binary bytes, truncated or
zero-padded to 256*256; downsampling averages 8x8 blocks with the same
rounding rule.

The synthetic corpus is one (samples, events) float64 trace matrix and one
(samples, 32, 32) uint8 array of blob block values; `sample_image` builds a
sample's 256x256 image, its blob being its blocks repeated 8x8, on demand.
Its bits are those of one scalar `SplitMix64.normal()` call per value. The
generator draws the uniform pairs of up to `_CORPUS_CHUNK` samples at once.
Trace values keep every float bit, so their normals go through the exact
`rng.box_muller`. Block values are only rounded to bytes, so their normals
use np.log/np.cos, and the few elements close enough to a rounding boundary
for the fast path's error to matter are redone exactly (`_jittered`).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .cnn import Tensor
from .errors import EmptyInput, EmptyTraceSet, KOutOfRange, ShapeMismatch, WrongSide
from .rng import SplitMix64, box_muller

FULL_SIDE = 256
SMALL_SIDE = 32
PIXELS = FULL_SIDE * FULL_SIDE
# samples whose normals gen_synthetic_corpus draws at once
_CORPUS_CHUNK = 8

CLASS_NAMES = ("benign", "backdoor", "rootkit", "trojan", "virus", "worm")


def _class_names(count: int) -> list[str]:
    """The first `count` CLASS_NAMES, then malware<k> for class k beyond them."""
    return [*CLASS_NAMES[:count],
            *(f"malware{k}" for k in range(len(CLASS_NAMES), count))]


@dataclass
class TraceSet:
    """Labeled event matrix: one row per sample, one column per event."""

    event_names: list[str]
    rows: np.ndarray          # (samples, events) float64
    labels: np.ndarray        # (samples,) int
    class_names: list[str]

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.event_names):
            raise ShapeMismatch("trace row width must equal event count")
        if self.labels.shape != (self.rows.shape[0],):
            raise ShapeMismatch("one label per trace row required")
        if not np.all(np.isfinite(self.rows)):
            raise ShapeMismatch("trace values must be finite")
        n_classes = len(self.class_names)
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= n_classes):
            raise ShapeMismatch("labels must lie in [0, class count)")


@dataclass(frozen=True)
class EventRank:
    name: str
    rho: float
    rank: int


@dataclass
class GrayImage:
    """Square grayscale image stored as a flat byte vector."""

    side: int
    pixels: np.ndarray  # (side*side,) uint8
    label: int

    def __post_init__(self) -> None:
        self.pixels = np.asarray(self.pixels, dtype=np.uint8)
        if self.pixels.shape != (self.side * self.side,):
            raise ShapeMismatch(f"expected {self.side * self.side} pixels")


def _round_half_away(values: np.ndarray) -> np.ndarray:
    """Round half away from zero; inputs here are always non-negative."""
    return np.floor(values + 0.5)


# --- event ranking ------------------------------------------------------------

def rank_events(traces: TraceSet) -> list[EventRank]:
    """Rank events by correlation against one-vs-rest class indicators.

    For each event the score is the correlation of largest magnitude over all
    classes, sign preserved. Accumulation is single-pass (sums of x, x^2 and
    per-class sums). A column whose variance is zero or not finite (its
    squares overflow), or an indicator with zero variance, contributes 0.
    """
    n, e = traces.rows.shape
    if n < 2 or e < 1:
        raise EmptyTraceSet(f"need >= 2 samples and >= 1 event, got {n}x{e}")

    class_count = len(traces.class_names)
    counts = np.bincount(traces.labels, minlength=class_count).astype(np.float64)
    # Folds in row order, as a scalar loop adds: cumsum is sequential where
    # np.sum is pairwise. Like Python floats, the sums and squares may
    # overflow silently; the per-class sums warn as numpy scalars do.
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.cumsum(traces.rows, axis=0)[-1].tolist()
        squares = np.cumsum(traces.rows * traces.rows, axis=0)[-1].tolist()
    sxy = np.zeros((class_count, e), dtype=np.float64)
    np.add.at(sxy, traces.labels, traces.rows)

    rhos: list[float] = []
    for i in range(e):
        mean_x = sums[i] / n
        var_x = squares[i] / n - mean_x * mean_x
        best = 0.0
        best_abs = 0.0
        for k in range(class_count):
            p = counts[k] / n
            var_y = p * (1.0 - p)
            if not 0.0 < var_x < math.inf or var_y <= 0.0:
                continue
            cov = sxy[k, i] / n - mean_x * p
            r = cov / math.sqrt(var_x * var_y)
            r = max(-1.0, min(1.0, r))
            if abs(r) > best_abs:
                best_abs = abs(r)
                best = r
        rhos.append(best)

    order = sorted(range(e), key=lambda i: (-abs(rhos[i]), traces.event_names[i]))
    ranked = [EventRank(traces.event_names[i], rhos[i], pos + 1)
              for pos, i in enumerate(order)]
    return ranked


def select_top_events(ranked: list[EventRank], k: int) -> list[str]:
    """Names of the k best-ranked events, best first."""
    if k < 1 or k > len(ranked):
        raise KOutOfRange(f"k must be in [1, {len(ranked)}], got {k}")
    return [entry.name for entry in ranked[:k]]


# --- image construction ---------------------------------------------------------

def to_grayscale(trace_values, binary_bytes: bytes, label: int = 0) -> GrayImage:
    """Pack scaled trace values followed by raw bytes into a 256x256 image."""
    values = np.asarray(trace_values, dtype=np.float64).ravel()
    blob = np.frombuffer(bytes(binary_bytes), dtype=np.uint8)
    if values.size == 0 and blob.size == 0:
        raise EmptyInput("need at least one trace value or byte")

    pixels = np.zeros(PIXELS, dtype=np.uint8)
    if values.size:
        vmin = values.min()
        vmax = values.max()
        if vmax > vmin:
            scaled = _round_half_away(255.0 * (values - vmin) / (vmax - vmin))
        else:
            scaled = np.zeros_like(values)
        take = min(values.size, PIXELS)
        pixels[:take] = scaled[:take].astype(np.uint8)
    start = min(values.size, PIXELS)
    take = min(blob.size, PIXELS - start)
    if take > 0:
        pixels[start:start + take] = blob[:take]
    return GrayImage(FULL_SIDE, pixels, label)


def downsample(img: GrayImage) -> GrayImage:
    """Reduce 256x256 to 32x32 by averaging 8x8 blocks; label is kept."""
    if img.side != FULL_SIDE:
        raise WrongSide(f"expected side {FULL_SIDE}, got {img.side}")
    # Exact integer block sums (at most 64 * 255 = 16320): 8 rows in uint16
    # first, then 8 columns as a float64 product with ones, exact in any
    # summation order below 2**53. Dividing by 64 is exact, so this equals
    # the float64 mean.
    rows = img.pixels.reshape(SMALL_SIDE, 8, FULL_SIDE).sum(axis=1, dtype=np.uint16)
    sums = rows.reshape(SMALL_SIDE, SMALL_SIDE, 8) @ np.ones(8)
    return GrayImage(SMALL_SIDE, _round_half_away(sums / 64.0).astype(np.uint8).ravel(),
                     img.label)


def input_values(pixels: np.ndarray) -> np.ndarray:
    """Classifier input values of uint8 pixels of any shape: the bytes as
    float32, centered at 128.

    Keeping the byte scale (rather than [0, 1]) matters for trainability:
    with the small uniform weight init, unit-scale inputs leave the deep
    default network with logits too small for SGD to escape.
    """
    return np.subtract(pixels, np.float32(128.0), dtype=np.float32)


def image_to_tensor(img: GrayImage) -> Tensor:
    """Classifier input of one image: its `input_values`, shaped (side, side, 1)."""
    return Tensor(input_values(img.pixels).reshape(img.side, img.side, 1))


# --- synthetic corpus ------------------------------------------------------------

@dataclass
class CorpusBundle:
    """Generator output: traces, each sample's binary blob as its 32x32 block
    values (see `sample_image`), and the planted ground truth (class id ->
    shifted event columns) used by the tests."""

    traces: TraceSet
    blocks: np.ndarray        # (samples, 32, 32) uint8
    planted: dict[int, list[int]]


def gen_synthetic_corpus(*, samples_per_class: int, events: int = 16,
                         noise: float = 4.0, classes: int = 6,
                         seed: int = 42) -> CorpusBundle:
    """Seeded stand-in corpus: traces with per-class mean shifts and binary
    blobs with a per-class block texture plus per-block jitter.

    Class 0 is the benign baseline; each malware class k >= 1 shifts event
    column k-1. Every class draws from its own seed substream, so per-class
    generation is order-independent. noise=0 makes rows (and blobs) identical
    within a class.
    """
    if samples_per_class < 1:
        raise ValueError("samples_per_class must be >= 1")
    if classes < 2:
        raise ValueError("need at least two classes")
    if events < classes - 1:
        raise ValueError(f"need >= {classes - 1} events for {classes} classes")

    names = _class_names(classes)

    base_mean = 100.0
    shift = 50.0
    planted = {k: [k - 1] for k in range(1, classes)}

    root = SplitMix64(seed)
    rows = np.zeros((classes * samples_per_class, events), dtype=np.float64)
    labels = np.repeat(np.arange(classes, dtype=np.int64), samples_per_class)
    blocks = np.zeros((classes * samples_per_class, SMALL_SIDE, SMALL_SIDE), dtype=np.uint8)
    # Each sample draws its normals in the scalar draw order: the trace
    # values, then (only when noise > 0) the jitter of the 32x32 blocks. The
    # stream is sequential, so drawing the pairs of up to _CORPUS_CHUNK
    # samples at once keeps that order.
    draw = events + (SMALL_SIDE * SMALL_SIDE if noise > 0.0 else 0)
    for k in range(classes):
        stream = root.substream(k)
        means = np.full(events, base_mean)
        means[planted.get(k, [])] += shift
        texture = _class_texture(k)
        for first in range(k * samples_per_class, (k + 1) * samples_per_class,
                           _CORPUS_CHUNK):
            m = min(_CORPUS_CHUNK, (k + 1) * samples_per_class - first)
            u = stream.normal_uniforms(m * draw).reshape(m, draw, 2)
            rows[first:first + m] = means + noise * box_muller(u[:, :events, 0],
                                                                u[:, :events, 1])
            values = texture  # non-negative, like the jittered values
            if noise > 0.0:
                values = _jittered(texture, noise, u[:, events:, 0], u[:, events:, 1])
            blocks[first:first + m] = np.clip(_round_half_away(values), 0, 255)

    traces = TraceSet([f"event_{j}" for j in range(events)], rows, labels, names)
    return CorpusBundle(traces, blocks, planted)


def _jittered(texture: np.ndarray, noise: float, u1: np.ndarray,
              u2: np.ndarray) -> np.ndarray:
    """max(texture + noise * z, 0) for the Box-Muller normals z of the (m, 1024)
    uniform pairs u1, u2, shaped (m, 32, 32). The caller only rounds these
    values half away from zero, and they round to the bytes exact normals give.

    z comes from np.log/np.cos, which differ from `box_muller` by a few ulps
    (at most 1.6 ulps of z on the default corpus). Rounding, floor(fl(x +
    0.5)), is monotone in x and changes value only where x crosses a
    half-integer. So an element whose fast x lies farther than
    tol = 2**-30 * (noise * |z| + x + 1) from its nearest half-integer,
    floor(x) + 0.5, rounds to the same byte as the exact x: tol is about
    2**22 ulps of the sum's largest term, more than a fast-path error of
    about 2**20 ulps plus the half ulp by which fl(x + 0.5) may round. Every
    other element, NaN and inf included, is redone with `box_muller`.
    """
    base = np.broadcast_to(texture.ravel(), u1.shape)
    z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
    x = np.maximum(base + noise * z, 0.0)
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN distance, redone
        redo = ~(np.abs(x - (np.floor(x) + 0.5)) > 2.0 ** -30 * (noise * np.abs(z) + x + 1.0))
    if redo.any():
        x[redo] = np.maximum(base[redo] + noise * box_muller(u1[redo], u2[redo]), 0.0)
    return x.reshape(-1, SMALL_SIDE, SMALL_SIDE)


def _class_texture(k: int) -> np.ndarray:
    """32x32 block values specific to class k, before jitter."""
    modulus = k + 2
    step = 255 // (modulus - 1) if modulus > 1 else 0
    rows_idx = np.arange(SMALL_SIDE)
    base = ((rows_idx[:, None] + rows_idx[None, :] * (k + 1)) % modulus) * step
    return base.astype(np.float64)


def sample_image(bundle: CorpusBundle, i: int, selected_events: list[int]) -> GrayImage:
    """256x256 labeled image of corpus sample i, using the given event column
    order for the trace pixels. Its blob repeats each of the sample's blocks
    8x8, so downsampling gives back the blocks and the class texture."""
    # columns first, so that the row repeat copies whole 256-byte rows
    blob = bundle.blocks[i].repeat(8, axis=1).repeat(8, axis=0).tobytes()
    return to_grayscale(bundle.traces.rows[i, selected_events], blob,
                        int(bundle.traces.labels[i]))


def corpus_images(bundle: CorpusBundle, selected_events: list[int]) -> list[GrayImage]:
    """32x32 labeled images for every corpus sample, using the given event
    column order for the trace pixels."""
    return [downsample(sample_image(bundle, i, selected_events))
            for i in range(bundle.traces.rows.shape[0])]


def split_corpus(labels, train_frac: float, seed: int) -> tuple[list[int], list[int]]:
    """Deterministic stratified train/test index split."""
    by_class: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        by_class.setdefault(int(lab), []).append(i)
    rng = SplitMix64(seed)
    train: list[int] = []
    test: list[int] = []
    for lab in sorted(by_class):
        idx = by_class[lab]
        rng.shuffle(idx)
        cut = int(round(train_frac * len(idx)))
        train.extend(idx[:cut])
        test.extend(idx[cut:])
    return sorted(train), sorted(test)


# --- file formats ---------------------------------------------------------------

def write_pgm(img: GrayImage, path) -> None:
    """Binary PGM (P5), one byte per pixel, maxval 255."""
    header = f"P5\n{img.side} {img.side}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + img.pixels.tobytes())


def read_pgm(path, label: int = 0) -> GrayImage:
    # unbuffered: the whole file is read in one call, so a buffer only copies
    with open(path, "rb", buffering=0) as fh:
        data = fh.readall()
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5" or parts[2] != b"255":
        raise ShapeMismatch(f"not a supported PGM file: {path}")
    w, h = (int(tok) for tok in parts[1].split())
    if w != h:
        raise ShapeMismatch("only square images are supported")
    pixels = np.frombuffer(parts[3][: w * h], dtype=np.uint8)
    if pixels.size != w * h:
        raise ShapeMismatch(f"truncated PGM file: {path}")
    return GrayImage(w, pixels.copy(), label)


def write_traces_csv(traces: TraceSet, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(traces.event_names + ["label"])
        for row, lab in zip(traces.rows, traces.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(lab)])


def read_traces_csv(path) -> TraceSet:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if not header or header[-1] != "label":
            raise ShapeMismatch("trace CSV must end with a label column")
        names = header[:-1]
        rows = []
        labels = []
        for rec in reader:
            rows.append([float(v) for v in rec[:-1]])
            labels.append(int(rec[-1]))
    return TraceSet(names, np.asarray(rows, dtype=np.float64),
                    np.asarray(labels, dtype=np.int64),
                    _class_names(max(labels) + 1 if labels else 1))


def ranked_to_json(ranked: list[EventRank]) -> list[dict]:
    return [{"name": r.name, "rho": r.rho, "rank": r.rank} for r in ranked]
