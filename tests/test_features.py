import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from edgemal import features
from edgemal.errors import EmptyInput, EmptyTraceSet, KOutOfRange, ShapeMismatch, WrongSide
from edgemal.rng import SplitMix64


def two_pass_rho(traces: features.TraceSet, column: int) -> float:
    """Oracle: explicit two-pass covariance/variance per class indicator."""
    x = traces.rows[:, column]
    n = len(x)
    best = 0.0
    best_abs = 0.0
    for k in range(len(traces.class_names)):
        y = (traces.labels == k).astype(np.float64)
        mx = x.mean()
        my = y.mean()
        cov = float(((x - mx) * (y - my)).mean())
        vx = float(((x - mx) ** 2).mean())
        vy = float(((y - my) ** 2).mean())
        if vx <= 0.0 or vy <= 0.0:
            continue
        r = cov / math.sqrt(vx * vy)
        if abs(r) > best_abs:
            best_abs = abs(r)
            best = r
    return best


# --- rank_events ---

def test_perfect_indicator_column_ranks_first():
    rows = np.array([[1.0, 3.0], [1.0, 3.0], [0.0, 3.0], [0.0, 3.0]])
    traces = features.TraceSet(["hit", "flat"], rows, np.array([0, 0, 1, 1]),
                               ["benign", "backdoor"])
    ranked = features.rank_events(traces)
    assert ranked[0].name == "hit"
    assert ranked[0].rank == 1
    assert abs(ranked[0].rho) == pytest.approx(1.0)


def test_constant_column_scores_zero():
    rows = np.array([[5.0], [5.0], [5.0]])
    traces = features.TraceSet(["flat"], rows, np.array([0, 1, 0]),
                               ["benign", "backdoor"])
    ranked = features.rank_events(traces)
    assert ranked[0].rho == 0.0


def test_rho_bounds_and_tie_break():
    rng = SplitMix64(3)
    rows = np.array([[rng.uniform() for _ in range(4)] for _ in range(30)])
    rows[:, 2] = rows[:, 1]  # identical columns tie on |rho|
    traces = features.TraceSet(["a", "b", "c", "d"], rows,
                               np.array([i % 2 for i in range(30)]),
                               ["benign", "backdoor"])
    ranked = features.rank_events(traces)
    assert all(abs(r.rho) <= 1.0 for r in ranked)
    pos = {r.name: r.rank for r in ranked}
    assert pos["b"] < pos["c"]  # name order breaks the tie
    assert sorted(r.rank for r in ranked) == [1, 2, 3, 4]


def test_streaming_matches_two_pass_oracle():
    for seed in range(30):
        bundle = features.gen_synthetic_corpus(samples_per_class=8, events=10,
                                               noise=6.0, classes=3, seed=seed)
        ranked = features.rank_events(bundle.traces)
        by_name = {r.name: r.rho for r in ranked}
        for col, name in enumerate(bundle.traces.event_names):
            assert by_name[name] == pytest.approx(
                two_pass_rho(bundle.traces, col), abs=1e-9)


def loop_ranking(traces: features.TraceSet) -> list[tuple[str, str, int]]:
    """Reference: the per-element scalar accumulation, one Python float at a
    time in row order, as (name, rho.hex(), rank) triples. A column whose
    variance is zero, inf or NaN scores 0."""
    n, e = traces.rows.shape
    class_count = len(traces.class_names)
    counts = np.zeros(class_count, dtype=np.float64)
    for lab in traces.labels:
        counts[lab] += 1.0
    rhos = []
    for i in range(e):
        sx = 0.0
        sxx = 0.0
        sxy = np.zeros(class_count, dtype=np.float64)
        for s in range(n):
            v = float(traces.rows[s, i])
            sx += v
            sxx += v * v
            sxy[traces.labels[s]] += v
        mean_x = sx / n
        var_x = sxx / n - mean_x * mean_x
        best = 0.0
        best_abs = 0.0
        for k in range(class_count):
            p = counts[k] / n
            var_y = p * (1.0 - p)
            if not 0.0 < var_x < math.inf or var_y <= 0.0:
                continue
            r = (sxy[k] / n - mean_x * p) / math.sqrt(var_x * var_y)
            r = max(-1.0, min(1.0, r))
            if abs(r) > best_abs:
                best_abs = abs(r)
                best = r
        rhos.append(best)
    names = traces.event_names
    order = sorted(range(e), key=lambda i: (-abs(rhos[i]), names[i]))
    return [(names[i], float(rhos[i]).hex(), pos + 1) for pos, i in enumerate(order)]


def _edge_column(rng: SplitMix64, kind: int, n: int) -> np.ndarray:
    """One trace column of a kind the row-order sums must get bit for bit."""
    if kind == 0:  # signed zeros
        return np.array([(-0.0, 0.0)[rng.randint(2)] for _ in range(n)])
    if kind == 1:
        return np.zeros(n)
    if kind == 2:
        return np.full(n, rng.uniform(-50.0, 50.0))
    if kind == 3:  # squares overflow to inf, as Python floats do silently
        return rng.uniforms(n, 1e155, 1e157)
    if kind == 4:  # few distinct values: ties on |rho| and exact cancellation
        return np.array([float(rng.randint(3) - 1) for _ in range(n)])
    return rng.uniforms(n, -1e3, 1e3) * 10.0 ** rng.randint(6)


def test_rank_events_matches_per_element_loop():
    """Row-order folds give the scalar loop's rho bits, names and ranks."""
    rng = SplitMix64(23)
    for _ in range(300):
        n, e = 2 + rng.randint(30), 1 + rng.randint(6)
        classes = 2 + rng.randint(4)
        # a random subset of the classes has rows; the others stay empty
        present = [k for k in range(classes) if rng.randint(3)] or [0]
        labels = np.array([present[rng.randint(len(present))] for _ in range(n)])
        rows = np.stack([_edge_column(rng, rng.randint(6), n) for _ in range(e)], axis=1)
        traces = features.TraceSet([f"e{j}" for j in range(e)], rows, labels,
                                   [f"c{k}" for k in range(classes)])
        got = [(r.name, float(r.rho).hex(), r.rank) for r in features.rank_events(traces)]
        assert got == loop_ranking(traces)


def test_rank_events_overflowing_column_scores_zero():
    """A constant 1e155 column's squares overflow: sxx / n - mean^2 is
    inf - inf = NaN, which must not rank it above a perfect indicator."""
    rows = np.array([[1e155, 1.0]] * 3 + [[1e155, 0.0]] * 3)
    traces = features.TraceSet(["flat_huge", "perfect"], rows,
                               np.array([0, 0, 0, 1, 1, 1]), ["benign", "backdoor"])
    ranked = features.rank_events(traces)
    assert [(r.name, r.rho, r.rank) for r in ranked] == [
        ("perfect", ranked[0].rho, 1), ("flat_huge", 0.0, 2)]
    assert abs(ranked[0].rho) == pytest.approx(1.0)
    assert [(r.name, float(r.rho).hex(), r.rank) for r in ranked] == loop_ranking(traces)


def test_rank_order_invariant_under_positive_affine_map():
    bundle = features.gen_synthetic_corpus(samples_per_class=10, events=8,
                                           noise=3.0, classes=4, seed=5)
    before = [r.name for r in features.rank_events(bundle.traces)]
    scaled = bundle.traces.rows.copy()
    scaled[:, 2] = 7.5 * scaled[:, 2] + 1000.0
    scaled[:, 5] = 0.001 * scaled[:, 5] - 3.0
    traces = features.TraceSet(bundle.traces.event_names, scaled,
                               bundle.traces.labels, bundle.traces.class_names)
    after = [r.name for r in features.rank_events(traces)]
    assert before == after


def test_rank_needs_samples_and_events():
    with pytest.raises(EmptyTraceSet):
        features.rank_events(features.TraceSet(
            ["a"], np.array([[1.0]]), np.array([0]), ["benign", "backdoor"]))


# --- select_top_events ---

def test_select_top_events():
    bundle = features.gen_synthetic_corpus(samples_per_class=20, events=10,
                                           noise=3.0, classes=6, seed=2)
    ranked = features.rank_events(bundle.traces)
    assert features.select_top_events(ranked, len(ranked)) == [r.name for r in ranked]
    assert features.select_top_events(ranked, 1) == [ranked[0].name]
    planted_names = {f"event_{cols[0]}" for cols in bundle.planted.values()}
    top5 = set(features.select_top_events(ranked, 5))
    assert planted_names <= top5
    with pytest.raises(KOutOfRange):
        features.select_top_events(ranked, 0)
    with pytest.raises(KOutOfRange):
        features.select_top_events(ranked, len(ranked) + 1)


# --- to_grayscale / downsample ---

def test_min_max_scaling_rounds_half_away():
    img = features.to_grayscale([0.0, 50.0, 100.0], b"")
    assert img.pixels[:3].tolist() == [0, 128, 255]
    assert int(img.pixels[3:].max()) == 0


def test_constant_trace_maps_to_zero():
    img = features.to_grayscale([7.0], b"")
    assert int(img.pixels.max()) == 0


def test_bytes_placed_verbatim():
    blob = bytes(range(256)) * 256
    img = features.to_grayscale([], blob)
    assert np.array_equal(img.pixels, np.frombuffer(blob, dtype=np.uint8))


def test_stream_truncated_and_padded():
    img = features.to_grayscale([0.0, 100.0], bytes([9]) * features.PIXELS)
    assert img.pixels[0] == 0 and img.pixels[1] == 255
    assert img.pixels[2] == 9
    assert img.pixels.size == features.PIXELS
    short = features.to_grayscale([], bytes([5]) * 10)
    assert int(short.pixels[10:].max()) == 0


def test_empty_input_rejected():
    with pytest.raises(EmptyInput):
        features.to_grayscale([], b"")


def test_downsample_constant():
    img = features.GrayImage(256, np.full(features.PIXELS, 100, np.uint8), 3)
    small = features.downsample(img)
    assert small.side == 32
    assert small.label == 3
    assert np.all(small.pixels == 100)


def test_downsample_half_and_half_block():
    grid = np.zeros((256, 256), dtype=np.uint8)
    grid[:4, :8] = 255  # 32 pixels of the first 8x8 block
    img = features.GrayImage(256, grid.ravel(), 0)
    assert features.downsample(img).pixels[0] == 128  # mean 127.5, away from zero


def test_downsample_checkerboard():
    grid = np.zeros((256, 256), dtype=np.uint8)
    grid[::2, ::2] = 255
    grid[1::2, 1::2] = 255
    img = features.GrayImage(256, grid.ravel(), 0)
    assert np.all(features.downsample(img).pixels == 128)


def _mean_downsample(img):
    """The earlier formula: float64 block means, rounded half away from zero."""
    grid = img.pixels.reshape(256, 256).astype(np.float64)
    means = grid.reshape(32, 8, 32, 8).mean(axis=(1, 3))
    return np.floor(means + 0.5).astype(np.uint8).ravel()


def test_downsample_matches_float_mean():
    images = [np.full(features.PIXELS, v, np.uint8) for v in (0, 1, 127, 128, 255)]
    for seed in range(20):
        draws = SplitMix64(seed).uniforms(features.PIXELS, 0.0, 256.0)
        images.append(np.minimum(draws, 255.0).astype(np.uint8))
    # rounding ties: every block sums to 64 * base + 32 (mean base + 0.5)
    for seed in range(5):
        base = (SplitMix64(100 + seed).uniforms(32 * 32, 0.0, 255.0)
                .astype(np.uint8).reshape(32, 32))
        blocks = np.repeat(np.repeat(base, 8, axis=0), 8, axis=1)
        blocks[::2, :] += 1  # 4 of 8 rows: 32 pixels per block
        assert np.all(blocks.reshape(32, 8, 32, 8).sum(axis=(1, 3)) % 64 == 32)
        images.append(blocks.ravel())
    for pixels in images:
        img = features.GrayImage(256, pixels, 1)
        assert features.downsample(img).pixels.tobytes() == _mean_downsample(img).tobytes()


def test_downsample_wrong_side():
    with pytest.raises(WrongSide):
        features.downsample(features.GrayImage(32, np.zeros(1024, np.uint8), 0))


def test_pipeline_is_deterministic():
    vals = [1.0, 2.0, 3.0]
    blob = bytes(range(100))
    a = features.downsample(features.to_grayscale(vals, blob))
    b = features.downsample(features.to_grayscale(vals, blob))
    assert np.array_equal(a.pixels, b.pixels)


# --- synthetic corpus ---

def test_corpus_deterministic():
    a = features.gen_synthetic_corpus(samples_per_class=5, seed=1)
    b = features.gen_synthetic_corpus(samples_per_class=5, seed=1)
    assert np.array_equal(a.traces.rows, b.traces.rows)
    assert np.array_equal(a.traces.labels, b.traces.labels)
    assert np.array_equal(a.blocks, b.blocks)
    c = features.gen_synthetic_corpus(samples_per_class=5, seed=2)
    assert not np.array_equal(a.traces.rows, c.traces.rows)


@pytest.mark.parametrize("kwargs, digest", [
    (dict(samples_per_class=200, seed=42),
     "bb935a90df965b7a80fd325462b036da570fd4806228f78cea8966aa262f4a1e"),
    (dict(samples_per_class=4, noise=0.0, seed=3),
     "1b3dd0af64548246f1d40e704e9a7ee5fb96ba962edbc0ffa437606b44bfe1ef"),
])
def test_corpus_bytes_pinned(kwargs, digest):
    """Digests of the element-by-element scalar generator: any change to the
    draw order or the float arithmetic changes every seeded artifact. The
    blocks repeated 8x8 are the bytes of every sample's blob, in order."""
    bundle = features.gen_synthetic_corpus(**kwargs)
    data = (bundle.traces.rows.tobytes() + bundle.traces.labels.tobytes()
            + bundle.blocks.repeat(8, axis=1).repeat(8, axis=2).tobytes())
    assert hashlib.sha256(data).hexdigest() == digest


def scalar_corpus(*, samples_per_class: int, events: int = 16, noise: float = 4.0,
                  classes: int = 6, seed: int = 42):
    """Reference generator: one `SplitMix64.normal()` call per trace value and
    per block, Python float arithmetic, as (rows, labels, blocks)."""
    root = SplitMix64(seed)
    rows, labels, blocks = [], [], []
    for k in range(classes):
        stream = root.substream(k)
        means = [100.0 + (50.0 if j == k - 1 else 0.0) for j in range(events)]
        step = 255 // (k + 1)
        texture = [float((r + c * (k + 1)) % (k + 2) * step)
                   for r in range(32) for c in range(32)]
        for _ in range(samples_per_class):
            rows.append([mean + noise * stream.normal() for mean in means])
            labels.append(k)
            values = texture
            if noise > 0.0:
                values = [t + noise * stream.normal() for t in texture]
            blocks.append([min(math.floor(max(v, 0.0) + 0.5), 255) for v in values])
    return (np.array(rows), np.array(labels, dtype=np.int64),
            np.array(blocks, dtype=np.uint8).reshape(-1, 32, 32))


GENERATOR_CASES = [
    dict(samples_per_class=features._CORPUS_CHUNK + 3, seed=5),
    dict(samples_per_class=3, noise=0.0, seed=6),
    dict(samples_per_class=3, noise=0.5, seed=7),
    dict(samples_per_class=3, noise=37.5, seed=8),
    dict(samples_per_class=3, noise=1e6, seed=9),
    dict(samples_per_class=2, noise=1e-300, seed=10),
    dict(samples_per_class=2, classes=9, events=12, noise=0.5, seed=11),
]


@pytest.mark.parametrize("kwargs", GENERATOR_CASES,
                         ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
def test_corpus_matches_scalar_generator(kwargs):
    bundle = features.gen_synthetic_corpus(**kwargs)
    rows, labels, blocks = scalar_corpus(**kwargs)
    assert np.array_equal(bundle.traces.rows.view(np.uint64), rows.view(np.uint64))
    assert np.array_equal(bundle.traces.labels, labels)
    assert bundle.blocks.tobytes() == blocks.tobytes()


def _straddling_pairs(h: float, texture: float, noise: float, sign: int):
    """1024 uniform pairs whose exact max(texture + noise * z, 0) straddle the
    half-integer h: u1 runs over the 1024 floats nearest the u1 that puts the
    value at h. u2 is 0 or 0.5, where np.cos and math.cos give exactly +1
    or -1."""
    z = (h - texture) / noise * sign
    centre = math.exp(-z * z / 2.0)
    u1 = centre + np.arange(-512, 512) * np.spacing(centre)
    return u1, np.full(1024, 0.0 if sign > 0 else 0.5)


@pytest.mark.parametrize("scale", [1.0, 1.0 + 2.0 ** -40, 1.0 - 2.0 ** -40, 1.0 + 2.0 ** -33],
                         ids=["np.log", "1+2^-40", "1-2^-40", "1+2^-33"])
def test_jitter_bytes_exact_at_half_integers(monkeypatch, scale):
    """Block values right at rounding boundaries round as exact normals do,
    even when the fast path's np.log is off by far more than its last bit."""
    log = np.log
    monkeypatch.setattr(np, "log", lambda x: log(x) * scale)
    for h, texture, noise, sign in [(2.5, 0.0, 1.0, 1), (0.5, 0.0, 0.25, 1),
                                    (100.5, 50.0, 20.0, 1), (170.5, 200.0, 10.0, -1)]:
        u1, u2 = _straddling_pairs(h, texture, noise, sign)
        values = features._jittered(np.full((32, 32), texture), noise, u1[None], u2[None])
        expected = [min(math.floor(max(texture + noise * math.sqrt(-2.0 * math.log(a))
                                       * math.cos(2.0 * math.pi * b), 0.0) + 0.5), 255)
                    for a, b in zip(u1.tolist(), u2.tolist())]
        assert set(expected) == {h - 0.5, h + 0.5}
        assert np.clip(np.floor(values + 0.5), 0, 255).ravel().tolist() == expected


def test_corpus_exact_fallback_runs(monkeypatch):
    """At noise 1e6 some block values lie within the fast path's tolerance of
    a half-integer and go through the exact `box_muller`; the trace values
    always do, and nothing else does at the default seed and noise."""
    sizes = []
    exact = features.box_muller

    def counting(u1, u2):
        sizes.append(u1.size)
        return exact(u1, u2)

    monkeypatch.setattr(features, "box_muller", counting)
    traces = 6 * 5 * 16
    features.gen_synthetic_corpus(samples_per_class=5, noise=1e6)
    redone = sum(sizes) - traces
    assert 0 < redone < 0.05 * 6 * 5 * 1024
    sizes.clear()
    features.gen_synthetic_corpus(samples_per_class=5)
    assert sum(sizes) == traces


def test_corpus_zero_noise_rows_identical_within_class():
    bundle = features.gen_synthetic_corpus(samples_per_class=4, noise=0.0, seed=3)
    for k in range(6):
        rows = bundle.traces.rows[bundle.traces.labels == k]
        assert np.all(rows == rows[0])
        blocks = bundle.blocks[bundle.traces.labels == k]
        assert np.all(blocks == blocks[0])


def test_corpus_holds_block_values_not_blobs():
    """60 samples' 256x256 blobs alone would take 60 * 64 KiB = 3.9 MB; their
    32x32 block values take 60 KiB, and each sample's float temporaries a few
    KiB more."""
    tracemalloc.start()
    try:
        features.gen_synthetic_corpus(samples_per_class=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_corpus_shape_and_classes():
    bundle = features.gen_synthetic_corpus(samples_per_class=3, events=16, seed=0)
    assert bundle.traces.rows.shape == (18, 16)
    assert bundle.traces.class_names == [
        "benign", "backdoor", "rootkit", "trojan", "virus", "worm"]
    assert bundle.planted == {1: [0], 2: [1], 3: [2], 4: [3], 5: [4]}
    assert bundle.blocks.shape == (18, features.SMALL_SIDE, features.SMALL_SIDE)
    assert bundle.blocks.dtype == np.uint8


def test_split_corpus_stratified_and_deterministic():
    labels = [i % 6 for i in range(120)]
    train, test = features.split_corpus(labels, 0.7, 42)
    assert sorted(train + test) == list(range(120))
    for k in range(6):
        assert sum(1 for i in train if labels[i] == k) == 14
    train2, _ = features.split_corpus(labels, 0.7, 42)
    assert train == train2


# --- file formats ---

def test_pgm_round_trip(tmp_path):
    rng = SplitMix64(8)
    pixels = np.array([rng.randint(256) for _ in range(1024)], dtype=np.uint8)
    img = features.GrayImage(32, pixels, 4)
    path = tmp_path / "img.pgm"
    features.write_pgm(img, path)
    back = features.read_pgm(path, 4)
    assert back.side == 32
    assert back.label == 4
    assert np.array_equal(back.pixels, pixels)


def test_traces_csv_round_trip(tmp_path):
    bundle = features.gen_synthetic_corpus(samples_per_class=3, events=5, seed=9)
    path = tmp_path / "traces.csv"
    features.write_traces_csv(bundle.traces, path)
    back = features.read_traces_csv(path)
    assert back.event_names == bundle.traces.event_names
    assert np.array_equal(back.rows, bundle.traces.rows)
    assert np.array_equal(back.labels, bundle.traces.labels)


def test_traces_csv_without_header_rejected(tmp_path):
    path = tmp_path / "traces.csv"
    path.write_text("")
    with pytest.raises(ShapeMismatch):
        features.read_traces_csv(path)
