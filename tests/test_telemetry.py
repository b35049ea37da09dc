import dataclasses
import io
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorahop import telemetry, trace
from lorahop.telemetry import TelemetryWindow
from oracle import dataset_to_json


def test_window_cold_start_padding():
    w = TelemetryWindow(ts=3, num_freqs=2)
    snap = w.snapshot()
    assert snap.shape == (TelemetryWindow.feature_dim(3, 2),)
    # availability zeros, rssi floor normalizes to 1.0, snr floor to 0.0
    assert np.array_equal(snap[:6], np.zeros(6))
    assert np.array_equal(snap[6:9], np.ones(3))
    assert np.array_equal(snap[9:], np.zeros(3))


def test_window_ordering_and_normalization():
    w = TelemetryWindow(ts=2, num_freqs=1)
    w.record([1.0], -60.0, 5.0)
    w.record([2.0], -120.0, 10.0)
    snap = w.snapshot()
    # oldest first: availability 1 then 2; rssi -60/-120=0.5 then 1.0; snr 0.5, 1.0
    assert snap.tolist() == [1.0, 2.0, 0.5, 1.0, 0.5, 1.0]


def test_window_ring_evicts_oldest():
    w = TelemetryWindow(ts=2, num_freqs=1)
    for k in range(5):
        w.record([float(k)], -100.0, 1.0)
    assert w.snapshot()[:2].tolist() == [3.0, 4.0]


def test_record_rejects_wrong_length():
    w = TelemetryWindow(ts=2, num_freqs=3)
    with pytest.raises(ValueError):
        w.record([1.0], -70.0, 9.0)


def test_snapshot_does_not_mutate_window():
    w = TelemetryWindow(ts=4, num_freqs=2)
    w.record([1.0, 0.0], -70.0, 9.0)
    before = w.snapshot()
    after = w.snapshot()
    assert np.array_equal(before, after)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 12))
def test_snapshot_dim_invariant(ts, nf, n_records):
    w = TelemetryWindow(ts=ts, num_freqs=nf)
    rng = np.random.default_rng(0)
    for _ in range(n_records):
        w.record(rng.random(nf), -rng.random() * 100, rng.random() * 10)
    assert w.snapshot().shape == (TelemetryWindow.feature_dim(ts, nf),)


class RowListWindow:
    """Reference window: a list of raw [availability..., RSSI, SNR] rows, newest last, that
    starts with `ts` cold-start rows."""

    def __init__(self, ts, num_freqs):
        self.ts = ts
        self.rows = [[0.0] * num_freqs + [trace.RSSI_FLOOR_DBM, trace.SNR_FLOOR_DB]] * ts

    def record(self, availability_vec, rssi, snr):
        self.rows.append([float(a) for a in availability_vec] + [float(rssi), float(snr)])

    def snapshot(self):
        rows = self.rows[-self.ts:]
        return np.array([a for row in rows for a in row[:-2]]
                        + [row[-2] / telemetry.RSSI_NORM_DBM for row in rows]
                        + [row[-1] / telemetry.SNR_NORM_DB for row in rows])


def test_window_matches_the_list_of_rows_reference():
    rng = np.random.default_rng(11)
    n_records = 215
    # link values as the simulator passes them, and as other callers may
    as_types = (float, int, np.float64, np.float32)
    for ts in range(1, 10):
        for nf in range(1, 5):
            window, reference = TelemetryWindow(ts=ts, num_freqs=nf), RowListWindow(ts, nf)
            taken = []   # every snapshot, with its bytes when it was taken
            for k in range(n_records + 1):
                snap = window.snapshot()
                assert snap.tobytes() == reference.snapshot().tobytes()
                taken.append((snap, snap.tobytes()))
                if k == n_records:
                    break
                avail = rng.integers(0, 4, nf).astype(np.float64)
                if k % 3 == 0:
                    avail = avail.tolist()
                to_type = as_types[k % len(as_types)]
                rssi, snr = to_type(-140 * rng.random()), to_type(rng.uniform(-20, 15))
                window.record(avail, rssi, snr)
                reference.record(avail, rssi, snr)
            # a snapshot is a copy: later records leave it as it was
            assert all(snap.tobytes() == bits for snap, bits in taken)


def test_dataset_deterministic(bundled_trace):
    a = telemetry.generate_labeled_dataset(bundled_trace, "A", 50, seed=3)
    b = telemetry.generate_labeled_dataset(bundled_trace, "A", 50, seed=3)
    assert a == b
    c = telemetry.generate_labeled_dataset(bundled_trace, "A", 50, seed=4)
    assert a != c


def test_dataset_labels_in_range(bundled_trace):
    rows = telemetry.generate_labeled_dataset(bundled_trace, "A", 200, seed=0)
    nf = len(bundled_trace.frequencies)
    for features, label in zip(rows.features, rows.labels):
        assert 0 <= label < nf
        assert len(features) == TelemetryWindow.feature_dim(8, nf)


def test_dataset_labels_favor_strong_channel(bundled_trace):
    # for node A, 869 MHz dominates on RSSI whenever it delivers (which is always)
    rows = telemetry.generate_labeled_dataset(bundled_trace, "A", 500, seed=1)
    labels = rows.labels
    idx_869 = bundled_trace.frequencies.index(869.0)
    assert (labels == idx_869).mean() > 0.9


def test_dataset_json_roundtrip(bundled_trace):
    rows = telemetry.generate_labeled_dataset(bundled_trace, "A", 20, seed=0)
    buf = io.StringIO()
    telemetry.write_dataset(rows, buf)
    text = buf.getvalue()
    back = telemetry.dataset_from_json(text)
    meta = json.loads(text)["metadata"]
    assert back == rows
    assert meta["ts"] == 8 and meta["F"] == 3 and meta["normalization"] == "v1"


def test_dataset_records_its_window_shape(bundled_trace):
    rows = telemetry.generate_labeled_dataset(bundled_trace, "C", 30, seed=2, ts=3)
    assert (rows.ts, rows.num_freqs) == (3, 3)
    buf = io.StringIO()
    telemetry.write_dataset(rows, buf)
    text = buf.getvalue()
    meta = json.loads(text)["metadata"]
    assert meta["ts"] == 3 and meta["F"] == 3
    back = telemetry.dataset_from_json(text)
    assert back == rows and (back.ts, back.num_freqs) == (3, 3)
    assert back != dataclasses.replace(rows, ts=1)


# values json spells its own way, or that share bits with a neighbour: -0.0 beside 0.0, the
# smallest subnormal, repr's switch to exponents at 1e16, and the rows' own normalised values
EDGE_VALUES = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, -1e-300,
               1e16, 9999999999999998.0, 1 / 3, 0.1, -0.25, 1.0, 0.7833333333333333]


@pytest.mark.parametrize("n_rows", [0, 1, 256, 257])
def test_write_dataset_is_byte_equal_to_the_whole_document_writer(n_rows):
    # 256 rows are one block, 257 two; every block holds every edge value, some repeated
    rng = np.random.default_rng(n_rows)
    features = rng.normal(size=(n_rows, telemetry.TelemetryWindow.feature_dim(3, 2)))
    features[rng.random(features.shape) < 0.3] = 0.0
    for lo in range(0, n_rows, 256):
        cells = features[lo:lo + 256].reshape(-1)   # a view of the block
        k = min(cells.size, 2 * len(EDGE_VALUES))
        cells[rng.permutation(cells.size)[:k]] = (EDGE_VALUES * 2)[:k]
    dataset = telemetry.Dataset(features=features, labels=rng.integers(0, 2, n_rows), ts=3,
                                num_freqs=2)
    buf = io.StringIO()
    telemetry.write_dataset(dataset, buf)
    assert buf.getvalue() == dataset_to_json(dataset)


def test_write_dataset_peak_memory_does_not_grow_with_the_rows():
    # rows are written in blocks, so 4x the rows must not take 4x the memory; 512 distinct
    # values, as a 256-row block of a generated 40-feature dataset holds
    peaks = []
    for n_rows in (1000, 4000, 16000):
        rng = np.random.default_rng(n_rows)
        dataset = telemetry.Dataset(features=rng.choice(rng.random(512), (n_rows, 40)),
                                    labels=rng.integers(0, 3, n_rows), ts=8, num_freqs=3)
        with open(os.devnull, "w") as fh:
            tracemalloc.start()
            try:
                telemetry.write_dataset(dataset, fh)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert all(peak <= 1.3 * before for before, peak in zip(peaks, peaks[1:])), peaks


def test_dataset_json_validation():
    doc = {"metadata": {"ts": 1, "F": 2, "normalization": "v1"},
           "rows": [{"features": [0.0], "label": 0}]}
    with pytest.raises(ValueError):
        telemetry.dataset_from_json(json.dumps(doc))
    doc["rows"] = [{"features": [0.0, 0.0, 0.0], "label": 5}]
    with pytest.raises(ValueError):
        telemetry.dataset_from_json(json.dumps(doc))


def _reference_dataset(trace_obj, source, ts, n_rows, seed):
    """`generate_labeled_dataset` as a per-row loop with one live window, from scalar draws:
    per channel one `random()` of stream 0 and two `standard_normal()` of stream 1, RSSI
    first, then two `random()` of stream 2.  Returns the (features, labels) arrays."""
    freqs = trace_obj.frequencies
    deliver, jitter, explore = (np.random.default_rng([seed, k]) for k in range(3))
    window = TelemetryWindow(ts=ts, num_freqs=len(freqs))
    features, labels = [], []
    for r in range(n_rows):
        size = trace.DEFAULT_PAYLOAD_SCHEDULE[
            (r // trace.DEFAULT_BLOCK_LEN) % len(trace.DEFAULT_PAYLOAD_SCHEDULE)]
        features.append(window.snapshot())
        realized = []
        for freq in freqs:
            entry = trace_obj.lookup(source, freq, size)
            delivered = deliver.random() < entry.pdr
            z_rssi, z_snr = jitter.standard_normal(), jitter.standard_normal()
            realized.append((min(entry.mean_rssi + z_rssi * trace.DEFAULT_RSSI_JITTER_DB, 0.0),
                             entry.mean_snr + z_snr * trace.DEFAULT_SNR_JITTER_DB) if delivered
                            else (trace.RSSI_FLOOR_DBM, trace.SNR_FLOOR_DB))
        label = int(np.argmax([rssi for rssi, _ in realized]))
        labels.append(label)
        u0, u1 = explore.random(), explore.random()
        sent = int(u1 * len(freqs)) if u0 < telemetry._EXPLORE_P else label
        avail = np.zeros(len(freqs))
        avail[sent] = 1.0
        window.record(avail, *realized[sent])
    return np.array(features), np.array(labels, dtype=np.int64)


@pytest.mark.parametrize("seed", [0, 7, 2**33 + 5])
@pytest.mark.parametrize("ts", [1, 3, 8])
@pytest.mark.parametrize("source", ["A", "B", "C"])
def test_dataset_matches_the_per_row_reference(bundled_trace, source, ts, seed):
    # a row never depends on later rows, so shorter datasets are prefixes of the reference
    want_features, want_labels = _reference_dataset(bundled_trace, source, ts, 300, seed)
    for n_rows in (1, 51, 300):
        got = telemetry.generate_labeled_dataset(bundled_trace, source, n_rows, seed, ts=ts)
        assert len(got) == n_rows
        assert got.features.dtype == np.float64 and got.labels.dtype == np.int64
        assert got.features.tobytes() == want_features[:n_rows].tobytes()
        assert np.array_equal(got.labels, want_labels[:n_rows])


def test_dataset_rejects_negative_seed_and_empty_window(bundled_trace):
    with pytest.raises(ValueError):
        telemetry.generate_labeled_dataset(bundled_trace, "A", 5, seed=-1)
    with pytest.raises(ValueError):
        telemetry.generate_labeled_dataset(bundled_trace, "A", 5, seed=0, ts=0)


@pytest.mark.parametrize("seed", [True, 1.0, "1"])
def test_dataset_rejects_a_seed_that_is_not_an_integer(bundled_trace, seed):
    with pytest.raises(TypeError):
        telemetry.generate_labeled_dataset(bundled_trace, "A", 5, seed=seed)


def test_dataset_takes_a_numpy_integer_seed(bundled_trace):
    got = telemetry.generate_labeled_dataset(bundled_trace, "A", 5, seed=np.uint8(3))
    want = telemetry.generate_labeled_dataset(bundled_trace, "A", 5, seed=3)
    assert got.features.tobytes() == want.features.tobytes()


def test_dataset_takes_a_seed_wider_than_64_bits(bundled_trace):
    seed = 2**128 + 1
    got = telemetry.generate_labeled_dataset(bundled_trace, "B", 60, seed)
    again = telemetry.generate_labeled_dataset(bundled_trace, "B", 60, seed)
    assert got.features.tobytes() == again.features.tobytes()
    assert got.labels.tobytes() == again.labels.tobytes()


def test_exploration_rows_put_losses_into_the_windows(bundled_trace):
    # windows that follow only the label hold almost no lost slot past the cold start (source
    # A at seed 14 had none in 4,992), so a predictor would never train on its own losses
    ts = telemetry.DEFAULT_WINDOW_SLOTS
    rows = telemetry.generate_labeled_dataset(bundled_trace, "A", 5000, seed=14)
    nf = rows.num_freqs
    # row r + 1's newest slot is row r's: its availability is one-hot on the channel sent on
    newest = rows.features[1:, (ts - 1) * nf:ts * nf]
    assert (newest.sum(axis=1) == 1.0).all()
    off_label = (newest.argmax(axis=1) != rows.labels[:-1]).mean()
    assert 0.15 <= off_label <= 0.35, off_label
    rssi = rows.features[ts:, ts * nf:ts * (nf + 1)]   # windows past the cold start
    assert (rssi == trace.RSSI_FLOOR_DBM / telemetry.RSSI_NORM_DBM).any(axis=1).sum() >= 1


def test_dataset_ties_go_to_the_lowest_channel(bundled_trace):
    # at PDR 0.2 every channel is often lost, and all three then tie at the RSSI floor
    lossy = trace.ChannelTrace({key: dataclasses.replace(entry, pdr=0.2)
                                for key, entry in bundled_trace.entries.items()})
    got = telemetry.generate_labeled_dataset(lossy, "B", 200, seed=5, ts=2)
    want_features, want_labels = _reference_dataset(lossy, "B", 2, 200, seed=5)
    assert got.features.tobytes() == want_features.tobytes()
    assert np.array_equal(got.labels, want_labels)
    assert (want_labels == 0).sum() > (want_labels == 2).sum()
