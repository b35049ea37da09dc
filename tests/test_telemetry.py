import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorahop import telemetry, trace
from lorahop.telemetry import TelemetryWindow


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
    assert [a[0] for a in w.availability] == [3.0, 4.0]


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
    assert len(w) == 1


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 12))
def test_snapshot_dim_invariant(ts, nf, n_records):
    w = TelemetryWindow(ts=ts, num_freqs=nf)
    rng = np.random.default_rng(0)
    for _ in range(n_records):
        w.record(rng.random(nf), -rng.random() * 100, rng.random() * 10)
    assert w.snapshot().shape == (TelemetryWindow.feature_dim(ts, nf),)


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
    text = telemetry.dataset_to_json(rows)
    back = telemetry.dataset_from_json(text)
    meta = json.loads(text)["metadata"]
    assert back == rows
    assert meta["ts"] == 8 and meta["F"] == 3 and meta["normalization"] == "v1"


def test_dataset_records_its_window_shape(bundled_trace):
    rows = telemetry.generate_labeled_dataset(bundled_trace, "C", 30, seed=2, ts=3)
    assert (rows.ts, rows.num_freqs) == (3, 3)
    text = telemetry.dataset_to_json(rows)
    meta = json.loads(text)["metadata"]
    assert meta["ts"] == 3 and meta["F"] == 3
    back = telemetry.dataset_from_json(text)
    assert back == rows and (back.ts, back.num_freqs) == (3, 3)
    assert back != dataclasses.replace(rows, ts=1)


def test_dataset_json_validation():
    doc = {"metadata": {"ts": 1, "F": 2, "normalization": "v1"},
           "rows": [{"features": [0.0], "label": 0}]}
    with pytest.raises(ValueError):
        telemetry.dataset_from_json(json.dumps(doc))
    doc["rows"] = [{"features": [0.0, 0.0, 0.0], "label": 5}]
    with pytest.raises(ValueError):
        telemetry.dataset_from_json(json.dumps(doc))


def _reference_dataset(trace_obj, source, ts, n_rows, seed):
    """The per-row loop that `generate_labeled_dataset` replaced: one `default_rng` per
    (row, channel) and one live window.  Returns the (features, labels) arrays."""
    freqs = trace_obj.frequencies
    window = TelemetryWindow(ts=ts, num_freqs=len(freqs))
    features, labels = [], []
    for r in range(n_rows):
        size = trace.DEFAULT_PAYLOAD_SCHEDULE[
            (r // trace.DEFAULT_BLOCK_LEN) % len(trace.DEFAULT_PAYLOAD_SCHEDULE)]
        features.append(window.snapshot())
        realized_rssi = np.empty(len(freqs))
        realized_snr = np.empty(len(freqs))
        for f_idx, freq in enumerate(freqs):
            entry = trace_obj.lookup(source, freq, size)
            rng = np.random.default_rng([seed, r, f_idx])
            if rng.random() < entry.pdr:
                realized_rssi[f_idx], realized_snr[f_idx] = entry.with_noise(
                    rng.normal(0.0, 1.0), rng.normal(0.0, 1.0),
                    trace.DEFAULT_RSSI_JITTER_DB, trace.DEFAULT_SNR_JITTER_DB)
            else:
                realized_rssi[f_idx], realized_snr[f_idx] = trace.RSSI_FLOOR_DBM, trace.SNR_FLOOR_DB
        label = int(np.argmax(realized_rssi))
        labels.append(label)
        avail = np.zeros(len(freqs))
        avail[label] = 1.0
        window.record(avail, realized_rssi[label], realized_snr[label])
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


# 0 and 7 take one entropy word (the pool is padded), 2**32 and 2**33 + 5 two (the pool
# is exactly full), 2**64 + 3 and 2**128 + 1 more than the pool holds (the extra mixing)
@pytest.mark.parametrize("seed", [0, 7, 2**32, 2**33 + 5, 2**64 + 3, 2**128 + 1])
def test_batched_seeding_matches_default_rng(seed):
    n_rows, num_freqs = 5000, 3
    states = telemetry._seed_states(seed, n_rows, num_freqs)
    assert states.shape == (n_rows, num_freqs, 4) and states.dtype == np.uint64
    sample = np.random.default_rng(seed % 1000)
    triples = [(0, 0), (0, num_freqs - 1), (n_rows - 1, 0), (n_rows - 1, num_freqs - 1)]
    triples += [(int(sample.integers(n_rows)), int(sample.integers(num_freqs)))
                for _ in range(40)]
    bitgen = np.random.PCG64()
    rng = np.random.Generator(bitgen)
    for r, f in triples:
        seq = np.random.SeedSequence([seed, r, f])
        assert np.array_equal(states[r, f], seq.generate_state(4, np.uint64)), (r, f)
        bitgen.state = telemetry._pcg64_state(states[r, f].tolist())
        want = np.random.default_rng([seed, r, f])
        assert bitgen.state == want.bit_generator.state, (r, f)
        assert ([rng.random(), rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)]
                == [want.random(), want.normal(0.0, 1.0), want.normal(0.0, 1.0)]), (r, f)


def test_dataset_rejects_negative_seed_and_empty_window(bundled_trace):
    with pytest.raises(ValueError):
        telemetry.generate_labeled_dataset(bundled_trace, "A", 5, seed=-1)
    with pytest.raises(ValueError):
        telemetry.generate_labeled_dataset(bundled_trace, "A", 5, seed=0, ts=0)


def test_dataset_ties_go_to_the_lowest_channel(bundled_trace):
    # at PDR 0.2 every channel is often lost, and all three then tie at the RSSI floor
    lossy = trace.ChannelTrace({key: dataclasses.replace(entry, pdr=0.2)
                                for key, entry in bundled_trace.entries.items()})
    got = telemetry.generate_labeled_dataset(lossy, "B", 200, seed=5, ts=2)
    want_features, want_labels = _reference_dataset(lossy, "B", 2, 200, seed=5)
    assert got.features.tobytes() == want_features.tobytes()
    assert np.array_equal(got.labels, want_labels)
    assert (want_labels == 0).sum() > (want_labels == 2).sum()
