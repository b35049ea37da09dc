"""End-node telemetry: sliding windows of channel availability, RSSI and SNR.

Windows feed the channel predictor; `generate_labeled_dataset` replays a
single node against a trace once per candidate channel (shared per-row seed)
and labels each row with the channel that realized the highest RSSI.  It
draws every (row, channel) outcome first and then builds all windows as one
array, returned as a `Dataset` of feature and label arrays that also records
its window length and channel count.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass

import numpy as np

from .trace import (DEFAULT_BLOCK_LEN, DEFAULT_PAYLOAD_SCHEDULE, DEFAULT_RSSI_JITTER_DB,
                    DEFAULT_SNR_JITTER_DB, RSSI_FLOOR_DBM, SNR_FLOOR_DB)

DEFAULT_WINDOW_SLOTS = 8
RSSI_NORM_DBM = -120.0
SNR_NORM_DB = 10.0


class TelemetryWindow:
    """Ring of the last `ts` slots of per-frequency availability, RSSI and SNR."""

    def __init__(self, ts=DEFAULT_WINDOW_SLOTS, num_freqs=1):
        if ts < 1 or num_freqs < 1:
            raise ValueError("ts and num_freqs must be positive")
        self.ts = int(ts)
        self.num_freqs = int(num_freqs)
        # one row per slot, oldest first: availability per frequency, RSSI, SNR;
        # rows not recorded yet hold the cold-start values
        self._rows = np.zeros((self.ts, self.num_freqs + 2))
        self._rows[:, -2] = RSSI_FLOOR_DBM
        self._rows[:, -1] = SNR_FLOOR_DB
        self._filled = 0

    def __len__(self):
        return self._filled

    @property
    def availability(self):
        """Read-only (len, num_freqs) view of the recorded availability, oldest first."""
        view = self._rows[self.ts - self._filled:, :self.num_freqs]
        view.flags.writeable = False
        return view

    def record(self, availability_vec, rssi, snr):
        vec = availability_vec
        if not (isinstance(vec, np.ndarray) and vec.dtype == np.float64):
            vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.num_freqs,):
            raise ValueError(f"availability vector must have length {self.num_freqs}")
        rows = self._rows
        rows[:-1] = rows[1:]
        rows[-1, :self.num_freqs] = vec
        rows[-1, -2] = rssi
        rows[-1, -1] = snr
        self._filled = min(self._filled + 1, self.ts)
        return self

    def snapshot(self):
        """Flatten to ts*(F+2) features, oldest first, cold-start slots padded."""
        rows = self._rows
        return np.concatenate([rows[:, :self.num_freqs].ravel(),
                               rows[:, -2] / RSSI_NORM_DBM, rows[:, -1] / SNR_NORM_DB])

    @staticmethod
    def feature_dim(ts, num_freqs):
        return ts * (num_freqs + 2)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Labelled windows of `ts` slots over `num_freqs` channels: (n, ts * (num_freqs + 2))
    float64 features and (n,) int64 labels, one row each."""
    features: np.ndarray
    labels: np.ndarray
    ts: int
    num_freqs: int

    def __len__(self):
        return len(self.labels)

    def __eq__(self, other):
        return (isinstance(other, Dataset)
                and (self.ts, self.num_freqs) == (other.ts, other.num_freqs)
                and np.array_equal(self.features, other.features)
                and np.array_equal(self.labels, other.labels))


# numpy's SeedSequence hash (pool of 4 uint32 words) and PCG64's seeding multiplier
_MASK32, _MASK128 = 0xFFFFFFFF, (1 << 128) - 1
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(hash_const, mult):
    """SeedSequence's hashmix; each call moves the hash constant on by `mult`."""
    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const & _MASK32
        return value ^ (value >> 16)
    return hashmix


def check_seed(seed):
    """The seed as an int; ValueError unless it is a non-negative integer."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    return seed


def _seed_states(seed, n_rows, num_freqs):
    """`SeedSequence([seed, r, f]).generate_state(4, np.uint64)` for every (r, f) at once,
    on uint64 arrays kept to 32 bits; shape (n_rows, num_freqs, 4).  Every pool word
    mixes in every entropy word, so all of them end up (n_rows, num_freqs)."""
    seed = check_seed(seed)
    # the seed's 32-bit words, then r and f as a column and a row that broadcast to (r, f)
    entropy = [(seed >> k) & _MASK32 for k in range(0, max(seed.bit_length(), 1), 32)]
    entropy += [np.arange(n_rows, dtype=np.uint64)[:, None], np.arange(num_freqs, dtype=np.uint64)]
    entropy += [0] * (4 - len(entropy))   # pad to the pool size

    def mix(x, y):
        value = (x * _MIX_MULT_L - y * _MIX_MULT_R) & _MASK32
        return value ^ (value >> 16)

    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:   # entropy longer than the pool
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    generate = _hasher(0x8B51F9DD, 0x58F38DED)
    out = [generate(pool[i % 4]) for i in range(8)]
    return np.stack([out[i] | (out[i + 1] << 32) for i in range(0, 8, 2)], axis=-1)


def _pcg64_state(words):
    """`PCG64.state` after seeding with the 4 words of one `_seed_states` triple."""
    s_hi, s_lo, i_hi, i_lo = words
    inc = ((i_hi << 65) | (i_lo << 1) | 1) & _MASK128
    state = ((inc + ((s_hi << 64) | s_lo)) * _PCG64_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def generate_labeled_dataset(trace, source, n_rows, seed, ts=DEFAULT_WINDOW_SLOTS):
    """Counterfactual replay: per row, try every channel from the same state.

    Row r tries channel f with `np.random.default_rng([seed, r, f])`.  Realized
    RSSI of a lost packet is the floor value, so channels that fail to deliver
    rarely win the argmax.  The node then actually transmits on the labeled
    channel and its window advances with that outcome.  No draw depends on the
    window, so all outcomes are drawn first and the windows built in one array.
    Payload sizes and link jitter follow the trace module's defaults.
    """
    if n_rows <= 0:
        raise ValueError("n_rows must be positive")
    if ts < 1:
        raise ValueError("ts must be positive")
    freqs = trace.frequencies
    if source not in trace.sources:
        raise ValueError(f"trace has no source {source!r}")
    states = _seed_states(seed, n_rows, len(freqs))
    entries = {}   # payload size -> trace entry per frequency, for the sizes the rows reach
    rssi = np.full((n_rows, len(freqs)), RSSI_FLOOR_DBM)
    snr = np.full((n_rows, len(freqs)), SNR_FLOOR_DB)
    bitgen = np.random.PCG64()
    rng = np.random.Generator(bitgen)
    for r in range(n_rows):
        size = DEFAULT_PAYLOAD_SCHEDULE[(r // DEFAULT_BLOCK_LEN) % len(DEFAULT_PAYLOAD_SCHEDULE)]
        if size not in entries:
            entries[size] = [trace.lookup(source, freq, size) for freq in freqs]
        for f, (entry, words) in enumerate(zip(entries[size], states[r].tolist())):
            bitgen.state = _pcg64_state(words)
            if rng.random() < entry.pdr:
                rssi[r, f], snr[r, f] = entry.with_noise(
                    rng.normal(0.0, 1.0), rng.normal(0.0, 1.0),
                    DEFAULT_RSSI_JITTER_DB, DEFAULT_SNR_JITTER_DB)
    labels = np.argmax(rssi, axis=1)   # ties resolve to the lowest index

    # slot ts + r holds row r's outcome on its label; slots 0..ts-1 are the cold start
    rows = np.arange(n_rows)
    history = np.zeros((n_rows + ts, len(freqs) + 2))
    history[:ts, -2:] = RSSI_FLOOR_DBM, SNR_FLOOR_DB
    history[ts + rows, labels] = 1.0   # the node's own transmission counts toward availability
    history[ts:, -2] = rssi[rows, labels]
    history[ts:, -1] = snr[rows, labels]
    # row r sees slots r..r+ts-1, oldest first, laid out as `TelemetryWindow.snapshot`
    windows = np.lib.stride_tricks.sliding_window_view(history[:-1], ts, axis=0)
    features = np.concatenate([windows[:, :-2].transpose(0, 2, 1).reshape(n_rows, -1),
                               windows[:, -2] / RSSI_NORM_DBM, windows[:, -1] / SNR_NORM_DB],
                              axis=1)
    return Dataset(features=features, labels=labels.astype(np.int64), ts=ts,
                   num_freqs=len(freqs))


def dataset_to_json(dataset):
    doc = {
        "metadata": {"ts": dataset.ts, "F": dataset.num_freqs, "normalization": "v1"},
        "rows": [{"features": features, "label": label} for features, label
                 in zip(dataset.features.tolist(), dataset.labels.tolist())],
    }
    return json.dumps(doc, sort_keys=True)


def dataset_from_json(text):
    doc = json.loads(text)
    meta = doc["metadata"]
    expected = TelemetryWindow.feature_dim(meta["ts"], meta["F"])
    labels = [int(r["label"]) for r in doc["rows"]]
    for r, label in zip(doc["rows"], labels):
        if len(r["features"]) != expected:
            raise ValueError("feature length does not match metadata")
        if not 0 <= label < meta["F"]:
            raise ValueError("label out of range")
    try:
        features = np.array([r["features"] for r in doc["rows"]], dtype=np.float64)
        labels = np.array(labels, dtype=np.int64)
    except OverflowError as exc:   # an integer beyond float64 or int64
        raise ValueError(f"dataset value out of range: {exc}") from None
    return Dataset(features=features.reshape(len(labels), expected), labels=labels,
                   ts=meta["ts"], num_freqs=meta["F"])
