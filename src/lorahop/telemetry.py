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
from dataclasses import dataclass

import numpy as np

from .core import integers
from .trace import (DEFAULT_BLOCK_LEN, DEFAULT_PAYLOAD_SCHEDULE, DEFAULT_RSSI_JITTER_DB,
                    DEFAULT_SNR_JITTER_DB, RSSI_FLOOR_DBM, SNR_FLOOR_DB)

DEFAULT_WINDOW_SLOTS = 8
RSSI_NORM_DBM = -120.0
SNR_NORM_DB = 10.0
_SPARE_ROWS = 64   # buffer rows beyond a window: its rows move to the front once per 65 records
_ROWS_PER_WRITE = 256   # dataset rows `write_dataset` formats and writes at a time
_NORMALIZATION = "v1"   # features of RSSI / RSSI_NORM_DBM and SNR / SNR_NORM_DB


class TelemetryWindow:
    """The last `ts` slots of per-frequency availability, RSSI and SNR.

    Rows are appended to three buffers (availability, RSSI, SNR) that hold
    `_SPARE_ROWS` rows beyond the window; when they are full, the window's
    last ts - 1 rows move to the front.  So `record` writes one row, and
    `snapshot` joins one slice of each buffer.  RSSI and SNR are stored
    normalised, as `snapshot` returns them.
    """

    def __init__(self, ts, num_freqs):
        if ts < 1 or num_freqs < 1:
            raise ValueError("ts and num_freqs must be positive")
        self.ts = int(ts)
        self.num_freqs = int(num_freqs)
        # rows [_end - ts, _end) are the window, oldest first; rows not recorded
        # yet hold the cold-start values
        rows = self.ts + _SPARE_ROWS
        self._avail = np.zeros((rows, self.num_freqs))
        self._rssi = np.full(rows, RSSI_FLOOR_DBM / RSSI_NORM_DBM)
        self._snr = np.full(rows, SNR_FLOOR_DB / SNR_NORM_DB)
        self._end = self.ts

    def record(self, availability_vec, rssi, snr):
        vec = availability_vec
        if not (isinstance(vec, np.ndarray) and vec.dtype == np.float64):
            vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.num_freqs,):
            raise ValueError(f"availability vector must have length {self.num_freqs}")
        end = self._end
        if end == len(self._rssi):
            keep = self.ts - 1
            for buf in (self._avail, self._rssi, self._snr):
                buf[:keep] = buf[end - keep:end]
            end = keep
        self._avail[end] = vec
        self._rssi[end] = float(rssi) / RSSI_NORM_DBM
        self._snr[end] = float(snr) / SNR_NORM_DB
        self._end = end + 1

    def snapshot(self):
        """Flatten to ts*(F+2) features, oldest first, cold-start slots padded."""
        start, end = self._end - self.ts, self._end
        return np.concatenate([self._avail[start:end].ravel(), self._rssi[start:end],
                               self._snr[start:end]])

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


def _seed_states(seed, n_rows, num_freqs):
    """`SeedSequence([seed, r, f]).generate_state(4, np.uint64)` for every (r, f) at once,
    on uint64 arrays kept to 32 bits; shape (n_rows, num_freqs, 4).  Every pool word
    mixes in every entropy word, so all of them end up (n_rows, num_freqs)."""
    seed, = integers("seed", (seed,))
    if seed < 0:
        raise ValueError("expected non-negative integer")
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


def write_dataset(dataset, fh):
    """Write the dataset document (`json.dumps(..., sort_keys=True)` of its metadata and
    rows) to the text stream `fh`, `_ROWS_PER_WRITE` rows at a time.  Each distinct float64
    bit pattern of a block is formatted once, by `json`, so -0.0, NaN and ±inf read as
    `json` writes them."""
    meta = {"ts": dataset.ts, "F": dataset.num_freqs, "normalization": _NORMALIZATION}
    fh.write(f'{{"metadata": {json.dumps(meta, sort_keys=True)}, "rows": [')
    features = np.asarray(dataset.features, dtype=np.float64)
    for lo in range(0, len(dataset), _ROWS_PER_WRITE):
        block = features[lo:lo + _ROWS_PER_WRITE]
        bits, inverse = np.unique(block.view(np.uint64), return_inverse=True)
        # one list of all distinct values: `json` spells each, ", " parts them
        texts = np.array(json.dumps(bits.view(np.float64).tolist())[1:-1].split(", "),
                         dtype=object)
        labels = dataset.labels[lo:lo + _ROWS_PER_WRITE].tolist()
        rows = texts[inverse.reshape(block.shape)].tolist()
        fh.write(("" if lo == 0 else ", ") + ", ".join(
            f'{{"features": [{", ".join(row)}], "label": {label}}}'
            for row, label in zip(rows, labels)))
    fh.write("]}")


def dataset_from_json(text):
    doc = json.loads(text)
    meta = doc["metadata"]
    if meta["normalization"] != _NORMALIZATION:
        raise ValueError(f"unsupported normalization {meta['normalization']!r}")
    expected = TelemetryWindow.feature_dim(meta["ts"], meta["F"])
    labels = [int(r["label"]) for r in doc["rows"]]
    for r, label in zip(doc["rows"], labels):
        if len(r["features"]) != expected:
            raise ValueError("feature length does not match metadata")
        if not 0 <= label < meta["F"]:
            raise ValueError("label out of range")
    features = np.array([r["features"] for r in doc["rows"]], dtype=np.float64)
    labels = np.array(labels, dtype=np.int64)
    return Dataset(features=features.reshape(len(labels), expected), labels=labels,
                   ts=meta["ts"], num_freqs=meta["F"])
