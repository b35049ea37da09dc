"""End-node telemetry: sliding windows of channel availability, RSSI and SNR.

Windows feed the channel predictor; `generate_labeled_dataset` replays a
single node against a trace once per candidate channel (shared per-row seed)
and labels each row with the channel that realized the highest RSSI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .trace import DEFAULT_BLOCK_LEN, DEFAULT_PAYLOAD_SCHEDULE, RSSI_FLOOR_DBM, SNR_FLOOR_DB

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
        vec = np.asarray(availability_vec, dtype=np.float64)
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


@dataclass(frozen=True)
class DatasetRow:
    features: tuple
    label: int


@dataclass(frozen=True)
class DatasetConfig:
    source: str = "A"
    ts: int = DEFAULT_WINDOW_SLOTS


def generate_labeled_dataset(trace, config, n_rows, seed):
    """Counterfactual replay: per row, try every channel from the same state.

    Realized RSSI of a lost packet is the floor value, so channels that fail to
    deliver rarely win the argmax.  The node then actually transmits on the
    labeled channel and its window advances with that outcome.  Payload sizes and
    link jitter follow the trace module's defaults.
    """
    if n_rows <= 0:
        raise ValueError("n_rows must be positive")
    freqs = trace.frequencies
    if config.source not in trace.sources:
        raise ValueError(f"trace has no source {config.source!r}")
    window = TelemetryWindow(ts=config.ts, num_freqs=len(freqs))
    rows = []
    for r in range(n_rows):
        size = DEFAULT_PAYLOAD_SCHEDULE[(r // DEFAULT_BLOCK_LEN) % len(DEFAULT_PAYLOAD_SCHEDULE)]
        features = window.snapshot()
        realized_rssi = np.empty(len(freqs))
        realized_snr = np.empty(len(freqs))
        for f_idx, freq in enumerate(freqs):
            entry = trace.lookup(config.source, freq, size)
            rng = np.random.default_rng([seed, r, f_idx])
            delivered = rng.random() < entry.pdr
            realized_rssi[f_idx], realized_snr[f_idx] = (
                entry.jittered(rng) if delivered else (RSSI_FLOOR_DBM, SNR_FLOOR_DB))
        label = int(np.argmax(realized_rssi))   # ties resolve to the lowest index
        rows.append(DatasetRow(features=tuple(features.tolist()), label=label))
        avail = np.zeros(len(freqs))
        avail[label] = 1.0   # the node's own transmission counts toward availability
        window.record(avail, realized_rssi[label], realized_snr[label])
    return rows


def dataset_to_json(rows, ts, num_freqs):
    doc = {
        "metadata": {"ts": ts, "F": num_freqs, "normalization": "v1"},
        "rows": [{"features": list(r.features), "label": r.label} for r in rows],
    }
    return json.dumps(doc, sort_keys=True)


def dataset_from_json(text):
    doc = json.loads(text)
    meta = doc["metadata"]
    rows = [DatasetRow(features=tuple(r["features"]), label=int(r["label"]))
            for r in doc["rows"]]
    expected = TelemetryWindow.feature_dim(meta["ts"], meta["F"])
    for r in rows:
        if len(r.features) != expected:
            raise ValueError("feature length does not match metadata")
        if not 0 <= r.label < meta["F"]:
            raise ValueError("label out of range")
    return rows, meta
