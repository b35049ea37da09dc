"""Trace-driven channel model: per (source, frequency, payload size) link statistics.

The bundled default trace (`data/traces/paper_tables.csv`) holds lab measurements for
three end-nodes (A, B, C) on 868/869/870 MHz across six payload sizes, with
mean RSSI [dBm], mean SNR [dB], received packet count and packet delivery
ratio out of 50 transmissions per cell.
"""

from __future__ import annotations

import csv
import importlib.resources
import io
import itertools
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RSSI_FLOOR_DBM = -120.0   # value assumed for packets the gateway never saw
SNR_FLOOR_DB = 0.0
DEFAULT_PAYLOAD_SCHEDULE = (30, 74, 118, 162, 206, 250)   # bundled trace sizes, bytes
DEFAULT_BLOCK_LEN = 50   # transmissions per (source, frequency, size) cell of the trace
DEFAULT_RSSI_JITTER_DB = 1.0
DEFAULT_SNR_JITTER_DB = 0.5
_JITTER_CHUNK = 1024   # standard normals a sampler draws from its generator at a time
# LoRa receivers hear down to about -148 dBm, and link SNRs lie within tens of dB.  A mean
# far past these bounds is no measurement, and one near the float maximum turns a replayed
# run's mean RSSI into -inf.
_MIN_RSSI_DBM = -200.0
_MAX_ABS_SNR_DB = 100.0


class TraceError(ValueError):
    pass


@dataclass(frozen=True)
class TraceEntry:
    mean_rssi: float
    mean_snr: float
    pdr: float
    sample_count: int


class ChannelTrace:
    def __init__(self, entries):
        self.entries = dict(entries)
        self.sources = sorted({k[0] for k in self.entries})
        self.frequencies = sorted({k[1] for k in self.entries})
        self.sizes = sorted({k[2] for k in self.entries})
        for src in self.sources:
            for freq in self.frequencies:
                for size in self.sizes:
                    if (src, freq, size) not in self.entries:
                        raise TraceError(f"trace is missing cell {(src, freq, size)}")

    def lookup(self, source, freq_mhz, size_bytes):
        try:
            return self.entries[(source, float(freq_mhz), int(size_bytes))]
        except KeyError:
            raise TraceError(f"no trace entry for {(source, freq_mhz, size_bytes)}") from None


EXPECTED_HEADER = ["source", "freq_mhz", "size_bytes", "rssi", "snr", "count", "pdr"]


def load_trace(data):
    """The trace in a CSV file's bytes (columns `EXPECTED_HEADER`)."""
    entries = {}
    reader = csv.reader(io.StringIO(data.decode(), newline=""))
    try:
        header, rows = next(reader, None), list(reader)
    except csv.Error as exc:   # a field longer than `csv.field_size_limit()`, say
        raise TraceError(f"line {reader.line_num}: {exc}") from None
    if header != EXPECTED_HEADER:
        raise TraceError(f"bad trace header: {header}")
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != len(EXPECTED_HEADER):
            raise TraceError(f"line {lineno}: expected {len(EXPECTED_HEADER)} fields")
        try:
            source = row[0]
            key = (source, float(row[1]), int(row[2]))
            entry = TraceEntry(mean_rssi=float(row[3]), mean_snr=float(row[4]),
                               pdr=float(row[6]), sample_count=int(row[5]))
        except ValueError as exc:
            raise TraceError(f"line {lineno}: {exc}") from None
        if not all(map(math.isfinite, (key[1], entry.mean_rssi, entry.mean_snr))):
            raise TraceError(f"line {lineno}: non-finite freq_mhz, rssi or snr")
        if not 0.0 <= entry.pdr <= 1.0:
            raise TraceError(f"line {lineno}: pdr {entry.pdr} outside [0, 1]")
        if not _MIN_RSSI_DBM <= entry.mean_rssi <= 0:
            raise TraceError(f"line {lineno}: rssi {entry.mean_rssi} outside "
                             f"[{_MIN_RSSI_DBM}, 0] dBm")
        if not -_MAX_ABS_SNR_DB <= entry.mean_snr <= _MAX_ABS_SNR_DB:
            raise TraceError(f"line {lineno}: snr {entry.mean_snr} outside "
                             f"[-{_MAX_ABS_SNR_DB}, {_MAX_ABS_SNR_DB}] dB")
        if key in entries:
            raise TraceError(f"line {lineno}: duplicate key {key}")
        entries[key] = entry
    if not entries:
        raise TraceError("empty trace")
    return ChannelTrace(entries)


def bundled_trace_path():
    return str(importlib.resources.files("lorahop").joinpath("data/traces/paper_tables.csv"))


def load_bundled_trace():
    return load_trace(Path(bundled_trace_path()).read_bytes())


class ChannelSampler:
    """Deterministic per-packet outcomes against a trace.

    Delivery per (source, frequency, size) follows the trace PDR exactly over a
    full block of `block_len` transmissions: the block holds round(pdr * L)
    successes in an order shuffled by the seeded generator.  RSSI and SNR are
    each the trace mean plus a standard normal times its jitter, RSSI clamped at
    0 dBm as `min(rssi, 0.0)` clamps it (a -0.0 stays).  The two normals of a
    call, RSSI's first, are read by index from a list the jitter generator
    refills `_JITTER_CHUNK` at a time, which is the same stream as one
    `normal(0, 1)` draw at a time.  Each key's state is made on its first call
    and found again under any equal key (`870` and `870.0` hash alike).
    """

    def __init__(self, trace, seed, block_len=DEFAULT_BLOCK_LEN,
                 rssi_jitter_db=DEFAULT_RSSI_JITTER_DB, snr_jitter_db=DEFAULT_SNR_JITTER_DB):
        self.trace = trace
        self.block_len = int(block_len)
        if self.block_len < 1:   # each key's delivery pattern repeats every block_len calls
            raise ValueError(f"block_len must be >= 1, got {block_len}")
        self.rssi_jitter_db = float(rssi_jitter_db)
        self.snr_jitter_db = float(snr_jitter_db)
        self._seed = [int(v) for v in seed] if isinstance(seed, (list, tuple)) else [int(seed)]
        # (source, freq, size) -> (its delivery pattern as an endless cycle, mean RSSI, mean SNR)
        self._keys = {}
        self._jitter_rng = np.random.default_rng(self._seed + [0xA5])
        self._normals, self._next = [], 0   # the drawn normals, and the index of the next

    def _start(self, key):
        entry = self.trace.lookup(*key)
        n_ok = int(round(entry.pdr * self.block_len))
        pat = np.zeros(self.block_len, dtype=bool)
        pat[:n_ok] = True
        rng = np.random.default_rng(self._seed + [zlib.crc32(repr(key).encode())])
        rng.shuffle(pat)
        return itertools.cycle(pat.tolist()), entry.mean_rssi, entry.mean_snr

    def sample(self, source, freq_mhz, size_bytes):
        """One transmission attempt: (delivered, rssi_dbm, snr_db)."""
        state = self._keys.get((source, freq_mhz, size_bytes))
        if state is None:   # a key not met before, or met with another type
            key = (source, float(freq_mhz), int(size_bytes))
            state = self._keys.get(key)
            if state is None:
                state = self._keys[key] = self._start(key)
        pattern, mean_rssi, mean_snr = state
        i, normals = self._next, self._normals
        if i == len(normals):   # `_JITTER_CHUNK` is even: a call's two never straddle a refill
            i, normals = 0, self._jitter_rng.standard_normal(_JITTER_CHUNK).tolist()
            self._normals = normals
        self._next = i + 2
        rssi = mean_rssi + normals[i] * self.rssi_jitter_db
        return (next(pattern), 0.0 if 0.0 < rssi else rssi,   # min(rssi, 0.0)
                mean_snr + normals[i + 1] * self.snr_jitter_db)
