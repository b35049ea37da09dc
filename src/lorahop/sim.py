"""Discrete-time replay of multi-node LoRa transmission against a channel trace.

Each simulated node sends one packet per slot, walking the payload schedule
(`packets_per_size` packets per size).  Link outcomes come from the trace via
`ChannelSampler`; overlapping transmissions on the same (gateway, frequency,
slot) are resolved with a capture threshold.  The gateway feeds every node's
telemetry window after each slot, which is what the sensing and predictor
hopping strategies consume.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from numbers import Integral, Real

import numpy as np

from .telemetry import TelemetryWindow, DEFAULT_WINDOW_SLOTS
from .trace import (DEFAULT_BLOCK_LEN, DEFAULT_PAYLOAD_SCHEDULE, DEFAULT_RSSI_JITTER_DB,
                    DEFAULT_SNR_JITTER_DB, RSSI_FLOOR_DBM, SNR_FLOOR_DB, ChannelSampler)
from . import predictor as predictor_mod


class Strategy:
    """Chooses a frequency index before each packet (the hop opportunity)."""

    kind = "base"

    def choose(self, node, freqs, rng):
        raise NotImplementedError


class FixedStrategy(Strategy):
    kind = "fixed"

    def __init__(self, freq_mhz):
        self.freq_mhz = float(freq_mhz)

    def choose(self, node, freqs, rng):
        return freqs.index(self.freq_mhz)


class RandomHopStrategy(Strategy):
    kind = "random_hop"

    def choose(self, node, freqs, rng):
        return int(rng.integers(0, len(freqs)))


class SensingHopStrategy(Strategy):
    """Prefer channels whose last observed availability count is lowest.

    Never picks a channel with last seen count >= 2 while one with <= 1 exists.
    """

    kind = "sensing_hop"

    def choose(self, node, freqs, rng):
        window = node.window
        if len(window) == 0:
            return node.current_freq_idx if node.current_freq_idx is not None else 0
        last = window.availability[-1]
        return int(np.argmin(last))


class PredictorHopStrategy(Strategy):
    kind = "predictor_hop"

    def __init__(self, model):
        self.model = model

    def choose(self, node, freqs, rng):
        if self.model.num_channels != len(freqs):
            raise ValueError("model output width does not match the frequency set")
        return predictor_mod.predict_channel(self.model, node.window)


@dataclass(frozen=True)
class NodeSpec:
    source: str
    strategy: Strategy


@dataclass(frozen=True)
class SimConfig:
    nodes: tuple
    payload_schedule: tuple = DEFAULT_PAYLOAD_SCHEDULE
    packets_per_size: int = DEFAULT_BLOCK_LEN
    rng_seed: int = 0
    capture_threshold_db: float = 6.0
    rssi_jitter_db: float = DEFAULT_RSSI_JITTER_DB
    snr_jitter_db: float = DEFAULT_SNR_JITTER_DB
    predictor_placement: str = "end_node"   # or "gateway"
    window_slots: int = DEFAULT_WINDOW_SLOTS

    def __post_init__(self):
        # checked here: a run may never read a field (one node never meets the capture rule)
        ints = (self.packets_per_size, self.rng_seed, self.window_slots, *self.payload_schedule)
        if any(isinstance(v, bool) or not isinstance(v, Integral) for v in ints):
            raise TypeError("packets_per_size, seed, window_slots and sizes must be integers")
        reals = (self.capture_threshold_db, self.rssi_jitter_db, self.snr_jitter_db)
        if any(isinstance(v, bool) or not isinstance(v, Real) for v in reals):
            raise TypeError("capture_threshold_db and the jitters must be real numbers")
        if self.packets_per_size < 1:
            raise ValueError("packets_per_size must be >= 1")
        if len(set(self.payload_schedule)) != len(self.payload_schedule):
            raise ValueError("payload sizes must be distinct")   # rows are per (node, size)
        if self.predictor_placement not in ("end_node", "gateway"):
            raise ValueError("predictor_placement must be end_node or gateway")


@dataclass(slots=True)
class SlotEvent:
    """One transmission: the run's only per-transmission record, kept unrounded."""

    slot: int
    node: str
    gateway: str
    freq_mhz: float
    size: int
    rssi: float
    snr: float
    delivered: bool
    collided: bool
    hopped: bool

    def observed(self):
        """(rssi, snr) as the gateway reports them: the floor values for a lost packet."""
        return (self.rssi, self.snr) if self.delivered else (RSSI_FLOOR_DBM, SNR_FLOOR_DB)

    def to_dict(self):
        """Output form, keys in field order; RSSI and SNR rounded to 6 decimals."""
        return {"slot": self.slot, "node": self.node, "gateway": self.gateway,
                "freq_mhz": self.freq_mhz, "size": self.size,
                "rssi": round(self.rssi, 6), "snr": round(self.snr, 6),
                "delivered": self.delivered, "collided": self.collided, "hopped": self.hopped}


EVENT_FIELDS = tuple(f.name for f in fields(SlotEvent))


@dataclass
class ReportRow:
    node: str
    size: int
    strategy: str
    sent: int
    delivered: int
    collisions: int
    hops: int
    mean_rssi: float        # over delivered packets only
    mean_snr: float
    mean_rssi_all: float    # lost packets counted at the RSSI floor
    mean_snr_all: float

    @property
    def pdr(self):
        return self.delivered / self.sent if self.sent else 0.0


@dataclass
class SimReport:
    rows: list
    events: list

    @property
    def sizes(self):
        return sorted({r.size for r in self.rows})

    @cached_property
    def event_dicts(self):
        """`SlotEvent.to_dict` of every event, built once for both the JSON and the CSV."""
        return [e.to_dict() for e in self.events]

    def to_json(self):
        doc = {
            "rows": [dict(asdict(r), pdr=r.pdr) for r in self.rows],
            "events": self.event_dicts,
        }
        return json.dumps(doc, sort_keys=True)


class _NodeState:
    def __init__(self, spec, num_freqs, window_slots, seed, index):
        self.spec = spec
        self.window = TelemetryWindow(ts=window_slots, num_freqs=num_freqs)
        self.rng = np.random.default_rng([seed, 0x50, index])
        self.current_freq_idx = None

    @property
    def source(self):
        return self.spec.source


def run(config, trace):
    """Execute the full payload schedule; deterministic given (config, trace, seed)."""
    freqs = list(trace.frequencies)
    for size in config.payload_schedule:
        if size not in trace.sizes:
            raise ValueError(f"payload size {size} not present in the trace")
    sources = [spec.source for spec in config.nodes]
    if len(set(sources)) != len(sources):
        raise ValueError("node sources must be distinct")
    nodes = [_NodeState(spec, len(freqs), config.window_slots, config.rng_seed, k)
             for k, spec in enumerate(config.nodes)]
    paired = [(node, ChannelSampler(
        trace, seed=[config.rng_seed, 0x5A, k], block_len=config.packets_per_size,
        rssi_jitter_db=config.rssi_jitter_db, snr_jitter_db=config.snr_jitter_db))
        for k, node in enumerate(nodes)]
    record_lost = config.predictor_placement == "end_node"   # a gateway hears only deliveries
    threshold = config.capture_threshold_db

    events = []
    slot = 0
    for size in config.payload_schedule:
        for _ in range(config.packets_per_size):
            slot += 1
            txs = []
            by_freq = {}
            avail = np.zeros(len(freqs))
            for node, sampler in paired:
                f_idx = node.spec.strategy.choose(node, freqs, node.rng)
                hopped = node.current_freq_idx is not None and f_idx != node.current_freq_idx
                node.current_freq_idx = f_idx
                avail[f_idx] += 1.0
                freq = freqs[f_idx]
                delivered, rssi, snr = sampler.sample(node.source, freq, size)
                e = SlotEvent(slot, node.source, "GW0", freq, size,
                              rssi, snr, delivered, False, hopped)
                txs.append(e)
                by_freq.setdefault(f_idx, []).append(e)

            # capture: strongest survives with enough margin, otherwise all lost
            if len(by_freq) < len(txs):
                for group in by_freq.values():
                    if len(group) < 2:
                        continue
                    group.sort(key=lambda e: e.rssi, reverse=True)
                    margin = group[0].rssi - group[1].rssi
                    for j, e in enumerate(group):
                        if j == 0 and margin >= threshold:
                            continue
                        e.delivered = False
                        e.collided = True

            for (node, _), e in zip(paired, txs):
                if record_lost or e.delivered:
                    node.window.record(avail, *e.observed())
            events += txs

    by_key = {}
    for e in events:
        by_key.setdefault((e.node, e.size), []).append(e)
    rows = []
    for node in nodes:
        for size in config.payload_schedule:
            group = by_key[(node.source, size)]
            ok = [e for e in group if e.delivered]
            observed = [e.observed() for e in group]
            rows.append(ReportRow(
                node=node.source, size=size, strategy=node.spec.strategy.kind,
                sent=len(group), delivered=len(ok),
                collisions=sum(e.collided for e in group), hops=sum(e.hopped for e in group),
                mean_rssi=float(np.mean([e.rssi for e in ok])) if ok else RSSI_FLOOR_DBM,
                mean_snr=float(np.mean([e.snr for e in ok])) if ok else SNR_FLOOR_DB,
                mean_rssi_all=float(np.mean([rssi for rssi, _ in observed])),
                mean_snr_all=float(np.mean([snr for _, snr in observed])),
            ))
    return SimReport(rows=rows, events=events)


def compare_strategies(report_a, report_b):
    """Per payload size, improvement of report_a over baseline report_b.

    RSSI improvement works on dBm magnitudes (smaller |rssi| is better):
    (|rssi_b| - |rssi_a|) / |rssi_b| * 100.  Lost packets enter the means at
    the floor values, which is what makes whole-run comparisons sensitive to
    delivery, not just link quality of the delivered packets.
    """
    if report_a.sizes != report_b.sizes:
        raise ValueError("reports cover different payload size sets")

    def per_size(report, size):
        rows = [r for r in report.rows if r.size == size]
        sent = sum(r.sent for r in rows)
        rssi = sum(r.mean_rssi_all * r.sent for r in rows) / sent
        snr = sum(r.mean_snr_all * r.sent for r in rows) / sent
        pdr = sum(r.delivered for r in rows) / sent
        return rssi, snr, pdr

    table = []
    for size in report_a.sizes:
        rssi_a, snr_a, pdr_a = per_size(report_a, size)
        rssi_b, snr_b, pdr_b = per_size(report_b, size)
        rssi_impr = (abs(rssi_b) - abs(rssi_a)) / abs(rssi_b) * 100 if rssi_b else 0.0
        snr_impr = (snr_a - snr_b) / snr_b * 100 if snr_b > 0 else float("nan")
        table.append({
            "size": size,
            "rssi_a": rssi_a, "rssi_b": rssi_b, "rssi_improvement_pct": rssi_impr,
            "snr_a": snr_a, "snr_b": snr_b, "snr_improvement_pct": snr_impr,
            "pdr_a": pdr_a, "pdr_b": pdr_b, "pdr_delta": pdr_a - pdr_b,
        })
    return table
