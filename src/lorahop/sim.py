"""Discrete-time replay of multi-node LoRa transmission against a channel trace.

Each simulated node sends one packet per slot, walking the payload schedule
(`packets_per_size` packets per size).  Link outcomes come from the trace via
`ChannelSampler`; overlapping transmissions on the same (gateway, frequency,
slot) are resolved with a capture threshold.  After each slot every node records the
slot (only a delivered one under `gateway` placement): the sensing strategy reads the
availability it last recorded, the predictor strategy a window as long as its model reads.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, fields
from operator import itemgetter

import numpy as np

from .core import integers, reals
from .telemetry import TelemetryWindow
from .trace import (DEFAULT_BLOCK_LEN, DEFAULT_PAYLOAD_SCHEDULE, DEFAULT_RSSI_JITTER_DB,
                    DEFAULT_SNR_JITTER_DB, RSSI_FLOOR_DBM, SNR_FLOOR_DB, ChannelSampler)
from . import predictor as predictor_mod


class Strategy:
    """Chooses a frequency index before each packet (the hop opportunity)."""

    window_slots = None   # the slots of telemetry the strategy reads: none

    def check(self, freqs):
        """Raise ValueError if the strategy cannot choose among the trace's carriers."""

    def choose(self, node, freqs):
        raise NotImplementedError


class FixedStrategy(Strategy):
    kind = "fixed"

    def __init__(self, freq_mhz):
        reals("fixed carriers", (freq_mhz,))
        self.freq_mhz = float(freq_mhz)

    def check(self, freqs):
        if self.freq_mhz not in freqs:
            raise ValueError(f"fixed carrier {self.freq_mhz} MHz is not in the trace, "
                             f"whose carriers are {freqs}")

    def choose(self, node, freqs):
        return freqs.index(self.freq_mhz)


class RandomHopStrategy(Strategy):
    """A uniform channel index per packet, from the node's `draws`."""

    kind = "random_hop"

    def choose(self, node, freqs):
        return next(node.draws)


class SensingHopStrategy(Strategy):
    """Prefer the channel with the lowest count in the node's last recorded availability.

    Never picks a channel with last seen count >= 2 while one with <= 1 exists.
    """

    kind = "sensing_hop"

    def choose(self, node, freqs):
        return 0 if node.last_avail is None else int(node.last_avail.argmin())


class PredictorHopStrategy(Strategy):
    """The model's argmax channel for the node's window; the model is kept as float64,
    converted once here rather than on every `forward`.  Its input is a window of
    `window_slots` slots of (channels + 2) features."""

    kind = "predictor_hop"

    def __init__(self, model):
        self.model = predictor_mod.FcnnModel(*(np.asarray(p, dtype=np.float64)
                                               for p in model.params()))
        self.window_slots, rest = divmod(model.input_dim, model.num_channels + 2)
        if rest:
            raise ValueError(f"model input width {model.input_dim} is not whole slots")

    def check(self, freqs):
        if self.model.num_channels != len(freqs):
            raise ValueError(f"predictor model chooses among {self.model.num_channels} "
                             f"channels, the trace has {len(freqs)}")

    def choose(self, node, freqs):
        return predictor_mod.predict_channel(self.model, node.window)


@dataclass(frozen=True)
class NodeSpec:
    source: str
    strategy: Strategy


# A jitter wider than RSSI's whole span of about 120 dB means nothing, and one near the
# float maximum turns the drawn values into +-inf and the report's means into NaN.
_MAX_JITTER_DB = 100.0


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

    def __post_init__(self):
        object.__setattr__(self, "payload_schedule", tuple(self.payload_schedule))
        # checked here: a run may never read a field (one node never meets the capture rule)
        integers("packets_per_size, seed and sizes",
                 (self.packets_per_size, self.rng_seed, *self.payload_schedule))
        reals("capture_threshold_db and the jitters",
              (self.capture_threshold_db, self.rssi_jitter_db, self.snr_jitter_db))
        if not (0 <= self.rssi_jitter_db <= _MAX_JITTER_DB
                and 0 <= self.snr_jitter_db <= _MAX_JITTER_DB
                and not np.isnan(self.capture_threshold_db)):   # an infinite threshold is valid
            raise ValueError(f"jitters must be in [0, {_MAX_JITTER_DB}] dB, "
                             "capture_threshold_db not NaN")
        if self.packets_per_size < 1:
            raise ValueError("packets_per_size must be >= 1")
        if len(set(self.payload_schedule)) != len(self.payload_schedule):
            raise ValueError("payload sizes must be distinct")   # rows are per (node, size)
        if self.predictor_placement not in ("end_node", "gateway"):
            raise ValueError("predictor_placement must be end_node or gateway")

    @classmethod
    def from_json(cls, text, read):
        """SimConfig from a config document: "nodes" and the other field names, "seed" for
        `rng_seed`, and no other key; a field the document lacks keeps its default.
        `read(path)` returns the bytes of a model file the document names."""
        doc = json.loads(text)

        def strategy(spec):
            kind = spec["kind"]
            if kind == "fixed":
                return FixedStrategy(spec["freq"])
            if kind == "random_hop":
                return RandomHopStrategy()
            if kind == "sensing_hop":
                return SensingHopStrategy()
            if kind == "predictor_hop":
                return PredictorHopStrategy(predictor_mod.import_flat(read(spec["model"])))
            raise ValueError(f"unknown strategy kind {kind!r}")

        nodes = tuple(NodeSpec(source=n["source"], strategy=strategy(n["strategy"]))
                      for n in doc["nodes"])
        keys = {("seed" if f.name == "rng_seed" else f.name): f.name
                for f in fields(cls) if f.name != "nodes"}
        if unknown := sorted(doc.keys() - keys.keys() - {"nodes"}):
            raise ValueError(f"unknown sim config keys {unknown}")
        return cls(nodes=nodes, **{name: doc[key] for key, name in keys.items() if key in doc})


EVENT_FIELDS = ("slot", "node", "gateway", "freq_mhz", "size", "rssi", "snr",
                "delivered", "collided", "hopped")   # the output columns of one transmission
# `SimReport.events`: the output columns but the gateway, which is "GW0" for every
# transmission; `node` and `freq_mhz` are indices into the report's `sources` and `freqs`
EVENT_DTYPE = np.dtype([("slot", np.int64), ("node", np.int64), ("freq_mhz", np.int64),
                        ("size", np.int64), ("rssi", np.float64), ("snr", np.float64),
                        ("delivered", bool), ("collided", bool), ("hopped", bool)])
_WRITE_BLOCK = 1024   # events the writer makes Python values of at a time, not the run's
_JSON_BOOL, _CSV_BOOL = ("false", "true"), ("0", "1")   # indexed by a bool
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}   # by float repr
# An event as `json.dumps(sort_keys=True)` writes it: its head, the text up to "rssi",
# holds the fields that take few values, and the rest the four that take many
_JSON_HEAD = ('{"collided": %s, "delivered": %s, "freq_mhz": %s, "gateway": %s, '
              '"hopped": %s, "node": %s, "rssi": ')
_JSON_EVENT = '%s%s%s, "size": %s, "slot": %s, "snr": %s}'   # separator, head, rssi, ...


class _Texts(dict):
    """Text by key, made by `make(key)` the first time a key is looked up."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        text = self[key] = self.make(key)
        return text


def _text_cells(text):
    """(the JSON string, the CSV cell) of a string."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])   # in a row of two: a lone "" would be quoted
    return json.dumps(text), buf.getvalue()[:-len(",\r\n")]


def _carrier_cells(freq):
    """(the JSON text, the CSV cell) of a carrier in MHz."""
    text = repr(freq)
    return _JSON_NONFINITE.get(text, text), text


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
    events: np.recarray   # one record per transmission (`EVENT_DTYPE`), unrounded
    sources: list         # the node names `events.node` indexes
    freqs: list           # the carriers in MHz `events.freq_mhz` indexes

    @property
    def sizes(self):
        return sorted({r.size for r in self.rows})

    def write(self, fh, events_fh=None):
        """Write the report document (`json.dumps(..., sort_keys=True)` of its rows and
        events) to the text stream `fh` and, given `events_fh`, the events CSV (columns
        `EVENT_FIELDS`, booleans as 0/1, as `csv.writer` writes it) to that stream, in one
        pass over the events.  Slot, size, RSSI and SNR are formatted per event, RSSI and
        SNR rounded to 6 decimals.  The rest of an event's text takes few values, each made
        once: on first use, in JSON the text before "rssi", by node, carrier and the three
        flags, and in CSV the cells between slot and size, by node and carrier; the CSV
        line's end is one of eight, by the flags.  JSON spells strings and non-finite
        floats as `json` does."""
        nf = len(self.freqs)
        names = [_text_cells(name) for name in self.sources]
        carriers = [_carrier_cells(freq) for freq in self.freqs]
        gateway = _text_cells("GW0")

        # an event's pair is node * nf + carrier, its flags delivered * 4 + collided * 2
        # + hopped, and the key of its JSON head pair * 8 + flags
        def json_head(key):
            (k, f), flag = divmod(key >> 3, nf), key & 7
            return _JSON_HEAD % (_JSON_BOOL[flag >> 1 & 1], _JSON_BOOL[flag >> 2],
                                 carriers[f][0], gateway[0], _JSON_BOOL[flag & 1], names[k][0])

        def csv_cells(pair):
            k, f = divmod(pair, nf)
            return f",{names[k][1]},{gateway[1]},{carriers[f][1]},"

        heads, cells = _Texts(json_head), _Texts(csv_cells)
        flag_cells = [f",{_CSV_BOOL[flag >> 2]},{_CSV_BOOL[flag >> 1 & 1]},"
                      f"{_CSV_BOOL[flag & 1]}\r\n" for flag in range(8)]
        fh.write('{"events": [')
        if events_fh is not None:
            events_fh.write(",".join(_text_cells(name)[1] for name in EVENT_FIELDS) + "\r\n")
        write, write_csv = fh.write, None if events_fh is None else events_fh.write
        columns = {name: self.events[name] for name in EVENT_DTYPE.names}
        sep = ""
        for start in range(0, len(self.events), _WRITE_BLOCK):
            c = {name: column[start:start + _WRITE_BLOCK] for name, column in columns.items()}
            pairs = c["node"] * nf + c["freq_mhz"]
            flags = c["delivered"] * 4 + c["collided"] * 2 + c["hopped"]
            for slot, size, rssi, snr, head, pair, flag in zip(
                    *(c[name].tolist() for name in ("slot", "size", "rssi", "snr")),
                    (pairs * 8 + flags).tolist(), pairs.tolist(), flags.tolist()):
                slot, size = str(slot), str(size)
                rssi, snr = repr(round(rssi, 6)), repr(round(snr, 6))
                write(_JSON_EVENT % (sep, heads[head], _JSON_NONFINITE.get(rssi, rssi), size,
                                     slot, _JSON_NONFINITE.get(snr, snr)))
                sep = ", "
                if write_csv is not None:
                    write_csv(f"{slot}{cells[pair]}{size},{rssi},{snr}{flag_cells[flag]}")
        rows = [dict(asdict(r), pdr=r.pdr) for r in self.rows]
        fh.write(f'], "rows": {json.dumps(rows, sort_keys=True)}}}')


_DRAWS_PER_CALL = 1024   # channel indices `_chunked_integers` draws per call to the generator


def _chunked_integers(rng, high):
    """rng's `integers(0, high)` one at a time, drawn `_DRAWS_PER_CALL` per call to the
    generator: the same stream as one call per draw."""
    while True:
        yield from rng.integers(0, high, _DRAWS_PER_CALL).tolist()


class _NodeState:
    """All of one simulated node's state; `last_avail` is the vector it last recorded, and
    `draws` its stream of uniform channel indices."""

    def __init__(self, spec, config, trace, num_freqs, index):
        self.spec = spec
        self.source = spec.source
        ts = spec.strategy.window_slots
        self.window = None if ts is None else TelemetryWindow(ts, num_freqs)
        self.draws = _chunked_integers(np.random.default_rng([config.rng_seed, 0x50, index]),
                                       num_freqs)
        self.sampler = ChannelSampler(
            trace, seed=[config.rng_seed, 0x5A, index], block_len=config.packets_per_size,
            rssi_jitter_db=config.rssi_jitter_db, snr_jitter_db=config.snr_jitter_db)
        self.last_avail = None


def _capture(txs, counts, threshold):
    """Resolve a slot's transmissions ([channel, delivered, rssi, snr, collided] each) in
    place, given each channel's count of them: of those sharing a channel, the strongest
    survives if its margin over the second reaches `threshold`, and every other one is lost
    to the collision."""
    for f, count in enumerate(counts):
        if count > 1:
            group = [tx for tx in txs if tx[0] == f]
            group.sort(key=itemgetter(2), reverse=True)   # stable: ties keep node order
            for tx in group[1 if group[0][2] - group[1][2] >= threshold else 0:]:
                tx[1], tx[4] = False, True


def run(config, trace):
    """Execute the full payload schedule; deterministic given (config, trace, seed)."""
    freqs = list(trace.frequencies)
    for size in config.payload_schedule:
        if size not in trace.sizes:
            raise ValueError(f"payload size {size} not present in the trace")
    sizes = np.array(config.payload_schedule, dtype=np.int64)   # one past int64 fails here
    sources = [spec.source for spec in config.nodes]
    if not sources:
        raise ValueError("a simulation needs at least one node")
    if len(set(sources)) != len(sources):
        raise ValueError("node sources must be distinct")
    for spec in config.nodes:
        if spec.source not in trace.sources:
            raise ValueError(f"node source {spec.source!r} is not in the trace, "
                             f"whose sources are {trace.sources}")
        spec.strategy.check(freqs)
    nodes = [_NodeState(spec, config, trace, len(freqs), k)
             for k, spec in enumerate(config.nodes)]
    record_lost = config.predictor_placement == "end_node"   # a gateway hears only deliveries
    threshold = config.capture_threshold_db
    steps = [(node, node.spec.strategy.choose, node.sampler.sample, node.source)
             for node in nodes]
    records = [(node, None if node.window is None else node.window.record) for node in nodes]

    columns = [[] for _ in range(5)]   # channel, delivered, rssi, snr, collided
    for size in config.payload_schedule:
        for _ in range(config.packets_per_size):
            txs = []
            counts = [0] * len(freqs)
            for node, choose, sample, source in steps:
                f_idx = choose(node, freqs)
                counts[f_idx] += 1
                txs.append([f_idx, *sample(source, freqs[f_idx], size), False])
            if max(counts) > 1:
                _capture(txs, counts, threshold)
            avail = np.array(counts, dtype=np.float64)
            for (node, record), (_, delivered, rssi, snr, _) in zip(records, txs):
                if record_lost or delivered:
                    node.last_avail = avail
                    if record is not None and delivered:
                        record(avail, rssi, snr)
                    elif record is not None:   # a lost packet reads at the floor values
                        record(avail, RSSI_FLOOR_DBM, SNR_FLOOR_DB)
            for column, values in zip(columns, zip(*txs)):
                column += values

    n = len(nodes)
    block, slots = config.packets_per_size * n, config.packets_per_size * len(sizes)
    chan, delivered, rssi, snr, collided = columns
    chan = np.array(chan, dtype=np.int64)
    hopped = np.zeros(len(chan), dtype=bool)   # a node hops when it leaves its last channel
    np.not_equal(chan[n:], chan[:-n], out=hopped[n:])
    events = np.rec.fromarrays(
        [np.repeat(np.arange(1, slots + 1), n), np.tile(np.arange(n), slots), chan,
         np.repeat(sizes, block), rssi, snr, delivered, collided, hopped], dtype=EVENT_DTYPE)
    rows = []
    for k, node in enumerate(nodes):
        for b, size in enumerate(config.payload_schedule):
            e = events[b * block + k:(b + 1) * block:n]
            ok = e.delivered
            rows.append(ReportRow(
                node=node.source, size=size, strategy=node.spec.strategy.kind,
                sent=len(e), delivered=int(ok.sum()),
                collisions=int(e.collided.sum()), hops=int(e.hopped.sum()),
                mean_rssi=float(np.mean(e.rssi[ok])) if ok.any() else RSSI_FLOOR_DBM,
                mean_snr=float(np.mean(e.snr[ok])) if ok.any() else SNR_FLOOR_DB,
                mean_rssi_all=float(np.mean(np.where(ok, e.rssi, RSSI_FLOOR_DBM))),
                mean_snr_all=float(np.mean(np.where(ok, e.snr, SNR_FLOOR_DB))),
            ))
    return SimReport(rows=rows, events=events, sources=sources, freqs=freqs)


COMPARISON_FIELDS = ("size", "metric", "random_hop", "predictor_hop", "improvement")
COMPARISON_METRICS = ("rssi", "snr", "pdr")


def write_csv(path, header, rows):
    """Write `header`, then `rows`, as a CSV file at `path`; returns `path`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def strategy_tables(data):
    """The `figdata` tables (file name, header, rows) of a `comparison.csv` file's bytes:
    per metric, each size's values under both strategies, as text."""
    try:
        header, *rows = list(csv.reader(io.StringIO(data.decode(), newline=""))) or [[]]
    except csv.Error as exc:
        raise ValueError(f"comparison table: {exc}") from None
    if tuple(header) != COMPARISON_FIELDS:
        raise ValueError(f"not a comparison table: header {header}" if header
                         else "empty comparison table: no header row")
    for row in rows:
        if len(row) != len(COMPARISON_FIELDS):
            raise ValueError(f"comparison row {row}: expected {len(COMPARISON_FIELDS)} fields")
        for value in row[:1] + row[2:]:
            float(value)   # a cell that is not a number raises ValueError; "nan" passes
        if row[1] not in COMPARISON_METRICS:
            raise ValueError(f"comparison row {row}: unknown metric {row[1]!r}")
    return [(f"fig_strategy_{metric}.csv", ["size", "random_hop", "predictor_hop"],
             [[size, rand, pred] for size, m, rand, pred, _ in rows if m == metric])
            for metric in COMPARISON_METRICS]


def compare_strategies(report_pred, report_random):
    """The `comparison.csv` rows (`COMPARISON_FIELDS`), three per payload size.

    RSSI improvement works on dBm magnitudes (smaller |rssi| is better):
    (|rssi_random| - |rssi_pred|) / |rssi_random| * 100.  Lost packets enter the
    means at the floor values, which makes whole-run comparisons sensitive to
    delivery, not just link quality of the delivered packets.
    """
    if report_pred.sizes != report_random.sizes:
        raise ValueError("reports cover different payload size sets")

    def per_size(report, size):
        rows = [r for r in report.rows if r.size == size]
        sent = sum(r.sent for r in rows)
        rssi = sum(r.mean_rssi_all * r.sent for r in rows) / sent
        snr = sum(r.mean_snr_all * r.sent for r in rows) / sent
        pdr = sum(r.delivered for r in rows) / sent
        return rssi, snr, pdr

    table = []
    for size in report_pred.sizes:
        rssi_a, snr_a, pdr_a = per_size(report_pred, size)
        rssi_b, snr_b, pdr_b = per_size(report_random, size)
        rssi_impr = (abs(rssi_b) - abs(rssi_a)) / abs(rssi_b) * 100 if rssi_b else 0.0
        snr_impr = (snr_a - snr_b) / snr_b * 100 if snr_b > 0 else float("nan")
        table += [[size, "rssi", rssi_b, rssi_a, rssi_impr],
                  [size, "snr", snr_b, snr_a, snr_impr],
                  [size, "pdr", pdr_b, pdr_a, pdr_a - pdr_b]]
    return table
