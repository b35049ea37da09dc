import io
import json
import os
import tracemalloc

import numpy as np
import pytest

from lorahop import predictor, sim, telemetry, trace
from oracle import (events_by_slot_loop, events_csv, report_row, report_to_json,
                    rows_by_grouping)


def fixed_config(source="A", freq=869.0, seed=0, **kw):
    return sim.SimConfig(nodes=(sim.NodeSpec(source=source,
                                             strategy=sim.FixedStrategy(freq)),),
                         rng_seed=seed, **kw)


def report_json(report):
    buf = io.StringIO()
    report.write(buf)
    return buf.getvalue()


def test_fixed_node_trace_fidelity_no_jitter(bundled_trace):
    config = fixed_config(rssi_jitter_db=0.0, snr_jitter_db=0.0)
    report = sim.run(config, bundled_trace)
    for size in report.sizes:
        row = report_row(report, "A", size)
        entry = bundled_trace.lookup("A", 869.0, size)
        assert row.mean_rssi == pytest.approx(entry.mean_rssi, abs=1e-9)
        assert row.mean_snr == pytest.approx(entry.mean_snr, abs=1e-9)
        assert row.pdr == pytest.approx(entry.pdr, abs=1e-9)
        assert row.hops == 0


def test_pdr_exact_under_jitter(bundled_trace):
    # jitter moves RSSI/SNR but never delivery counts
    report = sim.run(fixed_config(source="C", freq=868.0, seed=11), bundled_trace)
    for size in report.sizes:
        row = report_row(report, "C", size)
        entry = bundled_trace.lookup("C", 868.0, size)
        assert row.delivered == round(entry.pdr * 50)


def test_run_is_deterministic(bundled_trace):
    cfg = sim.SimConfig(nodes=(sim.NodeSpec(source="A", strategy=sim.RandomHopStrategy()),
                               sim.NodeSpec(source="B", strategy=sim.RandomHopStrategy())),
                        rng_seed=42)
    a = sim.run(cfg, bundled_trace)
    b = sim.run(cfg, bundled_trace)
    assert report_json(a) == report_json(b)
    c = sim.run(sim.SimConfig(nodes=cfg.nodes, rng_seed=43), bundled_trace)
    assert report_json(a) != report_json(c)


def test_duplicate_sources_rejected(bundled_trace):
    cfg = sim.SimConfig(nodes=(sim.NodeSpec(source="A", strategy=sim.RandomHopStrategy()),
                               sim.NodeSpec(source="A", strategy=sim.RandomHopStrategy())),
                        rng_seed=0)
    with pytest.raises(ValueError):
        sim.run(cfg, bundled_trace)


def test_unknown_payload_size_rejected(bundled_trace):
    cfg = fixed_config(payload_schedule=(42,))
    with pytest.raises(ValueError):
        sim.run(cfg, bundled_trace)


def test_capture_resolution(bundled_trace):
    # both nodes pinned to the same channel: every slot contends
    cfg = sim.SimConfig(nodes=(sim.NodeSpec(source="A", strategy=sim.FixedStrategy(869.0)),
                               sim.NodeSpec(source="B", strategy=sim.FixedStrategy(869.0))),
                        rng_seed=5)
    report = sim.run(cfg, bundled_trace)
    for event_pair in zip(report.events[::2], report.events[1::2]):
        delivered = [e for e in event_pair if e.delivered]
        assert len(delivered) <= 1   # at most the capture winner survives
    collided = sum(r.collisions for r in report.rows)
    assert collided > 0


def test_capture_among_three_on_one_channel_spares_the_lone_node(bundled_trace):
    # D replays A's links, so on 869 MHz A and D are about as strong and C far weaker: the
    # strongest's margin over the second falls on both sides of a 1 dB threshold
    four = trace.ChannelTrace({**bundled_trace.entries, **{
        ("D", *key[1:]): entry for key, entry in bundled_trace.entries.items() if key[0] == "A"}})
    cfg = sim.SimConfig(nodes=tuple(
        sim.NodeSpec(source=src, strategy=sim.FixedStrategy(freq))
        for src, freq in (("A", 869.0), ("B", 868.0), ("C", 869.0), ("D", 869.0))),
        packets_per_size=20, rng_seed=5, capture_threshold_db=1.0)
    report = sim.run(cfg, four)
    outcomes = set()
    for k in range(0, len(report.events), 4):
        a, b, c, d = report.events[k:k + 4]
        assert not b.collided   # alone on its channel
        strongest, second, _ = sorted((a, c, d), key=lambda e: e.rssi, reverse=True)
        captured = strongest.rssi - second.rssi >= 1.0
        assert [e for e in (a, c, d) if e.delivered] == ([strongest] if captured else [])
        assert [e.collided for e in (a, c, d)] == [e is not strongest or not captured
                                                  for e in (a, c, d)]
        outcomes.add(captured)
    assert outcomes == {False, True}


def test_capture_threshold_infinite_blocks_all(bundled_trace):
    cfg = sim.SimConfig(nodes=(sim.NodeSpec(source="A", strategy=sim.FixedStrategy(869.0)),
                               sim.NodeSpec(source="B", strategy=sim.FixedStrategy(869.0))),
                        rng_seed=5, capture_threshold_db=1e9)
    report = sim.run(cfg, bundled_trace)
    assert all(r.delivered == 0 for r in report.rows)


def test_hops_counted_for_random_strategy(bundled_trace):
    cfg = sim.SimConfig(nodes=(sim.NodeSpec(source="A", strategy=sim.RandomHopStrategy()),),
                        rng_seed=1)
    report = sim.run(cfg, bundled_trace)
    assert sum(r.hops for r in report.rows) > 0


@pytest.mark.parametrize("seed", [0, 5, 2**40 + 3])
def test_random_hop_choices_are_one_draw_per_slot(bundled_trace, seed):
    """The choices, drawn `_DRAWS_PER_CALL` at a time, are the node generator's stream of
    one `integers(0, F)` call per slot, across chunk boundaries."""
    strategy = sim.RandomHopStrategy()
    config = sim.SimConfig(nodes=(sim.NodeSpec(source="A", strategy=strategy),), rng_seed=seed)
    n_slots = 2 * sim._DRAWS_PER_CALL + 5
    for nf in range(1, 10):
        freqs = [868.0 + k for k in range(nf)]
        for index in (0, 2):
            node = sim._NodeState(config.nodes[0], config, bundled_trace, nf, index)
            rng = np.random.default_rng([seed, 0x50, index])
            assert ([strategy.choose(node, freqs) for _ in range(n_slots)]
                    == [int(rng.integers(0, nf)) for _ in range(n_slots)])


def _spy_on_windows(monkeypatch):
    """The (ts, num_freqs) of each `TelemetryWindow` the simulator builds, in order."""
    built, window = [], sim.TelemetryWindow

    def spy(ts, num_freqs):
        built.append((ts, num_freqs))
        return window(ts, num_freqs)

    monkeypatch.setattr(sim, "TelemetryWindow", spy)
    return built


def test_each_predictor_node_reads_as_many_slots_as_its_model(bundled_trace, monkeypatch):
    built = _spy_on_windows(monkeypatch)
    models = [predictor.init_model(telemetry.TelemetryWindow.feature_dim(ts, 3), 3, seed=ts)
              for ts in (4, 8)]
    config = sim.SimConfig(nodes=tuple(
        sim.NodeSpec(source=src, strategy=sim.PredictorHopStrategy(model))
        for src, model in zip("AB", models)), packets_per_size=10, rng_seed=1)
    report = sim.run(config, bundled_trace)
    assert built == [(4, 3), (8, 3)]
    assert [(r.node, r.sent) for r in report.rows] == [(src, 10) for src in "AB" for _ in range(6)]


def test_nodes_whose_strategy_reads_no_window_build_none(bundled_trace, monkeypatch):
    built = _spy_on_windows(monkeypatch)
    config = sim.SimConfig(nodes=(
        sim.NodeSpec(source="A", strategy=sim.FixedStrategy(869.0)),
        sim.NodeSpec(source="B", strategy=sim.RandomHopStrategy()),
        sim.NodeSpec(source="C", strategy=sim.SensingHopStrategy())), packets_per_size=10)
    report = sim.run(config, bundled_trace)
    assert built == []
    assert sum(r.hops for r in report.rows if r.node == "C") > 0   # sensing still hops


def test_sensing_strategy_avoids_busy_channel(bundled_trace):
    node = type("N", (), {})()
    node.last_avail = np.array([2.0, 0.0, 1.0])
    strat = sim.SensingHopStrategy()
    assert strat.choose(node, [868.0, 869.0, 870.0]) == 1


def test_strategy_tables_name_an_empty_table():
    with pytest.raises(ValueError, match="empty comparison table"):
        sim.strategy_tables(b"")


def test_report_json_shape(bundled_trace):
    report = sim.run(fixed_config(), bundled_trace)
    doc = json.loads(report_json(report))
    assert set(doc) == {"rows", "events"}
    assert len(doc["rows"]) == 6
    assert len(doc["events"]) == 300
    assert {"slot", "node", "gateway", "freq_mhz", "size", "rssi", "snr",
            "delivered", "collided", "hopped"} <= set(doc["events"][0])


# names the CSV must quote or json must escape, and link values json spells its own way
ODD_NAMES = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "Grüße ✓", "", " x "]
ODD_VALUES = [float("inf"), -float("inf"), float("nan"), -0.0, 1e-7, -45.1234565, 1e16]


def _all_flags_report(report):
    """`report` with every (delivered, collided, hopped) combination on every node and
    carrier, the carriers NaN, 0.0 and -0.0 among them."""
    events, k = report.events.copy(), np.arange(len(report.events))
    events.node, events.freq_mhz = k % 3, k // 3 % 6
    flags = k // 18 % 8
    events.delivered, events.collided, events.hopped = flags >> 2, flags >> 1 & 1, flags & 1
    return sim.SimReport(rows=report.rows, events=events, sources=["A", "B", "C"],
                         freqs=[float("nan"), 0.0, -0.0, *report.freqs])


def _odd_report(report):
    """`report` with its events' nodes renamed in turn with `ODD_NAMES`, their RSSI and SNR
    re-valued with `ODD_VALUES`, and three in five moved to a carrier of NaN, 0.0 or -0.0."""
    events, k = report.events.copy(), np.arange(len(report.events))
    events.node = k % len(ODD_NAMES)
    events.freq_mhz = np.where(k % 5 < 3, k % 5, 3 + events.freq_mhz)
    events.rssi, events.snr = np.take(ODD_VALUES, [k, k + 2], mode="wrap")
    return sim.SimReport(rows=report.rows, events=events, sources=ODD_NAMES,
                         freqs=[float("nan"), 0.0, -0.0, *report.freqs])


@pytest.mark.parametrize("case", ["contended", "odd names and values", "every flag combination",
                                  "no payload sizes"])
def test_write_is_byte_equal_to_the_whole_document_writers(bundled_trace, monkeypatch, case):
    nodes = tuple(sim.NodeSpec(source=src, strategy=strategy) for src, strategy in zip(
        "ABC", (sim.FixedStrategy(869.0), sim.FixedStrategy(869.0), sim.RandomHopStrategy())))
    config = sim.SimConfig(nodes=nodes, packets_per_size=10, rng_seed=2,
                           payload_schedule=() if case == "no payload sizes"
                           else trace.DEFAULT_PAYLOAD_SCHEDULE)
    report = sim.run(config, bundled_trace)
    if case == "odd names and values":
        report = _odd_report(report)
    if case == "every flag combination":
        report = _all_flags_report(report)
        keys = {(e.node, e.freq_mhz, e.delivered, e.collided, e.hopped) for e in report.events}
        assert len(keys) == 3 * 6 * 8
    for block in (sim._WRITE_BLOCK, 7):   # 180 events in one block, or in 26 ending in 5
        doc, events, doc_only = io.StringIO(), io.StringIO(newline=""), io.StringIO()
        with monkeypatch.context() as m:
            m.setattr(sim, "_WRITE_BLOCK", block)
            report.write(doc, events)
            report.write(doc_only)
        assert doc.getvalue() == doc_only.getvalue() == report_to_json(report)
        assert events.getvalue() == events_csv(report)


@pytest.mark.parametrize("placement", ["end_node", "gateway"])
def test_rows_are_the_grouped_means_of_the_events(bundled_trace, placement):
    model = predictor.init_model(telemetry.TelemetryWindow.feature_dim(4, 3), 3, seed=1)
    strategies = (sim.PredictorHopStrategy(model), sim.SensingHopStrategy(),
                  sim.RandomHopStrategy())
    config = sim.SimConfig(nodes=tuple(sim.NodeSpec(source=src, strategy=strategy)
                                       for src, strategy in zip("ABC", strategies)),
                           packets_per_size=20, rng_seed=4, predictor_placement=placement)
    report = sim.run(config, bundled_trace)
    assert sum(r.collisions for r in report.rows) > 0
    assert report.rows == rows_by_grouping(report, config)


@pytest.mark.parametrize("placement", ["end_node", "gateway"])
@pytest.mark.parametrize("threshold", [0.0, 1.0, 6.0, float("inf")])
def test_run_matches_the_reference_slot_loop(bundled_trace, placement, threshold):
    # the bench's three strategies on shared channels, with the widest RSSI jitter a config
    # takes: the sources' links come within 6 dB of each other and often clamp at 0 dBm,
    # where the strongest ties and node order decides.  At 0 dB every shared channel keeps
    # its strongest, at inf none does, and at 1 and 6 dB some do
    model = predictor.init_model(telemetry.TelemetryWindow.feature_dim(4, 3), 3, seed=2)
    strategies = (sim.PredictorHopStrategy(model), sim.SensingHopStrategy(),
                  sim.RandomHopStrategy())
    config = sim.SimConfig(nodes=tuple(sim.NodeSpec(source=src, strategy=strategy)
                                       for src, strategy in zip("ABC", strategies)),
                           packets_per_size=30, rng_seed=3, capture_threshold_db=threshold,
                           rssi_jitter_db=100.0, predictor_placement=placement)
    report = sim.run(config, bundled_trace)
    events = events_by_slot_loop(config, bundled_trace)
    assert report.events.tolist() == events
    reference = sim.SimReport(rows=[], events=np.rec.array(events, dtype=sim.EVENT_DTYPE),
                              sources=report.sources, freqs=report.freqs)
    assert report.rows == rows_by_grouping(reference, config)
    shared = {}
    for slot, _, f_idx, _, _, _, _, collided, _ in events:
        shared.setdefault((slot, f_idx), []).append(collided)
    all_lost = {all(group) for group in shared.values() if len(group) > 1}
    assert all_lost == {0.0: {False}, float("inf"): {True}}.get(threshold, {False, True})


def test_write_peak_memory_stays_under_a_megabyte_for_36000_events():
    # the bench's contended run: the whole-document writers peak at about 24 MB
    rng = np.random.default_rng(0)
    k = np.arange(36_000)
    events = np.rec.fromarrays([k // 3 + 1, k % 3, k % 3, np.full_like(k, 30),
                                *(-60.0 + 10.0 * rng.normal(size=(2, 36_000))),
                                k % 4 != 0, k % 4 == 0, k % 7 == 0], dtype=sim.EVENT_DTYPE)
    report = sim.SimReport(rows=[], events=events, sources=["A", "B", "C"],
                           freqs=[868.0, 869.0, 870.0])
    with open(os.devnull, "w") as fh, open(os.devnull, "w", newline="") as events_fh:
        tracemalloc.start()
        try:
            report.write(fh, events_fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_compare_strategies_formulas():
    rows_a = [sim.ReportRow(node="A", size=30, strategy="predictor_hop", sent=50,
                            delivered=50, collisions=0, hops=0, mean_rssi=-40.0,
                            mean_snr=9.4, mean_rssi_all=-40.0, mean_snr_all=9.4)]
    rows_b = [sim.ReportRow(node="A", size=30, strategy="random_hop", sent=50,
                            delivered=40, collisions=0, hops=10, mean_rssi=-100.0,
                            mean_snr=6.5, mean_rssi_all=-108.0, mean_snr_all=6.5)]
    table = sim.compare_strategies(*(sim.SimReport(rows=rows, events=None, sources=["A"],
                                                   freqs=[]) for rows in (rows_a, rows_b)))
    improvement = {metric: impr for _, metric, _, _, impr in table}
    assert improvement["rssi"] == pytest.approx(63.0, abs=0.05)
    assert improvement["snr"] == pytest.approx(44.6, abs=0.05)
    assert improvement["pdr"] == pytest.approx(0.2)


@pytest.mark.parametrize("field,value", [
    ("packets_per_size", 2.0), ("packets_per_size", True), ("rng_seed", "1"),
    ("rng_seed", 2.5), ("payload_schedule", (30, 74.0)), ("payload_schedule", (False,)),
    ("capture_threshold_db", "x"), ("rssi_jitter_db", None), ("snr_jitter_db", True)])
def test_sim_config_rejects_mistyped_fields(field, value):
    with pytest.raises(TypeError):
        sim.SimConfig(nodes=(), **{field: value})


@pytest.mark.parametrize("field,value", [
    ("rssi_jitter_db", float("nan")), ("snr_jitter_db", float("inf")), ("rssi_jitter_db", -0.5),
    ("capture_threshold_db", float("nan")), ("rssi_jitter_db", 1e308), ("snr_jitter_db", 100.5)])
def test_sim_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError):
        sim.SimConfig(nodes=(), **{field: value})


def test_sim_config_accepts_numpy_numbers_and_infinite_threshold():
    config = fixed_config(freq=np.float32(869.0), seed=np.int64(3),
                          capture_threshold_db=float("inf"), rssi_jitter_db=np.float32(0.5),
                          payload_schedule=(np.int32(30),))
    assert config.capture_threshold_db == float("inf")
    assert config.nodes[0].strategy.freq_mhz == sim.FixedStrategy(869).freq_mhz == 869.0
