import json

import numpy as np
import pytest

from lorahop import sim, trace
from oracle import report_row


def fixed_config(source="A", freq=869.0, seed=0, **kw):
    return sim.SimConfig(nodes=(sim.NodeSpec(source=source,
                                             strategy=sim.FixedStrategy(freq)),),
                         rng_seed=seed, **kw)


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
    assert a.to_json() == b.to_json()
    c = sim.run(sim.SimConfig(nodes=cfg.nodes, rng_seed=43), bundled_trace)
    assert a.to_json() != c.to_json()


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


def test_sensing_strategy_avoids_busy_channel(bundled_trace):
    node = type("N", (), {})()
    node.last_avail = np.array([2.0, 0.0, 1.0])
    node.current_freq_idx = 0
    strat = sim.SensingHopStrategy()
    assert strat.choose(node, [868.0, 869.0, 870.0]) == 1


def test_strategy_tables_name_an_empty_table():
    with pytest.raises(ValueError, match="empty comparison table"):
        sim.strategy_tables(b"")


def test_report_json_shape(bundled_trace):
    report = sim.run(fixed_config(), bundled_trace)
    doc = json.loads(report.to_json())
    assert set(doc) == {"rows", "events"}
    assert len(doc["rows"]) == 6
    assert len(doc["events"]) == 300
    assert {"slot", "node", "gateway", "freq_mhz", "size", "rssi", "snr",
            "delivered", "collided", "hopped"} <= set(doc["events"][0])


def test_compare_strategies_formulas():
    rows_a = [sim.ReportRow(node="A", size=30, strategy="predictor_hop", sent=50,
                            delivered=50, collisions=0, hops=0, mean_rssi=-40.0,
                            mean_snr=9.4, mean_rssi_all=-40.0, mean_snr_all=9.4)]
    rows_b = [sim.ReportRow(node="A", size=30, strategy="random_hop", sent=50,
                            delivered=40, collisions=0, hops=10, mean_rssi=-100.0,
                            mean_snr=6.5, mean_rssi_all=-108.0, mean_snr_all=6.5)]
    table = sim.compare_strategies(sim.SimReport(rows=rows_a, events=[]),
                                   sim.SimReport(rows=rows_b, events=[]))
    improvement = {metric: impr for _, metric, _, _, impr in table}
    assert improvement["rssi"] == pytest.approx(63.0, abs=0.05)
    assert improvement["snr"] == pytest.approx(44.6, abs=0.05)
    assert improvement["pdr"] == pytest.approx(0.2)


@pytest.mark.parametrize("field,value", [
    ("packets_per_size", 2.0), ("packets_per_size", True), ("rng_seed", "1"),
    ("window_slots", 2.5), ("payload_schedule", (30, 74.0)), ("payload_schedule", (False,)),
    ("capture_threshold_db", "x"), ("rssi_jitter_db", None), ("snr_jitter_db", True)])
def test_sim_config_rejects_mistyped_fields(field, value):
    with pytest.raises(TypeError):
        sim.SimConfig(nodes=(), **{field: value})


@pytest.mark.parametrize("field,value", [
    ("rssi_jitter_db", float("nan")), ("snr_jitter_db", float("inf")), ("rssi_jitter_db", -0.5),
    ("capture_threshold_db", float("nan"))])
def test_sim_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError):
        sim.SimConfig(nodes=(), **{field: value})


def test_sim_config_accepts_numpy_numbers_and_infinite_threshold():
    config = fixed_config(seed=np.int64(3), capture_threshold_db=float("inf"),
                          rssi_jitter_db=np.float32(0.5), payload_schedule=(np.int32(30),))
    assert config.capture_threshold_db == float("inf")
