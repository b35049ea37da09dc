import argparse
import copy
import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lorahop import cli, core, optimizer, pipeline, predictor, recommender, sim, trace
from lorahop.core import Scenario
from oracle import enumerate_oracle, parse_c_array
from pins import PINNED, run_row

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "lorahop" / "data" / "scenarios"


def run(argv):
    return cli.main(argv)


def test_optimize_trivial_scenario(tmp_path):
    out = tmp_path / "result.json"
    code = run(["optimize", "--scenario", str(SCENARIO_DIR / "tiny_single_node.json"),
                "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["objective_value"] == 0.0
    assert doc["proven_optimal"] is True
    assert Path(str(out) + ".manifest.json").is_file()


def test_optimize_matches_oracle(tmp_path):
    path = SCENARIO_DIR / "three_nodes_two_freqs.json"
    out = tmp_path / "result.json"
    assert run(["optimize", "--scenario", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    oracle = enumerate_oracle(Scenario.from_json(path.read_text()))
    assert doc["objective_value"] == pytest.approx(oracle.objective_value)


def test_optimize_malformed_scenario_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["optimize", "--scenario", str(bad), "--out", str(tmp_path / "o.json")]) == 2


def test_optimize_raises_on_an_invalid_solver_schedule(tmp_path, monkeypatch):
    solve = optimizer.solve_exact

    def broken(*args, **kwargs):
        result = solve(*args, **kwargs)
        result.schedule.s[result.schedule.x] += 1   # every active channel over-delivers
        return result

    monkeypatch.setattr(optimizer, "solve_exact", broken)
    out = tmp_path / "o.json"
    with pytest.raises(AssertionError, match="invalid schedule"):
        run(["optimize", "--scenario", str(SCENARIO_DIR / "three_nodes_two_freqs.json"),
             "--out", str(out)])
    assert not out.exists()


def test_optimize_infeasible_exit_1(tmp_path):
    doc = json.loads((SCENARIO_DIR / "tiny_single_node.json").read_text())
    doc["demand"] = [1000]
    bad = tmp_path / "infeasible.json"
    bad.write_text(json.dumps(doc))
    assert run(["optimize", "--scenario", str(bad), "--out", str(tmp_path / "o.json")]) == 1


def test_optimize_with_a_budget_below_the_positions_exits_1_at_once(tmp_path):
    """3 nodes x 10^6 slots on 3 carriers: the search state alone takes seconds to build."""
    path = _write_json(tmp_path / "long.json", {
        "num_nodes": 3, "num_gateways": 1, "frequencies": [867.1, 867.3, 867.5],
        "horizon": 10**6, "gateway_capacity": [3], "freq_capacity": [6, 6, 6],
        "min_symbols": 2, "demand": [6, 6, 6]})
    started = time.perf_counter()
    assert run(["optimize", "--scenario", path, "--budget", "10",
                "--out", str(tmp_path / "o.json")]) == 1
    assert time.perf_counter() - started < 1.0
    assert not (tmp_path / "o.json").exists()


def test_simulate_and_events(tmp_path):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({
        "nodes": [{"source": "A", "strategy": {"kind": "fixed", "freq": 869.0}}],
        "seed": 3,
    }))
    out = tmp_path / "report.json"
    events = tmp_path / "events.csv"
    assert run(["simulate", "--config", str(config), "--out", str(out),
                "--events", str(events)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["rows"]) == 6
    header = events.read_text().splitlines()[0]
    assert header == "slot,node,gateway,freq_mhz,size,rssi,snr,delivered,collided,hopped"


def test_simulate_unknown_strategy_exit_2(tmp_path):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({
        "nodes": [{"source": "A", "strategy": {"kind": "teleport"}}],
    }))
    assert run(["simulate", "--config", str(config), "--out", str(tmp_path / "o.json")]) == 2


def test_gen_dataset_and_train_and_export(tmp_path):
    dataset = tmp_path / "ds.json"
    assert run(["gen-dataset", "--rows", "300", "--seed", "1", "--out", str(dataset)]) == 0
    model = tmp_path / "model.fhop"
    assert run(["train", "--dataset", str(dataset), "--epochs", "3",
                "--seed", "1", "--out", str(model)]) == 0
    assert model.stat().st_size > 0
    curves = json.loads(Path(str(model) + ".train.json").read_text())
    assert len(curves["train_loss"]) == curves["stop_epoch"] == 3

    c_file = tmp_path / "model.h"
    assert run(["export", "--model", str(model), "--format", "c_array",
                "--out", str(c_file)]) == 0
    assert parse_c_array(c_file.read_text()) == model.read_bytes()


def test_recommend_generate_and_impute(tmp_path):
    matrix = tmp_path / "m.csv"
    assert run(["recommend", "generate", "--soils", "30", "--plants", "8",
                "--seed", "2", "--out", str(matrix)]) == 0
    from lorahop import recommender
    full = recommender.load_matrix_csv(matrix.read_bytes())
    sparse_path = tmp_path / "sparse.csv"
    recommender.save_matrix_csv(recommender.sparsify(full, 20, seed=2), sparse_path)
    filled = tmp_path / "filled.csv"
    assert run(["recommend", "impute", "--in", str(sparse_path), "--k", "5",
                "--out", str(filled)]) == 0
    import numpy as np
    assert not np.isnan(recommender.load_matrix_csv(filled.read_bytes())).any()


def test_recommend_study_and_figdata(tmp_path):
    report = tmp_path / "study.json"
    assert run(["recommend", "study", "--soils", "40", "--plants", "8",
                "--sparsities", "10,30", "--seeds", "1", "--k", "5",
                "--out", str(report)]) == 0
    fig_dir = tmp_path / "figs"
    assert run(["figdata", "--figure", "confusion", "--in", str(report),
                "--out-dir", str(fig_dir)]) == 0
    assert (fig_dir / "fig_confusion_sparsity10.csv").is_file()
    assert (fig_dir / "fig_rating_distribution.csv").is_file()


def test_figdata_model_sizes(tmp_path):
    fig_dir = tmp_path / "figs"
    assert run(["figdata", "--figure", "model-sizes", "--out-dir", str(fig_dir)]) == 0
    lines = (fig_dir / "fig_model_sizes.csv").read_text().splitlines()
    assert lines[0] == "channels,flat_bytes,c_array_bytes"
    sizes = [int(line.split(",")[1]) for line in lines[1:]]
    assert sizes == sorted(sizes) and len(sizes) == 8


def test_pipeline_small(tmp_path):
    out_dir = tmp_path / "pipe"
    assert run(["pipeline", "--out-dir", str(out_dir), "--rows", "200",
                "--epochs", "2", "--seed", "1"]) == 0
    assert (out_dir / "comparison.csv").is_file()
    assert (out_dir / "model_A.fhop").is_file()
    assert (out_dir / "report_predictor.json").is_file()


def test_figdata_strategy_comparison_splits_the_pipeline_table(tmp_path):
    out_dir, figs = tmp_path / "pipe", tmp_path / "figs"
    assert run(["pipeline", "--out-dir", str(out_dir), "--sources", "A", "--rows", "20",
                "--epochs", "1"]) == 0
    with open(out_dir / "comparison.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert run(["figdata", "--figure", "strategy-comparison", "--in",
                str(out_dir / "comparison.csv"), "--out-dir", str(figs)]) == 0
    for metric in ("rssi", "snr", "pdr"):
        with open(figs / f"fig_strategy_{metric}.csv", newline="") as fh:
            header, *got = csv.reader(fh)
        assert header == ["size", "random_hop", "predictor_hop"]
        assert got == [[r["size"], r["random_hop"], r["predictor_hop"]]
                       for r in rows if r["metric"] == metric]
        assert len(got) == 6


def test_pipeline_unknown_source_exit_2(tmp_path):
    assert run(["pipeline", "--out-dir", str(tmp_path / "p"), "--sources", "Z",
                "--rows", "10", "--epochs", "1"]) == 2


@pytest.mark.parametrize("bad", [["--rows", "20", "--epochs", "-1"], ["--rows", "0"],
                                 ["--rows", "20", "--epochs", "1", "--seed", "-1"]],
                         ids=["negative epochs", "no rows", "negative seed"])
def test_rejected_pipeline_input_leaves_no_output_directory(tmp_path, bad):
    out_dir = tmp_path / "pipe"
    assert run(["pipeline", "--out-dir", str(out_dir), "--sources", "A", *bad]) == 2
    assert not out_dir.exists()


def test_diverged_first_source_leaves_no_output_directory(tmp_path, monkeypatch):
    """Every source trains before any file is written: a failing training writes none."""
    def diverge(*args, **kwargs):
        raise FloatingPointError("loss diverged to NaN/inf; lower the learning rate")

    monkeypatch.setattr(predictor, "train", diverge)
    out_dir = tmp_path / "pipe"
    assert run(["pipeline", "--out-dir", str(out_dir), "--sources", "A", "--rows", "20",
                "--epochs", "1"]) == 1
    assert not out_dir.exists()


def test_pipeline_trains_every_source_in_one_train_call(tmp_path, monkeypatch, bundled_trace):
    """`run_pipeline` reaches `train` and `loss_and_grads` through the module attributes,
    so a wrapper of either (a tracer, the failing `train` above) sees every call."""
    trains, stacks = [], []
    real_train, real_loss_and_grads = predictor.train, predictor.loss_and_grads

    def train_spy(models, datasets, **kwargs):
        trains.append((list(models), list(datasets)))
        return real_train(models, datasets, **kwargs)

    def loss_and_grads_spy(params, x, labels, **kwargs):
        stacks.append(len(x))
        return real_loss_and_grads(params, x, labels, **kwargs)

    monkeypatch.setattr(predictor, "train", train_spy)
    monkeypatch.setattr(predictor, "loss_and_grads", loss_and_grads_spy)
    pipeline.run_pipeline(bundled_trace, tmp_path / "pipe", seed=0, sources=("A", "B", "C"),
                          rows=20, epochs=1)
    assert len(trains) == 1
    models, datasets = trains[0]
    assert len(models) == len(datasets) == 3
    assert [d.features.shape[0] for d in datasets] == [20] * 3
    # 12 training rows: one step of a 32-row batch, and one validation
    assert stacks == [3, 3]


def test_manifest_contents(tmp_path):
    dataset = tmp_path / "ds.json"
    run(["gen-dataset", "--rows", "20", "--seed", "9", "--out", str(dataset)])
    manifest = json.loads(Path(str(dataset) + ".manifest.json").read_text())
    assert manifest["command"] == "gen-dataset"
    assert manifest["seeds"] == [9]
    assert str(dataset) in manifest["outputs"]
    assert manifest["duration_s"] >= 0


def _write_json(path, doc):
    return _write_text(path, json.dumps(doc))


def _write_text(path, text):
    path.write_text(text)
    return str(path)


def _study_doc(sparsity_pct):
    """A study document of one sparsity, its confusion matrix the 5x5 identity."""
    identity = np.eye(5, dtype=int).tolist()
    return {"sparsities": [{"sparsity_pct": sparsity_pct, "confusion": identity}],
            "distribution": [1, 2, 3, 4, 5]}


def _scenario_doc():
    return json.loads((SCENARIO_DIR / "three_nodes_two_freqs.json").read_text())


def _optimize(d, *flags):
    return ["optimize", "--scenario", str(SCENARIO_DIR / "tiny_single_node.json"),
            "--out", str(d / "o.json"), *flags]


def _train(d, *flags):
    return ["train", "--out", str(d / "m.fhop"), *flags, "--dataset", _write_json(d / "ds.json", {
        "metadata": {"ts": 1, "F": 2, "normalization": "v1"},
        "rows": [{"features": [0.0, 1.0, 0.5, 0.5], "label": k % 2} for k in range(10)]})]


DEEP_JSON = "[" * 200_000 + "]" * 200_000   # deeper than the json parser recurses


def _long_field_trace(d):
    """A trace CSV file whose first row has a field longer than csv's 131,072-character limit."""
    return _write_text(d / "trace.csv", ",".join(trace.EXPECTED_HEADER)
                       + "\nA,868.1,30," + "9" * 131_073 + ",5.0,10,1.0\n")


def _inf_freq_trace(d):
    """A trace CSV file: the bundled trace with its 870.0 MHz rows at an infinite frequency."""
    return _write_text(d / "trace.csv", FUZZ_TRACE_CSV.decode().replace(",870.0,", ",inf,"))


def _far_rssi_trace(d):
    """A trace CSV file: the bundled trace with A's 868.0 MHz, 30-byte RSSI at -1e308 dBm."""
    return _write_text(d / "trace.csv", FUZZ_TRACE_CSV.decode().replace(
        "\nA,868.0,30,-90.1,", "\nA,868.0,30,-1e308,"))


def _sim(d, **keys):
    """`simulate` of one random_hop node on A, the config also setting `keys`."""
    return ["simulate", "--out", str(d / "o.json"), "--config", _write_json(d / "sim.json", {
        "nodes": [{"source": "A", "strategy": {"kind": "random_hop"}}], **keys})]


def _model_file(d, model):
    (d / "m.fhop").write_bytes(predictor.export_flat(model))
    return str(d / "m.fhop")


def _predictor_sim(d, model):
    """`simulate` of a config whose one node, on A, runs `model` as its predictor."""
    return _sim(d, nodes=[{"source": "A", "strategy": {"kind": "predictor_hop",
                                                       "model": _model_file(d, model)}}])


def _nan_weight_model():
    model = predictor.init_model(8 * (3 + 2), 3)   # 8 slots of 3 channels
    model.w1[0, 0] = np.nan
    return model


# Inputs that must be reported as input errors (exit 2), each given a scratch directory.
MALFORMED_INPUTS = {
    "missing predictor model file": lambda d: _sim(d, nodes=[
        {"source": "A", "strategy": {"kind": "predictor_hop", "model": str(d / "absent.fhop")}}]),
    "strategy is a string": lambda d: _sim(d, nodes=[{"source": "A", "strategy": "random_hop"}]),
    "sparsity 100": lambda d: [
        "recommend", "study", "--soils", "20", "--plants", "5", "--seeds", "1",
        "--sparsities", "100", "--out", str(d / "study.json")],
    "sparsity not a number": lambda d: [
        "recommend", "study", "--soils", "20", "--plants", "5", "--seeds", "1",
        "--sparsities", "abc", "--out", str(d / "study.json")],
    "study with 0 seeds": lambda d: [
        "recommend", "study", "--soils", "20", "--plants", "5", "--seeds", "0",
        "--out", str(d / "study.json")],
    "study with -2 seeds": lambda d: [
        "recommend", "study", "--soils", "20", "--plants", "5", "--seeds", "-2",
        "--out", str(d / "study.json")],
    "generate 0 soils": lambda d: [
        "recommend", "generate", "--soils", "0", "--plants", "5", "--out", str(d / "m.csv")],
    "generate 0 plants": lambda d: [
        "recommend", "generate", "--soils", "20", "--plants", "0", "--out", str(d / "m.csv")],
    "sparsity 10 twice": lambda d: [
        "recommend", "study", "--soils", "20", "--plants", "5", "--seeds", "1",
        "--sparsities", "10,10", "--out", str(d / "study.json")],
    "study report with sparsity 10 twice": lambda d: [
        "figdata", "--figure", "confusion", "--out-dir", str(d / "figs"), "--in", _write_json(
            d / "study.json", {**_study_doc(10), "sparsities": _study_doc(10)["sparsities"] * 2})],
    "scalar demand": lambda d: [
        "optimize", "--out", str(d / "o.json"),
        "--scenario", _write_json(d / "scenario.json", {**_scenario_doc(), "demand": 6})],
    "scenario is a list": lambda d: [
        "optimize", "--out", str(d / "o.json"),
        "--scenario", _write_json(d / "scenario.json", [_scenario_doc()])],
    "study report without sparsities": lambda d: [
        "figdata", "--figure", "confusion", "--out-dir", str(d / "figs"),
        "--in", _write_json(d / "study.json", {"distribution": [1, 2, 3, 4, 5]})],
    "out directory does not exist": lambda d: [
        "gen-dataset", "--rows", "5", "--out", str(d / "absent" / "ds.json")],
    "capture threshold is a string": lambda d: _sim(d, capture_threshold_db="x"),
    "empty matrix CSV": lambda d: [
        "recommend", "impute", "--in", _write_text(d / "m.csv", ""), "--out", str(d / "f.csv")],
    "study report with a null sparsity": lambda d: [
        "figdata", "--figure", "confusion", "--out-dir", str(d / "figs"),
        "--in", _write_json(d / "study.json", _study_doc(None))],
    "study report with a path as sparsity": lambda d: [
        "figdata", "--figure", "confusion", "--out-dir", str(d / "figs"),
        "--in", _write_json(d / "study.json", _study_doc("/../escaped"))],
    "negative dataset seed": lambda d: [
        "gen-dataset", "--rows", "5", "--seed", "-1", "--out", str(d / "ds.json")],
    "dataset window of 0 slots": lambda d: [
        "gen-dataset", "--rows", "5", "--ts", "0", "--out", str(d / "ds.json")],
    "dataset feature too large for a float": lambda d: [
        "train", "--out", str(d / "m.fhop"), "--dataset", _write_json(d / "ds.json", {
            "metadata": {"ts": 1, "F": 2, "normalization": "v1"},
            "rows": [{"features": [10**400, 0, 0, 0], "label": 0}]})],
    "dataset label too large for int64": lambda d: [
        "train", "--out", str(d / "m.fhop"), "--dataset", _write_json(d / "ds.json", {
            "metadata": {"ts": 0, "F": 10**30, "normalization": "v1"},
            "rows": [{"features": [], "label": 10**25}]})],
    "repeated payload size": lambda d: _sim(d, payload_schedule=[30, 30], packets_per_size=10),
    # a predictor node's window is as wide as its model's input: these fit no window
    "4-channel model on the 3-channel trace": lambda d: _predictor_sim(
        d, predictor.init_model(8 * (4 + 2), 4)),   # 8 slots of 4 channels
    "2-channel model on the 3-channel trace": lambda d: _predictor_sim(
        d, predictor.init_model(8 * (2 + 2), 2)),   # 8 slots of 2 channels
    "fixed carrier the trace lacks": lambda d: _sim(
        d, nodes=[{"source": "A", "strategy": {"kind": "fixed", "freq": 123.0}}]),
    "fixed carrier as a string": lambda d: _sim(
        d, nodes=[{"source": "A", "strategy": {"kind": "fixed", "freq": "868"}}]),
    "fixed carrier true": lambda d: _sim(
        d, nodes=[{"source": "A", "strategy": {"kind": "fixed", "freq": True}}]),
    "node source the trace lacks": lambda d: _sim(
        d, nodes=[{"source": "Z", "strategy": {"kind": "random_hop"}}]),
    "no nodes": lambda d: _sim(d, nodes=[]),
    "payload size past int64": lambda d: _sim(d, payload_schedule=[2**63]) + [
        "--trace", _write_text(d / "trace.csv",
                               FUZZ_TRACE_CSV.decode().replace(",30,", f",{2**63},"))],
    "model narrower than one slot": lambda d: _predictor_sim(d, predictor.init_model(3, 3)),
    "2-channel model 5 inputs wide": lambda d: _predictor_sim(d, predictor.init_model(5, 2)),
    "demand 2.7": lambda d: [
        "optimize", "--out", str(d / "o.json"), "--scenario",
        _write_json(d / "scenario.json", {**_scenario_doc(), "demand": [2.7, 4, 4]})],
    "freq_capacity 6.9": lambda d: [
        "optimize", "--out", str(d / "o.json"), "--scenario",
        _write_json(d / "scenario.json", {**_scenario_doc(), "freq_capacity": [6.9, 8]})],
    "gateway_capacity true": lambda d: [
        "optimize", "--out", str(d / "o.json"), "--scenario",
        _write_json(d / "scenario.json", {**_scenario_doc(), "gateway_capacity": True})],
    "min_symbols 1.5": lambda d: [
        "optimize", "--out", str(d / "o.json"), "--scenario",
        _write_json(d / "scenario.json", {**_scenario_doc(), "min_symbols": 1.5})],
    "jitter nan": lambda d: _sim(d, rssi_jitter_db=float("nan")),
    "capture threshold nan": lambda d: _sim(d, capture_threshold_db=float("nan")),
    "alpha nan": lambda d: _optimize(d, "--alpha", "nan"),
    "alpha inf": lambda d: _optimize(d, "--alpha", "inf"),
    "beta inf": lambda d: _optimize(d, "--beta", "inf"),
    "negative alpha": lambda d: _optimize(d, "--alpha", "-1"),
    "negative budget": lambda d: _optimize(d, "--budget", "-5"),
    "batch of -1": lambda d: _train(d, "--batch", "-1"),
    "batch of 0": lambda d: _train(d, "--batch", "0"),
    "negative epochs": lambda d: _train(d, "--epochs", "-3"),
    "negative learning rate": lambda d: _train(d, "--lr", "-1"),
    "learning rate nan": lambda d: _train(d, "--lr", "nan"),
    "learning rate inf": lambda d: _train(d, "--lr", "inf"),
    "l1 weight nan": lambda d: _train(d, "--l1", "nan"),
    "l1 weight inf": lambda d: _train(d, "--l1", "inf"),
    "negative l1 weight": lambda d: _train(d, "--l1", "-1"),
    "comparison table without its header": lambda d: [
        "figdata", "--figure", "strategy-comparison", "--out-dir", str(d / "figs"),
        "--in", _write_text(d / "comparison.csv", "30,rssi,-90.0,-80.0,11.1\n")],
    "empty comparison table": lambda d: [
        "figdata", "--figure", "strategy-comparison", "--out-dir", str(d / "figs"),
        "--in", _write_text(d / "comparison.csv", "")],
    "empty study report": lambda d: [
        "figdata", "--figure", "confusion", "--out-dir", str(d / "figs"),
        "--in", _write_text(d / "study.json", "")],
    "comparison table with a value that is not a number": lambda d: [
        "figdata", "--figure", "strategy-comparison", "--out-dir", str(d / "figs"),
        "--in", _write_text(d / "comparison.csv", ",".join(sim.COMPARISON_FIELDS)
                            + "\n30,rssi,-90.0,abc,11.1\n")],
    "comparison row of 4 fields": lambda d: [
        "figdata", "--figure", "strategy-comparison", "--out-dir", str(d / "figs"),
        "--in", _write_text(d / "comparison.csv", ",".join(sim.COMPARISON_FIELDS)
                            + "\n30,rssi,-90.0,-80.0\n")],
    "confusion matrix of text and a negative count": lambda d: [
        "figdata", "--figure", "confusion", "--out-dir", str(d / "figs"), "--in", _write_json(
            d / "study.json", {**_study_doc(10), "sparsities": [
                {"sparsity_pct": 10, "confusion": [["x"], ["y", -3]]}]})],
    "confusion matrix 5x5 with a negative count": lambda d: [
        "figdata", "--figure", "confusion", "--out-dir", str(d / "figs"), "--in", _write_json(
            d / "study.json", {**_study_doc(10), "sparsities": [
                {"sparsity_pct": 10, "confusion": (-np.eye(5, dtype=int)).tolist()}]})],
    "rating distribution as a string": lambda d: [
        "figdata", "--figure", "confusion", "--out-dir", str(d / "figs"),
        "--in", _write_json(d / "study.json", {**_study_doc(10), "distribution": "ab"})],
    "rating distribution of 4 counts": lambda d: [
        "figdata", "--figure", "confusion", "--out-dir", str(d / "figs"),
        "--in", _write_json(d / "study.json", {**_study_doc(10), "distribution": [1, 2, 3, 4]})],
    "pipeline with source A twice": lambda d: [
        "pipeline", "--out-dir", str(d / "pipe"), "--sources", "A,A", "--rows", "20",
        "--epochs", "1"],
    "pipeline with negative epochs": lambda d: [
        "pipeline", "--out-dir", str(d / "pipe"), "--sources", "A", "--rows", "20",
        "--epochs", "-1"],
    "scenario nested 200,000 deep": lambda d: [
        "optimize", "--out", str(d / "o.json"),
        "--scenario", _write_text(d / "scenario.json", DEEP_JSON)],
    "sim config nested 200,000 deep": lambda d: [
        "simulate", "--out", str(d / "o.json"),
        "--config", _write_text(d / "sim.json", DEEP_JSON)],
    "dataset nested 200,000 deep": lambda d: [
        "train", "--out", str(d / "m.fhop"), "--dataset", _write_text(d / "ds.json", DEEP_JSON)],
    "study report nested 200,000 deep": lambda d: [
        "figdata", "--figure", "confusion", "--out-dir", str(d / "figs"),
        "--in", _write_text(d / "study.json", DEEP_JSON)],
    "frequency of 400 digits": lambda d: [
        "optimize", "--out", str(d / "o.json"), "--scenario", _write_json(
            d / "scenario.json", {**_scenario_doc(), "frequencies": [10**400, 868.3]})],
    "rssi jitter of 400 digits": lambda d: _sim(d, rssi_jitter_db=10**400),
    "fixed frequency of 400 digits": lambda d: _sim(
        d, nodes=[{"source": "A", "strategy": {"kind": "fixed", "freq": 10**400}}]),
    "gen-dataset trace field over the csv size limit": lambda d: [
        "gen-dataset", "--rows", "5", "--out", str(d / "ds.json"), "--trace", _long_field_trace(d)],
    "simulate trace field over the csv size limit": lambda d: _sim(d) + [
        "--trace", _long_field_trace(d)],
    "pipeline trace field over the csv size limit": lambda d: [
        "pipeline", "--out-dir", str(d / "pipe"), "--rows", "20", "--epochs", "1",
        "--trace", _long_field_trace(d)],
    "comparison row with a misspelled metric": lambda d: [
        "figdata", "--figure", "strategy-comparison", "--out-dir", str(d / "figs"),
        "--in", _write_text(d / "comparison.csv", ",".join(sim.COMPARISON_FIELDS)
                            + "\n30,rsi,-90.0,-80.0,11.1\n")],
    "misspelled sim config key": lambda d: _sim(d, packets_per_sise=5),
    "sim config with window_slots": lambda d: _sim(d, window_slots=4),
    "jitter of 1e308": lambda d: _sim(d, rssi_jitter_db=1e308, snr_jitter_db=1e308),
    "simulate a model with a NaN weight": lambda d: _predictor_sim(d, _nan_weight_model()),
    "export a model with a NaN weight": lambda d: [
        "export", "--model", _model_file(d, _nan_weight_model()), "--out", str(d / "m.h")],
    "simulate trace frequency inf": lambda d: _sim(d) + ["--trace", _inf_freq_trace(d)],
    "gen-dataset trace frequency inf": lambda d: [
        "gen-dataset", "--rows", "5", "--out", str(d / "ds.json"), "--trace", _inf_freq_trace(d)],
    "simulate trace RSSI of -1e308 dBm": lambda d: _sim(d) + ["--trace", _far_rssi_trace(d)],
    "gen-dataset trace RSSI of -1e308 dBm": lambda d: [
        "gen-dataset", "--rows", "5", "--out", str(d / "ds.json"), "--trace", _far_rssi_trace(d)],
    "dataset normalised as v2": lambda d: [
        "train", "--out", str(d / "m.fhop"), "--dataset", _write_json(d / "ds.json", {
            **FUZZ_DATASET, "metadata": {"ts": 1, "F": 3, "normalization": "v2"}})],
    "comparison table field over the csv size limit": lambda d: [
        "figdata", "--figure", "strategy-comparison", "--out-dir", str(d / "figs"),
        "--in", _write_text(d / "comparison.csv", ",".join(sim.COMPARISON_FIELDS)
                            + "\n30,rssi,-90.0,-80.0," + "1" * 131_073 + "\n")],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_2(tmp_path, capsys, case):
    """One `error:` line, and no file written: the case's own inputs are all there is."""
    argv = MALFORMED_INPUTS[case](tmp_path)
    inputs = set(tmp_path.rglob("*"))
    assert run(argv) == 2
    assert sum("error:" in line for line in capsys.readouterr().err.splitlines()) == 1
    assert set(tmp_path.rglob("*")) == inputs


@pytest.mark.parametrize("case", ["4-channel model on the 3-channel trace",
                                  "model narrower than one slot", "2-channel model 5 inputs wide"])
def test_a_model_that_fits_no_window_writes_no_report(tmp_path, case):
    assert run(MALFORMED_INPUTS[case](tmp_path)) == 2
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("case, message", [
    ("fixed carrier the trace lacks", "fixed carrier 123.0 MHz is not in the trace, "
                                      "whose carriers are [868.0, 869.0, 870.0]"),
    ("2-channel model on the 3-channel trace",
     "predictor model chooses among 2 channels, the trace has 3"),
    ("4-channel model on the 3-channel trace",
     "predictor model chooses among 4 channels, the trace has 3"),
    ("node source the trace lacks",
     "node source 'Z' is not in the trace, whose sources are ['A', 'B', 'C']")])
def test_a_strategy_the_trace_cannot_run_is_named(tmp_path, capsys, case, message):
    assert run(MALFORMED_INPUTS[case](tmp_path)) == 2
    assert capsys.readouterr().err == f"error: ValueError: {message}\n"


@pytest.mark.parametrize("figure", ["strategy-comparison", "confusion"])
def test_figdata_reports_an_empty_input_file_as_its_fault(tmp_path, capsys, figure):
    """An empty --in was given: the table's parser names the fault, not a missing option."""
    assert run(["figdata", "--figure", figure, "--out-dir", str(tmp_path / "figs"),
                "--in", _write_text(tmp_path / "in", "")]) == 2
    assert "needs --in" not in capsys.readouterr().err


def test_rejected_figdata_input_leaves_no_output_directory(tmp_path):
    figs = tmp_path / "figs"
    assert run(["figdata", "--figure", "confusion", "--out-dir", str(figs),
                "--in", _write_json(tmp_path / "study.json", _study_doc(None))]) == 2
    assert not figs.exists()


def _strict_json(path):
    """The JSON document at `path`; a bare NaN or Infinity, which strict parsers reject, fails."""
    def reject(name):
        raise ValueError(f"{path} holds a bare {name}")
    return json.loads(Path(path).read_text(), parse_constant=reject)


@pytest.mark.parametrize("rows", [4, 5])
def test_train_curves_are_strict_json_on_tiny_datasets(tmp_path, rows):
    """Under 5 rows there is no validation or test split: its figures are written as null."""
    dataset, model = tmp_path / "ds.json", tmp_path / "m.fhop"
    assert run(["gen-dataset", "--rows", str(rows), "--seed", "1", "--out", str(dataset)]) == 0
    assert run(["train", "--dataset", str(dataset), "--epochs", "2", "--out", str(model)]) == 0
    curves = _strict_json(f"{model}.train.json")
    missing = rows < 5
    assert curves["split_sizes"] == ([4, 0, 0] if missing else [3, 1, 1])
    assert (curves["test_accuracy"] is None) == missing
    for name in ("val_loss", "val_accuracy"):
        assert len(curves[name]) == 2
        assert all((v is None) == missing for v in curves[name])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_study_accuracy_is_strict_json_when_no_cell_is_removed(tmp_path):
    """Sparsities 0 and 10 remove none of 6 cells: nothing is scored, so accuracy is null."""
    out = tmp_path / "study.json"
    assert run(["recommend", "study", "--soils", "3", "--plants", "2", "--seeds", "2",
                "--sparsities", "0,10,50", "--out", str(out)]) == 0
    entries = _strict_json(out)["sparsities"]
    for entry in entries[:2]:
        assert entry["mean_accuracy"] is None and entry["per_seed_accuracy"] == [None, None]
    assert all(isinstance(acc, float) for acc in entries[2]["per_seed_accuracy"])
    assert entries[2]["mean_accuracy"] == np.mean(entries[2]["per_seed_accuracy"])


@pytest.mark.filterwarnings("error::RuntimeWarning")   # divergence is caught before overflow
def test_train_exit_codes(tmp_path):
    dataset = tmp_path / "ds.json"
    assert run(["gen-dataset", "--rows", "50", "--seed", "1", "--out", str(dataset)]) == 0
    # finite data with an absurd step size diverges: a domain failure
    assert run(["train", "--dataset", str(dataset), "--epochs", "3", "--lr", "1e300",
                "--out", str(tmp_path / "m.fhop")]) == 1
    # a non-finite feature is an input error
    doc = json.loads(dataset.read_text())
    doc["rows"][0]["features"][0] = float("nan")
    nan_dataset = _write_json(tmp_path / "nan.json", doc)
    assert run(["train", "--dataset", nan_dataset, "--epochs", "3",
                "--out", str(tmp_path / "m.fhop")]) == 2


FUZZ_VALUES = (None, True, -1, 0, 2.5, "x", [], [1], {})
FUZZ_SIM_CONFIG = {
    "nodes": [{"source": "A", "strategy": {"kind": "fixed", "freq": 869.0}},
              {"source": "B", "strategy": {"kind": "sensing_hop"}}],
    "payload_schedule": [30, 74], "packets_per_size": 5, "seed": 1,
    "capture_threshold_db": 6.0, "rssi_jitter_db": 1.0, "snr_jitter_db": 0.5,
    "predictor_placement": "end_node",
}


def _containers(doc):
    """Every dict and list inside doc, doc included."""
    found = [doc]
    children = doc.values() if isinstance(doc, dict) else doc
    for child in children:
        if isinstance(child, (dict, list)):
            found += _containers(child)
    return found


@st.composite
def mutated(draw, doc):
    """doc after one to three drops or replacements of a field or an element."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from(_containers(doc)))
        if not target:
            continue
        key = draw(st.sampled_from(sorted(target) if isinstance(target, dict)
                                   else range(len(target))))
        if draw(st.booleans()):
            del target[key]
        else:
            target[key] = copy.deepcopy(draw(st.sampled_from(FUZZ_VALUES)))
    return doc


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scenario=mutated(_scenario_doc()), config=mutated(FUZZ_SIM_CONFIG))
def test_fuzzed_inputs_keep_the_exit_code_contract(tmp_path, scenario, config):
    """Exit 0, 1 or 2, and exit 0 only with valid outputs: strict JSON, and a schedule
    that passes `core.validate` against the scenario file as written."""
    scenario_path = _write_json(tmp_path / "scenario.json", scenario)
    optimized = run(["optimize", "--budget", "2000", "--out", str(tmp_path / "o.json"),
                     "--scenario", scenario_path])
    simulated = run(["simulate", "--out", str(tmp_path / "r.json"),
                     "--events", str(tmp_path / "e.csv"),
                     "--config", _write_json(tmp_path / "sim.json", config)])
    assert {optimized, simulated} <= {0, 1, 2}
    if optimized == 0:
        doc = _strict_json(tmp_path / "o.json")
        _strict_json(tmp_path / "o.json.manifest.json")
        x = np.asarray(doc["x"], dtype=bool)
        schedule = core.Schedule(x=x, s=np.asarray(doc["s"], dtype=np.int64),
                                 z=np.asarray(doc["z"], dtype=bool),
                                 delta=core.collision_triggers_from_x(x))
        assert core.validate(Scenario.from_json(Path(scenario_path).read_text()), schedule) == []
    if simulated == 0:
        _strict_json(tmp_path / "r.json")
        _strict_json(tmp_path / "r.json.manifest.json")


def test_events_csv_and_report_share_rounded_link_values(tmp_path):
    config = _write_json(tmp_path / "sim.json", {
        "nodes": [{"source": "A", "strategy": {"kind": "fixed", "freq": 869.0}},
                  {"source": "B", "strategy": {"kind": "fixed", "freq": 869.0}},
                  {"source": "C", "strategy": {"kind": "random_hop"}}],
        "packets_per_size": 10, "seed": 2})
    out, events = tmp_path / "report.json", tmp_path / "events.csv"
    assert run(["simulate", "--config", config, "--out", str(out),
                "--events", str(events)]) == 0
    report_events = json.loads(out.read_text())["events"]
    with open(events, newline="") as fh:
        csv_rows = list(csv.DictReader(fh))
    assert any(e["collided"] for e in report_events)
    assert len(csv_rows) == len(report_events) == 3 * 6 * 10
    for row, event in zip(csv_rows, report_events):
        rssi, snr = float(row["rssi"]), float(row["snr"])
        assert (rssi, snr) == (event["rssi"], event["snr"])
        assert (rssi, snr) == (round(rssi, 6), round(snr, 6))


def test_empty_payload_schedule_still_writes_events_header(tmp_path):
    config = _write_json(tmp_path / "sim.json", {
        "nodes": [{"source": "A", "strategy": {"kind": "random_hop"}}], "payload_schedule": []})
    events = tmp_path / "events.csv"
    assert run(["simulate", "--config", config, "--out", str(tmp_path / "report.json"),
                "--events", str(events)]) == 0
    assert events.read_text().splitlines() == [
        "slot,node,gateway,freq_mhz,size,rssi,snr,delivered,collided,hopped"]


def test_sim_config_document_takes_sim_config_defaults():
    nodes = [{"source": "A", "strategy": {"kind": "random_hop"}}]
    no_model = None   # the documents name no model file, so nothing is read
    bare = sim.SimConfig.from_json(json.dumps({"nodes": nodes}), no_model)
    assert bare == sim.SimConfig(nodes=bare.nodes)
    full = sim.SimConfig.from_json(json.dumps({
        "nodes": nodes, "payload_schedule": [74, 30], "packets_per_size": 3, "seed": 9,
        "capture_threshold_db": 2.5, "rssi_jitter_db": 0.0, "snr_jitter_db": 2.0,
        "predictor_placement": "gateway"}), no_model)
    assert full == sim.SimConfig(
        nodes=full.nodes, payload_schedule=(74, 30), packets_per_size=3, rng_seed=9,
        capture_threshold_db=2.5, rssi_jitter_db=0.0, snr_jitter_db=2.0,
        predictor_placement="gateway")
    with pytest.raises(ValueError, match=r"\['packets_per_sise', 'window_slots'\]"):
        sim.SimConfig.from_json(json.dumps(
            {"nodes": nodes, "packets_per_sise": 5, "window_slots": 3}), no_model)


def test_in_place_impute_records_the_input_digest(tmp_path):
    from lorahop import recommender
    full = recommender.synthetic_ratings(12, 5, seed=1)
    sparse = tmp_path / "sparse.csv"
    recommender.save_matrix_csv(recommender.sparsify(full, 30, seed=1), sparse)
    in_place = tmp_path / "in_place.csv"
    in_place.write_bytes(sparse.read_bytes())
    filled = tmp_path / "filled.csv"
    assert run(["recommend", "impute", "--in", str(sparse), "--k", "3", "--out", str(filled)]) == 0
    assert run(["recommend", "impute", "--in", str(in_place), "--k", "3",
                "--out", str(in_place)]) == 0
    assert in_place.read_bytes() == filled.read_bytes() != sparse.read_bytes()
    digests = [json.loads(Path(f"{p}.manifest.json").read_text())["config_digest"]
               for p in (filled, in_place)]
    assert digests[0] == digests[1]


# ts 1 over 3 channels: 5 features per row (3 availabilities, RSSI, SNR)
FUZZ_DATASET = {
    "metadata": {"ts": 1, "F": 3, "normalization": "v1"},
    "rows": [{"features": [float(k == c), float(k == (c + 1) % 3), 0.0, 0.6, 0.8], "label": c}
             for k, c in enumerate([0, 1, 2, 1, 0, 2])],
}
FUZZ_MODEL = predictor.export_flat(predictor.init_model(5, 3, seed=0))
FUZZ_STUDY = {
    "sparsities": [{"sparsity_pct": 10, "confusion": np.diag([1, 2, 3, 4, 5]).tolist()}],
    "distribution": [1, 2, 3, 4, 5],
}


@st.composite
def mutated_bytes(draw, blob):
    """blob after one to three cuts, byte replacements or insertions."""
    blob = bytearray(blob)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(blob)))
        action = draw(st.sampled_from(["cut", "replace", "insert"]))
        if action == "cut":
            del blob[at:]
        elif action == "replace" and at < len(blob):
            blob[at] = draw(st.integers(0, 255))
        else:
            blob[at:at] = draw(st.binary(min_size=1, max_size=8))
    return bytes(blob)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dataset=mutated(FUZZ_DATASET), model=mutated_bytes(FUZZ_MODEL),
       study=mutated(FUZZ_STUDY), export_format=st.sampled_from(["c_array", "flat"]))
def test_fuzzed_datasets_models_and_reports_keep_the_exit_code_contract(
        tmp_path, dataset, model, study, export_format):
    model_path = tmp_path / "m.fhop"
    model_path.write_bytes(model)
    sim_config = _write_json(tmp_path / "sim.json", {
        "nodes": [{"source": "A", "strategy": {"kind": "predictor_hop", "model": str(model_path)}}],
        "payload_schedule": [30], "packets_per_size": 4})
    codes = [
        run(["train", "--epochs", "1", "--out", str(tmp_path / "t.fhop"),
             "--dataset", _write_json(tmp_path / "ds.json", dataset)]),
        run(["export", "--model", str(model_path), "--format", export_format,
             "--out", str(tmp_path / "m.out")]),
        run(["simulate", "--config", sim_config, "--out", str(tmp_path / "r.json")]),
        run(["figdata", "--figure", "confusion", "--out-dir", str(tmp_path / "figs"),
             "--in", _write_json(tmp_path / "study.json", study)]),
    ]
    assert set(codes) <= {0, 1, 2}
    # a dataset cut below 5 rows has no validation or test split
    json_outputs = [["t.fhop.train.json", "t.fhop.manifest.json"], ["m.out.manifest.json"],
                    ["r.json", "r.json.manifest.json"], ["figs/figdata_confusion.manifest.json"]]
    for code, names in zip(codes, json_outputs):
        for name in names if code == 0 else ():
            _strict_json(tmp_path / name)


FUZZ_MATRIX_CSV = b"3,,5,1\n,2,2,\n4,4,,1\n1,,5,\n5,3,,2\n"


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(matrix=mutated_bytes(FUZZ_MATRIX_CSV), missing_as_zero=st.booleans())
def test_fuzzed_matrix_csvs_keep_the_exit_code_contract(tmp_path, matrix, missing_as_zero):
    path = tmp_path / "m.csv"
    path.write_bytes(matrix)
    argv = ["recommend", "impute", "--in", str(path), "--k", "3", "--out", str(tmp_path / "f.csv")]
    assert run(argv + ["--missing-as-zero"] * missing_as_zero) in {0, 1, 2}


FUZZ_TRACE_CSV = Path(trace.bundled_trace_path()).read_bytes()
# values that are empty, non-numeric, non-finite, out of range or of the wrong column
FUZZ_TRACE_CELLS = ["", "x", "nan", "inf", "-1e308", "1e308", "1e-300", "0.5", "869.0",
                    "0", "-0", "1", "-200", "250"]


@st.composite
def mutated_trace_cells(draw):
    """The bundled trace with its header kept and one to three cells replaced."""
    header, *lines = FUZZ_TRACE_CSV.decode().splitlines()
    rows = [line.split(",") for line in lines]
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(FUZZ_TRACE_CELLS))
    return "\n".join([header] + [",".join(row) for row in rows]) + "\n"


def _trace_exit_codes(tmp_path, trace_csv):
    """Exit codes of gen-dataset and a two-node simulate on one trace CSV."""
    path = tmp_path / "trace.csv"
    path.write_bytes(trace_csv)
    sim_config = _write_json(tmp_path / "sim.json", {
        "nodes": [{"source": "A", "strategy": {"kind": "random_hop"}},
                  {"source": "C", "strategy": {"kind": "sensing_hop"}}],
        "payload_schedule": [30, 250], "packets_per_size": 4})
    return [
        run(["gen-dataset", "--trace", str(path), "--rows", "20",
             "--out", str(tmp_path / "ds.json")]),
        run(["simulate", "--trace", str(path), "--config", sim_config,
             "--out", str(tmp_path / "r.json")]),
    ]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(trace_csv=mutated_bytes(FUZZ_TRACE_CSV))
def test_fuzzed_trace_csvs_keep_the_exit_code_contract(tmp_path, trace_csv):
    assert set(_trace_exit_codes(tmp_path, trace_csv)) <= {0, 1, 2}


# byte mutations seldom get past `load_trace`; well-formed CSVs with bad cells often do
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(trace_csv=mutated_trace_cells())
def test_trace_csvs_with_bad_cells_keep_the_exit_code_contract(tmp_path, trace_csv):
    assert set(_trace_exit_codes(tmp_path, trace_csv.encode())) <= {0, 1, 2}


SMALL_SIM_CONFIG = {"nodes": [{"source": "A", "strategy": {"kind": "random_hop"}}],
                    "payload_schedule": [30], "packets_per_size": 3}


def _json_bytes(doc):
    return json.dumps(doc).encode()


def _trace_shifted(db):
    """The bundled trace CSV with every RSSI moved by `db` dB."""
    header, *lines = FUZZ_TRACE_CSV.decode().splitlines()
    col = header.split(",").index("rssi")
    rows = [line.split(",") for line in lines]
    for row in rows:
        row[col] = str(float(row[col]) + db)
    return "\n".join([header] + [",".join(row) for row in rows]).encode() + b"\n"


# Per command and input file: the file's bytes, changed bytes, and (input path, scratch
# directory) -> (argv, manifest path).
DIGEST_CASES = {
    "optimize --scenario": (
        _json_bytes(_scenario_doc()), _json_bytes({**_scenario_doc(), "demand": [3, 4, 4]}),
        lambda p, d: (["optimize", "--scenario", p, "--out", str(d / "o.json")],
                      d / "o.json.manifest.json")),
    "simulate --config": (
        _json_bytes(SMALL_SIM_CONFIG), _json_bytes({**SMALL_SIM_CONFIG, "seed": 1}),
        lambda p, d: (["simulate", "--config", p, "--out", str(d / "r.json")],
                      d / "r.json.manifest.json")),
    "simulate --trace": (
        FUZZ_TRACE_CSV, _trace_shifted(3.0),
        lambda p, d: (["simulate", "--trace", p, "--out", str(d / "r.json"),
                       "--config", _write_json(d / "sim.json", SMALL_SIM_CONFIG)],
                      d / "r.json.manifest.json")),
    "gen-dataset --trace": (
        FUZZ_TRACE_CSV, _trace_shifted(3.0),
        lambda p, d: (["gen-dataset", "--trace", p, "--rows", "5", "--out", str(d / "ds.json")],
                      d / "ds.json.manifest.json")),
    "train --dataset": (
        _json_bytes(FUZZ_DATASET),
        _json_bytes({**FUZZ_DATASET, "rows": FUZZ_DATASET["rows"][::-1]}),
        lambda p, d: (["train", "--dataset", p, "--epochs", "1", "--out", str(d / "m.fhop")],
                      d / "m.fhop.manifest.json")),
    "export --model": (
        FUZZ_MODEL, predictor.export_flat(predictor.init_model(5, 3, seed=1)),
        lambda p, d: (["export", "--model", p, "--out", str(d / "m.h")],
                      d / "m.h.manifest.json")),
    "pipeline --trace": (
        FUZZ_TRACE_CSV, _trace_shifted(3.0),
        lambda p, d: (["pipeline", "--trace", p, "--out-dir", str(d / "pipe"), "--sources", "A",
                       "--rows", "20", "--epochs", "1"], d / "pipe" / "pipeline.manifest.json")),
    "recommend impute --in": (
        FUZZ_MATRIX_CSV, FUZZ_MATRIX_CSV.replace(b"3,,5,1", b"3,,4,1"),
        lambda p, d: (["recommend", "impute", "--in", p, "--k", "3", "--out", str(d / "f.csv")],
                      d / "f.csv.manifest.json")),
    "figdata --in": (
        _json_bytes(FUZZ_STUDY), _json_bytes({**FUZZ_STUDY, "distribution": [5, 4, 3, 2, 1]}),
        lambda p, d: (["figdata", "--figure", "confusion", "--in", p, "--out-dir", str(d)],
                      d / "figdata_confusion.manifest.json")),
}


@pytest.mark.parametrize("case", sorted(DIGEST_CASES))
def test_config_digest_hashes_input_bytes_not_paths(tmp_path, case):
    """The same bytes at another path keep the manifest's digest; changed bytes change it."""
    original, changed, argv_for = DIGEST_CASES[case]
    digests = []
    for name, blob in (("a", original), ("b", original), ("c", changed)):
        d = tmp_path / name
        d.mkdir()
        (d / "input").write_bytes(blob)
        argv, manifest = argv_for(str(d / "input"), d)
        assert run(argv) == 0
        digests.append(json.loads(Path(manifest).read_text())["config_digest"])
    assert digests[0] == digests[1] != digests[2]


def _digest(argv, manifest):
    assert run(argv) == 0
    return json.loads(Path(manifest).read_text())["config_digest"]


def test_config_digest_hashes_the_model_a_sim_config_names(tmp_path):
    """One config, its predictor_hop model file rewritten between runs."""
    model = tmp_path / "m.fhop"
    argv = ["simulate", "--out", str(tmp_path / "r.json"), "--config", _write_json(
        tmp_path / "sim.json", {**SMALL_SIM_CONFIG, "nodes": [
            {"source": "A", "strategy": {"kind": "predictor_hop", "model": str(model)}}]})]
    digests = []
    for seed in (0, 1, 0):
        model.write_bytes(predictor.export_flat(predictor.init_model(5, 3, seed=seed)))
        digests.append(_digest(argv, tmp_path / "r.json.manifest.json"))
    assert digests[0] == digests[2] != digests[1]


@pytest.mark.parametrize("command", ["gen-dataset", "simulate"])
def test_config_digest_hashes_the_bundled_trace_when_trace_is_omitted(tmp_path, command):
    argv = [command, "--out", str(tmp_path / "o.json")] + (
        ["--rows", "5"] if command == "gen-dataset"
        else ["--config", _write_json(tmp_path / "sim.json", SMALL_SIM_CONFIG)])
    manifest = tmp_path / "o.json.manifest.json"
    assert _digest(argv, manifest) == _digest(
        argv + ["--trace", trace.bundled_trace_path()], manifest)


@pytest.mark.parametrize("command", ["train", "recommend impute", "simulate"])
def test_each_input_file_is_read_once(tmp_path, monkeypatch, command):
    """Every read of a file, by path, through `open` or pathlib's whole-file readers."""
    model = tmp_path / "m.fhop"
    model.write_bytes(FUZZ_MODEL)
    argv = {
        "train": ["train", "--epochs", "1", "--dataset", _write_json(tmp_path / "ds.json",
                                                                    FUZZ_DATASET)],
        "recommend impute": ["recommend", "impute", "--k", "3", "--in", _write_text(
            tmp_path / "m.csv", FUZZ_MATRIX_CSV.decode())],
        "simulate": ["simulate", "--config", _write_json(tmp_path / "sim.json", {
            **SMALL_SIM_CONFIG, "nodes": [
                {"source": "A", "strategy": {"kind": "predictor_hop", "model": str(model)}}]})],
    }[command]
    inputs = [a for a in argv if a.startswith(str(tmp_path))]
    if command == "simulate":
        inputs += [str(model), trace.bundled_trace_path()]
    reads = {}

    def counted(original):
        def wrapper(path, *args, **kwargs):
            reads[str(path)] = reads.get(str(path), 0) + 1
            return original(path, *args, **kwargs)
        return wrapper

    for name in ("read_bytes", "read_text"):
        monkeypatch.setattr(Path, name, counted(getattr(Path, name)))
    monkeypatch.setattr("builtins.open", counted(open))
    assert run(argv + ["--out", str(tmp_path / "out")]) == 0
    assert {path: reads.get(path, 0) for path in inputs} == {path: 1 for path in inputs}


def test_out_of_memory_is_a_domain_failure(tmp_path, monkeypatch, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(recommender, "similarity_matrix", no_memory)
    out = tmp_path / "f.csv"
    assert run(["recommend", "impute", "--k", "3", "--out", str(out),
                "--in", _write_text(tmp_path / "m.csv", FUZZ_MATRIX_CSV.decode())]) == 1
    assert capsys.readouterr().err == "recommend impute failed: MemoryError\n"
    assert not out.exists()


@pytest.mark.parametrize("path", ["absent.json", "."], ids=["missing file", "directory"])
def test_an_unreadable_input_is_a_usage_error(tmp_path, capsys, path):
    assert run(["optimize", "--scenario", str(tmp_path / path),
                "--out", str(tmp_path / "o.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: lorahop optimize")
    assert f"argument --scenario: cannot read {tmp_path / path}" in err


@pytest.mark.parametrize("output", ["gen-dataset --out", "simulate --out", "simulate --events"])
@pytest.mark.parametrize("path", ["absent/out", "."], ids=["in a missing directory", "directory"])
def test_an_unwritable_output_is_an_input_error(tmp_path, capsys, output, path):
    command, flag = output.split()
    outputs = {"--out": str(tmp_path / "out.json"), "--events": str(tmp_path / "events.csv")}
    outputs[flag] = str(tmp_path / path)
    argv = (["gen-dataset", "--rows", "3", "--out", outputs["--out"]] if command == "gen-dataset"
            else ["simulate", "--config", _write_json(tmp_path / "sim.json", SMALL_SIM_CONFIG),
                  "--out", outputs["--out"], "--events", outputs["--events"]])
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert str(tmp_path / path) in err
    assert not list(tmp_path.glob("*.manifest.json"))


@pytest.mark.parametrize("flags,seeds", [([], [3]), (["--seed", "5"], [5])])
def test_simulate_manifest_records_the_seed_the_run_used(tmp_path, flags, seeds):
    out = tmp_path / "report.json"
    assert run(["simulate", "--out", str(out), *flags, "--config", _write_json(
        tmp_path / "sim.json", {**SMALL_SIM_CONFIG, "seed": 3})]) == 0
    assert json.loads(Path(f"{out}.manifest.json").read_text())["seeds"] == seeds


def test_importing_the_cli_builds_no_parser():
    code = ("import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = lambda *a, **k: built.append(1) or init(*a, **k)\n"
            "from lorahop import cli\n"
            "print(len(built))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout == "0\n"


def test_the_parser_is_built_once_and_keeps_no_state_between_calls(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda *a, **k: built.append(1) or init(*a, **k))
    cli.build_parser.cache_clear()
    out = tmp_path / "report.json"
    config = _write_json(tmp_path / "sim.json", {**SMALL_SIM_CONFIG, "seed": 3})
    assert run(["simulate", "--config", config, "--seed", "5", "--out", str(out)]) == 0
    assert built
    built.clear()
    assert run(["simulate", "--config", config, "--out", str(out)]) == 0
    assert json.loads(Path(f"{out}.manifest.json").read_text())["seeds"] == [3]

    manifest = tmp_path / "figs" / "figdata_model-sizes.manifest.json"
    argv = ["figdata", "--figure", "model-sizes", "--out-dir", str(tmp_path / "figs")]
    digests = []
    for extra in ([], ["--in", config], []):
        assert run(argv + extra) == 0
        digests.append(json.loads(manifest.read_text())["config_digest"])
    assert digests[0] == digests[2] != digests[1]
    assert not built


@pytest.mark.parametrize("row", PINNED, ids=" ; ".join)
def test_commands_write_pinned_bytes(tmp_path, row):
    assert run_row(row, tmp_path) == PINNED[row]


def test_a_row_that_writes_over_an_input_fails(tmp_path):
    with pytest.raises(AssertionError, match="wrote over an input"):
        run_row(("gen-dataset --rows 1 --out {d}/sim.json",), tmp_path)
