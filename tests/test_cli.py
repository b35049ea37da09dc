import copy
import csv
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lorahop import cli, predictor, sim, trace
from lorahop.core import Scenario
from oracle import enumerate_oracle, parse_c_array

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


def test_optimize_infeasible_exit_1(tmp_path):
    doc = json.loads((SCENARIO_DIR / "tiny_single_node.json").read_text())
    doc["demand"] = [1000]
    bad = tmp_path / "infeasible.json"
    bad.write_text(json.dumps(doc))
    assert run(["optimize", "--scenario", str(bad), "--out", str(tmp_path / "o.json")]) == 1


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
    assert len(curves["train_loss"]) == 3

    c_file = tmp_path / "model.h"
    assert run(["export", "--model", str(model), "--format", "c_array",
                "--out", str(c_file)]) == 0
    assert parse_c_array(c_file.read_text()) == model.read_bytes()


def test_recommend_generate_and_impute(tmp_path):
    matrix = tmp_path / "m.csv"
    assert run(["recommend", "generate", "--soils", "30", "--plants", "8",
                "--seed", "2", "--out", str(matrix)]) == 0
    from lorahop import recommender
    full = recommender.load_matrix_csv(matrix)
    sparse_path = tmp_path / "sparse.csv"
    recommender.save_matrix_csv(recommender.sparsify(full, 20, seed=2), sparse_path)
    filled = tmp_path / "filled.csv"
    assert run(["recommend", "impute", "--in", str(sparse_path), "--k", "5",
                "--out", str(filled)]) == 0
    import numpy as np
    assert not np.isnan(recommender.load_matrix_csv(filled)).any()


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
    return {"sparsities": [{"sparsity_pct": sparsity_pct, "confusion": [[1, 0, 0, 0, 0]]}],
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


# Inputs that must be reported as input errors (exit 2), each given a scratch directory.
MALFORMED_INPUTS = {
    "missing predictor model file": lambda d: [
        "simulate", "--out", str(d / "o.json"), "--config", _write_json(d / "sim.json", {
            "nodes": [{"source": "A", "strategy": {"kind": "predictor_hop",
                                                   "model": str(d / "absent.fhop")}}]})],
    "strategy is a string": lambda d: [
        "simulate", "--out", str(d / "o.json"), "--config", _write_json(d / "sim.json", {
            "nodes": [{"source": "A", "strategy": "random_hop"}]})],
    "sparsity 100": lambda d: [
        "recommend", "study", "--soils", "20", "--plants", "5", "--seeds", "1",
        "--sparsities", "100", "--out", str(d / "study.json")],
    "sparsity not a number": lambda d: [
        "recommend", "study", "--soils", "20", "--plants", "5", "--seeds", "1",
        "--sparsities", "abc", "--out", str(d / "study.json")],
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
    "capture threshold is a string": lambda d: [
        "simulate", "--out", str(d / "o.json"), "--config", _write_json(d / "sim.json", {
            "nodes": [{"source": "A", "strategy": {"kind": "random_hop"}}],
            "capture_threshold_db": "x"})],
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
    "repeated payload size": lambda d: [
        "simulate", "--out", str(d / "o.json"), "--config", _write_json(d / "sim.json", {
            "nodes": [{"source": "A", "strategy": {"kind": "random_hop"}}],
            "payload_schedule": [30, 30], "packets_per_size": 10})],
    "window_slots 2.5": lambda d: [
        "simulate", "--out", str(d / "o.json"), "--config", _write_json(d / "sim.json", {
            "nodes": [{"source": "A", "strategy": {"kind": "sensing_hop"}}],
            "window_slots": 2.5})],
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
    "pipeline with negative epochs": lambda d: [
        "pipeline", "--out-dir", str(d / "pipe"), "--sources", "A", "--rows", "20",
        "--epochs", "-1"],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_2(tmp_path, case):
    assert run(MALFORMED_INPUTS[case](tmp_path)) == 2


def test_rejected_figdata_input_leaves_no_output_directory(tmp_path):
    figs = tmp_path / "figs"
    assert run(["figdata", "--figure", "confusion", "--out-dir", str(figs),
                "--in", _write_json(tmp_path / "study.json", _study_doc(None))]) == 2
    assert not figs.exists()


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
    "predictor_placement": "end_node", "window_slots": 4,
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
    codes = [
        run(["optimize", "--budget", "2000", "--out", str(tmp_path / "o.json"),
             "--scenario", _write_json(tmp_path / "scenario.json", scenario)]),
        run(["simulate", "--out", str(tmp_path / "r.json"), "--events", str(tmp_path / "e.csv"),
             "--config", _write_json(tmp_path / "sim.json", config)]),
    ]
    assert set(codes) <= {0, 1, 2}


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


def test_simulate_writes_pinned_bytes(tmp_path):
    """Three strategies contending for the three channels; both outputs pinned by SHA-256."""
    config = _write_json(tmp_path / "sim.json", {
        "nodes": [{"source": "A", "strategy": {"kind": "sensing_hop"}},
                  {"source": "B", "strategy": {"kind": "random_hop"}},
                  {"source": "C", "strategy": {"kind": "fixed", "freq": 869.0}}],
        "packets_per_size": 40, "seed": 4})
    out, events = tmp_path / "report.json", tmp_path / "events.csv"
    assert run(["simulate", "--config", config, "--out", str(out),
                "--events", str(events)]) == 0
    report = json.loads(out.read_text())
    assert sum(e["collided"] for e in report["events"]) > 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "00366a3aecd939bc8742632101ec40e842e15c353a097778bafcc3b40cdab670"
    assert hashlib.sha256(events.read_bytes()).hexdigest() == \
        "4910c093e8e24bdd81dfb98a488bba48338bd31c0fa5f3f9f7ed45894a23d941"


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
    bare = cli._sim_config_from_json({"nodes": nodes})
    assert bare == sim.SimConfig(nodes=bare.nodes)
    full = cli._sim_config_from_json({
        "nodes": nodes, "payload_schedule": [74, 30], "packets_per_size": 3, "seed": 9,
        "capture_threshold_db": 2.5, "rssi_jitter_db": 0.0, "snr_jitter_db": 2.0,
        "predictor_placement": "gateway", "window_slots": 3, "unknown_key": 1})
    assert full == sim.SimConfig(
        nodes=full.nodes, payload_schedule=(74, 30), packets_per_size=3, rng_seed=9,
        capture_threshold_db=2.5, rssi_jitter_db=0.0, snr_jitter_db=2.0,
        predictor_placement="gateway", window_slots=3)


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
    "sparsities": [{"sparsity_pct": 10, "confusion": [[1, 0, 0, 0, 0], [0, 2, 0, 0, 0]]}],
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
        "payload_schedule": [30], "packets_per_size": 4, "window_slots": 1})
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
