"""Acceptance gate: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines inline.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from lorahop import cli, core, optimizer, predictor, recommender, sim, telemetry, trace
from lorahop.pipeline import compare_strategies_on_trace, run_pipeline
from conftest import random_scenario
from oracle import enumerate_oracle, parse_c_array, report_row

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "lorahop" / "data" / "scenarios"


def test_criterion_1_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(42)
    feasible = infeasible = 0
    for _ in range(200):
        sc = random_scenario(rng)
        try:
            solver_obj = optimizer.solve_exact(sc).objective_value
        except optimizer.Infeasible:
            solver_obj = None
        try:
            oracle_obj = enumerate_oracle(sc).objective_value
        except optimizer.Infeasible:
            oracle_obj = None
        assert (solver_obj is None) == (oracle_obj is None)
        if solver_obj is None:
            infeasible += 1
        else:
            assert solver_obj == oracle_obj
            feasible += 1
    elapsed = time.monotonic() - started
    assert feasible + infeasible == 200
    assert elapsed < 300
    print(f"\nPASS criterion 1: solver == oracle on 200 scenarios "
          f"({feasible} feasible, {infeasible} infeasible) in {elapsed:.1f}s")


def test_criterion_2_zero_collisions_when_channels_suffice():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 50:
        n = int(rng.integers(1, 4))
        f = int(rng.integers(n, 4))
        t = int(rng.integers(1, 3))
        if (f + 1) ** (n * t) > 200_000:
            continue
        fcap = tuple(int(rng.integers(3, 8)) for _ in range(f))
        sc = core.Scenario(
            num_nodes=n, num_gateways=1,
            frequencies=tuple(868.0 + 0.2 * k for k in range(f)),
            horizon=t, gateway_capacity=(n,), freq_capacity=fcap,
            min_symbols=1,
            demand=tuple(int(rng.integers(0, min(fcap) * t + 1)) for _ in range(n)))
        try:
            result = optimizer.solve_exact(sc)
        except optimizer.Infeasible:
            continue
        assert core.collision_count(sc, result.schedule) == 0, sc
        checked += 1
    print(f"\nPASS criterion 2: optimum collision-free on {checked} instances with F >= N")


def test_criterion_3_trace_fidelity(bundled_trace):
    cells = 0
    for source in bundled_trace.sources:
        for freq in bundled_trace.frequencies:
            config = sim.SimConfig(
                nodes=(sim.NodeSpec(source=source, strategy=sim.FixedStrategy(freq)),),
                rng_seed=1, rssi_jitter_db=0.0, snr_jitter_db=0.0)
            report = sim.run(config, bundled_trace)
            for size in report.sizes:
                row = report_row(report, source, size)
                entry = bundled_trace.lookup(source, freq, size)
                assert abs(row.mean_rssi - entry.mean_rssi) < 1e-9
                assert abs(row.mean_snr - entry.mean_snr) < 1e-9
                assert abs(row.pdr - entry.pdr) < 1e-9
                cells += 1
    assert cells == 54
    spot = bundled_trace.lookup("A", 869.0, 30)
    assert (spot.mean_rssi, spot.mean_snr, spot.pdr) == (-71.5, 9.3, 1.0)
    print(f"\nPASS criterion 3: jitter-0 fixed-channel runs reproduce all {cells} trace cells")


def criterion_4(comparison):
    """(the `comparison.csv` rows that break criterion 4, the best RSSI improvement): the
    predictor's PDR must be at least 0.98 and its |RSSI| no larger than random's at every
    size, and the best improvement at least 30%."""
    broken, best = [], 0.0
    for row in comparison:
        _, metric, random_hop, predictor_hop, improvement = row
        if metric == "rssi":
            best = max(best, improvement)
            if abs(predictor_hop) > abs(random_hop):   # predictor RSSI weaker than random's
                broken.append(row)
        elif metric == "pdr" and predictor_hop < 0.98:
            broken.append(row)
    return broken, best


def test_criterion_4_predictor_beats_random(bundled_trace, tmp_path):
    started = time.monotonic()
    comparison, _ = run_pipeline(bundled_trace, tmp_path, seed=7)
    broken, best = criterion_4(comparison)
    assert not broken, broken
    elapsed = time.monotonic() - started
    assert best >= 30.0
    assert elapsed < 120
    print(f"\nPASS criterion 4: predictor dominates random at all sizes, "
          f"max RSSI improvement {best:.1f}% >= 30%, PDR >= 0.98, in {elapsed:.1f}s")


# fixed before any result was seen: neither pick seeds from the results nor drop a failing one
CRITERION_4_SEEDS = range(20)


def test_criterion_4_holds_on_a_fixed_seed_set(bundled_trace):
    """`pipeline`'s models for every seed of the set, trained in one stacked call with one
    seed per model (each ends as its own `pipeline` pass leaves it), then compared as
    `pipeline` compares them."""
    started = time.monotonic()
    sources = ("A", "B")
    datasets, models, seeds = [], [], []
    for seed in CRITERION_4_SEEDS:
        for src in sources:   # `run_pipeline`'s 5,000 rows, 60 epochs and seeds
            dataset = telemetry.generate_labeled_dataset(bundled_trace, src, 5000, seed)
            datasets.append(dataset)
            models.append(predictor.init_model(dataset.features.shape[1], dataset.num_freqs,
                                               seed=seed))
            seeds.append(seed)
    predictor.train(models, datasets, epochs=60, seed=seeds)
    failed = {}
    for j, seed in enumerate(CRITERION_4_SEEDS):
        comparison, _, _ = compare_strategies_on_trace(
            bundled_trace, sources, models[j * len(sources):(j + 1) * len(sources)], seed)
        broken, best = criterion_4(comparison)
        if broken or best < 30.0:
            failed[seed] = (broken, best)
    assert not failed, failed
    print(f"\nPASS criterion 4 on seeds {CRITERION_4_SEEDS.start}-{CRITERION_4_SEEDS.stop - 1} "
          f"x sources {','.join(sources)}, in {time.monotonic() - started:.1f}s")


def test_criterion_5_prediction_accuracy(bundled_trace):
    seeds = [0, 1, 2]   # trained in one stack: each model as its own `train` call leaves it
    datasets = [telemetry.generate_labeled_dataset(bundled_trace, "A", 5000, seed)
                for seed in seeds]
    models = [predictor.init_model(
        telemetry.TelemetryWindow.feature_dim(telemetry.DEFAULT_WINDOW_SLOTS, 3), 3, seed=seed)
        for seed in seeds]
    report = predictor.train(models, datasets, seed=seeds)
    for first, last in zip(report.train_loss[0], report.train_loss[-1]):
        assert last < 0.5 * first
    accs = report.test_accuracy
    assert all(a >= 0.75 for a in accs)
    print(f"\nPASS criterion 5: held-out accuracy {['%.3f' % a for a in accs]} >= 0.75 "
          f"over 3 seeds, training loss halved")


def test_criterion_6_gradient_check():
    model = predictor.init_model(16, 3, seed=5, l1_lambda=0.0)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(8, 16))
    y = rng.integers(0, 3, size=8)
    params = predictor.ParamStack([model])
    x, y = x[None], y[None]   # a stack of one model
    _, grads = predictor.loss_and_grads(params, x, y)
    eps = 1e-3
    worst = 0.0
    for p, g in zip(params.arrays, grads):
        flat, gflat = p.reshape(-1), g.reshape(-1)   # views into `params.flat`
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            (lp,), _ = predictor.loss_and_grads(params, x, y)
            flat[idx] = orig - eps
            (lm,), _ = predictor.loss_and_grads(params, x, y)
            flat[idx] = orig
            num = (lp - lm) / (2 * eps)
            worst = max(worst, abs(num - gflat[idx]) / max(abs(num), abs(gflat[idx]), 1e-8))
    assert worst < 1e-4
    print(f"\nPASS criterion 6: max relative gradient error {worst:.2e} < 1e-4")


def test_criterion_7_serialization():
    rng = np.random.default_rng(0)
    for _ in range(100):
        input_dim = int(rng.integers(1, 90))
        num_channels = int(rng.integers(2, 10))
        model = predictor.init_model(input_dim, num_channels,
                                     seed=int(rng.integers(0, 2**31)))
        blob = predictor.export_flat(model)
        back = predictor.import_flat(blob)
        assert all(np.array_equal(p, q) for p, q in zip(model.params(), back.params()))
        assert predictor.export_flat(back) == blob
        assert parse_c_array(predictor.export_c_array(model, "m")) == blob

    sizes = []
    for num_channels in range(2, 10):
        dim = telemetry.TelemetryWindow.feature_dim(8, num_channels)
        expect = 13 + 4 * (dim * 10 + 10 + 100 + 10 + 10 * num_channels + num_channels)
        model = predictor.init_model(dim, num_channels, seed=0)
        assert len(predictor.export_flat(model)) == expect
        assert predictor.flat_size_bytes(dim, num_channels) == expect
        sizes.append(expect)
    assert all(a < b for a, b in zip(sizes, sizes[1:]))
    print("\nPASS criterion 7: 100 models round-trip bit-identically; "
          f"flat sizes exact and monotone for F=2..9: {sizes}")


def test_criterion_8_recommender_study():
    started = time.monotonic()
    report = recommender.run_study()
    entries = {e["sparsity_pct"]: e for e in report["sparsities"]}
    at10 = entries[10]["per_class_accuracy"]
    assert all(v is not None and v >= 0.85 for v in at10), at10
    means = [entries[p]["mean_accuracy"] for p in (10, 30, 50, 70, 90)]
    for earlier, later in zip(means, means[1:]):
        assert later <= earlier + 0.03, means   # non-increasing within a 3-point band
    elapsed = time.monotonic() - started
    assert elapsed < 180
    print(f"\nPASS criterion 8: per-class accuracy at 10% sparsity "
          f"{['%.3f' % v for v in at10]} >= 0.85; mean accuracy "
          f"{['%.3f' % v for v in means]} non-increasing (3-pt band) in {elapsed:.1f}s")


def test_criterion_9_cli_determinism(tmp_path):
    sim_config = tmp_path / "sim_config.json"
    sim_config.write_text(json.dumps({
        "nodes": [{"source": "A", "strategy": {"kind": "random_hop"}}], "seed": 4}))
    matrix_csv = tmp_path / "ratings.csv"
    recommender.save_matrix_csv(
        recommender.sparsify(recommender.synthetic_ratings(30, 8, seed=1), 20, seed=1),
        matrix_csv)
    dataset = tmp_path / "seed_ds.json"
    assert cli.main(["gen-dataset", "--rows", "60", "--seed", "2", "--out", str(dataset)]) == 0
    model = tmp_path / "seed_model.fhop"
    assert cli.main(["train", "--dataset", str(dataset), "--epochs", "2",
                     "--seed", "2", "--out", str(model)]) == 0

    commands = {
        "optimize": lambda out: ["optimize", "--scenario",
                                 str(SCENARIO_DIR / "three_nodes_two_freqs.json"),
                                 "--out", str(out / "opt.json")],
        "simulate": lambda out: ["simulate", "--config", str(sim_config),
                                 "--out", str(out / "sim.json"),
                                 "--events", str(out / "events.csv")],
        "gen-dataset": lambda out: ["gen-dataset", "--rows", "60", "--seed", "2",
                                    "--out", str(out / "ds.json")],
        "train": lambda out: ["train", "--dataset", str(dataset), "--epochs", "2",
                              "--seed", "2", "--out", str(out / "model.fhop")],
        "export": lambda out: ["export", "--model", str(model),
                               "--out", str(out / "model.h")],
        "pipeline": lambda out: ["pipeline", "--out-dir", str(out / "pipe"),
                                 "--rows", "120", "--epochs", "2", "--seed", "3"],
        "recommend generate": lambda out: ["recommend", "generate", "--soils", "30",
                                           "--plants", "8", "--seed", "1",
                                           "--out", str(out / "m.csv")],
        "recommend impute": lambda out: ["recommend", "impute", "--in", str(matrix_csv),
                                         "--k", "5", "--out", str(out / "filled.csv")],
        "recommend study": lambda out: ["recommend", "study", "--soils", "30",
                                        "--plants", "8", "--sparsities", "10",
                                        "--seeds", "1", "--k", "5", "--seed", "1",
                                        "--out", str(out / "study.json")],
        "figdata": lambda out: ["figdata", "--figure", "model-sizes",
                                "--out-dir", str(out / "figs")],
    }
    for name, argv in commands.items():
        dirs = []
        for run_idx in (0, 1):
            out = tmp_path / f"{name.replace(' ', '_')}_{run_idx}"
            out.mkdir()
            assert cli.main(argv(out)) == 0, name
            dirs.append(out)
        files_a = sorted(p for p in dirs[0].rglob("*")
                         if p.is_file() and not p.name.endswith(".manifest.json"))
        assert files_a, name
        for file_a in files_a:
            file_b = dirs[1] / file_a.relative_to(dirs[0])
            assert file_a.read_bytes() == file_b.read_bytes(), (name, file_a.name)
    print(f"\nPASS criterion 9: {len(commands)} CLI commands byte-identical across re-runs")
