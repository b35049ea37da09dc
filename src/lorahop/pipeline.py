"""The paper's end-to-end loop: dataset -> training -> flat export -> strategy comparison.

Calls into `telemetry`, `predictor` and `sim` go through the module attributes,
so a caller that wraps those attributes (a profiler, a tracer) sees every call.
"""

from __future__ import annotations

from pathlib import Path

from . import predictor, sim, telemetry


def run_pipeline(trace_obj, out_dir, seed, sources=("A", "B"), rows=5000, epochs=60):
    """Dataset -> training -> flat export -> predictor-vs-random simulation.

    Returns the `comparison.csv` rows (`sim.compare_strategies`) and the output paths.
    """
    for src in sources:
        if src not in trace_obj.sources:
            raise ValueError(f"trace has no source {src!r}")
    if len(set(sources)) != len(sources):   # each names its own files and comparison rows
        raise ValueError(f"sources must be distinct, got {list(sources)}")
    out_dir = Path(out_dir)
    # every source trains, in one stacked pass, before any file is written: the first
    # dataset checks rows and seed, `train` checks epochs, and a failing source writes nothing
    datasets = [telemetry.generate_labeled_dataset(trace_obj, src, rows, seed) for src in sources]
    trained = [predictor.init_model(ds.features.shape[1], ds.num_freqs, seed=seed)
               for ds in datasets]
    predictor.train(trained, datasets, epochs=epochs, seed=seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for src, dataset, model in zip(sources, datasets, trained):
        ds_path = out_dir / f"dataset_{src}.json"
        with open(ds_path, "w") as fh:
            telemetry.write_dataset(dataset, fh)
        model_path = out_dir / f"model_{src}.fhop"
        model_path.write_bytes(predictor.export_flat(model))
        outputs += [ds_path, model_path]
    comparison, report_random, report_pred = compare_strategies_on_trace(
        trace_obj, sources, trained, seed)

    rand_path = out_dir / "report_random.json"
    pred_path = out_dir / "report_predictor.json"
    for path, report in ((rand_path, report_random), (pred_path, report_pred)):
        with open(path, "w") as fh:
            report.write(fh)
    comp_path = sim.write_csv(out_dir / "comparison.csv", sim.COMPARISON_FIELDS, comparison)
    outputs += [rand_path, pred_path, comp_path]
    return comparison, outputs


def compare_strategies_on_trace(trace_obj, sources, models, seed):
    """Each source alone on the trace, once hopping at random and once led by its model (the
    model at its place in `models`), every run with simulator seed `seed`.  Returns the
    `sim.compare_strategies` rows, the random runs' report and the predictor runs' report."""
    def run_all(strategies):
        reports = []
        for src, strategy in zip(sources, strategies):
            config = sim.SimConfig(nodes=(sim.NodeSpec(source=src, strategy=strategy),),
                                   rng_seed=seed)
            reports.append(sim.run(config, trace_obj))
        return sim.SimReport(rows=[r for rep in reports for r in rep.rows],
                             events=[e for rep in reports for e in rep.events])

    report_random = run_all(sim.RandomHopStrategy() for _ in sources)
    report_pred = run_all(sim.PredictorHopStrategy(model) for model in models)
    return sim.compare_strategies(report_pred, report_random), report_random, report_pred
