"""The paper's end-to-end loop: dataset -> training -> flat export -> strategy comparison.

Calls into `telemetry`, `predictor` and `sim` go through the module attributes,
so a caller that wraps those attributes (a profiler, a tracer) sees every call.
"""

from __future__ import annotations

import csv
from pathlib import Path

from . import predictor, sim, telemetry


def run_pipeline(trace_obj, out_dir, seed, sources=("A", "B"), rows=5000, epochs=60):
    """Dataset -> training -> flat export -> predictor-vs-random simulation."""
    for src in sources:
        if src not in trace_obj.sources:
            raise ValueError(f"trace has no source {src!r}")
    predictor.check_train_args(rows, epochs)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    models = {}
    for src in sources:
        dataset = telemetry.generate_labeled_dataset(trace_obj, src, rows, seed)
        ds_path = out_dir / f"dataset_{src}.json"
        ds_path.write_text(telemetry.dataset_to_json(dataset))
        model = predictor.init_model(dataset.features.shape[1], dataset.num_freqs, seed=seed)
        predictor.train(model, dataset, epochs=epochs, seed=seed)
        model_path = out_dir / f"model_{src}.fhop"
        model_path.write_bytes(predictor.export_flat(model))
        models[src] = model
        outputs += [ds_path, model_path]

    def run_all(strategy_for):
        reports = []
        for src in sources:
            config = sim.SimConfig(nodes=(sim.NodeSpec(source=src,
                                                       strategy=strategy_for(src)),),
                                   rng_seed=seed)
            reports.append(sim.run(config, trace_obj))
        return sim.SimReport(rows=[r for rep in reports for r in rep.rows],
                             events=[e for rep in reports for e in rep.events])

    report_random = run_all(lambda src: sim.RandomHopStrategy())
    report_pred = run_all(lambda src: sim.PredictorHopStrategy(models[src]))
    comparison = sim.compare_strategies(report_pred, report_random)

    rand_path = out_dir / "report_random.json"
    pred_path = out_dir / "report_predictor.json"
    rand_path.write_text(report_random.to_json())
    pred_path.write_text(report_pred.to_json())
    comp_path = out_dir / "comparison.csv"
    with open(comp_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["size", "metric", "random_hop", "predictor_hop", "improvement"])
        for row in comparison:
            writer.writerow([row["size"], "rssi", row["rssi_b"], row["rssi_a"],
                             row["rssi_improvement_pct"]])
            writer.writerow([row["size"], "snr", row["snr_b"], row["snr_a"],
                             row["snr_improvement_pct"]])
            writer.writerow([row["size"], "pdr", row["pdr_b"], row["pdr_a"],
                             row["pdr_delta"]])
    outputs += [rand_path, pred_path, comp_path]
    return comparison, outputs
