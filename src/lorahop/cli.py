"""Command-line entry point.

Subcommands: optimize, simulate, gen-dataset, train, export, pipeline,
recommend (generate/impute/study), figdata.  Every command writes its primary
output plus a sidecar run manifest (<out>.manifest.json) with the command
line, an input digest, seeds, version and wall-clock duration.  Exit codes:
0 success; 1 domain failure (infeasible instance, search budget exhausted,
diverged training); 2 input error (unreadable or unwritable file, malformed
or out-of-range input).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__, core, optimizer, pipeline, predictor, recommender, sim, telemetry, trace

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2


def _digest(*parts):
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, bytes):
            h.update(p)
        else:
            h.update(str(p).encode())
        h.update(b"\x00")
    return h.hexdigest()


def _load_trace(args):
    return trace.load_trace(args.trace or trace.bundled_trace_path())


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


# Each cmd_* does its command's work and returns
# (manifest base path, config digest, seeds, output paths); `main` writes the manifest.

def cmd_optimize(args):
    text = Path(args.scenario).read_text()
    scenario = core.Scenario.from_json(text)
    result = optimizer.solve_exact(scenario, alpha=args.alpha, beta=args.beta,
                                   budget=args.budget)
    doc = {
        "objective_value": result.objective_value,
        "proven_optimal": result.proven_optimal,
        "nodes_explored": result.nodes_explored,
        "collisions": core.collision_count(scenario, result.schedule),
        "hops": core.hop_count(scenario, result.schedule),
        "x": result.schedule.x.astype(int).tolist(),
        "s": result.schedule.s.tolist(),
        "z": result.schedule.z.astype(int).tolist(),
    }
    Path(args.out).write_text(json.dumps(doc, sort_keys=True))
    return args.out, _digest(text, args.alpha, args.beta, args.budget), [], [args.out]


def _strategy_from_spec(spec):
    kind = spec["kind"]
    if kind == "fixed":
        return sim.FixedStrategy(spec["freq"])
    if kind == "random_hop":
        return sim.RandomHopStrategy()
    if kind == "sensing_hop":
        return sim.SensingHopStrategy()
    if kind == "predictor_hop":
        model = predictor.import_flat(Path(spec["model"]).read_bytes())
        return sim.PredictorHopStrategy(model)
    raise ValueError(f"unknown strategy kind {kind!r}")


# config document keys: SimConfig's field names, with "seed" for rng_seed
_SIM_DOC_KEYS = ("payload_schedule", "packets_per_size", "seed", "capture_threshold_db",
                "rssi_jitter_db", "snr_jitter_db", "predictor_placement", "window_slots")


def _sim_config_from_json(doc):
    """SimConfig from a config document; keys the document lacks keep SimConfig's defaults."""
    nodes = tuple(sim.NodeSpec(source=n["source"], strategy=_strategy_from_spec(n["strategy"]))
                  for n in doc["nodes"])
    given = {("rng_seed" if k == "seed" else k): doc[k] for k in _SIM_DOC_KEYS if k in doc}
    if "payload_schedule" in given:
        given["payload_schedule"] = tuple(given["payload_schedule"])
    return sim.SimConfig(nodes=nodes, **given)


def cmd_simulate(args):
    trace_obj = _load_trace(args)
    text = Path(args.config).read_text()
    config = _sim_config_from_json(json.loads(text))
    if args.seed is not None:
        config = dataclasses.replace(config, rng_seed=args.seed)
    report = sim.run(config, trace_obj)
    outputs = [args.out]
    Path(args.out).write_text(report.to_json())
    if args.events:
        outputs.append(_write_csv(args.events, sim.EVENT_FIELDS, (
            [int(v) if isinstance(v, bool) else v for v in e.to_dict().values()]
            for e in report.events)))
    return args.out, _digest(text, args.seed), [config.rng_seed], outputs


def cmd_gen_dataset(args):
    trace_obj = _load_trace(args)
    config = telemetry.DatasetConfig(source=args.source, ts=args.ts)
    rows = telemetry.generate_labeled_dataset(trace_obj, config, args.rows, args.seed)
    Path(args.out).write_text(telemetry.dataset_to_json(rows, config.ts,
                                                        len(trace_obj.frequencies)))
    return (args.out, _digest(args.source, args.ts, args.rows, args.seed), [args.seed],
            [args.out])


def cmd_train(args):
    text = Path(args.dataset).read_text()
    rows, meta = telemetry.dataset_from_json(text)
    input_dim = telemetry.TelemetryWindow.feature_dim(meta["ts"], meta["F"])
    model = predictor.init_model(input_dim, meta["F"], seed=args.seed, l1_lambda=args.l1)
    report = predictor.train(model, rows, epochs=args.epochs, batch_size=args.batch,
                             lr=args.lr, seed=args.seed)
    Path(args.out).write_bytes(predictor.export_flat(model))
    curves_path = str(args.out) + ".train.json"
    Path(curves_path).write_text(json.dumps({
        "train_loss": report.train_loss,
        "val_loss": report.val_loss,
        "val_accuracy": report.val_accuracy,
        "test_accuracy": report.test_accuracy,
        "split_sizes": list(report.split_sizes),
    }, sort_keys=True))
    return (args.out, _digest(text, args.epochs, args.batch, args.lr, args.l1, args.seed),
            [args.seed], [args.out, curves_path])


def cmd_export(args):
    blob = Path(args.model).read_bytes()
    model = predictor.import_flat(blob)
    if args.format == "c_array":
        Path(args.out).write_text(predictor.export_c_array(model, args.symbol))
    else:
        Path(args.out).write_bytes(predictor.export_flat(model))
    return args.out, _digest(blob, args.format, args.symbol), [], [args.out]


def cmd_pipeline(args):
    _, outputs = pipeline.run_pipeline(_load_trace(args), args.out_dir, args.seed,
                                       sources=tuple(args.sources.split(",")),
                                       rows=args.rows, epochs=args.epochs)
    return (Path(args.out_dir) / "pipeline",
            _digest(args.sources, args.rows, args.epochs, args.seed), [args.seed], outputs)


def cmd_recommend_generate(args):
    matrix = recommender.synthetic_ratings(args.soils, args.plants, seed=args.seed)
    recommender.save_matrix_csv(matrix, args.out)
    return args.out, _digest(args.soils, args.plants, args.seed), [args.seed], [args.out]


def cmd_recommend_impute(args):
    # digest the input before --out is written: the two may be one file
    digest = _digest(Path(args.infile).read_bytes(), args.k, args.missing_as_zero)
    matrix = recommender.load_matrix_csv(args.infile)
    filled = recommender.impute(matrix, k_neighbors=args.k, missing_as_zero=args.missing_as_zero)
    recommender.save_matrix_csv(filled, args.out)
    return args.out, digest, [], [args.out]


def cmd_recommend_study(args):
    sparsities = tuple(int(v) for v in args.sparsities.split(","))
    report = recommender.run_study(num_soils=args.soils, num_plants=args.plants,
                                   sparsities=sparsities, num_seeds=args.seeds,
                                   k_neighbors=args.k, base_seed=args.seed,
                                   missing_as_zero=args.missing_as_zero)
    Path(args.out).write_text(json.dumps(report, sort_keys=True))
    return (args.out, _digest(args.soils, args.plants, args.sparsities, args.seeds,
                              args.k, args.seed, args.missing_as_zero),
            [args.seed], [args.out])


def cmd_figdata(args):
    if args.figure != "model-sizes" and not args.infile:
        raise ValueError(f"--figure {args.figure} needs --in")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    if args.figure == "model-sizes":
        rows = []
        for n_ch in range(2, 10):
            input_dim = telemetry.TelemetryWindow.feature_dim(args.ts, n_ch)
            model = predictor.init_model(input_dim, n_ch, seed=args.seed)
            c_text = predictor.export_c_array(model, "hopping_model")
            rows.append([n_ch, len(predictor.export_flat(model)), len(c_text.encode())])
        outputs.append(_write_csv(out_dir / "fig_model_sizes.csv",
                                  ["channels", "flat_bytes", "c_array_bytes"], rows))
    elif args.figure == "strategy-comparison":
        with open(args.infile, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for metric in ("rssi", "snr", "pdr"):
            outputs.append(_write_csv(
                out_dir / f"fig_strategy_{metric}.csv", ["size", "random_hop", "predictor_hop"],
                [[r["size"], r["random_hop"], r["predictor_hop"]]
                 for r in rows if r["metric"] == metric]))
    else:  # confusion
        report = json.loads(Path(args.infile).read_text())
        for entry in report["sparsities"]:
            outputs.append(_write_csv(
                out_dir / f"fig_confusion_sparsity{entry['sparsity_pct']}.csv",
                ["true\\pred"] + [str(v) for v in range(1, 6)],
                [[t] + row for t, row in enumerate(entry["confusion"], start=1)]))
        outputs.append(_write_csv(out_dir / "fig_rating_distribution.csv", ["rating", "count"],
                                  enumerate(report["distribution"], start=1)))
    return (out_dir / f"figdata_{args.figure}",
            _digest(args.figure, args.infile, args.ts, args.seed), [args.seed], outputs)


def build_parser():
    parser = argparse.ArgumentParser(prog="lorahop")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="solve a channel-hopping scenario exactly")
    p.add_argument("--scenario", required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--budget", type=int, default=2_000_000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("simulate", help="run a trace-driven transmission simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--trace", default=None, help="defaults to the bundled trace")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--events", default=None, help="optional per-slot event log CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gen-dataset", help="generate a labeled channel dataset")
    p.add_argument("--trace", default=None)
    p.add_argument("--source", default="A")
    p.add_argument("--rows", type=int, default=5000)
    p.add_argument("--ts", type=int, default=telemetry.DEFAULT_WINDOW_SLOTS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_dataset)

    p = sub.add_parser("train", help="train the channel predictor on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--l1", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("export", help="convert a flat model file")
    p.add_argument("--model", required=True)
    p.add_argument("--format", choices=["c_array", "flat"], default="c_array")
    p.add_argument("--symbol", default="hopping_model")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("pipeline", help="dataset -> train -> export -> compare strategies")
    p.add_argument("--trace", default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--sources", default="A,B")
    p.add_argument("--rows", type=int, default=5000)
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("recommend", help="collaborative-filtering operations")
    rec = p.add_subparsers(dest="rec_command", required=True)
    g = rec.add_parser("generate", help="write a synthetic ratings matrix")
    g.add_argument("--soils", type=int, default=500)
    g.add_argument("--plants", type=int, default=20)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_recommend_generate)
    im = rec.add_parser("impute", help="fill missing ratings in a CSV matrix")
    im.add_argument("--in", dest="infile", required=True)
    im.add_argument("--k", type=int, default=20)
    im.add_argument("--missing-as-zero", action="store_true")
    im.add_argument("--out", required=True)
    im.set_defaults(func=cmd_recommend_impute)
    st = rec.add_parser("study", help="sparsity sweep with confusion matrices")
    st.add_argument("--soils", type=int, default=500)
    st.add_argument("--plants", type=int, default=20)
    st.add_argument("--sparsities", default="10,30,50,70,90")
    st.add_argument("--seeds", type=int, default=5)
    st.add_argument("--k", type=int, default=20)
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--missing-as-zero", action="store_true")
    st.add_argument("--out", required=True)
    st.set_defaults(func=cmd_recommend_study)

    p = sub.add_parser("figdata", help="emit plot-ready CSV bundles")
    p.add_argument("--figure", choices=["strategy-comparison", "model-sizes", "confusion"],
                   required=True)
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--ts", type=int, default=telemetry.DEFAULT_WINDOW_SLOTS)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_figdata)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    command = " ".join(filter(None, (args.command, getattr(args, "rec_command", None))))
    started = time.monotonic()
    try:
        manifest_base, digest, seeds, outputs = args.func(args)
        manifest = {
            "command": command,
            "config_digest": digest,
            "seeds": seeds,
            "tool_version": __version__,
            "outputs": [str(o) for o in outputs],
            "duration_s": round(time.monotonic() - started, 3),
        }
        Path(f"{manifest_base}.manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True))
    except (optimizer.Infeasible, optimizer.BudgetExhausted, FloatingPointError) as exc:
        print(f"{command} failed: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
