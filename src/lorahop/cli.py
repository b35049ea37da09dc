"""Command-line entry point: argument parsing, dispatch, the run manifest and exit codes.

Subcommands: optimize, simulate, gen-dataset, train, export, pipeline,
recommend (generate/impute/study), figdata.  Each `cmd_*` calls the library
modules and returns its output paths; `main` then writes the run manifest
(command, config digest, seeds, version, outputs, duration) next to `--out`,
or in `--out-dir` as `<command>[_<figure>].manifest.json`.  Exit codes: 0
success; 1 domain failure (infeasible instance, search budget exhausted,
diverged training); 2 input error (unreadable or unwritable file, malformed or
out-of-range input).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import sys
import time
from pathlib import Path

from . import __version__, core, optimizer, pipeline, predictor, recommender, sim, telemetry, trace

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2


def _config_digest(args):
    """SHA-256 over every parsed argument but the outputs; input files by their bytes."""
    h = hashlib.sha256()
    for name, value in sorted(vars(args).items()):
        if name in ("out", "out_dir", "events", "func"):
            continue
        if name in ("scenario", "config", "trace", "dataset", "model", "infile") and value:
            value = hashlib.sha256(Path(value).read_bytes()).hexdigest()
        h.update(f"{name}={value!r}\x00".encode())
    return h.hexdigest()


def _load_trace(args):
    return trace.load_trace(args.trace or trace.bundled_trace_path())


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def cmd_optimize(args):
    scenario = core.Scenario.from_json(Path(args.scenario).read_text())
    result = optimizer.solve_exact(scenario, alpha=args.alpha, beta=args.beta,
                                   budget=args.budget)
    if violations := core.validate(scenario, result.schedule):   # a solver bug: no exit code
        raise AssertionError(f"solver returned an invalid schedule: {violations[0]}")
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
    return [args.out]


def cmd_simulate(args):
    trace_obj = _load_trace(args)
    config = sim.SimConfig.from_json(Path(args.config).read_text())
    args.seed = config.rng_seed if args.seed is None else args.seed   # the manifest's seed
    report = sim.run(dataclasses.replace(config, rng_seed=args.seed), trace_obj)
    Path(args.out).write_text(report.to_json())
    if not args.events:
        return [args.out]
    return [args.out, _write_csv(args.events, sim.EVENT_FIELDS, report.event_rows())]


def cmd_gen_dataset(args):
    trace_obj = _load_trace(args)
    dataset = telemetry.generate_labeled_dataset(trace_obj, args.source, args.rows, args.seed,
                                                 ts=args.ts)
    Path(args.out).write_text(telemetry.dataset_to_json(dataset))
    return [args.out]


def cmd_train(args):
    dataset = telemetry.dataset_from_json(Path(args.dataset).read_text())
    model = predictor.init_model(dataset.features.shape[1], dataset.num_freqs, seed=args.seed,
                                 l1_lambda=args.l1)
    report = predictor.train(model, dataset, epochs=args.epochs, batch_size=args.batch,
                             lr=args.lr, seed=args.seed)
    Path(args.out).write_bytes(predictor.export_flat(model))
    curves_path = str(args.out) + ".train.json"

    def nan_to_null(value):   # NaN marks a split too small to hold a row (under 5 rows)
        return None if math.isnan(value) else value

    Path(curves_path).write_text(json.dumps({
        "train_loss": report.train_loss,
        "val_loss": [nan_to_null(v) for v in report.val_loss],
        "val_accuracy": [nan_to_null(v) for v in report.val_accuracy],
        "test_accuracy": nan_to_null(report.test_accuracy),
        "split_sizes": list(report.split_sizes),
    }, sort_keys=True))
    return [args.out, curves_path]


def cmd_export(args):
    model = predictor.import_flat(Path(args.model).read_bytes())
    if args.format == "c_array":
        Path(args.out).write_text(predictor.export_c_array(model, args.symbol))
    else:
        Path(args.out).write_bytes(predictor.export_flat(model))
    return [args.out]


def cmd_pipeline(args):
    _, outputs = pipeline.run_pipeline(_load_trace(args), args.out_dir, args.seed,
                                       sources=tuple(args.sources.split(",")),
                                       rows=args.rows, epochs=args.epochs)
    return outputs


def cmd_recommend_generate(args):
    matrix = recommender.synthetic_ratings(args.soils, args.plants, seed=args.seed)
    recommender.save_matrix_csv(matrix, args.out)
    return [args.out]


def cmd_recommend_impute(args):
    matrix = recommender.load_matrix_csv(args.infile)
    filled = recommender.impute(matrix, k_neighbors=args.k, missing_as_zero=args.missing_as_zero)
    recommender.save_matrix_csv(filled, args.out)
    return [args.out]


def cmd_recommend_study(args):
    sparsities = tuple(int(v) for v in args.sparsities.split(","))
    report = recommender.run_study(num_soils=args.soils, num_plants=args.plants,
                                   sparsities=sparsities, num_seeds=args.seeds,
                                   k_neighbors=args.k, base_seed=args.seed,
                                   missing_as_zero=args.missing_as_zero)
    Path(args.out).write_text(json.dumps(report, sort_keys=True))
    return [args.out]


def cmd_figdata(args):
    if args.figure != "model-sizes" and not args.infile:
        raise ValueError(f"--figure {args.figure} needs --in")
    tables = []   # (file name, header, rows): all read and checked before --out-dir is made
    if args.figure == "model-sizes":
        rows = []
        for n_ch in range(2, 10):
            input_dim = telemetry.TelemetryWindow.feature_dim(args.ts, n_ch)
            model = predictor.init_model(input_dim, n_ch, seed=args.seed)
            c_text = predictor.export_c_array(model, "hopping_model")
            rows.append([n_ch, len(predictor.export_flat(model)), len(c_text.encode())])
        tables.append(("fig_model_sizes.csv", ["channels", "flat_bytes", "c_array_bytes"], rows))
    elif args.figure == "strategy-comparison":
        with open(args.infile, newline="") as fh:
            header, *rows = csv.reader(fh)
        if tuple(header) != sim.COMPARISON_FIELDS:
            raise ValueError(f"{args.infile} is not a comparison table: header {header}")
        for metric in ("rssi", "snr", "pdr"):
            tables.append((f"fig_strategy_{metric}.csv", ["size", "random_hop", "predictor_hop"],
                           [[size, rand, pred] for size, m, rand, pred, _ in rows if m == metric]))
    else:  # confusion
        report = json.loads(Path(args.infile).read_text())
        for entry in report["sparsities"]:
            pct = recommender.check_sparsity(entry["sparsity_pct"])
            tables.append((f"fig_confusion_sparsity{pct}.csv",
                           ["true\\pred"] + [str(v) for v in range(1, 6)],
                           [[t] + row for t, row in enumerate(entry["confusion"], start=1)]))
        tables.append(("fig_rating_distribution.csv", ["rating", "count"],
                       list(enumerate(report["distribution"], start=1))))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return [_write_csv(out_dir / name, header, rows) for name, header, rows in tables]


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
    given = vars(args)
    command = " ".join(filter(None, (args.command, given.get("rec_command"))))
    base = args.out if "out" in given else Path(args.out_dir) / "_".join(
        filter(None, (args.command, given.get("figure"))))
    started = time.monotonic()
    try:
        digest = _config_digest(args)   # before the run: an input may also be the output
        outputs = args.func(args)
        manifest = {
            "command": command,
            "config_digest": digest,
            "seeds": [args.seed] if "seed" in given else [],
            "tool_version": __version__,
            "outputs": [str(o) for o in outputs],
            "duration_s": round(time.monotonic() - started, 3),
        }
        Path(f"{base}.manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    except (optimizer.Infeasible, optimizer.BudgetExhausted, FloatingPointError) as exc:
        print(f"{command} failed: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
