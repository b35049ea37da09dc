"""Command-line entry point: argument parsing, dispatch, the run manifest and exit codes.

Subcommands: optimize, simulate, gen-dataset, train, export, pipeline,
recommend (generate/impute/study), figdata.  The parser is built once per
process, by the first `main` call; each parse reads each input file once, as
bytes (`_read`), and a file that an input names (a sim config's model) is
read by `args.read`, which is new for each call.  The library modules parse
those bytes and build every output document and `figdata` table; `main` writes
the run manifest (command, config digest, seeds, version, outputs, duration)
next to `--out`, or in `--out-dir` as `<command>[_<figure>].manifest.json`.
Exit codes: 0 success; 1 domain failure (infeasible, budget exhausted, diverged
training, out of memory); 2 input error (unreadable or unwritable file,
malformed input).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__, core, optimizer, pipeline, predictor, recommender, sim, telemetry, trace

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2


def _read(path):
    """The `type=` of every input option: the file's bytes, or a usage error (exit 2)."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot read {path}: {exc.strerror or exc}") from None


def _config_digest(parsed, files):
    """SHA-256 over the parsed arguments but the outputs, then each file the command read."""
    h = hashlib.sha256()
    for name, value in sorted(parsed.items()):
        if name in ("out", "out_dir", "events", "func"):
            continue
        if isinstance(value, bytes):
            value = hashlib.sha256(value).hexdigest()
        h.update(f"{name}={value!r}\x00".encode())
    for blob in files:
        h.update(f"read={hashlib.sha256(blob).hexdigest()}\x00".encode())
    return h.hexdigest()


def cmd_optimize(args):
    scenario = core.Scenario.from_json(args.scenario)
    result = optimizer.solve_exact(scenario, alpha=args.alpha, beta=args.beta,
                                   budget=args.budget)
    Path(args.out).write_text(result.to_json(scenario))
    return [args.out]


def cmd_simulate(args):
    config = sim.SimConfig.from_json(args.config, args.read)
    args.seed = config.rng_seed if args.seed is None else args.seed   # the manifest's seed
    report = sim.run(dataclasses.replace(config, rng_seed=args.seed), trace.load_trace(args.trace))
    with open(args.out, "w") as fh:   # opened first: an unwritable --events leaves it empty
        if args.events:
            with open(args.events, "w", newline="") as events_fh:
                report.write_events(events_fh)
        report.write(fh)
    return [args.out, args.events] if args.events else [args.out]


def cmd_gen_dataset(args):
    dataset = telemetry.generate_labeled_dataset(trace.load_trace(args.trace), args.source,
                                                 args.rows, args.seed, ts=args.ts)
    with open(args.out, "w") as fh:
        telemetry.write_dataset(dataset, fh)
    return [args.out]


def cmd_train(args):
    dataset = telemetry.dataset_from_json(args.dataset)
    model = predictor.init_model(dataset.features.shape[1], dataset.num_freqs, seed=args.seed,
                                 l1_lambda=args.l1)
    report = predictor.train(model, dataset, epochs=args.epochs, batch_size=args.batch,
                             lr=args.lr, seed=args.seed)
    Path(args.out).write_bytes(predictor.export_flat(model))
    curves_path = f"{args.out}.train.json"
    Path(curves_path).write_text(report.to_json())
    return [args.out, curves_path]


def cmd_export(args):
    model = predictor.import_flat(args.model)
    Path(args.out).write_bytes(predictor.export_c_array(model, args.symbol).encode()
                               if args.format == "c_array" else predictor.export_flat(model))
    return [args.out]


def cmd_pipeline(args):
    _, outputs = pipeline.run_pipeline(trace.load_trace(args.trace), args.out_dir, args.seed,
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
    Path(args.out).write_text(recommender.study_to_json(report))
    return [args.out]


def cmd_figdata(args):
    if args.figure != "model-sizes" and args.infile is None:
        raise ValueError(f"--figure {args.figure} needs --in")
    # every table is built, so its input checked, before --out-dir is made
    tables = (predictor.model_size_tables(args.ts) if args.figure == "model-sizes"
              else sim.strategy_tables(args.infile) if args.figure == "strategy-comparison"
              else recommender.confusion_tables(args.infile))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return [sim.write_csv(out_dir / name, header, rows) for name, header, rows in tables]


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(prog="lorahop")
    sub = parser.add_subparsers(dest="command", required=True)
    bundled_trace = trace.bundled_trace_path()

    p = sub.add_parser("optimize", help="solve a channel-hopping scenario exactly")
    p.add_argument("--scenario", type=_read, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--budget", type=int, default=2_000_000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("simulate", help="run a trace-driven transmission simulation")
    p.add_argument("--config", type=_read, required=True)
    p.add_argument("--trace", type=_read, default=bundled_trace,
                   help="defaults to the bundled trace")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--events", default=None, help="optional per-slot event log CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gen-dataset", help="generate a labeled channel dataset")
    p.add_argument("--trace", type=_read, default=bundled_trace)
    p.add_argument("--source", default="A")
    p.add_argument("--rows", type=int, default=5000)
    p.add_argument("--ts", type=int, default=telemetry.DEFAULT_WINDOW_SLOTS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_dataset)

    p = sub.add_parser("train", help="train the channel predictor on a dataset")
    p.add_argument("--dataset", type=_read, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--l1", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("export", help="convert a flat model file")
    p.add_argument("--model", type=_read, required=True)
    p.add_argument("--format", choices=["c_array", "flat"], default="c_array")
    p.add_argument("--symbol", default="hopping_model")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("pipeline", help="dataset -> train -> export -> compare strategies")
    p.add_argument("--trace", type=_read, default=bundled_trace)
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
    im.add_argument("--in", dest="infile", type=_read, required=True)
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
    p.add_argument("--in", dest="infile", type=_read, default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--ts", type=int, default=telemetry.DEFAULT_WINDOW_SLOTS)
    p.set_defaults(func=cmd_figdata)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    parsed = dict(vars(args))   # as parsed: simulate fills in its seed as it runs
    command = " ".join(filter(None, (args.command, parsed.get("rec_command"))))
    base = args.out if "out" in parsed else Path(args.out_dir) / "_".join(
        filter(None, (args.command, parsed.get("figure"))))
    files = []   # the files the command reads itself: a sim config's models

    def read(path):
        files.append(Path(path).read_bytes())
        return files[-1]

    args.read = read
    started = time.monotonic()
    try:
        outputs = args.func(args)
        manifest = {
            "command": command,
            "config_digest": _config_digest(parsed, files),
            "seeds": [args.seed] if "seed" in parsed else [],
            "tool_version": __version__,
            "outputs": [str(o) for o in outputs],
            "duration_s": round(time.monotonic() - started, 3),
        }
        Path(f"{base}.manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    except (optimizer.Infeasible, optimizer.BudgetExhausted, FloatingPointError,
            MemoryError) as exc:
        print(f"{command} failed: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_DOMAIN
    # RecursionError is JSON nested too deep to parse: no function in lorahop recurses
    except (OSError, ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
