"""The four benchmark workloads: seeded inputs, the CLI commands of one pass, output checks.

Every workload drives the public entry point `lorahop.cli.main(argv)` in
process.  `setup` makes the inputs from the seed, `commands` lists the CLI
calls of one pass as (label, argv), and `check` turns each call's exit code
and outputs into a failure text ("" when the call is correct) plus the
workload's quality figures.
"""

from __future__ import annotations

import csv
import json
import math
import random
import traceback
from pathlib import Path

import numpy as np

from tracing import RUNGS


def call_cli(lh, argv):
    """Run one CLI command; returns (exit code or None, error text)."""
    try:
        rc = lh["cli"].main(argv)
    except Exception:  # noqa: BLE001 - a crash is a failed operation, not a harness error
        return None, traceback.format_exc()
    return rc, "" if rc == 0 else f"exit code {rc}"


class Workload:
    name = ""
    primary_quality = ""
    expected_spans = ()

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.out = self.workdir / "out"

    def setup(self, lh):
        """Load the bundled trace and write this workload's inputs."""
        lh["trace"].load_bundled_trace()
        self.out.mkdir(parents=True, exist_ok=True)

    def commands(self):
        """The CLI calls of one pass, as [(label, argv)]."""
        raise NotImplementedError

    def check(self, lh, calls):
        """calls: [(label, exit code or None, error text)].

        Returns (failure text per call, primary output paths, quality figures).
        """
        raise NotImplementedError


class Pipeline(Workload):
    name = "pipeline"
    primary_quality = "pred_pdr_min"
    expected_spans = ("cli.main", "trace.load_trace", "telemetry.generate_labeled_dataset",
                      "telemetry.TelemetryWindow.snapshot", "predictor.train",
                      "predictor.loss_and_grads", "predictor.forward",
                      "predictor.predict_channel", "sim.run", "trace.ChannelSampler.sample")
    sizes = 6

    def commands(self):
        return [("pipeline", ["pipeline", "--out-dir", str(self.out), "--sources", "A,B",
                              "--seed", str(self.seed)])]

    def check(self, lh, calls):
        (_, rc, err), = calls
        outputs = [self.out / n for n in ("dataset_A.json", "dataset_B.json", "model_A.fhop",
                                          "model_B.fhop", "report_random.json",
                                          "report_predictor.json", "comparison.csv")]
        if rc != 0:
            return [err], outputs, {}
        with open(self.out / "comparison.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        pdr = [float(r["predictor_hop"]) for r in rows if r["metric"] == "pdr"]
        rssi = [(float(r["random_hop"]), float(r["predictor_hop"]), float(r["improvement"]))
                for r in rows if r["metric"] == "rssi"]
        failures = []
        if len(pdr) != self.sizes or len(rssi) != self.sizes:
            failures.append(f"comparison.csv covers {len(pdr)} sizes, expected {self.sizes}")
        if not all(0.0 <= p <= 1.0 for p in pdr):
            failures.append(f"predictor PDR outside [0, 1]: {pdr}")
        if not all(math.isclose(g, (abs(b) - abs(a)) / abs(b) * 100, abs_tol=1e-9)
                   for b, a, g in rssi):
            failures.append("RSSI improvement does not follow from the RSSI columns")
        # Acceptance criterion 4 (PDR >= 0.98, |RSSI| no worse than random at every
        # size) is asserted for seed 7 only and misses on some other seeds, so here
        # it is a quality figure, not a failed operation.
        quality = {"pred_pdr_min": min(pdr, default=0.0),
                   "pred_rssi_gain_pct": float(np.mean([g for _, _, g in rssi])) if rssi else 0.0,
                   "criterion4_met": float(all(p >= 0.98 for p in pdr)
                                           and all(abs(a) <= abs(b) for b, a, _ in rssi))}
        return [" / ".join(failures)], outputs, quality


# Objectives of the rungs the solver proved optimal when this benchmark was
# defined (commit bc53fb2), and the incumbents it reached on the rungs that stop
# at the budget; no rung may end above these.
REFERENCE_OBJECTIVE = {"3x3": 0.0, "4x3": 0.2, "5x3": 0.4}
INCUMBENT_CEILING = {**REFERENCE_OBJECTIVE, "4x4": 0.4, "5x4": 0.6}
ALPHA, BETA = 1.0, 0.1
EU868_CARRIERS = (867.1, 867.3, 867.5, 867.7, 867.9, 868.1, 868.3, 868.5)


class OptimizeLadder(Workload):
    name = "optimize-ladder"
    primary_quality = "proven_optimal_frac"
    expected_spans = ("cli.main", "optimizer.solve_exact", "core.schedule_from_x")

    def setup(self, lh):
        super().setup(lh)
        # every rung is symmetric in nodes and carriers, so the seed only picks
        # carrier values: the search, and so every count, is the same for all seeds
        freqs = tuple(sorted(random.Random(self.seed).sample(EU868_CARRIERS, 3)))
        self.scenarios = {}
        for rung in RUNGS:
            n, t = (int(v) for v in rung.split("x"))
            scenario = lh["core"].Scenario(
                num_nodes=n, num_gateways=1, frequencies=freqs, horizon=t,
                gateway_capacity=(n,), freq_capacity=(6, 6, 6), min_symbols=2,
                demand=(6,) * n)
            path = self.workdir / f"scenario_{rung}.json"
            path.write_text(scenario.to_json())
            self.scenarios[rung] = (scenario, path)

    def commands(self):
        return [(rung, ["optimize", "--scenario", str(self.scenarios[rung][1]),
                        "--alpha", str(ALPHA), "--beta", str(BETA),
                        "--out", str(self.out / f"result_{rung}.json")])
                for rung in RUNGS]

    def check(self, lh, calls):
        core = lh["core"]
        failures, proven, objective_sum = [], 0, 0.0
        for rung, rc, err in calls:
            if rc != 0:
                failures.append(err)
                continue
            doc = json.loads((self.out / f"result_{rung}.json").read_text())
            x = np.asarray(doc["x"], dtype=bool)
            schedule = core.Schedule(x=x, s=np.asarray(doc["s"], dtype=np.int64),
                                     z=np.asarray(doc["z"], dtype=bool),
                                     delta=core.collision_triggers_from_x(x))
            problems = []
            violations = core.validate(self.scenarios[rung][0], schedule)
            if violations:
                problems.append(f"{rung}: {len(violations)} violations, first {violations[0]}")
            objective = ALPHA * doc["collisions"] + BETA * doc["hops"]
            objective_sum += objective
            proven += bool(doc["proven_optimal"])
            if doc["proven_optimal"] and rung in REFERENCE_OBJECTIVE \
                    and not math.isclose(objective, REFERENCE_OBJECTIVE[rung], abs_tol=1e-9):
                problems.append(f"{rung}: proven objective {objective} != "
                                f"reference {REFERENCE_OBJECTIVE[rung]}")
            if objective > INCUMBENT_CEILING[rung] + 1e-9:
                problems.append(f"{rung}: objective {objective} above {INCUMBENT_CEILING[rung]}")
            failures.append("; ".join(problems))
        outputs = [self.out / f"result_{rung}.json" for rung in RUNGS]
        quality = {"proven_optimal_frac": proven / len(RUNGS), "objective_sum": objective_sum}
        return failures, outputs, quality


class RecommendStudy(Workload):
    name = "recommend-study"
    primary_quality = "study_accuracy"
    expected_spans = ("cli.main", "recommender.sparsify", "recommender.impute",
                      "recommender.similarity_matrix", "recommender.evaluate")
    sparsities = (10, 30, 50, 70, 90)

    def commands(self):
        return [("study", ["recommend", "study",
                           "--sparsities", ",".join(map(str, self.sparsities)),
                           "--seed", str(self.seed), "--out", str(self.out / "study.json")])]

    def check(self, lh, calls):
        (_, rc, err), = calls
        outputs = [self.out / "study.json"]
        if rc != 0:
            return [err], outputs, {}
        report = json.loads(outputs[0].read_text())
        covered = tuple(e["sparsity_pct"] for e in report["sparsities"])
        failure = "" if covered == self.sparsities else f"study covers sparsities {covered}"
        accuracy = float(np.mean([e["mean_accuracy"] for e in report["sparsities"]]))
        return [failure], outputs, {"study_accuracy": accuracy}


class SimulateContended(Workload):
    name = "simulate-contended"
    primary_quality = "sim_pdr"
    expected_spans = ("cli.main", "trace.load_trace", "sim.run", "trace.ChannelSampler.sample",
                      "predictor.predict_channel", "predictor.forward",
                      "telemetry.TelemetryWindow.snapshot")
    packets_per_size = 2000
    # a small model keeps set-up short; the contention, not the model, sets the PDR
    model_rows, model_epochs = 1500, 20

    def setup(self, lh):
        super().setup(lh)
        dataset, model = self.workdir / "dataset_A.json", self.workdir / "model_A.fhop"
        for argv in (["gen-dataset", "--source", "A", "--rows", str(self.model_rows),
                      "--seed", str(self.seed), "--out", str(dataset)],
                     ["train", "--dataset", str(dataset), "--epochs", str(self.model_epochs),
                      "--seed", str(self.seed), "--out", str(model)]):
            rc, err = call_cli(lh, argv)
            if rc != 0:
                raise RuntimeError(f"set-up command {argv[0]} failed: {err}")
        self.config = self.workdir / "sim.json"
        self.config.write_text(json.dumps({
            "nodes": [{"source": "A", "strategy": {"kind": "predictor_hop", "model": str(model)}},
                      {"source": "B", "strategy": {"kind": "sensing_hop"}},
                      {"source": "C", "strategy": {"kind": "random_hop"}}],
            "packets_per_size": self.packets_per_size,
            "seed": self.seed,
        }))

    def commands(self):
        return [("simulate", ["simulate", "--config", str(self.config),
                              "--out", str(self.out / "report.json"),
                              "--events", str(self.out / "events.csv")])]

    def check(self, lh, calls):
        (_, rc, err), = calls
        outputs = [self.out / "report.json", self.out / "events.csv"]
        if rc != 0:
            return [err], outputs, {}
        rows = json.loads(outputs[0].read_text())["rows"]
        failures = []
        if len(rows) != 3 * 6:
            failures.append(f"{len(rows)} report rows, expected 18")
        for r in rows:
            if r["sent"] != self.packets_per_size or not 0 <= r["delivered"] <= r["sent"]:
                failures.append(f"row {r['node']}/{r['size']}: sent {r['sent']} "
                                f"delivered {r['delivered']}")
        sent = sum(r["sent"] for r in rows)
        pdr = sum(r["delivered"] for r in rows) / sent if sent else 0.0
        return [" / ".join(failures)], outputs, {"sim_pdr": pdr}


WORKLOADS = {w.name: w for w in (Pipeline, OptimizeLadder, RecommendStudy, SimulateContended)}
# quality figures reported by name in the traced run; 0 on workloads without them
QUALITY_NAMES = ("pred_pdr_min", "pred_rssi_gain_pct", "proven_optimal_frac", "objective_sum",
                 "study_accuracy", "sim_pdr")
