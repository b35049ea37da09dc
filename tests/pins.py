"""Pinned output bytes of the CLI commands, in one table.

Each row of `PINNED` is a tuple of commands that run in order in one scratch
directory `{d}`, mapped to the SHA-256 of every file they write there but the
manifests.  `{data}` is the package's bundled data directory.  Before a row
runs, `run_row` writes into `{d}` the inputs that no command makes, each under
a name that no command writes.  Each row's digests were taken at the parent of
the change that added the row.  They pin this host's numpy and BLAS build:
another build may round a float another way.  This table is the one place an
output digest is written.

Run as a script, the module runs every row and prints the table in its own
format, with the digests this checkout writes, so two commits' tables can be
diffed:

    PYTHONPATH=src python tests/pins.py > pins.txt
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from lorahop import cli, recommender

DATA = Path(cli.__file__).resolve().parent / "data"

# The C dataset at 300 rows is two of the dataset writer's 256-row blocks, the last one
# partial, and `sparse.csv` is three of impute's 128-row blocks.  The five-command row trains
# a ts-4 model, exports it both ways and runs it as the predictor_hop node of `sim.json`; the
# three-command row runs a default ts-8 model there.  The last row runs a ts-4 model as the
# predictor_hop node of `sim_gateway_predictor.json`, whose window records only the delivered
# slots, 144 of its 360.  A 4-row dataset has no validation or test split, so its training
# curves hold null.

PINNED = {
    ("gen-dataset --source A --rows 60 --seed 3 --out {d}/dataset.json",): {
        "dataset.json": "7d5c856b80f7a90f722dcb7f373e88a174a257788a7df28acd1c94bd786e10ff"},
    ("gen-dataset --source C --rows 300 --ts 4 --seed 3 --out {d}/dataset.json",): {
        "dataset.json": "5f953f674c9cb5886bf9d49d9f4ac8e58a69adaa58751e36a67a4ceb8c7a0cff"},
    ("gen-dataset --source B --rows 1 --seed 3 --out {d}/dataset.json",): {
        "dataset.json": "09f508e4ac234f9a151d3428f1e0332332dde9b2bce8a1b554e3c8f6a509ecf2"},
    ("pipeline --rows 300 --epochs 3 --sources A,B,C --out-dir {d}",): {
        "comparison.csv": "61bdf9c066254003fbc7a8931808b998d03f29f0a24449c2e47136e8e4e94468",
        "dataset_A.json": "db7eecfbf61a237841657e9b5aa2f29b935f2511ecca4a4ec36e48f5cb808a27",
        "dataset_B.json": "eb471f6acced599d21fbebad64b53cb7aa5ffebb935ece730bc28fa2b8a36de5",
        "dataset_C.json": "63a8160f940ad9545f30901dbdd64eec11c16aa9950d3351e49c15bb33f95472",
        "model_A.fhop": "369c5d048e14bb6e851d4f2b872e3e10695631ec260d7a5d23971a1c5c60e416",
        "model_B.fhop": "b7c21df150abc75b16347a63f1f91d0816809b1a0dd77e4472a9eabeee0735e9",
        "model_C.fhop": "d339942819997c82f5400546b193de874dd07665ffd4a9255f906686db54c33e",
        "report_predictor.json": "c4bde7ba2b8637a8f9255f698ae4bb5bacefa2961ac0fd409f406759c325772e",
        "report_random.json": "46e6df55254ba75e3c60f4b3259ac7e81048c92835144011448a436b020becf1"},
    ("optimize --scenario {data}/scenarios/three_nodes_two_freqs.json --out {d}/result.json",): {
        "result.json": "124147849cd0f2e9e3934e9fc61475894227d6e925b5faa9a569447a850e5fb3"},
    ("gen-dataset --source C --rows 300 --ts 4 --seed 5 --out {d}/dataset.json",
     "train --dataset {d}/dataset.json --epochs 20 --seed 5 --out {d}/model.fhop",
     "export --model {d}/model.fhop --format c_array --out {d}/model.h",
     "export --model {d}/model.fhop --format flat --out {d}/model_flat.fhop",
     "simulate --config {d}/sim.json --out {d}/report.json --events {d}/events.csv"): {
        "dataset.json": "722ef715b260cca6ca1d6cb5a1d0d9119acc4b3eabf775ea4f87c04befd6ddab",
        "events.csv": "d90fa83eb04d09bef36067514c8de97257c3f45debaa862eb24fdf6f7ddc5ed1",
        "model.fhop": "2d1cfe56b5a660bee1db0f7a2c90be8158ee767343ad14b691ceb1d9265b4172",
        "model.fhop.train.json": "a5dde35fd8d62a27828d541bca52e2dfa67dded05163e9d800f8c03b08856bce",
        "model.h": "157f4034a232848275e215d84e100172fd6ff7483a9ae062d9b73b47e1d8f2de",
        "model_flat.fhop": "2d1cfe56b5a660bee1db0f7a2c90be8158ee767343ad14b691ceb1d9265b4172",
        "report.json": "59ff7800368df20c2dfa38dae1ae95e08bea9adfd6525d988a85adb9ba03d271"},
    ("recommend impute --in {d}/sparse.csv --out {d}/filled.csv",): {
        "filled.csv": "5ca282740ecbdee06c5933ed1cd8269dc408a84c69b985bd2757f60617d40df5"},
    ("recommend impute --in {d}/sparse.csv --missing-as-zero --out {d}/filled.csv",): {
        "filled.csv": "caec0fed7cb3012f375c2467d61f959717baed21a25d42bf3b3b03ac077fb282"},
    ("recommend impute --in {d}/sparse.csv --k 3 --out {d}/filled.csv",): {
        "filled.csv": "867673486262df2a78413688b04394268e835f457693de9b7478bd3b86e4f13c"},
    ("recommend impute --in {d}/sparse.csv --k 3 --missing-as-zero --out {d}/filled.csv",): {
        "filled.csv": "bade007c13adb6bcca7b98b3cd3b5617286a971079316cca0edd017fa0aaee00"},
    ("recommend impute --in {d}/sparse200.csv --k 7 --out {d}/filled.csv",): {
        "filled.csv": "69678702cf118a2cf184e5a5ed450f7f6fa8903fef245c51d74b3b39050a23db"},
    ("recommend impute --in {d}/sparse200.csv --k 7 --missing-as-zero --out {d}/filled.csv",): {
        "filled.csv": "1730cc79e5e3a06d7981fb6a42c12ff8bf43192868e6c3d9549ce4c749d98154"},
    ("recommend generate --soils 300 --plants 12 --out {d}/full.csv",): {
        "full.csv": "37ec91fcec9b7f9542baa67b657ce995c7576002a6c16a4fd80615bf79c55080"},
    ("simulate --config {d}/sim_end_node.json --out {d}/report.json --events {d}/events.csv",): {
        "events.csv": "4910c093e8e24bdd81dfb98a488bba48338bd31c0fa5f3f9f7ed45894a23d941",
        "report.json": "00366a3aecd939bc8742632101ec40e842e15c353a097778bafcc3b40cdab670"},
    ("simulate --config {d}/sim_gateway.json --out {d}/report.json --events {d}/events.csv",): {
        "events.csv": "53928c75d727a3f03f2940f30ee18a80c09e5d85ec1fa7dada18853cde8db99e",
        "report.json": "dad7182c812b52971dcb2f6f8b70b6695e5cb65b4308d5d0efeed0ecc5f206c7"},
    ("gen-dataset --source C --rows 300 --seed 1 --out {d}/dataset.json",
     "train --dataset {d}/dataset.json --epochs 20 --seed 1 --out {d}/model.fhop",
     "simulate --config {d}/sim.json --out {d}/report.json --events {d}/events.csv"): {
        "dataset.json": "4370707268f4140391ff499c8f9c34bca44d51b35730d1d628461db8cee38134",
        "events.csv": "0e29aabb562e7fa7be15d4c07096db01bd227a664b9d132a461805e75b5d0192",
        "model.fhop": "c951c71a322155f21b38d7163154a3d271b813cae2f777374a199447c9d86abd",
        "model.fhop.train.json": "6c7e4a27b9908827784fcc2025aa42926c41cef657adaf5e325b3fca07bf1875",
        "report.json": "271b28c263fdbda90a096e37a11a6342c3ee6c59c3893efbe30b4942c8d2222f"},
    ("recommend study --sparsities 10,50,90 --seeds 2 --out {d}/study.json",): {
        "study.json": "1ae9dad4e99589dc2c7b7f687dbe582e0b58de84a00f5acb4edd5f2170334858"},
    ("figdata --figure strategy-comparison --in {d}/comparison_in.csv --out-dir {d}",): {
        "fig_strategy_pdr.csv": "d35d0c2fa793286d8963f205a0b87e9b1f36dd29492e815c014d82302c366f5d",
        "fig_strategy_rssi.csv": "ed01225289fdfee51ce79bdee6b05206b83d248d63208edbaa107f4447cdb7ec",
        "fig_strategy_snr.csv": "983a66394080c4ca6ba2fc4e91cfb9e373c535d83a4635eb19730ee13871ac1f"},
    ("figdata --figure confusion --in {d}/study_in.json --out-dir {d}",): {
        "fig_confusion_sparsity10.csv": "7530e84e95c473c298427a2d52fa15c3689d6f61b4b2efd00463468f4ee775b5",
        "fig_confusion_sparsity70.csv": "2e341fd6d7fa877857be2cf12979fa91e13fa43f80cdce183e88dd9a0246056d",
        "fig_rating_distribution.csv": "a7db2c1e2c8ef7cae8fa947aedf650b6bf63f636139c86569a4402ce4320d19c"},
    ("figdata --figure model-sizes --out-dir {d}",): {
        "fig_model_sizes.csv": "16aa98931ae78cb543a919c053cca92dc82c19665316e160c1c9e63f757b8a1d"},
    ("gen-dataset --rows 4 --seed 1 --out {d}/dataset.json",
     "train --dataset {d}/dataset.json --epochs 2 --out {d}/model.fhop"): {
        "dataset.json": "d469ad3df94cb18ff0a5ecc76663e0ca7c0a74a0e2566ca1ac312e28ba3ee75d",
        "model.fhop": "94aab3eabfebedcb7ed188a1e8529b3458d69e6bbd7fffa6a7dd2d7c08d15d4f",
        "model.fhop.train.json": "eebe88659d0199fbb3fb327c2ff9dcdc0ec98ba78c27a1af21dba6123d894a31"},
    ("optimize --scenario {data}/scenarios/tiny_single_node.json --out {d}/result.json",): {
        "result.json": "664179043b30fc27445513273738e42b147c1581dcf68cf20fa9d98bd3c3332c"},
    ("gen-dataset --source C --rows 200 --ts 4 --seed 8 --out {d}/dataset.json",
     "train --dataset {d}/dataset.json --epochs 10 --seed 8 --out {d}/model.fhop",
     "simulate --config {d}/sim_gateway_predictor.json --out {d}/report.json --events {d}/events.csv"): {
        "dataset.json": "599c98cca94933037a4c8b1bb433b28dbacce9cc4f74510584c10e4e5a859efd",
        "events.csv": "4d4eeebeff9a389fb767ec48fa82e4c78c9077621ee5833fd8e4b04fde7231e6",
        "model.fhop": "1167e9f2932f28037251dd4e94d0747a0633a14dc5f76abb27d59ed546d146dc",
        "model.fhop.train.json": "e8c4b3d07c6497116ff777848f78f2ae467ed1955bf145980901ede97db3363f",
        "report.json": "cd4654064e8872d1faf4fda6409c964736c12fd87280bebae3b8b772b421ca04"},
}

# name -> the bytes or JSON document of an input no command makes; "{d}" is the row's directory
INPUTS = {
    # three strategies contending for C's three channels; the predictor node reads {d}/model.fhop
    "sim.json": {
        "nodes": [{"source": "C", "strategy": {"kind": "predictor_hop", "model": "{d}/model.fhop"}},
                  {"source": "A", "strategy": {"kind": "sensing_hop"}},
                  {"source": "B", "strategy": {"kind": "random_hop"}}],
        "packets_per_size": 40, "seed": 4},
    "sim_end_node.json": {
        "nodes": [{"source": "A", "strategy": {"kind": "sensing_hop"}},
                  {"source": "B", "strategy": {"kind": "random_hop"}},
                  {"source": "C", "strategy": {"kind": "fixed", "freq": 869.0}}],
        "packets_per_size": 40, "seed": 4, "predictor_placement": "end_node"},
    # the sensing node reads only the slots its gateway heard: the delivered ones
    "sim_gateway.json": {
        "nodes": [{"source": "A", "strategy": {"kind": "random_hop"}},
                  {"source": "B", "strategy": {"kind": "sensing_hop"}},
                  {"source": "C", "strategy": {"kind": "random_hop"}}],
        "packets_per_size": 30, "seed": 5, "predictor_placement": "gateway"},
    # a predictor node under gateway placement: its window records only the delivered slots
    "sim_gateway_predictor.json": {
        "nodes": [{"source": "C", "strategy": {"kind": "predictor_hop", "model": "{d}/model.fhop"}},
                  {"source": "A", "strategy": {"kind": "random_hop"}},
                  {"source": "B", "strategy": {"kind": "sensing_hop"}}],
        "packets_per_size": 60, "seed": 6, "predictor_placement": "gateway"},
    # a comparison table as `pipeline` writes it, one improvement undefined
    "comparison_in.csv": (
        b"size,metric,random_hop,predictor_hop,improvement\r\n"
        b"30,rssi,-92.5,-88.25,4.594594594594595\r\n30,snr,3.5,5.0,42.857142857142854\r\n"
        b"30,pdr,0.8,0.95,0.1499999999999999\r\n60,rssi,-95.0,-95.0,0.0\r\n"
        b"60,snr,-1.0,0.5,nan\r\n60,pdr,0.5,0.5,0.0\r\n"),
    # a study of two sparsities, the first one's confusion matrix the 5x5 identity
    "study_in.json": {
        "sparsities": [
            {"sparsity_pct": 10, "confusion": [[int(r == c) for c in range(5)] for r in range(5)]},
            {"sparsity_pct": 70, "confusion": [[0, 2, 0, 0, 0], [1, 3, 0, 0, 4], [0, 0, 5, 0, 0],
                                               [0, 0, 0, 6, 0], [0, 0, 0, 0, 7]]}],
        "distribution": [1, 2, 3, 4, 5]},
}


def run_row(row, d):
    """Write into the directory `d` the inputs no command makes, `sparse.csv` and
    `sparse200.csv` (300 and 200 soils by 12 plants at 60% sparsity) and `INPUTS`, then run
    the row's commands there; returns {file a command wrote: its SHA-256}, manifests left
    out.  Raises if a command fails or writes over an input."""
    d = Path(d)
    for soils, name in ((300, "sparse.csv"), (200, "sparse200.csv")):
        recommender.save_matrix_csv(recommender.sparsify(
            recommender.synthetic_ratings(soils, 12, seed=5), 60, seed=5), d / name)
    for name, data in INPUTS.items():
        if not isinstance(data, bytes):
            data = json.dumps(data).replace("{d}", str(d)).encode()
        (d / name).write_bytes(data)
    inputs = [p.name for p in d.iterdir()]
    for name in inputs:   # time 0: a command that writes the file moves its time
        os.utime(d / name, ns=(0, 0))
    for command in row:
        argv = [arg.format(d=d, data=DATA) for arg in command.split()]
        if cli.main(argv) != 0:
            raise AssertionError(f"{command} failed")
        if any((d / name).stat().st_mtime_ns for name in inputs):
            raise AssertionError(f"{command} wrote over an input")
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(d.iterdir())
            if p.name not in inputs and not p.name.endswith(".manifest.json")}


def format_table(table):
    """The source text of a table like `PINNED`."""
    lines = ["PINNED = {"]
    for row, digests in table.items():
        commands = ",\n     ".join(json.dumps(command) for command in row)
        lines.append(f"    ({commands}{',' if len(row) == 1 else ''}): {{")
        lines += [f"        {json.dumps(name)}: {json.dumps(sha)}," for name, sha in
                  digests.items()]
        lines[-1] = lines[-1][:-1] + "},"
    return "\n".join(lines + ["}"])


if __name__ == "__main__":
    table = {}
    for row in PINNED:
        with tempfile.TemporaryDirectory() as d:
            table[row] = run_row(row, d)
    sys.stdout.write(format_table(table) + "\n")
