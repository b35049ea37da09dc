"""Reference routes the tests compare the package against.

Each helper here is a second, independent way to compute something `lorahop`
computes once: a schedule's weighted objective and the exhaustive schedule
oracle for `optimizer.solve_exact`, a recursive symbol search for its max-flow
check, a rescan of every run for its run heuristic, a per-pair cosine for `recommender.similarity_matrix`, a stable-sort
`recommender.impute`, a parser for `predictor.export_c_array` headers, a
row lookup on simulator reports, the per-(node, size) grouping that made
simulator report rows, the whole-document writers that
`telemetry.write_dataset` and `sim.SimReport.write` replaced, a `ChannelSampler`
that draws one normal at a time, and the simulator's slot loop run on it.
"""

import csv
import io
import json
import re
import zlib
from dataclasses import asdict
from operator import itemgetter

import numpy as np

from lorahop import core, optimizer, predictor, recommender, sim, trace

_ORACLE_CHUNK = 200_000   # choice vectors the oracle scores per numpy pass


class EnumerationCapExceeded(Exception):
    def __init__(self, states, cap):
        self.states = states
        super().__init__(f"state space too large to enumerate: {states} > cap {cap}")


def objective(scenario, schedule, alpha, beta):
    """Weighted sum alpha * collisions + beta * hops."""
    core.check_weights(alpha, beta)
    return (alpha * core.collision_count(scenario, schedule)
            + beta * core.hop_count(scenario, schedule))


def _decode_choices(indices, positions, base):
    """Choice matrix for global state indices; value 0 = idle, v>0 = channel v-1."""
    out = np.empty((len(indices), positions), dtype=np.int64)
    rest = np.asarray(indices, dtype=np.int64).copy()
    for p in range(positions - 1, -1, -1):
        out[:, p] = rest % base
        rest //= base
    return out


def _symbols_by_enumeration(scenario, choices):
    """Direct recursive search over symbol counts (oracle route, no flow)."""
    n_nodes, f_n = scenario.num_nodes, scenario.num_freqs
    bmin = scenario.min_symbols
    active = [(i, t, c) for t in range(scenario.horizon) for i in range(n_nodes)
              if (c := choices[t * n_nodes + i]) >= 0]
    rem = list(scenario.demand)
    for i in range(n_nodes):
        if rem[i] > 0 and not any(a[0] == i for a in active):
            return None
    cs_cap = {}
    for i, t, c in active:
        cs_cap[(t, c)] = scenario.freq_capacity[c % f_n]
    # per node, suffix counts/capacity to window the residual demand
    suffix_cnt = [[0] * n_nodes for _ in range(len(active) + 1)]
    suffix_cap = [[0] * n_nodes for _ in range(len(active) + 1)]
    for pos in range(len(active) - 1, -1, -1):
        i, t, c = active[pos]
        for j in range(n_nodes):
            suffix_cnt[pos][j] = suffix_cnt[pos + 1][j] + (1 if j == i else 0)
            suffix_cap[pos][j] = suffix_cap[pos + 1][j] + \
                (scenario.freq_capacity[c % f_n] - bmin if j == i else 0)
    assigned = {}

    def recurse(pos):
        if pos == len(active):
            return all(r == 0 for r in rem)
        i, t, c = active[pos]
        cap_here = min(scenario.freq_capacity[c % f_n], cs_cap[(t, c)])
        future_cnt = suffix_cnt[pos + 1][i]
        future_cap = suffix_cap[pos + 1][i]
        hi = min(cap_here, rem[i] - future_cnt * bmin)
        lo = max(bmin, rem[i] - future_cnt * bmin - future_cap)
        for s_val in range(hi, lo - 1, -1):
            rem[i] -= s_val
            cs_cap[(t, c)] -= s_val
            if recurse(pos + 1):
                assigned[(i, t, c)] = s_val
                rem[i] += s_val
                cs_cap[(t, c)] += s_val
                return True
            rem[i] += s_val
            cs_cap[(t, c)] += s_val
        return False

    if not recurse(0):
        return None
    s = np.zeros((n_nodes, scenario.num_gateways, f_n, scenario.horizon), dtype=np.int64)
    for (i, t, c), v in assigned.items():
        g, f = divmod(c, f_n)
        s[i, g, f, t] = v
    return s


def enumerate_oracle(scenario, alpha=1.0, beta=0.1, cap=10_000_000):
    """Exhaustive enumeration of all channel assignments; exact optimum.

    Choice vectors are enumerated in lexicographic order and stably sorted by
    objective, so ties resolve to the first optimal choice vector in
    lexicographic order, the same schedule `solve_exact` returns.  Refuses
    instances whose state count exceeds `cap`.
    """
    core.check_weights(alpha, beta)
    n_nodes, n_gw, f_n = scenario.num_nodes, scenario.num_gateways, scenario.num_freqs
    horizon = scenario.horizon
    n_ch = n_gw * f_n
    base = n_ch + 1
    positions = n_nodes * horizon
    states = base ** positions
    if states > cap:
        raise EnumerationCapExceeded(states, cap)

    bmin = scenario.min_symbols
    bmax = max(scenario.freq_capacity)
    demand = np.asarray(scenario.demand)
    feasible_idx = []
    feasible_obj = []

    for start in range(0, states, _ORACLE_CHUNK):
        idx = np.arange(start, min(start + _ORACLE_CHUNK, states), dtype=np.int64)
        ch = _decode_choices(idx, positions, base).reshape(len(idx), horizon, n_nodes)
        ok = np.ones(len(idx), dtype=bool)
        collisions = np.zeros(len(idx), dtype=np.int64)
        for k in range(n_ch):
            occ_k = (ch == k + 1).sum(axis=2)
            collisions += (occ_k * (occ_k - 1)).sum(axis=1)
            ok &= (occ_k * bmin <= scenario.freq_capacity[k % f_n]).all(axis=1)
            if horizon > 1:
                ok &= ~((occ_k[:, :-1] >= 2) & (occ_k[:, 1:] != 1)).any(axis=1)
        for g in range(n_gw):
            load = np.zeros((len(idx), horizon), dtype=np.int64)
            for f in range(f_n):
                load += (ch == g * f_n + f + 1).sum(axis=2)
            ok &= (load <= scenario.gateway_capacity[g]).all(axis=1)
        active_per_node = (ch != 0).sum(axis=1)
        ok &= (active_per_node * bmin <= demand).all(axis=1)
        ok &= (demand <= active_per_node * bmax).all(axis=1)
        hops = np.zeros(len(idx), dtype=np.int64)
        if horizon > 1:
            hops = (ch[:, 1:, :] != ch[:, :-1, :]).sum(axis=(1, 2))
        obj = alpha * collisions + beta * hops
        feasible_idx.append(idx[ok])
        feasible_obj.append(obj[ok])

    idx_all = np.concatenate(feasible_idx)
    obj_all = np.concatenate(feasible_obj)
    order = np.argsort(obj_all, kind="stable")
    for rank in order:
        choices = _decode_choices([idx_all[rank]], positions, base)[0] - 1
        s = _symbols_by_enumeration(scenario, list(choices))
        if s is not None:
            sched = optimizer._schedule_from_choices(scenario, list(choices), s)
            return optimizer.SolveResult(
                schedule=sched,
                objective_value=float(obj_all[rank]),
                nodes_explored=int(states),
                proven_optimal=True,
                prunes={},
            )
    raise optimizer.Infeasible(core.ConstraintFamily.DEMAND.value,
                               "exhaustive enumeration found no schedule")


def run_heuristic_by_rescan(scenario, slot_bounds, alpha, beta):
    """`optimizer._run_incumbent`'s value with no running counts: each open run is priced
    slot by slot, and the collision-free places it would leave are counted again over the
    whole occupancy with the run placed."""
    horizon, f_n, n_gw = scenario.horizon, scenario.num_freqs, scenario.num_gateways
    n_ch, n_nodes = n_gw * f_n, scenario.num_nodes
    max_users = [scenario.freq_capacity[c % f_n] // scenario.min_symbols for c in range(n_ch)]
    occ = np.zeros((horizon, n_ch), dtype=np.int64)

    def places(occ):
        by_gw = occ.reshape(horizon, n_gw, f_n)
        return int(np.minimum((by_gw == 0).sum(axis=2),
                              np.asarray(scenario.gateway_capacity) - by_gw.sum(axis=2)).sum())

    choices = [-1] * (n_nodes * horizon)
    coll = hops = 0
    for i, (k_lo, k_hi) in enumerate(slot_bounds):
        need = sum(lo for lo, _ in slot_bounds[i + 1:])
        spans = [range(start, start + k_lo) for start in range(horizon - k_lo + 1) if k_lo] \
            + [range(horizon - k, horizon) for k in range(k_lo + 1, k_hi + 1)]
        best = None
        for span in spans:
            for c in range(n_ch):
                g = c // f_n
                if not all(occ[t, g * f_n:(g + 1) * f_n].sum() < scenario.gateway_capacity[g]
                           and occ[t, c] < max_users[c] for t in span):
                    continue
                run_coll = 2 * int(sum(occ[t, c] for t in span))
                run_hops = (span.start > 0) + (span.stop < horizon)
                placed = occ.copy()
                placed[list(span), c] += 1
                key = (places(placed) < need, alpha * run_coll + beta * run_hops)
                if best is None or key < best[0]:
                    best = key, placed, span, c, run_coll, run_hops
        if best is not None:
            _, occ, span, c, run_coll, run_hops = best
            coll, hops = coll + run_coll, hops + run_hops
            for t in span:
                choices[t * n_nodes + i] = c
    evicted = ((occ[:-1] >= 2) & (occ[1:] != 1)).any()
    if evicted or optimizer._symbols_by_flow(scenario, choices) is None:
        return float("inf")
    return alpha * coll + beta * hops


def cosine(x, y, missing_as_zero=False):
    """Cosine similarity of two rating rows; None when undefined."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError("rows must have equal length")
    if missing_as_zero:
        xv = np.nan_to_num(x)
        yv = np.nan_to_num(y)
    else:
        common = recommender.present_mask(x) & recommender.present_mask(y)
        if not common.any():
            return None
        xv = x[common]
        yv = y[common]
    nx = np.linalg.norm(xv)
    ny = np.linalg.norm(yv)
    if nx == 0.0 or ny == 0.0:
        return None
    return float(np.dot(xv, yv) / (nx * ny))



def stable_order_impute(sparse, k_neighbors=20, missing_as_zero=False):
    """`recommender.impute` with its neighbour order from a stable argsort.

    Each row's neighbours are ordered by `np.argsort(-sim, kind="stable")`
    (highest similarity first, ties to the lower row, undefined last) and
    inverted into unique ranks; the column step is the same, so the output
    must be byte-equal to `impute`'s.
    """
    sparse = recommender.check_matrix(sparse)
    mask = recommender.present_mask(sparse)
    sim = recommender.similarity_matrix(sparse, missing_as_zero=missing_as_zero)
    np.fill_diagonal(sim, np.nan)
    row_means = np.nansum(sparse, axis=1) / mask.sum(axis=1)
    n = sparse.shape[0]
    k = min(k_neighbors, n)
    order = np.argsort(-sim, axis=1, kind="stable")
    rank = np.empty((n, n), dtype=np.int64)             # rank[i, r]: place of r in order[i]
    rank[np.arange(n)[:, None], order] = np.arange(n)
    rank[np.isnan(sim)] = n                             # an undefined similarity never votes
    out = sparse.copy()
    for j in range(sparse.shape[1]):
        missing = np.flatnonzero(~mask[:, j])
        if not missing.size:
            continue
        ranks = rank[np.ix_(missing, np.flatnonzero(mask[:, j]))]
        if ranks.shape[1] > k:
            ranks = np.partition(ranks, k - 1, axis=1)[:, :k]
        ranks.sort(axis=1)
        row, slot = np.nonzero(ranks < n)
        voter = order[missing[row], ranks[row, slot]]
        sims, ratings = np.zeros((2, missing.size, k))
        sims[row, slot] = sim[missing[row], voter]
        ratings[row, slot] = sparse[voter, j]
        weight = sims.sum(axis=1)
        value = np.divide((sims * ratings).sum(axis=1), weight,
                          out=row_means[missing], where=weight > 0)
        out[missing, j] = np.clip(np.floor(value + 0.5), recommender.RATING_MIN,
                                  recommender.RATING_MAX)
    return out

def parse_c_array(text):
    """Recover the byte payload from an `export_c_array` header."""
    match = re.search(r"=\s*\{(.*?)\};", text, re.S)
    if not match:
        raise predictor.ModelFormatError("no byte array found")
    tokens = [t.strip() for t in match.group(1).replace("\n", " ").split(",") if t.strip()]
    return bytes(int(t, 16) for t in tokens)


def report_row(report, node, size):
    """The `sim.ReportRow` of one (node, payload size) in a `SimReport`."""
    for r in report.rows:
        if r.node == node and r.size == size:
            return r
    raise KeyError((node, size))


def dataset_to_json(dataset):
    """The dataset document built as one tree, then one string."""
    doc = {
        "metadata": {"ts": dataset.ts, "F": dataset.num_freqs, "normalization": "v1"},
        "rows": [{"features": features, "label": label} for features, label
                 in zip(dataset.features.tolist(), dataset.labels.tolist())],
    }
    return json.dumps(doc, sort_keys=True)


def event_dicts(report):
    """Each event of a `sim.SimReport` as a dict of Python values, keys in `sim.EVENT_FIELDS`
    order, its node and carrier looked up in the report's `sources` and `freqs`."""
    return [dict(zip(sim.EVENT_FIELDS, (slot, report.sources[node], "GW0", report.freqs[freq],
                                        size, *rest)))
            for slot, node, freq, size, *rest in report.events.tolist()]   # `EVENT_DTYPE` order


def rows_by_grouping(report, config):
    """The `sim.ReportRow`s of a report of `config`, made as `sim.run` made them before its
    events were columns: the events grouped by (node, size) in a dict, and each mean an
    `np.mean` over a Python list, lost packets at the floor values in the `_all` means."""
    by_key = {}
    for e in event_dicts(report):
        by_key.setdefault((e["node"], e["size"]), []).append(e)
    rows = []
    for spec in config.nodes:
        for size in config.payload_schedule:
            group = by_key[(spec.source, size)]
            ok = [e for e in group if e["delivered"]]
            observed = [(e["rssi"], e["snr"]) if e["delivered"]
                        else (trace.RSSI_FLOOR_DBM, trace.SNR_FLOOR_DB) for e in group]
            rows.append(sim.ReportRow(
                node=spec.source, size=size, strategy=spec.strategy.kind, sent=len(group),
                delivered=len(ok), collisions=sum(e["collided"] for e in group),
                hops=sum(e["hopped"] for e in group),
                mean_rssi=float(np.mean([e["rssi"] for e in ok])) if ok else trace.RSSI_FLOOR_DBM,
                mean_snr=float(np.mean([e["snr"] for e in ok])) if ok else trace.SNR_FLOOR_DB,
                mean_rssi_all=float(np.mean([rssi for rssi, _ in observed])),
                mean_snr_all=float(np.mean([snr for _, snr in observed]))))
    return rows


def _output_form(event):
    """An event dict as the events CSV writes it: RSSI and SNR rounded to 6 decimals."""
    return {**event, "rssi": round(event["rssi"], 6), "snr": round(event["snr"], 6)}


def report_to_json(report):
    """The `sim.SimReport` document built as one tree, then one string."""
    return json.dumps({"rows": [dict(asdict(r), pdr=r.pdr) for r in report.rows]},
                      sort_keys=True)


def events_csv(report):
    """The events CSV of a `sim.SimReport` by `csv.writer`: columns `sim.EVENT_FIELDS`,
    booleans written as 0/1."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(sim.EVENT_FIELDS)
    writer.writerows([int(v) if isinstance(v, bool) else v for v in _output_form(e).values()]
                     for e in event_dicts(report))
    return buf.getvalue()


class ReferenceSampler:
    """`ChannelSampler` with a pattern and a cursor dict, a trace lookup per call and one
    `normal(0, 1)` draw at a time: the outcomes `sample` must match value for value."""

    def __init__(self, trace_obj, seed, block_len=trace.DEFAULT_BLOCK_LEN,
                 rssi_jitter_db=trace.DEFAULT_RSSI_JITTER_DB,
                 snr_jitter_db=trace.DEFAULT_SNR_JITTER_DB):
        self.trace = trace_obj
        self.block_len = block_len
        self.rssi_jitter_db, self.snr_jitter_db = rssi_jitter_db, snr_jitter_db
        self._seed = [int(v) for v in seed] if isinstance(seed, (list, tuple)) else [int(seed)]
        self._patterns, self._cursor = {}, {}
        self._jitter_rng = np.random.default_rng(self._seed + [0xA5])

    def sample(self, source, freq_mhz, size_bytes):
        key = (source, float(freq_mhz), int(size_bytes))
        if key not in self._patterns:
            entry = self.trace.lookup(*key)
            pat = np.zeros(self.block_len, dtype=bool)
            pat[:int(round(entry.pdr * self.block_len))] = True
            np.random.default_rng(self._seed + [zlib.crc32(repr(key).encode())]).shuffle(pat)
            self._patterns[key], self._cursor[key] = pat, 0
        cur = self._cursor[key]
        delivered = bool(self._patterns[key][cur % self.block_len])
        self._cursor[key] = cur + 1
        entry, rng = self.trace.lookup(*key), self._jitter_rng
        rssi = min(entry.mean_rssi + rng.normal(0.0, 1.0) * self.rssi_jitter_db, 0.0)
        return delivered, rssi, entry.mean_snr + rng.normal(0.0, 1.0) * self.snr_jitter_db


def events_by_slot_loop(config, trace_obj):
    """`sim.run`'s events as `report.events.tolist()` gives them, from a slot loop that keeps
    each node's last channel, groups a slot's transmissions by channel in a dict, makes a
    new availability vector each slot and draws each node's outcomes from a
    `ReferenceSampler` seeded as `sim.run` seeds the node's sampler."""
    freqs = list(trace_obj.frequencies)
    nodes = [sim._NodeState(spec, config, trace_obj, len(freqs), k)
             for k, spec in enumerate(config.nodes)]
    for k, node in enumerate(nodes):
        node.sampler = ReferenceSampler(
            trace_obj, [config.rng_seed, 0x5A, k], block_len=config.packets_per_size,
            rssi_jitter_db=config.rssi_jitter_db, snr_jitter_db=config.snr_jitter_db)
    last = [None] * len(nodes)
    events, slot = [], 0
    for size in config.payload_schedule:
        for _ in range(config.packets_per_size):
            slot += 1
            txs = []   # [channel, delivered, rssi, snr, collided, hopped] per node
            for k, node in enumerate(nodes):
                f_idx = node.spec.strategy.choose(node, freqs)
                txs.append([f_idx, *node.sampler.sample(node.source, freqs[f_idx], size),
                            False, last[k] is not None and f_idx != last[k]])
                last[k] = f_idx
            by_channel = {}
            for tx in txs:
                by_channel.setdefault(tx[0], []).append(tx)
            for group in by_channel.values():
                if len(group) > 1:   # the strongest survives a margin of the threshold
                    group.sort(key=itemgetter(2), reverse=True)
                    margin = group[0][2] - group[1][2]
                    for tx in group[1 if margin >= config.capture_threshold_db else 0:]:
                        tx[1], tx[4] = False, True
            avail = np.zeros(len(freqs))
            for tx in txs:
                avail[tx[0]] += 1.0
            for node, (_, delivered, rssi, snr, _, _) in zip(nodes, txs):
                if config.predictor_placement == "end_node" or delivered:
                    node.last_avail = avail
                    if node.window is not None:
                        node.window.record(avail, *((rssi, snr) if delivered else
                                                    (trace.RSSI_FLOOR_DBM, trace.SNR_FLOOR_DB)))
            events += [(slot, k, f_idx, size, rssi, snr, delivered, collided, hopped)
                       for k, (f_idx, delivered, rssi, snr, collided, hopped) in enumerate(txs)]
    return events
