"""Exact solution of the channel-hopping schedule problem on desk-scale instances.

`solve_exact` is a depth-first branch-and-bound search that restricts each
node to at most one (gateway, frequency) channel per slot.  Symbol counts are
then a pure feasibility question (they do not enter the objective), settled at
each leaf by a small max-flow.

Tie rule: among optimal schedules, the first choice vector in lexicographic
order wins (positions slot-major, node-minor; idle before channel 0, 1, ...).
The objective is alpha * collisions + beta * hops over integer counts.  The
solver prunes a partial schedule when its lower bound (committed collisions
and hops, hops forced later, and nodes that slot H-1 cannot take) reaches
the incumbent.  The first incumbent is a run heuristic's value, a primal
heuristic (Berthold 2006) that prunes only bounds above it until the first leaf.
The heuristic gives each node in turn its cheapest run on one channel, but
takes a run that leaves the later nodes fewer collision-free places than their
shortest runs need only when no other run is open (the room rule).

The solver also skips schedules that are relabellings of one it visits
(lex-leader symmetry breaking, Margot 2010).  Nodes with equal demand are
interchangeable, and so are channels on one gateway with equal frequency
capacity; both swaps keep feasibility and the objective.  Two rules follow:
a node's column of choices over the slots is never lexicographically smaller
than that of the nearest earlier node with its demand, and a channel is
first used only after the nearest earlier interchangeable channel has been.
Swapping a pair that breaks a rule gives a lexicographically smaller vector
that is just as good, so the first optimal choice vector keeps both rules
and the tie rule still picks it.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import core

SYMMETRY = "symmetry"   # key of the lex-leader skips in SolveResult.prunes


class Infeasible(Exception):
    def __init__(self, family, detail=""):
        self.family = family
        super().__init__(f"infeasible instance (binding constraint: {family}) {detail}".strip())


class BudgetExhausted(Exception):
    """Search budget ran out before any feasible schedule was found."""


@dataclass
class SolveResult:
    schedule: core.Schedule
    objective_value: float
    nodes_explored: int
    proven_optimal: bool
    prunes: dict            # pruned expansions per constraint family, plus SYMMETRY skips

    def to_json(self, scenario):
        """The `optimize` result document.  A schedule that fails `core.validate` is a solver
        bug: it raises AssertionError, which no exit code covers, instead of being written."""
        if violations := core.validate(scenario, self.schedule):
            raise AssertionError(f"solver returned an invalid schedule: {violations[0]}")
        x, s, z = self.schedule.x, self.schedule.s, self.schedule.z
        return json.dumps({
            "objective_value": self.objective_value, "proven_optimal": self.proven_optimal,
            "nodes_explored": self.nodes_explored,
            "collisions": core.collision_count(scenario, self.schedule),
            "hops": core.hop_count(scenario, self.schedule),
            "x": x.astype(int).tolist(), "s": s.tolist(), "z": z.astype(int).tolist(),
        }, sort_keys=True)


def _node_slot_bounds(scenario):
    """Per node, the feasible range of active-slot counts, or None if none exists."""
    bmin = scenario.min_symbols
    bmax = max(scenario.freq_capacity)
    ranges = []
    for d in scenario.demand:
        # k active slots carry between k * bmin and k * bmax symbols
        k_lo, k_hi = -(-d // bmax), min(scenario.horizon, d // bmin)
        if k_lo > k_hi:
            return None
        ranges.append((k_lo, k_hi))
    return ranges


def _max_flow(capacity, source, sink):
    """Edmonds-Karp on a dense capacity matrix; returns (value, flow matrix)."""
    n = len(capacity)
    flow = [[0] * n for _ in range(n)]
    total = 0
    while True:
        parent = [-1] * n
        parent[source] = source
        queue = deque([source])
        while queue and parent[sink] == -1:
            u = queue.popleft()
            cap_u, flow_u = capacity[u], flow[u]
            for v in range(n):
                if parent[v] == -1 and cap_u[v] - flow_u[v] > 0:
                    parent[v] = u
                    queue.append(v)
        if parent[sink] == -1:
            return total, flow
        # bottleneck along the path
        push = float("inf")
        v = sink
        while v != source:
            u = parent[v]
            push = min(push, capacity[u][v] - flow[u][v])
            v = u
        v = sink
        while v != source:
            u = parent[v]
            flow[u][v] += push
            flow[v][u] -= push
            v = u
        total += push


def _symbols_by_flow(scenario, choices):
    """Assign symbol counts for a complete channel assignment, or None.

    Every active channel must carry at least B_min symbols; the slack above the
    minima is routed from nodes (supply = demand - k*B_min) to channel-slots
    (residual capacity B_f - users*B_min) through a max-flow.  A node whose
    supply exceeds the residuals of its own channel-slots fails before the flow
    is built: the search's symbol-reach rule applied to final occupancies.
    """
    n_nodes, horizon = scenario.num_nodes, scenario.horizon
    f_n = scenario.num_freqs
    bmin = scenario.min_symbols

    active = [(i, t, choices[t * n_nodes + i])
              for t in range(horizon) for i in range(n_nodes)
              if choices[t * n_nodes + i] >= 0]
    counts = {}
    for i, t, c in active:
        counts[(t, c)] = counts.get((t, c), 0) + 1

    slots = [0] * n_nodes
    for i, t, c in active:
        slots[i] += 1
    supply = []
    for i in range(n_nodes):
        extra = scenario.demand[i] - slots[i] * bmin
        if extra < 0:
            return None
        supply.append(extra)
    cs_keys = sorted(counts)
    cs_residual = {}
    for t, c in cs_keys:
        cap = scenario.freq_capacity[c % f_n] - counts[(t, c)] * bmin
        if cap < 0:
            return None
        cs_residual[(t, c)] = cap
    reach = [0] * n_nodes
    for i, t, c in active:
        reach[i] += cs_residual[(t, c)]
    if any(extra > r for extra, r in zip(supply, reach)):
        return None

    # graph: 0 source, 1..N nodes, then channel-slots, then sink
    cs_index = {key: 1 + n_nodes + j for j, key in enumerate(cs_keys)}
    size = 2 + n_nodes + len(cs_keys)
    sink = size - 1
    cap_m = [[0] * size for _ in range(size)]
    for i in range(n_nodes):
        cap_m[0][1 + i] = supply[i]
    for key, idx in cs_index.items():
        cap_m[idx][sink] = cs_residual[key]
    for i, t, c in active:
        cap_m[1 + i][cs_index[(t, c)]] = scenario.freq_capacity[c % f_n] - bmin
    value, flow = _max_flow(cap_m, 0, sink)
    if value != sum(supply):
        return None

    s = np.zeros((n_nodes, scenario.num_gateways, f_n, horizon), dtype=np.int64)
    for i, t, c in active:
        g, f = divmod(c, f_n)
        s[i, g, f, t] = bmin + flow[1 + i][cs_index[(t, c)]]
    return s


def _run_incumbent(scenario, slot_bounds, alpha, beta):
    """Objective of a greedy schedule by the search's formula, or infinity if it fails.

    Each node in turn takes its cheapest contiguous run on one channel within its
    slot bounds, the gateway capacity and B_f // B_min users: 2 alpha per user
    already on each channel-slot, beta per run end inside the horizon.

    Room rule: a run that would leave fewer collision-free places than the later
    nodes' shortest runs need (the sum of their k_lo) is taken only when no other
    run is open.  Places are counted per slot and gateway as min(channels with no
    user, gateway capacity left) and kept up to date as runs are placed.  Per node,
    prefix sums over each channel's slots (users, places lost, closed slots) price
    every run in O(1).  Without the rule the first nodes of a 3-slot instance take
    whole-horizon runs on every carrier, and the later ones can only collide."""
    n_nodes, horizon, f_n = scenario.num_nodes, scenario.horizon, scenario.num_freqs
    n_gw = scenario.num_gateways
    gw_cap, n_ch = scenario.gateway_capacity, n_gw * f_n
    max_users = [scenario.freq_capacity[c % f_n] // scenario.min_symbols for c in range(n_ch)]
    occ = [[0] * n_ch for _ in range(horizon)]
    gw_load = [[0] * n_gw for _ in range(horizon)]
    # collision-free places per slot and gateway, their channels with no user, and the total
    places = [[min(f_n, cap) for cap in gw_cap] for _ in range(horizon)]
    unused = [[f_n] * n_gw for _ in range(horizon)]
    room = horizon * sum(min(f_n, cap) for cap in gw_cap)
    need = sum(k_lo for k_lo, _ in slot_bounds)
    choices = [-1] * (n_nodes * horizon)
    coll = hops = 0
    # a longer run from the same start costs no less unless it ends the horizon
    spans_of = {(k_lo, k_hi): [(start, start + k_lo) for start in range(horizon - k_lo + 1)
                               if k_lo] + [(horizon - k, horizon) for k in range(k_lo + 1, k_hi + 1)]
                for k_lo, k_hi in set(slot_bounds)}
    for i, (k_lo, k_hi) in enumerate(slot_bounds):
        need -= k_lo
        prefix = []     # per channel, (users, places lost, closed slots) over slots 0..t-1
        for c in range(n_ch):
            g, users = c // f_n, max_users[c]
            cap = gw_cap[g]
            sums = [(0, 0, 0)]
            run_coll = lost = closed = 0
            for t in range(horizon):
                o, load = occ[t][c], gw_load[t][g]
                if load >= cap or o >= users:
                    closed += 1
                else:
                    run_coll += o
                    lost += places[t][g] - min(unused[t][g] - (o == 0), cap - load - 1)
                sums.append((run_coll, lost, closed))
            prefix.append(sums)
        # the first cheapest open run, one that leaves room before one that does not
        run, run_key = None, (True, float("inf"))
        for start, stop in spans_of[k_lo, k_hi]:
            run_hops = (start > 0) + (stop < horizon)
            for c in range(n_ch):
                coll_a, lost_a, closed_a = prefix[c][start]
                coll_b, lost_b, closed_b = prefix[c][stop]
                if closed_a == closed_b:
                    run_coll = 2 * (coll_b - coll_a)
                    key = (room - (lost_b - lost_a) < need, alpha * run_coll + beta * run_hops)
                    if key < run_key:
                        run, run_key = (start, stop, c, run_coll, run_hops), key
        if run:   # else the node stays idle and the symbol flow fails
            start, stop, c, run_coll, run_hops = run
            coll, hops = coll + run_coll, hops + run_hops
            g = c // f_n
            for t in range(start, stop):
                unused[t][g] -= occ[t][c] == 0
                occ[t][c] += 1
                gw_load[t][g] += 1
                left = min(unused[t][g], gw_cap[g] - gw_load[t][g])
                room -= places[t][g] - left
                places[t][g] = left
                choices[t * n_nodes + i] = c
    for t in range(1, horizon):
        for c in range(n_ch):
            if occ[t - 1][c] >= 2 and occ[t][c] != 1:
                return float("inf")
    if _symbols_by_flow(scenario, choices) is None:
        return float("inf")
    return alpha * coll + beta * hops


def _schedule_from_choices(scenario, choices, s):
    n_nodes, f_n = scenario.num_nodes, scenario.num_freqs
    x = np.zeros((n_nodes, scenario.num_gateways, f_n, scenario.horizon), dtype=bool)
    for t in range(scenario.horizon):
        for i in range(n_nodes):
            c = choices[t * n_nodes + i]
            if c >= 0:
                g, f = divmod(c, f_n)
                x[i, g, f, t] = True
    return core.schedule_from_x(scenario, x, s)


def solve_exact(scenario, alpha=1.0, beta=0.1, budget=2_000_000):
    """Depth-first branch and bound over per-node per-slot channel choices.

    Positions are filled slot by slot, node by node, each trying idle first
    and then channels 0, 1, ...; depth-first order is therefore the
    lexicographic order of the choice vector.  Costs are integer (collisions,
    hops) counts weighed as alpha * C + beta * H.  `budget` caps the
    expansions and must not be negative; a budget below the number of
    positions raises `BudgetExhausted` before any search state is built.

    The lower bound of a partial schedule is its committed collisions and
    hops plus one forced hop per node that has not hopped yet and cannot keep
    its value for the whole horizon: idle with k_lo >= 1, or on a channel
    with k_hi < horizon (a node with no decided slot counts when both hold).
    While slot H-1 is undecided, a node idle in all its decided slots with
    k_lo >= 1 keeps to one hop only by a run through slot H-1, which takes
    slot_free = sum_g min(gateway capacity, channels on g) users without a
    collision; each node beyond pays min(beta, 2 alpha), kept as a hop or two
    collisions so the bound is the objective's formula over integer counts.
    Pruning on bound >= incumbent keeps the first optimal leaf found, so ties
    resolve to the first optimal choice vector in lexicographic order.  Until
    that first leaf, the incumbent is `_run_incumbent`'s value v, whose
    schedule is never returned, and only bound > v prunes: every prefix of
    the first optimal vector bounds at most the optimum, which is at most v.

    Once the later slots alone cannot carry node i's demand, each value it
    takes is checked for symbol reach: its channel-slots so far give at most
    B_f - (users - 1) * B_min each, every later slot at most max(B_f).  Users
    only grow as later nodes choose, so a reach below the demand proves that
    no leaf below is feasible; these prunes count under freq_capacity, the
    family of the leaf check.

    Symmetry skips keep that rule (see the module docstring).  At (t, i), when
    node i's column equals its predecessor j's on slots 0..t-1 (a flag set on
    entering the position), values below j's choice at t are skipped, and a
    channel is skipped while its predecessor is unused (per-channel use counts
    kept next to `occ`).  Skipped values are not expansions; they are counted
    under SYMMETRY in `prunes` and never name the family `Infeasible` reports;
    neither do bound prunes, which are not counted.
    The search runs on an explicit stack, so its depth is not limited by the
    interpreter's recursion limit.
    """
    core.check_weights(alpha, beta)
    if budget < 0:
        raise ValueError(f"budget must not be negative, got {budget}")
    n_nodes, n_gw, f_n = scenario.num_nodes, scenario.num_gateways, scenario.num_freqs
    horizon = scenario.horizon
    n_ch = n_gw * f_n
    positions = n_nodes * horizon

    slot_bounds = _node_slot_bounds(scenario)
    if slot_bounds is None:
        raise Infeasible(core.ConstraintFamily.DEMAND.value,
                         "demand not expressible within the horizon and symbol bounds")
    if budget < positions:   # a leaf takes one expansion per position: build nothing
        raise BudgetExhausted(f"no feasible schedule within {budget} expansions")

    gw_of = [c // f_n for c in range(n_ch)]
    gw_cap = scenario.gateway_capacity
    demand, bmin, bmax = scenario.demand, scenario.min_symbols, max(scenario.freq_capacity)
    cap_of = [scenario.freq_capacity[c % f_n] for c in range(n_ch)]
    max_users = [cap // bmin for cap in cap_of]
    # per node, whether staying idle / on one channel for the whole horizon is infeasible
    must_leave = [(k_lo >= 1, k_hi < horizon) for k_lo, k_hi in slot_bounds]
    # last-slot term: users slot H-1 takes without a collision; one more pays a hop or 2 collisions
    slot_free = sum(min(cap, f_n) for cap in gw_cap)
    late_coll, late_hops = (0, 1) if beta <= 2 * alpha else (2, 0)
    # nearest earlier interchangeable node / channel (-1: none); a node's slot
    # bounds follow from its demand, a channel's users from its frequency capacity
    node_pred = [max((j for j in range(i) if scenario.demand[j] == scenario.demand[i]),
                     default=-1) for i in range(n_nodes)]
    ch_pred = [max((d for d in range(c) if gw_of[d] == gw_of[c]
                    and scenario.freq_capacity[d % f_n] == scenario.freq_capacity[c % f_n]),
                   default=-1) for c in range(n_ch)]

    choices = [-1] * positions
    occ = [[0] * n_ch for _ in range(horizon)]          # users per channel-slot
    gw_load = [[0] * n_gw for _ in range(horizon)]
    uses = [0] * n_ch                                   # positions per channel so far
    active_cnt = [0] * n_nodes
    node_hops = [0] * n_nodes
    # committed collisions, hops and forced future hops of the prefix [0, pos), and
    # its nodes with k_lo >= 1 that are idle in every decided slot (at least one)
    coll = [0] * positions
    hops = [0] * positions
    forced = [0] * positions
    waiting = [0] * positions
    forced[0] = sum(1 for idle, busy in must_leave if idle and busy)
    next_choice = [-1] * positions
    # col_eq[pos]: node i's column equals its predecessor's on slots 0..t-1
    col_eq = [True] * positions
    prune_counts = {}
    explored = 0
    aborted = False
    best_obj = _run_incumbent(scenario, slot_bounds, alpha, beta)
    best_choices = best_s = None

    def note_prune(family):
        prune_counts[family] = prune_counts.get(family, 0) + 1

    pos = 0
    while True:
        c = next_choice[pos]
        if c < n_ch:
            next_choice[pos] = c + 1
            t, i = divmod(pos, n_nodes)
            j = node_pred[i]
            if (j >= 0 and col_eq[pos] and c < choices[pos - i + j]) \
                    or (c >= 0 and ch_pred[c] >= 0 and uses[ch_pred[c]] == 0):
                note_prune(SYMMETRY)
                continue
            if explored >= budget:
                aborted = True
                break
            explored += 1
            k_lo, k_hi = slot_bounds[i]
            if c == -1:
                # staying idle must leave enough future slots to reach k_lo
                if active_cnt[i] + horizon - t - 1 < k_lo:
                    note_prune(core.ConstraintFamily.DEMAND.value)
                    continue
                new_coll = coll[pos]
            else:
                if active_cnt[i] + 1 > k_hi:
                    note_prune(core.ConstraintFamily.DEMAND.value)
                    continue
                if gw_load[t][gw_of[c]] + 1 > gw_cap[gw_of[c]]:
                    note_prune(core.ConstraintFamily.GATEWAY_CAPACITY.value)
                    continue
                if occ[t][c] + 1 > max_users[c]:
                    note_prune(core.ConstraintFamily.FREQ_CAPACITY.value)
                    continue
                if t > 0 and occ[t - 1][c] >= 2 and occ[t][c] + 1 > 1:
                    note_prune(core.ConstraintFamily.COLLISION_EVICTION.value)
                    continue
                new_coll = coll[pos] + 2 * occ[t][c]
            new_hops, new_forced, new_waiting = hops[pos], forced[pos], waiting[pos]
            hop = t > 0 and choices[pos - n_nodes] != c
            if t == 0:
                # the node's first value replaces its undecided forced-hop term
                new_forced += must_leave[i][c >= 0] - (must_leave[i][0] and must_leave[i][1])
                new_waiting += must_leave[i][0] and c < 0
            elif hop:
                new_hops += 1
                if node_hops[i] == 0:
                    # the first hop is the one the bound already counted, if any
                    new_forced -= must_leave[i][choices[pos - n_nodes] >= 0]
                    new_waiting -= must_leave[i][0] and choices[pos - n_nodes] < 0
            late = max(0, new_waiting - slot_free) if t < horizon - 1 else 0
            bound = alpha * (new_coll + late_coll * late) \
                + beta * (new_hops + new_forced + late_hops * late)
            if bound > best_obj or (bound == best_obj and best_choices is not None):
                continue

            choices[pos] = c
            if c >= 0:
                uses[c] += 1
                occ[t][c] += 1
                gw_load[t][gw_of[c]] += 1
                active_cnt[i] += 1
            if hop:
                node_hops[i] += 1
            ok = True
            if (horizon - t - 1) * bmax < demand[i]:
                # symbol reach: each of the node's channel-slots so far keeps B_min
                # for every other user, each later slot gives at most max(B_f)
                reach = (horizon - t - 1) * bmax
                for p in range(i, pos + 1, n_nodes):
                    ch = choices[p]
                    if ch >= 0:
                        reach += cap_of[ch] - (occ[p // n_nodes][ch] - 1) * bmin
                if reach < demand[i]:
                    note_prune(core.ConstraintFamily.FREQ_CAPACITY.value)
                    ok = False
            if ok and i == n_nodes - 1 and t > 0:
                # every channel collided in the previous slot must keep one node
                for ch in range(n_ch):
                    if occ[t - 1][ch] >= 2 and occ[t][ch] != 1:
                        note_prune(core.ConstraintFamily.COLLISION_EVICTION.value)
                        ok = False
                        break
            if ok and pos + 1 < positions:
                pos += 1
                coll[pos], hops[pos], forced[pos] = new_coll, new_hops, new_forced
                waiting[pos] = new_waiting
                next_choice[pos] = -1
                if pos >= n_nodes:
                    i = pos % n_nodes
                    j = node_pred[i]
                    col_eq[pos] = j >= 0 and col_eq[pos - n_nodes] \
                        and choices[pos - n_nodes] == choices[pos - n_nodes - i + j]
                continue
            if ok:
                # a leaf that survives the bound improves on the incumbent or ties v
                s = _symbols_by_flow(scenario, choices)
                if s is None:
                    note_prune(core.ConstraintFamily.FREQ_CAPACITY.value)
                else:
                    best_obj = alpha * new_coll + beta * new_hops
                    best_choices, best_s = list(choices), s
        else:
            if pos == 0:
                break
            pos -= 1
        # take back the choice at pos before trying its next sibling
        t, i = divmod(pos, n_nodes)
        c = choices[pos]
        if c >= 0:
            uses[c] -= 1
            occ[t][c] -= 1
            gw_load[t][gw_of[c]] -= 1
            active_cnt[i] -= 1
        if t > 0 and choices[pos - n_nodes] != c:
            node_hops[i] -= 1
        choices[pos] = -1

    if best_choices is None:
        if aborted:
            raise BudgetExhausted(f"no feasible schedule within {budget} expansions")
        families = {k: v for k, v in prune_counts.items() if k != SYMMETRY}
        family = max(families, key=families.get) if families \
            else core.ConstraintFamily.DEMAND.value
        raise Infeasible(family)
    return SolveResult(
        schedule=_schedule_from_choices(scenario, best_choices, best_s),
        objective_value=float(best_obj),
        nodes_explored=explored,
        proven_optimal=not aborted,
        prunes=prune_counts,
    )
