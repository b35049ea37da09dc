import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from lorahop import cli, core, optimizer

from conftest import random_scenario
from oracle import (EnumerationCapExceeded, _symbols_by_enumeration, enumerate_oracle,
                    objective, run_heuristic_by_rescan)


def scenario(**kw):
    base = dict(num_nodes=1, num_gateways=1, frequencies=(868.1,), horizon=2,
                gateway_capacity=(1,), freq_capacity=(10,), min_symbols=2,
                demand=(8,))
    base.update(kw)
    return core.Scenario(**base)


def test_node_slot_bounds_match_the_brute_force_definition():
    """Per node, the range of k in 1..horizon with k * B_min <= demand <= k * max(B_f);
    (0, 0) for zero demand, None when some node has no such k."""
    for horizon, bmin, bmax, d in itertools.product(range(1, 8), range(1, 7), range(1, 9),
                                                    range(40)):
        if bmax < bmin:
            continue
        sc = scenario(horizon=horizon, frequencies=(868.1, 868.3),
                      freq_capacity=(bmin, bmax), min_symbols=bmin, demand=(d,))
        ks = [k for k in range(1, horizon + 1) if k * bmin <= d <= k * bmax]
        want = [(0, 0)] if d == 0 else [(min(ks), max(ks))] if ks else None
        assert optimizer._node_slot_bounds(sc) == want, (horizon, bmin, bmax, d)


def test_single_node_optimum_is_zero():
    result = optimizer.solve_exact(scenario())
    assert result.objective_value == 0.0
    assert result.proven_optimal
    assert core.validate(scenario(), result.schedule) == []


def test_result_schedule_always_validates():
    rng = np.random.default_rng(7)
    for _ in range(40):
        sc = random_scenario(rng)
        try:
            result = optimizer.solve_exact(sc)
        except optimizer.Infeasible:
            continue
        assert core.validate(sc, result.schedule) == []
        assert result.objective_value == pytest.approx(
            objective(sc, result.schedule, 1.0, 0.1))


def test_zero_demand_is_trivially_feasible():
    result = optimizer.solve_exact(scenario(demand=(0,)))
    assert result.objective_value == 0.0
    assert not result.schedule.x.any()


def test_infeasible_demand_names_constraint():
    # 2 slots x 10 symbols max; demand 25 cannot fit
    with pytest.raises(optimizer.Infeasible) as exc:
        optimizer.solve_exact(scenario(demand=(25,)))
    assert exc.value.family in (core.ConstraintFamily.DEMAND.value,
                                core.ConstraintFamily.FREQ_CAPACITY.value)


def test_infeasible_below_min_symbols():
    # demand 1 but every active slot must carry >= 2 symbols
    with pytest.raises(optimizer.Infeasible):
        optimizer.solve_exact(scenario(demand=(1,)))


def test_budget_exhaustion():
    sc = core.Scenario(num_nodes=3, num_gateways=2, frequencies=(868.1, 868.3),
                       horizon=3, gateway_capacity=(3, 3), freq_capacity=(6, 6),
                       min_symbols=1, demand=(5, 5, 5))
    # too few expansions to reach any feasible leaf
    for budget in (0, 5):
        with pytest.raises(optimizer.BudgetExhausted):
            optimizer.solve_exact(sc, budget=budget)
    with pytest.raises(ValueError):
        optimizer.solve_exact(sc, budget=-1)
    # one expansion short of the full search: an incumbent but no proof
    full = optimizer.solve_exact(sc)
    assert full.proven_optimal
    result = optimizer.solve_exact(sc, budget=full.nodes_explored - 1)
    assert not result.proven_optimal
    assert core.validate(sc, result.schedule) == []


def test_budget_below_the_positions_is_exhausted_before_the_search():
    # 2 nodes x 3 slots with no demand: the all-idle leaf is the first, after one
    # expansion per position
    sc = core.Scenario(num_nodes=2, num_gateways=1, frequencies=(868.1,), horizon=3,
                       gateway_capacity=(2,), freq_capacity=(6,), min_symbols=1, demand=(0, 0))
    with pytest.raises(optimizer.BudgetExhausted):
        optimizer.solve_exact(sc, budget=5)
    result = optimizer.solve_exact(sc, budget=6)
    assert result.objective_value == 0.0 and not result.schedule.x.any()
    # a long horizon stops before its per-position state (hundreds of MB) is built
    long_horizon = dataclasses.replace(sc, horizon=10**6)
    tracemalloc.start()
    try:
        with pytest.raises(optimizer.BudgetExhausted):
            optimizer.solve_exact(long_horizon, budget=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_oracle_cap():
    sc = core.Scenario(num_nodes=3, num_gateways=2, frequencies=(868.1, 868.3),
                       horizon=3, gateway_capacity=(3, 3), freq_capacity=(6, 6),
                       min_symbols=1, demand=(5, 5, 5))
    with pytest.raises(EnumerationCapExceeded):
        enumerate_oracle(sc, cap=1000)


def test_hop_penalty_prefers_staying_put():
    # one node, two freqs, two slots: staying on one channel costs no hops
    sc = core.Scenario(num_nodes=1, num_gateways=1, frequencies=(868.1, 868.3),
                       horizon=2, gateway_capacity=(1,), freq_capacity=(5, 5),
                       min_symbols=1, demand=(6,))
    result = optimizer.solve_exact(sc)
    assert result.objective_value == 0.0
    active = result.schedule.x[0, 0].any(axis=1)
    assert active.sum() == 1   # one frequency used across the horizon


def test_collision_forced_by_capacity():
    # two nodes, one channel, one slot each must transmit: collision unavoidable
    sc = core.Scenario(num_nodes=2, num_gateways=1, frequencies=(868.1,),
                       horizon=1, gateway_capacity=(2,), freq_capacity=(10,),
                       min_symbols=1, demand=(2, 2))
    result = optimizer.solve_exact(sc)
    assert core.collision_count(sc, result.schedule) == 2
    assert result.objective_value == pytest.approx(2.0)


def test_eviction_respected_after_forced_collision():
    # both nodes must use the single channel in slot 0 (demand fills the horizon),
    # so slot 1 must keep exactly one of them
    sc = core.Scenario(num_nodes=2, num_gateways=1, frequencies=(868.1,),
                       horizon=2, gateway_capacity=(2,), freq_capacity=(4,),
                       min_symbols=1, demand=(5, 3))
    result = optimizer.solve_exact(sc)
    sched = result.schedule
    occ = sched.x.sum(axis=0)[0, 0]
    if occ[0] >= 2:
        assert occ[1] == 1
    assert core.validate(sc, sched) == []


def test_oracle_matches_solver_on_fixed_instances():
    fixtures = [
        scenario(),
        scenario(demand=(0,)),
        core.Scenario(num_nodes=2, num_gateways=1, frequencies=(868.1, 868.3),
                      horizon=2, gateway_capacity=(2,), freq_capacity=(5, 5),
                      min_symbols=1, demand=(4, 4)),
        core.Scenario(num_nodes=3, num_gateways=1, frequencies=(868.1, 868.3),
                      horizon=2, gateway_capacity=(3,), freq_capacity=(8, 8),
                      min_symbols=1, demand=(6, 4, 3)),
    ]
    for sc in fixtures:
        a = optimizer.solve_exact(sc)
        b = enumerate_oracle(sc)
        assert a.objective_value == pytest.approx(b.objective_value)


def test_solver_and_oracle_agree_on_infeasibility():
    rng = np.random.default_rng(123)
    checked = 0
    for _ in range(60):
        sc = random_scenario(rng)
        solver_feasible = oracle_feasible = True
        try:
            optimizer.solve_exact(sc)
        except optimizer.Infeasible:
            solver_feasible = False
        try:
            enumerate_oracle(sc)
        except optimizer.Infeasible:
            oracle_feasible = False
        assert solver_feasible == oracle_feasible
        checked += 1
    assert checked == 60


def test_symbol_routes_agree(monkeypatch):
    """The solver's max-flow symbol feasibility matches the oracle's enumeration, on random
    choice vectors and on the leaves of searches, most of which fail before any flow.  The
    searches start from no incumbent: the run heuristic's value, the optimum on these rungs,
    prunes the leaves that fail before the flow."""
    rng = np.random.default_rng(99)
    for _ in range(80):
        sc = random_scenario(rng)
        choices = [
            [int(rng.integers(-1, sc.num_gateways * sc.num_freqs))
             for _ in range(sc.num_nodes)]
            for _ in range(sc.horizon)
        ]
        flat = [choices[t][i] for t in range(sc.horizon) for i in range(sc.num_nodes)]
        by_flow = optimizer._symbols_by_flow(sc, flat)
        by_enum = _symbols_by_enumeration(sc, flat)
        assert (by_flow is None) == (by_enum is None)

    leaves, flows = [], []
    symbols_by_flow, max_flow = optimizer._symbols_by_flow, optimizer._max_flow
    monkeypatch.setattr(optimizer, "_symbols_by_flow", lambda scenario, choices: (
        leaves.append((scenario, list(choices))) or symbols_by_flow(scenario, choices)))
    monkeypatch.setattr(optimizer, "_run_incumbent", lambda *args: float("inf"))
    for rung in ("4x3", "5x3"):
        optimizer.solve_exact(ladder_rung(rung))
    monkeypatch.setattr(optimizer, "_max_flow", lambda *args: flows.append(1) or max_flow(*args))
    failed_before_flow = 0
    for sc, flat in leaves:
        flows_before = len(flows)
        by_flow = symbols_by_flow(sc, flat)
        assert (by_flow is None) == (_symbols_by_enumeration(sc, flat) is None)
        failed_before_flow += by_flow is None and len(flows) == flows_before
    assert failed_before_flow > 0 and flows


def symmetric_scenario(rng, max_states=60_000):
    """Random small instance whose demands and carrier capacities each take one of two values."""
    while True:
        n = int(rng.integers(2, 5))
        g = int(rng.integers(1, 3))
        f = int(rng.integers(1, 4))
        t = int(rng.integers(1, 4))
        if (g * f + 1) ** (n * t) > max_states:
            continue
        caps = rng.integers(2, 6, size=2)
        fcap = tuple(int(rng.choice(caps)) for _ in range(f))
        bmin = int(rng.integers(1, min(fcap) + 1))
        gcap = tuple(int(rng.integers(1, n + 1)) for _ in range(g))
        demands = rng.integers(0, max(fcap) * t + 2, size=2)
        demand = tuple(int(rng.choice(demands)) for _ in range(n))
        return core.Scenario(n, g, tuple(868.0 + 0.2 * k for k in range(f)), t, gcap, fcap,
                             bmin, demand)


SYMMETRIC_FIXTURES = [
    # all demands and all capacities equal
    core.Scenario(num_nodes=3, num_gateways=1, frequencies=(868.1, 868.3), horizon=2,
                  gateway_capacity=(3,), freq_capacity=(6, 6), min_symbols=2, demand=(6, 6, 6)),
    # twins that are not adjacent
    core.Scenario(num_nodes=3, num_gateways=1, frequencies=(868.1, 868.3), horizon=2,
                  gateway_capacity=(3,), freq_capacity=(6, 6), min_symbols=2, demand=(6, 4, 6)),
    # two gateways, each with two equal-capacity carriers
    core.Scenario(num_nodes=2, num_gateways=2, frequencies=(868.1, 868.3), horizon=2,
                  gateway_capacity=(2, 2), freq_capacity=(5, 5), min_symbols=1, demand=(6, 6)),
    # mixed capacities: only the outer carriers are twins
    core.Scenario(num_nodes=2, num_gateways=1, frequencies=(868.1, 868.3, 868.5), horizon=3,
                  gateway_capacity=(2,), freq_capacity=(4, 6, 4), min_symbols=2, demand=(8, 8)),
    # one carrier, two slots: at weights (0.25, 1) the last-slot term takes its collision
    # route, and charging beta there for 2 alpha < beta <= 4 alpha changes the schedule
    core.Scenario(num_nodes=3, num_gateways=1, frequencies=(868.1,), horizon=2,
                  gateway_capacity=(3,), freq_capacity=(4,), min_symbols=2, demand=(2, 2, 2)),
]


@pytest.mark.parametrize("alpha,beta", [(1.0, 0.1), (1, 0), (0, 1), (2.5, 0.5), (0.25, 1.0)])
def test_solver_and_oracle_return_the_same_schedule(alpha, beta):
    """Both routes break ties toward the first optimal choice vector in lexicographic order;
    symmetry skips never drop it, nor the whole orbit of a feasible schedule."""
    rng, sym_rng = np.random.default_rng(42), np.random.default_rng(17)
    instances = [random_scenario(rng) for _ in range(200)] + SYMMETRIC_FIXTURES \
        + [symmetric_scenario(sym_rng) for _ in range(100)]
    feasible = 0
    for sc in instances:
        try:
            a = optimizer.solve_exact(sc, alpha, beta)
        except optimizer.Infeasible:
            with pytest.raises(optimizer.Infeasible):
                enumerate_oracle(sc, alpha, beta)
            continue
        b = enumerate_oracle(sc, alpha, beta)
        assert a.objective_value == b.objective_value
        assert np.array_equal(a.schedule.x, b.schedule.x)
        assert np.array_equal(a.schedule.s, b.schedule.s)
        feasible += 1
    assert feasible > 0


def ladder_rung(rung):
    """The bench ladder's instance family: N nodes x T slots, 3 carriers, demand 6."""
    n, t = (int(v) for v in rung.split("x"))
    return core.Scenario(num_nodes=n, num_gateways=1, frequencies=(867.1, 867.3, 867.5),
                         horizon=t, gateway_capacity=(n,), freq_capacity=(6, 6, 6),
                         min_symbols=2, demand=(6,) * n)


# (nodes expanded, optimum) per rung at the default budget; 6x4 and 8x3 are past the bench
# ladder.  The run heuristic starts each search from the optimum, so these are the floors.
LADDER = {"3x3": (30, 0.0), "4x3": (221, 0.2), "5x3": (981, 0.4), "4x4": (43, 0.4),
          "5x4": (67, 0.5), "6x4": (81, 0.6), "8x3": (2576, 1.0)}


@pytest.mark.parametrize("rung", LADDER)
def test_ladder_rungs_are_proven_in_pinned_node_counts(rung):
    nodes, optimum = LADDER[rung]
    result = optimizer.solve_exact(ladder_rung(rung))
    assert result.proven_optimal
    assert result.nodes_explored == nodes
    assert result.objective_value == pytest.approx(optimum)
    assert result.prunes[optimizer.SYMMETRY] > 0


@pytest.mark.parametrize("rung,max_nodes", [("7x5", 50_000), ("8x5", 2_000_000)])
def test_rungs_past_the_ladder_are_proven(rung, max_nodes):
    result = optimizer.solve_exact(ladder_rung(rung))
    assert result.proven_optimal and result.nodes_explored < max_nodes


def gate_instances():
    """The schedule gate's instances: criterion 1's 200, the fixtures and 100 symmetric."""
    rng, sym_rng = np.random.default_rng(42), np.random.default_rng(17)
    return [random_scenario(rng) for _ in range(200)] + SYMMETRIC_FIXTURES \
        + [symmetric_scenario(sym_rng) for _ in range(100)]


@pytest.mark.parametrize("alpha,beta", [(1.0, 0.1), (0.25, 1.0)])
def test_no_prefix_of_the_first_optimal_vector_bounds_above_the_optimum(monkeypatch, alpha,
                                                                         beta):
    """With the first incumbent pinned to the optimum, a prefix of the first optimal choice
    vector (the root included) whose bound exceeded it would be pruned, and the solver would
    return another schedule or none.  The weights take the last-slot term as hops (beta <=
    2 alpha) and as collisions."""
    checked = 0
    for sc in gate_instances():
        try:
            best = enumerate_oracle(sc, alpha, beta)
        except optimizer.Infeasible:
            continue
        monkeypatch.setattr(optimizer, "_run_incumbent", lambda *args: best.objective_value)
        result = optimizer.solve_exact(sc, alpha, beta)
        assert result.objective_value == best.objective_value
        assert np.array_equal(result.schedule.x, best.schedule.x)
        checked += 1
    assert checked > 100


def test_the_run_heuristic_is_never_below_the_optimum():
    """Finite only on feasible instances, where it is at least the optimum; on every ladder
    rung it is the search's own optimum bit for bit (on 6x4, 0.1 * 6, not the float 0.6)."""
    found = 0
    for sc in gate_instances():
        v = optimizer._run_incumbent(sc, optimizer._node_slot_bounds(sc) or [], 1.0, 0.1)
        try:
            optimum = optimizer.solve_exact(sc).objective_value
        except optimizer.Infeasible:
            assert v == float("inf")
            continue
        assert v >= optimum
        found += v < float("inf")
    assert found > 100
    for rung in LADDER:
        sc = ladder_rung(rung)
        v = optimizer._run_incumbent(sc, optimizer._node_slot_bounds(sc), 1.0, 0.1)
        assert v == optimizer.solve_exact(sc).objective_value, rung
    rung = ladder_rung("6x4")
    assert optimizer._run_incumbent(rung, optimizer._node_slot_bounds(rung), 1.0, 0.1) == 0.1 * 6


@pytest.mark.parametrize("alpha,beta", [(1.0, 0.1), (0.25, 1.0)])
def test_the_run_heuristic_matches_its_rescan(alpha, beta):
    """The running counts (places per slot and gateway, prefix sums per channel) price every
    run as a rescan of the whole occupancy does."""
    for sc in gate_instances() + [ladder_rung(rung) for rung in LADDER]:
        bounds = optimizer._node_slot_bounds(sc) or []
        assert optimizer._run_incumbent(sc, bounds, alpha, beta) \
            == run_heuristic_by_rescan(sc, bounds, alpha, beta)


def test_prunes_count_symmetry_skips_apart_from_the_constraint_families():
    # distinct demands and one carrier: nothing is interchangeable
    sc = core.Scenario(num_nodes=3, num_gateways=1, frequencies=(868.1,), horizon=3,
                       gateway_capacity=(3,), freq_capacity=(6,), min_symbols=2,
                       demand=(2, 4, 6))
    result = optimizer.solve_exact(sc)
    assert optimizer.SYMMETRY not in result.prunes
    assert sum(result.prunes.values()) > 0
    # three twins need a slot each, but the gateway takes one channel per slot over
    # two slots: the skips (19) outnumber the gateway capacity prunes (10), yet
    # that family is named
    sc = core.Scenario(num_nodes=3, num_gateways=1, frequencies=(868.1, 868.3, 868.5),
                       horizon=2, gateway_capacity=(1,), freq_capacity=(5, 5, 5),
                       min_symbols=1, demand=(1, 1, 1))
    with pytest.raises(optimizer.Infeasible) as exc:
        optimizer.solve_exact(sc)
    assert exc.value.family == core.ConstraintFamily.GATEWAY_CAPACITY.value


def test_deep_instance_fails_cleanly(tmp_path):
    """1,200 decision positions: the search must not hit the recursion limit."""
    sc = core.Scenario(num_nodes=10, num_gateways=1, frequencies=(867.1, 867.3, 867.5),
                       horizon=120, gateway_capacity=(10,), freq_capacity=(6, 6, 6),
                       min_symbols=2, demand=(6,) * 10)
    try:
        result = optimizer.solve_exact(sc, budget=20_000)
    except optimizer.BudgetExhausted:
        pass
    else:
        assert core.validate(sc, result.schedule) == []
    path = tmp_path / "deep.json"
    path.write_text(sc.to_json())
    code = cli.main(["optimize", "--scenario", str(path), "--budget", "20000",
                     "--out", str(tmp_path / "result.json")])
    assert code in (0, 1)
