import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorahop import core

from conftest import random_scenario
from oracle import objective


def two_node_scenario():
    return core.Scenario(num_nodes=2, num_gateways=1, frequencies=(868.1,),
                         horizon=2, gateway_capacity=(2,), freq_capacity=(10,),
                         min_symbols=1, demand=(2, 2))


def test_scenario_json_roundtrip():
    sc = two_node_scenario()
    assert core.Scenario.from_json(sc.to_json()) == sc


def test_scenario_scalar_capacity_broadcast():
    doc = json.loads(two_node_scenario().to_json())
    doc["gateway_capacity"] = 2
    doc["freq_capacity"] = 10
    assert core.Scenario.from_json(json.dumps(doc)) == two_node_scenario()


@pytest.mark.parametrize("field,value", [
    ("num_nodes", 0),
    ("horizon", 0),
    ("frequencies", (868.1, 868.1)),
    ("gateway_capacity", (0,)),
    ("min_symbols", 0),
    ("min_symbols", 11),
    ("demand", (-1, 2)),
])
def test_scenario_rejects_bad_fields(field, value):
    doc = json.loads(two_node_scenario().to_json())
    doc[field] = list(value) if isinstance(value, tuple) else value
    with pytest.raises(ValueError):
        core.Scenario.from_json(json.dumps(doc))


@pytest.mark.parametrize("field,value", [
    ("num_nodes", 2.0),
    ("horizon", True),
    ("gateway_capacity", (True,)),
    ("freq_capacity", (9.9,)),
    ("min_symbols", 1.5),
    ("demand", (2.7, 2)),
])
def test_scenario_rejects_non_integers(field, value):
    doc = json.loads(two_node_scenario().to_json())
    doc[field] = list(value) if isinstance(value, tuple) else value
    with pytest.raises(TypeError):
        core.Scenario.from_json(json.dumps(doc))


def test_scenario_accepts_numpy_integers():
    sc = core.Scenario(np.int64(2), np.int32(1), (868.1,), np.int64(2), (np.int64(2),),
                       (np.int16(10),), np.int64(1), tuple(np.arange(2, 4)))
    assert sc == core.Scenario(2, 1, (868.1,), 2, (2,), (10,), 1, (2, 3))
    assert core.Scenario.from_json(sc.to_json()) == sc


def test_collision_count_pairs():
    # two nodes sharing one channel in one slot collide once each: 2 ordered pairs
    sc = two_node_scenario()
    x = np.zeros((2, 1, 1, 2), dtype=bool)
    x[:, 0, 0, 0] = True
    sched = core.schedule_from_x(sc, x)
    assert core.collision_count(sc, sched) == 2

    sc3 = core.Scenario(num_nodes=3, num_gateways=1, frequencies=(868.1,),
                        horizon=1, gateway_capacity=(3,), freq_capacity=(10,),
                        min_symbols=1, demand=(1, 1, 1))
    x3 = np.ones((3, 1, 1, 1), dtype=bool)
    assert core.collision_count(sc3, core.schedule_from_x(sc3, x3)) == 6


def test_hop_flags_track_channel_changes():
    x = np.zeros((1, 1, 2, 3), dtype=bool)
    x[0, 0, 0, 0] = True
    x[0, 0, 1, 1] = True   # hop 0 -> 1
    x[0, 0, 1, 2] = True   # stays
    z = core.hop_flags_from_x(x)
    assert z.tolist() == [[True, False]]


def test_hop_flag_idle_to_active_counts():
    x = np.zeros((1, 1, 1, 2), dtype=bool)
    x[0, 0, 0, 1] = True
    assert core.hop_flags_from_x(x).tolist() == [[True]]


def test_objective_weights():
    sc = two_node_scenario()
    x = np.zeros((2, 1, 1, 2), dtype=bool)
    x[:, 0, 0, 0] = True
    x[0, 0, 0, 1] = True
    s = np.zeros_like(x, dtype=np.int64)
    s[x] = 1
    s[0, 0, 0, 1] = 1
    sched = core.schedule_from_x(sc, x, s)
    assert objective(sc, sched, 1.0, 0.0) == 2.0
    assert objective(sc, sched, 0.0, 1.0) == core.hop_count(sc, sched)
    with pytest.raises(ValueError):
        objective(sc, sched, -1.0, 0.0)


def test_validate_clean_schedule():
    sc = two_node_scenario()
    x = np.zeros((2, 1, 1, 2), dtype=bool)
    x[0, 0, 0, 0] = True
    x[1, 0, 0, 1] = True
    s = np.zeros_like(x, dtype=np.int64)
    s[0, 0, 0, 0] = 2
    s[1, 0, 0, 1] = 2
    assert core.validate(sc, core.schedule_from_x(sc, x, s)) == []


def test_validate_flags_each_family():
    sc = core.Scenario(num_nodes=2, num_gateways=1, frequencies=(868.1, 868.3),
                       horizon=2, gateway_capacity=(1,), freq_capacity=(4, 4),
                       min_symbols=2, demand=(4, 4))
    x = np.zeros((2, 1, 2, 2), dtype=bool)
    x[0, 0, :, 0] = True          # node 0 on both freqs -> ONE_FREQ + GATEWAY_CAPACITY
    x[1, 0, 0, 0] = True
    s = np.zeros_like(x, dtype=np.int64)
    s[0, 0, 0, 0] = 5             # above B_f -> FREQ_CAPACITY + SYMBOL_BOUNDS
    s[0, 0, 1, 0] = 2
    s[1, 0, 0, 0] = 1             # below B_min -> SYMBOL_BOUNDS; demand unmet -> DEMAND
    sched = core.schedule_from_x(sc, x, s)
    sched.z = np.zeros_like(sched.z)          # suppress a real hop -> HOP_FLAG_MISSING
    fams = {v.constraint for v in core.validate(sc, sched)}
    assert core.ConstraintFamily.ONE_FREQ in fams
    assert core.ConstraintFamily.GATEWAY_CAPACITY in fams
    assert core.ConstraintFamily.FREQ_CAPACITY in fams
    assert core.ConstraintFamily.SYMBOL_BOUNDS in fams
    assert core.ConstraintFamily.DEMAND in fams
    assert core.ConstraintFamily.HOP_FLAG_MISSING in fams


def test_validate_collision_eviction():
    sc = core.Scenario(num_nodes=2, num_gateways=1, frequencies=(868.1,),
                       horizon=2, gateway_capacity=(2,), freq_capacity=(8,),
                       min_symbols=1, demand=(2, 2))
    x = np.ones((2, 1, 1, 2), dtype=bool)     # both stay after colliding
    s = np.ones_like(x, dtype=np.int64)
    sched = core.schedule_from_x(sc, x, s)
    fams = {v.constraint for v in core.validate(sc, sched)}
    assert core.ConstraintFamily.COLLISION_EVICTION in fams


def test_spurious_hop_flag():
    sc = two_node_scenario()
    x = np.zeros((2, 1, 1, 2), dtype=bool)
    sched = core.schedule_from_x(sc, x)
    sched.z = np.ones_like(sched.z)
    fams = {v.constraint for v in core.validate(sc, sched)}
    assert fams == {core.ConstraintFamily.HOP_FLAG_SPURIOUS, core.ConstraintFamily.DEMAND}


def test_shape_mismatch_raises():
    sc = two_node_scenario()
    x = np.zeros((1, 1, 1, 2), dtype=bool)
    with pytest.raises(core.StructureError):
        core.schedule_from_x(sc, x)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_derived_schedule_has_consistent_flags(seed):
    """delta/z derived from any random x never trip the flag-consistency checks."""
    rng = np.random.default_rng(seed)
    sc = random_scenario(rng)
    x = rng.random((sc.num_nodes, sc.num_gateways, sc.num_freqs, sc.horizon)) < 0.4
    sched = core.schedule_from_x(sc, x)
    fams = {v.constraint for v in core.validate(sc, sched)}
    assert core.ConstraintFamily.HOP_FLAG_MISSING not in fams
    assert core.ConstraintFamily.HOP_FLAG_SPURIOUS not in fams
    assert core.collision_count(sc, sched) >= 0
