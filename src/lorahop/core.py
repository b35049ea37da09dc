"""Domain types for the channel-hopping problem plus pure objective/constraint functions.

A Scenario fixes the problem instance (nodes, gateways, frequencies, slot
horizon, capacities, demands).  A Schedule is a candidate assignment: the
binary allocation tensor x, the integer symbol tensor s, per-node hop flags z
and the per-channel collision trigger delta.  All functions here are pure and
operate on immutable inputs, so they are safe to call concurrently.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from enum import Enum
from numbers import Integral, Real

import numpy as np


class StructureError(ValueError):
    """Schedule shape does not match the owning scenario."""


class ConstraintFamily(Enum):
    ONE_FREQ = "one_freq_per_gateway"          # a node uses at most one frequency per gateway/slot
    GATEWAY_CAPACITY = "gateway_capacity"      # per-gateway channel count limit
    FREQ_CAPACITY = "freq_capacity"            # per-frequency symbol budget per slot
    SYMBOL_BOUNDS = "symbol_bounds"            # active channels carry between B_min and B_f symbols
    DEMAND = "demand"                          # total symbols per node equal its demand
    COLLISION_EVICTION = "collision_eviction"  # a collided channel keeps exactly one node next slot
    HOP_FLAG_MISSING = "hop_flag_missing"      # channel set changed but z = 0
    HOP_FLAG_SPURIOUS = "hop_flag_spurious"    # channel set unchanged but z = 1


@dataclass(frozen=True)
class Violation:
    constraint: ConstraintFamily
    indices: tuple
    detail: str

    def __str__(self):
        return f"{self.constraint.value}{self.indices}: {self.detail}"


@dataclass(frozen=True)
class Scenario:
    num_nodes: int
    num_gateways: int
    frequencies: tuple          # carrier frequencies in MHz, distinct
    horizon: int                # number of time slots
    gateway_capacity: tuple     # channels available per gateway
    freq_capacity: tuple        # max symbols per slot, per frequency
    min_symbols: int            # minimum symbols per packet
    demand: tuple               # total symbols each node must deliver

    def __post_init__(self):
        object.__setattr__(self, "frequencies", tuple(float(f) for f in self.frequencies))
        for name in ("num_nodes", "num_gateways", "horizon", "min_symbols"):
            object.__setattr__(self, name, integers(name, (getattr(self, name),))[0])
        for name in ("gateway_capacity", "freq_capacity", "demand"):
            object.__setattr__(self, name, integers(name, tuple(getattr(self, name))))
        if self.num_nodes < 1 or self.num_gateways < 1 or self.horizon < 1:
            raise ValueError("num_nodes, num_gateways and horizon must be positive")
        if len(self.frequencies) < 1:
            raise ValueError("at least one frequency required")
        if len(set(self.frequencies)) != len(self.frequencies):
            raise ValueError("frequencies must be distinct")
        if len(self.gateway_capacity) != self.num_gateways:
            raise ValueError("gateway_capacity length must equal num_gateways")
        if len(self.freq_capacity) != len(self.frequencies):
            raise ValueError("freq_capacity length must equal number of frequencies")
        if len(self.demand) != self.num_nodes:
            raise ValueError("demand length must equal num_nodes")
        if any(c < 1 for c in self.gateway_capacity) or any(c < 1 for c in self.freq_capacity):
            raise ValueError("capacities must be positive")
        if self.min_symbols < 1:
            raise ValueError("min_symbols must be positive")
        if self.min_symbols > min(self.freq_capacity):
            raise ValueError("min_symbols exceeds the smallest frequency capacity")
        if any(d < 0 for d in self.demand):
            raise ValueError("demands must be nonnegative")

    @property
    def num_freqs(self):
        return len(self.frequencies)

    def to_json(self):
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        """The scenario in a document of its fields; a capacity given as one integer holds for
        every gateway or every frequency."""
        doc = json.loads(text)
        kwargs = {f.name: doc[f.name] for f in fields(cls)}
        for name, count in (("gateway_capacity", doc["num_gateways"]),
                            ("freq_capacity", len(doc["frequencies"]))):
            if isinstance(kwargs[name], int):
                kwargs[name] = [kwargs[name]] * count
        return cls(**kwargs)


@dataclass
class Schedule:
    """x: (N,G,F,T) bool, s: (N,G,F,T) int, z: (N,T-1) bool, delta: (G,F,T) bool.

    z[i, t] covers the boundary between slots t and t+1 (0-based); delta marks
    channels that carried a collision in the previous slot.
    """

    x: np.ndarray
    s: np.ndarray
    z: np.ndarray
    delta: np.ndarray


def _check_shapes(scenario, schedule):
    n, g, f, t = (scenario.num_nodes, scenario.num_gateways,
                  scenario.num_freqs, scenario.horizon)
    if schedule.x.shape != (n, g, f, t) or schedule.s.shape != (n, g, f, t):
        raise StructureError(f"x/s shape mismatch: expected {(n, g, f, t)}")
    if schedule.z.shape != (n, max(t - 1, 0)):
        raise StructureError(f"z shape mismatch: expected {(n, t - 1)}")
    if schedule.delta.shape != (g, f, t):
        raise StructureError(f"delta shape mismatch: expected {(g, f, t)}")


def hop_flags_from_x(x):
    """Hop flag per node and slot boundary: 1 iff the active (g,f) set changed."""
    if x.shape[3] < 2:
        return np.zeros((x.shape[0], 0), dtype=bool)
    changed = x[:, :, :, 1:] != x[:, :, :, :-1]
    return changed.any(axis=(1, 2))


def collision_triggers_from_x(x):
    """delta[g,f,t] = 1 iff channel (g,f) carried >= 2 nodes at slot t-1."""
    occ = x.sum(axis=0)
    delta = np.zeros_like(occ, dtype=bool)
    delta[:, :, 1:] = occ[:, :, :-1] >= 2
    return delta


def schedule_from_x(scenario, x, s=None):
    """Build a Schedule with derived z/delta from an allocation tensor."""
    sched = Schedule(
        x=x.astype(bool),
        s=np.zeros_like(x, dtype=np.int64) if s is None else s.astype(np.int64),
        z=hop_flags_from_x(x),
        delta=collision_triggers_from_x(x),
    )
    _check_shapes(scenario, sched)
    return sched


def collision_count(scenario, schedule):
    """Number of ordered colliding pairs: sum over channels/slots of n*(n-1)."""
    _check_shapes(scenario, schedule)
    occ = schedule.x.sum(axis=0)
    return int((occ * (occ - 1)).sum())


def hop_count(scenario, schedule):
    """Total hop flags over all nodes and slot boundaries."""
    _check_shapes(scenario, schedule)
    return int(schedule.z.sum())


def integers(what, values):
    """The one rule for integer config values: `Integral` (numpy too), not `bool`; as ints."""
    for v in values:   # name the first bad value only: a dataset holds thousands of labels
        if isinstance(v, bool) or not isinstance(v, Integral):
            raise TypeError(f"{what} must be integers, got {v!r}")
    return tuple(int(v) for v in values)


def reals(what, values):
    """The one rule for real config values: `Real` (numpy too), not `bool`."""
    if any(isinstance(v, bool) or not isinstance(v, Real) for v in values):
        raise TypeError(f"{what} must be real numbers, got {values!r}")


def check_weights(alpha, beta):
    """The objective weights must be finite and nonnegative; NaN is neither."""
    if not (0 <= alpha < np.inf and 0 <= beta < np.inf):
        raise ValueError(f"objective weights must be finite and nonnegative: {alpha}, {beta}")


def validate(scenario, schedule):
    """Check all eight constraint families; returns violations as data."""
    _check_shapes(scenario, schedule)
    x = schedule.x
    s = schedule.s
    n, g_n, f_n, t_n = x.shape
    out = []

    # one frequency per (node, gateway, slot); transmitting at all is optional
    per_gw = x.sum(axis=2)
    for i, g, t in zip(*np.nonzero(per_gw > 1)):
        out.append(Violation(ConstraintFamily.ONE_FREQ, (int(i), int(g), int(t)),
                             f"{per_gw[i, g, t]} frequencies used at once"))

    # gateway channel count
    gw_load = x.sum(axis=(0, 2))
    for g, t in zip(*np.nonzero(gw_load > np.asarray(scenario.gateway_capacity)[:, None])):
        out.append(Violation(ConstraintFamily.GATEWAY_CAPACITY, (int(g), int(t)),
                             f"load {gw_load[g, t]} > capacity {scenario.gateway_capacity[g]}"))

    # per-frequency symbol budget per slot
    f_load = s.sum(axis=0)
    caps = np.asarray(scenario.freq_capacity)[None, :, None]
    for g, f, t in zip(*np.nonzero(f_load > caps)):
        out.append(Violation(ConstraintFamily.FREQ_CAPACITY, (int(g), int(f), int(t)),
                             f"{f_load[g, f, t]} symbols > B_f {scenario.freq_capacity[f]}"))

    # symbol bounds on active channels; inactive channels carry nothing
    caps4 = np.asarray(scenario.freq_capacity)[None, None, :, None]
    bad = (x & ((s < scenario.min_symbols) | (s > caps4))) | (~x & (s != 0))
    for i, g, f, t in zip(*np.nonzero(bad)):
        out.append(Violation(ConstraintFamily.SYMBOL_BOUNDS, (int(i), int(g), int(f), int(t)),
                             f"s={s[i, g, f, t]} with x={int(x[i, g, f, t])}"))

    # demand satisfaction
    delivered = (x * s).sum(axis=(1, 2, 3))
    for i in np.nonzero(delivered != np.asarray(scenario.demand))[0]:
        out.append(Violation(ConstraintFamily.DEMAND, (int(i),),
                             f"delivered {delivered[i]} != demand {scenario.demand[i]}"))

    # collided channel must keep exactly one node in the next slot
    occ = x.sum(axis=0)
    for g, f, t in zip(*np.nonzero(occ[:, :, :-1] >= 2)):
        if occ[g, f, t + 1] != 1:
            out.append(Violation(ConstraintFamily.COLLISION_EVICTION, (int(g), int(f), int(t + 1)),
                                 f"{occ[g, f, t + 1]} nodes remain after collision"))

    # hop flags must track active-set changes exactly
    expected_z = hop_flags_from_x(x)
    for i, t in zip(*np.nonzero(expected_z & ~schedule.z)):
        out.append(Violation(ConstraintFamily.HOP_FLAG_MISSING, (int(i), int(t + 1)),
                             "channel set changed but hop flag is 0"))
    for i, t in zip(*np.nonzero(~expected_z & schedule.z)):
        out.append(Violation(ConstraintFamily.HOP_FLAG_SPURIOUS, (int(i), int(t + 1)),
                             "hop flag set without a channel change"))

    return out
