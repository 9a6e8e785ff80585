"""Cluster-to-core mapping search and static-order schedule construction.

The search is a swarm of real-valued positions over the cluster-by-core
grid.  Positions decode to assignments by per-cluster argmax followed by
a greedy capacity repair; each feasible assignment is scored by the
throughput of the mapped, scheduled dataflow graph.  Position and
velocity updates follow the plain attraction rule of Kennedy & Eberhart
("Particle swarm optimization", ICNN 1995) toward personal and global
bests, with no inertia term and no random coefficients: the constants
:data:`PHI1` and :data:`PHI2` weight the two pulls and velocities are
clipped to :data:`V_MAX`.
"""

from __future__ import annotations

import logging
import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DeadlockError, InfeasibleMappingError
from .sdfg import (DEFAULT_STATE_BUDGET, ExecutionResult, Sdfg,
                   ThroughputResult, _host_positions, _placed, _Simulation,
                   _state_hash, exact_time)
from .snn_graph import HardwareGraph

logger = logging.getLogger(__name__)

DEFAULT_TIME_WHEEL_SHARE = 0.5
# swarm constants: pull toward the particle's and the swarm's best, and
# the speed limit per position component
PHI1 = 1.5
PHI2 = 1.5
V_MAX = 0.5


@dataclass(frozen=True)
class StaticOrderSchedule:
    """Per-core firing order: a transient prefix then a repeating cycle.

    One pass over ``cycle`` covers ``iterations_per_cycle`` full graph
    iterations, so every actor bound to the core appears in the cycle
    exactly ``iterations_per_cycle`` times.
    """

    core: str
    transient: tuple[str, ...]
    cycle: tuple[str, ...]
    iterations_per_cycle: int

    def to_record(self) -> dict:
        return {"core": self.core, "transient": list(self.transient),
                "cycle": list(self.cycle),
                "iterations_per_cycle": self.iterations_per_cycle}


@dataclass(frozen=True)
class SwarmConfig:
    """Swarm size and the most iterations a search runs; a search stops
    earlier once its best period meets a floor that no assignment can
    beat (see :func:`search_mapping`)."""

    particles: int = 20
    iterations: int = 50

    def __post_init__(self):
        for name in ("particles", "iterations"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) \
                    or value < 1:
                raise ValueError(
                    f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class MappingSolution:
    """A feasible cluster-to-core assignment with its schedule and rate.

    ``block_counts`` comes from the same run that gave ``throughput``,
    the self-timed run under ``schedules``, whose states are those of
    the list-scheduling run that built them (see
    :func:`evaluate_mapping`): per bounded channel, in how many recorded
    states a lack of space on it held back an otherwise ready firing.
    The buffer sweep grows the worst channel.  It is analysis output
    rather than part of the design, so :meth:`to_record` leaves it out.
    """

    mapping: dict[str, str]
    schedules: dict[str, StaticOrderSchedule]
    throughput: ThroughputResult
    block_counts: dict[int, int]

    def to_record(self) -> dict:
        return {
            "mapping": dict(sorted(self.mapping.items())),
            "throughput": self.throughput.to_record(),
            "schedules": {core: s.to_record()
                          for core, s in sorted(self.schedules.items())},
        }


def validate_mapping(g: Sdfg, hw: HardwareGraph,
                     mapping: dict[str, str]) -> None:
    """Check one-core-per-cluster plus every platform capacity.

    The placement by core index, :func:`snnflow.sdfg.execute`'s, raises
    for an unmapped actor, an undeclared core and an inter-core channel
    with no route.  This adds the capacity checks, raising
    :class:`InfeasibleMappingError` naming the violated limit: crossbar
    load (sum of cluster neuron counts), distinct incoming and outgoing
    remote cores against the connection caps, and per-iteration token
    traffic against the bandwidth caps.
    """
    _place(g, hw, _host_positions(g, hw, mapping), 1)


def _place(g: Sdfg, hw: HardwareGraph, picks, scale) -> tuple:
    # the rounded period bound and the placement class of g with actor
    # i on sorted core picks[i], its times scaled by scale; raises as
    # validate_mapping does, for a missing route before any capacity
    times, latency = _placed(g, hw, picks, scale)
    _check_capacities(g, hw, picks)
    return (float(_period_lower_bound(g, times, picks, latency)),
            _placement_class((times, picks, latency)))


def _check_capacities(g: Sdfg, hw: HardwareGraph, picks) -> None:
    # validate_mapping's capacity checks with actor i on sorted core
    # picks[i]: crossbars in the order the cores first host an actor,
    # then each core's other caps in declaration order
    ids, caps, _ = hw._cores
    load = _loads(g, caps, picks)
    for j in dict.fromkeys(picks):
        if load[j] > caps[j]:
            raise InfeasibleMappingError(
                f"core {ids[j]!r} hosts {load[j]} neurons "
                f"(crossbar limit {caps[j]})")
    if not hw._tables[3]:
        return
    ins, outs = [set() for _ in caps], [set() for _ in caps]
    received, sent = [0] * len(caps), [0] * len(caps)
    for c, s, d in zip(g.channels, *g._ends[:2]):
        src, dst = picks[s], picks[d]
        if src != dst:
            ins[dst].add(src)
            outs[src].add(dst)
            received[dst] += c.volume
            sent[src] += c.volume
    for core in hw.cores:
        j = hw._tables[0][core.id]
        for limit, used, text in (
                (core.in_connections, len(ins[j]), "has {} incoming connections"),
                (core.out_connections, len(outs[j]), "has {} outgoing connections"),
                (core.in_bandwidth, received[j], "receives {} spikes per iteration"),
                (core.out_bandwidth, sent[j], "sends {} spikes per iteration")):
            if limit is not None and used > limit:
                raise InfeasibleMappingError(
                    f"core {core.id!r} {text.format(used)} (limit {limit})")


def decode_position(theta: np.ndarray, g: Sdfg,
                    hw: HardwareGraph) -> dict[str, str]:
    """Map a real-valued position to a feasible cluster-to-core assignment.

    Each cluster goes to the core with its largest position component
    (ties to the lowest core id); clusters are then moved off overloaded
    cores, lowest component first, to the feasible core with the next
    highest component.  Raises :class:`InfeasibleMappingError` when the
    demand cannot be repaired, or when there are clusters but no cores.
    """
    clusters, (cores, caps, _) = g._weights[0], hw._cores
    grid = np.asarray(theta, dtype=float).reshape(1, len(clusters), len(cores))
    pick = _argmax_picks(grid)[0]
    pick = _repair(grid[0].tolist(), pick, _loads(g, caps, pick), g, hw)
    return {cl: cores[j] for cl, j in zip(clusters, pick)}


def _decode_swarm(positions: np.ndarray, g: Sdfg, hw: HardwareGraph):
    """``read``: ``read(l)`` is :func:`decode_position` of row ``l`` of
    ``positions`` as host cores, indexes into the sorted core ids, or
    ``None`` when its demand cannot be repaired.  One ``argmax`` picks
    every row's cores; a row's loads are summed, and an overloaded row
    repaired, only when it is read."""
    caps = hw._cores[1]
    grids = np.asarray(positions, dtype=float).reshape(
        len(positions), len(g._weights[0]), len(caps))
    picks = _argmax_picks(grids)

    def read(l: int) -> tuple[int, ...] | None:
        loads = _loads(g, caps, picks[l])
        if all(loads[j] <= caps[j] for j in picks[l]):  # others hold 0
            return tuple(picks[l])
        try:
            return tuple(_repair(grids[l].tolist(), list(picks[l]), loads,
                                 g, hw))
        except InfeasibleMappingError:
            return None
    return read


def _argmax_picks(grids: np.ndarray) -> list[list[int]]:
    """Per-cluster argmax core of each ``(clusters, cores)`` grid, ties
    to the lowest core id as argmax keeps the first maximum; it refuses
    an empty row, and no clusters give empty rows."""
    n_rows, n_clusters, n_cores = grids.shape
    if n_clusters and not n_cores:
        raise InfeasibleMappingError(
            f"no core to host {n_clusters} clusters: the platform declares "
            f"no cores")
    return (grids.argmax(axis=2).tolist() if n_clusters
            else [[] for _ in range(n_rows)])


def _loads(g: Sdfg, caps: list, picks) -> list[int]:
    # each sorted core's crossbar load, caps their capacities, with
    # actor i on core picks[i]
    load = [0] * len(caps)
    for j, w in zip(picks, g._weights[1]):
        load[j] += w
    return load


def _repair(grid: list, picks: list, loads: list, g: Sdfg,
            hw: HardwareGraph) -> list:
    """Move clusters off overloaded cores in one row, given as Python
    lists: its ``(clusters, cores)`` grid, its picks and its per-core
    loads.  Returns the repaired picks, written in place; raises
    :class:`InfeasibleMappingError` when stuck.

    Each move takes one cluster off the lowest-index overloaded core,
    trying its residents lowest component first, to the core with the
    cluster's highest component that still fits it, ties to the lowest
    index: the first fitting core in the cluster's core order by
    descending component, as a stable sort gives it.  One walk per
    overloaded core does the same moves.  A move never overloads its
    target, so the cores overloaded at the start are the only ones ever
    overloaded, fixed in index order, and none gains a resident before
    its turn.  Every other core's load only grows, so a resident that
    found no core cannot move later: the walk resumes after each moved
    resident instead of starting over.
    """
    clusters, weights = g._weights
    cores, caps, _ = hw._cores
    residents: list[list[int]] = [[] for _ in caps]
    for i, j in enumerate(picks):
        residents[j].append(i)
    for j in [j for j, cap in enumerate(caps) if loads[j] > cap]:
        here = residents[j]
        for *_, i in sorted(zip([grid[i][j] for i in here],
                                [clusters[i] for i in here], here)):
            w = weights[i]
            k = max((k for k, cap in enumerate(caps)
                     if k != j and loads[k] + w <= cap),
                    key=grid[i].__getitem__, default=None)
            if k is not None:
                picks[i] = k
                loads[j] -= w
                loads[k] += w
                if loads[j] <= caps[j]:
                    break
        else:
            raise InfeasibleMappingError(
                f"cannot repair overload on core {cores[j]!r}: total demand "
                f"exceeds platform capacity")
    return picks


def _reduce_cycles(per_core: dict[str, list[str]], ipc: int
                   ) -> tuple[dict[str, list[str]], int]:
    """Collapse a steady-state word repeated m times into one occurrence."""
    def repeats(seq: list[str], m: int) -> bool:
        if not seq:
            return True
        if len(seq) % m:
            return False
        w = len(seq) // m
        return all(seq[i] == seq[i % w] for i in range(len(seq)))

    best = 1
    for m in range(ipc, 1, -1):
        if ipc % m == 0 and all(repeats(seq, m) for seq in per_core.values()):
            best = m
            break
    if best == 1:
        return per_core, ipc
    return ({core: seq[:len(seq) // best] for core, seq in per_core.items()},
            ipc // best)


def build_schedules(g: Sdfg, hw: HardwareGraph, mapping: dict[str, str],
                    time_wheel_share: float = DEFAULT_TIME_WHEEL_SHARE,
                    state_budget: int = DEFAULT_STATE_BUDGET
                    ) -> dict[str, StaticOrderSchedule]:
    """Construct static firing orders for all cores at once.

    Runs the mapped graph with per-core FIFO ready lists (a ready actor
    waits until its core is free; ties break by earlier ready time then
    actor id) until a state recurs, then splits each core's recorded
    firing sequence into a transient prefix and the repeating cycle.
    Inter-core token latency participates in the run, and actor firings
    take the host core's execution time divided by its time-wheel share.
    It rates the placement class as :func:`evaluate_mapping` does, but
    checks no capacity.
    """
    scale = _share_to_scale(time_wheel_share)
    picks = _host_positions(g, hw, mapping)
    times, latency = _placed(g, hw, picks, scale)
    rating = _rate_class(g, _placement_class((times, picks, latency)),
                         state_budget)
    return _renamed(rating, mapping,
                    [hw._cores[0][j] for j in picks]).schedules


def _list_run(g: Sdfg, placement: tuple, state_budget: int
              ) -> ExecutionResult:
    # the list-scheduling run's result, which is also that of the run
    # under the static orders it builds (see _Simulation)
    try:
        return _Simulation(g, *placement, list_mode=True,
                           state_budget=state_budget).run()
    except DeadlockError as exc:
        raise DeadlockError(
            f"list scheduling deadlocked under mapping: {exc}",
            state=exc.state) from exc


def _schedules_from_log(res: ExecutionResult
                        ) -> dict[int, StaticOrderSchedule]:
    # the static orders of a list run's cores, cut from its log; every
    # core starts an actor in the cycle, since every actor does
    transient: dict[int, list[str]] = defaultdict(list)
    cycle: dict[int, list[str]] = defaultdict(list)
    for pos, (core, actor) in enumerate(res.firing_log):
        (transient if pos < res.log_cycle_start else cycle)[core].append(actor)
    reduced, ipc = _reduce_cycles(dict(cycle), res.iterations_per_cycle)
    return {core: StaticOrderSchedule(core, tuple(transient[core]),
                                      tuple(reduced[core]), ipc)
            for core in sorted(reduced)}


@lru_cache(maxsize=32, typed=True)
def _share_to_scale(share) -> object:
    share = exact_time(share)
    if not 0 < share <= 1:
        raise ValueError("time-wheel share must be in (0, 1]")
    # a float is read through its repr, so 1/3 arrives as
    # 3333333333333333/10**16; snap it to the nearest fraction with a
    # denominator of at most 10**6, which keeps every share written with
    # six decimals or fewer as it is and reads 1/3 as 1/3.  A share below
    # 5e-7 would snap to 0 and keeps its exact reading
    share = Fraction(share)
    scale = 1 / (share.limit_denominator(10 ** 6) or share)
    return int(scale) if scale.denominator == 1 else scale


def evaluate_mapping(g: Sdfg, hw: HardwareGraph, mapping: dict[str, str],
                     time_wheel_share: float = DEFAULT_TIME_WHEEL_SHARE,
                     state_budget: int = DEFAULT_STATE_BUDGET) -> MappingSolution:
    """Validate, schedule and rate one assignment with one simulation.

    The mapping is placed once, by core index (:func:`_place`): the
    checks of :func:`validate_mapping` and the list-scheduling run of
    :func:`build_schedules` read the same placement.  The rating is
    that of the self-timed run under the built schedules, as
    ``execute(..., schedules=...)`` gives it, but that run is not made:
    the list-scheduling run's own result is the rating, since under its
    own static orders the mapped graph fires every actor at the instant
    the list run did, counts the same blocked channels and recurs at
    the same pair of states (:class:`snnflow.sdfg._Simulation` gives
    the argument).  The throughput and the block counts both go into
    the returned solution, so a caller needs no further run for either.
    The run places the actors on the cores renamed ``0, 1, ...``
    (:func:`_placement_class`), and the rating takes the mapping's core
    names back (:func:`_renamed`).
    """
    return _evaluate_in({}, g, hw, mapping, time_wheel_share, state_budget)


def _placement_class(placement: tuple) -> tuple:
    """A placement ``(exec_times, core_of, latency)``, each actor's
    execution time and host core and each channel's latency, as tuples
    with each host core renamed ``0, 1, ...`` in the order it first hosts
    an actor: what its simulation reads, up to core names (see
    :func:`search_mapping`)."""
    times, core_of, latency = placement
    labels: dict = {}
    return (tuple(times), tuple(labels.setdefault(core, len(labels))
                                for core in core_of), tuple(latency))


def _rate_class(g: Sdfg, cls: tuple, state_budget: int) -> tuple:
    """The rating of a placement class under its own core names: the
    solution (with no mapping), the list run's steady state, whose
    cursors follow core ``0, 1, ...``, and its hashes by core order
    (:func:`_renamed`).  Raises as the list run does."""
    listed = _list_run(g, cls, state_budget)
    schedules = _schedules_from_log(listed)
    return (MappingSolution({}, schedules, listed.to_throughput(),
                            listed.block_counts), listed.steady_state, {})


def _renamed(rating: tuple, mapping: dict[str, str], core_of
             ) -> MappingSolution:
    """A class rating under ``mapping``, whose actors run on ``core_of``:
    core ``k`` of the class is the ``k``-th distinct core there.  The
    schedules, and the per-core cursors of the hashed steady state, list
    the cores in core-id order; the rating keeps the state's hash under
    each order it is read in."""
    sol, state, hashes = rating
    names = list(dict.fromkeys(core_of))
    order = tuple(sorted(range(len(names)), key=names.__getitem__))
    schedules = {}
    for k in order:
        s = sol.schedules[k]
        schedules[names[k]] = StaticOrderSchedule(
            names[k], s.transient, s.cycle, s.iterations_per_cycle)
    t = sol.throughput
    if order not in hashes:
        hashes[order] = _state_hash(
            (*state[:-1], tuple(state[-1][k] for k in order)))
    return MappingSolution(dict(mapping), schedules, ThroughputResult(
        t.period, t.throughput, t.transient_length, hashes[order]),
        sol.block_counts)


def _evaluate_in(table: dict, g: Sdfg, hw: HardwareGraph,
                 mapping: dict[str, str], time_wheel_share: float,
                 state_budget: int) -> MappingSolution:
    """:func:`evaluate_mapping` through ``table``, the
    :func:`search_mapping` table: the mapping's placement class is
    simulated unless the table rates it.  A class rated ``None``, whose
    list run deadlocks, is simulated again to raise the error.
    """
    scale = _share_to_scale(time_wheel_share)
    picks = _host_positions(g, hw, mapping)
    cls = _place(g, hw, picks, scale)[1]
    ratings = _table_entry(table, g, hw, time_wheel_share, state_budget)[1]
    if ratings.get(cls) is None:
        ratings[cls] = _rate_class(g, cls, state_budget)
    return _renamed(ratings[cls], mapping, [hw._cores[0][j] for j in picks])


def _table_entry(table: dict, g: Sdfg, hw: HardwareGraph,
                 time_wheel_share: float, state_budget: int) -> list:
    # [placed, ratings, floor] of one graph on one platform, see
    # search_mapping
    return table.setdefault((g, hw, time_wheel_share, state_budget),
                            [{}, {}, None])


@dataclass
class Swarm:
    """Mutable swarm state; positions are flattened cluster-by-core grids."""

    positions: np.ndarray
    velocities: np.ndarray
    best_positions: np.ndarray
    best_periods: np.ndarray
    gbest_position: np.ndarray | None = None
    gbest_period: float = math.inf
    history: list[float] = field(default_factory=list)


def init_swarm(cfg: SwarmConfig, dims: int,
               rng: np.random.Generator) -> Swarm:
    positions = rng.uniform(0.0, 1.0, size=(cfg.particles, dims))
    velocities = rng.uniform(-V_MAX, V_MAX, size=(cfg.particles, dims))
    return Swarm(positions=positions, velocities=velocities,
                 best_positions=positions.copy(),
                 best_periods=np.full(cfg.particles, math.inf))


def pso_step(swarm: Swarm, fitness) -> Swarm:
    """One swarm update: move positions, evaluate, refresh bests.

    The whole swarm is evaluated in one call: ``fitness(positions,
    limits)`` takes the ``(particles, dims)`` positions and returns one
    period per row, in row order (lower is better; ``inf`` marks an
    infeasible decode).  ``limits[l]`` is particle ``l``'s best period
    so far, the only value its new period is compared with; when
    fitness can prove that a period is at least its limit, it may
    return any value ``>=`` the limit instead.  The bests are then
    refreshed row by row.  When fitness finds a row whose period no row
    can beat, it may return no periods, and the caller then stops.  The
    first call on a fresh swarm only evaluates the initial positions,
    each against a limit of ``inf``.
    """
    if swarm.gbest_position is not None:
        swarm.velocities = (
            swarm.velocities
            + PHI1 * (swarm.best_positions - swarm.positions)
            + PHI2 * (swarm.gbest_position - swarm.positions))
        np.clip(swarm.velocities, -V_MAX, V_MAX, out=swarm.velocities)
        swarm.positions = swarm.positions + swarm.velocities
        np.clip(swarm.positions, 0.0, 1.0, out=swarm.positions)

    periods = fitness(swarm.positions, swarm.best_periods)
    for l, period in enumerate(periods):
        if period < swarm.best_periods[l]:
            swarm.best_periods[l] = period
            swarm.best_positions[l] = swarm.positions[l].copy()
        if period < swarm.gbest_period:
            swarm.gbest_period = period
            swarm.gbest_position = swarm.positions[l].copy()
    swarm.history.append(swarm.gbest_period)
    return swarm


def _period_lower_bound(g: Sdfg, exec_times: list, core_of: list,
                        latency: list):
    """Exact lower bound on the period of a mapped, scheduled graph.

    The arguments are a placement, as :func:`_placement_class` reads one.
    The period is the maximum cycle ratio of the design's
    inter-processor-communication graph (Reiter, JACM 1968; Sriram &
    Bhattacharyya 2000), so any one cycle's ratio bounds it from below:

    * a core fires its actors one at a time, each once per iteration, so
      its load ``sum(exec(a))`` is a cycle ratio;
    * a bounded channel between two distinct actors closes a
      forward/credit cycle of weight ``exec(src) + latency + exec(dst)``
      that holds at most ``capacity`` firings.

    Self-loops and channels under one token are left to the analysis
    itself.
    """
    load: dict = defaultdict(int)
    for core, t in zip(core_of, exec_times):
        load[core] += t
    # the largest ratio so far as num / den, so that integer times stay
    # in integer arithmetic
    num, den = max(load.values(), default=0), 1
    for ci, s, d, tokens in g._ends[2]:
        weight = exec_times[s] + latency[ci] + exec_times[d]
        if weight * den > num * tokens:
            num, den = weight, tokens
    return Fraction(num, den)


def _search_floor(g: Sdfg, hw: HardwareGraph, scale) -> Fraction:
    """Exact period floor of every feasible placement of ``g`` on ``hw``.

    Execution times are scaled by ``scale`` as
    :func:`snnflow.sdfg._placed` scales them, ``t_min`` is the
    fastest core's and ``hop`` the cheapest route between two distinct
    cores, from the platform's tables.  Two facts hold under any
    placement that fits the crossbars:

    * the busiest core carries at least the mean load over all cores,
      ``actors * t_min / cores``, and at least one firing, ``t_min``:
      the load term;
    * a bounded channel whose two actors sit on distinct cores closes a
      forward/credit cycle of ratio at least ``(2 * t_min + hop) / k``,
      ``k`` its capacity in tokens: the channel's apart term.

    The floor is the least ``v``, at or above the load term, such that
    joining the two actors of every channel whose apart term exceeds
    ``v`` gives groups that each fit the largest crossbar and each have
    ``len(group) * t_min <= v``.

    It is below every placement's :func:`_period_lower_bound` ``u``:
    every channel whose apart term exceeds ``u`` has its actors on one
    core, else its cycle would exceed ``u``; so each group sits on one
    core, its weight fits that core's crossbar and its load, at least
    ``len(group) * t_min``, is at most ``u``, and ``u`` is at least
    the load term.  So ``v = u`` meets the condition, and the least
    such ``v`` is at most ``u``.

    The condition only loosens as ``v`` grows, so one pass over the
    channels, highest apart term first, joins them in a union-find: the
    groups formed once every term at or above ``a`` is joined force
    ``v >= a`` when one of them overflows the crossbar, and
    ``v >= min(a, len(group) * t_min)`` otherwise.  When no apart term
    exceeds the load term, as on a graph without bounded channels, the
    floor is the load term.
    """
    n = len(g.actors)
    t_min = min(hw._scaled_times(scale))
    largest = max(hw._cores[1])
    floor = max(Fraction(n, len(hw.cores)), Fraction(min(n, 1))) * t_min
    cycle = 2 * t_min + hw._tables[2]
    # the channels whose apart term cycle / k exceeds the load term,
    # highest term (fewest tokens held) first
    forced = sorted((tokens, a, b) for _, a, b, tokens in g._ends[2]
                    if cycle > floor * tokens)
    if not forced:
        return floor
    root = list(range(n))
    size = [1] * n
    weight = list(g._weights[1])

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for tokens, a, b in forced:
        term = Fraction(cycle, tokens)
        if term <= floor:  # no later term can raise the floor
            break
        a, b = find(a), find(b)
        if a != b:
            root[b] = a
            size[a] += size[b]
            weight[a] += weight[b]
        if weight[a] > largest:  # the actors cannot be kept together
            return term
        floor = max(floor, min(term, size[a] * t_min))
    return floor


def search_mapping(g: Sdfg, hw: HardwareGraph, cfg: SwarmConfig | None = None,
                   time_wheel_share: float = DEFAULT_TIME_WHEEL_SHARE,
                   state_budget: int = DEFAULT_STATE_BUDGET,
                   rng: np.random.Generator | np.random.SeedSequence
                   | int | None = None,
                   table: dict | None = None) -> MappingSolution:
    """Swarm search over assignments, keeping the highest-throughput one.

    Every evaluated assignment satisfies the platform capacities;
    positions whose decode cannot be repaired, or whose schedule
    deadlocks, score as infeasible.  Raises
    :class:`InfeasibleMappingError` when no feasible assignment was found
    at all.  Budget errors from the underlying analysis propagate.
    ``rng`` is a generator, a seed or seed sequence, or ``None`` for a
    fresh seed.  Each swarm iteration is one :func:`pso_step`, whose
    batch ``fitness`` reads the rows in order, each decoded as
    :func:`decode_position` would when it is read (:func:`_decode_swarm`).

    Bounds and ratings go into ``table``, a dict that the caller may
    share between searches (``None`` gives this search a fresh one).  It
    is keyed by everything a rating reads besides the assignment: the
    graph by value, the platform, the time-wheel share and the state
    budget.  Under that key it holds a list of three:

    * a dict keyed by an assignment's host cores, holding its period
      bound as a float and its placement class
      (:func:`_placement_class`), or ``inf`` and ``None`` when a missing
      route or a core's capacity rules it out;
    * a dict keyed by placement class, holding its rating (``None`` for
      a class whose list run deadlocks);
    * the search floor, once computed.

    The class is what the simulation reads: each actor's scaled
    execution time and host core and each channel's latency, with the
    cores renamed ``0, 1, ...`` by first occurrence.  In the list run
    a core's name only groups actors and orders the starts of one
    instant, whose state updates commute.  A recorded state sorts its
    pending ends and arrivals, and it lists per-core queues in core-id
    order, as the steady state lists its cursors; a renaming permutes
    them alike in every state, so the same states repeat.  Every
    assignment of a class therefore reads the class's one rating with
    its cores renamed (:func:`_renamed`), the record a fresh evaluation
    gives.  Capacities are per core, so they are checked for each
    assignment; only the simulation is shared.  Each distinct class of
    one graph on one platform is simulated at most once for as long as
    the table lives.
    A rating that exceeds the state budget is not stored.  A stored
    period where the bound would prune is at least the bound, so sharing
    the table changes no result.

    An assignment that a core's capacity rules out scores ``inf``
    unrated, as its rating would.  An assignment is not rated when its
    period bound (:func:`_period_lower_bound`, rounded to float) already
    reaches the particle's best period.  The swarm compares periods as
    floats and rounding is monotone, so its period would reach that best
    too: it could change neither that best nor the result.  Such a
    skipped assignment cannot raise :class:`BudgetExceededError`, which
    its rating might have done.  In the first swarm iteration every
    particle's best is ``inf`` and only assignments that cannot be
    placed at all are skipped.

    ``cfg.iterations`` is a maximum: the search stops in the first
    iteration that finds a period at most ``float(floor)``, the floor being
    :func:`_search_floor`, computed once per table entry, at the first row
    read that places an actor.  Every score is a rated period, a rounded
    bound or ``inf``, and rounding is monotone, so no score lies below
    ``float(floor)``.  Each iteration first probes its rows, reading them
    in row order: a row whose class is rated is read from the table, a row
    whose bound is at most ``float(floor)`` is rated, and every other row
    is passed over, since it cannot meet the floor.  The first row whose
    period is at most ``float(floor)`` is the row that scoring every row
    would make the swarm's best, since the swarm's best moves only on a
    strictly lower score and no limit can prune a probed row: every limit
    exceeds the floor while the search runs.  The search returns that row's
    solution, and the iteration's later rows are neither completed nor
    rated.  When no row meets the floor, the iteration scores every row as
    above.  So the returned solution is the one the full iterations would
    return.  The rows the search does not rate cannot raise the
    :class:`BudgetExceededError` that rating them might have; the first
    iteration always runs.
    """
    cfg = cfg or SwarmConfig()
    rng = np.random.default_rng(rng)  # a Generator passes through as is
    dims = len(g.actors) * len(hw.cores)
    swarm = init_swarm(cfg, dims, rng)
    clusters, cores = g._weights[0], hw._cores[0]
    scale = _share_to_scale(time_wheel_share)
    entry = _table_entry({} if table is None else table, g, hw,
                         time_wheel_share, state_budget)
    placed, ratings = entry[:2]

    def assignment(picks: tuple) -> dict[str, str]:
        return {cl: cores[j] for cl, j in zip(clusters, picks)}

    def place(picks: tuple) -> tuple:
        # a decoded row's rounded period bound and placement class
        if picks not in placed:
            try:
                placed[picks] = _place(g, hw, picks, scale)
            except InfeasibleMappingError as exc:
                logger.debug("assignment %s rejected: %s", assignment(picks),
                             exc)
                placed[picks] = math.inf, None
        return placed[picks]

    def rate(picks: tuple) -> float:
        # the period of a placed row's class, simulated if not yet rated
        cls = placed[picks][1]
        if cls not in ratings:
            try:
                ratings[cls] = _rate_class(g, cls, state_budget)
            except DeadlockError as exc:
                logger.debug("assignment %s rejected: %s", assignment(picks),
                             exc)
                ratings[cls] = None
        rating = ratings[cls]
        return math.inf if rating is None else rating[0].throughput.period

    def score(picks: tuple | None, limit: float) -> float:
        if picks is None:
            return math.inf
        bound, cls = place(picks)
        if cls not in ratings and bound >= limit:
            return bound
        return rate(picks)

    def meets_floor(picks: tuple | None, floor: float) -> bool:
        # a row whose bound is above the floor cannot meet it
        if picks is None:
            return False
        bound, cls = place(picks)
        return (cls in ratings or bound <= floor) and rate(picks) <= floor

    def solution(picks: tuple) -> MappingSolution:
        mapping = assignment(picks)
        return _renamed(ratings[placed[picks][1]], mapping, mapping.values())

    def fitness(positions: np.ndarray, limits: np.ndarray) -> list[float]:
        nonlocal found
        read, rows = _decode_swarm(positions, g, hw), []
        for l in range(len(positions)):  # the probe, reading each row once
            rows.append(read(l))
            if entry[2] is None and rows[-1]:  # the row places an actor
                entry[2] = float(_search_floor(g, hw, scale))
            if entry[2] is not None and meets_floor(rows[-1], entry[2]):
                found = solution(rows[-1])  # returned after this step
                return []
        return [score(picks, limit)
                for picks, limit in zip(rows, limits.tolist())]

    found = None
    for _ in range(cfg.iterations):
        pso_step(swarm, fitness)
        if found is not None:
            return found
    if swarm.gbest_position is None:
        raise InfeasibleMappingError(
            "no feasible cluster-to-core assignment found by the search")
    # only a rated row can beat the swarm's best, since a pruned row
    # scores at least its particle's best, so the best is in the table
    return solution(_decode_swarm(swarm.gbest_position[None], g, hw)(0))
