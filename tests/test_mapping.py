"""Mapping search, decoding, schedules and the swarm update rule."""

import itertools
import math
import pickle
import re
import weakref
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

import oracles
from conftest import (all_to_all_platform, chain_graph, demo_clustered,
                      layered_snn, lift_bounded, random_chain, random_hsdf,
                      two_core_platform)
from oracles import (reference_decode_position, reference_placement,
                     reference_search_mapping)
from test_sdfg import two_core_loop

from snnflow import mapping as mapping_module
from snnflow.errors import (BudgetExceededError, DeadlockError,
                            InfeasibleMappingError, SnnflowError)
from snnflow.mapping import (MappingSolution, SwarmConfig, Swarm,
                             _decode_swarm, _list_run, _period_lower_bound,
                             _placement_class, _rate_class, _search_floor,
                             _share_to_scale, build_schedules,
                             decode_position, evaluate_mapping, init_swarm,
                             pso_step, search_mapping, validate_mapping)
from snnflow.partition import (build_clustered_graph, partition_round,
                               round_seeds)
from snnflow.sdfg import (DEFAULT_STATE_BUDGET, Actor, Channel, Sdfg,
                          _host_positions, _placed, execute, exact_time,
                          lift_to_sdfg, minimum_buffer_allocation,
                          sdfg_from_dict, self_timed_throughput,
                          set_buffer_allocation)
from snnflow.snn_graph import Core, HardwareGraph, Link


def demo_sdfg(buffer=64) -> Sdfg:
    return lift_bounded(demo_clustered(), buffer=buffer)


def pipeline_sdfg(n: int, tokens: int = 4, buffer: int | None = None) -> Sdfg:
    actors = tuple(Actor(f"c{i}", 1, 1) for i in range(n))
    channels = [Channel(f"c{i}", f"c{i+1}", 0, (buffer or tokens) // tokens,
                        tokens) for i in range(n - 1)]
    channels += [Channel(a.id, a.id, tokens=1) for a in actors]
    return Sdfg(actors, tuple(channels))


# --------------------------------------------------------------- decode

def test_decode_single_core_takes_everything():
    g = pipeline_sdfg(1)
    hw = HardwareGraph((Core("t0", 4, 1),))
    theta = np.array([[0.01]])
    assert decode_position(theta, g, hw) == {"c0": "t0"}


def test_decode_argmax_row():
    g = pipeline_sdfg(1)
    hw = two_core_platform()
    assert decode_position(np.array([[0.2, 0.9]]), g, hw) == {"c0": "t1"}
    assert decode_position(np.array([[0.9, 0.2]]), g, hw) == {"c0": "t0"}
    # tie goes to the lowest core id
    assert decode_position(np.array([[0.5, 0.5]]), g, hw) == {"c0": "t0"}


def test_decode_repairs_capacity_overflow():
    rng = np.random.default_rng(0)
    g = pipeline_sdfg(5)
    hw = all_to_all_platform(3, dim=2)  # each core fits two unit clusters
    for _ in range(25):
        theta = rng.uniform(size=(5, 3))
        mapping = decode_position(theta, g, hw)
        validate_mapping(g, hw, mapping)


def test_decode_infeasible_when_demand_exceeds_capacity():
    g = pipeline_sdfg(5)
    hw = HardwareGraph((Core("t0", 2, 1), Core("t1", 2, 1)))
    with pytest.raises(InfeasibleMappingError):
        decode_position(np.full((5, 2), 0.5), g, hw)


def decode_or_error(decode, theta, g, hw):
    try:
        return decode(theta, g, hw)
    except InfeasibleMappingError as exc:
        return f"infeasible: {exc}"


def test_decode_matches_reference_decode():
    rng = np.random.default_rng(5)
    platforms = [
        all_to_all_platform(3, dim=2),
        # mixed crossbar sizes, cores declared out of id order
        HardwareGraph((Core("t2", 3, 1), Core("t0", 1, 1), Core("t3", 2, 1),
                       Core("t1", 4, 1))),
    ]
    seen = {"tie": 0, "repaired": 0, "infeasible": 0}
    for hw in platforms:
        n_cores = len(hw.cores)
        for n in (1, 3, 5, 8):
            g = Sdfg(tuple(Actor(f"c{i}", 1, int(w))
                           for i, w in enumerate(rng.integers(1, 4, n))))
            for _ in range(30):
                theta = rng.uniform(size=n * n_cores)
                for pos in (theta, np.round(theta * 2) / 2):
                    want = decode_or_error(reference_decode_position,
                                           pos, g, hw)
                    assert decode_or_error(decode_position, pos, g, hw) \
                        == want
                    grid = pos.reshape(n, n_cores)
                    seen["tie"] += any(
                        np.sum(row == row.max()) > 1 for row in grid)
                    if isinstance(want, str):
                        seen["infeasible"] += 1
                    else:
                        cores = sorted(hw.core_ids())
                        seen["repaired"] += want != {
                            f"c{i}": cores[int(np.argmax(row))]
                            for i, row in enumerate(grid)}
    assert all(seen.values()), seen


def test_swarm_decode_matches_reference_decode_row_by_row():
    rng = np.random.default_rng(9)
    platforms = [
        all_to_all_platform(3, dim=2),
        HardwareGraph((Core("t2", 3, 1), Core("t0", 1, 1), Core("t3", 2, 1),
                       Core("t1", 4, 1))),
    ]
    seen = {"tie": 0, "repaired": 0, "infeasible": 0, "no clusters": 0}
    for hw in platforms:
        cores = sorted(hw.core_ids())
        for n in (0, 1, 3, 5, 8):
            g = Sdfg(tuple(Actor(f"c{i}", 1, int(w))
                           for i, w in enumerate(rng.integers(1, 4, n))))
            for particles in (1, 4, 20):
                positions = rng.uniform(size=(particles, n * len(cores)))
                # every other row on a grid of halves, so that rows tie
                positions[::2] = np.round(positions[::2] * 2) / 2
                read = _decode_swarm(positions, g, hw)
                for theta, picks in zip(positions,
                                        map(read, range(particles))):
                    want = decode_or_error(reference_decode_position,
                                           theta, g, hw)
                    if isinstance(want, str):
                        assert picks is None
                        seen["infeasible"] += 1
                        continue
                    assert {f"c{i}": cores[j]
                            for i, j in enumerate(picks)} == want
                    grid = theta.reshape(n, len(cores))
                    seen["tie"] += any(
                        np.sum(row == row.max()) > 1 for row in grid)
                    seen["repaired"] += want != {
                        f"c{i}": cores[int(np.argmax(row))]
                        for i, row in enumerate(grid)}
                    seen["no clusters"] += n == 0
    assert all(seen.values()), seen


def test_decoders_refuse_clusters_without_cores():
    g = pipeline_sdfg(2)
    hw = HardwareGraph((), ())
    hw.validate()  # a platform may declare no cores
    with pytest.raises(InfeasibleMappingError, match="no core"):
        decode_position(np.zeros(0), g, hw)
    with pytest.raises(InfeasibleMappingError, match="no core"):
        _decode_swarm(np.zeros((3, 0)), g, hw)
    with pytest.raises(InfeasibleMappingError):
        search_mapping(g, hw, SwarmConfig(particles=2, iterations=2), rng=0)
    # with no clusters either, the assignment is empty
    assert decode_position(np.zeros(0), Sdfg(()), hw) == {}


def test_validate_mapping_checks_connection_caps():
    g = demo_sdfg()
    hw = HardwareGraph(
        (Core("t0", 8, 1, out_connections=0), Core("t1", 8, 1)),
        (Link("t0", "t1", 1), Link("t1", "t0", 1)))
    mapping = {"c0": "t0", "c1": "t1", "c2": "t1"}
    with pytest.raises(InfeasibleMappingError, match="outgoing"):
        validate_mapping(g, hw, mapping)


def test_validate_mapping_checks_bandwidth():
    g = demo_sdfg()
    hw = HardwareGraph(
        (Core("t0", 8, 1), Core("t1", 8, 1, in_bandwidth=10)),
        (Link("t0", "t1", 1), Link("t1", "t0", 1)))
    mapping = {"c0": "t0", "c1": "t1", "c2": "t1"}
    # c0 -> c1 carries 19 spikes per iteration, above the cap of 10
    with pytest.raises(InfeasibleMappingError, match="spikes"):
        validate_mapping(g, hw, mapping)


def test_validate_mapping_checks_outgoing_bandwidth_in_spikes():
    # c0's one channel to another core moves one token of 19 spikes
    g = demo_sdfg()
    hw = HardwareGraph(
        (Core("t0", 8, 1, out_bandwidth=18), Core("t1", 8, 1)),
        (Link("t0", "t1", 1), Link("t1", "t0", 1)))
    mapping = {"c0": "t0", "c1": "t1", "c2": "t1"}
    with pytest.raises(InfeasibleMappingError, match=re.escape(
            "core 't0' sends 19 spikes per iteration (limit 18)")):
        validate_mapping(g, hw, mapping)
    hw = replace(hw, cores=(Core("t0", 8, 1, out_bandwidth=19), hw.cores[1]))
    validate_mapping(g, hw, mapping)


def test_validate_mapping_requires_route():
    g = demo_sdfg()
    hw = HardwareGraph((Core("t0", 8, 1), Core("t1", 8, 1)),
                       (Link("t1", "t0", 1),))  # no route t0 -> t1
    with pytest.raises(InfeasibleMappingError, match="route"):
        validate_mapping(g, hw, {"c0": "t0", "c1": "t1", "c2": "t1"})


@pytest.mark.parametrize("mapping, message", [
    ({"c0": "t0", "c1": "t0"}, "actor 'c2' is unmapped"),
    ({"c0": "t0", "c1": "t0", "c2": "t9"},
     "actor 'c2' mapped to undeclared core 't9'"),
    ({"c0": "t0", "c1": "t1", "c2": "t1"},
     "no route from core 't0' to core 't1' required by channel 0"),
], ids=["unmapped", "undeclared-core", "no-route"])
def test_every_entry_point_gives_the_same_placement_error(mapping, message):
    g = demo_sdfg()
    hw = HardwareGraph((Core("t0", 8, 1), Core("t1", 8, 1)),
                       (Link("t1", "t0", 1),))  # no route t0 -> t1
    for entry in (lambda: validate_mapping(g, hw, mapping),
                  lambda: execute(g, platform=hw, mapping=mapping),
                  lambda: evaluate_mapping(g, hw, mapping)):
        with pytest.raises(InfeasibleMappingError) as err:
            entry()
        assert str(err.value) == message


def test_route_error_comes_before_overload():
    g = demo_sdfg()
    hw = HardwareGraph((Core("t0", 1, 1), Core("t1", 1, 1)),
                       (Link("t1", "t0", 1),))  # no route t0 -> t1
    with pytest.raises(InfeasibleMappingError, match="no route"):
        validate_mapping(g, hw, {"c0": "t0", "c1": "t1", "c2": "t1"})


def sparse_capped_platform(rng) -> HardwareGraph:
    """Three to five cores, declared out of id order, of mixed speeds
    and crossbars, some capping their connections or bandwidth, joined
    by a random half of the links, so that some pairs have no route."""
    n = int(rng.integers(3, 6))
    cores = [Core(f"t{j}", int(rng.integers(2, 9)),
                  [1, 1.5, 2, 0.3][int(rng.integers(0, 4))],
                  *(None if rng.random() < 0.6 else cap for cap in (
                      int(rng.integers(0, 3)), int(rng.integers(0, 3)),
                      float(rng.integers(0, 40)) + 0.5,
                      int(rng.integers(0, 40)))))
             for j in rng.permutation(n)]
    links = [Link(f"t{a}", f"t{b}", [0, 1, 2, 0.1][int(rng.integers(0, 4))])
             for a, b in itertools.permutations(range(n), 2)
             if rng.random() < 0.5]
    return HardwareGraph(tuple(cores), tuple(links))


def reference_bound(g: Sdfg, times, core_of, latency) -> Fraction:
    # the busiest core's load and every forward/credit cycle's ratio,
    # summed over the actor and channel lists
    exec_of, host = dict(zip(g.actor_ids(), times)), \
        dict(zip(g.actor_ids(), core_of))
    ratios = [sum(t for a, t in exec_of.items() if host[a] == core)
              for core in core_of]
    ratios += [Fraction(exec_of[c.src] + lat + exec_of[c.dst], c.capacity)
               for c, lat in zip(g.channels, latency)
               if c.capacity and c.src != c.dst]
    return max(ratios, default=0)


def placed_by_index(g: Sdfg, hw: HardwareGraph, mapping: dict[str, str],
                    scale) -> tuple[list, list, list]:
    """The library's placement of a mapping by core index, its host
    cores named again."""
    picks = _host_positions(g, hw, mapping)
    times, latency = _placed(g, hw, picks, scale)
    return times, [hw._cores[0][j] for j in picks], latency


def test_placing_by_core_index_equals_the_name_based_reference():
    # the platform's and the graph's tables give every placement the
    # reference makes by core name from the routed latencies: the same
    # exact times and latencies, bound and class, verdict and message
    rng = np.random.default_rng(71)
    kinds = {"unmapped": "is unmapped", "undeclared": "undeclared core",
             "no route": "no route", "crossbar": "crossbar limit",
             "connections": "connections", "bandwidth": "spikes per"}
    seen = dict.fromkeys(["placed", "fraction times", "fraction latency",
                          *kinds], 0)
    for case in range(240):
        g = random_design(case)
        hw = sparse_capped_platform(rng)
        cores = hw.core_ids()
        mapping = {a: cores[int(rng.integers(0, len(cores)))]
                   for a in g.actor_ids()}
        if case % 13 == 1:
            del mapping[g.actors[-1].id]
        elif case % 13 == 2:
            mapping[g.actors[0].id] = "t9"
        scale = _share_to_scale([1, 0.5, 0.4, 1 / 3][case % 4])
        placement = evaluate_or_error(oracles.reference_placement, g, hw,
                                      mapping, scale)
        # the hashed states digest reprs, so an int must stay an int
        assert repr(evaluate_or_error(placed_by_index, g, hw, mapping,
                                      scale)) == repr(placement), case
        want = placement
        if isinstance(placement[0], list):
            want = evaluate_or_error(oracles.reference_capacities, g, hw,
                                     placement[1])
        assert evaluate_or_error(validate_mapping, g, hw, mapping) == want, \
            case
        if want is not None:
            seen[next(k for k, text in kinds.items() if text in want[1])] += 1
        if not all(mapping.get(a) in cores for a in g.actor_ids()):
            continue
        ids = sorted(cores)
        picks = tuple(ids.index(mapping[a]) for a in g.actor_ids())
        got = evaluate_or_error(mapping_module._place, g, hw, picks, scale)
        if want is not None:
            assert got == want, case
            continue
        times, core_of, latency = placement
        labels: dict = {}
        cls = (tuple(times), tuple(labels.setdefault(core, len(labels))
                                   for core in core_of), tuple(latency))
        assert got == (float(reference_bound(g, *placement)), cls), case
        assert repr(got[1]) == repr(cls)
        seen["placed"] += 1
        seen["fraction times"] += any(isinstance(t, Fraction) for t in times)
        seen["fraction latency"] += any(isinstance(lat, Fraction)
                                        for lat in latency)
    assert all(seen.values()), seen


# ------------------------------------------------------------ schedules

def test_single_cluster_schedule_repeats_it():
    cg = demo_clustered()
    single = type(cg)(clusters=cg.clusters[:1], edges=())
    g = lift_to_sdfg(single, core_exec_time=1)
    hw = HardwareGraph((Core("t0", 8, 1),))
    schedules = build_schedules(g, hw, {"c0": "t0"})
    s = schedules["t0"]
    assert s.cycle == ("c0",)
    assert s.iterations_per_cycle == 1


def test_two_independent_clusters_alternate():
    from snnflow.partition import Cluster, ClusteredSnnGraph
    cg = ClusteredSnnGraph(
        clusters=(Cluster("u", ("x",)), Cluster("v", ("y",))), edges=())
    g = lift_to_sdfg(cg, core_exec_time=1)
    hw = HardwareGraph((Core("t0", 4, 1),))
    schedules = build_schedules(g, hw, {"u": "t0", "v": "t0"})
    s = schedules["t0"]
    assert sorted(s.cycle) == ["u", "v"]
    assert s.iterations_per_cycle == 1


def assert_cycles_hold_hosted_actors_once_per_iteration(g, hw, mapping):
    # every actor fires once per iteration, so a core's cycle holds each
    # of its own actors once per iteration it covers
    schedules = build_schedules(g, hw, mapping)
    for core, s in schedules.items():
        hosted = {a for a, c in mapping.items() if c == core}
        assert set(s.cycle) == hosted
        for actor in hosted:
            assert s.cycle.count(actor) == s.iterations_per_cycle


def test_schedule_multiplicities_match_repetition_vector():
    g = Sdfg((Actor("a", 1), Actor("b", 1)),
             (Channel("a", "b", 0, 3, volume=2),
              Channel("a", "a", tokens=1),
              Channel("b", "b", tokens=1)))
    assert_cycles_hold_hosted_actors_once_per_iteration(
        g, two_core_platform(dim=4), {"a": "t0", "b": "t1"})


def test_demo_schedule_covers_every_actor_q_times(hw2):
    assert_cycles_hold_hosted_actors_once_per_iteration(
        demo_sdfg(buffer=38), hw2, {"c0": "t0", "c1": "t1", "c2": "t1"})


def test_imposed_schedule_never_beats_free_execution(hw2):
    g = demo_sdfg(buffer=19)
    mapping = {"c0": "t0", "c1": "t0", "c2": "t1"}
    schedules = build_schedules(g, hw2, mapping)
    scheduled = self_timed_throughput(g, schedules=schedules, platform=hw2,
                                      mapping=mapping, exec_time_scale=2)
    free = self_timed_throughput(g, platform=hw2, mapping=mapping,
                                 exec_time_scale=2)
    assert scheduled.throughput <= free.throughput


def test_evaluate_mapping_returns_consistent_solution(hw2):
    g = demo_sdfg(buffer=38)
    sol = evaluate_mapping(g, hw2, {"c0": "t0", "c1": "t1", "c2": "t1"})
    assert isinstance(sol, MappingSolution)
    assert sol.throughput.period > 0
    assert sol.throughput.throughput * sol.throughput.period == \
        pytest.approx(1, abs=1e-12)
    record = sol.to_record()
    assert set(record) == {"mapping", "throughput", "schedules"}


def test_evaluate_mapping_block_counts_match_a_separate_run(hw2):
    cases = [(demo_sdfg(buffer=38), hw2,
              {"c0": "t0", "c1": "t1", "c2": "t1"}),
             (demo_sdfg(buffer=19), hw2,
              {"c0": "t0", "c1": "t0", "c2": "t1"}),
             (pipeline_sdfg(3, tokens=2), all_to_all_platform(3),
              {"c0": "t0", "c1": "t1", "c2": "t2"})]
    blocked = 0
    for g, hw, mapping in cases:
        sol = evaluate_mapping(g, hw, mapping)
        # the default time-wheel share of 1/2 doubles every firing time
        ref = execute(g, schedules=sol.schedules, platform=hw,
                      mapping=sol.mapping, exec_time_scale=2,
                      state_budget=DEFAULT_STATE_BUDGET)
        assert sol.block_counts == ref.block_counts
        assert sol.throughput == ref.to_throughput()
        blocked += any(ref.block_counts.values())
    assert blocked


def test_evaluate_mapping_repeats_on_the_same_objects(hw2):
    g = demo_sdfg(buffer=19)
    mapping = {"c0": "t0", "c1": "t0", "c2": "t1"}
    first = evaluate_mapping(g, hw2, mapping)
    assert evaluate_mapping(g, hw2, mapping) == first


def test_evaluated_state_layout_is_pinned():
    # the rating's recurring state, its hash and its block counts go into
    # every record and drive the buffer sweep, so a change to the state
    # key or to the cursor reduction must show here.  The second design
    # repeats every 4 iterations with a fractional period, at a share
    # that reads as exactly 1/3
    g, hw, mapping = two_core_loop()

    def pinned(sol):
        t = sol.throughput
        return (t.period, t.steady_state_hash, t.transient_length,
                sol.block_counts)

    sol = evaluate_mapping(g, hw, mapping)
    assert pinned(sol) == (13 / 3, "bf4339465537", 0, {0: 2})
    g = Sdfg((Actor("a0"), Actor("a1"), Actor("a2")),
             (Channel("a0", "a0", tokens=1),
              Channel("a1", "a1", tokens=1),
              Channel("a2", "a2", tokens=1),
              Channel("a2", "a1", tokens=1, capacity=4)))
    hw = HardwareGraph((Core("t0", 4, 2), Core("t1", 4, 1.5),
                        Core("t3", 3, 2.5)),
                       (Link("t1", "t3", 2), Link("t3", "t1", 2)))
    sol = evaluate_mapping(g, hw, {"a0": "t0", "a1": "t3", "a2": "t1"},
                           1 / 3)
    assert {s.iterations_per_cycle for s in sol.schedules.values()} == {4}
    assert pinned(sol) == (7.5, "4aa0e5479609", 3, {3: 10})


def test_graph_and_platform_with_filled_tables_survive_pickle(hw2):
    # a graph or platform sent to a worker process is pickled with the
    # tables it has built so far, which the copy must be able to use
    g = demo_sdfg(buffer=38)
    mapping = {"c0": "t0", "c1": "t1", "c2": "t1"}
    sol = evaluate_mapping(g, hw2, mapping)
    theta = np.random.default_rng(1).uniform(size=len(g.actors) * 2)
    decoded = decode_position(theta, g, hw2)
    run = execute(g, platform=hw2, mapping=mapping)
    assert {"_tables", "_ends"} <= set(vars(g)) and hw2._tables[4]
    g_copy, hw_copy = pickle.loads(pickle.dumps((g, hw2)))
    assert (g_copy, hw_copy) == (g, hw2)
    assert evaluate_mapping(g_copy, hw_copy, mapping) == sol
    assert decode_position(theta, g_copy, hw_copy) == decoded
    assert execute(g_copy, platform=hw_copy, mapping=mapping) == run


def test_a_graph_and_a_platform_hash_by_value_once_and_pickle_without_it(hw2):
    # the value hash is kept on the frozen graph and platform, and left
    # out when they are pickled: a process started by spawn or forkserver
    # seeds string hashes anew, so a copied hash would not be the value's
    g = demo_sdfg(buffer=38)
    for x, twin in ((g, Sdfg(g.actors, g.channels)),
                    (hw2, HardwareGraph(hw2.cores, hw2.links))):
        assert "_hash" not in vars(x)
        assert hash(x) == hash(twin) and x == twin and x is not twin
        assert vars(x)["_hash"] == hash(tuple(getattr(x, f.name)
                                              for f in fields(x)))
        assert x._tables  # filled tables travel with the copy
        copy = pickle.loads(pickle.dumps(x))
        assert "_hash" not in vars(copy) and "_tables" in vars(copy)
        assert copy == x and hash(copy) == hash(x)


def test_a_platform_and_a_lifted_graph_with_filled_tables_are_freed():
    # the tables of a platform and of a graph live on them, so nothing
    # keeps either alive once the caller drops it
    lifted = lift_to_sdfg(demo_clustered(), core_exec_time=1)
    g = set_buffer_allocation(lifted, minimum_buffer_allocation(lifted))
    hw = all_to_all_platform(2)
    search_mapping(g, hw, SwarmConfig(particles=4, iterations=3), rng=0,
                   table={})
    evaluate_mapping(g, hw, {"c0": "t0", "c1": "t1", "c2": "t1"})
    _search_floor(lifted, hw, 2)
    assert {"_tables", "_ends", "_weights"} <= set(vars(g))
    assert {"_tables", "_routes", "_cores"} <= set(vars(hw))
    assert hw._tables[4]
    refs = [weakref.ref(x) for x in (lifted, g, hw)]
    del lifted, g, hw
    assert [ref() for ref in refs] == [None, None, None]


# ------------------------------------------------------------------ pso

def test_pso_zero_phi_keeps_constant_velocity(monkeypatch):
    monkeypatch.setattr(mapping_module, "PHI1", 0.0)
    monkeypatch.setattr(mapping_module, "PHI2", 0.0)
    cfg = SwarmConfig(particles=3, iterations=2)
    rng = np.random.default_rng(0)
    swarm = init_swarm(cfg, dims=4, rng=rng)
    v0 = swarm.velocities.copy()
    p0 = swarm.positions.copy()
    fitness = lambda positions, limits: [float(np.sum(theta))
                                         for theta in positions]
    pso_step(swarm, fitness)   # evaluation only
    pso_step(swarm, fitness)   # now positions move by velocity
    assert np.allclose(swarm.velocities, v0)
    assert np.allclose(swarm.positions,
                       np.clip(p0 + v0, 0.0, 1.0))


def test_pso_particle_at_gbest_is_stationary():
    cfg = SwarmConfig(particles=1, iterations=1)
    rng = np.random.default_rng(1)
    swarm = init_swarm(cfg, dims=3, rng=rng)
    swarm.velocities[:] = 0.0
    fitness = lambda positions, limits: [1.0] * len(positions)
    pso_step(swarm, fitness)
    before = swarm.positions.copy()
    pso_step(swarm, fitness)
    assert np.allclose(swarm.positions, before)


def test_pso_gbest_monotone_and_beats_initial_population(hw2):
    g = demo_sdfg(buffer=38)
    cfg = SwarmConfig(particles=8, iterations=12)
    rng = np.random.default_rng(7)
    swarm = init_swarm(cfg, dims=len(g.actors) * 2, rng=rng)

    def period(theta):
        try:
            mapping = decode_position(theta, g, hw2)
            return evaluate_mapping(g, hw2, mapping).throughput.period
        except InfeasibleMappingError:
            return math.inf

    def fitness(positions, limits):
        return [period(theta) for theta in positions]

    pso_step(swarm, fitness)
    initial_best = swarm.gbest_period
    for _ in range(cfg.iterations - 1):
        pso_step(swarm, fitness)
    assert all(b >= a for a, b in
               zip(swarm.history[1:], swarm.history[:-1]))  # non-increasing
    assert swarm.gbest_period <= initial_best


def test_search_symmetric_two_clusters(hw2):
    from snnflow.partition import Cluster, ClusterEdge, ClusteredSnnGraph
    cg = ClusteredSnnGraph(
        clusters=(Cluster("u", ("x",)), Cluster("v", ("y",))),
        edges=(ClusterEdge("u", "v", 3),))
    g = lift_bounded(cg, buffer=3)
    sol = search_mapping(g, hw2, SwarmConfig(particles=4, iterations=6), rng=2)
    both = {evaluate_mapping(g, hw2, {"u": "t0", "v": "t1"}).throughput.throughput,
            evaluate_mapping(g, hw2, {"u": "t1", "v": "t0"}).throughput.throughput}
    assert len(both) == 1
    assert sol.throughput.throughput >= max(both) or \
        sol.throughput.throughput in both


def test_three_stage_pipeline_gains_from_three_cores():
    g = pipeline_sdfg(3, tokens=2, buffer=8)
    hw1 = HardwareGraph((Core("t0", 4, 1),))
    hw3 = all_to_all_platform(3, dim=4)
    single = evaluate_mapping(g, hw1, {c: "t0" for c in g.actor_ids()})
    spread = evaluate_mapping(g, hw3, {"c0": "t0", "c1": "t1", "c2": "t2"})
    assert spread.throughput.throughput >= single.throughput.throughput


def test_search_matches_exhaustive_enumeration():
    g = pipeline_sdfg(4, tokens=2, buffer=4)
    hw = all_to_all_platform(2, dim=3)
    best = 0.0
    for combo in itertools.product(hw.core_ids(), repeat=4):
        mapping = dict(zip(g.actor_ids(), combo))
        try:
            sol = evaluate_mapping(g, hw, mapping)
        except InfeasibleMappingError:
            continue
        best = max(best, sol.throughput.throughput)
    hits = 0
    for seed in range(6):
        sol = search_mapping(g, hw, SwarmConfig(particles=10, iterations=12),
                             rng=seed)
        assert sol.throughput.throughput <= best + 1e-12
        if sol.throughput.throughput == pytest.approx(best, rel=1e-12):
            hits += 1
    assert hits >= 4


def test_search_deterministic_given_seed(hw2):
    g = demo_sdfg(buffer=19)
    cfg = SwarmConfig(particles=6, iterations=8)
    a = search_mapping(g, hw2, cfg, rng=11)
    b = search_mapping(g, hw2, cfg, rng=np.random.default_rng(11))
    assert a.mapping == b.mapping
    assert a.throughput == b.throughput


def test_search_budget_error_in_the_first_iteration_propagates(hw2):
    # every particle's best is inf in the first iteration, so no
    # assignment is skipped there and its budget error surfaces
    g = demo_sdfg(buffer=38)
    with pytest.raises(BudgetExceededError):
        search_mapping(g, hw2, SwarmConfig(particles=3, iterations=4),
                       state_budget=1, rng=0)


def test_search_never_rates_an_assignment_without_a_route(monkeypatch):
    # two cores and no link: a split assignment's bound is inf, so only
    # an assignment that keeps every cluster on one core is rated, and
    # both such assignments are one placement class, simulated once
    g = pipeline_sdfg(3, tokens=2, buffer=4)
    rated = []

    def recording(g, cls, *args):
        rated.append(cls[1])
        return rate_class(g, cls, *args)

    rate_class = mapping_module._rate_class
    monkeypatch.setattr(mapping_module, "_rate_class", recording)
    cfg = SwarmConfig(particles=6, iterations=10)
    hw = HardwareGraph((Core("t0", 8, 1), Core("t1", 8, 1)))
    sol = search_mapping(g, hw, cfg, rng=0)
    assert len(set(sol.mapping.values())) == 1
    assert sol.throughput.period == 6.0
    assert rated == [(0, 0, 0)]
    # at crossbar 2 no core holds all three clusters
    rated.clear()
    hw = HardwareGraph((Core("t0", 2, 1), Core("t1", 2, 1)))
    with pytest.raises(InfeasibleMappingError,
                       match="no feasible cluster-to-core assignment"):
        search_mapping(g, hw, cfg, rng=0)
    assert rated == []


# ------------------------------------------------------ time-wheel share

@pytest.mark.parametrize("share,scale", [
    (0.5, 2), (0.25, 4), (0.1, 10), (1, 1), (0.333, Fraction(1000, 333)),
    (0.123456, Fraction(1000000, 123456)), (1 / 3, 3),
    (Fraction(1, 3), 3), (2 / 3, Fraction(3, 2)), (4e-7, 2_500_000)])
def test_share_scales_execution_times_by_its_exact_inverse(share, scale):
    # a float share reads as the nearest fraction with a denominator of
    # at most 10**6: six decimals stay as written, 1/3 becomes 1/3, and a
    # share too small for that grid keeps its decimal reading
    assert _share_to_scale(share) == scale
    assert type(_share_to_scale(share)) is type(scale)


@pytest.mark.parametrize("share", [0, -0.1, 1.5, 1.0000001])
def test_share_outside_the_wheel_is_refused(share):
    with pytest.raises(ValueError, match=r"must be in \(0, 1\]"):
        _share_to_scale(share)


@pytest.mark.parametrize("share,period", [
    (1 / 3, 9), (Fraction(1, 3), 9), (2 / 3, 4.5), (Fraction(2, 3), 4.5)])
def test_a_float_third_rates_as_the_exact_third(share, period):
    # scaled by 10**16/3333333333333333, as its repr reads, a float third
    # gives a timed state that does not recur within this budget
    g = pipeline_sdfg(8, tokens=2, buffer=8)
    hw = all_to_all_platform(4, dim=4)
    cores = {"t0": "c0 c1 c7", "t1": "c3 c4", "t2": "c5", "t3": "c2 c6"}
    placed = {a: core for core, actors in cores.items()
              for a in actors.split()}
    sol = evaluate_mapping(g, hw, placed, share, state_budget=20_000)
    assert sol.throughput.period == float(period)


# -------------------------------------------- pruning by a period bound

def mixed_platform(rng, mesh: bool, caps: bool) -> HardwareGraph:
    """Four cores of mixed speeds and crossbar sizes, joined all-to-all
    or as a 2x2 mesh; with ``caps`` two cores accept one incoming and
    one outgoing connection only, which rejects some assignments."""
    cores = tuple(
        Core(f"t{i}", int(rng.integers(2, 5)),
             [1, 1.5, 2, 3][int(rng.integers(0, 4))],
             in_connections=1 if caps and i < 2 else None,
             out_connections=1 if caps and i < 2 else None)
        for i in range(4))
    pairs = ([(0, 1), (1, 3), (3, 2), (2, 0)] if mesh
             else list(itertools.combinations(range(4), 2)))
    links = tuple(Link(f"t{a}", f"t{b}", int(rng.integers(1, 3)))
                  for i, j in pairs for a, b in ((i, j), (j, i)))
    return HardwareGraph(cores, links)


def lifted_layered(seed: int, buffer_factor: int) -> Sdfg:
    """A partitioned, lifted layered net with every channel bounded at
    ``buffer_factor`` times its single-firing minimum."""
    net = layered_snn(seed, [4, 4, 4])
    p = partition_round(net, 4, round_seeds(seed, 1)[0][0])
    g = lift_to_sdfg(build_clustered_graph(net, p), core_exec_time=1)
    return set_buffer_allocation(
        g, {i: cap * buffer_factor
            for i, cap in minimum_buffer_allocation(g).items()})


def random_design(seed: int) -> Sdfg:
    kind = seed % 3
    if kind == 0:
        return random_hsdf(seed, max_actors=5)
    if kind == 1:
        return chain_graph(seed, max_actors=4)
    return lifted_layered(seed, 1 + seed % 3)


def search_or_error(search, *args, **kwargs):
    try:
        return search(*args, **kwargs).to_record()
    except InfeasibleMappingError as exc:
        return f"infeasible: {exc}"


def test_pruned_search_equals_the_reference_search(monkeypatch):
    # the simulations each search runs: the reference's evaluations run
    # one each
    simulated = {"pruned": 0, "reference": 0}
    seen = {"fraction times": 0, "found": 0, "capped": 0}
    rate_class = mapping_module._rate_class

    def counting(*args):
        simulated[searching] += 1
        return rate_class(*args)

    def capped(*args):
        try:
            return evaluate_mapping(*args)
        except InfeasibleMappingError as exc:
            seen["capped"] += "connections" in str(exc)
            raise

    monkeypatch.setattr(mapping_module, "_rate_class", counting)
    monkeypatch.setattr(oracles, "evaluate_mapping", capped)
    rng = np.random.default_rng(2024)
    cfg = SwarmConfig(particles=6, iterations=8)
    for seed in range(30):
        g = random_design(seed)
        hw = mixed_platform(rng, mesh=seed % 2 == 1, caps=seed % 4 >= 2)
        share = [1, 0.5, 1 / 3][seed % 3]
        seen["fraction times"] += any(
            isinstance(exact, Fraction) for exact in
            reference_placement(g, hw, {a: "t0" for a in g.actor_ids()},
                                _share_to_scale(share))[0])
        searching = "pruned"
        got = search_or_error(search_mapping, g, hw, cfg, share, rng=seed)
        searching = "reference"
        want = search_or_error(reference_search_mapping, g, hw, cfg, share,
                               rng=seed)
        assert got == want, f"seed {seed}"
        seen["found"] += not isinstance(want, str)
    assert all(seen.values()), seen
    assert simulated["pruned"] < simulated["reference"], simulated


def evaluate_or_error(evaluate, *args):
    try:
        return evaluate(*args)
    except SnnflowError as exc:  # compared by type and message
        return type(exc), str(exc)


def test_evaluate_mapping_equals_the_two_run_reference():
    rng = np.random.default_rng(31)
    # a reduced cycle or a transient is where the list run's recurrence
    # would part from the scheduled run's if they could differ
    seen = {"ipc > 1": 0, "fractional period": 0, "blocked": 0,
            "reduced cycle": 0, "transient": 0, "list deadlock": 0,
            "over budget": 0, "capped": 0}
    for case in range(210):
        g = random_design(case)
        if case % 7 == 0:  # a channel too small for one firing
            g = Sdfg(g.actors + (Actor("x"),), g.channels + (
                Channel(g.actors[0].id, "x", capacity=0, volume=2),))
        hw = mixed_platform(rng, mesh=case % 2 == 1, caps=case % 4 >= 2)
        cores = hw.core_ids()
        mapping = {a: cores[int(rng.integers(0, len(cores)))]
                   for a in g.actor_ids()}
        args = (g, hw, mapping, [1, 0.5, 1 / 3][case % 3],
                8 if case % 10 == 9 else DEFAULT_STATE_BUDGET)
        want = evaluate_or_error(oracles.reference_evaluate_mapping, *args)
        assert evaluate_or_error(evaluate_mapping, *args) == want, \
            f"case {case}"
        if isinstance(want, MappingSolution):
            seen["ipc > 1"] += any(s.iterations_per_cycle > 1
                                   for s in want.schedules.values())
            seen["fractional period"] += want.throughput.period % 1 != 0
            seen["blocked"] += any(want.block_counts.values())
            listed = _list_run(g, _placement_class(reference_placement(
                g, hw, mapping, _share_to_scale(args[3]))), args[4])
            seen["reduced cycle"] += any(
                s.iterations_per_cycle < listed.iterations_per_cycle
                for s in want.schedules.values())
            seen["transient"] += want.throughput.transient_length > 0
        else:
            kind, message = want
            seen["list deadlock"] += message.startswith("list scheduling")
            seen["over budget"] += kind is BudgetExceededError
            seen["capped"] += "connections" in message
    assert all(seen.values()), seen


def test_a_scheduled_run_ranks_its_cores_by_id():
    # execute numbers the host cores in core-id order, whatever order the
    # platform declares them in and the actors first occupy them, so a
    # scheduled run's state lists its cursors as the two-run reference's
    # does: the same exact period, steady-state hash and block counts,
    # which are also evaluate_mapping's
    rng = np.random.default_rng(83)
    seen = {"rated": 0, "cursors differ": 0, "fractional period": 0,
            "refused": 0}
    for case in range(90):
        g = random_design(case)
        base = mixed_platform(rng, mesh=case % 2 == 1, caps=False)
        turn = 1 + case % 3  # the cores declared rotated by turn
        hw = HardwareGraph(base.cores[turn:] + base.cores[:turn], base.links)
        assert hw.core_ids() != sorted(hw.core_ids())
        drawn = {a: f"t{int(rng.integers(0, 4))}" for a in g.actor_ids()}
        hosts = list(dict.fromkeys(drawn.values()))
        if len(hosts) < 2:
            continue
        # rename the cores so that they first host an actor in
        # descending id order
        renamed = dict(zip(hosts, sorted(hosts, reverse=True)))
        mapping = {a: renamed[core] for a, core in drawn.items()}
        share = [1, 0.5, 1 / 3][case % 3]
        scale = _share_to_scale(share)
        want = evaluate_or_error(oracles.reference_evaluate_mapping, g, hw,
                                 mapping, share)
        assert evaluate_or_error(evaluate_mapping, g, hw, mapping,
                                 share) == want, case
        if not isinstance(want, MappingSolution):
            seen["refused"] += 1
            continue
        res = execute(g, schedules=want.schedules, platform=hw,
                      mapping=mapping, exec_time_scale=scale)
        listed = _list_run(g, _placement_class(reference_placement(
            g, hw, mapping, scale)), DEFAULT_STATE_BUDGET)
        assert res.period_exact == listed.period_exact, case
        assert res.to_throughput() == want.throughput, case
        assert res.block_counts == want.block_counts, case
        seen["rated"] += 1
        seen["cursors differ"] += len(set(res.steady_state[-1])) > 1
        seen["fractional period"] += res.period_exact % 1 != 0
    assert all(seen.values()), seen


def test_period_lower_bound_is_below_the_scheduled_period():
    rng = np.random.default_rng(7)
    seen = {"live": 0, "ipc > 1": 0, "rate above 1": 0, "bounded self-loop": 0,
            "below one firing": 0, "tight": 0}
    for seed in range(60):
        g = random_design(seed)
        actors, channels = g.actors, list(g.channels)
        if seed % 5 == 0:  # bound one self-loop
            i = next(i for i, c in enumerate(channels) if c.src == c.dst)
            channels[i] = Channel(channels[i].src, channels[i].dst,
                                  tokens=1, capacity=2)
        if seed % 7 == 0:  # a channel too small for one firing
            actors += (Actor("x"),)
            channels.append(Channel(actors[0].id, "x", capacity=0,
                                    volume=2))
        g = Sdfg(actors, tuple(channels))
        hw = mixed_platform(rng, mesh=seed % 2 == 0, caps=False)
        share = [1, 0.5, 1 / 3][seed % 3]
        scale = _share_to_scale(share)
        cores = hw.core_ids()
        mapping = {a: cores[int(rng.integers(0, len(cores)))]
                   for a in g.actor_ids()}
        bound = _period_lower_bound(g, *reference_placement(g, hw, mapping,
                                                            scale))
        try:
            schedules = build_schedules(g, hw, mapping, share)
            res = execute(g, schedules=schedules, platform=hw,
                          mapping=mapping, exec_time_scale=scale)
        except DeadlockError:  # the period is infinite
            seen["below one firing"] += seed % 7 == 0
            continue
        assert bound <= res.period_exact, f"seed {seed}"
        seen["live"] += 1
        seen["tight"] += bound == res.period_exact
        seen["ipc > 1"] += res.iterations_per_cycle > 1
        seen["rate above 1"] += any(c.volume > 1 for c in g.channels)
        seen["bounded self-loop"] += any(
            c.src == c.dst and c.capacity is not None for c in g.channels)
    assert all(seen.values()), seen


def test_period_lower_bound_leaves_out_small_buffers_and_self_loops():
    # one actor per core, each carrying 1 per iteration.  Taken as
    # forward/credit cycles, b -> c (no room for one firing) would divide
    # by zero and c's bounded self-loop would claim 2
    g = Sdfg((Actor("a"), Actor("b"), Actor("c")),
             (Channel("a", "b"),
              Channel("b", "c", capacity=0, volume=3),
              Channel("c", "c", tokens=1, capacity=1)))
    hw = all_to_all_platform(3, latency=5)
    placement = reference_placement(g, hw,
                                    {"a": "t0", "b": "t1", "c": "t2"})
    assert _period_lower_bound(g, *placement) == 1  # exec(b)


# ------------------------------------------ stopping at the period floor

def test_search_floor_is_below_every_feasible_period():
    # every assignment of small designs, rated as evaluate_mapping rates
    # it, with the exact period of the list run
    rng = np.random.default_rng(13)
    seen = {"designs": 0, "apart": 0, "zero latency": 0, "tight": 0,
            "channel term": 0, "fraction times": 0}
    for seed in range(25):
        # the last design, two actors joined by a one-firing channel, is
        # fastest on one core, where no hop may enter its floor
        g = random_design(seed) if seed < 24 else pipeline_sdfg(2)
        if len(g.actors) > 5:
            continue
        hw = (mixed_platform(rng, mesh=seed % 2 == 1, caps=seed % 4 == 3)
              if seed % 5 else all_to_all_platform(4, dim=4))
        if seed % 3 == 1:  # every other link costs nothing
            hw = HardwareGraph(hw.cores, tuple(
                replace(l, latency=0) if i % 2 else l
                for i, l in enumerate(hw.links)))
        largest = max(c.crossbar_dim for c in hw.cores)
        apart = seed % 4 == 1
        if apart:  # no two actors fit one crossbar
            g = Sdfg(tuple(replace(a, weight=largest // 2 + 1)
                           for a in g.actors), g.channels)
        share = [1, 0.5, 1 / 3][seed % 3]
        scale = _share_to_scale(share)
        floor = _search_floor(g, hw, scale)
        seen["designs"] += 1
        seen["channel term"] += floor > _search_floor(
            Sdfg(g.actors, tuple(replace(c, capacity=None)
                                 for c in g.channels)), hw, scale)
        for cores in itertools.product(hw.core_ids(), repeat=len(g.actors)):
            mapping = dict(zip(g.actor_ids(), cores))
            try:
                validate_mapping(g, hw, mapping)
                placement = reference_placement(g, hw, mapping, scale)
                period = _list_run(g, _placement_class(placement),
                                   DEFAULT_STATE_BUDGET).period_exact
            except (InfeasibleMappingError, DeadlockError):
                continue
            bound = _period_lower_bound(g, *placement)
            assert floor <= bound <= period, (seed, mapping)
            seen["tight"] += floor == period
            seen["apart"] += apart
            index, core_of = g._tables[1], placement[1]
            seen["zero latency"] += any(
                lat == 0 and core_of[index[c.src]] != core_of[index[c.dst]]
                for c, lat in zip(g.channels, placement[2]))
            seen["fraction times"] += any(isinstance(t, Fraction)
                                          for t in placement[0])
    assert all(seen.values()), seen


def per_channel_floor(g: Sdfg, hw: HardwareGraph, scale) -> Fraction:
    """The floor that bounds each forward/credit cycle on its own: a
    channel whose two actors fit the largest crossbar adds no hop."""
    n = len(g.actors)
    t_min = min(exact_time(exact_time(c.exec_time) * exact_time(scale))
                for c in hw.cores)
    largest = max(c.crossbar_dim for c in hw.cores)
    hop = min((exact_time(l.latency) for l in hw.links if l.src != l.dst),
              default=0)
    floor = max(Fraction(n, len(hw.cores)), Fraction(min(n, 1))) * t_min
    index = g._tables[1]
    for c in g.channels:
        if not c.capacity or c.src == c.dst:
            continue
        weight = g.actors[index[c.src]].weight + g.actors[index[c.dst]].weight
        h = 0 if weight <= largest else hop
        floor = max(floor, Fraction(2 * t_min + h, c.capacity))
    return floor


def uniform_mesh_platform(dim: int = 8) -> HardwareGraph:
    """Four equal cores joined as a 2x2 mesh by links of latency 1."""
    pairs = [(0, 1), (1, 3), (3, 2), (2, 0)]
    return HardwareGraph(tuple(Core(f"t{i}", dim, 1) for i in range(4)),
                         tuple(Link(f"t{a}", f"t{b}", 1)
                               for i, j in pairs for a, b in ((i, j), (j, i))))


def chain_of_three() -> Sdfg:
    """Three 4-neuron clusters in a chain whose channels hold one firing."""
    return Sdfg(tuple(Actor(f"c{i}", 1, 4) for i in range(3)),
                tuple(Channel(f"c{i}", f"c{i + 1}", tokens=0,
                              capacity=1) for i in range(2)))


def test_search_floor_knows_three_clusters_cannot_share_a_crossbar():
    # each channel alone allows 4, its two firings of 2 on one core; but
    # only two of the three clusters fit a crossbar of 8, so some channel
    # crosses between cores: a cycle of 2 + 1 + 2 holding one firing
    g, hw = chain_of_three(), all_to_all_platform(4, dim=8)
    scale = _share_to_scale(0.5)
    assert _search_floor(g, hw, scale) == 5
    assert per_channel_floor(g, hw, scale) == 4
    periods = []
    for cores in itertools.product(hw.core_ids(), repeat=3):
        sol = evaluate_or_error(evaluate_mapping, g, hw,
                                dict(zip(g.actor_ids(), cores)), 0.5)
        if isinstance(sol, MappingSolution):
            periods.append(sol.throughput.period)
    assert min(periods) == 5
    found = search_mapping(g, hw, SwarmConfig(particles=6, iterations=50),
                           0.5, rng=0)
    assert found.throughput.period == 5


def test_grouping_floor_is_below_every_fitting_placement():
    # every crossbar-fitting placement of small chains and lifted layered
    # designs at one and two times their capacities, against the exact
    # bound of that placement
    rng = np.random.default_rng(41)
    seen = {"chain": 0, "layered": 0, "mesh": 0, "all-to-all": 0,
            "above per channel": 0, "tight": 0}
    for seed in range(32):
        factor = 1 + seed // 2 % 2
        if seed % 2:
            doc = random_chain(seed, max_actors=4)
            for c in doc["channels"]:
                if c["capacity"] is not None and c["src"] != c["dst"]:
                    c["capacity"] *= factor
            g = sdfg_from_dict(doc)
        else:
            g = lifted_layered(seed, factor)
        mesh = seed // 4 % 2 == 1
        hw = (mixed_platform(rng, mesh=mesh, caps=False) if seed % 8 >= 6
              else uniform_mesh_platform() if mesh
              else all_to_all_platform(4, dim=8))
        share = [1, 0.5, 1 / 3][seed % 3]
        scale = _share_to_scale(share)
        floor = _search_floor(g, hw, scale)
        assert floor >= per_channel_floor(g, hw, scale), seed
        caps = {c.id: c.crossbar_dim for c in hw.cores}
        least = math.inf
        for cores in itertools.product(hw.core_ids(), repeat=len(g.actors)):
            load = dict.fromkeys(caps, 0)
            for a, core in zip(g.actors, cores):
                load[core] += a.weight
            if any(load[c] > caps[c] for c in caps):
                continue
            placement = reference_placement(
                g, hw, dict(zip(g.actor_ids(), cores)), scale)
            bound = _period_lower_bound(g, *placement)
            assert floor <= bound, (seed, cores)
            least = min(least, bound)
        seen["tight"] += floor == least
        seen["chain" if seed % 2 else "layered"] += 1
        seen["mesh" if mesh else "all-to-all"] += 1
        seen["above per channel"] += floor > per_channel_floor(g, hw, scale)
    assert all(seen.values()), seen


def first_rows(g: Sdfg, hw: HardwareGraph, cfg: SwarmConfig, seed: int
               ) -> list[dict[str, str] | None]:
    """The assignments that a search seeded ``seed`` decodes first."""
    swarm = init_swarm(cfg, len(g.actors) * len(hw.cores),
                       np.random.default_rng(seed))
    cores = hw._cores[0]
    return [None if picks is None else
            {cl: cores[j] for cl, j in zip(g._weights[0], picks)}
            for picks in map(_decode_swarm(swarm.positions, g, hw),
                             range(cfg.particles))]


def counting_calls(monkeypatch, calls: dict[str, list]):
    """Record the placement classes search_mapping simulates and its
    swarm steps."""
    rate_class = mapping_module._rate_class

    def simulate(g, cls, *args):
        calls["rated"].append(cls)
        return rate_class(g, cls, *args)

    def step(swarm, fitness):
        calls["steps"].append(1)
        return pso_step(swarm, fitness)

    monkeypatch.setattr(mapping_module, "_rate_class", simulate)
    monkeypatch.setattr(mapping_module, "pso_step", step)


def class_of(g: Sdfg, hw: HardwareGraph, mapping: dict[str, str], share
             ) -> tuple:
    return _placement_class(reference_placement(g, hw, mapping,
                                                _share_to_scale(share)))


def test_search_probe_rates_no_row_above_the_floor_or_after_the_hit(
        monkeypatch):
    # searches that meet the floor in their first iteration rate, in row
    # order, only rows whose rounded bound is at the floor, the last of
    # them the hit, and return the reference's result
    calls = {"rated": [], "steps": []}
    counting_calls(monkeypatch, calls)
    rng = np.random.default_rng(43)
    cfg = SwarmConfig(particles=6, iterations=50)
    seen = {"at once": 0, "skipped above the floor": 0,
            "unrated after the hit": 0, "rated below the hit": 0}
    for seed in range(24):
        if seed % 2:
            g = random_design(seed)
            hw = mixed_platform(rng, mesh=seed % 4 == 1, caps=False)
        else:
            g = lifted_layered(seed, 1 + seed // 2 % 2)
            hw = all_to_all_platform(4, dim=[4, 8][seed // 4 % 2],
                                     latency=1 + seed // 8 % 2)
        share = [1, 0.5, 1 / 3][seed % 3]
        scale = _share_to_scale(share)
        want = search_or_error(reference_search_mapping, g, hw, cfg, share,
                               rng=seed)
        calls.update(rated=[], steps=[])
        got = search_or_error(search_mapping, g, hw, cfg, share, rng=seed)
        assert got == want, seed
        if len(calls["steps"]) != 1 or isinstance(got, str):
            continue
        seen["at once"] += 1
        floor = float(_search_floor(g, hw, scale))
        rows = first_rows(g, hw, cfg, seed)
        hit = rows.index(got["mapping"])

        def rounded_bound(mapping):
            return float(_period_lower_bound(
                g, *reference_placement(g, hw, mapping, scale)))

        probed = [class_of(g, hw, m, share) for m in rows[:hit + 1]
                  if m is not None and rounded_bound(m) <= floor]
        # each distinct class is simulated once
        assert calls["rated"] == [c for i, c in enumerate(probed)
                                  if c not in probed[:i]], seed
        seen["skipped above the floor"] += len(probed) < hit + 1
        seen["unrated after the hit"] += any(
            m is not None and class_of(g, hw, m, share) not in calls["rated"]
            for m in rows[hit + 1:])
        seen["rated below the hit"] += len(calls["rated"]) > 1
    assert all(seen.values()), seen


def test_a_search_that_stops_at_once_repairs_no_row_after_its_hit(
        monkeypatch):
    # a swarm row is completed when the search first reads it, so a
    # search that meets the floor in its first iteration repairs exactly
    # the overloaded rows up to the one it returns
    calls = {"rated": [], "steps": []}
    counting_calls(monkeypatch, calls)
    repair, repaired = mapping_module._repair, []

    def counting(grid, *args):
        repaired.append(np.ravel(grid))
        return repair(grid, *args)

    monkeypatch.setattr(mapping_module, "_repair", counting)
    cfg = SwarmConfig(particles=8, iterations=50)
    seen = {"repaired before the hit": 0, "overloaded after the hit": 0}
    for seed in range(40):
        g = (chain_of_three() if seed % 2
             else lifted_layered(seed, 1 + seed // 2 % 2))
        hw = all_to_all_platform(4, dim=[4, 6, 8][seed % 3])
        calls.update(rated=[], steps=[])
        repaired.clear()
        got = search_or_error(search_mapping, g, hw, cfg, 0.5, rng=seed)
        searched = list(repaired)  # first_rows below repairs every row
        if len(calls["steps"]) != 1 or isinstance(got, str):
            continue
        positions = init_swarm(cfg, len(g.actors) * len(hw.cores),
                               np.random.default_rng(seed)).positions
        hit = first_rows(g, hw, cfg, seed).index(got["mapping"])
        weights = [a.weight for a in g.actors]
        caps = [c.crossbar_dim for c in sorted(hw.cores, key=lambda c: c.id)]
        over = [bool((np.bincount(theta.reshape(len(g.actors), -1).argmax(1),
                                  weights, len(hw.cores)) > caps).any())
                for theta in positions]
        rows = [next(l for l, theta in enumerate(positions)
                     if np.array_equal(theta, grid)) for grid in searched]
        assert rows == [l for l in range(hit + 1) if over[l]], seed
        seen["repaired before the hit"] += any(over[:hit])
        seen["overloaded after the hit"] += any(over[hit + 1:])
    assert all(seen.values()), seen


def test_search_probe_reads_rated_rows_from_a_shared_table(monkeypatch):
    # the first row is rated above the floor and the next two meet it;
    # whichever of these two the table already holds, the search ends at
    # the earlier one, as the reference does
    g, hw = chain_of_three(), all_to_all_platform(4, dim=8)
    cfg = SwarmConfig(particles=6, iterations=50)
    rows = first_rows(g, hw, cfg, 4)
    periods = [evaluate_mapping(g, hw, m, 0.5).throughput.period
               for m in rows[:3]]
    assert periods == [6, 5, 5] and rows[1] != rows[2]
    want = search_or_error(reference_search_mapping, g, hw, cfg, 0.5, rng=4)
    assert want["mapping"] == rows[1]
    classes = [class_of(g, hw, m, 0.5) for m in rows[:3]]
    assert len(set(classes)) == 3
    rating = {cls: _rate_class(g, cls, DEFAULT_STATE_BUDGET)
              for cls in classes}
    calls = {"rated": [], "steps": []}
    counting_calls(monkeypatch, calls)
    for held in (1, 2):
        table = {(g, hw, 0.5, DEFAULT_STATE_BUDGET):
                 [{}, {classes[held]: rating[classes[held]]}, None]}
        calls.update(rated=[], steps=[])
        got = search_or_error(search_mapping, g, hw, cfg, 0.5, rng=4,
                              table=table)
        assert got == want
        assert calls["rated"] == classes[:held]
        assert len(calls["steps"]) == 1


def capped_uniform_platform() -> HardwareGraph:
    """Four equally fast cores, all-to-all at latency 1; two have small
    crossbars and accept one incoming and one outgoing connection only,
    so renaming the cores of a placement keeps its class but may break
    a cap."""
    cores = tuple(Core(f"t{i}", [8, 8, 4, 4][i], 1,
                       in_connections=1 if i % 2 else None,
                       out_connections=1 if i % 2 else None)
                  for i in range(4))
    return HardwareGraph(cores, tuple(
        Link(f"t{i}", f"t{j}", 1)
        for i, j in itertools.permutations(range(4), 2)))


def test_every_core_renaming_reads_the_class_rating(monkeypatch):
    # every core permutation of a mapping is rated through one table: its
    # record equals a fresh evaluation's and the two-run reference's, the
    # class is simulated once, and a renaming that breaks a core's cap is
    # refused even though its class is rated
    simulated = []
    rate_class = mapping_module._rate_class

    def counting(g, cls, *args):
        simulated.append(cls)
        return rate_class(g, cls, *args)

    rng = np.random.default_rng(59)
    seen = {"uniform": 0, "mixed": 0, "read renamed": 0, "hashed again": 0,
            "class differs": 0, "refused": 0, "ipc > 1": 0}
    for case in range(24):
        g = random_design(case)
        kind = case % 4
        hw = [all_to_all_platform(4, dim=8), uniform_mesh_platform(),
              capped_uniform_platform(),
              mixed_platform(rng, mesh=case % 8 == 3, caps=True)][kind]
        share = [1, 0.5, 1 / 3][case // 4 % 3]
        cores = hw.core_ids()
        first = {a: cores[int(rng.integers(0, len(cores)))]
                 for a in g.actor_ids()}
        table, hashes = {}, set()
        simulated.clear()
        for perm in itertools.permutations(cores):
            renamed = {a: perm[cores.index(c)] for a, c in first.items()}
            args = (g, hw, renamed, share, DEFAULT_STATE_BUDGET)
            want = evaluate_or_error(oracles.reference_evaluate_mapping,
                                     *args)
            assert evaluate_or_error(evaluate_mapping, *args) == want, case
            rated = len(simulated)
            with monkeypatch.context() as m:
                m.setattr(mapping_module, "_rate_class", counting)
                got = evaluate_or_error(mapping_module._evaluate_in, table,
                                        *args)
            assert got == want, (case, perm)
            cls, base = (class_of(g, hw, a, share) for a in (renamed, first))
            times, _, latency = reference_placement(g, hw, renamed,
                                                    _share_to_scale(share))
            # the class is what the simulation reads, up to core names
            assert (cls == base) == (times == list(base[0])
                                     and latency == list(base[2])), case
            seen["class differs"] += cls != base
            if isinstance(want, MappingSolution):
                assert got.to_record() == want.to_record()
                seen["read renamed"] += (len(simulated) == rated
                                         and renamed != first)
                hashes.add(want.throughput.steady_state_hash)
                seen["ipc > 1"] += any(s.iterations_per_cycle > 1
                                       for s in want.schedules.values())
            elif cls in simulated:  # the class is rated, the cores are not
                seen["refused"] += "connections" in want[1]
        # one simulation per class; none for a class that is rated
        assert len(simulated) == len(set(simulated)), case
        seen["hashed again"] += len(hashes) > 1
        seen["mixed" if kind == 3 else "uniform"] += 1
    assert all(seen.values()), seen


def test_a_shared_table_search_equals_the_reference_under_caps():
    # on equally fast cores with caps, the searches of one table read
    # renamed ratings, whose capacities each search checks again
    cfg = SwarmConfig(particles=6, iterations=8)
    hw = capped_uniform_platform()
    for seed in range(8):
        g = random_design(seed)
        table = {}
        for rng in (seed, seed + 100):
            got = search_or_error(search_mapping, g, hw, cfg, 0.5, rng=rng,
                                  table=table)
            assert got == search_or_error(reference_search_mapping, g, hw,
                                          cfg, 0.5, rng=rng), (seed, rng)


def test_search_stops_at_the_floor_with_the_reference_result(monkeypatch):
    # the reference runs every iteration; the search stops once its best
    # meets the floor: in the first iteration, later, or never
    steps = {"search": 0, "reference": 0}

    def counting(name):
        def step(swarm, fitness):
            steps[name] += 1
            return pso_step(swarm, fitness)
        return step

    monkeypatch.setattr(mapping_module, "pso_step", counting("search"))
    monkeypatch.setattr(oracles, "pso_step", counting("reference"))
    rng = np.random.default_rng(17)
    cfg = SwarmConfig(particles=6, iterations=50)
    seen = {"first": 0, "later": 0, "never": 0}
    for seed in range(17):
        if seed == 16:  # eight stages meet the floor two per core only
            g = pipeline_sdfg(8, tokens=2, buffer=8)
            hw = all_to_all_platform(4, dim=4)
        elif seed % 2:
            g = random_design(seed)
            hw = mixed_platform(rng, mesh=seed % 4 == 1, caps=seed % 4 == 3)
        else:  # the explore workloads' kind of design and platform
            g = lifted_layered(seed, 1 + seed % 3)
            hw = all_to_all_platform(4, dim=[4, 8][seed // 2 % 2],
                                     latency=1 + seed // 2 % 2)
        share = [1, 0.5, 1 / 3][seed % 3]
        steps.update(search=0, reference=0)
        got = search_or_error(search_mapping, g, hw, cfg, share, rng=seed)
        want = search_or_error(reference_search_mapping, g, hw, cfg, share,
                               rng=seed)
        assert got == want, f"seed {seed}"
        assert steps["reference"] == 50
        seen["first"] += steps["search"] == 1
        seen["later"] += 1 < steps["search"] < 50
        seen["never"] += steps["search"] == 50 and not isinstance(want, str)
    assert all(seen.values()), seen


def test_swarm_decode_matches_reference_decode_under_heavy_overload():
    # large rows whose argmax crowds a few cores: several cores overload,
    # heavy residents find no core before lighter ones move, and some
    # rows cannot be repaired at all
    rng = np.random.default_rng(23)
    seen = {"several overloaded": 0, "failed before a move": 0,
            "infeasible": 0, "repaired": 0, "repaired out of order": 0}
    for case in range(12):
        n_cores = int(rng.integers(8, 17))
        caps = rng.integers(8, 17, n_cores)
        hw = HardwareGraph(tuple(Core(f"t{j:02d}", int(cap), 1)
                                 for j, cap in enumerate(caps)))
        n = int(rng.integers(40, 121))
        heavy = rng.random(n) < 0.15
        weights = np.where(heavy, rng.integers(6, 13, n),
                           rng.integers(1, 4, n))
        # total demand near the total capacity, above it now and then
        weights = np.maximum(1, np.round(
            weights * caps.sum() * rng.uniform(0.8, 1.02)
            / weights.sum())).astype(int)
        g = Sdfg(tuple(Actor(f"c{i:03d}", 1, int(w))
                       for i, w in enumerate(weights)))
        cores = sorted(hw.core_ids())
        positions = rng.uniform(size=(8, n, n_cores))
        crowded = rng.integers(0, n_cores, size=(8, 3))
        for l in range(8):  # pull every cluster toward three cores
            positions[l][:, crowded[l]] += rng.uniform(0, 0.8, (n, 3))
        positions = positions.reshape(8, -1)
        read = _decode_swarm(positions, g, hw)
        for theta, picks in zip(positions, map(read, range(8))):
            want = decode_or_error(reference_decode_position, theta, g, hw)
            if isinstance(want, str):
                assert picks is None
                seen["infeasible"] += 1
                continue
            assert {f"c{i:03d}": cores[j] for i, j in enumerate(picks)} \
                == want
            grid = theta.reshape(n, n_cores)
            first = grid.argmax(axis=1)
            load = np.bincount(first, weights, n_cores)
            over = np.flatnonzero(load > caps)  # ids declared in order
            seen["several overloaded"] += len(over) > 1
            seen["repaired"] += 1
            for j in over:
                # the lowest resident is tried first on every move
                residents = sorted(np.flatnonzero(first == j),
                                   key=lambda i: (grid[i, j], i))
                moved = [want[f"c{i:03d}"] != cores[j] for i in residents]
                seen["failed before a move"] += not moved[0] and any(moved)
        # a fresh decode read out of order, one row twice and three rows
        # not at all
        read = _decode_swarm(positions, g, hw)
        for l in (6, 1, 7, 1, 4):
            want = decode_or_error(reference_decode_position, positions[l],
                                   g, hw)
            picks = read(l)
            assert isinstance(want, str) if picks is None else \
                {f"c{i:03d}": cores[j] for i, j in enumerate(picks)} == want
            seen["repaired out of order"] += picks is not None and \
                list(picks) != positions[l].reshape(n, n_cores).argmax(
                    axis=1).tolist()
    assert all(seen.values()), seen
