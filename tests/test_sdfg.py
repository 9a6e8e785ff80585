"""Dataflow analysis: lifting, validation, deadlock, throughput, buffers."""

import pickle
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import (chain_graph, demo_clustered, lift_bounded, random_chain,
                      random_hsdf)
from oracles import (OracleDeadlock, mcm_period, reference_placement,
                     reference_throughput)

from snnflow.errors import (DeadlockError, GraphValidationError,
                            InfeasibleCapacityError, InfeasibleMappingError)
from snnflow.mapping import (StaticOrderSchedule, _list_run,
                             _placement_class, build_schedules)
from snnflow.sdfg import (DEFAULT_STATE_BUDGET, Actor, Channel, DeadlockReport,
                          Sdfg, check_deadlock, execute, lift_to_sdfg,
                          load_sdfg, minimum_buffer_allocation,
                          repetition_vector, save_sdfg, sdfg_from_dict,
                          sdfg_to_dict, self_timed_throughput,
                          set_buffer_allocation)
from snnflow.snn_graph import Core, HardwareGraph, Link, _dump_yaml


def cycle2(tau_a=2, tau_b=3, tokens=1) -> Sdfg:
    return Sdfg((Actor("a", tau_a), Actor("b", tau_b)),
                (Channel("a", "b", tokens=0),
                 Channel("b", "a", tokens=tokens)))


# ------------------------------------------------------------------ lift

def test_lift_single_cluster_has_only_self_loop():
    cg = demo_clustered()
    single = type(cg)(clusters=cg.clusters[:1], edges=())
    g = lift_to_sdfg(single, core_exec_time=2)
    assert [a.id for a in g.actors] == ["c0"]
    assert len(g.channels) == 1
    loop = g.channels[0]
    assert (loop.src, loop.dst, loop.volume, loop.tokens) == \
        ("c0", "c0", 1, 1)
    assert loop.capacity is None


def test_lift_demo_clustering_field_by_field():
    cg = demo_clustered()
    g = lift_to_sdfg(cg, core_exec_time=3)
    assert [a.id for a in g.actors] == ["c0", "c1", "c2"]
    assert all(a.exec_time == 3 for a in g.actors)
    assert [a.weight for a in g.actors] == [3, 3, 2]
    real = [c for c in g.channels if c.src != c.dst]
    assert [(c.src, c.dst, c.volume, c.tokens, c.capacity)
            for c in real] == [
        ("c0", "c1", 19, 0, None),
        ("c1", "c2", 14, 0, None)]
    loops = [c for c in g.channels if c.src == c.dst]
    assert len(loops) == 3
    assert all(c.tokens == 1 and c.capacity is None for c in loops)


def test_lift_multi_input_rates():
    # a node receiving 2 and 11 spikes and sending 6, as separate channels
    from snnflow.partition import Cluster, ClusterEdge, ClusteredSnnGraph
    cg = ClusteredSnnGraph(
        clusters=(Cluster("u", ("x",)), Cluster("v", ("y",)),
                  Cluster("w", ("z",)), Cluster("t", ("q",))),
        edges=(ClusterEdge("u", "w", 2), ClusterEdge("v", "w", 11),
               ClusterEdge("w", "t", 6)))
    g = lift_to_sdfg(cg, core_exec_time=1)
    volumes = {(c.src, c.dst): c.volume for c in g.channels if c.src != c.dst}
    assert volumes == {("u", "w"): 2, ("v", "w"): 11, ("w", "t"): 6}


def test_lift_drops_zero_token_edges(caplog):
    from snnflow.partition import Cluster, ClusterEdge, ClusteredSnnGraph
    cg = ClusteredSnnGraph(
        clusters=(Cluster("u", ("x",)), Cluster("v", ("y",))),
        edges=(ClusterEdge("u", "v", 0),))
    with caplog.at_level("WARNING"):
        g = lift_to_sdfg(cg, core_exec_time=1)
    assert all(c.src == c.dst for c in g.channels)
    assert "zero-token" in caplog.text


# ---------------------------------------------------- repetition vector

def test_repetition_single_actor_self_loop():
    g = Sdfg((Actor("a", 1),), (Channel("a", "a", tokens=1),))
    assert repetition_vector(g) == {"a": 1}


# ------------------------------------------------------------- deadlock

def test_deadlock_empty_cycle_detected():
    g = cycle2(tokens=0)
    report = check_deadlock(g)
    assert isinstance(report, DeadlockReport)
    assert set(report.starving) == {"a", "b"}


def test_deadlock_cleared_by_one_token():
    assert check_deadlock(cycle2(tokens=1)) is None


def test_demo_lifted_graph_is_live():
    g = lift_to_sdfg(demo_clustered(), core_exec_time=1)
    assert check_deadlock(g) is None
    # the reference simulator agrees once buffers are bounded
    bounded = set_buffer_allocation(g, minimum_buffer_allocation(g))
    reference_throughput(sdfg_to_dict(bounded))


def test_deadlock_agrees_with_timed_execution():
    checked = 0
    for seed in range(80):
        g = random_hsdf(seed)
        report = check_deadlock(g)
        try:
            self_timed_throughput(g)
            timed_dead = False
        except DeadlockError:
            timed_dead = True
        assert (report is not None) == timed_dead, f"seed {seed}"
        checked += 1
    assert checked == 80


def test_every_deadlock_report_names_a_starving_cycle():
    # each entry waits on the next entry's actor over its channel, a
    # token wait as the channel's consumer and a space wait as its
    # producer, and the last entry waits on the first
    kinds = set()
    for seed in range(150):
        for g in (chain_graph(seed, 5), chain_graph(seed, 8),
                  random_hsdf(seed)):
            report = check_deadlock(g)
            if report is None:
                continue
            cycle = report.cycle
            actors = [w.actor for w in cycle]
            assert len(set(actors)) == len(cycle) >= 1, f"seed {seed}"
            for wait, after in zip(cycle, actors[1:] + actors[:1]):
                c = g.channels[wait.channel]
                ends = (c.dst, c.src) if wait.kind == "tokens" else \
                    (c.src, c.dst)
                assert ends == (wait.actor, after), f"seed {seed}"
                assert wait.peer == after
                assert wait.needs == c.volume
                kinds.add(wait.kind)
            assert set(actors) <= set(report.starving), f"seed {seed}"
            assert check_deadlock(g) == report
    assert kinds == {"tokens", "space"}


# ----------------------------------------------------------- throughput

def test_throughput_single_actor():
    g = Sdfg((Actor("a", 1),), (Channel("a", "a", tokens=1),))
    tr = self_timed_throughput(g)
    assert tr.period == 1
    assert tr.throughput == 1


def test_throughput_two_actor_cycle_period_five():
    tr = self_timed_throughput(cycle2())
    assert tr.period == 5
    assert tr.throughput == pytest.approx(Fraction(1, 5))
    assert tr.period * tr.throughput == pytest.approx(1, abs=1e-12)


def test_integral_fraction_scale_rates_like_the_int():
    # equal down to the steady-state hash
    assert self_timed_throughput(cycle2(), exec_time_scale=Fraction(2)) == \
        self_timed_throughput(cycle2(), exec_time_scale=2)


def test_throughput_matches_mcm_oracle_on_random_hsdf():
    live = 0
    for seed in range(200):
        g = random_hsdf(seed)
        try:
            expected = mcm_period(g)
        except OracleDeadlock:
            continue
        tr = self_timed_throughput(g)
        assert tr.period == pytest.approx(float(expected), rel=1e-9), \
            f"seed {seed}"
        live += 1
        if live >= 40:
            break
    assert live >= 40


def rates_above_one(g: Sdfg) -> bool:
    return any(c.volume > 1 for c in g.channels)


def test_throughput_matches_reference_simulator_on_random_chains():
    live = 0
    seen = {"dead": 0, "rate above 1": 0}
    for seed in range(200):
        doc = random_chain(seed)
        g = sdfg_from_dict(doc)
        if check_deadlock(g) is not None:
            with pytest.raises(OracleDeadlock):
                reference_throughput(doc)
            seen["dead"] += 1
            continue
        expected = reference_throughput(doc)
        tr = self_timed_throughput(g)
        assert tr.period == float(expected), f"seed {seed}"
        seen["rate above 1"] += rates_above_one(g)
        live += 1
        if live >= 25:
            break
    assert live >= 25
    assert all(seen.values()), seen


@pytest.mark.parametrize("max_actors", [5, 8])
def test_deadlock_verdict_matches_reference_simulator(max_actors):
    # both directions: check_deadlock reports a stall exactly when the
    # independent simulator finds no periodic regime
    verdicts = set()
    rated = 0
    for seed in range(150):
        doc = random_chain(seed, max_actors)
        g = sdfg_from_dict(doc)
        try:
            reference_throughput(doc)
            oracle_live = True
        except OracleDeadlock:
            oracle_live = False
        assert (check_deadlock(g) is None) == oracle_live, f"seed {seed}"
        verdicts.add(oracle_live)
        rated += rates_above_one(g)
    assert verdicts == {True, False}
    assert rated


def test_timed_deadlock_raises_with_state():
    with pytest.raises(DeadlockError) as err:
        self_timed_throughput(cycle2(tokens=0))
    assert "starving" in err.value.state


def test_determinism_same_result():
    for seed in (0, 4):  # live graphs with rates above 1
        g = chain_graph(seed)
        assert check_deadlock(g) is None and rates_above_one(g)
        assert self_timed_throughput(g) == self_timed_throughput(g)


def two_core_loop():
    """Three actors in a loop over two cores of unequal speed.  The
    recurring state holds an unbounded channel and, on the slow link
    from ``b`` back to ``c``'s core, a token still in flight."""
    hw = HardwareGraph((Core("t0", 4, 1), Core("t1", 4, 2)),
                       (Link("t0", "t1", 2), Link("t1", "t0", 3)))
    g = Sdfg((Actor("a"), Actor("b"), Actor("c")),
             (Channel("a", "b", tokens=0, capacity=2),
              Channel("b", "c", tokens=0),
              Channel("c", "a", tokens=3),
              Channel("a", "a", tokens=1),
              Channel("b", "b", tokens=1),
              Channel("c", "c", tokens=1)))
    return g, hw, {"a": "t0", "b": "t1", "c": "t0"}


def test_steady_state_hash_is_pinned():
    # the hash digests the recurring state and appears in every record,
    # so a change to the state layout must show here.  In free mode "a"
    # has no self-loop and two firings in flight, and a -> b is unbounded
    free = Sdfg((Actor("a", 3), Actor("b", 1)),
                (Channel("a", "b", tokens=0),
                 Channel("b", "a", tokens=2, capacity=2)))
    res = execute(free)
    assert (res.period_exact, res.steady_state_hash) == (2, "7017f43dd4d0")
    g, hw, m = two_core_loop()
    # the list run's state is that of the run under the orders it builds
    res = _list_run(g, _placement_class(reference_placement(g, hw, m)),
                    DEFAULT_STATE_BUDGET)
    assert (res.period_exact, res.steady_state_hash) == (3, "aa82cc024e9a")
    res = execute(g, schedules=build_schedules(g, hw, m), platform=hw,
                  mapping=m)
    assert (res.period_exact, res.steady_state_hash) == (3, "aa82cc024e9a")


@pytest.mark.parametrize("actor, where", [
    ("zz", "is no actor of the graph"), ("b", "runs on core 't1'")],
    ids=["unknown-actor", "actor-on-another-core"])
def test_imposed_order_naming_a_foreign_actor_is_infeasible(actor, where):
    g, hw, m = two_core_loop()
    schedules = build_schedules(g, hw, m)
    schedules["t0"] = replace(schedules["t0"],
                              cycle=schedules["t0"].cycle + (actor,))
    message = f"core 't0' names actor '{actor}', which {where}"
    with pytest.raises(InfeasibleMappingError, match=message):
        self_timed_throughput(g, schedules=schedules, platform=hw, mapping=m)


@pytest.mark.parametrize("actor, where", [
    ("a", "runs on core 't0'"), ("zz", "is no actor of the graph")],
    ids=["hosted-actor", "unknown-actor"])
def test_order_of_a_core_hosting_nothing_must_be_empty(actor, where):
    g = Sdfg((Actor("a"),), (Channel("a", "a", tokens=1),))
    hw = HardwareGraph((Core("t0", 4, 1), Core("t1", 4, 1)))
    schedules = {"t0": StaticOrderSchedule("t0", (), ("a",), 1),
                 "t1": StaticOrderSchedule("t1", (), (actor, "a"), 1)}
    message = f"core 't1' names actor '{actor}', which {where}"
    with pytest.raises(InfeasibleMappingError, match=message):
        self_timed_throughput(g, schedules=schedules, platform=hw,
                              mapping={"a": "t0"})
    schedules["t1"] = StaticOrderSchedule("t1", (), (), 1)
    assert self_timed_throughput(g, schedules=schedules, platform=hw,
                                 mapping={"a": "t0"}).throughput == 1.0


@pytest.mark.parametrize("hw", [
    None, HardwareGraph((Core("t0", 4, 1), Core("t1", 4, 1)))],
    ids=["no-platform", "platform"])
def test_imposed_orders_without_a_mapping_are_infeasible(hw):
    # without a mapping no actor has a core for its order to run on
    g = cycle2()
    schedules = {"t0": StaticOrderSchedule("t0", (), ("a", "b"), 1)}
    message = "actors ['a', 'b'] have no core under the imposed schedules"
    with pytest.raises(InfeasibleMappingError, match=re.escape(message)):
        self_timed_throughput(g, schedules=schedules, platform=hw)
    assert self_timed_throughput(g, platform=hw).period == 5


def test_transient_only_order_fires_nothing_after_its_transient():
    # the core runs "a" once and then idles, so the graph stalls
    g = Sdfg((Actor("a"),), (Channel("a", "a", tokens=1),))
    hw = HardwareGraph((Core("t0", 4, 1),))
    schedules = {"t0": StaticOrderSchedule("t0", ("a",), (), 1)}
    with pytest.raises(DeadlockError, match="stalled"):
        self_timed_throughput(g, schedules=schedules, platform=hw,
                              mapping={"a": "t0"})


def test_conservation_over_one_iteration():
    # abstract execution of one firing per actor, in spikes, returns
    # every channel to its initial count
    completed = rated = 0
    for seed in range(20):
        doc = random_chain(seed)
        channels = doc["channels"]
        tokens = {i: c["tokens"] for i, c in enumerate(channels)}
        fired = set()
        changed = True
        while changed and len(fired) < len(doc["actors"]):
            changed = False
            for a in doc["actors"]:
                if a["id"] in fired:
                    continue
                ins = [(j, c["cons"]) for j, c in enumerate(channels)
                       if c["dst"] == a["id"]]
                outs = [(j, c["prod"]) for j, c in enumerate(channels)
                        if c["src"] == a["id"]]
                if all(tokens[j] >= need for j, need in ins):
                    for j, need in ins:
                        tokens[j] -= need
                    for j, amount in outs:
                        tokens[j] += amount
                    fired.add(a["id"])
                    changed = True
        if len(fired) == len(doc["actors"]):
            assert tokens == {i: c["tokens"] for i, c in enumerate(channels)}
            completed += 1
            rated += any(c["prod"] > 1 for c in channels)
    assert completed >= 10 and rated


# -------------------------------------------------------------- buffers

def test_set_buffer_allocation_validates():
    g = Sdfg((Actor("a", 1), Actor("b", 1)), (Channel("a", "b", volume=3),))
    with pytest.raises(InfeasibleCapacityError):
        set_buffer_allocation(g, {0: 2})
    # capacities count spikes; the channel keeps the whole tokens that fit
    assert set_buffer_allocation(g, {0: 3}).channels[0].capacity == 1
    assert set_buffer_allocation(g, {0: 8}).channels[0].capacity == 2


def test_a_capacity_below_the_initial_spikes_is_refused():
    # two tokens of three spikes hold 6 spikes; 5 hold a firing but not them
    g = Sdfg((Actor("a"), Actor("b")), (Channel("a", "b", 2, volume=3),))
    with pytest.raises(InfeasibleCapacityError, match=re.escape(
            "channel 0 ('a' -> 'b'): capacity 5 below initial tokens 6")):
        set_buffer_allocation(g, {0: 5})
    assert set_buffer_allocation(g, {0: 6}).channels[0].capacity == 2


def test_unbounded_dominates_bounded():
    g = cycle2(tau_a=1, tau_b=1, tokens=2)
    bounded = set_buffer_allocation(g, {0: 1, 1: 2})
    unbounded = self_timed_throughput(g).throughput
    assert self_timed_throughput(bounded).throughput <= unbounded


def test_buffer_monotonicity_pairwise():
    checked = 0
    rated = 0
    for seed in range(60):
        g = chain_graph(seed)
        alloc1 = minimum_buffer_allocation(g)
        if check_deadlock(set_buffer_allocation(g, alloc1)) is not None:
            continue
        alloc2 = {i: cap + (seed + i) % 3 for i, cap in alloc1.items()}
        t1 = self_timed_throughput(set_buffer_allocation(g, alloc1)).throughput
        t2 = self_timed_throughput(set_buffer_allocation(g, alloc2)).throughput
        assert t2 >= t1, f"seed {seed}"
        checked += 1
        rated += rates_above_one(g)
    assert checked >= 20 and rated


def test_engine_equals_explicit_reverse_channel_encoding():
    # a bounded channel behaves exactly like an unbounded pair with credits
    checked = rated = 0
    for seed in range(40):
        g = chain_graph(seed)
        if check_deadlock(g) is not None:
            continue
        expanded_channels = []
        for c in g.channels:
            expanded_channels.append(replace(c, capacity=None))
            if c.capacity is not None:
                expanded_channels.append(Channel(c.dst, c.src,
                                                 c.capacity - c.tokens))
        expanded = Sdfg(g.actors, tuple(expanded_channels))
        assert self_timed_throughput(expanded).period == \
            self_timed_throughput(g).period
        checked += 1
        rated += rates_above_one(g)
    assert checked >= 20 and rated


# ------------------------------------------------------------------ io

def sdfg_doc(*channels) -> dict:
    """An sdfg/1 document of actors a and b and the given channels, each
    ``(src, dst, spikes per firing, initial spikes, capacity)``."""
    return {"format": "sdfg/1",
            "actors": [{"id": "a", "exec_time": 1},
                       {"id": "b", "exec_time": 2, "weight": 3}],
            "channels": [{"src": src, "prod": prod, "dst": dst, "cons": prod,
                          "tokens": tokens, "capacity": capacity}
                         for src, dst, prod, tokens, capacity in channels]}


def test_an_sdfg_file_of_whole_tokens_round_trips_to_the_same_text(tmp_path):
    doc = sdfg_doc(("a", "b", 3, 0, 9), ("b", "a", 2, 4, 6),
                   ("a", "a", 1, 1, None))
    written, again = tmp_path / "in.yaml", tmp_path / "out.yaml"
    _dump_yaml(doc, written)
    g = load_sdfg(str(written))
    assert [(c.volume, c.tokens, c.capacity) for c in g.channels] == \
        [(3, 0, 3), (2, 2, 3), (1, 1, None)]
    save_sdfg(g, again)
    assert again.read_text() == written.read_text()


def test_an_sdfg_file_of_partial_tokens_rates_as_its_spikes_run(tmp_path):
    # 3 initial spikes of 2 per firing are one token and a spike that no
    # firing moves; that spike also takes one of the 4 spikes of space,
    # which leaves room for one token, so a waits for b every time
    doc = sdfg_doc(("a", "b", 2, 3, 4), ("a", "a", 1, 1, None),
                   ("b", "b", 1, 1, None))
    path = tmp_path / "partial.yaml"
    _dump_yaml(doc, path)
    g = load_sdfg(str(path))
    assert (g.channels[0].tokens, g.channels[0].capacity) == (1, 1)
    period = reference_throughput(doc)
    assert self_timed_throughput(g).period == float(period) == 3
    # written back, it holds the spikes its tokens move
    assert sdfg_to_dict(g)["channels"][0] == {
        "src": "a", "prod": 2, "dst": "b", "cons": 2, "tokens": 2,
        "capacity": 2}


@pytest.mark.parametrize("prod, cons", [(2, 1), (0, 0)])
def test_an_sdfg_file_channel_must_move_one_spike_count(prod, cons):
    doc = sdfg_doc(("a", "b", 1, 0, None))
    doc["channels"][0].update(prod=prod, cons=cons)
    with pytest.raises(GraphValidationError, match=re.escape(
            f"channel 0 ('a' -> 'b'): produces {prod} but consumes {cons} "
            f"spikes per firing")):
        sdfg_from_dict(doc)


def test_negative_initial_tokens_are_refused():
    # -1 spike of 2 per firing is short of a whole token, not none
    message = "channel 0 ('a' -> 'b'): negative initial tokens"
    with pytest.raises(GraphValidationError, match=re.escape(message)):
        Sdfg((Actor("a"), Actor("b")),
             (Channel("a", "b", tokens=-1, volume=2),)).validate()
    with pytest.raises(GraphValidationError, match=re.escape(message)):
        sdfg_from_dict(sdfg_doc(("a", "b", 2, -1, None)))


# ------------------------------------------------- per-graph tables

def test_invalid_graph_fails_every_execute():
    g = Sdfg((Actor("a", 1),), (Channel("a", "z"),))
    for _ in range(2):  # a failure is not cached away
        with pytest.raises(GraphValidationError, match="undeclared actor"):
            execute(g)


def test_graph_with_filled_tables_survives_pickle():
    g = lift_bounded(demo_clustered(), core_exec_time=2, buffer=40)
    want = execute(g)  # builds the graph's tables
    for _ in range(2):
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g
        assert execute(copy) == want
        g = copy


def test_copied_graph_gets_fresh_tables():
    g = cycle2(tau_a=1, tau_b=1, tokens=2)
    assert execute(g).period_exact == 1  # builds the graph's tables
    # a bounded buffer on a -> b holds a back until b has fired
    assert execute(set_buffer_allocation(g, {0: 1})).period_exact == 2
    # new channels: the two spikes on b -> a are one token, not two
    rated = replace(g, channels=(Channel("a", "b", volume=2),
                                 Channel("b", "a", tokens=1, volume=2)))
    res = execute(rated)
    assert (res.period_exact, res.iterations_per_cycle) == (2, 1)
    assert execute(g).period_exact == 1


def test_sdfg_file_roundtrip(tmp_path):
    g = lift_bounded(demo_clustered(), core_exec_time=2, buffer=40)
    path = tmp_path / "flow.yaml"
    save_sdfg(g, path)
    assert load_sdfg(str(path)) == g
    assert sdfg_from_dict(sdfg_to_dict(g)) == g


def test_sdfg_validation():
    with pytest.raises(GraphValidationError, match=re.escape(
            "channel 0 ('a' -> 'a'): volume must be >= 1")):
        Sdfg((Actor("a", 1),), (Channel("a", "a", volume=0),)).validate()
    with pytest.raises(GraphValidationError):
        Sdfg((Actor("a", 1),),
             (Channel("a", "a", tokens=3, capacity=2),)).validate()
    with pytest.raises(GraphValidationError):
        Sdfg((Actor("a", 1),), (Channel("a", "z"),)).validate()
    # every firing takes time
    for exec_time in (0, 0.0, -1):
        with pytest.raises(GraphValidationError,
                           match="actor 'a': exec_time must be > 0"):
            Sdfg((Actor("a", exec_time),)).validate()
