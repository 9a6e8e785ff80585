"""Exploration driver: sweeps, Pareto filtering, the full flow."""

import functools
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import (all_to_all_platform, feasible_dim, layered_demo_snn,
                      layered_snn, partition_rounds, random_snn,
                      two_core_platform)
from oracles import dominance_front, reference_evaluate_mapping

from snnflow import dse, sdfg
from snnflow.dse import (DesignFlowConfig, DesignPoint, RoundResult,
                         SweepConfig,
                         min_buffer_for_throughput, pareto_filter,
                         pipeline_rate_bound, run_design_flow, sweep_buffers)
from snnflow.mapping import SwarmConfig, evaluate_mapping
from snnflow.partition import (Cluster, ClusterEdge, ClusteredSnnGraph,
                               round_seeds)
from snnflow.sdfg import (Actor, Channel, Sdfg, check_deadlock, execute,
                          lift_to_sdfg, minimum_buffer_allocation,
                          self_timed_throughput, set_buffer_allocation)
from snnflow.errors import (BudgetExceededError, DeadlockError,
                            InfeasibleMappingError)
from snnflow.snn_graph import (HardwareGraph, InputSource, Neuron, SnnGraph,
                               Synapse)


def point(thr, buf, order) -> DesignPoint:
    return DesignPoint(throughput=thr, total_buffer=buf, round_index=0,
                       step_index=order, allocation=(), order=order)


# --------------------------------------------------------------- pareto

def test_incomparable_points_both_kept():
    # more throughput for more buffer: neither dominates
    front = pareto_filter([point(2.0, 20, 0), point(1.0, 10, 1)])
    assert len(front) == 2


def test_dominated_point_dropped():
    front = pareto_filter([point(2.0, 10, 0), point(1.0, 10, 1)])
    assert [p.throughput for p in front.points] == [2.0]


def test_exact_ties_keep_first_by_provenance():
    front = pareto_filter([point(1.5, 10, 0), point(1.5, 10, 1)])
    assert len(front) == 1
    assert front.points[0].order == 0


def test_pareto_matches_oracle_on_random_points():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pts = [point(float(rng.integers(1, 12)), int(rng.integers(5, 40)), i)
               for i in range(100)]
        got = pareto_filter(pts).points
        want = dominance_front(pts)
        assert [(p.throughput, p.total_buffer, p.order) for p in got] == \
            [(p.throughput, p.total_buffer, p.order) for p in want]


def test_front_is_monotone_staircase():
    rng = np.random.default_rng(3)
    pts = [point(float(rng.integers(1, 30)), int(rng.integers(1, 50)), i)
           for i in range(200)]
    front = pareto_filter(pts).points
    buffers = [p.total_buffer for p in front]
    rates = [p.throughput for p in front]
    assert buffers == sorted(buffers)
    assert rates == sorted(rates)


def test_min_buffer_for_throughput():
    front = pareto_filter([point(1.0, 10, 0), point(2.0, 18, 1),
                           point(4.0, 30, 2)])
    assert min_buffer_for_throughput(front, 1.0).total_buffer == 30
    assert min_buffer_for_throughput(front, 0.5).total_buffer == 18
    assert min_buffer_for_throughput(front, 0.2).total_buffer == 10
    single = pareto_filter([point(3.0, 7, 0)])
    assert min_buffer_for_throughput(single, 0.4).total_buffer == 7


def test_min_buffer_non_increasing_in_fraction():
    rng = np.random.default_rng(9)
    pts = [point(float(rng.integers(1, 20)), int(rng.integers(1, 60)), i)
           for i in range(60)]
    front = pareto_filter(pts)
    fractions = [1.0, 0.9, 0.7, 0.5, 0.3, 0.1]
    sizes = [min_buffer_for_throughput(front, f).total_buffer
             for f in fractions]
    assert sizes == sorted(sizes, reverse=True)


# ---------------------------------------------------------------- sweep

def closed_pair(tau_a=1, tau_b=1, tokens=2) -> Sdfg:
    """Producer/consumer pair whose rate grows with the forward buffer."""
    return Sdfg((Actor("a", tau_a), Actor("b", tau_b)),
                (Channel("a", "b", volume=tokens),
                 Channel("a", "a", tokens=1),
                 Channel("b", "b", tokens=1)))


def pure_evaluator(g):
    res = execute(g)
    return res.to_throughput(), res.block_counts, None


def test_sweep_single_point_when_min_allocation_suffices():
    # no inter-actor channels to size: the first evaluation is the answer
    g = Sdfg((Actor("a", 2),), (Channel("a", "a", tokens=1),))
    points = sweep_buffers(g, pure_evaluator, SweepConfig(plateau=2),
                           unbounded_throughput=self_timed_throughput(g).throughput)
    assert len(points) == 1


def test_sweep_rates_rise_then_plateau():
    g = closed_pair()
    points = sweep_buffers(g, pure_evaluator, SweepConfig(plateau=2))
    rates = [p.throughput.throughput for p in points]
    assert rates == sorted(rates)
    assert rates[-1] > rates[0]
    buffers = [p.total_buffer() for p in points]
    assert buffers == sorted(buffers)


def test_sweep_series_non_decreasing_many_graphs():
    rng = np.random.default_rng(1)
    for trial in range(10):
        tokens = int(rng.integers(1, 4))
        g = closed_pair(tau_a=int(rng.integers(1, 3)),
                        tau_b=int(rng.integers(1, 3)), tokens=tokens)
        points = sweep_buffers(g, pure_evaluator, SweepConfig(plateau=3))
        rates = [p.throughput.throughput for p in points]
        assert rates == sorted(rates), f"trial {trial}"


def token_ring() -> Sdfg:
    """``a -> b -> a`` with one token on each channel: live unbounded,
    but at the minimum capacity, one token, neither channel has space.
    No lifted graph puts tokens on an inter-cluster channel."""
    return Sdfg((Actor("a"), Actor("b")),
                (Channel("a", "b", tokens=1),
                 Channel("b", "a", tokens=1)))


def test_sweep_refuses_a_deadlocked_minimum_allocation():
    # a deadlocked minimum is refused, naming the cycle it starves on
    assert check_deadlock(token_ring()) is None
    with pytest.raises(DeadlockError) as info:
        sweep_buffers(token_ring(), pure_evaluator, SweepConfig(plateau=2))
    assert str(info.value) == (
        "minimum buffer allocation deadlocks: starving cycle: 'a' needs 1 "
        "space on channel 0 to 'b', 'b' needs 1 space on channel 1 "
        "to 'a'")
    assert [w.actor for w in info.value.state["cycle"]] == ["a", "b"]


def test_sweep_of_a_tokenless_cycle_raises_deadlock():
    # a two-actor cycle without tokens starves at every buffer size
    g = Sdfg((Actor("a"), Actor("b")),
             (Channel("a", "b", 0, None),
              Channel("b", "a", 0, None)))
    with pytest.raises(DeadlockError,
                       match="minimum buffer allocation deadlocks"):
        sweep_buffers(g, pure_evaluator)


def test_sweep_deadlock_error_names_the_starving_cycle_and_logs_nothing(caplog):
    # one error names the cycle; nothing is logged before it
    g = Sdfg((Actor("a"), Actor("b")),
             (Channel("a", "b", 0, None),
              Channel("b", "a", 0, None)))
    cycle = ("starving cycle: 'a' needs 1 tokens on channel 1 from 'b', "
             "'b' needs 1 tokens on channel 0 from 'a'")
    with caplog.at_level("WARNING"), pytest.raises(DeadlockError) as info:
        sweep_buffers(g, pure_evaluator)
    assert str(info.value) == f"minimum buffer allocation deadlocks: {cycle}"
    assert caplog.text == ""


def random_clustered(rng, cyclic: bool) -> ClusteredSnnGraph:
    """One to seven one-neuron clusters joined by random edges carrying
    1-8 tokens; ``cyclic`` lets edges run both ways between clusters."""
    n = int(rng.integers(1, 8))
    rank = rng.permutation(n)
    pairs = [(i, j) for i in range(n) for j in range(n)
             if i != j and (cyclic or rank[i] < rank[j])]
    return ClusteredSnnGraph(
        clusters=tuple(Cluster(f"c{i}", (f"n{i}",)) for i in range(n)),
        edges=tuple(ClusterEdge(f"c{i}", f"c{j}", int(rng.integers(1, 9)))
                    for i, j in pairs if rng.random() < 0.4))


def test_a_lifted_graph_live_unbounded_is_live_at_the_minimum():
    # why the sweep never escalates its start: the lift puts no tokens on
    # inter-cluster channels, so a live lifted graph has no cycle among
    # them, and at the minimum every cycle holds a firing's space or token
    rng = np.random.default_rng(18)
    verdicts = {True: 0, False: 0}
    for trial in range(400):
        g = lift_to_sdfg(random_clustered(rng, cyclic=trial % 2 == 1))
        live = check_deadlock(g) is None
        verdicts[live] += 1
        if live:
            bounded = set_buffer_allocation(g, minimum_buffer_allocation(g))
            assert check_deadlock(bounded) is None, f"trial {trial}"
    assert min(verdicts.values()) > 50


def scaled_spikes(cg: ClusteredSnnGraph, k: int) -> ClusteredSnnGraph:
    return replace(cg, edges=tuple(replace(e, tokens=e.tokens * k)
                                   for e in cg.edges))


def rating_or_error(g, hw, mapping):
    # everything of a rating but its hash, which digests spike counts
    try:
        sol = evaluate_mapping(g, hw, mapping, 0.5)
    except (DeadlockError, InfeasibleMappingError) as exc:
        return type(exc), str(exc)
    t = sol.throughput
    return (t.period, t.throughput, t.transient_length, sol.schedules,
            sol.block_counts)


def test_spike_counts_shape_only_the_buffer_axis():
    # a channel moves one token per firing whatever its volume, so with
    # every spike count times k a design rates as it does at k times its
    # spike capacities: the same period, transient, schedules and blocks
    rng = np.random.default_rng(27)
    hw = all_to_all_platform(3, dim=4)
    seen = {"rated": 0, "blocked": 0, "ipc > 1": 0, "failed": 0}
    for trial in range(60):
        cg = random_clustered(rng, cyclic=False)
        mapping = {c.id: f"t{int(rng.integers(0, 3))}" for c in cg.clusters}
        for factor in (1, 2):
            ratings = []
            for k in (1, 3, 7):
                g = lift_to_sdfg(scaled_spikes(cg, k))
                alloc = {i: factor * cap
                         for i, cap in minimum_buffer_allocation(g).items()}
                if k == 1:
                    base = alloc
                assert alloc == {i: k * cap for i, cap in base.items()}
                ratings.append(rating_or_error(
                    set_buffer_allocation(g, alloc), hw, mapping))
            assert ratings[0] == ratings[1] == ratings[2], f"trial {trial}"
            if isinstance(ratings[0][0], type):
                seen["failed"] += 1
                continue
            seen["rated"] += 1
            seen["blocked"] += any(ratings[0][4].values())
            seen["ipc > 1"] += any(s.iterations_per_cycle > 1
                                   for s in ratings[0][3].values())
    assert all(seen.values()), seen


def test_a_flow_over_scaled_spikes_scales_only_its_buffers():
    g = layered_demo_snn()
    res = run_design_flow(g, two_core_platform(), small_flow_config())
    for k in (3, 7):
        scaled = replace(g, inputs=tuple(replace(i, spikes=i.spikes * k)
                                         for i in g.inputs),
                         synapses=tuple(replace(s, spikes=s.spikes * k)
                                        for s in g.synapses))
        got = run_design_flow(scaled, two_core_platform(),
                              small_flow_config())
        assert [(p.throughput, p.total_buffer * k) for p in res.points] == \
            [(p.throughput, p.total_buffer) for p in got.points]
        assert [rr.error for rr in got.rounds] == \
            [rr.error for rr in res.rounds]
    assert len(res.points) > 1


@pytest.mark.parametrize("plateau", [0, -1, "3", 2.5, True])
def test_sweep_config_refuses_a_plateau_below_one_step(plateau):
    with pytest.raises(ValueError, match="plateau must be an integer >= 1"):
        SweepConfig(plateau=plateau)


# ----------------------------------------------------------------- flow

def small_flow_config(eta=3, seed=11, jobs=1, mode="nested") -> DesignFlowConfig:
    return DesignFlowConfig(
        crossbar_dim=4, eta=eta, delta_min=0.0,
        swarm=SwarmConfig(particles=6, iterations=6),
        sweep=SweepConfig(plateau=2, mode=mode),
        seed=seed, jobs=jobs)


def test_partition_rounds_match_the_flow_rounds():
    g = layered_demo_snn()
    cfg = small_flow_config(eta=4)
    res = run_design_flow(g, two_core_platform(), cfg)
    assert any(rr.error is None for rr in res.rounds)
    assert partition_rounds(g, cfg.crossbar_dim, cfg.eta, cfg.delta_min,
                            seed=cfg.seed) == \
        [rr.clustered for rr in res.rounds]


def test_flow_single_cluster_single_point():
    g = layered_demo_snn()
    hw = two_core_platform(dim=16)
    cfg = DesignFlowConfig(crossbar_dim=16, eta=1,
                           swarm=SwarmConfig(particles=4, iterations=4),
                           sweep=SweepConfig(plateau=2), seed=0, jobs=1)
    res = run_design_flow(g, hw, cfg)
    assert len(res.front.points) == 1


def test_flow_front_passes_dominance_oracle():
    g = layered_demo_snn()
    res = run_design_flow(g, two_core_platform(), small_flow_config())
    got = [(p.throughput, p.total_buffer) for p in res.front.points]
    want = [(p.throughput, p.total_buffer)
            for p in dominance_front(res.points)]
    assert got == want
    assert got == sorted(got)


def fail_round_with_budget(monkeypatch, failing_round):
    """Make the mapping search of round ``failing_round`` exceed the budget.

    Rounds run in order with ``jobs=1`` and each opens with one
    ``partition_round`` call, so counting those calls tells the round.
    Returns the list of rounds started, which grows as they start.
    """
    started = []
    real_round, real_search = dse.partition_round, dse.search_mapping

    def counting_round(*args, **kwargs):
        started.append(len(started))
        return real_round(*args, **kwargs)

    def search(*args, **kwargs):
        if started[-1] == failing_round:
            raise BudgetExceededError("state budget exhausted")
        return real_search(*args, **kwargs)

    monkeypatch.setattr(dse, "partition_round", counting_round)
    monkeypatch.setattr(dse, "search_mapping", search)
    return started


@pytest.mark.parametrize("failing_round", [0, 1, 2])
def test_flow_budget_error_keeps_the_rounds_before_it(monkeypatch,
                                                      failing_round):
    g, hw, cfg = layered_demo_snn(), two_core_platform(), small_flow_config()
    full = run_design_flow(g, hw, cfg)
    assert all(rr.sweep for rr in full.rounds)  # every round has points
    started = fail_round_with_budget(monkeypatch, failing_round)
    with pytest.raises(BudgetExceededError) as info:
        run_design_flow(g, hw, cfg)
    assert len(started) == failing_round + 1  # no round after it ran
    partial = info.value.partial
    assert [rr.round_index for rr in partial.rounds] == \
        list(range(failing_round + 1))
    assert partial.rounds[-1].error_kind == "budget"
    key = lambda pts: [(p.throughput, p.total_buffer, p.round_index,
                        p.step_index, p.order) for p in pts]
    assert key(partial.points) == \
        key(p for p in full.points if p.round_index < failing_round)
    assert key(partial.front.points) == key(dominance_front(partial.points))


_REAL_RUN_ROUND = dse._run_round


def first_round_waits_second_over_budget(marks, g, hw, cfg, r, seeds, table):
    """Round 0 runs for real, but with ``jobs > 1`` only once every round
    from 2 on has started, or after a second; round 1 exceeds the budget
    at once; the later rounds do nothing.  Each round leaves a mark in
    ``marks`` when it starts, which a worker process can do too."""
    (marks / f"started-{r}").touch()
    if r == 1:
        return RoundResult(1, error="budget exceeded: state budget exhausted",
                           error_kind="budget")
    if r > 1:
        return RoundResult(r)
    deadline = time.monotonic() + 1.0
    while cfg.jobs > 1 and time.monotonic() < deadline and not all(
            (marks / f"started-{k}").exists() for k in range(2, cfg.eta)):
        time.sleep(0.01)
    return _REAL_RUN_ROUND(g, hw, cfg, r, seeds, table)


def test_parallel_flow_stops_taking_rounds_once_one_is_over_budget(
        monkeypatch, tmp_path):
    # round 1 is over budget while round 0 still runs.  Waiting for
    # round 0 before cancelling would let the second worker start every
    # later round; cancelling when round 1 reports leaves only those the
    # pool had already queued (at most jobs + 1 of them)
    g, hw = layered_demo_snn(), two_core_platform()
    partials = {}
    for jobs in (1, 2):
        marks = tmp_path / f"jobs{jobs}"
        marks.mkdir()
        monkeypatch.setattr(dse, "_run_round", functools.partial(
            first_round_waits_second_over_budget, marks))
        with pytest.raises(BudgetExceededError) as info:
            run_design_flow(g, hw, small_flow_config(eta=8, jobs=jobs))
        partials[jobs] = info.value.partial
        started = sorted(int(p.name.split("-")[1]) for p in marks.iterdir())
        assert started[:2] == [0, 1]
        assert started[-1] <= (1 if jobs == 1 else 4), started
    key = lambda res: (
        [(rr.round_index, rr.error_kind) for rr in res.rounds],
        [(p.throughput, p.total_buffer, p.round_index, p.step_index, p.order)
         for p in res.points],
        [p.order for p in res.front.points])
    assert key(partials[2]) == key(partials[1])
    assert partials[1].points  # round 0 has design points


def neuron_ring(n: int) -> SnnGraph:
    """``n`` neurons in one directed cycle, fed by a single input."""
    neurons = tuple(Neuron.make(f"n{i}") for i in range(n))
    synapses = (Synapse("in", "n0", 1.0, 3),) + tuple(
        Synapse(f"n{i}", f"n{(i + 1) % n}", 1.0, 3) for i in range(n))
    return SnnGraph(neurons, (InputSource("in", 3),), synapses)


@pytest.mark.parametrize("jobs", [1, 2])
def test_flow_with_every_round_deadlocked_names_each_deadlock(jobs):
    # a ring longer than one crossbar holds is cut into several clusters,
    # and its zero-token cut channels close a cycle in every round
    cfg = DesignFlowConfig(crossbar_dim=4, eta=3, seed=0, jobs=jobs)
    with pytest.raises(InfeasibleMappingError) as info:
        run_design_flow(neuron_ring(6), two_core_platform(), cfg)
    message = str(info.value)
    assert message.startswith("all rounds infeasible: ")
    per_round = message.removeprefix("all rounds infeasible: ").split("; ")
    assert len(per_round) == cfg.eta
    assert all(e.startswith("clustered graph deadlocks even with unbounded "
                            "buffers: starving ") for e in per_round)


def test_a_deadlocked_ring_round_names_the_cycle_of_its_clusters():
    cfg = DesignFlowConfig(crossbar_dim=4, eta=3, seed=0, jobs=1)
    for r, seeds in enumerate(round_seeds(cfg.seed, cfg.eta)):
        rr = dse._run_round(neuron_ring(6), two_core_platform(), cfg, r,
                            seeds, {})
        report = check_deadlock(lift_to_sdfg(rr.clustered))
        assert rr.error == ("clustered graph deadlocks even with unbounded "
                            f"buffers: {report}")
        # the ring is cut into clusters that wait on each other in turn
        assert len(report.cycle) > 1
        assert sorted(w.actor for w in report.cycle) == \
            sorted(c.id for c in rr.clustered.clusters)
        assert all(w.kind == "tokens" for w in report.cycle)


def _liveness_cases():
    # (graph, crossbar dim) over layered and random feed-forward nets
    for layers in ([4, 4, 4], [8, 8, 8], [24] * 4):
        for seed in range(3):
            g = layered_snn(seed, layers)
            yield g, max(4, feasible_dim(g))
    for seed in range(6):
        g = random_snn(seed)
        yield g, max(4, feasible_dim(g))


def test_every_round_of_a_feed_forward_net_is_live_and_yields_points():
    hw = all_to_all_platform(4, dim=64)
    for k, (g, dim) in enumerate(_liveness_cases()):
        for cg in partition_rounds(g, dim, eta=3, seed=k):
            assert check_deadlock(lift_to_sdfg(cg)) is None
        cfg = DesignFlowConfig(
            crossbar_dim=dim, eta=1, seed=k, jobs=1,
            swarm=SwarmConfig(particles=4, iterations=2),
            sweep=SweepConfig(plateau=1))
        res = run_design_flow(g, hw, cfg)
        assert res.points
        assert all(rr.error is None for rr in res.rounds)


def test_flow_deterministic_and_parallel_identical():
    g = layered_demo_snn()
    hw = two_core_platform()
    seq1 = run_design_flow(g, hw, small_flow_config(eta=4, jobs=1))
    seq2 = run_design_flow(g, hw, small_flow_config(eta=4, jobs=1))
    par = run_design_flow(g, hw, small_flow_config(eta=4, jobs=4))
    key = lambda r: [(p.throughput, p.total_buffer, p.round_index,
                      p.step_index) for p in r.points]
    assert key(seq1) == key(seq2) == key(par)


def flow_record(res):
    """Everything a flow result holds, solutions as records."""
    def sol(s):
        return None if s is None else (s.to_record(), s.block_counts)
    return (
        [(rr.round_index, rr.cut_cost, rr.clustered, rr.error, rr.error_kind,
          [(sp.allocation, sp.throughput, sol(sp.solution))
           for sp in rr.sweep]) for rr in res.rounds],
        [(p.throughput, p.total_buffer, p.round_index, p.step_index,
          p.allocation, p.order, sol(p.solution)) for p in res.points],
        [p.order for p in res.front.points])


def fresh_table_per_search(monkeypatch):
    """Give every search of the flow a table of its own."""
    search = dse.search_mapping
    monkeypatch.setattr(dse, "search_mapping",
                        lambda *args, table, **kwargs: search(*args, **kwargs))


def coinciding_and_differing_nets():
    # at crossbar 4, [4, 4, 4] clusters one per layer in every round; the
    # demo net's rounds partition it in several ways
    return {"coinciding": layered_snn(0, [4, 4, 4]),
            "differing": layered_demo_snn()}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("mode", ["nested", "reuse"])
@pytest.mark.parametrize("net", ["coinciding", "differing"])
def test_shared_table_gives_the_flow_of_fresh_tables(monkeypatch, net, mode,
                                                     jobs):
    g, hw = coinciding_and_differing_nets()[net], all_to_all_platform(4)
    shared, fresh = [], []
    for seed in (0, 1, 2):
        cfg = small_flow_config(eta=4, seed=seed, jobs=jobs, mode=mode)
        shared.append(run_design_flow(g, hw, cfg))
    with monkeypatch.context() as m:
        fresh_table_per_search(m)
        for seed in (0, 1, 2):
            cfg = small_flow_config(eta=4, seed=seed, jobs=jobs, mode=mode)
            fresh.append(run_design_flow(g, hw, cfg))
    for a, b in zip(shared, fresh):
        assert flow_record(a) == flow_record(b)
        assert a.points
    partitions = {repr(rr.clustered) for res in shared for rr in res.rounds}
    assert (len(partitions) == 1) == (net == "coinciding")


@pytest.mark.parametrize("mode", ["nested", "reuse"])
def test_rounds_that_reach_one_clustering_build_it_once(monkeypatch, mode):
    # a round whose refined partition an earlier round of the process
    # reached reads that round's cut, graphs, liveness report and rate
    # bound from the run's table, and its sweep the checked minimum and
    # every allocated graph built so far; the flow is the one that worker
    # processes, each building its own round, give
    hw = all_to_all_platform(4)
    built = {"build_clustered_graph": 0, "lift_to_sdfg": 0,
             "set_buffer_allocation": 0, "check_deadlock": 0}

    def counting(name):
        build = getattr(dse, name)

        def wrapped(g, *args, **kwargs):
            # a liveness check counts at the minimum allocation only
            built[name] += name != "check_deadlock" or any(
                c.capacity is not None for c in g.channels)
            return build(g, *args, **kwargs)
        return wrapped

    for net, g in coinciding_and_differing_nets().items():
        cfg = small_flow_config(eta=4, seed=0, mode=mode)
        built.update(dict.fromkeys(built, 0))
        with monkeypatch.context() as m:
            for name in built:
                m.setattr(dse, name, counting(name))
            res = run_design_flow(g, hw, cfg)
        clusterings = len({repr(rr.clustered) for rr in res.rounds})
        assert clusterings == {"coinciding": 1, "differing": 3}[net]
        allocations = {(repr(rr.clustered), sp.allocation)
                       for rr in res.rounds for sp in rr.sweep}
        assert len(allocations) > clusterings
        assert built == {"build_clustered_graph": clusterings,
                         "lift_to_sdfg": clusterings,
                         "set_buffer_allocation": len(allocations),
                         "check_deadlock": clusterings}, net
        parallel = run_design_flow(g, hw, replace(cfg, jobs=2))
        assert flow_record(res) == flow_record(parallel), net
        assert all(rr.error is None for rr in res.rounds)


def test_each_design_is_simulated_once_per_flow(monkeypatch):
    run, keys = sdfg._Simulation.run, []

    def counting(self):
        # the bounded graph and the placement, as the simulation reads them
        keys.append((self.ids, self.in_ch, self.out_ch, tuple(self.tokens),
                     tuple(self.space), tuple(self.core_of), tuple(self.exec),
                     tuple(self.latency)))
        return run(self)

    monkeypatch.setattr(sdfg._Simulation, "run", counting)
    hw = all_to_all_platform(4)
    runs = {}
    for net, g in coinciding_and_differing_nets().items():
        keys.clear()
        run_design_flow(g, hw, small_flow_config(eta=4, seed=1))
        assert len(keys) == len(set(keys)), net
        runs[net] = len(keys)
    keys.clear()
    with monkeypatch.context() as m:
        fresh_table_per_search(m)
        run_design_flow(layered_snn(0, [4, 4, 4]), hw,
                        small_flow_config(eta=4, seed=1))
    assert runs["coinciding"] < len(keys)


@pytest.mark.parametrize("mode", ["nested", "reuse"])
def test_every_flow_point_is_its_mapping_rated_afresh(mode):
    # ratings the flow's table renames equal fresh evaluations, and the
    # two-run reference, of each point's mapping on its allocated graph
    hw = all_to_all_platform(4)
    seen = {"cores renamed": 0, "points": 0}
    for seed in (1, 2):
        cfg = small_flow_config(eta=4, seed=seed, mode=mode)
        res = run_design_flow(layered_demo_snn(), hw, cfg)
        graphs = {rr.round_index: lift_to_sdfg(rr.clustered, core_exec_time=1)
                  for rr in res.rounds if rr.error is None}
        for p in res.points:
            bounded = set_buffer_allocation(graphs[p.round_index],
                                            p.allocation_dict())
            args = (bounded, hw, p.solution.mapping, cfg.time_wheel_share,
                    cfg.state_budget)
            fresh = evaluate_mapping(*args)
            assert (p.solution.to_record(), p.solution.block_counts) == \
                (fresh.to_record(), fresh.block_counts)
            assert p.solution == reference_evaluate_mapping(*args)
            hosts = [p.solution.mapping[a] for a in bounded.actor_ids()]
            seen["cores renamed"] += list(dict.fromkeys(hosts)) != \
                sorted(set(hosts))
            seen["points"] += 1
    assert all(seen.values()), seen


def test_flow_larger_eta_weakly_dominates_smaller():
    g = layered_demo_snn()
    hw = two_core_platform()
    small = run_design_flow(g, hw, small_flow_config(eta=2, seed=5))
    large = run_design_flow(g, hw, small_flow_config(eta=6, seed=5))
    # same seed stream: the first two rounds are shared, so every point of
    # the small front is matched or beaten in the large one
    for p in small.front.points:
        assert any(q.throughput >= p.throughput
                   and q.total_buffer <= p.total_buffer
                   for q in large.front.points)


def test_flow_reuse_mode_runs():
    g = layered_demo_snn()
    res = run_design_flow(g, two_core_platform(),
                          small_flow_config(eta=3, mode="reuse"))
    assert res.points
    got = [(p.throughput, p.total_buffer) for p in res.front.points]
    assert got == sorted(got)


@pytest.mark.parametrize("delta_min", [-1.0, float("nan")])
def test_flow_rejects_negative_or_nan_delta_min(delta_min):
    cfg = DesignFlowConfig(crossbar_dim=4, delta_min=delta_min, seed=0)
    with pytest.raises(ValueError, match="delta_min"):
        run_design_flow(layered_demo_snn(), two_core_platform(), cfg)


def test_flow_all_rounds_infeasible_reports():
    g = layered_demo_snn()
    hw = all_to_all_platform(1, dim=2)  # cannot even host one cluster
    with pytest.raises(InfeasibleMappingError, match="all rounds"):
        run_design_flow(g, hw, small_flow_config(eta=2))


def test_flow_on_a_platform_without_cores_fails_before_any_round(
        monkeypatch):
    # such a platform passes validate(); the rate bound would take the
    # fastest of no cores
    rounds = []
    monkeypatch.setattr(dse, "_run_round",
                        lambda *args: rounds.append(args) or RoundResult(0))
    with pytest.raises(InfeasibleMappingError, match="no cores"):
        run_design_flow(layered_snn(0, [4, 4, 4]), HardwareGraph((), ()),
                        small_flow_config())
    assert rounds == []


def test_rate_bound_is_an_upper_bound():
    from conftest import demo_clustered
    g = lift_to_sdfg(demo_clustered(), core_exec_time=1)
    hw = two_core_platform()
    bound = pipeline_rate_bound(g, hw, 2)
    res = run_design_flow(layered_demo_snn(), hw,
                          small_flow_config(eta=4))
    for p in res.points:
        if p.solution is not None and len(p.solution.mapping) == 3:
            assert p.throughput <= bound + 1e-12
