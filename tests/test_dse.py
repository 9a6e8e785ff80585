"""Exploration driver: sweeps, Pareto filtering, the full flow."""

import numpy as np
import pytest

from conftest import all_to_all_platform, layered_demo_snn, two_core_platform
from oracles import dominance_front

from snnflow.dse import (DesignFlowConfig, DesignPoint, SweepConfig,
                         min_buffer_for_throughput, pareto_filter,
                         pipeline_rate_bound, run_design_flow, sweep_buffers)
from snnflow.mapping import SwarmConfig
from snnflow.partition import iterate_partitions
from snnflow.sdfg import (Actor, Channel, Sdfg, execute, lift_to_sdfg,
                          self_timed_throughput)
from snnflow.errors import InfeasibleMappingError


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
                (Channel("a", tokens, "b", tokens, 0, None),
                 Channel("a", 1, "a", 1, tokens=1),
                 Channel("b", 1, "b", 1, tokens=1)))


def pure_evaluator(g):
    res = execute(g)
    return res.to_throughput(), res.block_counts, None


def test_sweep_single_point_when_min_allocation_suffices():
    # no inter-actor channels to size: the first evaluation is the answer
    g = Sdfg((Actor("a", 2),), (Channel("a", 1, "a", 1, tokens=1),))
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


# ----------------------------------------------------------------- flow

def small_flow_config(eta=3, seed=11, jobs=1, mode="nested") -> DesignFlowConfig:
    return DesignFlowConfig(
        crossbar_dim=4, eta=eta, delta_min=0.0,
        swarm=SwarmConfig(particles=6, iterations=6),
        sweep=SweepConfig(plateau=2, mode=mode),
        seed=seed, jobs=jobs)


def test_iterate_partitions_matches_the_flow_rounds():
    g = layered_demo_snn()
    cfg = small_flow_config(eta=4)
    res = run_design_flow(g, two_core_platform(), cfg)
    assert any(rr.error is None for rr in res.rounds)
    assert iterate_partitions(g, cfg.crossbar_dim, cfg.eta, cfg.delta_min,
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


def test_flow_incremental_front_agrees_with_final():
    g = layered_demo_snn()
    res = run_design_flow(g, two_core_platform(), small_flow_config(eta=4))
    assert [(p.throughput, p.total_buffer, p.order)
            for p in res.incremental_front.points] == \
        [(p.throughput, p.total_buffer, p.order) for p in res.front.points]


def test_flow_deterministic_and_parallel_identical():
    g = layered_demo_snn()
    hw = two_core_platform()
    seq1 = run_design_flow(g, hw, small_flow_config(eta=4, jobs=1))
    seq2 = run_design_flow(g, hw, small_flow_config(eta=4, jobs=1))
    par = run_design_flow(g, hw, small_flow_config(eta=4, jobs=4))
    key = lambda r: [(p.throughput, p.total_buffer, p.round_index,
                      p.step_index) for p in r.points]
    assert key(seq1) == key(seq2) == key(par)


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


def test_rate_bound_is_an_upper_bound():
    from conftest import demo_clustered
    g = lift_to_sdfg(demo_clustered(), core_exec_time=1, default_buffer=None)
    hw = two_core_platform()
    bound = pipeline_rate_bound(g, hw, 2)
    res = run_design_flow(layered_demo_snn(), hw,
                          small_flow_config(eta=4))
    for p in res.points:
        if p.solution is not None and len(p.solution.mapping) == 3:
            assert p.throughput <= bound + 1e-12
