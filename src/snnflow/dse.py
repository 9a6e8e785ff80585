"""Design-flow orchestration: partition rounds, buffer sweeps, Pareto fronts.

Each of ``eta`` rounds clusters the network along its own random
topological order, refines the clusters, lifts the clustered network to
a dataflow graph and sweeps buffer allocations from the minimum feasible
sizes upward, re-optimizing (or reusing) the cluster-to-core assignment
at every allocation.  The union of all (throughput, total buffer) points
is reduced to its Pareto front.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (BudgetExceededError, DeadlockError,
                     InfeasibleMappingError)
from .mapping import (DEFAULT_TIME_WHEEL_SHARE, MappingSolution, SwarmConfig,
                      _evaluate_in, _search_floor, _share_to_scale,
                      search_mapping)
from .partition import (ClusteredSnnGraph, build_clustered_graph,
                        communication_cost, partition_round, round_seeds)
from .sdfg import (DEFAULT_STATE_BUDGET, Sdfg, ThroughputResult,
                   check_deadlock, lift_to_sdfg, minimum_buffer_allocation,
                   set_buffer_allocation)
from .snn_graph import HardwareGraph, SnnGraph

# a sweep stops after this many design points
MAX_SWEEP_STEPS = 64


@dataclass(frozen=True)
class DesignPoint:
    """One explored configuration: achieved rate vs. memory spent."""

    throughput: float
    total_buffer: int
    round_index: int
    step_index: int
    allocation: tuple[tuple[int, int], ...]
    solution: MappingSolution | None = None
    order: int = 0

    def allocation_dict(self) -> dict[int, int]:
        return dict(self.allocation)


@dataclass(frozen=True)
class ParetoFront:
    """Mutually non-dominated design points, sorted by buffer size."""

    points: tuple[DesignPoint, ...]

    def __len__(self) -> int:
        return len(self.points)

    def max_throughput(self) -> float:
        return max((p.throughput for p in self.points), default=0.0)


def pareto_filter(points: list[DesignPoint]) -> ParetoFront:
    """Maximal non-dominated subset; exact ties keep the earliest point.

    Input order is provenance order.  The result is sorted by total
    buffer ascending, which makes it a non-decreasing throughput
    staircase.
    """
    ranked = sorted(enumerate(points),
                    key=lambda e: (e[1].total_buffer, -e[1].throughput, e[0]))
    kept: list[DesignPoint] = []
    best = -1.0
    for _, p in ranked:
        if p.throughput > best:
            kept.append(p)
            best = p.throughput
    return ParetoFront(tuple(kept))


def min_buffer_for_throughput(front: ParetoFront,
                              fraction: float) -> DesignPoint | None:
    """Cheapest point achieving ``fraction`` of the front's best rate."""
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    target = fraction * front.max_throughput()
    qualifying = [p for p in front.points if p.throughput >= target]
    if not qualifying:
        return None
    return min(qualifying, key=lambda p: (p.total_buffer, p.order))


@dataclass(frozen=True)
class SweepConfig:
    plateau: int = 3           # stop after this many non-improving steps
    mode: str = "nested"       # "nested": re-run the search per allocation;
                               # "reuse": search once, keep the mapping

    def __post_init__(self):
        if isinstance(self.plateau, bool) or not isinstance(self.plateau, int) \
                or self.plateau < 1:
            raise ValueError(
                f"plateau must be an integer >= 1, got {self.plateau!r}")
        if self.mode not in ("nested", "reuse"):
            raise ValueError(f"unknown sweep mode {self.mode!r}")


@dataclass(frozen=True)
class SweepPoint:
    allocation: tuple[tuple[int, int], ...]
    throughput: ThroughputResult
    solution: MappingSolution | None = None

    def total_buffer(self) -> int:
        return sum(cap for _, cap in self.allocation)


def sweep_buffers(g: Sdfg, evaluate, cfg: SweepConfig | None = None,
                  unbounded_throughput: float | None = None) -> list[SweepPoint]:
    """Grow buffers along the blocking bottleneck until the rate plateaus.

    ``evaluate`` maps an allocated graph to ``(ThroughputResult,
    block_counts, solution)``.  Starting from the minimum feasible
    allocation, each step adds one token's spikes to the channel whose
    fullness blocked the most firings in the previous run; the sweep
    stops on a plateau of ``cfg.plateau`` non-improving steps, when no
    channel blocks, once the unbounded-buffer throughput is reached, or
    after :data:`MAX_SWEEP_STEPS` points.

    A minimum allocation that deadlocks raises :class:`DeadlockError`
    naming the starving cycle.  A lifted graph that is live with
    unbounded buffers is live at its minimum: the lift puts no tokens on
    inter-cluster channels, so every cycle of the bounded graph runs
    through a space edge or a self-loop that holds one firing.  A
    hand-built graph may deadlock here even when it is live unbounded:
    ``a -> b -> a`` with one token on each channel.
    """
    return _sweep(g, evaluate, cfg or SweepConfig(), unbounded_throughput, {})


def _sweep(g: Sdfg, evaluate, cfg: SweepConfig, bound: float | None,
           graphs: dict) -> list[SweepPoint]:
    # sweep_buffers through graphs, which a run's rounds of one
    # clustering share: the bounded graphs of g built so far by sorted
    # allocation, and under None the minimum with its liveness report
    if None not in graphs:
        base = minimum_buffer_allocation(g)
        key = tuple(sorted(base.items()))
        graphs[key] = set_buffer_allocation(g, base)
        graphs[None] = base, check_deadlock(graphs[key])
    alloc, report = graphs[None]
    if report is not None:
        raise DeadlockError(f"minimum buffer allocation deadlocks: {report}",
                            state=asdict(report))
    points: list[SweepPoint] = []
    best = -1.0
    stale = 0
    while True:
        key = tuple(sorted(alloc.items()))
        if key not in graphs:
            graphs[key] = set_buffer_allocation(g, alloc)
        tr, blocks, sol = evaluate(graphs[key])
        points.append(SweepPoint(key, tr, sol))
        if tr.throughput > best:
            best = tr.throughput
            stale = 0
        else:
            stale += 1
        if bound is not None and tr.throughput >= bound:
            break
        if stale >= cfg.plateau or len(points) >= MAX_SWEEP_STEPS:
            break
        managed = {i: n for i, n in blocks.items() if i in alloc and n > 0}
        if not managed:
            break
        bottleneck = max(sorted(managed), key=lambda i: managed[i])
        alloc = dict(alloc)
        alloc[bottleneck] += g.channels[bottleneck].volume
    return points


@dataclass(frozen=True)
class DesignFlowConfig:
    crossbar_dim: int
    eta: int = 1
    delta_min: float = 0.0
    swarm: SwarmConfig = field(default_factory=SwarmConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    seed: int | None = None
    time_wheel_share: float = DEFAULT_TIME_WHEEL_SHARE
    state_budget: int = DEFAULT_STATE_BUDGET
    jobs: int = 1


@dataclass
class RoundResult:
    round_index: int
    cut_cost: float = 0.0
    clustered: ClusteredSnnGraph | None = None
    sweep: list[SweepPoint] = field(default_factory=list)
    error: str | None = None
    error_kind: str | None = None  # "deadlock" | "infeasible" | "budget"


@dataclass
class DesignFlowResult:
    front: ParetoFront
    rounds: list[RoundResult]
    points: list[DesignPoint]


def pipeline_rate_bound(g: Sdfg, hw: HardwareGraph, exec_time_scale) -> float:
    """Upper bound on any mapping's throughput: one over the period floor
    of :func:`snnflow.mapping._search_floor`.

    On the lifted graph, whose channels are unbounded, only the floor's
    load term counts, so buffers notwithstanding: one iteration fires
    every cluster once, and even perfectly balanced over all cores at
    the fastest core speed some core carries at least
    ``max(clusters / cores, 1)`` firings.  A sweep can stop as soon as
    this rate is reached.
    """
    return float(1 / _search_floor(g, hw, exec_time_scale))


def _run_round(g: SnnGraph, hw: HardwareGraph, cfg: DesignFlowConfig,
               round_index: int,
               seeds: tuple[np.random.SeedSequence, np.random.SeedSequence],
               table: dict) -> RoundResult:
    # ``table`` is the run's table (see run_design_flow): the round's
    # front half is read from it under the refined partition, and every
    # search and reuse rating reads and fills it
    out = RoundResult(round_index)
    kl_seed, pso_parent = seeds
    p = partition_round(g, cfg.crossbar_dim, kl_seed, cfg.delta_min)
    key = (tuple(sorted(p.assignment.items())), p.cluster_count)
    if key not in table:
        cg = build_clustered_graph(g, p)
        base_exec = max((c.exec_time for c in hw.cores), default=1)
        sdfg = lift_to_sdfg(cg, core_exec_time=base_exec)
        report = check_deadlock(sdfg)
        bound = None if report is not None else pipeline_rate_bound(
            sdfg, hw, _share_to_scale(cfg.time_wheel_share))
        table[key] = communication_cost(g, p), cg, sdfg, report, bound, {}
    out.cut_cost, out.clustered, sdfg, report, bound, graphs = table[key]
    if report is not None:
        out.error = (f"clustered graph deadlocks even with unbounded buffers: "
                     f"{report}")
        out.error_kind = "deadlock"
        return out

    fixed_mapping: dict[str, str] | None = None

    def evaluate(bounded: Sdfg):
        nonlocal fixed_mapping
        if cfg.sweep.mode == "nested" or fixed_mapping is None:
            sol = search_mapping(bounded, hw, cfg.swarm,
                                 time_wheel_share=cfg.time_wheel_share,
                                 state_budget=cfg.state_budget,
                                 rng=pso_parent.spawn(1)[0], table=table)
            if cfg.sweep.mode == "reuse":
                fixed_mapping = sol.mapping
        else:
            sol = _evaluate_in(table, bounded, hw, fixed_mapping,
                               cfg.time_wheel_share, cfg.state_budget)
        return sol.throughput, sol.block_counts, sol

    try:
        out.sweep = _sweep(sdfg, evaluate, cfg.sweep, bound, graphs)
    except InfeasibleMappingError as exc:
        out.error = f"mapping infeasible: {exc}"
        out.error_kind = "infeasible"
    except DeadlockError as exc:
        out.error = f"deadlock during exploration: {exc}"
        out.error_kind = "deadlock"
    except BudgetExceededError as exc:
        out.error = f"budget exceeded: {exc}"
        out.error_kind = "budget"
    return out


def _points_from_rounds(rounds: list[RoundResult]) -> list[DesignPoint]:
    points: list[DesignPoint] = []
    for rr in sorted(rounds, key=lambda r: r.round_index):
        for step, sp in enumerate(rr.sweep):
            points.append(DesignPoint(
                throughput=sp.throughput.throughput,
                total_buffer=sp.total_buffer(),
                round_index=rr.round_index,
                step_index=step,
                allocation=sp.allocation,
                solution=sp.solution,
                order=len(points)))
    return points


def _until_over_budget(results) -> list[RoundResult]:
    """Rounds in order, up to and including the first over budget; the
    rounds after it are never drawn from ``results``."""
    rounds = []
    for rr in results:
        rounds.append(rr)
        if rr.error_kind == "budget":
            break
    return rounds


def _cancel_on_budget(later):
    """Done-callback for one round's future: when that round exceeded the
    state budget, cancel the ``later`` rounds that no worker has taken."""
    def callback(done):
        if not done.cancelled() and done.exception() is None \
                and done.result().error_kind == "budget":
            for f in later:
                f.cancel()
    return callback


def run_design_flow(g: SnnGraph, hw: HardwareGraph,
                    cfg: DesignFlowConfig) -> DesignFlowResult:
    """Full exploration: eta partition rounds x buffer sweep x mapping search.

    Rounds are independent and reproducible: :func:`round_seeds` gives
    each round its own seed streams, so identical configurations give
    identical fronts regardless of the parallelism degree.  Rounds that
    fail analysis (deadlocked clusterings, infeasible mappings) are
    recorded and skipped.  If no round yields a design point,
    :class:`InfeasibleMappingError` is raised, its message listing every
    round's error, whatever their kinds (all deadlocks included); on a
    platform with no cores it is raised before any round.  When
    round ``k`` is the first to exceed the state budget, no later round
    starts (with ``jobs > 1``, as soon as any round reports a budget
    error, the later rounds no worker has taken yet are cancelled; the
    ones already taken and the earlier rounds are waited for) and
    :class:`BudgetExceededError` is raised with a partial result
    attached: rounds ``0..k``, their design points, and the Pareto front
    of those points.

    The rounds run in one process share one table.  A round whose
    refined partition an earlier round reached takes that round's cut,
    clustered and lifted graphs, liveness report and rate bound from it,
    and the sweep's checked minimum allocation and allocated graphs
    (:func:`_sweep`), building only the allocations new to the run.
    Every search reads and fills it as its :func:`search_mapping`
    table, as a ``reuse`` sweep does for its kept mapping, so a design
    whose placement class an earlier rating of the run simulated is not
    simulated again: its rating is the class's with the cores renamed,
    and its capacities are checked on their own.  The table is dropped
    when the run returns.  With ``jobs > 1`` each round gets a fresh
    table and no state crosses processes.
    """
    seeds = round_seeds(cfg.seed, cfg.eta)
    if not cfg.delta_min >= 0:
        raise ValueError(f"delta_min must be >= 0, got {cfg.delta_min!r}")
    hw.validate()
    if not hw.cores:
        raise InfeasibleMappingError("the platform declares no cores")
    jobs = max(1, cfg.jobs)
    if jobs == 1 or cfg.eta == 1:
        table: dict = {}
        rounds = _until_over_budget(_run_round(g, hw, cfg, r, seeds[r], table)
                                    for r in range(cfg.eta))
    else:
        # imported here so a serial run does not pay for the pool's import
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, cfg.eta)) as pool:
            futures = [pool.submit(_run_round, g, hw, cfg, r, seeds[r], {})
                       for r in range(cfg.eta)]
            for r, f in enumerate(futures):
                f.add_done_callback(_cancel_on_budget(futures[r + 1:]))
            rounds = _until_over_budget(f.result() for f in futures)
            pool.shutdown(cancel_futures=True)

    over_budget = rounds[-1] if rounds[-1].error_kind == "budget" else None
    points = _points_from_rounds(rounds)
    result = DesignFlowResult(front=pareto_filter(points), rounds=rounds,
                              points=points)
    if over_budget is not None:
        raise BudgetExceededError(over_budget.error, partial=result)
    if not points:
        errors = [rr.error or "no design points" for rr in rounds]
        raise InfeasibleMappingError(
            "all rounds infeasible: " + "; ".join(errors))
    return result
