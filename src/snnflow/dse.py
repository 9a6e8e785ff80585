"""Design-flow orchestration: partition rounds, buffer sweeps, Pareto fronts.

Each of ``eta`` rounds draws an independent random partition, refines it,
lifts the clustered network to a dataflow graph and sweeps buffer
allocations from the minimum feasible sizes upward, re-optimizing (or
reusing) the cluster-to-core assignment at every allocation.  The union
of all (throughput, total buffer) points is reduced to its Pareto front.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (BudgetExceededError, DeadlockError,
                     InfeasibleMappingError)
from .mapping import (DEFAULT_TIME_WHEEL_SHARE, MappingSolution, SwarmConfig,
                      _share_to_scale, build_schedules, evaluate_mapping,
                      search_mapping)
from .partition import (ClusteredSnnGraph, build_clustered_graph,
                        communication_cost, init_partition, kl_refine)
from .sdfg import (DEFAULT_STATE_BUDGET, Sdfg, ThroughputResult,
                   buffer_quantum, check_deadlock, exact_time, lift_to_sdfg,
                   minimum_buffer_allocation, repetition_vector,
                   set_buffer_allocation)
from .snn_graph import HardwareGraph, SnnGraph

logger = logging.getLogger(__name__)


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


def dominates(p: DesignPoint, q: DesignPoint) -> bool:
    """Whether ``p`` is at least as good on both axes and better on one."""
    return (p.throughput >= q.throughput and p.total_buffer <= q.total_buffer
            and (p.throughput > q.throughput or p.total_buffer < q.total_buffer))


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
    max_steps: int = 64
    max_uniform_level: int = 64
    mode: str = "nested"       # "nested": re-run the search per allocation;
                               # "reuse": search once, keep the mapping

    def __post_init__(self):
        if self.mode not in ("nested", "reuse"):
            raise ValueError(f"unknown sweep mode {self.mode!r}")


@dataclass(frozen=True)
class SweepPoint:
    allocation: tuple[tuple[int, int], ...]
    throughput: ThroughputResult
    solution: MappingSolution | None = None

    def total_buffer(self) -> int:
        return sum(cap for _, cap in self.allocation)


def _feasible_start(g: Sdfg, cfg: SweepConfig) -> dict[int, int]:
    """Minimum allocation, escalated uniformly if it deadlocks."""
    base = minimum_buffer_allocation(g)
    report = check_deadlock(set_buffer_allocation(g, base))
    if report is None:
        return base
    logger.warning("minimum buffer allocation deadlocks (%s); "
                   "searching for a uniform starting allocation",
                   report.reasons)
    for level in range(2, cfg.max_uniform_level + 1):
        alloc = {i: cap * level for i, cap in base.items()}
        if check_deadlock(set_buffer_allocation(g, alloc)) is None:
            return alloc
    raise DeadlockError(
        "no uniform buffer allocation avoids deadlock",
        state={"starving": report.reasons, "remaining": report.remaining})


def sweep_buffers(g: Sdfg, evaluate, cfg: SweepConfig | None = None,
                  unbounded_throughput: float | None = None) -> list[SweepPoint]:
    """Grow buffers along the blocking bottleneck until the rate plateaus.

    ``evaluate`` maps an allocated graph to ``(ThroughputResult,
    block_counts, solution)``.  Starting from the minimum feasible
    allocation, each step adds one rate quantum to the channel whose
    fullness blocked the most firings in the previous run; the sweep
    stops on a plateau, when no channel blocks, or once the
    unbounded-buffer throughput is reached.
    """
    cfg = cfg or SweepConfig()
    alloc = _feasible_start(g, cfg)
    points: list[SweepPoint] = []
    best = -1.0
    stale = 0
    while True:
        bounded = set_buffer_allocation(g, alloc)
        tr, blocks, sol = evaluate(bounded)
        points.append(SweepPoint(tuple(sorted(alloc.items())), tr, sol))
        if tr.throughput > best:
            best = tr.throughput
            stale = 0
        else:
            stale += 1
        if unbounded_throughput is not None \
                and tr.throughput >= unbounded_throughput:
            break
        if stale >= cfg.plateau or len(points) >= cfg.max_steps:
            break
        managed = {i: n for i, n in blocks.items() if i in alloc and n > 0}
        if not managed:
            break
        bottleneck = max(sorted(managed), key=lambda i: managed[i])
        alloc = dict(alloc)
        alloc[bottleneck] += buffer_quantum(g.channels[bottleneck])
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
    count_input_fanin: bool = True
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
    incremental_front: ParetoFront
    points: list[DesignPoint]


def pipeline_rate_bound(g: Sdfg, hw: HardwareGraph, exec_time_scale) -> float:
    """Upper bound on any mapping's throughput, buffers notwithstanding.

    One iteration needs ``q(a)`` firings per cluster; even perfectly
    balanced over all cores at the fastest core speed, some core carries
    at least ``max(total/num_cores, busiest cluster)`` work.  A sweep can
    stop as soon as this rate is reached.
    """
    q = repetition_vector(g)
    scale = exact_time(exec_time_scale)
    tau = min(exact_time(c.exec_time) for c in hw.cores) * scale
    total = sum(q[a.id] for a in g.actors)
    busiest = max(q[a.id] for a in g.actors)
    load = max(Fraction(total, len(hw.cores)), Fraction(busiest)) * tau
    return float(1 / load)


def _run_round(g: SnnGraph, hw: HardwareGraph, cfg: DesignFlowConfig,
               round_index: int, seed_seq: np.random.SeedSequence) -> RoundResult:
    out = RoundResult(round_index)
    kl_seed, pso_parent = seed_seq.spawn(2)
    rng = np.random.default_rng(kl_seed)
    p = init_partition(g, cfg.crossbar_dim, rng, cfg.count_input_fanin)
    p = kl_refine(g, p, cfg.delta_min)
    out.cut_cost = communication_cost(g, p)
    cg = build_clustered_graph(g, p)
    out.clustered = cg
    base_exec = max((c.exec_time for c in hw.cores), default=1)
    sdfg = lift_to_sdfg(cg, core_exec_time=base_exec, default_buffer=None)
    repetition_vector(sdfg)
    report = check_deadlock(sdfg)
    if report is not None:
        out.error = (f"clustered graph deadlocks even with unbounded buffers: "
                     f"starving {list(report.starving)}")
        out.error_kind = "deadlock"
        return out

    scale = _share_to_scale(cfg.time_wheel_share)
    fixed_mapping: dict[str, str] | None = None

    def evaluate(bounded: Sdfg):
        nonlocal fixed_mapping
        if cfg.sweep.mode == "nested" or fixed_mapping is None:
            pso_rng = np.random.default_rng(pso_parent.spawn(1)[0])
            sol = search_mapping(bounded, hw, cfg.swarm,
                                 time_wheel_share=cfg.time_wheel_share,
                                 state_budget=cfg.state_budget, rng=pso_rng)
            if cfg.sweep.mode == "reuse":
                fixed_mapping = sol.mapping
        else:
            sol = evaluate_mapping(bounded, hw, fixed_mapping,
                                   cfg.time_wheel_share, cfg.state_budget)
        return sol.throughput, sol.block_counts, sol

    try:
        out.sweep = sweep_buffers(
            sdfg, evaluate, cfg.sweep,
            unbounded_throughput=pipeline_rate_bound(sdfg, hw, scale))
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


def run_design_flow(g: SnnGraph, hw: HardwareGraph,
                    cfg: DesignFlowConfig) -> DesignFlowResult:
    """Full exploration: eta partition rounds x buffer sweep x mapping search.

    Rounds are independent and reproducible: a master seed spawns one
    child seed stream per round, so identical configurations give
    identical fronts regardless of the parallelism degree.  Rounds that
    fail analysis (deadlocked clusterings, infeasible mappings) are
    recorded and skipped; if every round fails, the first error kind is
    raised.  A budget overrun raises with the partial result attached.
    """
    if cfg.eta < 1:
        raise ValueError("eta must be >= 1")
    if not cfg.delta_min >= 0:
        raise ValueError(f"delta_min must be >= 0, got {cfg.delta_min!r}")
    hw.validate()
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.eta)
    jobs = max(1, cfg.jobs)
    if jobs == 1 or cfg.eta == 1:
        rounds = [_run_round(g, hw, cfg, r, children[r])
                  for r in range(cfg.eta)]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, cfg.eta)) as pool:
            futures = [pool.submit(_run_round, g, hw, cfg, r, children[r])
                       for r in range(cfg.eta)]
            rounds = [f.result() for f in futures]

    # incremental per-round filtering (streaming view); kept points always
    # precede newer ones so tie-breaking matches the one-shot filter
    incremental_points: list[DesignPoint] = []
    consumed = 0
    all_points = _points_from_rounds(rounds)
    for rr in rounds:
        fresh = [p for p in all_points[consumed:]
                 if p.round_index == rr.round_index]
        consumed += len(fresh)
        incremental_points = list(
            pareto_filter(incremental_points + fresh).points)
        if rr.error_kind == "budget":
            partial = DesignFlowResult(
                front=ParetoFront(tuple(incremental_points)),
                rounds=rounds[:rr.round_index + 1],
                incremental_front=ParetoFront(tuple(incremental_points)),
                points=all_points[:consumed])
            raise BudgetExceededError(rr.error, partial=partial)

    if not all_points:
        errors = [rr.error or "no design points" for rr in rounds]
        raise InfeasibleMappingError(
            "all rounds infeasible: " + "; ".join(errors))
    front = pareto_filter(all_points)
    return DesignFlowResult(front=front, rounds=rounds,
                            incremental_front=ParetoFront(tuple(incremental_points)),
                            points=all_points)
