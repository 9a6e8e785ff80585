"""Command-line front end.

Subcommands expose each stage of the flow independently (``stats``,
``rates``, ``partition``, ``analyze``, ``map``) plus the full exploration
(``explore``).  Runs are driven by a YAML config file with flag
overrides; outputs are machine-readable (YAML records, CSV tables).

Exit codes: 0 success, 1 analysis failure (deadlock, infeasibility),
2 input error, 3 analysis budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import dse, lif, mapping, partition, sdfg, snn_graph
from .errors import (BudgetExceededError, ConfigError, DeadlockError,
                     GraphFormatError, GraphValidationError,
                     InfeasibleCapacityError, InfeasibleMappingError,
                     InfeasiblePartitionError)

logger = logging.getLogger(__name__)

CONFIG_FORMAT = "run-config/1"
OUTPUT_DIR_ENV = "SNNFLOW_OUTPUT_DIR"

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


@dataclass
class RunConfig:
    """Everything one reproducible run needs; mirrors the config file."""

    snn: str | None = None
    hardware: str | None = None
    trains: str | None = None
    crossbar_dim: int = 32
    eta: int = 1
    delta_min: float = 0.0
    seed: int = 0
    time_wheel_share: float = mapping.DEFAULT_TIME_WHEEL_SHARE
    state_budget: int = sdfg.DEFAULT_STATE_BUDGET
    jobs: int = 0  # 0: use the available hardware parallelism
    output_dir: str | None = None
    swarm: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)

    @staticmethod
    def load(path: str) -> "RunConfig":
        doc = snn_graph._load_yaml(path, CONFIG_FORMAT)
        known = {f.name for f in fields(RunConfig)}
        unknown = set(doc) - known - {"format"}
        if unknown:
            raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
        return RunConfig(**{k: v for k, v in doc.items() if k in known})

    def swarm_config(self) -> mapping.SwarmConfig:
        try:
            return mapping.SwarmConfig(**self.swarm)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad swarm settings: {exc}") from exc

    def sweep_config(self) -> dse.SweepConfig:
        try:
            return dse.SweepConfig(**self.sweep)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad sweep settings: {exc}") from exc

    def flow_config(self) -> dse.DesignFlowConfig:
        jobs = self.jobs if self.jobs > 0 else (os.cpu_count() or 1)
        return dse.DesignFlowConfig(
            crossbar_dim=self.crossbar_dim, eta=self.eta,
            delta_min=self.delta_min, swarm=self.swarm_config(),
            sweep=self.sweep_config(), seed=self.seed,
            time_wheel_share=self.time_wheel_share,
            state_budget=self.state_budget, jobs=jobs)


def _merged_config(args) -> RunConfig:
    cfg = RunConfig.load(args.config) if getattr(args, "config", None) \
        else RunConfig()
    overrides = {}
    for name in CONFIG_FLAGS.keys() - {"config"}:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    cfg = replace(cfg, **overrides)
    # a config file may set a path to any YAML value; open() takes an
    # integer for a file descriptor
    for name in ("snn", "hardware", "trains", "output_dir"):
        value = getattr(cfg, name)
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"{name} must be a path, got {value!r}")
    # checked here rather than in flow_config, so every command sees them;
    # a negative or NaN delta_min would never stop the swap descent
    if not isinstance(cfg.delta_min, (int, float)) or not cfg.delta_min >= 0:
        raise ConfigError(
            f"delta_min must be a number >= 0, got {cfg.delta_min!r}")
    for name, least in (("eta", 1), ("crossbar_dim", 1), ("seed", 0),
                        ("state_budget", 1), ("jobs", 0)):
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, int) \
                or value < least:
            raise ConfigError(
                f"{name} must be an integer >= {least}, got {value!r}")
    share = cfg.time_wheel_share
    if isinstance(share, bool) or not isinstance(share, (int, float)) \
            or not 0 < share <= 1:
        raise ConfigError(
            f"time_wheel_share must be a number in (0, 1], got {share!r}")
    if cfg.output_dir is None:
        cfg.output_dir = os.environ.get(OUTPUT_DIR_ENV, "snnflow-out")
    return cfg


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise ConfigError(f"missing required setting {name!r} "
                              f"(flag --{name.replace('_', '-')} or config file)")


def _float_cell(x: float) -> str:
    return repr(float(x))


def _load_network(cfg: RunConfig) -> snn_graph.SnnGraph:
    """The network, its spike counts estimated from ``cfg.trains`` if set."""
    g = snn_graph.load_snn_graph(cfg.snn)
    if cfg.trains:
        frames = lif.load_spike_trains(cfg.trains)
        g = lif.estimate_rates(g, lif.LifParams(), frames)
    return g


# ---------------------------------------------------------------- stats

def cmd_stats(args) -> int:
    g = snn_graph.load_snn_graph(args.graph)
    st = snn_graph.compute_graph_stats(g)
    print(f"neurons         {len(g.neurons)}")
    print(f"inputs          {len(g.inputs)}")
    print(f"synapses        {len(g.synapses)}")
    print(f"max_in_degree   {st.max_in_degree}")
    print(f"avg_in_degree   {st.avg_in_degree:.3f}")
    print(f"max_out_degree  {st.max_out_degree}")
    print(f"avg_out_degree  {st.avg_out_degree:.3f}")
    print(f"diameter        {st.diameter}")
    return EXIT_OK


# ---------------------------------------------------------------- rates

def cmd_rates(args) -> int:
    g = snn_graph.load_snn_graph(args.snn)
    frames = lif.load_spike_trains(args.trains)
    params = lif.LifParams() if args.dt is None else lif.LifParams(dt=args.dt)
    annotated = lif.estimate_rates(g, params, frames)
    snn_graph.save_snn_graph(annotated, args.output)
    print(f"wrote {args.output}")
    return EXIT_OK


# ------------------------------------------------------------- partition

def cmd_partition(args) -> int:
    cfg = _merged_config(args)
    _require(cfg, "snn")
    g = _load_network(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    log_rows = []
    for r, (kl_seed, _) in enumerate(partition.round_seeds(cfg.seed, cfg.eta)):
        trace: list[dict] = []
        p = partition.partition_round(g, cfg.crossbar_dim, kl_seed,
                                      cfg.delta_min, trace=trace)
        for rec in trace:  # sweep 0 is the start
            log_rows.append((r, rec["sweep"], rec["delta"], rec["cost"]))
        cg = partition.build_clustered_graph(g, p)
        path = os.path.join(cfg.output_dir, f"round_{r}.yaml")
        partition.save_clustered_graph(cg, path)
        print(f"round {r}: cost {trace[0]['cost']} -> "
              f"{partition.communication_cost(g, p)}, "
              f"{len(cg.clusters)} clusters, wrote {path}")
    log_path = os.path.join(cfg.output_dir, "cost_log.csv")
    with open(log_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["round", "sweep", "delta", "cost"])
        for r, sweep, delta, cost in log_rows:
            w.writerow([r, sweep, _float_cell(delta), _float_cell(cost)])
    print(f"wrote {log_path}")
    return EXIT_OK


# --------------------------------------------------------------- analyze

def cmd_analyze(args) -> int:
    cfg = _merged_config(args)
    g = sdfg.load_sdfg(args.graph)
    report = sdfg.check_deadlock(g)
    if report is not None:
        print("deadlock: yes")
        print(f"  {report}")
        return EXIT_ANALYSIS
    print("deadlock: no")
    tr = sdfg.self_timed_throughput(g, state_budget=cfg.state_budget)
    print(f"period      {tr.period!r}")
    print(f"throughput  {tr.throughput!r}")
    print(f"transient   {tr.transient_length} iterations")
    return EXIT_OK


# ------------------------------------------------------------------- map

def cmd_map(args) -> int:
    if args.output_dir is not None:  # declared only to refuse it
        raise ConfigError("map writes one record, to the file named by "
                          "--output; it takes no -o/--output-dir")
    if args.buffer is not None and args.buffer < 1:
        raise ConfigError(
            f"--buffer must be an integer >= 1, got {args.buffer}")
    cfg = _merged_config(args)
    _require(cfg, "hardware")
    cg = partition.load_clustered_graph(args.clustered)
    hw = snn_graph.load_hardware_graph(cfg.hardware)
    base_exec = max((c.exec_time for c in hw.cores), default=1)
    g = sdfg.lift_to_sdfg(cg, core_exec_time=base_exec)
    # open pipelines need back-pressure to reach a periodic regime
    alloc = sdfg.minimum_buffer_allocation(g)
    if args.buffer is not None:
        alloc = dict.fromkeys(alloc, args.buffer)
    g = sdfg.set_buffer_allocation(g, alloc)
    report = sdfg.check_deadlock(g)
    if report is not None:
        raise DeadlockError(
            f"clustered graph deadlocks before mapping: {report}",
            state=asdict(report))
    swarm_cfg = cfg.swarm_config()
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    sol = mapping.search_mapping(g, hw, swarm_cfg,
                                 time_wheel_share=cfg.time_wheel_share,
                                 state_budget=cfg.state_budget, rng=rng)
    record = sol.to_record()
    text = snn_graph._yaml_text(record)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return EXIT_OK


# --------------------------------------------------------------- explore

def _write_explore_outputs(cfg: RunConfig, result: "dse.DesignFlowResult",
                           out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    points_dir = os.path.join(out_dir, "points")
    os.makedirs(points_dir, exist_ok=True)

    manifest = {"format": "run-manifest/1",
                "config": {k: v for k, v in asdict(cfg).items()},
                "round_seeds": [f"spawn({cfg.seed})[{r}]"
                                for r in range(cfg.eta)]}
    snn_graph._dump_yaml(manifest, os.path.join(out_dir, "manifest.yaml"))

    with open(os.path.join(out_dir, "pareto.csv"), "w", newline="",
              encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["throughput", "total_buffer", "round", "step", "solution"])
        for p in result.front.points:
            w.writerow([_float_cell(p.throughput), p.total_buffer,
                        p.round_index, p.step_index,
                        f"points/point_{p.round_index}_{p.step_index}.yaml"])

    with open(os.path.join(out_dir, "series.csv"), "w", newline="",
              encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["round", "step", "total_buffer", "throughput"])
        for p in result.points:
            w.writerow([p.round_index, p.step_index, p.total_buffer,
                        _float_cell(p.throughput)])

    for p in result.points:
        record = {
            "round": p.round_index,
            "step": p.step_index,
            "throughput": p.throughput,
            "total_buffer": p.total_buffer,
            "allocation": {int(i): int(cap) for i, cap in p.allocation},
        }
        if p.solution is not None:
            record["solution"] = p.solution.to_record()
        snn_graph._dump_yaml(record, os.path.join(
            points_dir, f"point_{p.round_index}_{p.step_index}.yaml"))

    for rr in result.rounds:
        if rr.clustered is not None:
            partition.save_clustered_graph(
                rr.clustered, os.path.join(out_dir, f"round_{rr.round_index}.yaml"))


def cmd_explore(args) -> int:
    cfg = _merged_config(args)
    _require(cfg, "snn", "hardware")
    g = _load_network(cfg)
    hw = snn_graph.load_hardware_graph(cfg.hardware)
    flow_cfg = cfg.flow_config()
    out_dir = cfg.output_dir
    try:
        result = dse.run_design_flow(g, hw, flow_cfg)
    except BudgetExceededError as exc:
        if exc.partial is not None:
            _write_explore_outputs(cfg, exc.partial, out_dir)
            print(f"budget exceeded; partial results in {out_dir}",
                  file=sys.stderr)
        raise
    _write_explore_outputs(cfg, result, out_dir)
    print(f"{len(result.front.points)} Pareto points "
          f"from {len(result.points)} design points; results in {out_dir}")
    for p in result.front.points:
        print(f"  throughput {p.throughput:.6g}  buffer {p.total_buffer}"
              f"  (round {p.round_index}, step {p.step_index})")
    return EXIT_OK


# ------------------------------------------------------------------ main

# type and help of each run setting's flag, --crossbar-dim for crossbar_dim
CONFIG_FLAGS = {
    "config": (str, "run-config YAML file"),
    "snn": (str, "spiking-network graph file"),
    "hardware": (str, "hardware platform file"),
    "trains": (str, "spike-train file (optional)"),
    "crossbar_dim": (int, "max pre/post neurons per cluster (crossbar size)"),
    "eta": (int, "number of partition rounds"),
    "delta_min": (float, "stop threshold for per-sweep cost improvement"),
    "seed": (int, "master random seed"),
    "time_wheel_share": (float, "share of each core's time wheel available"),
    "state_budget": (int, "max states per execution before giving up"),
    "jobs": (int, "parallel rounds (default: hardware parallelism)"),
    "output_dir": (str, f"output directory (default ${OUTPUT_DIR_ENV} or "
                        f"./snnflow-out)"),
}


def _add_config_flags(sp, *names: str) -> None:
    # only the flags a command reads, so that argparse refuses the others
    for name in names:
        kind, text = CONFIG_FLAGS[name]
        flags = ("-o",) if name == "output_dir" else ()
        sp.add_argument(*flags, f"--{name.replace('_', '-')}", dest=name,
                        type=kind, help=text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="snnflow",
        description="Partition, map and explore spiking networks on "
                    "many-core neuromorphic platforms.")
    ap.add_argument("-v", "--verbose", action="store_true",
                    help="log progress to stderr")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("stats", help="degree/diameter statistics of a graph")
    sp.add_argument("graph")
    sp.set_defaults(func=cmd_stats)

    sp = sub.add_parser("rates", help="estimate per-synapse spike counts")
    sp.add_argument("--snn", required=True)
    sp.add_argument("--trains", required=True)
    sp.add_argument("--dt", type=float, help="integration step in seconds")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=cmd_rates)

    sp = sub.add_parser("partition",
                        help="run partition rounds, dump clustered graphs")
    _add_config_flags(sp, "config", "snn", "trains", "crossbar_dim", "eta",
                      "delta_min", "seed", "output_dir")
    sp.set_defaults(func=cmd_partition)

    sp = sub.add_parser("analyze", help="a starving cycle (exit 1) or "
                        "the throughput")
    sp.add_argument("graph")
    sp.add_argument("--state-budget", dest="state_budget", type=int,
                    help="max states per execution before giving up")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("map", help="search a cluster-to-core mapping")
    sp.add_argument("clustered", help="clustered graph file")
    sp.add_argument("--buffer", type=int, default=None,
                    help="uniform inter-cluster channel capacity in spikes, "
                         "rounded down to whole tokens per channel (default: "
                         "each channel's single-firing minimum)")
    sp.add_argument("--output", help="write the mapping record here")
    _add_config_flags(sp, "config", "hardware", "seed", "time_wheel_share",
                      "state_budget", "output_dir")
    sp.set_defaults(func=cmd_map)

    sp = sub.add_parser("explore", help="full design flow to a Pareto front")
    _add_config_flags(sp, *CONFIG_FLAGS)
    sp.set_defaults(func=cmd_explore)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    try:
        return args.func(args)
    except (GraphFormatError, GraphValidationError, ConfigError,
            FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DeadlockError, InfeasiblePartitionError, InfeasibleMappingError,
            InfeasibleCapacityError) as exc:
        print(f"analysis failed: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
