"""Dataflow-based partitioning, mapping and design-space exploration for
spiking neural networks on many-core neuromorphic hardware."""

from .errors import (BudgetExceededError, ConfigError, DeadlockError,
                     GraphFormatError, GraphValidationError,
                     InfeasibleCapacityError, InfeasibleMappingError,
                     InfeasiblePartitionError, SnnflowError)
from .snn_graph import (Core, GraphStats, HardwareGraph, InputSource, Link,
                        Neuron, SnnGraph, Synapse, compute_graph_stats,
                        load_hardware_graph, load_snn_graph,
                        save_hardware_graph, save_snn_graph)
from .lif import (LifParams, SpikeTrain, estimate_rates, load_spike_trains,
                  save_spike_trains)
from .partition import (Cluster, ClusterEdge, ClusteredSnnGraph, Partition,
                        build_clustered_graph, communication_cost,
                        init_partition, kl_refine, load_clustered_graph,
                        partition_round, round_seeds, save_clustered_graph)
from .sdfg import (Actor, Channel, DeadlockReport, Sdfg, ThroughputResult,
                   check_deadlock, lift_to_sdfg, load_sdfg,
                   minimum_buffer_allocation, save_sdfg,
                   self_timed_throughput, set_buffer_allocation)
from .mapping import (MappingSolution, StaticOrderSchedule, SwarmConfig,
                      evaluate_mapping, pso_step, search_mapping,
                      validate_mapping)
from .dse import (DesignFlowConfig, DesignFlowResult, DesignPoint,
                  ParetoFront, SweepConfig, SweepPoint,
                  min_buffer_for_throughput, pareto_filter, run_design_flow,
                  sweep_buffers)

__version__ = "0.1.0"
