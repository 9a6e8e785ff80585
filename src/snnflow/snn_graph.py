"""Spiking-network and hardware graph models, file I/O and statistics.

Graphs are stored as versioned YAML documents with explicit ``neurons``,
``inputs`` and ``synapses`` sections (``cores``/``links`` for hardware),
chosen to keep fixtures diff-friendly.  Loaders validate every structural
invariant and raise :class:`~snnflow.errors.GraphValidationError` naming
the violated rule.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

import yaml
from yaml import CSafeDumper, CSafeLoader

from .errors import GraphFormatError, GraphValidationError

SNN_FORMAT = "snn-graph/1"
HW_FORMAT = "hardware-graph/1"


def exact_time(x) -> int | Fraction:
    """Convert a time value to exact arithmetic.

    Floats are interpreted through their decimal representation so that
    0.1 becomes 1/10; integral values collapse to ``int``.
    """
    if isinstance(x, bool):
        raise TypeError("boolean is not a time value")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, float):
        if x.is_integer():
            return int(x)
        f = Fraction(str(x))
        return int(f) if f.denominator == 1 else f
    raise TypeError(f"unsupported time value {x!r}")


@dataclass(frozen=True)
class Synapse:
    """A weighted connection carrying an average number of spikes per frame."""

    src: str
    dst: str
    weight: float = 1.0
    spikes: float = 0.0


@dataclass(frozen=True)
class InputSource:
    """An external stimulus node with a fixed per-frame spike count."""

    id: str
    spikes: float = 0.0


@dataclass(frozen=True)
class Neuron:
    id: str
    # optional per-neuron overrides of the integrate-and-fire parameters
    params: tuple[tuple[str, float], ...] = ()

    @staticmethod
    def make(id: str, params: dict[str, float] | None = None) -> "Neuron":
        return Neuron(id, tuple(sorted((params or {}).items())))

    def params_dict(self) -> dict[str, float]:
        return dict(self.params)


@dataclass(frozen=True)
class SnnGraph:
    """Directed neuron/synapse graph with per-synapse spike counts.

    ``inputs`` model external stimuli as source nodes; they may appear as
    synapse sources but never as destinations.
    """

    neurons: tuple[Neuron, ...]
    inputs: tuple[InputSource, ...] = ()
    synapses: tuple[Synapse, ...] = ()

    def neuron_ids(self) -> list[str]:
        return [n.id for n in self.neurons]

    def input_ids(self) -> list[str]:
        return [i.id for i in self.inputs]

    def node_ids(self) -> list[str]:
        return self.neuron_ids() + self.input_ids()

    def validate(self) -> None:
        neuron_ids = set()
        for n in self.neurons:
            if n.id in neuron_ids:
                raise GraphValidationError(f"duplicate neuron id {n.id!r}")
            neuron_ids.add(n.id)
        input_ids = set()
        for i in self.inputs:
            if i.id in input_ids or i.id in neuron_ids:
                raise GraphValidationError(f"duplicate node id {i.id!r}")
            input_ids.add(i.id)
            if not i.spikes >= 0:
                raise GraphValidationError(
                    f"input {i.id!r} has negative or NaN spikes per frame")
        seen_pairs = set()
        for s in self.synapses:
            if s.src not in neuron_ids and s.src not in input_ids:
                raise GraphValidationError(
                    f"synapse source {s.src!r} references an undeclared node")
            if s.dst not in neuron_ids:
                raise GraphValidationError(
                    f"synapse destination {s.dst!r} references an undeclared neuron")
            if (s.src, s.dst) in seen_pairs:
                raise GraphValidationError(
                    f"duplicate synapse ({s.src!r}, {s.dst!r})")
            seen_pairs.add((s.src, s.dst))
            if not s.spikes >= 0:
                raise GraphValidationError(
                    f"synapse ({s.src!r}, {s.dst!r}) has negative or NaN "
                    f"spikes per frame")

    @cached_property
    def _adjacency(self) -> tuple:
        # (neurons, index, succ, pred, w, sources), read-only and shared by
        # every partition round: sorted neuron ids, id -> number (inputs
        # after the neurons), per neuron its successors and predecessors
        # (no self-loops), spikes to each neighbour both ways summed in
        # synapse order, and distinct pre-synaptic sources, inputs
        # included: each takes a crossbar row.  Sorted tuples, not sets,
        # as the view lives as long as the graph.  A failing graph caches
        # nothing.
        self.validate()
        neurons = tuple(sorted(self.neuron_ids()))
        n = len(neurons)
        index = {nid: i for i, nid in enumerate((*neurons, *self.input_ids()))}
        succ, pred, sources = ([set() for _ in range(n)] for _ in range(3))
        w: list[dict[int, float]] = [{} for _ in range(n)]
        for s in self.synapses:
            i, j = index[s.src], index[s.dst]
            sources[j].add(i)
            if i < n and i != j:
                succ[i].add(j)
                pred[j].add(i)
                w[i][j] = w[i].get(j, 0.0) + s.spikes
                w[j][i] = w[j].get(i, 0.0) + s.spikes
        succ, pred, sources = (tuple(tuple(sorted(x)) for x in sets)
                               for sets in (succ, pred, sources))
        return neurons, index, succ, pred, tuple(w), sources


@dataclass(frozen=True)
class Core:
    """A neuromorphic processing element.

    ``crossbar_dim`` bounds both the distinct pre-synaptic sources and the
    neurons a hosted cluster may use; connection and bandwidth caps are
    optional (``None`` means unconstrained).
    """

    id: str
    crossbar_dim: int
    exec_time: float = 1
    in_connections: int | None = None
    out_connections: int | None = None
    in_bandwidth: float | None = None
    out_bandwidth: float | None = None

    def validate(self) -> None:
        if self.crossbar_dim < 1:
            raise GraphValidationError(
                f"core {self.id!r}: crossbar_dim must be >= 1")
        if not self.exec_time > 0:
            raise GraphValidationError(
                f"core {self.id!r}: exec_time must be > 0")
        for name in ("in_connections", "out_connections",
                     "in_bandwidth", "out_bandwidth"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise GraphValidationError(
                    f"core {self.id!r}: {name} must be >= 0")


@dataclass(frozen=True)
class Link:
    src: str
    dst: str
    latency: float = 0


class _HashedOnce:
    # a frozen dataclass hashed by value once, pickled without the hash
    # (spawn and forkserver workers seed string hashes anew); a subclass
    # sets __hash__ = _HashedOnce.__hash__, which dataclass would replace
    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(tuple(map(vars(self).get, self.__dataclass_fields__)))

    def __getstate__(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "_hash"}


@dataclass(frozen=True)
class HardwareGraph(_HashedOnce):
    """Many-core platform model: cores joined by directed latency links."""

    cores: tuple[Core, ...]
    links: tuple[Link, ...] = ()
    __hash__ = _HashedOnce.__hash__

    def core_ids(self) -> list[str]:
        return [c.id for c in self.cores]

    def validate(self) -> None:
        ids = set()
        for c in self.cores:
            if c.id in ids:
                raise GraphValidationError(f"duplicate core id {c.id!r}")
            ids.add(c.id)
            c.validate()
        for l in self.links:
            if l.src not in ids or l.dst not in ids:
                raise GraphValidationError(
                    f"link ({l.src!r}, {l.dst!r}) references an undeclared core")
            if l.latency < 0:
                raise GraphValidationError(
                    f"link ({l.src!r}, {l.dst!r}) has negative latency")

    def routed_latencies(self) -> MappingProxyType:
        """All-pairs routed latency: shortest path over the link graph.

        Pairs with no route are absent from the result; a mapping that
        needs such a pair is infeasible.  The routes are computed once
        per platform, on the first call, and every call returns a
        read-only view of that one table.
        """
        return MappingProxyType(self._routes)

    @cached_property
    def _routes(self) -> dict[tuple[str, str], float]:
        # a plain dict, not the read-only view: the platform is pickled
        # for worker processes, and a mapping proxy cannot be
        ids = self.core_ids()
        dist: dict[tuple[str, str], float] = {(i, i): 0 for i in ids}
        for l in self.links:
            key = (l.src, l.dst)
            if key not in dist or l.latency < dist[key]:
                dist[key] = l.latency
        for k in ids:
            for i in ids:
                if (i, k) not in dist:
                    continue
                for j in ids:
                    if (k, j) not in dist:
                        continue
                    alt = dist[(i, k)] + dist[(k, j)]
                    if (i, j) not in dist or alt < dist[(i, j)]:
                        dist[(i, j)] = alt
        return dist

    @cached_property
    def _cores(self) -> tuple[list[str], list[int], list[Core]]:
        # sorted core ids, their crossbar capacities in that order and
        # their cores, for the swarm's decode and the placements by
        # core index
        by_id = {c.id: c for c in self.cores}
        ids = sorted(self.core_ids())
        cores = [by_id[c] for c in ids]
        return ids, [c.crossbar_dim for c in cores], cores

    @cached_property
    def _tables(self) -> tuple:
        # (position, latency, hop, capped, scaled) over the sorted core
        # ids, for placements by core index: id -> position, each core's
        # exact routed latency to every core (0 to itself, None where no
        # route joins them), the cheapest route between two distinct cores
        # (0 without one), whether a core caps its connections or
        # bandwidth, and _scaled_times per scale
        ids = self._cores[0]
        routed = self.routed_latencies()
        return ({c: j for j, c in enumerate(ids)},
                tuple(tuple(0 if a == b else None if (a, b) not in routed
                            else exact_time(routed[(a, b)]) for b in ids)
                      for a in ids),
                exact_time(min((lat for (a, b), lat in routed.items()
                                if a != b), default=0)),
                any(getattr(c, cap) is not None for c in self.cores
                    for cap in ("in_connections", "out_connections",
                                "in_bandwidth", "out_bandwidth")), {})

    def _scaled_times(self, scale) -> list:
        # each sorted core's execution time scaled by scale, exact and
        # kept per scale; normalised again after scaling, so that an
        # integral Fraction becomes an int: a state hash digests reprs
        scaled = self._tables[4]
        if scale not in scaled:
            s = exact_time(scale)
            scaled[scale] = [exact_time(exact_time(c.exec_time) * s)
                             for c in self._cores[2]]
        return scaled[scale]


@dataclass(frozen=True)
class GraphStats:
    """Degree and diameter summary of a spiking-network graph."""

    max_in_degree: int
    avg_in_degree: float
    max_out_degree: int
    avg_out_degree: float
    diameter: int


def _load_yaml(path: str, expected_format: str) -> dict:
    """Read a YAML document whose top-level ``format`` is ``expected_format``.

    Every file the toolchain reads goes through here.  It is parsed by
    libyaml (``CSafeLoader``) from the file's bytes, so libyaml
    decodes it and reports a bad encoding as invalid YAML.  Invalid YAML,
    a top level that is not a mapping and a wrong ``format`` raise
    :class:`GraphFormatError` naming ``path``.  The pure-Python
    ``yaml.SafeLoader`` is the tests' oracle; a PyYAML built without
    libyaml is not supported.
    """
    try:
        with open(path, "rb") as fh:
            doc = yaml.load(fh, Loader=CSafeLoader)
    except yaml.YAMLError as exc:
        raise GraphFormatError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphFormatError(f"{path}: expected a mapping at top level")
    fmt = doc.get("format")
    if fmt != expected_format:
        raise GraphFormatError(
            f"{path}: format is {fmt!r}, expected {expected_format!r}")
    return doc


def _yaml_text(doc: dict) -> str:
    """``doc`` as YAML text, keys in insertion order.

    Every YAML the toolchain writes or prints is formatted here, by
    libyaml (``CSafeDumper``), to the bytes the pure-Python
    ``yaml.safe_dump(doc, sort_keys=False)`` writes; that function is the
    tests' oracle.  A PyYAML built without libyaml is not supported.
    """
    return yaml.dump(doc, Dumper=CSafeDumper, sort_keys=False)


def _dump_yaml(doc: dict, path: str) -> None:
    """Write ``doc`` to ``path`` as libyaml formats it in :func:`_yaml_text`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_yaml_text(doc))


_REQUIRED = object()


def _field(entry: dict, key: str, ctx: str, convert, default=_REQUIRED):
    # convert(entry[key]), or default when the key is absent or holds the
    # default itself (null, for a None default).  ctx names the file and
    # the entry; a missing field or a value convert rejects raises
    # GraphFormatError naming both.
    value = entry.get(key, default)
    if value is _REQUIRED:
        raise GraphFormatError(f"{ctx}: missing required field {key!r}")
    if value is default:
        return value
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise GraphFormatError(
            f"{ctx}: field {key!r} has the bad value {value!r} ({exc})"
        ) from None


def _entries(doc: dict, section: str, ctx: str, names: bool = False):
    # (context, entry) of each mapping in the list doc[section], the
    # context naming the file and the entry; with names, a string s
    # stands for {"id": s}
    items = doc.get(section) or []
    if not isinstance(items, list):
        raise GraphFormatError(f"{ctx}: {section!r} must be a list")
    for k, e in enumerate(items):
        where = f"{ctx}: {section}[{k}]"
        if names and isinstance(e, str):
            e = {"id": e}
        if not isinstance(e, dict):
            raise GraphFormatError(f"{where} must be a mapping, got {e!r}")
        yield where, e


def _number(value):
    # a finite int or float, unconverted: an integral value stays an int,
    # so that saved files and hashes do not change
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("not a number")
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _float(value):
    # a finite number as a float, as spike counts, weights and times are
    return float(_number(value))


def _integer(value):
    # an int, or a float with an integral value as that int; a bool, a
    # fraction or any other type is refused rather than truncated
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("not an integer")
    return value


def _list_of(convert):
    # the converter of a list, null for an empty one, to a tuple
    def items(value) -> tuple:
        if value is not None and not isinstance(value, list):
            raise TypeError("not a list")
        return tuple(map(convert, value or ()))
    return items


def _params(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError("not a mapping")
    return {str(k): _number(v) for k, v in value.items()}


def _synapses(doc: dict, section: str, ctx: str) -> tuple[Synapse, ...]:
    return tuple(Synapse(_field(e, "src", where, str),
                         _field(e, "dst", where, str),
                         _field(e, "weight", where, _float, 1.0),
                         _field(e, "spikes", where, _float, 0.0))
                 for where, e in _entries(doc, section, ctx))


def snn_graph_from_dict(doc: dict, ctx: str = "<snn-graph>") -> SnnGraph:
    neurons = [Neuron.make(_field(e, "id", where, str),
                           _field(e, "params", where, _params, None))
               for where, e in _entries(doc, "neurons", ctx, names=True)]
    inputs = [InputSource(_field(e, "id", where, str),
                          _field(e, "spikes", where, _float, 0.0))
              for where, e in _entries(doc, "inputs", ctx)]
    g = SnnGraph(tuple(neurons), tuple(inputs),
                 _synapses(doc, "synapses", ctx))
    g.validate()
    return g


def load_snn_graph(path: str) -> SnnGraph:
    """Load and validate a spiking-network graph file."""
    return snn_graph_from_dict(_load_yaml(path, SNN_FORMAT), ctx=path)


def snn_graph_to_dict(g: SnnGraph) -> dict:
    doc: dict = {"format": SNN_FORMAT}
    doc["neurons"] = [
        {"id": n.id} | ({"params": n.params_dict()} if n.params else {})
        for n in g.neurons]
    doc["inputs"] = [asdict(i) for i in g.inputs]
    doc["synapses"] = [asdict(s) for s in g.synapses]
    return doc


def save_snn_graph(g: SnnGraph, path: str) -> None:
    _dump_yaml(snn_graph_to_dict(g), path)


def hardware_graph_from_dict(doc: dict, ctx: str = "<hardware-graph>") -> HardwareGraph:
    cores = [Core(id=_field(e, "id", where, str),
                  crossbar_dim=_field(e, "crossbar_dim", where, _integer),
                  exec_time=_field(e, "exec_time", where, _number, 1),
                  **{name: _field(e, name, where, _number, None)
                     for name in ("in_connections", "out_connections",
                                  "in_bandwidth", "out_bandwidth")})
             for where, e in _entries(doc, "cores", ctx)]
    links = [Link(src=_field(e, "src", where, str),
                  dst=_field(e, "dst", where, str),
                  latency=_field(e, "latency", where, _number, 0))
             for where, e in _entries(doc, "links", ctx)]
    hw = HardwareGraph(tuple(cores), tuple(links))
    hw.validate()
    return hw


def load_hardware_graph(path: str) -> HardwareGraph:
    """Load and validate a hardware platform file."""
    return hardware_graph_from_dict(_load_yaml(path, HW_FORMAT), ctx=path)


def hardware_graph_to_dict(hw: HardwareGraph) -> dict:
    doc: dict = {"format": HW_FORMAT}
    # a cap left at None (unconstrained) is left out
    doc["cores"] = [{k: v for k, v in asdict(c).items() if v is not None}
                    for c in hw.cores]
    doc["links"] = [asdict(l) for l in hw.links]
    return doc


def save_hardware_graph(hw: HardwareGraph, path: str) -> None:
    _dump_yaml(hardware_graph_to_dict(hw), path)


def compute_graph_stats(g: SnnGraph) -> GraphStats:
    """Degrees over the synapse relation and the directed diameter.

    Degrees are averaged over all nodes (neurons and inputs).  The
    diameter is the longest finite shortest path; unreachable pairs are
    ignored, so a disconnected graph reports the diameter of its largest
    reachable stretch.  An empty graph yields all zeros.
    """
    nodes = g.node_ids()
    if not nodes:
        return GraphStats(0, 0.0, 0, 0.0, 0)
    in_deg: dict[str, int] = defaultdict(int)
    out_deg: dict[str, int] = defaultdict(int)
    adj: dict[str, list[str]] = defaultdict(list)
    for s in g.synapses:
        out_deg[s.src] += 1
        in_deg[s.dst] += 1
        adj[s.src].append(s.dst)
    n = len(nodes)
    max_in = max((in_deg[v] for v in nodes), default=0)
    max_out = max((out_deg[v] for v in nodes), default=0)
    total = len(g.synapses)
    diameter = 0
    for src in nodes:
        # BFS over unit-length directed edges
        dist = {src: 0}
        q = deque([src])
        while q:
            u = q.popleft()
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    q.append(v)
        far = max(dist.values())
        if far > diameter:
            diameter = far
    return GraphStats(max_in, total / n, max_out, total / n, diameter)
