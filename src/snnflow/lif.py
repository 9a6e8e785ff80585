"""Discrete-time leaky integrate-and-fire simulation for spike-rate estimation.

The simulator exists to put token counts on synapses: it integrates each
neuron's membrane with forward Euler, counts output spikes per frame, and
writes the rounded per-frame averages back onto the graph.  Inter-spike
timing is deliberately discarded downstream, so the integrator favours
simplicity over waveform fidelity.

:func:`estimate_rates` advances every neuron of every frame together,
one array step per time step (clock-driven simulation, as surveyed by
Brette et al., J. Comput. Neurosci. 2007).  Frames are independent, so
they are stacked along a leading axis: per frame, neurons take slots
``0..N-1`` of a spike-count row and inputs the next ``I`` slots.  The
synapses form one flat list in ``g.synapses`` order, repeated once per
frame.  Each step gathers every synapse's source count, multiplies it by
the weight, sums the products into the target neurons' currents with
``np.bincount``, then applies the forward-Euler membrane update
elementwise.  A step's work grows with frames x (synapses + neurons);
no neuron's in-synapses are padded to the widest fan-in.

The result equals, bit for bit, the scalar reference in
``tests/oracles.py``, which steps one neuron at a time and sums each
neuron's synaptic current left to right over its firing sources.
``np.bincount`` with weights starts every bin at ``+0.0`` and walks its
input once, in order, adding each weight into its bin, so each neuron's
current is the left-to-right sum of its terms in synapse order.  A
silent source adds a zero, which changes no sum: a sum that starts at
``+0.0`` never becomes ``-0.0`` under round-to-nearest.
``test_rates_add_synapse_terms_left_to_right`` fails for any other
order, and ``test_vectorised_rates_equal_the_reference`` compares random
nets with the reference.  The membrane update performs the same float
operations in the same order, and numpy's float64 arithmetic rounds as
Python's does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError, GraphFormatError
from .snn_graph import (SnnGraph, _dump_yaml, _entries, _field, _float,
                        _list_of, _load_yaml)

TRAINS_FORMAT = "spike-trains/1"


@dataclass(frozen=True)
class LifParams:
    """Membrane parameters of a current-based integrate-and-fire neuron.

    The membrane time constant is ``r_m * c_m``.  ``dt`` is the forward
    Euler step used by the frame simulation.
    """

    c_m: float = 1e-9           # farads
    r_m: float = 1e7            # ohms
    v_rest: float = -65e-3      # volts
    v_th: float = -50e-3        # volts
    i_inj: float = 0.0          # amperes
    dt: float = 1e-4            # seconds

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got "
                                  f"{getattr(self, f.name)!r}")
        if self.c_m <= 0 or self.r_m <= 0:
            raise ConfigError("c_m and r_m must be positive")
        if self.v_th <= self.v_rest:
            raise ConfigError("v_th must exceed v_rest")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")

    @property
    def tau_m(self) -> float:
        return self.c_m * self.r_m

    def with_overrides(self, overrides: dict[str, float],
                       owner: str = "overrides") -> "LifParams":
        """A copy with ``overrides`` applied.  A key that names no
        parameter, or a value the parameters refuse, raises
        :class:`ConfigError` naming ``owner``."""
        if not overrides:
            return self
        known = [f.name for f in fields(self)]
        unknown = sorted(set(overrides) - set(known))
        if unknown:
            raise ConfigError(f"{owner}: unknown LIF parameter {unknown[0]!r} "
                              f"(known: {', '.join(known)})")
        try:
            return replace(self, **overrides)
        except ConfigError as exc:
            raise ConfigError(f"{owner}: {exc}") from None


@dataclass(frozen=True)
class SpikeTrain:
    """Spike instants of one source within a frame, strictly increasing."""

    times: tuple[float, ...]
    frame_length: float

    def __post_init__(self):
        if self.frame_length <= 0:
            raise ConfigError("frame_length must be positive")
        prev = -1.0
        for t in self.times:
            if not 0.0 <= t < self.frame_length:
                raise ConfigError(
                    f"spike time {t} outside [0, {self.frame_length})")
            if t <= prev:
                raise ConfigError("spike times must be strictly increasing")
            prev = t


def _round_rate(x: float) -> int:
    # half-up, clamped at zero: port rates must be non-negative integers
    return max(0, int(math.floor(x + 0.5)))


def estimate_rates(g: SnnGraph,
                   params: LifParams | None = None,
                   frames: list[dict[str, SpikeTrain]] | None = None) -> SnnGraph:
    """Simulate representative frames and annotate synapse spike counts.

    Every outgoing synapse of a neuron receives that neuron's mean output
    spike count across frames (rounded to the nearest integer); synapses
    from an input source receive the mean length of its trains.  The
    input sources' own ``spikes`` fields are refreshed to match.

    An input spike at time ``t`` lands in step ``int(t / dt)``.  When
    ``frame_length / dt`` rounds down, the last spikes of a train can land
    at or after step ``n_steps``: they count towards the input's own rate
    but never reach a neuron.

    The frame length is the trains' common one; a network without
    inputs has none, and :class:`ConfigError` refuses it.

    Every frame starts at rest with no spikes in flight, so the frames
    are simulated together, each in its own row of the state, and no
    state passes from one frame to the next: the order of ``frames``
    does not change the result.

    Raises :class:`ConfigError` if any input lacks a train in some frame
    or a frame holds a train for an id that is not an input; every frame
    is checked before any is simulated.  A neuron whose ``params`` name
    a key that :class:`LifParams` lacks raises it too, naming the neuron
    and the key.
    """
    g.validate()
    base = params or LifParams()
    if not frames:
        raise ConfigError("at least one frame of input spike trains is required")

    per_neuron = [base.with_overrides(n.params_dict(), f"neuron {n.id!r}")
                  for n in g.neurons]
    dts = {p.dt for p in per_neuron} or {base.dt}
    if len(dts) != 1:
        raise ConfigError("all neurons must share one integration step dt")
    dt = dts.pop()

    neuron_ids = g.neuron_ids()
    input_ids = g.input_ids()
    for fi, frame in enumerate(frames):
        missing = set(input_ids) - set(frame)
        if missing:
            raise ConfigError(
                f"frame {fi}: no spike train for input(s) {sorted(missing)}")
        stray = set(frame) - set(input_ids)
        if stray:
            raise ConfigError(
                f"frame {fi}: spike trains for {sorted(stray)}, which are "
                f"not inputs")

    frame_lengths = {tr.frame_length for fr in frames for tr in fr.values()}
    if not frame_lengths:
        raise ConfigError("no input spike train gives the frame length")
    if len(frame_lengths) > 1:
        raise ConfigError("all spike trains must share one frame length")
    frame_length = frame_lengths.pop()
    n_steps = max(1, int(round(frame_length / dt)))

    n, n_in, n_frames = len(neuron_ids), len(input_ids), len(frames)
    slot = {nid: i for i, nid in enumerate(neuron_ids + input_ids)}
    v_rest = np.array([p.v_rest for p in per_neuron])
    v_th = np.array([p.v_th for p in per_neuron])
    tau_m = np.array([p.tau_m for p in per_neuron])
    c_m = np.array([p.c_m for p in per_neuron])
    i_inj = np.array([p.i_inj for p in per_neuron])

    # frame f's copy of synapse k reads count f * (n + n_in) + src[k] and
    # adds to current f * n + dst[k]; both run frame-major, in g.synapses
    # order within a frame
    frame_base = np.arange(n_frames)[:, None]
    src = frame_base * (n + n_in) + np.array(
        [slot[s.src] for s in g.synapses], dtype=np.intp)
    dst = (frame_base * n + np.array(
        [slot[s.dst] for s in g.synapses], dtype=np.intp)).ravel()
    weight = np.array([s.weight for s in g.synapses], dtype=float)

    # 0 * inf is nan, so non-finite weights multiply only where a source
    # fired; with finite weights a silent source's term is a zero, which
    # leaves the running sum unchanged
    silent_is_zero = bool(np.isfinite(weight).all())

    # drive[step, f, j]: input j's spikes in that step of frame f.  Spikes
    # at or past step n_steps land in a spare last step that is never
    # simulated: they count for the input's rate only.  Cells are numbered
    # step-major with the trains laid end to end, and a train's steps
    # never decrease, so the spikes of one cell form one run
    trains = [frame[iid].times for frame in frames for iid in input_ids]
    lengths = [len(times) for times in trains]
    times = np.array([t for ts in trains for t in ts], dtype=float)
    step_of = np.minimum((times / dt).astype(np.intp), n_steps)
    cell = (step_of * (n_frames * n_in)
            + np.repeat(np.arange(n_frames * n_in), lengths))
    first = np.flatnonzero(np.diff(cell, prepend=-1))
    hits = np.diff(first, append=cell.size)
    drive = np.zeros((n_steps + 1, n_frames, n_in),
                     dtype=np.min_scalar_type(hits.max(initial=0)))
    drive.reshape(-1)[cell[first]] = hits
    input_totals = np.reshape(lengths, (n_frames, n_in)).sum(axis=0)

    # per frame: neurons' spikes of the previous step, inputs' of this one
    counts = np.zeros((n_frames, n + n_in))
    terms = np.empty(src.shape)
    fired_totals = np.zeros((n_frames, n), dtype=np.int64)
    v = v_rest
    # inf and nan propagate silently, as in Python float arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_steps):
            counts[:, n:] = drive[step]
            # every index is in range; "clip" writes straight into terms,
            # where the default mode would buffer a copy
            counts.take(src, out=terms, mode="clip")
            if silent_is_zero:
                np.multiply(terms, weight, out=terms)
            else:
                np.multiply(terms, weight, out=terms, where=terms != 0)
            i_s = np.bincount(dst, terms.ravel(), n_frames * n).reshape(
                n_frames, n) / dt
            leak = -(v - v_rest) / tau_m
            v_new = v + dt * (leak + (i_s + i_inj) / c_m)
            # v is v_rest, a sub-threshold v_new or nan: never >= v_th
            fired = v_new >= v_th
            v = np.where(fired, v_rest, v_new)
            counts[:, :n] = fired
            fired_totals += fired

    mean_rate = {nid: total / n_frames for nid, total
                 in zip(neuron_ids, fired_totals.sum(axis=0).tolist())}
    mean_rate.update({iid: total / n_frames for iid, total
                      in zip(input_ids, input_totals.tolist())})

    new_synapses = tuple(
        replace(s, spikes=float(_round_rate(mean_rate[s.src])))
        for s in g.synapses)
    new_inputs = tuple(
        replace(i, spikes=float(_round_rate(mean_rate[i.id])))
        for i in g.inputs)
    return replace(g, synapses=new_synapses, inputs=new_inputs)


def load_spike_trains(path: str) -> list[dict[str, SpikeTrain]]:
    """Read a spike-train file: one train per input per frame."""
    doc = _load_yaml(path, TRAINS_FORMAT)
    frame_length = _field(doc, "frame_length", path, _float)
    if not frame_length > 0:
        raise GraphFormatError(f"{path}: frame_length must be positive")
    times = _list_of(_float)
    return [{str(iid): SpikeTrain(_field(frame, iid, where, times),
                                  frame_length)
             for iid in frame}
            for where, frame in _entries(doc, "frames", path)]


def save_spike_trains(frames: list[dict[str, SpikeTrain]], path: str) -> None:
    frame_length = next(
        (tr.frame_length for fr in frames for tr in fr.values()), 1.0)
    doc = {
        "format": TRAINS_FORMAT,
        "frame_length": frame_length,
        "frames": [{iid: list(tr.times) for iid, tr in sorted(fr.items())}
                   for fr in frames],
    }
    _dump_yaml(doc, path)
