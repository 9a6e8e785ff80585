"""Synchronous dataflow core: single-rate graphs, deadlock, throughput.

Actors fire by moving one token on every input and output channel, so
one iteration of the graph fires every actor once (homogeneous SDF, Lee
& Messerschmitt 1987); a token stands for its channel's ``volume`` of
spikes, the unit of capacities and records only.  A firing may
start only when all input tokens and all output buffer space are
available.  Bounded buffers are enforced through a space-credit counter
per channel whose dynamics are exactly the classical reverse-channel
encoding: space is claimed when the producer starts and returned when
the consumer finishes.

Throughput comes from self-timed execution: a discrete-event run over
exact (integer/rational) time that stops when a previously seen state
recurs; the long-term period is the clock advance divided by the
iterations completed between the two occurrences.
"""

from __future__ import annotations

import hashlib
import logging
from collections import defaultdict, deque
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from heapq import heappop, heappush
from typing import NamedTuple

from .errors import (BudgetExceededError, DeadlockError, GraphValidationError,
                     InfeasibleCapacityError, InfeasibleMappingError)
from .partition import ClusteredSnnGraph
from .snn_graph import (HardwareGraph, _HashedOnce, _dump_yaml, _entries,
                        _field, _integer, _load_yaml, _number, exact_time)

logger = logging.getLogger(__name__)

SDFG_FORMAT = "sdfg/1"

DEFAULT_STATE_BUDGET = 10 ** 6


@dataclass(frozen=True)
class Actor:
    """A dataflow actor; ``weight`` carries the neuron count of the
    cluster it represents (1 for plain actors)."""

    id: str
    exec_time: float = 1
    weight: int = 1


@dataclass(frozen=True)
class Channel:
    """A FIFO edge moving one token per firing, each token ``volume``
    spikes; ``tokens`` and ``capacity`` count tokens.

    ``capacity`` of ``None`` means unbounded.  ``src == dst`` self-loops
    serialize an actor's firings.
    """

    src: str
    dst: str
    tokens: int = 0
    capacity: int | None = None
    volume: int = 1


@dataclass(frozen=True)
class Sdfg(_HashedOnce):
    actors: tuple[Actor, ...]
    channels: tuple[Channel, ...] = ()
    __hash__ = _HashedOnce.__hash__

    def actor_ids(self) -> list[str]:
        return [a.id for a in self.actors]

    def validate(self) -> None:
        ids = set()
        for a in self.actors:
            if a.id in ids:
                raise GraphValidationError(f"duplicate actor id {a.id!r}")
            ids.add(a.id)
            if not a.exec_time > 0:
                raise GraphValidationError(
                    f"actor {a.id!r}: exec_time must be > 0")
        for i, c in enumerate(self.channels):
            if c.src not in ids or c.dst not in ids:
                raise GraphValidationError(
                    f"channel {i} ({c.src!r} -> {c.dst!r}) references an "
                    f"undeclared actor")
            if c.volume < 1:
                raise GraphValidationError(
                    f"channel {i} ({c.src!r} -> {c.dst!r}): volume must be >= 1")
            if c.tokens < 0:
                raise GraphValidationError(
                    f"channel {i} ({c.src!r} -> {c.dst!r}): negative initial tokens")
            if c.capacity is not None and c.capacity < c.tokens:
                raise GraphValidationError(
                    f"channel {i} ({c.src!r} -> {c.dst!r}): capacity below "
                    f"initial tokens")

    @cached_property
    def _weights(self) -> tuple[list[str], list[int]]:
        # actor ids in declaration order and their weights; not
        # validated, since positions are decoded before any check
        return self.actor_ids(), [a.weight for a in self.actors]

    @cached_property
    def _tables(self) -> tuple:
        # (ids, index, in_ch, out_ch) of the validated graph: actor ids,
        # id -> position and per-actor input and output channels.
        # A graph that fails validation caches nothing and raises again.
        self.validate()
        ids = tuple(self.actor_ids())
        index = {a: i for i, a in enumerate(ids)}
        in_ch: list[list[int]] = [[] for _ in ids]
        out_ch: list[list[int]] = [[] for _ in ids]
        for i, c in enumerate(self.channels):
            in_ch[index[c.dst]].append(i)
            out_ch[index[c.src]].append(i)
        return ids, index, tuple(map(tuple, in_ch)), tuple(map(tuple, out_ch))

    @cached_property
    def _bounded(self) -> tuple:
        # (in_ch, out_ch) of _tables cut down to the bounded channels,
        # the only ones whose space a run tracks, and the (in_ch, bounded
        # out_ch) pairs of the actors that a lack of space can block
        _, _, in_ch, out_ch = self._tables
        channels = self.channels

        def keep(per_actor):
            return tuple(tuple(ci for ci in cis
                               if channels[ci].capacity is not None)
                         for cis in per_actor)
        out_bounded = keep(out_ch)
        return keep(in_ch), out_bounded, tuple(
            (ins, outs) for ins, outs in zip(in_ch, out_bounded) if outs)

    @cached_property
    def _ends(self) -> tuple:
        # (src, dst, cycles): each channel's producer and consumer
        # positions, and the (channel, src, dst, capacity) of each
        # channel between two actors that holds a token or more, which
        # closes a forward/credit cycle
        index = self._tables[1]
        src = tuple(index[c.src] for c in self.channels)
        dst = tuple(index[c.dst] for c in self.channels)
        return src, dst, tuple((ci, s, d, c.capacity) for ci, (c, s, d)
                               in enumerate(zip(self.channels, src, dst))
                               if c.capacity and s != d)

    @cached_property
    def _wakes(self) -> tuple:
        # (wakes, consumer) for the list run's dirty set: per actor, the
        # actors whose readiness its end can change (itself, the
        # producers of its bounded inputs, whose space it returns, and
        # the consumers of its outputs), and per channel its consumer
        out_ch = self._tables[3]
        in_bounded = self._bounded[0]
        src, consumer = self._ends[:2]
        return tuple(
            tuple(sorted({a, *(src[ci] for ci in ins),
                          *(consumer[ci] for ci in outs)}))
            for a, (ins, outs) in enumerate(zip(in_bounded, out_ch))
        ), consumer


@dataclass(frozen=True)
class ThroughputResult:
    """Long-term rate of one graph iteration per unit time."""

    period: float
    throughput: float
    transient_length: int
    steady_state_hash: str

    def to_record(self) -> dict:
        return {"period": self.period, "throughput": self.throughput,
                "transient_length": self.transient_length,
                "steady_state_hash": self.steady_state_hash}


class Wait(NamedTuple):
    """Why an actor cannot fire: it needs tokens on an input channel or
    space on a bounded output (``kind``) that ``peer`` must supply."""

    actor: str
    channel: int
    kind: str
    peer: str
    needs: int

    def __str__(self) -> str:
        return (f"{self.actor!r} needs {self.needs} {self.kind} on channel "
                f"{self.channel} {'from' if self.kind == 'tokens' else 'to'} "
                f"{self.peer!r}")


@dataclass(frozen=True)
class DeadlockReport:
    """Stalled abstract execution: the actors that could not fire, in
    actor order, and one cycle among them, each entry waiting on the
    next entry's actor and the last on the first's.  ``str`` is the
    one-line report naming the cycle."""

    starving: tuple[str, ...]
    cycle: tuple[Wait, ...]

    def __str__(self) -> str:
        return "starving cycle: " + ", ".join(map(str, self.cycle))


def lift_to_sdfg(cg: ClusteredSnnGraph, core_exec_time=1) -> Sdfg:
    """Turn a clustered spiking network into a rated dataflow graph.

    Each cluster becomes an actor; each cluster edge becomes an
    unbounded channel, which :func:`set_buffer_allocation` sizes, whose
    token stands for the edge's spikes of one frame.  Every actor gains an
    unbounded self-loop with one token so firings cannot overlap (a
    cluster occupies a single crossbar).  Edges that carry no spikes are
    dropped with a warning since a volume of zero is not valid.
    """
    actors = tuple(Actor(c.id, core_exec_time, max(1, len(c.neurons)))
                   for c in cg.clusters)
    channels = []
    for e in cg.edges:
        if e.tokens <= 0:
            logger.warning(
                "dropping zero-token edge %s -> %s from dataflow graph",
                e.src, e.dst)
            continue
        channels.append(Channel(e.src, e.dst, volume=e.tokens))
    for a in actors:
        channels.append(Channel(a.id, a.id, tokens=1))
    g = Sdfg(actors, tuple(channels))
    g.validate()
    return g


def repetition_vector(g: Sdfg) -> dict[str, int]:
    """Firings per iteration: one for every actor of the validated graph.

    Raises :class:`GraphValidationError` for an invalid graph.
    """
    return dict.fromkeys(g._tables[0], 1)


def _blocked_on(g: Sdfg, a: int, tokens, space) -> Wait | None:
    # the firing rule's blocked test: actor a's first input without a
    # token, else its first bounded output without space; a wait counts
    # the spikes of the token it needs
    ids, _, in_ch, _ = g._tables
    for ci in in_ch[a]:
        if not tokens[ci]:
            c = g.channels[ci]
            return Wait(ids[a], ci, "tokens", c.src, c.volume)
    for ci in g._bounded[1][a]:
        if not space[ci]:
            c = g.channels[ci]
            return Wait(ids[a], ci, "space", c.dst, c.volume)
    return None


def check_deadlock(g: Sdfg) -> DeadlockReport | None:
    """Abstractly execute one full iteration, one firing of every actor;
    report the stall if any.

    Firings are instantaneous moves of the tokens and space a timed run
    keeps per channel.  Because each channel has a unique producer and a
    unique consumer, firing one actor never disables another, so a
    greedy order is conclusive.

    The reported cycle follows each actor's first blocking channel to
    its other end, from the first starving actor until one repeats.  It
    closes among starving actors, each of them blocked: a producer that
    has fired left the token its unfired consumer waits for, and a
    consumer that has fired returned the space its unfired producer
    waits for.
    """
    ids, index, in_ch, out_ch = g._tables
    in_bounded, out_bounded, _ = g._bounded
    tokens = [c.tokens for c in g.channels]
    space = [None if c.capacity is None else c.capacity - c.tokens
             for c in g.channels]
    remaining = [True] * len(ids)
    progress = True
    while progress:
        progress = False
        for a in range(len(ids)):
            if remaining[a] and not _blocked_on(g, a, tokens, space):
                for ci in in_ch[a]:
                    tokens[ci] -= 1
                for ci in out_bounded[a]:
                    space[ci] -= 1
                for ci in in_bounded[a]:
                    space[ci] += 1
                for ci in out_ch[a]:
                    tokens[ci] += 1
                remaining[a] = False
                progress = True
    starving = [a for a in range(len(ids)) if remaining[a]]
    if not starving:
        return None
    walk: dict[int, Wait] = {}
    a = starving[0]
    while a not in walk:
        walk[a] = _blocked_on(g, a, tokens, space)
        a = index[walk[a].peer]
    return DeadlockReport(tuple(ids[s] for s in starving),
                          tuple(walk.values())[list(walk).index(a):])


def set_buffer_allocation(g: Sdfg, alloc: dict[int, int | None]) -> Sdfg:
    """Return a copy of the graph with the given capacities, in spikes,
    of which each channel keeps the whole tokens that fit; each must hold
    one firing, ``volume`` spikes, and the channel's initial tokens.
    """
    channels = list(g.channels)
    for i, cap in alloc.items():
        c = channels[i]
        if cap is not None:
            if cap < c.volume:
                raise InfeasibleCapacityError(
                    f"channel {i} ({c.src!r} -> {c.dst!r}): capacity {cap} "
                    f"below single-firing minimum {c.volume}")
            if cap < c.tokens * c.volume:
                raise InfeasibleCapacityError(
                    f"channel {i} ({c.src!r} -> {c.dst!r}): capacity {cap} "
                    f"below initial tokens {c.tokens * c.volume}")
            cap //= c.volume
        channels[i] = replace(c, capacity=cap)
    return replace(g, channels=tuple(channels))


def minimum_buffer_allocation(g: Sdfg) -> dict[int, int]:
    """Smallest per-channel capacities, in spikes, admitting one firing
    each: one token, or the initial tokens when there are more.

    Self-loops (``src == dst``) are modelling artifacts and are left out;
    they keep whatever capacity they already carry.
    """
    return {i: max(1, c.tokens) * c.volume
            for i, c in enumerate(g.channels) if c.src != c.dst}


@dataclass(frozen=True)
class ExecutionResult:
    """Full outcome of one self-timed run (internal superset of
    :class:`ThroughputResult`).

    The recurring state repeats ``iterations_per_cycle`` iterations and
    ``span`` time units after its first occurrence.  The exact period,
    the throughput and the steady-state hash are read off them when
    asked for.

    ``block_counts`` maps each bounded channel to the number of
    recorded states in which a lack of space on it held back an actor
    whose input tokens were all there.  A ``list_mode`` run's result,
    steady state and counts included, is that of the run under the
    static orders it builds (see :class:`_Simulation`).
    """

    span: object
    transient_iterations: int
    steady_state: tuple
    firing_log: tuple[tuple[str | None, str], ...]
    log_cycle_start: int
    iterations_per_cycle: int
    block_counts: dict[int, int]

    @property
    def period_exact(self):
        period = Fraction(self.span, self.iterations_per_cycle)
        return int(period) if period.denominator == 1 else period

    @property
    def throughput(self) -> float:
        return float(Fraction(self.iterations_per_cycle) / Fraction(self.span))

    @property
    def steady_state_hash(self) -> str:
        return _state_hash(self.steady_state)

    def to_throughput(self) -> ThroughputResult:
        return ThroughputResult(
            period=float(self.period_exact),
            throughput=self.throughput,
            transient_length=self.transient_iterations,
            steady_state_hash=self.steady_state_hash)


class _Simulation:
    """Discrete-event self-timed execution over exact time.

    Modes: free (any ready actor fires, auto-concurrency permitted),
    ``schedules`` (each core fires only the actor at its static-order
    cursor, one firing at a time), ``list_mode`` (FIFO ready lists per
    core, used to construct static orders).  Ties at equal time resolve
    by actor id, then core id.

    A ``list_mode`` run is also the run under the static orders built
    from its firing log, on the same placement.  Under those orders
    every actor fires at the instant the list run fired it: a core
    frees at the same time in both runs, and the actor at its cursor is
    the one the list run took next from that core's ready list, which
    it started as soon as the core was free and the actor ready, as the
    run under the orders does.  A ready actor stays ready until it
    starts, because starting an actor takes tokens only from its own
    input channels and space only from its own output channels.  So
    both runs pass through the same states, with the same tokens,
    space, pending ends and arrivals, and count the same blocked
    channels in them.  Their keys differ only in the last entry: the
    list run keys the ready lists, the scheduled run the cursors.  The
    two keys recur at the same pair of states:

    - Let the list key first occur at state i and repeat at j.  A
      core's transient is its starts before i, and its cycle its starts
      from i to j, shortened to one word when they repeat a word a
      whole number of times.  At i every cursor equals its core's
      transient length, and from i to j each core makes whole turns of
      its cycle, so at j every cursor is back there: the scheduled key
      repeats by j.
    - A core's ready list holds exactly its ready actors, which the
      tokens, space and pending ends determine, in the order the core
      starts them, which its static order from the cursor gives.  So
      two states with equal scheduled keys have equal list keys.

    Neither run can therefore recur earlier than the other, and the
    list run's result is the scheduled run's, its steady state recorded
    with the cursors of state i in place of the ready lists.  Its state
    and firing budgets hold for both runs alike.
    """

    END = 0
    ARRIVE = 1

    def __init__(self, g: Sdfg, exec_times: list, core_of: list,
                 latency: list, *, schedules: dict[str, "object"] | None = None,
                 list_mode: bool = False,
                 state_budget: int = DEFAULT_STATE_BUDGET):
        # exec_times and core_of run in g._tables actor order, latency in
        # channel order, as resolve_platform returns them
        self.g = g
        self.ids, self.index, self.in_ch, self.out_ch = g._tables
        self.in_bounded, self.out_bounded, self.blockable = g._bounded
        self.exec = exec_times
        self.core_of = core_of
        self.latency = latency
        self.tokens = [c.tokens for c in g.channels]
        self.space = [None if c.capacity is None else c.capacity - c.tokens
                      for c in g.channels]
        self.completions = [0] * len(self.ids)
        self.inflight = [0] * len(self.ids)
        self.budget = state_budget
        self.schedules = schedules
        self.list_mode = list_mode
        self.cores = sorted({c for c in core_of if c is not None})
        self.busy = {t: False for t in self.cores}
        if schedules is not None:
            missing = [a for a, c in zip(self.ids, core_of) if c is None]
            if missing:
                raise InfeasibleMappingError(
                    f"actors {missing} have no core under the imposed schedules")
            self.orders = self._orders(schedules)
            self.cursor = [0] * len(self.cores)
        self.queues: dict[str, deque[int]] = {t: deque() for t in self.cores}
        self.queued = [False] * len(self.ids)
        if list_mode:
            # the actors whose readiness may have changed since the
            # last pass; every other one is queued, in flight or blocked
            self.wakes, self.consumer = g._wakes
            self.dirty = set(range(len(self.ids)))
        self.heap: list[tuple] = []
        self.seq = 0
        self.firing_log: list[tuple[str | None, str]] = []
        self.block_counts: dict[int, int] = defaultdict(int)
        self.fire_starts = 0

    # -- firing rules -------------------------------------------------

    def _can_fire(self, a: int) -> bool:
        tokens, space = self.tokens, self.space
        for ci in self.in_ch[a]:
            if not tokens[ci]:
                return False
        for ci in self.out_bounded[a]:
            if not space[ci]:
                return False
        return True

    def _start(self, a: int, now) -> None:
        for ci in self.in_ch[a]:
            self.tokens[ci] -= 1
        for ci in self.out_bounded[a]:
            self.space[ci] -= 1
        self.seq += 1
        heappush(self.heap, (now + self.exec[a], self.seq, self.END, a))
        self.inflight[a] += 1
        self.fire_starts += 1
        self.firing_log.append((self.core_of[a], self.ids[a]))
        if self.fire_starts > self.budget:
            raise BudgetExceededError(
                f"more than {self.budget} firings without a recurrent state")

    def _end(self, a: int, now) -> None:
        self.inflight[a] -= 1
        self.completions[a] += 1
        for ci in self.in_bounded[a]:
            self.space[ci] += 1
        for ci in self.out_ch[a]:
            lat = self.latency[ci]
            if lat == 0:
                self.tokens[ci] += 1
            else:
                self.seq += 1
                heappush(self.heap, (now + lat, self.seq, self.ARRIVE, ci))
        core = self.core_of[a]
        if core is not None:
            self.busy[core] = False
        if self.list_mode:
            self.dirty.update(self.wakes[a])

    def _orders(self, schedules) -> list[tuple[tuple[int, ...], int, int]]:
        # per core, its static order (transient, then cycle) as actor
        # indices and (end, restart): a cursor reaching end goes back to
        # restart, the cycle's start.  Without a cycle end is -1, and the
        # core fires nothing once its transient is done.  The order of a
        # core that hosts nothing is checked too: it may name no actor.
        orders = {}
        for core in sorted({*self.cores, *schedules}):
            sched = schedules.get(core)
            nt = 0 if sched is None else len(sched.transient)
            names = () if sched is None else (*sched.transient, *sched.cycle)
            order = []
            for aid in names:
                a = self.index.get(aid)
                if a is None or self.core_of[a] != core:
                    where = ("is no actor of the graph" if a is None else
                             f"runs on core {self.core_of[a]!r}")
                    raise InfeasibleMappingError(
                        f"the static order of core {core!r} names actor "
                        f"{aid!r}, which {where}")
                order.append(a)
            end = len(order) if len(order) > nt else -1
            orders[core] = (tuple(order), end, nt)
        return [orders[core] for core in self.cores]

    def _fire_phase(self, now) -> int:
        started = 0
        if self.schedules is not None:
            for c, core in enumerate(self.cores):
                if self.busy[core]:
                    continue
                order, end, restart = self.orders[c]
                pos = self.cursor[c]
                if pos < len(order) and self._can_fire(order[pos]):
                    self._start(order[pos], now)
                    self.busy[core] = True
                    self.cursor[c] = restart if pos + 1 == end else pos + 1
                    started += 1
        elif self.list_mode:
            # starting an actor takes tokens and space from its own
            # channels only, so it readies or blocks no other actor
            for a in sorted(self.dirty):
                if (not self.queued[a] and self.inflight[a] == 0
                        and self._can_fire(a)):
                    core = self.core_of[a]
                    if core is None:
                        raise InfeasibleMappingError(
                            f"actor {self.ids[a]!r} has no core binding")
                    self.queues[core].append(a)
                    self.queued[a] = True
            self.dirty.clear()
            for core in self.cores:
                if not self.busy[core] and self.queues[core]:
                    a = self.queues[core].popleft()
                    self.queued[a] = False
                    self._start(a, now)
                    self.busy[core] = True
                    started += 1
        else:
            for a in range(len(self.ids)):
                while self._can_fire(a):
                    self._start(a, now)
                    started += 1
        return started

    # -- state bookkeeping --------------------------------------------

    def _snapshot(self, now):
        # an idle actor's pending ends are the one shared empty tuple;
        # space keeps None for an unbounded channel, see _in_spikes
        pending_ends = [()] * len(self.ids)
        several = []
        arrivals = []
        for t, _, kind, payload in self.heap:
            if kind == self.END:
                if pending_ends[payload]:
                    several.append(payload)
                pending_ends[payload] += (t - now,)
            else:
                arrivals.append((t - now, payload))
        for a in several:
            pending_ends[a] = tuple(sorted(pending_ends[a]))
        key = [tuple(self.tokens), tuple(self.space), tuple(pending_ends),
               tuple(sorted(arrivals))]
        if self.schedules is not None:  # the cursors are kept wrapped
            key.append(tuple(self.cursor))
        if self.list_mode:
            key.append(tuple(tuple(self.queues[c]) for c in self.cores))
        return tuple(key)

    def _count_blocking(self) -> None:
        # the current state's blocked channels, added to block_counts
        tokens, space, counts = self.tokens, self.space, self.block_counts
        for in_ch, out_bounded in self.blockable:
            for ci in in_ch:
                if not tokens[ci]:
                    break
            else:
                for ci in out_bounded:
                    if not space[ci]:
                        counts[ci] += 1

    def _recurrence(self, key, now, log_len, done, first) -> ExecutionResult:
        # the result of a run whose state key, reached at time now with
        # log_len firings started and done completions, repeats first;
        # an iteration fires every actor once
        t0, log0, done0 = first
        it0 = min(done0)
        d_iter = min(done) - it0
        if d_iter <= 0:
            # the periodic part will repeat forever, so actors that
            # made no progress across the period never fire again
            stuck = {self.ids[a]: _blocked_on(self.g, a, *key[:2])
                     for a in range(len(self.ids)) if done[a] == done0[a]}
            raise DeadlockError(
                f"actors {list(stuck)} starve while the rest cycle",
                state={"tokens": key[0], "space": key[1], "starving": {
                    aid: str(wait or "stuck") for aid, wait in stuck.items()}})
        if self.list_mode:
            # the scheduled run's key: each core's cursor is its number
            # of starts before the first occurrence, its transient length
            starts: dict = defaultdict(int)
            for core, _ in self.firing_log[:log0]:
                starts[core] += 1
            key = (*key[:4], tuple(starts[core] for core in self.cores))
        return ExecutionResult(
            span=now - t0,
            transient_iterations=it0,
            steady_state=_in_spikes(self.g, key),
            firing_log=tuple(self.firing_log[:log_len]),
            log_cycle_start=log0,
            iterations_per_cycle=d_iter,
            block_counts=dict(self.block_counts))

    # -- main loop ----------------------------------------------------

    def run(self) -> ExecutionResult:
        now = 0
        seen = {}
        while True:
            while True:
                progressed = False
                while self.heap and self.heap[0][0] == now:
                    _, _, kind, payload = heappop(self.heap)
                    if kind == self.END:
                        self._end(payload, now)
                    else:
                        self.tokens[payload] += 1
                        if self.list_mode:
                            self.dirty.add(self.consumer[payload])
                    progressed = True
                if self._fire_phase(now):
                    progressed = True
                if not progressed:
                    break
            self._count_blocking()
            key = self._snapshot(now)
            record = (now, len(self.firing_log), tuple(self.completions))
            if key in seen:
                return self._recurrence(key, *record, seen[key])
            seen[key] = record
            if len(seen) > self.budget:
                raise BudgetExceededError(
                    f"no recurrent state within {self.budget} states")
            if not self.heap:
                waits = [_blocked_on(self.g, a, *key[:2])
                         for a in range(len(self.ids))]
                raise DeadlockError(
                    "execution stalled with no fireable actor",
                    state={"tokens": key[0], "space": key[1], "starving": {
                        w.actor: str(w) for w in waits if w}})
            now = self.heap[0][0]


def _state_hash(state: tuple) -> str:
    # the steady-state hash of a record: SHA-1 of the state's repr
    return hashlib.sha1(repr(state).encode()).hexdigest()[:12]


def _in_spikes(g: Sdfg, key: tuple) -> tuple:
    # a state key in spikes, as records count it, with -1 for the space of
    # an unbounded channel, which a bounded one never holds
    volume = [c.volume for c in g.channels]
    tokens, space, ends, arrivals, *rest = key
    return (tuple(t * v for t, v in zip(tokens, volume)),
            tuple(-1 if s is None else s * v for s, v in zip(space, volume)),
            ends, tuple((dt, ci, volume[ci]) for dt, ci in arrivals), *rest)


def resolve_platform(g: Sdfg, platform: HardwareGraph | None,
                     mapping: dict[str, str] | None,
                     exec_time_scale=1) -> tuple[list, list, list]:
    """Place the graph on a platform: ``(exec_times, core_of, latency)``.

    ``exec_times`` and ``core_of`` list each actor's execution time and
    host core in ``g._tables`` order; ``latency`` lists each channel's
    token latency in channel order.  Under a mapping each actor runs at
    its host core's execution time (scaled, e.g. by the time-wheel
    share) and a channel between distinct cores takes the routed link
    latency, 0 within one core.  Without a platform or a mapping the
    actors' own execution times apply, no actor has a core and no
    channel has latency.

    A mapping is placed by the position of each host core among the
    sorted core ids, which raises :class:`InfeasibleMappingError` naming
    an unmapped actor, an undeclared core or a missing route, the errors
    of every placement; the capacity checks are
    :func:`snnflow.mapping.validate_mapping`'s.
    """
    if platform is None or mapping is None:
        scale = exact_time(exec_time_scale)
        return ([exact_time(exact_time(a.exec_time) * scale)
                 for a in g.actors], [None] * len(g.actors),
                [0] * len(g.channels))
    picks = _host_positions(g, platform, mapping)
    times, latency = _placed(g, platform, picks, exec_time_scale)
    return times, [platform._cores[0][j] for j in picks], latency


def _host_positions(g: Sdfg, platform: HardwareGraph,
                    mapping: dict[str, str]) -> list[int]:
    # each actor's host core as its position among the sorted core ids;
    # raises for the first unmapped actor or undeclared core
    position = platform._tables[0]
    for a in g.actors:
        if a.id not in mapping:
            raise InfeasibleMappingError(f"actor {a.id!r} is unmapped")
        if mapping[a.id] not in position:
            raise InfeasibleMappingError(
                f"actor {a.id!r} mapped to undeclared core {mapping[a.id]!r}")
    return [position[mapping[a.id]] for a in g.actors]


def _placed(g: Sdfg, platform: HardwareGraph, picks, exec_time_scale
            ) -> tuple[list, list]:
    # resolve_platform's exec_times and latency with actor i on sorted
    # core picks[i]; raises for the first channel whose cores no route
    # joins
    src, dst = g._ends[:2]
    routes = platform._tables[1]
    latency = [routes[picks[s]][picks[d]] for s, d in zip(src, dst)]
    if None in latency:
        ci, ids = latency.index(None), platform._cores[0]
        raise InfeasibleMappingError(
            f"no route from core {ids[picks[src[ci]]]!r} to core "
            f"{ids[picks[dst[ci]]]!r} required by channel {ci}")
    times = platform._scaled_times(exec_time_scale)
    return [times[j] for j in picks], latency


def execute(g: Sdfg, *, schedules=None, platform: HardwareGraph | None = None,
            mapping: dict[str, str] | None = None, exec_time_scale=1,
            state_budget: int = DEFAULT_STATE_BUDGET) -> ExecutionResult:
    """One self-timed run of the graph, the entry point of throughput
    analysis.

    The placement (host cores, execution times, channel latencies, and
    the unmapped-actor, undeclared-core and missing-route errors) comes
    from :func:`resolve_platform`; platform capacities are not checked
    here, :func:`snnflow.mapping.validate_mapping` does that.  Without
    ``schedules`` the run is free (any ready actor fires); with them,
    each core follows its static order.  The list-scheduling run that
    builds those orders is not entered here but through
    :func:`snnflow.mapping._list_run`.
    """
    placement = resolve_platform(g, platform, mapping, exec_time_scale)
    sim = _Simulation(g, *placement, schedules=schedules,
                      state_budget=state_budget)
    return sim.run()


def self_timed_throughput(g: Sdfg, schedules=None,
                          platform: HardwareGraph | None = None,
                          mapping: dict[str, str] | None = None,
                          exec_time_scale=1,
                          state_budget: int = DEFAULT_STATE_BUDGET) -> ThroughputResult:
    """Throughput of self-timed execution under finite buffers.

    With ``schedules`` imposed, each core fires only the actor at its
    static-order cursor.  The throughput counts iterations, each of
    them one firing of every actor.  Raises :class:`DeadlockError` on a
    stall, :class:`GraphValidationError` for an invalid graph and
    :class:`BudgetExceededError` when no recurrent state appears within
    the state budget.
    """
    return execute(g, schedules=schedules, platform=platform, mapping=mapping,
                   exec_time_scale=exec_time_scale,
                   state_budget=state_budget).to_throughput()


def sdfg_to_dict(g: Sdfg) -> dict:
    doc: dict = {"format": SDFG_FORMAT}
    doc["actors"] = [
        {"id": a.id, "exec_time": a.exec_time}
        | ({"weight": a.weight} if a.weight != 1 else {})
        for a in g.actors]
    doc["channels"] = [
        {"src": c.src, "prod": c.volume, "dst": c.dst, "cons": c.volume,
         "tokens": c.tokens * c.volume,
         "capacity": None if c.capacity is None else c.capacity * c.volume}
        for c in g.channels]
    return doc


def sdfg_from_dict(doc: dict, ctx: str = "<sdfg>") -> Sdfg:
    actors = tuple(
        Actor(_field(e, "id", where, str),
              _field(e, "exec_time", where, _number, 1),
              _field(e, "weight", where, _integer, 1))
        for where, e in _entries(doc, "actors", ctx))
    channels = []
    for i, (where, e) in enumerate(_entries(doc, "channels", ctx)):
        # the file counts spikes: prod == cons of them make a token, and
        # spikes that no firing moves are left out
        src, prod = _field(e, "src", where, str), _field(e, "prod", where, _integer)
        dst, cons = _field(e, "dst", where, str), _field(e, "cons", where, _integer)
        tokens = _field(e, "tokens", where, _integer, 0)
        capacity = _field(e, "capacity", where, _integer, None)
        if prod < 1 or prod != cons:
            raise GraphValidationError(
                f"channel {i} ({src!r} -> {dst!r}): produces {prod} but "
                f"consumes {cons} spikes per firing, not one count >= 1")
        if capacity is not None:
            capacity = (capacity - tokens % prod) // prod
        channels.append(Channel(src, dst, tokens // prod, capacity, prod))
    g = Sdfg(actors, tuple(channels))
    g.validate()
    return g


def save_sdfg(g: Sdfg, path: str) -> None:
    _dump_yaml(sdfg_to_dict(g), path)


def load_sdfg(path: str) -> Sdfg:
    return sdfg_from_dict(_load_yaml(path, SDFG_FORMAT), ctx=path)
