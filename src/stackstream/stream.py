"""Pull-driven slice streams and the higher-order stream functionals.

Streams are demand-driven: a consumer pull propagates to the source, so a
single sweep reads each input slice exactly once and the set of in-flight
slices stays provably bounded by the declared windows. Every element
delivered by pull() carries one reference owned by the consumer; whoever
stops needing a slice must release it, and buffers vanish the moment the
last reference drops.

This module is the only place that buffers slices between pulls: the
windows of `windowed`, the pending batch of `flatten` and the per-consumer
queues of `FanOut`. Each of them releases what it holds when its stream
is closed, so the runtime builds every stage from these functionals and
keeps no buffer of its own. A window buffer also drops each slice before
it yields the window that is the last to read it, so a stage's input is
gone by the time its outputs flow downstream.
"""

from __future__ import annotations

from collections import deque
from itertools import count
from typing import Callable, Iterator, Optional

from .core import (DepthMismatchError, EngineError, PlanningError, Slice,
                   SliceMeta, StageError, release, retain)

#: exception types that pass through map/fold unwrapped
_PASSTHROUGH = (EngineError, GeneratorExit)


def each_slice(element):
    """Yield the Slice objects inside an element (slice, window or pair).

    Anything that is not a slice or a container of slices is opaque to the
    refcount layer: map stages may emit accumulators (histograms, scalars)
    and only the slices around them are lifecycle-managed.
    """
    if isinstance(element, Slice):
        yield element
    elif isinstance(element, (list, tuple)):
        for e in element:
            yield from each_slice(e)


def retain_element(element):
    for s in each_slice(element):
        retain(s)


def release_element(element, keep=frozenset()):
    for s in each_slice(element):
        if id(s) not in keep:
            release(s)


class Stream:
    """A lazily produced sequence of elements with a pull() interface.

    pull() returns the next element or None at end-of-stream and stays at
    None afterwards. close() shuts the producing generator down (running
    its cleanup, which releases buffered slices) and cascades upstream.
    """

    def __init__(self, gen: Iterator, meta: Optional[SliceMeta] = None,
                 depth: Optional[int] = None, upstream=(), name: str = ""):
        self._gen = gen
        self.meta = meta
        self.depth = depth
        self.pulls = 0
        self.name = name
        self._done = False
        self._upstream = tuple(upstream)

    def pull(self):
        if self._done:
            return None
        try:
            element = next(self._gen)
        except StopIteration:
            self._done = True
            return None
        self.pulls += 1
        return element

    def close(self):
        self._done = True
        closer = getattr(self._gen, "close", None)
        if closer is not None:
            closer()
        for up in self._upstream:
            up.close()


# ---------------------------------------------------------------------------
# windowed
# ---------------------------------------------------------------------------

def _clamp_padded(src: Stream, p: int) -> Stream:
    """src with p clamp-to-edge replicas of its first and last slices.

    Replicas are retained references to the boundary slices, never copies.
    """
    def gen():
        cur = None
        try:
            while (nxt := src.pull()) is not None:
                copies = 1 if cur is not None else p + 1
                if cur is not None:
                    release(cur)
                cur = nxt
                for _ in range(copies):
                    retain(cur)
                    yield cur
            for _ in range(p if cur is not None else 0):
                retain(cur)
                yield cur
        finally:
            if cur is not None:
                release(cur)

    return Stream(gen(), meta=src.meta, depth=src.depth, upstream=(src,),
                  name=f"clamp({p})")


def _window_positions(pull_fn, w: int, s: int, tail: str = "none",
                      depth: Optional[int] = None):
    """Generate (start_index, [slices]) windows over a pull function.

    tail="none" emits only full windows at start indices 0, s, 2s, ...
    tail="full" appends a final full window at depth-w when the stride
    leaves a remainder, so kernel stages can cover every valid output.
    tail="partial" appends the leftover < w slices as a short window, so
    batch stages touch every slice.

    Before it yields a window, which holds references of its own, the
    buffer drops every slice that no later window reads: with the depth
    known, below the next start while a regular or partial window follows,
    below depth - w while only the shifted final one is owed, and all of
    them after the last window; without it, tail="full" keeps the last w.
    A source that yields another number of slices than its declared depth
    raises DepthMismatchError, so no window is built from dropped slices.
    """
    buf = deque()  # holds one reference per entry; the last <= w slices seen
    pos = 0        # index one past the newest buffered slice

    def drop_below(t):
        while buf and pos - len(buf) < t:
            release(buf.popleft())

    def window_at(t):
        drop_below(t)
        window = list(buf)[:w]
        for sl in window:
            retain(sl)
        return t, window

    try:
        start = 0    # start index of the next regular window
        exhausted = False
        last_emitted_start = None
        while True:
            while pos < start + w and not exhausted:
                sl = pull_fn()
                if sl is None:
                    exhausted = True
                    break
                buf.append(sl)
                pos += 1
                if len(buf) > w:
                    release(buf.popleft())
            if depth is not None and (pos > depth or exhausted and pos < depth):
                raise DepthMismatchError(f"windowed: a source of declared depth {depth} "
                                         f"yielded {'more' if pos > depth else pos} slices")
            if pos >= start + w:
                item = window_at(start)
                last_emitted_start = start
                start += s
                if depth is not None and start + w > depth and tail != "partial":
                    # no regular window follows: keep what a shifted one reads
                    drop_below(depth - w if tail == "full" and depth - w > item[0] else pos)
                elif depth is not None or tail != "full":
                    drop_below(start)
                yield item
                continue
            # source exhausted before the next regular window filled
            if tail == "full" and pos >= w and (last_emitted_start is None
                                                or pos - w > last_emitted_start):
                item = window_at(pos - w)
            elif tail == "partial" and pos > start:
                item = window_at(start)
            else:
                return
            drop_below(pos)  # the last window: no later one reads anything
            yield item
            return
    finally:
        while buf:
            release(buf.popleft())


def windowed(w: int, s: int, p: int, src: Stream) -> Stream:
    """Sliding windows of w slices advancing by s, with clamp-to-edge padding p.

    Consecutive windows share w - s slices by reference, never by copy.
    For padding p the first and last slices are replicated; out-of-range
    window indices therefore clamp to the volume boundary.
    """
    if w < 1 or s < 1 or p < 0:
        raise PlanningError("windowed: need w >= 1, s >= 1, p >= 0")
    if p > 0 and p >= w:
        raise PlanningError("windowed: padding must satisfy p < w")
    up = _clamp_padded(src, p) if p > 0 else src
    gen = (window for _, window in _window_positions(up.pull, w, s, tail="none"))
    depth = None
    if src.depth is not None:
        padded = src.depth + 2 * p
        depth = (padded - w) // s + 1 if padded >= w else 0
    return Stream(gen, meta=src.meta, depth=depth, upstream=(up,),
                  name=f"windowed({w},{s},{p})")


def windowed_positions(w: int, s: int, src: Stream, tail: str,
                       stop: Optional[int] = None) -> Stream:
    """Internal covering variant used by operators: yields (start, window).

    With tail="full" the final window is shifted back to depth-w so every
    valid kernel position is covered; with tail="partial" leftover slices
    come out as a short window. Source slices are still pulled exactly once,
    and with stop set, no slice at index stop or beyond is pulled at all.
    """
    if w < 1 or s < 1:
        raise PlanningError("windowed: need w >= 1, s >= 1")
    taken = count()
    gen = _window_positions(src.pull if stop is None else
                            (lambda: src.pull() if next(taken) < stop else None),
                            w, s, tail=tail, depth=src.depth if stop is None else None)
    return Stream(gen, meta=src.meta, depth=None, upstream=(src,),
                  name=f"windowed_cover({w},{s})")


# ---------------------------------------------------------------------------
# flatten / map / fold / zip / initialize
# ---------------------------------------------------------------------------

def flatten(src: Stream, name: str = "flatten", meta: Optional[SliceMeta] = None,
            depth: Optional[int] = None) -> Stream:
    """Concatenate a stream of slice stacks into a slice stream.

    References transfer to the consumer one slice at a time; nothing is
    retained twice. Slices of a stack not yet handed out when the stream
    is closed are released.
    """
    def gen():
        pending = deque()
        try:
            while (e := src.pull()) is not None:
                pending.extend([e] if isinstance(e, Slice) else e)
                while pending:
                    yield pending.popleft()
        finally:
            while pending:
                release(pending.popleft())

    return Stream(gen(), meta=meta if meta is not None else src.meta,
                  depth=depth, upstream=(src,), name=name)


def build_all(make: Callable, items) -> list:
    """[make(x) for x in items], where each make returns new slices.

    If one call fails, what the earlier calls made is released before the
    error propagates, so a step that builds several outputs never leaks.
    """
    out = []
    try:
        for x in items:
            out.append(make(x))
    except BaseException:
        release_element(out)
        raise
    return out


def _apply(f: Callable, args, element, name: str, index: int):
    """f(*args); on failure the element is released, and an error that is
    not the engine's own is raised as a StageError at (name, index)."""
    try:
        return f(*args)
    except _PASSTHROUGH:
        release_element(element)
        raise
    except Exception as exc:
        release_element(element)
        raise StageError(name, index, exc) from exc


def map(f: Callable, src: Stream, name: str = "map",
        meta: Optional[SliceMeta] = None) -> Stream:
    """Apply f to each element; the input is released after f returns.

    Slices that f passes through to its output keep their reference; f must
    retain anything else it stores. A failure in f aborts the sweep with
    the stage name and element index attached.
    """
    def gen():
        index = 0
        while (e := src.pull()) is not None:
            out = _apply(f, (e,), e, name, index)
            release_element(e, keep=frozenset(id(s) for s in each_slice(out)))
            index += 1
            yield out

    return Stream(gen(), meta=meta if meta is not None else src.meta,
                  depth=src.depth, upstream=(src,), name=name)


def fold(a0, step: Callable, src: Stream, name: str = "fold"):
    """Reduce the stream into an accumulator; consumes the stream fully.

    Elements are released after each step; step must retain any slice it
    keeps inside the accumulator.
    """
    acc = a0
    index = 0
    try:
        while (e := src.pull()) is not None:
            acc = _apply(step, (acc, e), e, name, index)
            release_element(e)
            index += 1
        return acc
    finally:
        src.close()


def zip(a: Stream, b: Stream) -> Stream:
    """Pair up two streams element by element.

    Ends when both inputs end together; unequal depths are an error, not a
    truncation, because silent truncation hides upstream bugs in
    slice-aligned joins.
    """
    if a.meta is not None and b.meta is not None and a.meta != b.meta:
        raise PlanningError(f"zip: slice meta mismatch ({a.meta} vs {b.meta})")

    def gen():
        while True:
            ea = a.pull()
            try:
                eb = b.pull()
            except BaseException:  # a cancelled or failed b: ea is ours to drop
                release_element(ea)
                raise
            if ea is None and eb is None:
                return
            if ea is None or eb is None:
                release_element(ea if eb is None else eb)
                raise DepthMismatchError(
                    "zip: inputs ended at different depths")
            yield (ea, eb)

    depth = a.depth if a.depth is not None else b.depth
    return Stream(gen(), meta=a.meta or b.meta, depth=depth,
                  upstream=(a, b), name="zip")


def initialize(d: int, g: Callable[[int], Slice], meta: SliceMeta) -> Stream:
    """Generate a stack of depth d from an index function; acts as a source."""
    if d < 0:
        raise PlanningError("initialize: depth must be >= 0")

    def gen():
        for i in range(d):
            yield g(i)

    return Stream(gen(), meta=meta, depth=d, name="initialize")


# ---------------------------------------------------------------------------
# fan-out: tee and shared windows
# ---------------------------------------------------------------------------

def queue_by_reference(element, queues):
    """A tee: every consumer queues the element itself, one reference each."""
    for i, q in enumerate(queues.values()):
        if i:
            retain_element(element)
        q.append(element)


def queue_parts(parts, queues):
    """The element holds one list of slices per consumer, in consumer order."""
    for i, q in enumerate(queues.values()):
        q.extend(parts[i])


class FanOut:
    """One source stream split into per-consumer streams through FIFOs.

    When a consumer finds its queue empty, one source element is pulled and
    advance(element, queues) fills the queues with entries that own one
    reference each. A consumer that runs ahead leaves entries queued for
    the others; closing releases whatever is still queued. Every port is
    pulled from the pipeline's one thread.
    """

    def __init__(self, src: Stream, consumers, advance=queue_by_reference):
        self.src = src
        self.queues = {c: deque() for c in consumers}
        self._advance = advance
        self._done = False

    def _pull_for(self, consumer):
        q = self.queues[consumer]
        while not q and not self._done:
            e = self.src.pull()
            if e is None:
                self._done = True
            else:
                self._advance(e, self.queues)
        return q.popleft() if q else None

    def port(self, consumer, name: str, meta: Optional[SliceMeta] = None,
             depth: Optional[int] = None) -> Stream:
        """The stream of one consumer's elements; closing it closes the fan-out."""
        def gen():
            while (e := self._pull_for(consumer)) is not None:
                yield e

        return Stream(gen(), meta=meta if meta is not None else self.src.meta,
                      depth=depth if depth is not None else self.src.depth,
                      upstream=(self,), name=name)

    def close(self):
        self._done = True
        for q in self.queues.values():
            while q:
                release_element(q.popleft())
        self.src.close()
