"""Pull-driven slice streams and the higher-order stream functionals.

Streams are demand-driven: a consumer pull propagates to the source, so a
single sweep reads each input slice exactly once and the set of in-flight
slices stays provably bounded by the declared windows. Every element
delivered by pull() carries one reference owned by the consumer; whoever
stops needing a slice must release it, and buffers vanish the moment the
last reference drops.
"""

from __future__ import annotations

from collections import deque
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

    def __iter__(self):
        while (e := self.pull()) is not None:
            yield e


class SliceStream(Stream):
    """Stream of single slices."""


class WindowStream(Stream):
    """Stream of slice windows (ordered slice lists)."""


# ---------------------------------------------------------------------------
# windowed
# ---------------------------------------------------------------------------

def _clamp_padded(src: Stream, p: int):
    """Pull function over src with p clamp-to-edge replicas on each end.

    Replicas are retained references to the boundary slices, never copies.
    """
    state = {"cur": None, "left": 0, "right": 0, "started": False, "ended": False}

    def pull():
        if not state["started"]:
            state["started"] = True
            first = src.pull()
            if first is None:
                state["ended"] = True
                return None
            state["cur"] = first
            state["left"] = p  # p more emissions of the first slice follow
            retain(first)
            return first
        if state["left"] > 0:
            state["left"] -= 1
            retain(state["cur"])
            return state["cur"]
        if not state["ended"]:
            nxt = src.pull()
            if nxt is not None:
                release(state["cur"])
                state["cur"] = nxt
                retain(nxt)
                return nxt
            state["ended"] = True
            state["right"] = p
        if state["right"] > 0:
            state["right"] -= 1
            retain(state["cur"])
            return state["cur"]
        if state["cur"] is not None:
            release(state["cur"])
            state["cur"] = None
        return None

    def drop():
        if state["cur"] is not None:
            release(state["cur"])
            state["cur"] = None

    return pull, drop


def _window_positions(pull_fn, w: int, s: int, tail: str = "none",
                      cleanup: Callable = lambda: None):
    """Generate (start_index, [slices]) windows over a pull function.

    tail="none" emits only full windows at start indices 0, s, 2s, ...
    tail="full" appends a final full window at depth-w when the stride
    leaves a remainder, so kernel stages can cover every valid output.
    tail="partial" appends the leftover < w slices as a short window, so
    batch stages touch every slice.
    """
    buf = deque()  # holds one reference per entry; the last <= w slices seen
    try:
        pos = 0      # index one past the newest buffered slice
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
            if pos >= start + w:
                # buf spans [pos-len(buf), pos); trim anything below start
                while pos - len(buf) < start:
                    release(buf.popleft())
                window = list(buf)[:w] if len(buf) > w else list(buf)
                for sl in window:
                    retain(sl)
                yield start, window
                last_emitted_start = start
                start += s
                if tail != "full":
                    # consumed entries can go now; a trailing full window is
                    # never requested in these modes
                    while buf and pos - len(buf) < start:
                        release(buf.popleft())
                continue
            # source exhausted before the next regular window filled
            if tail == "full" and pos >= w:
                t = pos - w
                if last_emitted_start is None or t > last_emitted_start:
                    while pos - len(buf) < t:
                        release(buf.popleft())
                    window = list(buf)
                    for sl in window:
                        retain(sl)
                    yield t, window
            elif tail == "partial" and pos > start:
                while pos - len(buf) < start:
                    release(buf.popleft())
                window = list(buf)
                for sl in window:
                    retain(sl)
                yield start, window
            return
    finally:
        while buf:
            release(buf.popleft())
        cleanup()


def windowed(w: int, s: int, p: int, src: SliceStream) -> WindowStream:
    """Sliding windows of w slices advancing by s, with clamp-to-edge padding p.

    Consecutive windows share w - s slices by reference, never by copy.
    For padding p the first and last slices are replicated; out-of-range
    window indices therefore clamp to the volume boundary.
    """
    if w < 1 or s < 1 or p < 0:
        raise PlanningError("windowed: need w >= 1, s >= 1, p >= 0")
    if p > 0 and p >= w:
        raise PlanningError("windowed: padding must satisfy p < w")
    if p > 0:
        pull_fn, drop = _clamp_padded(src, p)
    else:
        pull_fn, drop = src.pull, (lambda: None)

    def gen():
        for _, window in _window_positions(pull_fn, w, s, tail="none", cleanup=drop):
            yield window

    depth = None
    if src.depth is not None:
        padded = src.depth + 2 * p
        depth = (padded - w) // s + 1 if padded >= w else 0
    return WindowStream(gen(), meta=src.meta, depth=depth, upstream=(src,),
                        name=f"windowed({w},{s},{p})")


def windowed_positions(w: int, s: int, src: SliceStream, tail: str) -> Stream:
    """Internal covering variant used by operators: yields (start, window).

    With tail="full" the final window is shifted back to depth-w so every
    valid kernel position is covered; with tail="partial" leftover slices
    come out as a short window. Source slices are still pulled exactly once.
    """
    if w < 1 or s < 1:
        raise PlanningError("windowed: need w >= 1, s >= 1")
    gen = _window_positions(src.pull, w, s, tail=tail)
    return Stream(gen, meta=src.meta, depth=None, upstream=(src,),
                  name=f"windowed_cover({w},{s})")


# ---------------------------------------------------------------------------
# flatten / map / fold / zip / initialize
# ---------------------------------------------------------------------------

def flatten(src: Stream) -> SliceStream:
    """Concatenate a stream of slice stacks into a slice stream.

    References transfer to the consumer one slice at a time; nothing is
    retained twice.
    """
    def gen():
        pending = deque()
        try:
            while True:
                e = src.pull()
                if e is None:
                    return
                if isinstance(e, Slice):
                    yield e
                    continue
                pending.extend(e)
                while pending:
                    yield pending.popleft()
        finally:
            while pending:
                release(pending.popleft())

    return SliceStream(gen(), meta=src.meta, depth=None, upstream=(src,),
                       name="flatten")


def map(f: Callable, src: Stream, name: str = "map",
        meta: Optional[SliceMeta] = None) -> Stream:
    """Apply f to each element; the input is released after f returns.

    Slices that f passes through to its output keep their reference; f must
    retain anything else it stores. A failure in f aborts the sweep with
    the stage name and element index attached.
    """
    def gen():
        index = 0
        while True:
            e = src.pull()
            if e is None:
                return
            try:
                out = f(e)
            except _PASSTHROUGH:
                release_element(e)
                raise
            except Exception as exc:
                release_element(e)
                raise StageError(name, index, exc) from exc
            keep = frozenset(id(s) for s in each_slice(out))
            release_element(e, keep=keep)
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
        while True:
            e = src.pull()
            if e is None:
                return acc
            try:
                acc = step(acc, e)
            except _PASSTHROUGH:
                release_element(e)
                raise
            except Exception as exc:
                release_element(e)
                raise StageError(name, index, exc) from exc
            release_element(e)
            index += 1
    finally:
        src.close()


def zip(a: SliceStream, b: SliceStream) -> Stream:
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
            eb = b.pull()
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


def initialize(d: int, g: Callable[[int], Slice], meta: SliceMeta) -> SliceStream:
    """Generate a stack of depth d from an index function; acts as a source."""
    if d < 0:
        raise PlanningError("initialize: depth must be >= 0")

    def gen():
        for i in range(d):
            yield g(i)

    return SliceStream(gen(), meta=meta, depth=d, name="initialize")
