"""Per-layer spans, recorded from outside the program.

The traced window wraps each layer's public entry point at class level
before the serving target is built, so objects the program creates
later -- per-stream validators, per-deployment engines -- are covered
too.  Every call records one :class:`Span` (name, start, end, parent,
request); spans stay in memory and are written out when the run ends.
Untraced windows install nothing and talk to :data:`NO_TRACE`.

A span's request ties it to the frame, and so to the fix, it serves.
Client-side spans take the request the client announced for the frame;
spans inside the program resolve it from the reader name or deployment
id they were called with, or inherit it from the enclosing span on
their thread.  Two waits are spans as well: ``fleet.queue`` runs from
entering ``FleetSupervisor.locate_2d`` to entering the fix, and
``fleet.mailbox`` from an in-process offer returning to its batch's
ingest starting.  Sharded workers are spawned and do not inherit the
wrappers, so there only the parent-side spans exist.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
import weakref
from collections import Counter, defaultdict, deque
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

#: A request: (deployment id, frame index).
Request = Tuple[str, int]


class Span:
    """One timed call into a layer, or one constructed wait."""

    __slots__ = ("id", "name", "parent", "request", "start", "end")

    def __init__(self, span_id: int, name: str, parent: Optional["Span"]) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent.id if parent is not None else None
        self.request = parent.request if parent is not None else None
        self.start = 0.0
        self.end = 0.0


class NoTrace:
    """The client hooks of an untraced window: each one does nothing."""

    def bind(self, deployment_id: str, reader_name: str, parser) -> None:
        """A session starts with this reader name and wire parser."""

    def begin_frame(self, deployment_id: str, frame: int) -> None:
        """The client starts feeding ``frame``; what follows serves it."""

    def end_frame(
        self, deployment_id: str, frame: int, start: float, end: float
    ) -> None:
        """The request for ``frame`` completed."""

    def finish(self) -> None:
        """The timed window is over."""


NO_TRACE = NoTrace()


class SpanRecorder(NoTrace):
    """Spans and request windows of one traced window."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.requests: Dict[Request, Tuple[float, float]] = {}
        #: Peak reports waiting in one actor mailbox right after an offer.
        self.pending_max = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._frames: Dict[str, Request] = {}
        self._readers: Dict[str, str] = {}
        self._parsers: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._queued: Dict[str, Tuple[float, Optional[Request]]] = {}
        self._mailed: Dict[str, deque] = defaultdict(deque)
        self._patches: List[tuple] = []

    # -- client hooks -----------------------------------------------------
    def bind(self, deployment_id, reader_name, parser):
        self._readers[reader_name] = deployment_id
        self._parsers[parser] = deployment_id

    def begin_frame(self, deployment_id, frame):
        self._frames[deployment_id] = (deployment_id, frame)

    def end_frame(self, deployment_id, frame, start, end):
        self.requests[(deployment_id, frame)] = (start, end)

    def finish(self):
        """Stop recording: put every wrapped attribute back."""
        for cls, attr, original in reversed(self._patches):
            if original is None:
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)
        self._patches.clear()

    # -- request resolution ------------------------------------------------
    def of_deployment(self, deployment_id: str) -> Optional[Request]:
        return self._frames.get(deployment_id)

    def of_reader(self, reader_name: str) -> Optional[Request]:
        return self._frames.get(self._readers.get(reader_name))

    def of_parser(self, parser) -> Optional[Request]:
        return self._frames.get(self._parsers.get(parser))

    # -- wrapping ------------------------------------------------------------
    def wrap(self, cls, attr, name, request=None, before=None, after=None):
        """Record a ``name`` span around every call of ``cls.attr``.

        ``request`` maps the call's positional arguments to its request
        (``None`` inherits the enclosing span's); ``before`` runs just
        before the span opens, ``after`` (given the result first) just
        after it closes.
        """
        original = cls.__dict__.get(attr)
        function = getattr(cls, attr)
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            span = Span(next(recorder._ids), name, stack[-1] if stack else None)
            if request is not None:
                span.request = request(*args) or span.request
            if before is not None:
                before(*args)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                recorder.spans.append(span)
            if after is not None:
                after(result, *args)
            return result

        self._patch(cls, attr, original, traced)

    def wrap_queue_entry(self, cls, attr):
        """Open a ``fleet.queue`` wait whenever ``cls.attr`` is awaited."""
        original = cls.__dict__.get(attr)
        function = getattr(cls, attr)
        recorder = self

        @functools.wraps(function)
        async def traced(owner, deployment_id, *args, **kwargs):
            recorder._queued[deployment_id] = (
                time.perf_counter(),
                recorder.of_deployment(deployment_id),
            )
            return await function(owner, deployment_id, *args, **kwargs)

        self._patch(cls, attr, original, traced)

    def _patch(self, cls, attr, original, replacement) -> None:
        setattr(cls, attr, replacement)
        self._patches.append((cls, attr, original))

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wait(self, name: str, opened: Tuple[float, Optional[Request]]) -> None:
        span = Span(next(self._ids), name, None)
        span.start, span.request = opened
        span.end = time.perf_counter()
        self.spans.append(span)

    # -- hooks used by install() -----------------------------------------------
    def offered(self, _kept, supervisor, deployment_id, *_rest) -> None:
        """An in-process offer returned: its batch now waits in the mailbox."""
        self._mailed[deployment_id].append(
            (time.perf_counter(), self.of_deployment(deployment_id))
        )
        actor = supervisor.actor(deployment_id)
        if actor is not None:
            self.pending_max = max(
                self.pending_max, actor.mailbox.pending_reports
            )

    def ingesting(self, _server, reader_name, *_rest) -> None:
        """A batch's ingest starts: its mailbox wait is over."""
        waiting = self._mailed.get(self._readers.get(reader_name))
        if waiting:
            self._wait("fleet.mailbox", waiting.popleft())

    def fixing(self, _server, reader_name, *_rest) -> None:
        """A fix starts: the wait since locate_2d was entered is over."""
        opened = self._queued.pop(self._readers.get(reader_name), None)
        if opened is not None:
            self._wait("fleet.queue", opened)


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer's public entry point; call before building a target."""
    from repro.core.pipeline import TagspinSystem
    from repro.fleet.checkpoint import DeploymentCheckpoint
    from repro.fleet.sharding import ShardedFleet
    from repro.fleet.supervisor import FleetSupervisor
    from repro.fleet.worker import DeploymentSpec
    from repro.hardware.llrp_stream import StreamingLLRPParser
    from repro.perf.engine import create_engine
    from repro.robustness.validation import ReportValidator
    from repro.server.health import DeploymentMonitor
    from repro.server.resilience import ResilientLocalizationServer
    from repro.server.service import LocalizationServer

    # The class whose fused_azimuth_spectra deployments will run.
    with create_engine(DeploymentSpec.engine) as probe:
        engine_class = type(probe)
    r = recorder

    def by_deployment(_owner, deployment_id, *_rest):
        return r.of_deployment(deployment_id)

    def by_reader(_owner, reader_name, *_rest):
        return r.of_reader(reader_name)

    r.wrap(
        StreamingLLRPParser, "feed_columnar", "hardware.decode",
        request=lambda parser, *_rest: r.of_parser(parser),
    )
    r.wrap(
        FleetSupervisor, "offer_columnar", "fleet.offer",
        request=by_deployment, after=r.offered,
    )
    r.wrap(ShardedFleet, "offer_columnar", "fleet.offer", request=by_deployment)
    r.wrap(ShardedFleet, "locate_2d_sync", "fleet.rpc", request=by_deployment)
    r.wrap_queue_entry(FleetSupervisor, "locate_2d")
    r.wrap(
        ResilientLocalizationServer, "ingest_columnar", "server.ingest",
        request=by_reader, before=r.ingesting,
    )
    r.wrap(ReportValidator, "process_columnar", "robustness.validate")
    r.wrap(LocalizationServer, "ingest", "server.buffer", request=by_reader)
    r.wrap(
        ResilientLocalizationServer, "locate_antenna_2d_diagnosed",
        "server.fix", request=by_reader, before=r.fixing,
    )
    r.wrap(DeploymentMonitor, "check_all", "server.monitor")
    r.wrap(TagspinSystem, "locate_2d_diagnosed", "core.locate")
    r.wrap(TagspinSystem, "extract_series", "core.extract")
    r.wrap(engine_class, "fused_azimuth_spectra", "perf.spectrum")
    r.wrap(
        DeploymentCheckpoint, "capture", "fleet.checkpoint",
        request=lambda deployment_id, *_rest: r.of_deployment(deployment_id),
    )
    r.wrap(
        DeploymentCheckpoint, "to_json", "fleet.checkpoint",
        request=lambda checkpoint: r.of_deployment(checkpoint.deployment_id),
    )


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by the union of ``(start, end)`` intervals."""
    total = 0.0
    begin = reach = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if reach is None or start > reach:
            if reach is not None:
                total += reach - begin
            begin, reach = start, end
        elif end > reach:
            reach = end
    if reach is not None:
        total += reach - begin
    return total


def layer_times(spans: List[Span]):
    """Per span name: inclusive seconds, self seconds and calls.

    A span's self time is its duration minus the part of it that its
    child spans cover.
    """
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    inclusive: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for span in spans:
        duration = span.end - span.start
        nested = _union_length(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.id, ())
        )
        inclusive[span.name] += duration
        own[span.name] += duration - nested
        calls[span.name] += 1
    return inclusive, own, calls


def _by_request(spans: Iterable[Span]) -> Dict[Request, List[Span]]:
    grouped: Dict[Request, List[Span]] = defaultdict(list)
    for span in spans:
        if span.request is not None:
            grouped[span.request].append(span)
    return grouped


def _covered(spans: Iterable[Span], start: float, end: float) -> float:
    return _union_length((max(s.start, start), min(s.end, end)) for s in spans)


def request_coverage(recorder: SpanRecorder, finding_share: float):
    """Share of request latency the named layers account for.

    Returns the attributed share summed over all requests, and -- worst
    first -- ``(unattributed share, request, latency)`` of each request
    whose unattributed share exceeds ``finding_share``.
    """
    grouped = _by_request(recorder.spans)
    attributed = latency = 0.0
    findings = []
    for request, (start, end) in recorder.requests.items():
        covered = _covered(grouped.get(request, ()), start, end)
        attributed += covered
        latency += end - start
        missing = 1.0 - covered / (end - start)
        if missing > finding_share:
            findings.append((missing, request, end - start))
    findings.sort(reverse=True)
    return (attributed / latency if latency else 0.0), findings


def wall_coverage(recorder: SpanRecorder, start: float, end: float) -> float:
    """Share of the window ``[start, end]`` covered by any named span."""
    return _covered(recorder.spans, start, end) / (end - start)


def tail_share(recorder: SpanRecorder, name: str, percentile: float = 95.0):
    """Share of the latency of requests at or beyond ``percentile`` spent
    in ``name`` spans, and how many requests that tail holds."""
    if not recorder.requests:
        return 0.0, 0
    latency = {r: end - start for r, (start, end) in recorder.requests.items()}
    threshold = float(np.percentile(list(latency.values()), percentile))
    tail = [r for r, seconds in latency.items() if seconds >= threshold]
    grouped = _by_request(s for s in recorder.spans if s.name == name)
    inside = sum(
        _covered(grouped.get(r, ()), *recorder.requests[r]) for r in tail
    )
    return inside / sum(latency[r] for r in tail), len(tail)


def dump(recorder: SpanRecorder, path: Path) -> None:
    """Write every span and request window as JSON (times in seconds)."""

    def label(request: Optional[Request]) -> Optional[str]:
        return None if request is None else f"{request[0]}#{request[1]}"

    path.write_text(json.dumps({
        "requests": [
            [label(request), start, end]
            for request, (start, end) in recorder.requests.items()
        ],
        "spans": [
            [s.id, s.name, s.parent, label(s.request), s.start, s.end]
            for s in recorder.spans
        ],
    }))
