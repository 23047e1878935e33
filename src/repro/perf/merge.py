"""Worker-side observability capture and parent-side merge.

A parallel trial cannot write into the parent's
:class:`~repro.obs.MetricsRegistry` / :class:`~repro.obs.SpanTracer` /
:class:`~repro.obs.EventTrace` — it runs in another process.  Instead,
each trial builds *local* instances (:func:`local_obs`), instruments
against them exactly as the serial path would, and ships them back as
a :class:`TrialObs` payload (:func:`capture_obs`).  The parent folds
payloads in trial order (:func:`merge_obs`):

* metrics merge via :meth:`MetricsRegistry.merge_from` (counters and
  histograms accumulate, gauges last-write-win);
* spans are adopted via :meth:`SpanTracer.absorb`, which remaps the
  workers' locally-allocated trace/span ids onto the parent's counters
  while preserving parent links (queued :meth:`SpanTracer.defer`
  records travel unbuilt and are built in the parent on first read);
* events re-sequence under the parent trace's monotone counter via
  :meth:`EventTrace.absorb`.

Because the merge consumes trials in submission order, the merged
registries/buffers are identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class TrialObs:
    """Picklable observability payload of one trial.

    ``volatile`` carries machine-dependent side facts (wall-clock
    timings such as the worker's shared-segment attach cost) that must
    reach the run manifest's volatile section without ever entering
    rows — rows stay a pure function of the config.
    """

    metrics: object | None = None
    spans: list | None = None
    deferred: list | None = None
    events: list | None = None
    volatile: dict | None = None


def local_obs(want_metrics: bool, want_tracer: bool, want_events: bool):
    """Worker-side obs instances mirroring what the parent asked for.

    Returns ``(metrics, tracer, event_trace)`` with ``None`` for the
    dimensions the parent did not request, so disabled instrumentation
    stays free inside workers too.
    """
    metrics = tracer = event_trace = None
    if want_metrics:
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
    if want_tracer:
        from repro.obs import SpanTracer

        tracer = SpanTracer()
    if want_events:
        from repro.obs import EventTrace

        event_trace = EventTrace()
    return metrics, tracer, event_trace


def capture_obs(metrics, tracer, event_trace, volatile=None) -> TrialObs | None:
    """Package a trial's local obs state for the return trip."""
    if (metrics is None and tracer is None and event_trace is None
            and not volatile):
        return None
    spans, deferred = tracer.handoff() if tracer is not None else (None, None)
    return TrialObs(
        metrics=metrics,
        spans=spans,
        deferred=deferred,
        events=list(event_trace) if event_trace is not None else None,
        volatile=volatile or None,
    )


def merge_obs(payloads, metrics=None, tracer=None, event_trace=None) -> None:
    """Fold :class:`TrialObs` payloads into parent obs objects.

    ``payloads`` must be in trial order (what :func:`repro.perf.run_trials`
    returns); the fold is then deterministic for any worker count.
    """
    for payload in payloads:
        if payload is None:
            continue
        if metrics is not None and payload.metrics is not None:
            metrics.merge_from(payload.metrics)
        if tracer is not None and (payload.spans or payload.deferred):
            tracer.absorb(payload.spans or (), payload.deferred or ())
        if event_trace is not None and payload.events:
            event_trace.absorb(payload.events)


def collect_volatile(payloads) -> list[dict]:
    """The non-empty per-trial volatile dicts, in trial order.

    Runners fold these into the manifest's volatile section (never
    into rows): machine timings may vary per run, digests may not.
    """
    return [
        payload.volatile
        for payload in payloads
        if payload is not None and payload.volatile
    ]
