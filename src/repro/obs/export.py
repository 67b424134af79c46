"""Timeline exporters: Chrome trace-event JSON (Perfetto) and ASCII.

Both render a :class:`~repro.obs.tracer.Tracer`: one *master* lane (the
command stream) plus one lane per worker.  A live run's tracer receives
every exchange's :class:`~repro.perf.CommandRecord` as it happens; a
saved :class:`~repro.perf.profile.RunProfile` holds the same records
without timestamps, and :func:`replay_profile` lays them back to back
into a tracer through the same :meth:`Tracer.on_exchange`.

The Chrome trace-event format is the stable subset Perfetto and
``chrome://tracing`` both load: complete events (``"ph": "X"``) with
microsecond ``ts``/``dur``, plus ``process_name`` / ``thread_name`` /
``thread_sort_index`` metadata so lanes are labelled and ordered.
"""
from __future__ import annotations

import json
from pathlib import Path

from .tracer import MASTER_LANE, Span, Tracer

__all__ = [
    "tracer_to_chrome",
    "replay_profile",
    "profile_run_config",
    "write_chrome_trace",
    "validate_chrome_trace",
    "ascii_timeline",
]

_PID = 1
_US = 1e6  # seconds -> microseconds

#: Region-kind -> single letter used by the ASCII master lane.
_KIND_LETTERS = {
    "newview": "N",
    "sumtable": "S",
    "derivative": "D",
    "evaluate": "E",
    "control": "c",
}


def _metadata_events(
    lanes: list[int],
    lane_names: dict[int, str] | None = None,
    run_config: dict | None = None,
) -> list[dict]:
    names = lane_names or {}
    events = [{
        "ph": "M", "pid": _PID, "tid": MASTER_LANE, "name": "process_name",
        "args": {"name": "repro"},
    }]
    # Stamp the run configuration so an exported timeline is
    # self-describing: a ``run_config`` metadata event carries the full
    # dict, ``process_labels`` a compact string Chrome renders next to
    # the process name.
    if run_config:
        events.append({
            "ph": "M", "pid": _PID, "tid": MASTER_LANE, "name": "run_config",
            "args": dict(run_config),
        })
        events.append({
            "ph": "M", "pid": _PID, "tid": MASTER_LANE,
            "name": "process_labels",
            "args": {"labels": ",".join(
                f"{k}={v}" for k, v in sorted(run_config.items())
            )},
        })
    for lane in lanes:
        default = "master" if lane == MASTER_LANE else f"worker {lane - 1}"
        events.append({
            "ph": "M", "pid": _PID, "tid": lane, "name": "thread_name",
            "args": {"name": names.get(lane, default)},
        })
        events.append({
            "ph": "M", "pid": _PID, "tid": lane, "name": "thread_sort_index",
            "args": {"sort_index": lane},
        })
    return events


def _span_event(span: Span) -> dict:
    event = {
        "name": span.name,
        "cat": span.cat or "span",
        "ph": "X",
        "ts": span.start * _US,
        "dur": span.duration * _US,
        "pid": _PID,
        "tid": span.lane,
    }
    if span.args:
        event["args"] = dict(span.args)
    return event


def tracer_to_chrome(tracer: Tracer, run_config: dict | None = None) -> list[dict]:
    """All spans and instant markers of a live trace as Chrome events.

    ``run_config`` (backend, distribution policy, …)
    is stamped into the metadata events so the file is self-describing.
    """
    events = _metadata_events(
        tracer.lanes() or [MASTER_LANE], run_config=run_config
    )
    for span in sorted(tracer.spans, key=lambda s: (s.start, s.lane)):
        events.append(_span_event(span))
    for mark in tracer.instants:
        events.append({
            "name": mark.name, "cat": mark.cat or "instant", "ph": "i",
            "ts": mark.start * _US, "pid": _PID, "tid": mark.lane,
            "s": "t", "args": dict(mark.args),
        })
    return events


def replay_profile(profile) -> Tracer:
    """A measured :class:`~repro.perf.profile.RunProfile` replayed into a
    :class:`Tracer`.

    Records carry durations, not timestamps, so the timeline is
    *reconstructed*: command ``i`` starts where command ``i-1``'s wall
    time ended, and each worker's busy span sits at the start of its
    command (the gap to the command's end is its barrier wait).
    """
    tracer = Tracer()
    tracer._epoch = cursor = 0.0  # the records' clock starts at 0
    for rec in profile.records:
        tracer.on_exchange(rec, cursor)
        cursor += rec.wall
    return tracer


def profile_run_config(profile) -> dict:
    """The run configuration a profile recorded — backend, team size,
    distribution, plus its live/strategy meta stamps — for the
    ``run_config`` metadata of an exported timeline."""
    run_config = {
        "backend": profile.backend,
        "n_workers": profile.n_workers,
        "distribution": profile.distribution,
    }
    for key in ("live", "strategy"):
        if key in profile.meta:
            run_config[key] = profile.meta[key]
    return run_config


def write_chrome_trace(path: str | Path, events: list[dict]) -> Path:
    """Write events in the JSON object form Perfetto auto-detects."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    path.write_text(json.dumps(payload) + "\n")
    return path


def validate_chrome_trace(payload: dict | list) -> list[dict]:
    """Check the minimal schema Perfetto requires; returns the event list.

    Accepts either the JSON-object form (``{"traceEvents": [...]}``) or a
    bare event array.  Raises ``ValueError`` on the first violation.
    """
    events = payload.get("traceEvents") if isinstance(payload, dict) else payload
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"event {i} is not an object")
        if "ph" not in ev or "name" not in ev:
            raise ValueError(f"event {i} lacks ph/name")
        if ev["ph"] in ("X", "i", "B", "E") and "ts" not in ev:
            raise ValueError(f"event {i} ({ev['ph']!r}) lacks ts")
        if ev["ph"] == "X":
            if "dur" not in ev:
                raise ValueError(f"event {i} is ph=X without dur")
            if float(ev["dur"]) < 0:
                raise ValueError(f"event {i} has negative dur")
    return events


# ----------------------------------------------------------------------
# ASCII timeline
# ----------------------------------------------------------------------

_SHADE = " .:=#"  # busy fraction 0 .. 1 in 5 steps


def _bin_char(fraction: float) -> str:
    idx = min(int(fraction * (len(_SHADE) - 1) + 0.5), len(_SHADE) - 1)
    if fraction > 0.0:
        idx = max(idx, 1)  # any work at all is visible
    return _SHADE[idx]


def ascii_timeline(tracer: Tracer, width: int = 72) -> str:
    """Render a live trace's lanes (master commands + synthesized worker
    busy spans) as a terminal timeline."""
    master = sorted(
        (s for s in tracer.spans if s.lane == MASTER_LANE and s.cat in _KIND_LETTERS),
        key=lambda s: s.start,
    )
    if not master:
        master = sorted(
            (s for s in tracer.spans if s.lane == MASTER_LANE), key=lambda s: s.start
        )
    if not master:
        return "(no spans recorded)"
    total = max(s.end for s in tracer.spans)
    worker_lanes = [lane for lane in tracer.lanes() if lane != MASTER_LANE]
    spans = [
        [(s.start, s.end) for s in tracer.spans if s.lane == lane]
        for lane in worker_lanes
    ]
    return _render_ascii(
        total, [s.cat for s in master], [s.start for s in master],
        [f"worker {lane - 1}" for lane in worker_lanes], spans,
        [s.duration for s in master], width,
    )


def _render_ascii(
    total: float,
    master_kinds: list[str],
    master_starts: list[float],
    worker_names: list[str],
    worker_spans: list[list[tuple[float, float]]],
    master_durs: list[float],
    width: int,
) -> str:
    if total <= 0.0 or not master_kinds:
        return "(empty timeline)"
    width = max(int(width), 8)
    dt = total / width
    edges = [i * dt for i in range(width + 1)]

    def overlap(lo: float, hi: float, a: float, b: float) -> float:
        return max(0.0, min(hi, b) - max(lo, a))

    label_w = max([len(n) for n in worker_names] + [len("master")])
    master_row = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        weights: dict[str, float] = {}
        for kind, start, dur in zip(master_kinds, master_starts, master_durs):
            o = overlap(lo, hi, start, start + dur)
            if o > 0.0:
                weights[kind] = weights.get(kind, 0.0) + o
        if not weights:
            master_row.append(" ")
        else:
            top = max(weights, key=lambda k: weights[k])
            master_row.append(_KIND_LETTERS.get(top, "?"))
    lines = [
        f"{'master':>{label_w}} |{''.join(master_row)}|",
    ]
    for name, spans in zip(worker_names, worker_spans):
        row = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            busy = sum(overlap(lo, hi, a, b) for a, b in spans)
            row.append(_bin_char(min(busy / dt, 1.0)))
        lines.append(f"{name:>{label_w}} |{''.join(row)}|")
    lines.append(
        f"{'':>{label_w}}  0{'s':<{max(width - len(f'{total:.3f}s') - 1, 1)}}"
        f"{total:.3f}s"
    )
    lines.append(
        f"{'':>{label_w}}  master: N=newview S=sumtable D=derivative "
        f"E=evaluate c=control; workers: busy fraction '{_SHADE}'"
    )
    return "\n".join(lines)
