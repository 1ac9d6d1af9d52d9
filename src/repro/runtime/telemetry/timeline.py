"""Timeline export: simulated :class:`~repro.runtime.trace.Trace` spans →
Chrome ``trace_event`` JSON (Perfetto / ``chrome://tracing``) and flat
CSV/JSON summaries.

The ASCII Gantt in :meth:`Trace.render` tops out at a few dozen spans; a
distributed BFS at scale records thousands.  Chrome's `trace_event
format`__ is the lingua franca for that size — Perfetto renders nesting,
zoom and per-track search for free.  The mapping:

* every ledger entry (a depth-0 root span) becomes one ``"X"`` complete
  event per locale track, with its depth-1 component spans nested inside
  by time containment;
* simulated seconds become microsecond ``ts``/``dur`` fields (Chrome's
  native unit);
* tracks: one ``tid`` per locale under a single ``pid``, named via ``"M"``
  metadata events.  The cost model is SPMD — every locale executes the
  same op sequence and the breakdown charges the *slowest* locale — so
  spans are replicated across locale tracks rather than partitioned;
* spans whose component is the fault layer's ``Retries`` get category
  ``"retry"`` and an ``args.retry`` flag, so injected-fault overhead is
  one Perfetto query (or colour) away.

__ https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import TYPE_CHECKING

from ..trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..locale import Machine

# kept in sync with repro.runtime.faults.RETRY_STEP, which cannot be
# imported here at module scope: the faults layer itself records metrics,
# so importing it would close an import cycle through this package.
RETRY_STEP = "Retries"

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "trace_summary",
    "write_trace_csv",
    "write_trace_summary",
]

_US = 1e6  # chrome trace timestamps are microseconds

#: pid used for the simulated machine's single process.
PID = 1


def _meta(event: str, pid: int, tid: int | None = None, **args) -> dict:
    ev = {"ph": "M", "name": event, "pid": pid, "args": args}
    if tid is not None:
        ev["tid"] = tid
    return ev


def _complete(
    name: str, cat: str, start: float, duration: float, tid: int, args: dict
) -> dict:
    return {
        "ph": "X",
        "name": name,
        "cat": cat,
        "ts": start * _US,
        "dur": duration * _US,
        "pid": PID,
        "tid": tid,
        "args": args,
    }


def chrome_trace(trace: Trace, *, machine: "Machine | None" = None) -> dict:
    """Convert a :class:`Trace` into a Chrome ``trace_event`` document.

    ``machine`` supplies the locale count (one track per locale); without
    it the timeline gets a single ``locale 0`` track.  Returns a plain
    dict — :func:`write_chrome_trace` serialises it.
    """
    num_locales = machine.num_locales if machine is not None else 1
    events: list[dict] = [
        _meta("process_name", PID, name="repro simulated machine"),
        _meta("process_sort_index", PID, sort_index=0),
    ]
    for tid in range(num_locales):
        events.append(_meta("thread_name", PID, tid, name=f"locale {tid}"))
        events.append(_meta("thread_sort_index", PID, tid, sort_index=tid))

    for idx, root in enumerate(trace.roots):
        children = trace.children(idx)
        for tid in range(num_locales):
            events.append(
                _complete(
                    root.label,
                    "op",
                    root.start,
                    root.duration,
                    tid,
                    {"op_index": idx, "components": len(children)},
                )
            )
            for child in children:
                retry = child.component == RETRY_STEP
                events.append(
                    _complete(
                        f"{child.label}:{child.component}",
                        "retry" if retry else "component",
                        child.start,
                        child.duration,
                        tid,
                        {"op_index": idx, "component": child.component, "retry": retry},
                    )
                )
    return {
        "displayTimeUnit": "ms",
        "otherData": {
            "makespan_s": trace.makespan,
            "num_locales": num_locales,
            "num_ops": len(trace.roots),
        },
        "traceEvents": events,
    }


def write_chrome_trace(
    trace: Trace, path: str | Path, *, machine: "Machine | None" = None
) -> Path:
    """Write the Perfetto-loadable JSON document; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(trace, machine=machine), indent=1) + "\n")
    return path


# ---------------------------------------------------------------------------
# flat summaries
# ---------------------------------------------------------------------------

SUMMARY_FIELDS = (
    "index",
    "depth",
    "label",
    "component",
    "start_s",
    "duration_s",
    "end_s",
    "parent",
    "retry",
)


def trace_summary(trace: Trace) -> list[dict]:
    """Every span (roots then components, in time order) as flat rows."""
    rows = []
    for idx, root in enumerate(trace.roots):
        rows.append(
            {
                "index": idx,
                "depth": 0,
                "label": root.label,
                "component": "",
                "start_s": root.start,
                "duration_s": root.duration,
                "end_s": root.end,
                "parent": None,
                "retry": False,
            }
        )
        for child in trace.children(idx):
            rows.append(
                {
                    "index": idx,
                    "depth": 1,
                    "label": child.label,
                    "component": child.component,
                    "start_s": child.start,
                    "duration_s": child.duration,
                    "end_s": child.end,
                    "parent": idx,
                    "retry": child.component == RETRY_STEP,
                }
            )
    return rows


def write_trace_csv(trace: Trace, path: str | Path) -> Path:
    """Write :func:`trace_summary` rows as CSV; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SUMMARY_FIELDS)
    writer.writeheader()
    for row in trace_summary(trace):
        writer.writerow(row)
    path.write_text(buf.getvalue())
    return path


def write_trace_summary(trace: Trace, path: str | Path) -> Path:
    """Write a JSON summary (spans + per-component/label totals)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "makespan_s": trace.makespan,
        "by_component": dict(trace.by_component()),
        "by_label": dict(trace.by_label()),
        "spans": trace_summary(trace),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
