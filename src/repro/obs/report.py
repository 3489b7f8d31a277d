"""Offline analysis of JSONL event traces: the ``repro inspect`` backend.

A trace file (written by :class:`repro.obs.sinks.JsonlSink`) holds one
``meta`` header line followed by the event records of one or more engine
executions back to back (an algorithm driver may run several networks).
:func:`segment_records` splits the stream at round-counter resets, and
:class:`RunReport` replays each segment into its own
:class:`~repro.obs.collect.MetricsCollector`.

Renderers:

* :func:`narrative` -- the per-round "what happened when" log: active
  vertices, messages, commits, terminations and faults;
* :func:`decay_table` -- the active-vertex decay curve n_i with per-round
  ratios, i.e. the measured shape Lemma 6.1 bounds;
* :func:`diff` -- engine-vs-engine (or run-vs-run) comparison of two
  traces, reporting the first diverging round and per-quantity deltas.
"""

from __future__ import annotations

import json
from typing import Any

from repro.obs.collect import MetricsCollector
from repro.obs.events import Event, from_record


def load_records(path: str) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Read a JSONL trace: ``(meta_header, event_records)``.

    Blank lines are skipped; the first ``meta`` record becomes the header
    (an empty dict if the file has none, e.g. a hand-built trace).

    A *torn final line* -- the signature of a writer killed mid-``write``
    (:class:`~repro.obs.sinks.JsonlSink` flushes per batch, so only the
    last line can be incomplete) -- is tolerated: the partial record is
    discarded and ``meta["_truncated"]`` is set ``True`` so downstream
    renderers can flag the trace as salvaged.  Malformed JSON anywhere
    *before* the final line is real corruption and still raises.
    """
    meta: dict[str, Any] = {}
    records: list[dict[str, Any]] = []
    with open(path) as fh:
        lines = [ln.strip() for ln in fh]
    lines = [(i, ln) for i, ln in enumerate(lines, start=1) if ln]
    for pos, (lineno, line) in enumerate(lines):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            if pos == len(lines) - 1:
                meta["_truncated"] = True
                break
            raise ValueError(
                f"{path}:{lineno}: corrupt trace record (not the final "
                f"line, so not a torn write): {line[:80]!r}"
            ) from None
        if rec.get("ev") == "meta" and not meta:
            meta = rec
        else:
            records.append(rec)
    return meta, records


def segment_records(records: list[dict[str, Any]]) -> list[list[dict[str, Any]]]:
    """Split a record stream into one segment per engine execution.

    A new segment starts at every ``round_start`` whose round number does
    not exceed the previous ``round_start``'s (the engines count rounds
    strictly upward within one execution).
    """
    segments: list[list[dict[str, Any]]] = []
    current: list[dict[str, Any]] = []
    last_start = 0
    for rec in records:
        if rec.get("ev") == "round_start":
            rnd = rec.get("round", 0)
            if current and rnd <= last_start:
                segments.append(current)
                current = []
            last_start = rnd
        current.append(rec)
    if current:
        segments.append(current)
    return segments


def collectors_from_records(
    records: list[dict[str, Any]],
) -> list[MetricsCollector]:
    """One replayed :class:`MetricsCollector` per execution segment."""
    collectors = []
    for segment in segment_records(records):
        events = [e for e in map(from_record, segment) if e is not None]
        collectors.append(MetricsCollector().replay(events))
    return collectors


class RunReport:
    """A loaded trace: header metadata plus one collector per execution."""

    def __init__(
        self, meta: dict[str, Any], collectors: list[MetricsCollector]
    ) -> None:
        self.meta = meta
        self.collectors = collectors

    @classmethod
    def from_path(cls, path: str) -> "RunReport":
        meta, records = load_records(path)
        return cls(meta, collectors_from_records(records))

    @property
    def main(self) -> MetricsCollector:
        """The largest execution in the trace (by vertices terminated)."""
        if not self.collectors:
            return MetricsCollector()
        return max(self.collectors, key=lambda c: (c.n, c.rounds))

    def describe_meta(self) -> str:
        skip = {"ev", "schema", "_truncated"}
        pairs = [f"{k}={v}" for k, v in self.meta.items() if k not in skip]
        text = " ".join(pairs) if pairs else "(no metadata)"
        if self.meta.get("_truncated"):
            text += " (TRUNCATED: torn final line discarded)"
        return text


# ---------------------------------------------------------------------------
# renderers
# ---------------------------------------------------------------------------


def narrative(col: MetricsCollector, limit: int = 50) -> str:
    """Per-round log: active vertices, traffic, commits, terminations."""
    lines = []
    rounds = col.rounds
    for i in range(min(rounds, limit)):
        parts = [f"round {i + 1:4d}:"]
        if i < len(col.active):
            parts.append(f"{col.active[i]} active")
        sent = col.sent[i] if i < len(col.sent) else 0
        if sent:
            parts.append(f"{sent} msgs")
        dropped = col.dropped[i] if i < len(col.dropped) else 0
        if dropped:
            parts.append(f"{dropped} dropped")
        committed = col.committed[i] if i < len(col.committed) else []
        if committed:
            parts.append(f"{len(committed)} committed")
        terms = col.terminations_per_round()
        terminated = terms[i] if i < len(terms) else 0
        if terminated:
            parts.append(f"{terminated} terminated")
        crashes = col.crashes[i] if i < len(col.crashes) else []
        if crashes:
            shown = ",".join(f"v{v}" for v in crashes[:6])
            more = f"+{len(crashes) - 6}" if len(crashes) > 6 else ""
            parts.append(f"CRASH {shown}{more}")
        fdrop = col.fault_drops[i] if i < len(col.fault_drops) else 0
        if fdrop:
            parts.append(f"{fdrop} msg-dropped")
        fdup = col.fault_dups[i] if i < len(col.fault_dups) else 0
        if fdup:
            parts.append(f"{fdup} msg-duplicated")
        fdelay = col.fault_delays[i] if i < len(col.fault_delays) else 0
        if fdelay:
            parts.append(f"{fdelay} msg-delayed")
        if len(parts) == 2:
            parts.append("idle")
        lines.append(" ".join(parts))
    if rounds > limit:
        lines.append(f"... ({rounds - limit} more rounds)")
    return "\n".join(lines)


def decay_table(col: MetricsCollector, limit: int = 40) -> str:
    """The measured active-vertex decay curve with per-round ratios."""
    a = col.decay_curve()
    if not a:
        return "no rounds recorded"
    lines = [f"{'round':>6} {'n_i':>8} {'ratio':>7}"]
    for i, n_i in enumerate(a[:limit]):
        ratio = f"{a[i] / a[i - 1]:.3f}" if i and a[i - 1] else "-"
        lines.append(f"{i + 1:>6} {n_i:>8} {ratio:>7}")
    if len(a) > limit:
        lines.append(f"... ({len(a) - limit} more rounds)")
    shape = col.check_decay(warmup=2, ratio=0.5)
    lines.append(
        "shape: monotone non-increasing, ratio <= 1/2 after 2 warm-up "
        f"rounds: {'yes' if shape else 'no'}"
    )
    return "\n".join(lines)


def _per_round_rows(col: MetricsCollector) -> list[tuple[int, int, int, int, int]]:
    terms = col.terminations_per_round()
    rows = []
    for i in range(col.rounds):
        rows.append(
            (
                col.active[i] if i < len(col.active) else 0,
                col.sent[i] if i < len(col.sent) else 0,
                col.dropped[i] if i < len(col.dropped) else 0,
                len(col.committed[i]) if i < len(col.committed) else 0,
                terms[i] if i < len(terms) else 0,
            )
        )
    return rows


def diff(
    a: MetricsCollector,
    b: MetricsCollector,
    label_a: str = "A",
    label_b: str = "B",
    max_rows: int = 10,
) -> tuple[bool, str]:
    """Compare two executions round by round.

    Returns ``(identical, rendered_report)``.  Two executions are
    *identical* when their per-round (active, sent, dropped, committed,
    terminated) tuples -- and hence their aggregate statistics --
    agree; this is the check ``repro inspect --diff`` uses to confirm the
    fast and reference engines replayed the same run.
    """
    rows_a = _per_round_rows(a)
    rows_b = _per_round_rows(b)
    lines = [
        f"{label_a}: {a.summary()}",
        f"{label_b}: {b.summary()}",
    ]
    divergences = []
    for i in range(max(len(rows_a), len(rows_b))):
        ra = rows_a[i] if i < len(rows_a) else None
        rb = rows_b[i] if i < len(rows_b) else None
        if ra != rb:
            divergences.append((i + 1, ra, rb))
    if not divergences:
        lines.append(
            f"identical: {len(rows_a)} rounds, per-round "
            "(active, sent, dropped, committed, terminated) all agree"
        )
        return True, "\n".join(lines)
    lines.append(f"DIVERGENT: {len(divergences)} rounds differ")
    for rnd, ra, rb in divergences[:max_rows]:
        lines.append(
            f"  round {rnd}: {label_a}={_fmt_row(ra)} {label_b}={_fmt_row(rb)}"
        )
    if len(divergences) > max_rows:
        lines.append(f"  ... ({len(divergences) - max_rows} more)")
    return False, "\n".join(lines)


def _fmt_row(row: tuple[int, int, int, int, int] | None) -> str:
    if row is None:
        return "(absent)"
    return (
        f"(active={row[0]}, sent={row[1]}, dropped={row[2]}, "
        f"committed={row[3]}, terminated={row[4]})"
    )
