"""Exporters: one stable JSON schema and one human-readable table.

Everything that leaves the machine -- ``repro stats``, the
``--emit-metrics`` flag, benchmark result files -- goes through
:func:`snapshot_document`, so downstream consumers parse exactly one
format.  The schema is versioned; additive changes keep the same
version, renames/removals bump it.

Schema ``repro.metrics/v1``::

    {
      "schema": "repro.metrics/v1",
      "generated": {"cycle": <int>, "since_cycle": <int|null>},
      "meta": {...caller-supplied context...},
      "metrics": {"<name>": <number>, ...},
      "kinds": {"<name>": "counter"|"gauge", ...},
      "spans": [{"name": ..., "path": ..., "depth": ...,
                 "start_cycle": ..., "end_cycle": ...,
                 "duration_cycles": ..., "attrs": {...}}, ...]
    }

``metrics`` values come from a :class:`~repro.obs.metrics.Snapshot`
(absolute or delta); ``kinds`` says which values accumulate.  ``meta``
and ``spans`` are optional and omitted when empty.
"""

import json

from repro.common.schema import Field, Table
from repro.common.state import INT, NULL, NUMBER, OBJECT, TEXT
from repro.obs.metrics import Snapshot

SCHEMA = "repro.metrics/v1"

#: a ``repro.metrics/v1`` document, as :func:`snapshot_document`
#: writes it.
METRICS = Table(SCHEMA, {
    "schema": Field(TEXT, choices=(SCHEMA,)),
    "generated.cycle": INT,
    "generated.since_cycle": INT | NULL,
    "metrics": OBJECT,
    "metrics.<name>": NUMBER | NULL,
    "kinds": OBJECT,
}, label="metrics document")


def snapshot_document(snapshot, spans=None, meta=None):
    """Render a snapshot (and optional spans) as the schema dict."""
    document = {
        "schema": SCHEMA,
        "generated": {
            "cycle": snapshot.cycle,
            "since_cycle": snapshot.since_cycle,
        },
        "metrics": {name: snapshot.values[name]
                    for name in sorted(snapshot.values)},
        "kinds": {name: snapshot.kinds[name]
                  for name in sorted(snapshot.kinds)},
    }
    if meta:
        document["meta"] = dict(meta)
    if spans:
        document["spans"] = [
            span if isinstance(span, dict) else span.to_dict()
            for span in spans
        ]
    return document


def snapshot_from_document(document):
    """Rebuild a :class:`~repro.obs.metrics.Snapshot` from a document.

    Inverse of :func:`snapshot_document` (spans and meta are not part
    of a snapshot and are dropped).  Lets every snapshot consumer --
    the human table, the diff engine -- work on persisted documents,
    including the one embedded in a ``repro.dump/v1`` bundle.
    """
    METRICS.check(document)
    generated = document["generated"]
    return Snapshot(
        generated["cycle"],
        dict(document["metrics"]),
        dict(document["kinds"]),
        since_cycle=generated["since_cycle"],
    )


def write_metrics_json(path, snapshot, spans=None, meta=None):
    """Write the schema document to ``path``; returns the document."""
    document = snapshot_document(snapshot, spans=spans, meta=meta)
    with open(path, "w") as stream:
        json.dump(document, stream, indent=2, sort_keys=False)
        stream.write("\n")
    return document


def render_metrics_table(snapshot, title="machine metrics",
                         prefix=None):
    """Human-readable two-column table of a snapshot.

    ``prefix`` filters to one component's namespace (e.g. ``"mmu."``).
    """
    values = snapshot.values if prefix is None else \
        snapshot.filtered(prefix)
    rows = []
    for name in sorted(values):
        value = values[name]
        if value is None:
            # Null histogram gauges: no observations in this window.
            rendered = "-"
        elif isinstance(value, float):
            rendered = f"{value:,.4f}"
        else:
            rendered = f"{value:,}"
        rows.append((name, rendered, snapshot.kinds.get(name, "")))
    width = max((len(r[0]) for r in rows), default=10)
    vwidth = max((len(r[1]) for r in rows), default=5)
    span = (f"cycles {snapshot.since_cycle:,} -> {snapshot.cycle:,}"
            if snapshot.since_cycle is not None
            else f"at cycle {snapshot.cycle:,}")
    lines = [f"{title} ({span})", "-" * (width + vwidth + 12)]
    for name, rendered, kind in rows:
        lines.append(f"{name:<{width}}  {rendered:>{vwidth}}  {kind}")
    return "\n".join(lines)


def render_span_tree(spans, limit=None):
    """Indented rendering of finished spans (flight-recorder style)."""
    if limit is not None:
        spans = spans[-limit:]
    lines = []
    for span in spans:
        entry = span.to_dict() if hasattr(span, "to_dict") else span
        indent = "  " * entry["depth"]
        attrs = "".join(f" {k}={v}" for k, v in entry["attrs"].items())
        lines.append(
            f"[{entry['start_cycle']:>12}] {indent}{entry['name']} "
            f"({entry['duration_cycles']} cycles){attrs}"
        )
    return "\n".join(lines)
