"""Cross-process telemetry merge for fleet runs.

One simulated machine owns one :class:`~repro.obs.metrics.MetricsRegistry`.
A fleet run (``repro fleet``, ``repro validate --jobs N``) boots many
machines across many worker processes, so their telemetry has to cross a
process boundary and then collapse into one snapshot.  The unit of
transfer is a **dump** -- a plain picklable/JSON-able dict produced by
:func:`dump_registry` that, unlike a flattened
:class:`~repro.obs.metrics.Snapshot`, keeps every histogram's exact
``[value, count]`` pairs.  That is the load-bearing difference: merged
percentiles must be recomputed from the *union* of the distributions,
never averaged from per-worker percentiles (the average of two medians
is not the median of the merged data).

Merge semantics (:func:`merge_dumps`):

- **counters** sum across machines -- the fleet total;
- **gauges** sum as well: for fleet aggregation a gauge like
  ``heap.live_bytes`` or ``kernel.pinned_pages`` reads as "across the
  whole fleet" (per-machine values remain available in the individual
  dumps);
- **histograms** sum the counts of equal values, then flatten through
  the same :func:`~repro.obs.metrics.flatten_histogram` helper the
  registry snapshot uses, so ``.count``/``.sum`` are exact totals and
  ``.min``/``.max``/``.p50``/``.p90``/``.p99`` are computed over the
  merged distribution;
- the merged snapshot's ``cycle`` is the **max** of the input cycles
  (the fleet's longest-running machine).

The result is an ordinary :class:`Snapshot`, so every existing exporter
(``repro.metrics/v1`` documents, the human table) works on merged fleet
telemetry unchanged.

Tiered history documents (``repro.history/v1``) cross the same process
boundary and merge with
:func:`~repro.obs.history.merge_history_documents`.
"""

from repro.common.errors import ConfigurationError
from repro.obs.metrics import Histogram, Snapshot, flatten_histogram

#: schema tag stamped on dumps so foreign dicts are rejected loudly.
DUMP_SCHEMA = "repro.metrics-dump/v1"


def dump_registry(registry):
    """Serialize a registry to a picklable dump (each histogram as its
    ``[value, count]`` pairs).

    Probes are sampled at dump time, exactly as a snapshot would.
    """
    scalars = {}
    histograms = {}
    for name, metric in registry.instruments().items():
        if isinstance(metric, Histogram):
            histograms[name] = metric.state_dict()
        else:
            scalars[name] = {"kind": metric.kind, "value": metric.value}
    return {
        "schema": DUMP_SCHEMA,
        "cycle": registry.current_cycle,
        "scalars": scalars,
        "histograms": histograms,
    }


def _check_dump(dump):
    if not isinstance(dump, dict) or dump.get("schema") != DUMP_SCHEMA:
        raise ConfigurationError(
            f"not a {DUMP_SCHEMA} dump: {type(dump).__name__}"
        )
    return dump


def merge_dumps(dumps):
    """Collapse registry dumps into one fleet-wide :class:`Snapshot`.

    Deterministic: the output depends only on the multiset of inputs
    (values and counts are summed), not on their order.
    """
    values = {}
    kinds = {}
    histograms = {}
    cycle = 0
    for dump in dumps:
        _check_dump(dump)
        cycle = max(cycle, dump.get("cycle", 0))
        for name, entry in dump["scalars"].items():
            kind = entry["kind"]
            if kinds.setdefault(name, kind) != kind:
                raise ConfigurationError(
                    f"metric {name!r} is {kinds[name]} in one worker "
                    f"and {kind} in another; refusing to merge"
                )
            values[name] = values.get(name, 0) + entry["value"]
        for name, pairs in dump["histograms"].items():
            histogram = histograms.get(name)
            if histogram is None:
                histogram = histograms[name] = Histogram(name)
            histogram.merge(pairs)
    for name in sorted(histograms):
        # Empty and single-observation unions are legitimate: a worker
        # registers a histogram (so the name must survive the merge
        # with its full flattened key set) but may observe nothing, or
        # exactly one value.  An empty union keeps zero count/sum
        # counters while its min/max/percentile gauges flatten to None
        # (no observations -> no statistics).
        flatten_histogram(histograms[name], values, kinds)
    return Snapshot(cycle, values, kinds)


def merge_registries(registries):
    """In-process convenience: dump then merge live registries."""
    return merge_dumps([dump_registry(r) for r in registries])
