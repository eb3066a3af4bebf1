"""Bounded-memory tiered metric history (``repro.history/v1``).

The sampler ring answers "what happened recently" -- 512 samples at a
200k-cycle interval is ~100 Mcycles of lookback.  Long-horizon runs
(billions of cycles, the ROADMAP's production-service target) need the
classic round-robin-database shape instead: keep **raw** points for the
recent past and progressively coarser **aggregates** for the deep past,
so memory stays O(configured capacity) no matter how long the run is.

A :class:`HistoryStore` observes every profiler sample (subscribed
last by :func:`~repro.obs.stack.assemble_monitor_stack`) and, for each
tracked series, maintains:

- a raw ring of the newest ``raw_capacity`` ``(cycle, value)`` points;
- one bucket ring per retention **tier** ``(bucket_cycles, capacity)``:
  each bucket covers ``[start, start + bucket_cycles)`` (start aligned
  to the bucket width) and records ``min``/``max``/``sum``/``count``
  of the samples that fell in it -- the mean is derived at read time as
  ``sum / count``, never stored, so tier merges stay exact.

Tiers widen geometrically (the default keeps 256 buckets at 1, 16 and
256 Mcycles per bucket -- roughly 0.25, 4 and 65 Gcycles of lookback);
see docs/OBSERVABILITY.md for choosing-a-tier guidance.  Everything is
integer-cycle arithmetic plus sums of sampled values, so documents are
bit-exact across serialize/merge round-trips, and fleet machines'
documents merge associatively in :mod:`repro.obs.merge`: aligned
buckets combine as ``min(min)``/``max(max)``/``sum+sum``/
``count+count``, raw rings concatenate, sort, and keep the newest
points.

``HistoryStore.to_dict`` doubles as the checkpoint payload: loading it
back with :meth:`HistoryStore.from_dict` reproduces the store
bit-exactly (``repro.checkpoint/v1`` embeds it verbatim).
"""

from collections import deque

from repro.common.errors import ConfigurationError

#: schema tag for serialized history documents.
HISTORY_SCHEMA = "repro.history/v1"

#: series tracked by default: whole-heap occupancy, watch-pool
#: occupancy, and the live overhead fraction -- the three numbers a
#: long-horizon capacity review asks about first.
DEFAULT_SERIES = (
    "heap.live_bytes",
    "safemem.watch.armed",
    "sampler.overhead_fraction",
)

#: raw (cycle, value) points retained per series.
DEFAULT_RAW_CAPACITY = 256

#: retention tiers as ``(bucket_cycles, buckets_retained)`` pairs,
#: narrowest first.  1 Mcycle buckets cover the recent ~0.25 Gcycles,
#: 16 Mcycle buckets ~4 Gcycles, 256 Mcycle buckets ~65 Gcycles.
DEFAULT_TIERS = (
    (1_000_000, 256),
    (16_000_000, 256),
    (256_000_000, 256),
)


class _SeriesHistory:
    """Raw ring plus one bucket ring per tier, for one series."""

    __slots__ = ("raw", "tiers")

    def __init__(self, raw_capacity, tiers):
        self.raw = deque(maxlen=raw_capacity)
        #: one deque per tier of mutable ``[start, min, max, sum,
        #: count]`` buckets, oldest first.
        self.tiers = [deque(maxlen=capacity) for _, capacity in tiers]


class HistoryStore:
    """Tiered downsampling store fed by profiler samples.

    Observation-only, exactly like the sampler: recording a point never
    advances the simulated clock, so a run behaves bit-identically with
    history on or off (``benchmarks/bench_history.py`` measures the
    Python-time cost).
    """

    def __init__(self, series=DEFAULT_SERIES, tiers=DEFAULT_TIERS,
                 raw_capacity=DEFAULT_RAW_CAPACITY, metrics=None):
        tiers = tuple((int(width), int(capacity))
                      for width, capacity in tiers)
        if not tiers:
            raise ConfigurationError("history needs at least one tier")
        previous = 0
        for width, capacity in tiers:
            if width <= previous:
                raise ConfigurationError(
                    f"history tiers must widen strictly: {tiers}"
                )
            if capacity < 1:
                raise ConfigurationError(
                    f"history tier capacity must be >= 1: {tiers}"
                )
            previous = width
        if raw_capacity < 1:
            raise ConfigurationError(
                f"history raw_capacity must be >= 1: {raw_capacity}"
            )
        self.series = tuple(series)
        self.tiers = tiers
        self.raw_capacity = int(raw_capacity)
        self.observations = 0
        self.raw_evicted = 0
        self.buckets_evicted = 0
        self._series = {name: _SeriesHistory(self.raw_capacity, tiers)
                        for name in self.series}
        if metrics is not None:
            self._register_probes(metrics)

    # ------------------------------------------------------------------
    # probes (documented in docs/OBSERVABILITY.md)
    # ------------------------------------------------------------------
    def _register_probes(self, metrics):
        metrics.probe("history.observations",
                      lambda: self.observations, kind="counter",
                      description="samples recorded by the history "
                                  "store")
        metrics.probe("history.points", self._raw_points, kind="gauge",
                      description="raw points currently retained")
        metrics.probe("history.buckets", self._bucket_count,
                      kind="gauge",
                      description="aggregate buckets currently "
                                  "retained across tiers")
        metrics.probe("history.evicted",
                      lambda: self.raw_evicted + self.buckets_evicted,
                      kind="counter",
                      description="raw points + buckets aged out of "
                                  "the rings")

    def _raw_points(self):
        return sum(len(history.raw)
                   for history in self._series.values())

    def _bucket_count(self):
        return sum(len(tier)
                   for history in self._series.values()
                   for tier in history.tiers)

    # ------------------------------------------------------------------
    # recording (the sampler listener)
    # ------------------------------------------------------------------
    def observe(self, sample):
        """Record one :class:`~repro.obs.sampler.Sample`."""
        self.observations += 1
        cycle = sample.cycle
        metrics = sample.metrics
        for name in self.series:
            value = metrics.get(name)
            if value is None:
                continue
            history = self._series[name]
            raw = history.raw
            if len(raw) == raw.maxlen:
                self.raw_evicted += 1
            raw.append((cycle, value))
            for index, (width, _capacity) in enumerate(self.tiers):
                bucket_start = cycle - cycle % width
                tier = history.tiers[index]
                if tier and tier[-1][0] == bucket_start:
                    bucket = tier[-1]
                    if value < bucket[1]:
                        bucket[1] = value
                    if value > bucket[2]:
                        bucket[2] = value
                    bucket[3] += value
                    bucket[4] += 1
                else:
                    if len(tier) == tier.maxlen:
                        self.buckets_evicted += 1
                    tier.append([bucket_start, value, value, value, 1])

    # ------------------------------------------------------------------
    # serialization (repro.history/v1; embedded by repro.checkpoint/v1)
    # ------------------------------------------------------------------
    def to_dict(self):
        """Serialize to a ``repro.history/v1`` document."""
        return {
            "schema": HISTORY_SCHEMA,
            "tiers": [list(tier) for tier in self.tiers],
            "raw_capacity": self.raw_capacity,
            "observations": self.observations,
            "raw_evicted": self.raw_evicted,
            "buckets_evicted": self.buckets_evicted,
            "series": {
                name: {
                    "raw": [[cycle, value]
                            for cycle, value in history.raw],
                    "tiers": [[list(bucket) for bucket in tier]
                              for tier in history.tiers],
                }
                for name, history in sorted(self._series.items())
            },
        }

    @classmethod
    def from_dict(cls, document, metrics=None):
        """Rebuild a store from :meth:`to_dict` output, bit-exactly."""
        check_history_document(document)
        tiers = tuple((int(width), int(capacity))
                      for width, capacity in document["tiers"])
        store = cls(series=tuple(document["series"]), tiers=tiers,
                    raw_capacity=document["raw_capacity"],
                    metrics=metrics)
        store.observations = document["observations"]
        store.raw_evicted = document.get("raw_evicted", 0)
        store.buckets_evicted = document.get("buckets_evicted", 0)
        for name, record in document["series"].items():
            history = store._series[name]
            for cycle, value in record["raw"]:
                history.raw.append((cycle, value))
            for index, buckets in enumerate(record["tiers"]):
                for bucket in buckets:
                    history.tiers[index].append(list(bucket))
        return store


def check_history_document(document):
    """Validate the shape of a ``repro.history/v1`` dict; returns it."""
    if (not isinstance(document, dict)
            or document.get("schema") != HISTORY_SCHEMA):
        found = (document.get("schema") if isinstance(document, dict)
                 else type(document).__name__)
        raise ConfigurationError(
            f"not a {HISTORY_SCHEMA} document: {found!r}"
        )
    for key in ("tiers", "raw_capacity", "series"):
        if key not in document:
            raise ConfigurationError(
                f"{HISTORY_SCHEMA} document is missing {key!r}"
            )
    return document


def merge_history_documents(documents):
    """Merge ``repro.history/v1`` documents from fleet machines.

    All inputs must share the tier layout and raw capacity (they came
    from the same fleet configuration).  Aligned buckets combine
    exactly -- ``min``/``max``/``sum``/``count`` -- and raw rings
    concatenate, sort by cycle, and keep the newest points, so the
    merge is associative and order-independent.
    """
    documents = list(documents)
    if not documents:
        raise ConfigurationError("no history documents to merge")
    for document in documents:
        check_history_document(document)
    first = documents[0]
    tiers = [list(tier) for tier in first["tiers"]]
    raw_capacity = first["raw_capacity"]
    for document in documents[1:]:
        if ([list(tier) for tier in document["tiers"]] != tiers
                or document["raw_capacity"] != raw_capacity):
            raise ConfigurationError(
                "history documents disagree on tier layout; "
                "refusing to merge"
            )
    names = sorted({name for document in documents
                    for name in document["series"]})
    series = {}
    for name in names:
        raw = []
        merged_tiers = [{} for _ in tiers]
        for document in documents:
            record = document["series"].get(name)
            if record is None:
                continue
            raw.extend((cycle, value)
                       for cycle, value in record["raw"])
            for index, buckets in enumerate(record["tiers"]):
                merged = merged_tiers[index]
                for start, mn, mx, total, count in buckets:
                    bucket = merged.get(start)
                    if bucket is None:
                        merged[start] = [start, mn, mx, total, count]
                    else:
                        if mn < bucket[1]:
                            bucket[1] = mn
                        if mx > bucket[2]:
                            bucket[2] = mx
                        bucket[3] += total
                        bucket[4] += count
        raw.sort()
        series[name] = {
            "raw": [[cycle, value]
                    for cycle, value in raw[-raw_capacity:]],
            "tiers": [
                [merged[start] for start in sorted(merged)][-capacity:]
                for merged, (_width, capacity)
                in zip(merged_tiers, tiers)
            ],
        }
    return {
        "schema": HISTORY_SCHEMA,
        "tiers": tiers,
        "raw_capacity": raw_capacity,
        "observations": sum(d["observations"] for d in documents),
        "raw_evicted": sum(d.get("raw_evicted", 0) for d in documents),
        "buckets_evicted": sum(d.get("buckets_evicted", 0)
                               for d in documents),
        "series": series,
    }


# ----------------------------------------------------------------------
# rendering (the `repro history` view)
# ----------------------------------------------------------------------
def render_history(document, series=None, buckets=8):
    """Human summary of a history document.

    ``series`` narrows to one series name; ``buckets`` caps the
    newest buckets shown per tier.
    """
    check_history_document(document)
    names = sorted(document["series"])
    if series is not None:
        if series not in document["series"]:
            raise ConfigurationError(
                f"history document has no series {series!r} "
                f"(has: {', '.join(names)})"
            )
        names = [series]
    tiers = document["tiers"]
    lines = [
        f"history document ({HISTORY_SCHEMA})",
        f"  observations {document['observations']:,} | "
        f"raw capacity {document['raw_capacity']} | "
        f"tiers " + ", ".join(
            f"{width:,}c x{capacity}" for width, capacity in tiers),
    ]
    for name in names:
        record = document["series"][name]
        raw = record["raw"]
        lines.append(f"series {name}: {len(raw)} raw points")
        if raw:
            first_cycle, _ = raw[0]
            last_cycle, last_value = raw[-1]
            lines.append(
                f"  raw [{first_cycle:,} .. {last_cycle:,}] "
                f"latest {last_value:g}"
            )
        for index, (width, _capacity) in enumerate(tiers):
            tier = record["tiers"][index]
            lines.append(
                f"  tier {index} ({width:,} cycles/bucket): "
                f"{len(tier)} buckets"
            )
            for start, mn, mx, total, count in tier[-buckets:]:
                mean = total / count
                lines.append(
                    f"    @{start:>16,}  min {mn:>12g}  "
                    f"mean {mean:>12g}  max {mx:>12g}  n={count}"
                )
    return "\n".join(lines)
