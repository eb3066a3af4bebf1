"""Unified telemetry: metrics, spans, sampling, alerts, streaming.

The one observability layer of the simulated machine.  Components
register named metrics in the machine's :class:`MetricsRegistry`;
phases are timed with :class:`Tracer` spans on the simulated clock;
everything is read via cycle-stamped snapshots and exported through
the stable ``repro.metrics/v1`` schema.  On top of that sits the
continuous-monitoring layer: a :class:`SamplingProfiler` driven by the
simulated clock, an :class:`AlertEngine` evaluating declarative rules
on every sample, and streaming sinks shipping ``repro.events/v1``
records (see ``docs/OBSERVABILITY.md``).  Post-mortem forensics --
``repro.dump/v1`` crash bundles, deterministic replay, and run
diffing -- live in :mod:`repro.obs.forensics`.
"""
