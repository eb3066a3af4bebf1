"""Declarative alert rules evaluated on every profiler sample.

Production monitoring is rules plus a state machine, not a human
watching counters.  An :class:`AlertEngine` holds a set of
:class:`AlertRule` definitions and evaluates them against each
:class:`~repro.obs.sampler.Sample` the profiler captures.  Four rule
kinds:

- ``threshold`` -- the metric's current value compared against
  ``value`` with ``op``; ``clear_value`` gives hysteresis (breach at
  ``value``, clear only back below ``clear_value``),
- ``rate`` -- the metric's per-megacycle rate of change between
  consecutive samples compared against ``value`` (leak growth, fault
  storms),
- ``absence`` -- breaches when the metric is missing from the sample
  or has made no progress (counter unchanged) since the previous one,
- ``trend`` -- judges the :class:`~repro.obs.trend.TrendEngine`'s
  latest verdicts instead of a sample metric.  The rule's ``metric``
  is a ``<detector>/<series-pattern>`` selector (see
  :func:`~repro.obs.trend.parse_selector`); the rule breaches while
  any matching series is latched breached with a statistic ``op``
  ``value``, and clears once no matching series holds above
  ``clear_value``.  Requires an engine constructed with
  ``trend_source=``.

Every rule debounces: ``for_samples`` consecutive breaching samples are
required before ``ok -> firing`` (passing through a ``pending`` state),
and ``resolve_after`` consecutive clear samples before
``firing -> resolved`` -- so one noisy sample neither pages anyone nor
closes a live incident.  Transitions are published as
:data:`~repro.common.events.EventKind.ALERT` events and counted in the
``alerts.*`` metrics namespace, which makes them visible to streaming
sinks, to ``repro monitor``'s live panel, and (because counters merge)
to fleet-level aggregation.
"""

import json

from repro.common.errors import ConfigurationError
from repro.common.events import EventKind
from repro.obs.trend import DETECTORS, parse_selector

RULE_KINDS = ("threshold", "rate", "absence", "trend")
SEVERITIES = ("info", "warning", "critical")
OPS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}

#: cycles per "megacycle" -- the rate rules' time unit.
MEGACYCLE = 1_000_000

#: states of one alert's lifecycle.
OK, PENDING, FIRING = "ok", "pending", "firing"


class AlertRule:
    """One declarative rule (immutable; runtime state lives in Alert)."""

    __slots__ = ("name", "metric", "kind", "op", "value", "clear_value",
                 "for_samples", "resolve_after", "severity",
                 "description")

    def __init__(self, name, metric, kind="threshold", op=">",
                 value=0.0, clear_value=None, for_samples=1,
                 resolve_after=2, severity="warning", description=""):
        if kind not in RULE_KINDS:
            raise ConfigurationError(
                f"alert rule {name!r}: unknown kind {kind!r} "
                f"(choose from {RULE_KINDS})"
            )
        if severity not in SEVERITIES:
            raise ConfigurationError(
                f"alert rule {name!r}: unknown severity {severity!r} "
                f"(choose from {SEVERITIES})"
            )
        if kind != "absence" and op not in OPS:
            raise ConfigurationError(
                f"alert rule {name!r}: unknown op {op!r}"
            )
        if for_samples < 1 or resolve_after < 1:
            raise ConfigurationError(
                f"alert rule {name!r}: for_samples and resolve_after "
                f"must be >= 1"
            )
        if kind == "trend":
            try:
                parse_selector(metric)
            except ConfigurationError as error:
                raise ConfigurationError(
                    f"alert rule {name!r}: {error}"
                ) from None
        self.name = name
        self.metric = metric
        self.kind = kind
        self.op = op
        self.value = value
        #: hysteresis: the level the value must come back past to count
        #: as clear.  None means the firing threshold itself.
        self.clear_value = clear_value
        self.for_samples = for_samples
        self.resolve_after = resolve_after
        self.severity = severity
        self.description = description

    @property
    def severity_rank(self):
        return SEVERITIES.index(self.severity)

    def to_dict(self):
        return {
            "name": self.name,
            "metric": self.metric,
            "kind": self.kind,
            "op": self.op,
            "value": self.value,
            "clear_value": self.clear_value,
            "for_samples": self.for_samples,
            "resolve_after": self.resolve_after,
            "severity": self.severity,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, spec):
        spec = dict(spec)
        name = spec.pop("name", None)
        metric = spec.pop("metric", None)
        if not name or not metric:
            raise ConfigurationError(
                f"alert rule needs 'name' and 'metric': {spec}"
            )
        known = {slot for slot in cls.__slots__}
        unknown = set(spec) - known
        if unknown:
            raise ConfigurationError(
                f"alert rule {name!r}: unknown keys {sorted(unknown)}"
            )
        return cls(name, metric, **spec)

    def __repr__(self):
        return (f"AlertRule({self.name}: {self.kind} {self.metric} "
                f"{self.op} {self.value}, {self.severity})")


class Alert:
    """Runtime state of one rule inside an engine."""

    __slots__ = ("rule", "state", "breach_streak", "clear_streak",
                 "fired_count", "resolved_count", "last_value",
                 "fired_at_cycle", "_previous")

    def __init__(self, rule):
        self.rule = rule
        self.state = OK
        self.breach_streak = 0
        self.clear_streak = 0
        self.fired_count = 0
        self.resolved_count = 0
        self.last_value = 0.0
        self.fired_at_cycle = None
        #: (cycle, value) of the previous sample -- rate/absence input.
        self._previous = None

    @property
    def firing(self):
        return self.state == FIRING


class AlertTransition:
    """One ``firing`` or ``resolved`` edge, as published to sinks."""

    __slots__ = ("cycle", "rule", "severity", "state", "value")

    def __init__(self, cycle, rule, severity, state, value):
        self.cycle = cycle
        self.rule = rule
        self.severity = severity
        self.state = state
        self.value = value

    def to_dict(self):
        return {
            "cycle": self.cycle,
            "rule": self.rule,
            "severity": self.severity,
            "state": self.state,
            "value": self.value,
        }

    def __repr__(self):
        return (f"AlertTransition({self.rule} -> {self.state} "
                f"@ {self.cycle})")


class AlertEngine:
    """Evaluates a rule set against each sample; owns the state machines.

    It runs as a profiler listener, wired by the one stack builder,
    :func:`~repro.obs.stack.assemble_monitor_stack` (through
    :func:`~repro.obs.stack.build_monitor_stack` for a config), which
    subscribes :meth:`evaluate` after the trend engine.
    """

    def __init__(self, rules, events=None, metrics=None,
                 trend_source=None):
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"duplicate alert rule names: {names}"
            )
        self.alerts = {rule.name: Alert(rule) for rule in rules}
        self.events = events
        self.metrics = metrics
        #: a TrendEngine (or anything with ``judge(selector)``) that
        #: ``trend``-kind rules consult; None disables them.
        self.trend_source = trend_source
        self.evaluations = 0
        self.transitions = []
        self._listeners = []
        if metrics is not None:
            metrics.probe("alerts.evaluations",
                          lambda: self.evaluations, kind="counter")
            metrics.probe("alerts.fired", self._total_fired,
                          kind="counter",
                          description="ok->firing transitions")
            metrics.probe("alerts.resolved", self._total_resolved,
                          kind="counter",
                          description="firing->resolved transitions")
            metrics.probe("alerts.firing", self._currently_firing,
                          kind="gauge",
                          description="rules currently in firing state")
            for name in self.alerts:
                metrics.probe(f"alerts.rule.{name}.fired",
                              self._rule_fired_probe(name),
                              kind="counter")

    def _rule_fired_probe(self, name):
        return lambda: self.alerts[name].fired_count

    def _total_fired(self):
        return sum(alert.fired_count for alert in self.alerts.values())

    def _total_resolved(self):
        return sum(alert.resolved_count
                   for alert in self.alerts.values())

    def _currently_firing(self):
        return sum(1 for alert in self.alerts.values() if alert.firing)

    def add_listener(self, listener):
        """Call ``listener(transition)`` on every firing/resolved edge."""
        self._listeners.append(listener)
        return listener

    def remove_listener(self, listener):
        self._listeners.remove(listener)

    def firing(self):
        """Alerts currently in the firing state, most severe first."""
        return sorted(
            (alert for alert in self.alerts.values() if alert.firing),
            key=lambda alert: -alert.rule.severity_rank,
        )

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self, sample):
        """Evaluate every rule against one sample; returns transitions."""
        self.evaluations += 1
        transitions = []
        for alert in self.alerts.values():
            transition = self._evaluate_one(alert, sample)
            if transition is not None:
                transitions.append(transition)
        for transition in transitions:
            self._publish(transition)
        return transitions

    def _evaluate_one(self, alert, sample):
        rule = alert.rule
        present = rule.metric in sample.metrics
        value = sample.metrics.get(rule.metric, 0)
        if value is None:
            # Null histogram gauges (empty window) carry no reading:
            # treat like a missing metric rather than comparing None.
            present = False
            value = 0
        alert.last_value = value
        # _judge overrides last_value with the computed statistic for
        # rate and trend rules, so the published transition carries the
        # judged number.
        breached, cleared = self._judge(alert, rule, sample, present,
                                        value)
        alert._previous = (sample.cycle, value if present else None)

        if alert.state in (OK, PENDING):
            if breached:
                alert.breach_streak += 1
                alert.state = PENDING
                if alert.breach_streak >= rule.for_samples:
                    alert.state = FIRING
                    alert.fired_count += 1
                    alert.fired_at_cycle = sample.cycle
                    alert.clear_streak = 0
                    return AlertTransition(sample.cycle, rule.name,
                                           rule.severity, "firing",
                                           alert.last_value)
            else:
                alert.breach_streak = 0
                alert.state = OK
        elif alert.state == FIRING:
            if cleared:
                alert.clear_streak += 1
                if alert.clear_streak >= rule.resolve_after:
                    alert.state = OK
                    alert.resolved_count += 1
                    alert.breach_streak = 0
                    alert.fired_at_cycle = None
                    return AlertTransition(sample.cycle, rule.name,
                                           rule.severity, "resolved",
                                           alert.last_value)
            else:
                alert.clear_streak = 0
        return None

    def _judge(self, alert, rule, sample, present, value):
        """(breached, cleared) for one rule against one sample."""
        if rule.kind == "threshold":
            if not present:
                return False, True
            breached = OPS[rule.op](value, rule.value)
            clear_at = rule.value if rule.clear_value is None \
                else rule.clear_value
            return breached, not OPS[rule.op](value, clear_at)
        if rule.kind == "rate":
            previous = alert._previous
            if not present or previous is None or previous[1] is None:
                return False, True
            elapsed = sample.cycle - previous[0]
            if elapsed <= 0:
                return False, True
            rate = (value - previous[1]) / elapsed * MEGACYCLE
            alert.last_value = rate
            breached = OPS[rule.op](rate, rule.value)
            clear_at = rule.value if rule.clear_value is None \
                else rule.clear_value
            return breached, not OPS[rule.op](rate, clear_at)
        if rule.kind == "trend":
            # Judged against the TrendEngine's latched verdicts, not a
            # sample metric; the engine's own hysteresis composes with
            # this rule's value/clear_value floor on the statistic.
            if self.trend_source is None:
                return False, True
            verdicts = self.trend_source.judge(rule.metric)
            if not verdicts:
                return False, True
            clear_at = rule.value if rule.clear_value is None \
                else rule.clear_value
            breaching = [v for v in verdicts if v.breached
                         and OPS[rule.op](v.value, rule.value)]
            holding = [v for v in verdicts if v.breached
                       and OPS[rule.op](v.value, clear_at)]
            pool = breaching or holding or verdicts
            alert.last_value = max(v.value for v in pool)
            return bool(breaching), not holding
        # absence: no metric, or a counter that made no progress.
        previous = alert._previous
        if not present:
            return True, False
        if previous is None or previous[1] is None:
            return False, True
        stalled = value <= previous[1]
        return stalled, not stalled

    def _publish(self, transition):
        self.transitions.append(transition)
        if self.events is not None:
            self.events.emit(
                EventKind.ALERT,
                rule=transition.rule,
                severity=transition.severity,
                state=transition.state,
                value=transition.value,
            )
        for listener in list(self._listeners):
            listener(transition)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def summary(self):
        """Per-rule ``{name: (fired, resolved, state)}`` totals."""
        return {
            name: (alert.fired_count, alert.resolved_count, alert.state)
            for name, alert in sorted(self.alerts.items())
        }

    # ------------------------------------------------------------------
    # durable state (repro.checkpoint/v1)
    # ------------------------------------------------------------------
    def state_dict(self):
        """JSON-able per-rule runtime state plus the transition log.

        Rule *definitions* are not captured here -- they travel in the
        run's monitoring configuration; this is only the mutable state
        machines, so ``load_state(state_dict())`` on an engine built
        from the same rules is the identity.
        """
        return {
            "evaluations": self.evaluations,
            "alerts": {
                name: {
                    "state": alert.state,
                    "breach_streak": alert.breach_streak,
                    "clear_streak": alert.clear_streak,
                    "fired_count": alert.fired_count,
                    "resolved_count": alert.resolved_count,
                    "last_value": alert.last_value,
                    "fired_at_cycle": alert.fired_at_cycle,
                    "previous": (list(alert._previous)
                                 if alert._previous is not None
                                 else None),
                }
                for name, alert in sorted(self.alerts.items())
            },
            "transitions": [transition.to_dict()
                            for transition in self.transitions],
        }

    def load_state(self, payload):
        """Restore :meth:`state_dict` output into this engine.

        The engine must have been built from the same rule set the
        checkpoint was taken under; an unknown or missing rule name is
        a configuration error.
        """
        recorded = set(payload["alerts"])
        mine = set(self.alerts)
        if recorded != mine:
            raise ConfigurationError(
                f"alert state mismatch: recorded rules "
                f"{sorted(recorded)}, engine has {sorted(mine)}"
            )
        self.evaluations = payload["evaluations"]
        for name, record in payload["alerts"].items():
            alert = self.alerts[name]
            alert.state = record["state"]
            alert.breach_streak = record["breach_streak"]
            alert.clear_streak = record["clear_streak"]
            alert.fired_count = record["fired_count"]
            alert.resolved_count = record["resolved_count"]
            alert.last_value = record["last_value"]
            alert.fired_at_cycle = record["fired_at_cycle"]
            alert._previous = (tuple(record["previous"])
                               if record["previous"] is not None
                               else None)
        self.transitions = [
            AlertTransition(record["cycle"], record["rule"],
                            record["severity"], record["state"],
                            record["value"])
            for record in payload.get("transitions", [])
        ]
        return self


# ----------------------------------------------------------------------
# built-in rule set and rule files
# ----------------------------------------------------------------------
def default_rules():
    """The shipped production rule set (see docs/OBSERVABILITY.md)."""
    return [
        AlertRule(
            "ecc-fault-storm", "kernel.ecc_traps", kind="rate",
            op=">", value=50.0, for_samples=2, resolve_after=2,
            severity="critical",
            description="ECC traps above 50 per Mcycle: a fault storm "
                        "(scrub or watch thrash), not isolated pruning",
        ),
        AlertRule(
            "watch-budget-exhaustion", "safemem.leak.skipped_watches",
            kind="rate", op=">", value=0.0, for_samples=1,
            resolve_after=2, severity="warning",
            description="suspects skipped because the ECC watch budget "
                        "(max_watched_suspects / pinning) is exhausted",
        ),
        AlertRule(
            "overhead-slo-breach", "sampler.overhead_fraction",
            kind="threshold", op=">", value=0.05, clear_value=0.03,
            for_samples=2, resolve_after=2, severity="warning",
            description="monitoring work above 5% of CPU cycles "
                        "(production SLO; clears below 3%)",
        ),
        AlertRule(
            "leak-suspect-growth", "safemem.leak.suspects",
            kind="rate", op=">", value=0.0, for_samples=3,
            resolve_after=3, severity="critical",
            description="leak-suspect count growing without bound "
                        "across consecutive samples",
        ),
    ]


def default_trend_rules(detector):
    """Rules installed when trend analytics is on (``--trend``).

    One critical rule per detector, scoped to the ``group:*`` series:
    whole-heap occupancy legitimately grows during warmup on clean
    workloads, but a single allocation site whose live bytes keep
    climbing after the window fills is the leak signature the
    head-to-head experiment scores (claim TREND-pr).
    """
    if detector not in DETECTORS:
        raise ConfigurationError(
            f"unknown trend detector {detector!r} "
            f"(choose from {', '.join(DETECTORS)})"
        )
    return [
        AlertRule(
            f"leak-trend-{detector}", f"{detector}/group:*",
            kind="trend", op=">", value=0.0, for_samples=2,
            resolve_after=2, severity="critical",
            description=f"sustained live-bytes growth on an allocation "
                        f"group ({detector} statistic latched above "
                        f"its threshold)",
        ),
    ]


def load_rules(path):
    """Load a JSON rule file: a list of :meth:`AlertRule.to_dict` specs."""
    try:
        specs = json.loads(open(path).read())
    except (OSError, ValueError) as error:
        raise ConfigurationError(
            f"cannot read alert rules from {path}: {error}"
        ) from None
    if not isinstance(specs, list):
        raise ConfigurationError(
            f"alert rules file {path} must hold a JSON list of rules"
        )
    rules = []
    for index, spec in enumerate(specs):
        if not isinstance(spec, dict):
            raise ConfigurationError(
                f"alert rules file {path}: entry #{index} is not a "
                f"JSON object ({type(spec).__name__})"
            )
        rules.append(AlertRule.from_dict(spec))
    return rules


def resolve_rules(spec):
    """CLI helper: ``"default"``, ``"none"``, or a rules-file path."""
    if spec in (None, "none"):
        return []
    if spec == "default":
        return default_rules()
    return load_rules(spec)
