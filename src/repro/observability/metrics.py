"""Labelled counters, gauges and histograms with Prometheus-text export.

A :class:`MetricsRegistry` is the aggregate half of the observability
layer: where the tracer answers *when* simulated time was spent, the
registry answers *how much* — collectives by op, FLOPs by phase, bytes
moved, faults by kind, checkpoint saves.  Snapshots serialize through
the shared canonical path (:mod:`repro.observability.serialize`), so a
metrics JSON and a ``repro chaos --json`` report are byte-compatible
artifacts; :meth:`MetricsRegistry.observe_resilience` folds a
:class:`~repro.resilience.report.ResilienceReport` in through its own
``to_json()`` — one serialization path, no duplicated goodput math.

Everything is deterministic: metric families render in sorted name
order, label sets in sorted key order, so two runs at the same seed
emit byte-identical Prometheus text.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from .serialize import dumps_json, to_jsonable

LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram buckets (simulated seconds), tuned for the cost
#: model's microsecond-to-millisecond collective times.
DEFAULT_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)

#: Quantiles estimated from the cumulative buckets for export (p50,
#: p95, p99).  Estimates, not exact order statistics: linear
#: interpolation within the containing bucket, like PromQL's
#: ``histogram_quantile``.
EXPORT_QUANTILES = (0.5, 0.95, 0.99)


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class Counter:
    """A monotonically increasing sum, optionally split by labels."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = ""):
        self.name = name
        self.help = help_text
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        return sum(self._values.values())

    def samples(self) -> Iterable[Tuple[str, LabelKey, float]]:
        for key in sorted(self._values):
            yield self.name, key, self._values[key]

    def snapshot(self) -> Dict[str, float]:
        return {_format_labels(k) or "": v
                for k, v in sorted(self._values.items())}


class Gauge(Counter):
    """A value that can go anywhere (set, not accumulated)."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        self._values[_label_key(labels)] = float(value)


class Histogram:
    """Cumulative-bucket histogram in the Prometheus layout: per label
    set, lifetime bucket counts, a sum and a total, and nothing else.
    A consumer that wants recent values only keeps its own window and
    observes it into a fresh histogram (the SLO monitor's health score).
    """

    kind = "histogram"

    def __init__(self, name: str, help_text: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.name = name
        self.help = help_text
        self.buckets = tuple(sorted(buckets))
        self._counts: Dict[LabelKey, list] = {}
        self._sums: Dict[LabelKey, float] = {}
        self._totals: Dict[LabelKey, int] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        if key not in self._counts:
            self._counts[key] = [0] * len(self.buckets)
            self._sums[key] = 0.0
            self._totals[key] = 0
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self._counts[key][i] += 1
        self._sums[key] += value
        self._totals[key] += 1

    def count(self, **labels: str) -> int:
        return self._totals.get(_label_key(labels), 0)

    def sum(self, **labels: str) -> float:
        return self._sums.get(_label_key(labels), 0.0)

    def quantile(self, q: float, **labels: str) -> float:
        """Estimate the ``q``-quantile from the cumulative buckets.

        Linear interpolation inside the containing bucket (PromQL's
        ``histogram_quantile`` convention); observations above the
        highest finite bound clamp to that bound, so the estimate never
        invents a value outside the bucket layout.
        """
        return self._quantile(_label_key(labels), q)

    def _quantile(self, key: LabelKey, q: float) -> float:
        counts = self._counts.get(key)
        total = self._totals.get(key, 0)
        if total == 0 or counts is None:
            return 0.0
        target = q * total
        for i, (bound, cum) in enumerate(zip(self.buckets, counts)):
            if cum >= target:
                lower = self.buckets[i - 1] if i > 0 else 0.0
                below = counts[i - 1] if i > 0 else 0
                width = cum - below
                if width <= 0:
                    return bound
                return lower + (bound - lower) * (target - below) / width
        return self.buckets[-1]

    def samples(self) -> Iterable[Tuple[str, LabelKey, float]]:
        for key in sorted(self._totals):
            for bound, count in zip(self.buckets, self._counts[key]):
                le = ("le", _format_value(bound))
                yield f"{self.name}_bucket", key + (le,), count
            yield f"{self.name}_bucket", key + (("le", "+Inf"),), self._totals[key]
            yield f"{self.name}_sum", key, self._sums[key]
            yield f"{self.name}_count", key, self._totals[key]
            for q in EXPORT_QUANTILES:
                yield (self.name, key + (("quantile", _format_value(q)),),
                       self._quantile(key, q))

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {
            _format_labels(key) or "": {
                "count": self._totals[key],
                "sum": self._sums[key],
                "buckets": {_format_value(b): c for b, c in
                            zip(self.buckets, self._counts[key])},
                "quantiles": {_format_value(q): self._quantile(key, q)
                              for q in EXPORT_QUANTILES},
            }
            for key in sorted(self._totals)
        }


class MetricsRegistry:
    """Owns every metric of one run and renders the two export formats."""

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}
        self._resilience: Optional[dict] = None

    # -- registration ------------------------------------------------------
    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(name, Counter, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, help_text)

    def histogram(self, name: str, help_text: str = "") -> Histogram:
        return self._get_or_create(name, Histogram, help_text)

    def _get_or_create(self, name: str, cls, help_text: str):
        if name in self._metrics:
            metric = self._metrics[name]
            if type(metric) is not cls:
                raise TypeError(f"metric {name!r} already registered as "
                                f"{type(metric).__name__}")
            return metric
        metric = cls(name, help_text)
        self._metrics[name] = metric
        return metric

    # -- resilience bridge -------------------------------------------------
    def observe_resilience(self, report) -> None:
        """Fold a :class:`ResilienceReport` in via its ``to_json()``.

        The report's own serialization is the single source: its scalar
        fields become gauges (``repro_resilience_<field>``) and the full
        document rides along in the snapshot under ``"resilience"``.
        """
        doc = report.to_json()
        self._resilience = doc
        for field, value in sorted(doc.items()):
            if isinstance(value, bool):
                value = float(value)
            if isinstance(value, (int, float)):
                self.gauge(f"repro_resilience_{field}",
                           f"resilience report field {field!r}").set(value)

    # -- export ------------------------------------------------------------
    def snapshot(self) -> dict:
        """The registry as one JSON-ready document."""
        doc: dict = {"metrics": {}}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            doc["metrics"][name] = {
                "type": metric.kind,
                "help": metric.help,
                "values": metric.snapshot(),
            }
        if self._resilience is not None:
            doc["resilience"] = self._resilience
        return to_jsonable(doc)

    def to_json(self) -> str:
        return dumps_json(self.snapshot())

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (deterministic ordering)."""
        lines = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for sample_name, key, value in metric.samples():
                lines.append(
                    f"{sample_name}{_format_labels(key)} {_format_value(value)}")
        return "\n".join(lines) + "\n"
