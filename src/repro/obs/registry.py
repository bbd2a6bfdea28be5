"""An in-process metrics registry: counters, gauges, histograms.

Deliberately a small subset of the Prometheus client model — enough
for the daemon's telemetry without a dependency:

* metric families are registered once with a name, help text, and a
  fixed tuple of label names;
* ``labels(...)`` returns (creating on first use) the child for one
  label-value combination; families with no labels act as their own
  child;
* :meth:`MetricsRegistry.collect` yields every family's samples in a
  stable order, ready for :func:`repro.obs.prom.render_text` or the
  service's JSON ``metrics`` verb.

All operations are plain dict lookups and float adds: cheap enough to
sit on the daemon's per-step hot path (the throughput benchmark gates
the overhead at 5 %).  ``labels(...)`` first looks its positional
values up as they are, which hits whenever they are already the
strings of an existing child (an unlabelled family's ``()`` always
does); only a miss pays for building the key with ``str()`` and for
the arity check, so ``labels(5)`` still finds the ``"5"`` child and a
wrong arity still raises.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "Sample",
]

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets (seconds-flavoured, like the Prometheus
#: client's): request latencies from 100 µs to 10 s.
DEFAULT_BUCKETS = (
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
)


@dataclass(frozen=True)
class Sample:
    """One exposition sample: a name, sorted labels, and a value."""

    name: str
    labels: Tuple[Tuple[str, str], ...]
    value: float

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Metric:
    """Base class for one metric family."""

    type_name = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
    ) -> None:
        if not _METRIC_NAME.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_NAME.match(label) or label.startswith("__"):
                raise ValueError(f"invalid label name {label!r}")
        if len(set(labelnames)) != len(tuple(labelnames)):
            raise ValueError("duplicate label names")
        self.name = name
        self.help_text = help_text
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self._children: Dict[Tuple[str, ...], Any] = {}

    # -- children --------------------------------------------------------------
    def _child(self) -> Any:
        raise NotImplementedError

    def labels(self, *values: Any, **kwvalues: Any) -> Any:
        """The child for one label-value combination (created on use)."""
        if not kwvalues:
            # Values passed as strings are already the key.
            try:
                child = self._children.get(values)
            except TypeError:  # an unhashable value: str() it below
                child = None
            if child is not None:
                return child
        if kwvalues:
            if values:
                raise ValueError(
                    "pass label values positionally or by name, not both"
                )
            try:
                values = tuple(
                    kwvalues[name] for name in self.labelnames
                )
            except KeyError as exc:
                raise ValueError(f"missing label {exc}") from exc
            if len(kwvalues) != len(self.labelnames):
                raise ValueError("unexpected label names")
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} takes {len(self.labelnames)} label "
                f"value(s), got {len(values)}"
            )
        key = tuple(str(value) for value in values)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._child()
        return child

    def remove(self, *values: Any) -> None:
        """Drop one child (e.g. a closed session's gauge series)."""
        key = tuple(str(value) for value in values)
        self._children.pop(key, None)

    def _self_child(self) -> Any:
        """The implicit child of an unlabelled family."""
        if self.labelnames:
            raise ValueError(
                f"{self.name} has labels; call .labels(...) first"
            )
        return self.labels()

    # -- exposition ------------------------------------------------------------
    def _label_items(
        self, key: Tuple[str, ...]
    ) -> Tuple[Tuple[str, str], ...]:
        return tuple(zip(self.labelnames, key))

    def samples(self) -> List[Sample]:
        raise NotImplementedError


class _CounterChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0.0:
            raise ValueError("counters can only go up")
        self.value += amount


class Counter(Metric):
    """A monotonically increasing value (name it ``*_total``)."""

    type_name = "counter"

    def _child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._self_child().inc(amount)

    def samples(self) -> List[Sample]:
        return [
            Sample(self.name, self._label_items(key), child.value)
            for key, child in sorted(self._children.items())
        ]


class _GaugeChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Gauge(Metric):
    """A value that can go up and down."""

    type_name = "gauge"

    def _child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._self_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._self_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._self_child().dec(amount)

    def samples(self) -> List[Sample]:
        return [
            Sample(self.name, self._label_items(key), child.value)
            for key, child in sorted(self._children.items())
        ]


class _HistogramChild:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * n_buckets
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float, uppers: Sequence[float]) -> None:
        self.sum += value
        self.count += 1
        # Per-bucket counts; exposition accumulates them into the
        # cumulative series Prometheus expects.
        for index, upper in enumerate(uppers):
            if value <= upper:
                self.counts[index] += 1
                break


class Histogram(Metric):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    type_name = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, labelnames)
        uppers = tuple(float(b) for b in buckets)
        if not uppers or sorted(uppers) != list(uppers):
            raise ValueError("buckets must be a sorted non-empty sequence")
        self.uppers = uppers

    def _child(self) -> _HistogramChild:
        return _HistogramChild(len(self.uppers))

    def observe(self, value: float) -> None:
        self._self_child().observe(value, self.uppers)

    def samples(self) -> List[Sample]:
        out: List[Sample] = []
        for key, child in sorted(self._children.items()):
            base = self._label_items(key)
            cumulative = 0
            for upper, count in zip(self.uppers, child.counts):
                cumulative += count
                out.append(
                    Sample(
                        f"{self.name}_bucket",
                        base + (("le", _format_upper(upper)),),
                        float(cumulative),
                    )
                )
            out.append(
                Sample(
                    f"{self.name}_bucket",
                    base + (("le", "+Inf"),),
                    float(child.count),
                )
            )
            out.append(Sample(f"{self.name}_sum", base, child.sum))
            out.append(
                Sample(f"{self.name}_count", base, float(child.count))
            )
        return out


def _format_upper(upper: float) -> str:
    """Bucket bound label: integral bounds render without the .0."""
    if upper == int(upper):
        return str(int(upper))
    return repr(upper)


class MetricsRegistry:
    """Holds metric families; the unit of exposition.

    One registry per daemon.  Families are registered once (a duplicate
    name raises), then mutated through the returned handles.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def register(self, metric: Metric) -> Metric:
        if metric.name in self._metrics:
            raise ValueError(
                f"metric {metric.name!r} is already registered"
            )
        self._metrics[metric.name] = metric
        return metric

    def counter(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
    ) -> Counter:
        metric = Counter(name, help_text, labelnames)
        self.register(metric)
        return metric

    def gauge(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
    ) -> Gauge:
        metric = Gauge(name, help_text, labelnames)
        self.register(metric)
        return metric

    def histogram(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        metric = Histogram(name, help_text, labelnames, buckets)
        self.register(metric)
        return metric

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def collect(self) -> Iterator[Metric]:
        """Families in stable (name-sorted) order."""
        for name in sorted(self._metrics):
            yield self._metrics[name]

    def samples(self) -> List[Sample]:
        """Every family's samples, flattened, in exposition order."""
        out: List[Sample] = []
        for metric in self.collect():
            out.extend(metric.samples())
        return out
