"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The paper's Table-style evaluation numbers — 3.2× checked boot, 11.5×
handwritten-suite overhead, ~18 MB ghost memory, ~200k random
hypercalls/hour — were, until this subsystem, one-shot benchmark
outputs. The registry makes them *always-on measurements*: per-hypercall
and oracle-check latency histograms, a ghost-memory footprint gauge, the
oracle's check and cache counters (their only home: read one with
``registry.value("oracle_cache_hits")``), and campaign throughput
gauges.

Design points:

- **Zero dependencies, always on.** Counters and gauges are one integer
  attribute each; there is no sampling thread, no I/O, and nothing to
  disable — a ``Counter.inc()`` is cheap enough for the trap path.
- **Fixed buckets.** Histograms take explicit upper bounds (Prometheus
  ``le`` semantics: a value lands in the first bucket whose bound is
  >= the value; anything above the last bound lands in the implicit
  +Inf bucket). No dynamic rebinning — snapshots from different workers
  merge bucket-by-bucket.
- **Mergeable snapshots.** ``snapshot()`` is a plain-JSON view; a parent
  registry ``merge()``s worker snapshots: counters and histogram buckets
  add, gauges take the max. That one rule fits every gauge a worker
  ships: peaks are high-water marks, and ``worker_last_batch_ts`` is a
  wall-clock time, whose max is the latest batch.
- **Two exporters.** ``to_jsonable()`` (machine-readable, what
  ``--metrics-out`` writes) and ``to_prometheus()`` (the text exposition
  format, scrape-ready, safe to call from the telemetry server's thread
  while the engine merges).
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS_US",
    "SIZE_BUCKETS_BYTES",
]

#: Default buckets for microsecond latencies: ~exponential from 10us to 1s.
LATENCY_BUCKETS_US = (
    10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000,
    50_000, 100_000, 250_000, 500_000, 1_000_000,
)

#: Default buckets for byte sizes: 1 KiB .. 64 MiB (the paper's ghost
#: footprint, ~18 MB, sits comfortably inside).
SIZE_BUCKETS_BYTES = tuple(1024 << i for i in range(17))


def _label_key(labels: dict | None) -> tuple:
    return tuple(sorted(labels.items())) if labels else ()


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict | None = None):
        self.name = name
        self.labels = dict(labels) if labels else {}
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """A value that goes up and down (or tracks a high-water mark).

    Worker snapshots fold into a parent registry by max.
    """

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict | None = None):
        self.name = name
        self.labels = dict(labels) if labels else {}
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount=1) -> None:
        self.value += amount

    def dec(self, amount=1) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram with Prometheus ``le`` semantics.

    ``bounds`` are inclusive upper bounds in ascending order; an
    implicit +Inf bucket catches everything above the last bound.
    ``bucket_counts`` has ``len(bounds) + 1`` entries.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count", "total")

    def __init__(self, name: str, bounds, labels: dict | None = None):
        bounds = tuple(bounds)
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram {name} bounds must be ascending")
        self.name = name
        self.labels = dict(labels) if labels else {}
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0

    def observe(self, value) -> None:
        # bisect_left: a value exactly equal to a bound belongs in that
        # bound's bucket (le = "less than or equal"); a value above the
        # last bound falls through to the +Inf bucket at index len(bounds).
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value


class MetricsRegistry:
    """Get-or-create registry of named (and optionally labelled) metrics."""

    def __init__(self):
        self._metrics: dict[tuple[str, tuple], Counter | Gauge | Histogram] = {}

    # -- get-or-create -----------------------------------------------------

    def _get(self, cls, name: str, labels: dict | None):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, labels)
            self._metrics[key] = metric
            return metric
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str, labels: dict | None = None) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, labels: dict | None = None) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, bounds, labels: dict | None = None) -> Histogram:
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = Histogram(name, bounds, labels)
            self._metrics[key] = metric
            return metric
        if not isinstance(metric, Histogram):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not Histogram"
            )
        if metric.bounds != tuple(bounds):
            raise ValueError(
                f"histogram {name!r} re-registered with different buckets"
            )
        return metric

    # -- lookup ------------------------------------------------------------

    def get(self, name: str, labels: dict | None = None):
        return self._metrics.get((name, _label_key(labels)))

    def value(self, name: str, labels: dict | None = None, default=0):
        metric = self.get(name, labels)
        return metric.value if metric is not None else default

    def __iter__(self):
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    # -- snapshot / merge --------------------------------------------------

    def snapshot(self) -> dict:
        """A plain-JSON view a worker ships to the parent registry."""
        counters, gauges, histograms = [], [], []
        for metric in self._metrics.values():
            if isinstance(metric, Counter):
                counters.append(
                    {"name": metric.name, "labels": metric.labels,
                     "value": metric.value}
                )
            elif isinstance(metric, Gauge):
                gauges.append(
                    {"name": metric.name, "labels": metric.labels,
                     "value": metric.value}
                )
            else:
                histograms.append(
                    {
                        "name": metric.name,
                        "labels": metric.labels,
                        "bounds": list(metric.bounds),
                        "bucket_counts": list(metric.bucket_counts),
                        "count": metric.count,
                        "total": metric.total,
                    }
                )
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def merge(self, snapshot: dict) -> None:
        """Fold a worker snapshot in: counters/buckets add, gauges take
        the max."""
        for data in snapshot.get("counters", ()):
            self.counter(data["name"], data["labels"] or None).inc(data["value"])
        for data in snapshot.get("gauges", ()):
            gauge = self.gauge(data["name"], data["labels"] or None)
            gauge.value = max(gauge.value, data["value"])
        for data in snapshot.get("histograms", ()):
            hist = self.histogram(
                data["name"], data["bounds"], data["labels"] or None
            )
            for i, n in enumerate(data["bucket_counts"]):
                hist.bucket_counts[i] += n
            hist.count += data["count"]
            hist.total += data["total"]

    # -- exporters ---------------------------------------------------------

    def to_jsonable(self) -> dict:
        return self.snapshot()

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_jsonable(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def _prom_name(name: str) -> str:
        return re.sub(r"[^a-zA-Z0-9_:]", "_", name)

    @staticmethod
    def _prom_label_value(value) -> str:
        """Escape a label value per the Prometheus exposition spec:
        backslash, double-quote, and line-feed — in that order, so the
        escape character itself is escaped first. An unescaped newline
        (e.g. from a hypercall arg repr) would otherwise split the
        sample line and corrupt the whole scrape."""
        return (
            str(value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
        )

    @classmethod
    def _prom_labels(cls, labels: dict, extra: dict | None = None) -> str:
        merged = dict(labels)
        if extra:
            merged.update(extra)
        if not merged:
            return ""
        body = ",".join(
            f'{k}="{cls._prom_label_value(v)}"'
            for k, v in sorted(merged.items())
        )
        return "{" + body + "}"

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format.

        The telemetry server renders this while the engine's merges
        register new labelled metrics, so the metrics are copied in one
        C call before the loop walks them.
        """
        by_name: dict[str, list] = {}
        for metric in list(self._metrics.values()):
            by_name.setdefault(self._prom_name(metric.name), []).append(metric)
        lines: list[str] = []
        for name in sorted(by_name):
            group = by_name[name]
            kinds = {
                "counter" if isinstance(m, Counter)
                else "gauge" if isinstance(m, Gauge)
                else "histogram"
                for m in group
            }
            if len(kinds) > 1:
                raise TypeError(f"metric name {name!r} used with two types")
            lines.append(f"# TYPE {name} {kinds.pop()}")
            for metric in group:
                self._prom_metric_lines(lines, name, metric)
        return "\n".join(lines) + "\n"

    def _prom_metric_lines(self, lines: list[str], name: str, metric) -> None:
        if isinstance(metric, (Counter, Gauge)):
            lines.append(
                f"{name}{self._prom_labels(metric.labels)} {metric.value}"
            )
            return
        cumulative = 0
        for bound, n in zip(metric.bounds, metric.bucket_counts):
            cumulative += n
            lines.append(
                f"{name}_bucket"
                f"{self._prom_labels(metric.labels, {'le': bound})}"
                f" {cumulative}"
            )
        lines.append(
            f"{name}_bucket"
            f"{self._prom_labels(metric.labels, {'le': '+Inf'})}"
            f" {metric.count}"
        )
        lines.append(
            f"{name}_sum{self._prom_labels(metric.labels)} {metric.total}"
        )
        lines.append(
            f"{name}_count{self._prom_labels(metric.labels)} {metric.count}"
        )
