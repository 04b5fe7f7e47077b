"""Thread-safe metrics primitives with Prometheus and JSON exposition.

The runtime layers emit three shapes of telemetry:

* :class:`Counter` — monotone totals (frames completed, STM puts, slips);
* :class:`Gauge` — point-in-time levels (live items, active schedule id);
* :class:`Histogram` — distributions over fixed bucket boundaries
  (task durations, end-to-end latencies, transfer times).

All three are *families*: a family owns a name, help text and label names,
and hands out one child series per label-value tuple.  A
:class:`MetricsRegistry` owns the families and renders the whole state as
Prometheus text exposition or a JSON-able snapshot.  Registration and
child creation serialize on the registry lock; each child guards its own
values with a private lock, so hot-path updates from concurrent runtime
threads never convoy on one global lock (they did, measurably, in the
threaded tracker).

:func:`parse_prometheus_text` is the inverse of
:meth:`MetricsRegistry.to_prometheus_text` for the sample lines; tests use
it to prove the exposition round-trips, and it doubles as a tiny scrape
parser for the experiments.

"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any, Sequence

from repro.errors import ReproError

__all__ = [
    "MetricsError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_prometheus_text",
    "DEFAULT_BUCKETS",
]

#: Default histogram boundaries (seconds): spans simulated task durations
#: (milliseconds to tens of seconds) without per-metric tuning.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0,
)


class MetricsError(ReproError):
    """Raised on metric misuse (type clash, bad labels, bad values)."""


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(v: float) -> str:
    if v == math.inf:
        return "+Inf"
    if v == -math.inf:
        return "-Inf"
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


class _Family:
    """Common machinery: one child per label-value tuple."""

    kind = "untyped"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: Sequence[str],
    ) -> None:
        self.registry = registry
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: dict[tuple[str, ...], Any] = {}

    def labels(self, *values: Any, **kwvalues: Any):
        """The child series for one label-value combination.

        Accepts positional values (in ``labelnames`` order) or keyword
        values; all values are stringified.  The unlabeled family
        (``labelnames=()``) has exactly one child, ``labels()``.
        """
        if kwvalues:
            if values:
                raise MetricsError(f"{self.name}: mix of positional and keyword labels")
            try:
                values = tuple(kwvalues[n] for n in self.labelnames)
            except KeyError as exc:
                raise MetricsError(
                    f"{self.name}: missing label {exc.args[0]!r} "
                    f"(needs {list(self.labelnames)})"
                ) from None
            if len(kwvalues) != len(self.labelnames):
                extra = set(kwvalues) - set(self.labelnames)
                raise MetricsError(f"{self.name}: unknown labels {sorted(extra)}")
        key = tuple(str(v) for v in values)
        if len(key) != len(self.labelnames):
            raise MetricsError(
                f"{self.name}: got {len(key)} label values for "
                f"{len(self.labelnames)} label names"
            )
        with self.registry._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child(key)
                self._children[key] = child
            return child

    def _make_child(self, key: tuple[str, ...]):  # pragma: no cover - abstract
        raise NotImplementedError

    def series(self) -> list[tuple[tuple[str, ...], Any]]:
        """``(label values, child)`` pairs in creation order."""
        with self.registry._lock:
            return list(self._children.items())

    def _label_suffix(self, key: tuple[str, ...], extra: str = "") -> str:
        parts = [
            f'{n}="{_escape_label(v)}"' for n, v in zip(self.labelnames, key)
        ]
        if extra:
            parts.append(extra)
        return "{" + ",".join(parts) + "}" if parts else ""


class Counter(_Family):
    """A monotonically increasing total."""

    kind = "counter"

    class Child:
        __slots__ = ("_lock", "value")

        def __init__(self) -> None:
            self._lock = threading.Lock()
            self.value = 0.0

        def inc(self, amount: float = 1.0) -> None:
            if amount < 0:
                raise MetricsError(f"counter increment must be >= 0, got {amount}")
            with self._lock:
                self.value += amount

    def _make_child(self, key: tuple[str, ...]) -> "Counter.Child":
        return Counter.Child()

    def inc(self, amount: float = 1.0) -> None:
        """Shorthand for the unlabeled series."""
        self.labels().inc(amount)


class Gauge(_Family):
    """A value that can go up and down."""

    kind = "gauge"

    class Child:
        __slots__ = ("_lock", "value")

        def __init__(self) -> None:
            self._lock = threading.Lock()
            self.value = 0.0

        def set(self, value: float) -> None:
            with self._lock:
                self.value = float(value)

        def inc(self, amount: float = 1.0) -> None:
            with self._lock:
                self.value += amount

        def dec(self, amount: float = 1.0) -> None:
            self.inc(-amount)

    def _make_child(self, key: tuple[str, ...]) -> "Gauge.Child":
        return Gauge.Child()

    def set(self, value: float) -> None:
        """Shorthand for the unlabeled series."""
        self.labels().set(value)


class Histogram(_Family):
    """A distribution over fixed, pre-declared bucket boundaries."""

    kind = "histogram"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(registry, name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise MetricsError(f"{name}: buckets must be non-empty and increasing")
        if not all(math.isfinite(b) for b in bounds):
            raise MetricsError(f"{name}: bucket boundaries must be finite")
        self.buckets = bounds

    class Child:
        __slots__ = ("_lock", "_bounds", "counts", "sum", "count")

        def __init__(self, bounds: tuple[float, ...]) -> None:
            self._lock = threading.Lock()
            self._bounds = bounds
            self.counts = [0] * (len(bounds) + 1)  # last slot = +Inf overflow
            self.sum = 0.0
            self.count = 0

        def observe(self, value: float) -> None:
            if not math.isfinite(value):
                raise MetricsError(f"histogram observation must be finite, got {value}")
            # bisect_left: first bound >= value, i.e. the "value <= le"
            # bucket; past-the-end lands in the +Inf overflow slot.
            i = bisect_left(self._bounds, value)
            with self._lock:
                self.counts[i] += 1
                self.sum += value
                self.count += 1

        def cumulative(self) -> list[int]:
            """Cumulative bucket counts, Prometheus-style (last = count)."""
            with self._lock:
                counts = list(self.counts)
            out, running = [], 0
            for c in counts:
                running += c
                out.append(running)
            return out

        @property
        def mean(self) -> float:
            return self.sum / self.count if self.count else 0.0

    def _make_child(self, key: tuple[str, ...]) -> "Histogram.Child":
        return Histogram.Child(self.buckets)

    def observe(self, value: float) -> None:
        """Shorthand for the unlabeled series."""
        self.labels().observe(value)


class MetricsRegistry:
    """Owner of every metric family; exposition entry point.

    >>> reg = MetricsRegistry()
    >>> reg.counter("frames_total", "Frames completed").inc()
    >>> "frames_total 1" in reg.to_prometheus_text()
    True
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: dict[str, _Family] = {}

    def _register(self, cls, name: str, help: str, labelnames, **kwargs):
        if not name or not name.replace("_", "").replace(":", "").isalnum():
            raise MetricsError(f"invalid metric name {name!r}")
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                    raise MetricsError(
                        f"metric {name!r} already registered as {existing.kind} "
                        f"with labels {existing.labelnames}"
                    )
                return existing
            family = cls(self, name, help, labelnames, **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        """Get-or-create a counter family (idempotent for matching shape)."""
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        """Get-or-create a gauge family."""
        return self._register(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get-or-create a histogram family with fixed bucket boundaries."""
        return self._register(Histogram, name, help, labelnames, buckets=buckets)

    def families(self) -> list[_Family]:
        """All registered families in registration order."""
        with self._lock:
            return list(self._families.values())

    # -- exposition ---------------------------------------------------------

    def to_prometheus_text(self) -> str:
        """Render the registry in Prometheus text exposition format."""
        lines: list[str] = []
        for fam in self.families():
            if fam.help:
                lines.append(f"# HELP {fam.name} {fam.help}")
            lines.append(f"# TYPE {fam.name} {fam.kind}")
            for key, child in fam.series():
                if isinstance(fam, Histogram):
                    cumulative = child.cumulative()
                    for bound, c in zip(fam.buckets, cumulative):
                        suffix = fam._label_suffix(key, f'le="{_format_value(bound)}"')
                        lines.append(f"{fam.name}_bucket{suffix} {c}")
                    suffix = fam._label_suffix(key, 'le="+Inf"')
                    lines.append(f"{fam.name}_bucket{suffix} {cumulative[-1]}")
                    lines.append(
                        f"{fam.name}_sum{fam._label_suffix(key)} "
                        f"{_format_value(child.sum)}"
                    )
                    lines.append(f"{fam.name}_count{fam._label_suffix(key)} {child.count}")
                else:
                    lines.append(
                        f"{fam.name}{fam._label_suffix(key)} {_format_value(child.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict:
        """The registry's full state as a JSON-able dict."""
        out: dict[str, Any] = {}
        with self._lock:
            for fam in self._families.values():
                series = []
                for key, child in fam._children.items():
                    labels = dict(zip(fam.labelnames, key))
                    if isinstance(fam, Histogram):
                        with child._lock:
                            counts, csum, ccount = list(child.counts), child.sum, child.count
                        series.append(
                            {
                                "labels": labels,
                                "buckets": list(fam.buckets),
                                "counts": counts,
                                "sum": csum,
                                "count": ccount,
                            }
                        )
                    else:
                        series.append({"labels": labels, "value": child.value})
                out[fam.name] = {
                    "type": fam.kind,
                    "help": fam.help,
                    "series": series,
                }
        return out

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._families)} families)"


def parse_prometheus_text(text: str) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Parse exposition-format sample lines back into ``{(name, labels): value}``.

    Labels are returned as a sorted tuple of ``(name, value)`` pairs so the
    keys hash.  Comment/TYPE/HELP lines are skipped.  Raises
    :class:`MetricsError` on a malformed sample line, so tests asserting
    "the output parses" mean it.
    """
    samples: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise MetricsError(f"malformed sample line: {raw!r}")
        labels: list[tuple[str, str]] = []
        if "{" in name_part:
            name, _, label_blob = name_part.partition("{")
            if not label_blob.endswith("}"):
                raise MetricsError(f"malformed labels in line: {raw!r}")
            blob = label_blob[:-1]
            i = 0
            while i < len(blob):
                eq = blob.index("=", i)
                lname = blob[i:eq]
                if blob[eq + 1] != '"':
                    raise MetricsError(f"malformed labels in line: {raw!r}")
                j = eq + 2
                chunk: list[str] = []
                while blob[j] != '"':
                    if blob[j] == "\\":
                        nxt = blob[j + 1]
                        chunk.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, nxt))
                        j += 2
                    else:
                        chunk.append(blob[j])
                        j += 1
                labels.append((lname, "".join(chunk)))
                i = j + 1
                if i < len(blob) and blob[i] == ",":
                    i += 1
        else:
            name = name_part
        try:
            value = float(value_part)
        except ValueError:
            raise MetricsError(f"malformed value in line: {raw!r}") from None
        samples[(name, tuple(sorted(labels)))] = value
    return samples

