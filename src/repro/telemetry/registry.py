"""Dependency-free metrics registry with Prometheus text exposition.

The service needs fleet-wide visibility into where worlds, bytes, and
milliseconds go (sampling dominates the paper's cost model), but the
repo is deliberately dependency-free — so this module implements the
small slice of a metrics client that the repro stack actually uses:

* **Counter** — monotone float total, optionally labeled.
* **Gauge** — instantaneous float value, optionally labeled.
* **Histogram** — fixed upper-bound buckets plus ``_sum``/``_count``;
  bucket edges are pinned at family creation and never change.
* **Label cardinality cap** — each family accepts at most
  ``max_label_sets`` distinct label-value tuples; later tuples are
  deterministically folded into a single overflow series whose every
  label value is ``"other"``.  First-come label sets win, so a scrape
  can never explode because a client sent unbounded label values.
* **Cross-process aggregation** — :meth:`MetricsRegistry.take_delta`
  snapshots the registry and returns only the movement since the last
  call (counters and histograms; gauges are process-local), and
  :meth:`MetricsRegistry.merge_delta` folds such a delta — shipped
  over the service's existing worker event queue — into the parent
  registry so ``GET /v1/metrics`` reflects the whole fleet.
* **Collectors** — callbacks invoked at snapshot/render time, used to
  mirror an authoritative stats source (e.g. ``OracleCache.stats()``)
  into metric series through one code path so the two views cannot
  drift.

Everything is guarded by one registry lock; the hot path (a labeled
counter ``inc``) is a dict lookup plus a float add, cheap enough to
leave on unconditionally.

>>> reg = MetricsRegistry()
>>> c = reg.counter("repro_demo_total", "Demo counter.", ("kind",))
>>> c.labels(kind="a").inc()
>>> c.labels(kind="a").inc(2.0)
>>> reg.value("repro_demo_total", {"kind": "a"})
3.0
>>> "repro_demo_total{kind=\\"a\\"} 3" in reg.render()
True
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "DEFAULT_MAX_LABEL_SETS",
    "OVERFLOW_LABEL",
]

#: Default histogram upper bounds (seconds) — tuned for request / job
#: latencies from sub-millisecond cache hits to multi-second clustering.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default per-family cap on distinct label-value tuples.
DEFAULT_MAX_LABEL_SETS = 64

#: Label value that absorbs series beyond the cardinality cap.
OVERFLOW_LABEL = "other"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    as_int = int(value)
    if float(as_int) == value:
        return str(as_int)
    return repr(value)


def _label_suffix(labelnames: Sequence[str], labelvalues: Sequence[str],
                  extra: tuple[str, str] | None = None) -> str:
    pairs = [(n, v) for n, v in zip(labelnames, labelvalues)]
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{n}="{_escape_label(str(v))}"' for n, v in pairs)
    return "{" + body + "}"


class _CounterChild:
    """One labeled series of a counter family."""

    __slots__ = ("_family", "value")

    def __init__(self, family: "Counter") -> None:
        self._family = family
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._family._registry._lock:
            self.value += amount

    def set_total(self, value: float) -> None:
        """Overwrite the running total (collector mirroring only)."""
        with self._family._registry._lock:
            self.value = float(value)


class _GaugeChild:
    __slots__ = ("_family", "value")

    def __init__(self, family: "Gauge") -> None:
        self._family = family
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._family._registry._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._family._registry._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class _HistogramChild:
    __slots__ = ("_family", "counts", "sum", "count")

    def __init__(self, family: "Histogram") -> None:
        self._family = family
        self.counts = [0] * (len(family.buckets) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        idx = bisect_left(self._family.buckets, value)
        with self._family._registry._lock:
            self.counts[idx] += 1
            self.sum += value
            self.count += 1


class _Family:
    """Shared machinery: child cache keyed by label values, with cap."""

    kind = "untyped"
    _child_cls: type = object

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 labelnames: Sequence[str], max_label_sets: int,
                 local_only: bool = False) -> None:
        self._registry = registry
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.max_label_sets = max_label_sets
        self.local_only = local_only
        self._children: dict[tuple[str, ...], object] = {}
        if not self.labelnames:
            self._children[()] = self._child_cls(self)

    def labels(self, **labelvalues: object):
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[n]) for n in self.labelnames)
        child = self._children.get(key)
        if child is not None:
            return child
        with self._registry._lock:
            child = self._children.get(key)
            if child is not None:
                return child
            overflow_key = (OVERFLOW_LABEL,) * len(self.labelnames)
            if (len(self._children) >= self.max_label_sets
                    and key != overflow_key):
                key = overflow_key
                child = self._children.get(key)
                if child is not None:
                    return child
            child = self._child_cls(self)
            self._children[key] = child
            return child

    def _unlabeled(self):
        if self.labelnames:
            raise ValueError(f"{self.name} is labeled; use .labels()")
        return self._children[()]


class Counter(_Family):
    kind = "counter"
    _child_cls = _CounterChild

    def inc(self, amount: float = 1.0) -> None:
        self._unlabeled().inc(amount)

    def set_total(self, value: float) -> None:
        self._unlabeled().set_total(value)


class Gauge(_Family):
    kind = "gauge"
    _child_cls = _GaugeChild

    def set(self, value: float) -> None:
        self._unlabeled().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._unlabeled().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._unlabeled().dec(amount)


class Histogram(_Family):
    kind = "histogram"
    _child_cls = _HistogramChild

    def __init__(self, registry, name, help, labelnames, max_label_sets,
                 local_only: bool = False, *,
                 buckets: Sequence[float]) -> None:
        edges = tuple(float(b) for b in buckets)
        if list(edges) != sorted(set(edges)):
            raise ValueError("histogram buckets must be sorted and unique")
        self.buckets = edges
        super().__init__(registry, name, help, labelnames, max_label_sets,
                         local_only)

    def observe(self, value: float) -> None:
        self._unlabeled().observe(value)


class MetricsRegistry:
    """A process-local family store that can render, diff, and merge.

    >>> reg = MetricsRegistry()
    >>> h = reg.histogram("repro_demo_seconds", "Demo.", buckets=(0.1, 1.0))
    >>> h.observe(0.05); h.observe(5.0)
    >>> snap = reg.snapshot()
    >>> snap["histograms"]["repro_demo_seconds"][()]["count"]
    2
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: dict[str, _Family] = {}
        self._collectors: list[Callable[[], None]] = []
        # Cumulative totals already shipped via take_delta().
        self._shipped: dict[tuple[str, tuple[str, ...]], object] = {}
        # Fleet deltas folded in via merge_delta(), keyed by source id.
        self._merged_counters: dict[tuple[str, tuple[str, ...]], float] = {}
        self._merged_hists: dict[tuple[str, tuple[str, ...]], dict] = {}

    # -- family constructors ------------------------------------------------

    def _register(self, cls, name: str, help: str, labelnames: Sequence[str],
                  max_label_sets: int, local_only: bool = False,
                  **kwargs) -> _Family:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                    raise ValueError(f"metric {name!r} re-registered with a different shape")
                return existing
            family = cls(self, name, help, labelnames, max_label_sets,
                         local_only, **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str, labelnames: Sequence[str] = (),
                *, max_label_sets: int = DEFAULT_MAX_LABEL_SETS,
                local_only: bool = False) -> Counter:
        """``local_only`` families are excluded from :meth:`take_delta` —
        use it for series mirrored from an authoritative per-process
        source (e.g. cache stats), which must not be fleet-summed."""
        return self._register(Counter, name, help, labelnames,
                              max_label_sets, local_only)

    def gauge(self, name: str, help: str, labelnames: Sequence[str] = (),
              *, max_label_sets: int = DEFAULT_MAX_LABEL_SETS) -> Gauge:
        return self._register(Gauge, name, help, labelnames, max_label_sets)

    def histogram(self, name: str, help: str, labelnames: Sequence[str] = (),
                  *, buckets: Sequence[float] = DEFAULT_BUCKETS,
                  max_label_sets: int = DEFAULT_MAX_LABEL_SETS) -> Histogram:
        return self._register(Histogram, name, help, labelnames,
                              max_label_sets, buckets=buckets)

    # -- collectors ---------------------------------------------------------

    def register_collector(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` before every read (value, snapshot, render).

        Collectors mirror an authoritative source (e.g. cache stats)
        into series via ``set_total``/``set`` so scrape output and the
        source endpoint share one code path.  :meth:`take_delta` does
        not run them: they fill local-only and gauge series, which no
        delta ships.
        """
        with self._lock:
            self._collectors.append(fn)

    def _collect(self) -> None:
        for fn in list(self._collectors):
            fn()

    # -- reading ------------------------------------------------------------

    def value(self, name: str, labels: Mapping[str, str] | None = None) -> float:
        """Current value of one counter/gauge series (fleet-merged)."""
        self._collect()
        family = self._families[name]
        key = tuple(str((labels or {})[n]) for n in family.labelnames)
        with self._lock:
            child = family._children.get(key)
            local = child.value if child is not None else 0.0
            if isinstance(family, Counter):
                local += self._merged_counters.get((name, key), 0.0)
            return local

    def histogram_value(self, name: str, labels: Mapping[str, str] | None = None) -> dict:
        """``{"count": n, "sum": s}`` for one histogram series (fleet-merged)."""
        self._collect()
        family = self._families[name]
        key = tuple(str((labels or {})[n]) for n in family.labelnames)
        with self._lock:
            count, total = 0, 0.0
            child = family._children.get(key)
            if child is not None:
                count, total = child.count, child.sum
            merged = self._merged_hists.get((name, key))
            if merged is not None:
                count += merged["count"]
                total += merged["sum"]
            return {"count": count, "sum": total}

    def snapshot(self) -> dict:
        """Plain-dict view: ``{"counters": .., "gauges": .., "histograms": ..}``.

        Counter and histogram series include fleet deltas merged from
        workers; gauges are process-local.
        """
        self._collect()
        with self._lock:
            counters: dict[str, dict] = {}
            gauges: dict[str, dict] = {}
            hists: dict[str, dict] = {}
            for name, family in self._families.items():
                if isinstance(family, Counter):
                    out = counters.setdefault(name, {})
                    for key, child in family._children.items():
                        out[key] = child.value + self._merged_counters.get((name, key), 0.0)
                    for (mname, key), value in self._merged_counters.items():
                        if mname == name and key not in out:
                            out[key] = value
                elif isinstance(family, Gauge):
                    gauges[name] = {k: c.value for k, c in family._children.items()}
                elif isinstance(family, Histogram):
                    out = hists.setdefault(name, {})
                    for key, child in family._children.items():
                        out[key] = {"buckets": list(child.counts),
                                    "sum": child.sum, "count": child.count}
                    for (mname, key), merged in self._merged_hists.items():
                        if mname != name:
                            continue
                        cell = out.get(key)
                        if cell is None:
                            out[key] = {"buckets": list(merged["buckets"]),
                                        "sum": merged["sum"], "count": merged["count"]}
                        else:
                            cell["buckets"] = [a + b for a, b in
                                               zip(cell["buckets"], merged["buckets"])]
                            cell["sum"] += merged["sum"]
                            cell["count"] += merged["count"]
            return {"counters": counters, "gauges": gauges, "histograms": hists}

    # -- Prometheus text ----------------------------------------------------

    def render(self) -> str:
        """Prometheus text exposition (version 0.0.4) of every family."""
        snap = self.snapshot()
        lines: list[str] = []
        with self._lock:
            families = dict(self._families)
        for name in sorted(families):
            family = families[name]
            lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            if isinstance(family, Histogram):
                for key in sorted(snap["histograms"].get(name, {})):
                    cell = snap["histograms"][name][key]
                    cumulative = 0
                    for edge, bucket_count in zip(
                            (*family.buckets, float("inf")), cell["buckets"]):
                        cumulative += bucket_count
                        suffix = _label_suffix(family.labelnames, key,
                                               ("le", _format_value(edge)))
                        lines.append(f"{name}_bucket{suffix} {cumulative}")
                    suffix = _label_suffix(family.labelnames, key)
                    lines.append(f"{name}_sum{suffix} {_format_value(cell['sum'])}")
                    lines.append(f"{name}_count{suffix} {cell['count']}")
            else:
                table = (snap["counters"] if isinstance(family, Counter)
                         else snap["gauges"]).get(name, {})
                for key in sorted(table):
                    suffix = _label_suffix(family.labelnames, key)
                    lines.append(f"{name}{suffix} {_format_value(table[key])}")
        return "\n".join(lines) + "\n"

    # -- cross-process shipping --------------------------------------------

    def take_delta(self) -> dict:
        """Movement in counters/histograms since the previous call.

        The returned dict is self-describing (family shape rides along)
        so a receiving registry can merge it without having imported
        the modules that defined the families.  Gauges are excluded —
        they are instantaneous and process-local — and so are
        ``local_only`` families; collectors fill only those two kinds,
        so none is run here.
        """
        delta: dict = {"counters": {}, "histograms": {}}
        with self._lock:
            for name, family in self._families.items():
                if family.local_only:
                    continue
                if isinstance(family, Counter):
                    for key, child in family._children.items():
                        shipped = self._shipped.get((name, key), 0.0)
                        moved = child.value - shipped
                        if moved:
                            delta["counters"].setdefault(name, {
                                "help": family.help,
                                "labelnames": family.labelnames,
                                "series": {},
                            })["series"][key] = moved
                            self._shipped[(name, key)] = child.value
                elif isinstance(family, Histogram):
                    for key, child in family._children.items():
                        shipped = self._shipped.get((name, key))
                        if shipped is None:
                            shipped = {"buckets": [0] * len(child.counts),
                                       "sum": 0.0, "count": 0}
                        moved_count = child.count - shipped["count"]
                        if not moved_count:
                            continue
                        delta["histograms"].setdefault(name, {
                            "help": family.help,
                            "labelnames": family.labelnames,
                            "buckets": family.buckets,
                            "series": {},
                        })["series"][key] = {
                            "buckets": [a - b for a, b in
                                        zip(child.counts, shipped["buckets"])],
                            "sum": child.sum - shipped["sum"],
                            "count": moved_count,
                        }
                        self._shipped[(name, key)] = {
                            "buckets": list(child.counts),
                            "sum": child.sum, "count": child.count,
                        }
        return delta

    def merge_delta(self, delta: Mapping) -> None:
        """Fold a :meth:`take_delta` payload from another process in."""
        with self._lock:
            for name, info in delta.get("counters", {}).items():
                if name not in self._families:
                    self._register(Counter, name, info["help"],
                                   info["labelnames"], DEFAULT_MAX_LABEL_SETS)
                for key, moved in info["series"].items():
                    key = tuple(key)
                    self._merged_counters[(name, key)] = (
                        self._merged_counters.get((name, key), 0.0) + moved)
            for name, info in delta.get("histograms", {}).items():
                if name not in self._families:
                    self._register(Histogram, name, info["help"],
                                   info["labelnames"], DEFAULT_MAX_LABEL_SETS,
                                   buckets=info["buckets"])
                for key, moved in info["series"].items():
                    key = tuple(key)
                    cell = self._merged_hists.get((name, key))
                    if cell is None:
                        self._merged_hists[(name, key)] = {
                            "buckets": list(moved["buckets"]),
                            "sum": moved["sum"], "count": moved["count"],
                        }
                    else:
                        cell["buckets"] = [a + b for a, b in
                                           zip(cell["buckets"], moved["buckets"])]
                        cell["sum"] += moved["sum"]
                        cell["count"] += moved["count"]


def parse_prometheus_text(text: str) -> dict[str, float]:
    """Flatten Prometheus text into ``{"name{labels}": value}``.

    Used by loadgen to embed a scrape in ``BENCH_service.json`` and by
    CI smoke checks; comment lines are dropped.

    >>> parse_prometheus_text('# TYPE x counter\\nx{a="b"} 3\\n')
    {'x{a="b"}': 3.0}
    """
    out: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        try:
            out[series] = float(value)
        except ValueError:
            continue
    return out
