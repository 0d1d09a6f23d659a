"""Prometheus text exposition: histograms, the renderer, and a linter.

The service's ``/metrics`` endpoint keeps its JSON body (the existing
dashboards read it) and adds ``?format=prometheus``, rendered here.  The
renderer is deliberately tiny — counters, gauges, and cumulative
histograms in the text format every scraper understands — plus OpenMetrics
style exemplars on histogram buckets, which carry the trace id of the
last request observed in each latency bucket straight into the metrics
backend.

:func:`lint_exposition` is the minimal parser the CI ``obs`` job runs
against a live scrape: every sample must belong to a family with exactly
one ``# HELP`` and one ``# TYPE`` line, metric families must not repeat,
histograms must be complete (``_bucket`` series ending at ``le="+Inf"``
plus ``_sum``/``_count``), and no two samples may share a name+labels
pair.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import InvalidParameterError

#: Latency buckets (seconds) for request histograms: sub-ms to 10 s.
LATENCY_BUCKETS_S = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                     0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class Histogram:
    """A cumulative-bucket histogram with per-bucket exemplars.

    Not internally locked: the owner (``ServiceMetrics``) already
    serializes every mutation and snapshot under its own mutex, and
    double-locking the hot request path buys nothing.

    Non-finite observations are dropped (they would poison ``_sum`` and
    every percentile derived downstream) — the same policy as
    :func:`repro.stats.timing.percentile`.
    """

    def __init__(self, buckets: Sequence[float]):
        bounds = [float(b) for b in buckets]
        if not bounds:
            raise InvalidParameterError("histogram needs at least one bucket")
        if sorted(bounds) != bounds or len(set(bounds)) != len(bounds):
            raise InvalidParameterError(
                "histogram buckets must be strictly increasing"
            )
        if not all(math.isfinite(b) for b in bounds):
            raise InvalidParameterError(
                "histogram buckets must be finite (+Inf is implicit)"
            )
        self.bounds = tuple(bounds)
        # One count per finite bucket plus the implicit +Inf bucket.
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._dropped = 0
        #: Last (exemplar label value, observed value) seen per bucket.
        self._exemplars: List[Optional[Tuple[str, float]]] = \
            [None] * (len(bounds) + 1)

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        value = float(value)
        if not math.isfinite(value):
            self._dropped += 1
            return
        idx = bisect_left(self.bounds, value)
        self._counts[idx] += 1
        self._sum += value
        self._count += 1
        if exemplar is not None:
            self._exemplars[idx] = (str(exemplar), value)

    def snapshot(self) -> dict:
        """Cumulative bucket counts plus sum/count (JSON- and prom-ready)."""
        cumulative = []
        running = 0
        for i, bound in enumerate(self.bounds):
            running += self._counts[i]
            cumulative.append({"le": bound, "count": running,
                               "exemplar": self._exemplars[i]})
        running += self._counts[-1]
        cumulative.append({"le": math.inf, "count": running,
                           "exemplar": self._exemplars[-1]})
        return {"buckets": cumulative, "sum": self._sum,
                "count": self._count, "dropped_non_finite": self._dropped}


def _fmt(value: float) -> str:
    """A Prometheus-parseable number (``+Inf``/``-Inf``/``NaN`` aware)."""
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _labels_str(labels: Optional[Dict[str, str]]) -> str:
    if not labels:
        return ""
    parts = []
    for key in labels:
        if not _LABEL_RE.match(key):
            raise InvalidParameterError(f"bad prometheus label name {key!r}")
        parts.append(f'{key}="{_escape_label(labels[key])}"')
    return "{" + ",".join(parts) + "}"


class Exposition:
    """Builds one scrape body; families render in registration order."""

    def __init__(self):
        #: name -> (type, help, [(suffix, labels, value, exemplar)])
        self._families: Dict[str, tuple] = {}
        self._order: List[str] = []

    def _family(self, name: str, kind: str, help_text: str) -> list:
        if not _NAME_RE.match(name):
            raise InvalidParameterError(f"bad prometheus metric name {name!r}")
        if name not in self._families:
            self._families[name] = (kind, help_text, [])
            self._order.append(name)
        existing_kind, _, samples = self._families[name]
        if existing_kind != kind:
            raise InvalidParameterError(
                f"metric {name} registered as both {existing_kind} and {kind}"
            )
        return samples

    def counter(self, name: str, help_text: str, value: float,
                labels: Optional[Dict[str, str]] = None) -> None:
        _labels_str(labels)  # validate label names eagerly
        self._family(name, "counter", help_text).append(
            ("", labels, value, None))

    def gauge(self, name: str, help_text: str, value: float,
              labels: Optional[Dict[str, str]] = None) -> None:
        _labels_str(labels)  # validate label names eagerly
        self._family(name, "gauge", help_text).append(
            ("", labels, value, None))

    def histogram(self, name: str, help_text: str, snapshot: dict,
                  labels: Optional[Dict[str, str]] = None) -> None:
        """One histogram family from a :meth:`Histogram.snapshot` dict."""
        _labels_str(labels)  # validate label names eagerly
        samples = self._family(name, "histogram", help_text)
        base = dict(labels or {})
        for bucket in snapshot["buckets"]:
            bucket_labels = dict(base, le=_fmt(bucket["le"]))
            samples.append(("_bucket", bucket_labels, bucket["count"],
                            bucket.get("exemplar")))
        samples.append(("_sum", base or None, snapshot["sum"], None))
        samples.append(("_count", base or None, snapshot["count"], None))

    def render(self) -> str:
        lines: List[str] = []
        for name in self._order:
            kind, help_text, samples = self._families[name]
            help_line = (str(help_text).replace("\\", r"\\")
                         .replace("\n", r"\n"))
            lines.append(f"# HELP {name} {help_line}")
            lines.append(f"# TYPE {name} {kind}")
            for suffix, labels, value, exemplar in samples:
                line = f"{name}{suffix}{_labels_str(labels)} {_fmt(value)}"
                if exemplar is not None:
                    ex_id, ex_value = exemplar
                    line += (f' # {{trace_id="{_escape_label(ex_id)}"}}'
                             f" {_fmt(ex_value)}")
                lines.append(line)
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# the minimal lint parser (CI runs this against a live scrape)
# ----------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r"\s+(?P<value>[^\s#]+)"
    r"(?P<exemplar>\s+#\s+\{[^}]*\}\s+\S+(\s+\S+)?)?\s*$"
)

_HIST_SUFFIXES = ("_bucket", "_sum", "_count")


def _base_name(sample_name: str, histogram_families: set) -> str:
    for suffix in _HIST_SUFFIXES:
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if base in histogram_families:
                return base
    return sample_name


def lint_exposition(text: str) -> List[str]:
    """Validate one scrape body; returns problems (empty list = clean)."""
    problems: List[str] = []
    helped: set = set()
    typed: Dict[str, str] = {}
    seen_series: set = set()
    histograms: set = set()
    sampled: set = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line.split(None, 3)
            if len(parts) < 4:
                problems.append(f"line {lineno}: HELP without text")
                continue
            name = parts[2]
            if name in helped:
                problems.append(f"line {lineno}: duplicate HELP for {name}")
            helped.add(name)
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                problems.append(f"line {lineno}: malformed TYPE line")
                continue
            name, kind = parts[2], parts[3]
            if name in typed:
                problems.append(f"line {lineno}: duplicate TYPE for {name}")
            if kind not in ("counter", "gauge", "histogram", "summary",
                            "untyped"):
                problems.append(f"line {lineno}: unknown type {kind!r}")
            typed[name] = kind
            if kind == "histogram":
                histograms.add(name)
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"line {lineno}: unparseable sample: {line!r}")
            continue
        sample_name = match.group("name")
        base = _base_name(sample_name, histograms)
        sampled.add(base)
        if base not in typed:
            problems.append(
                f"line {lineno}: sample {sample_name} has no TYPE"
            )
        if base not in helped:
            problems.append(
                f"line {lineno}: sample {sample_name} has no HELP"
            )
        series = (sample_name, match.group("labels") or "")
        if series in seen_series:
            problems.append(
                f"line {lineno}: duplicate series {sample_name}"
                f"{match.group('labels') or ''}"
            )
        seen_series.add(series)
        value = match.group("value")
        if value not in ("+Inf", "-Inf", "NaN"):
            try:
                float(value)
            except ValueError:
                problems.append(
                    f"line {lineno}: non-numeric value {value!r}"
                )

    for name in histograms:
        if name not in sampled:
            continue
        inf_bucket = any(s[0] == name + "_bucket" and 'le="+Inf"' in s[1]
                         for s in seen_series)
        if not inf_bucket:
            problems.append(f"histogram {name} lacks an le=\"+Inf\" bucket")
        for suffix in ("_sum", "_count"):
            if not any(s[0] == name + suffix for s in seen_series):
                problems.append(f"histogram {name} lacks {name}{suffix}")
    for name in typed:
        if name not in helped:
            problems.append(f"metric {name} has TYPE but no HELP")
    for name in helped:
        if name not in typed:
            problems.append(f"metric {name} has HELP but no TYPE")
    return problems
