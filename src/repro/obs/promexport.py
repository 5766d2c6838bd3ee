"""Prometheus text exposition: render a MetricsRegistry, parse it back.

The registry's internal :meth:`~repro.obs.registry.MetricsRegistry.snapshot`
keys (``name{k=v}``) are diff-friendly but not a scrapeable format —
label values are unquoted and unescaped, and histograms carry no type
metadata.  :func:`render_prometheus` emits the real thing (text format
version 0.0.4):

- ``# HELP`` / ``# TYPE`` headers per metric family;
- label values quoted, with ``\\``, ``"`` and newline escaped;
- histograms as cumulative ``<name>_bucket{le="..."}`` series with an
  explicit ``le="+Inf"`` bucket equal to ``<name>_count``, followed by
  ``<name>_sum`` and ``<name>_count``.

:func:`parse_prometheus` is the matching reader — enough of a scraper
to round-trip the exporter's output (the unit suite feeds one into the
other and asserts sample-level equality plus the histogram invariants:
bucket monotonicity, ``+Inf == count``).  A run record written at
``--obs full`` holds the exposition as ``metrics.prom``, and
:func:`repro.obs.record.load_metrics` reads it back through this parser.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.obs.registry import Counter, Gauge, Histogram, LabelSet, MetricsRegistry

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _unescape_label_value(value: str) -> str:
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
            elif nxt in ('"', "\\"):
                out.append(nxt)
            else:
                out.append(ch)
                out.append(nxt)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _format_labels(labels: LabelSet) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{name}="{_escape_label_value(value)}"' for name, value in labels)
    return f"{{{inner}}}"


def _format_value(value: float) -> str:
    # repr() round-trips through float() exactly; integers stay short.
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_bound(bound: float) -> str:
    return _format_value(bound) if bound != int(bound) else repr(float(bound))


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry as Prometheus text format (one scrape's payload)."""
    lines: List[str] = []
    for instrument in registry.instruments():
        name = instrument.name  # type: ignore[attr-defined]
        help_text = getattr(instrument, "help", "")
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {instrument.kind}")  # type: ignore[attr-defined]
        if isinstance(instrument, (Counter, Gauge)):
            for labels, value in instrument.samples():
                lines.append(f"{name}{_format_labels(labels)} {_format_value(value)}")
        elif isinstance(instrument, Histogram):
            for labels, data in instrument.samples():
                for bound, cumulative in data["buckets"]:  # type: ignore[index]
                    bucket_labels = labels + (("le", _format_bound(bound)),)
                    lines.append(
                        f"{name}_bucket{_format_labels(bucket_labels)} "
                        f"{_format_value(float(cumulative))}"
                    )
                inf_labels = labels + (("le", "+Inf"),)
                count = data["count"]  # type: ignore[index]
                lines.append(
                    f"{name}_bucket{_format_labels(inf_labels)} "
                    f"{_format_value(float(count))}"
                )
                lines.append(
                    f"{name}_sum{_format_labels(labels)} "
                    f"{_format_value(float(data['sum']))}"  # type: ignore[index]
                )
                lines.append(
                    f"{name}_count{_format_labels(labels)} {_format_value(float(count))}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(registry: MetricsRegistry, path) -> int:
    """Write the exposition to a file; returns the sample-line count."""
    payload = render_prometheus(registry)
    with open(path, "w") as handle:
        handle.write(payload)
    return sum(1 for line in payload.splitlines() if line and not line.startswith("#"))


def _split_labels(raw: str) -> LabelSet:
    """Split ``k="v",k2="v2"`` respecting quotes and escapes."""
    labels: List[Tuple[str, str]] = []
    i = 0
    length = len(raw)
    while i < length:
        eq = raw.index("=", i)
        name = raw[i:eq].strip()
        if eq + 1 >= length or raw[eq + 1] != '"':
            raise ValueError(f"unquoted label value at {raw[i:]!r}")
        j = eq + 2
        chunk: List[str] = []
        while j < length:
            ch = raw[j]
            if ch == "\\" and j + 1 < length:
                chunk.append(ch)
                chunk.append(raw[j + 1])
                j += 2
                continue
            if ch == '"':
                break
            chunk.append(ch)
            j += 1
        else:
            raise ValueError(f"unterminated label value in {raw!r}")
        labels.append((name, _unescape_label_value("".join(chunk))))
        i = j + 1
        while i < length and raw[i] in ", ":
            i += 1
    return tuple(sorted(labels))


class ParsedExposition:
    """A parsed scrape: samples + family metadata, with lookup helpers."""

    def __init__(self):
        self.types: Dict[str, str] = {}
        self.helps: Dict[str, str] = {}
        #: (series name, sorted label set, value) in document order
        self.samples: List[Tuple[str, LabelSet, float]] = []

    def value(self, name: str, **labels: object) -> Optional[float]:
        want = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
        for sample_name, sample_labels, value in self.samples:
            if sample_name == name and sample_labels == want:
                return value
        return None

    def series(self, name: str) -> List[Tuple[LabelSet, float]]:
        return [(labels, value) for n, labels, value in self.samples if n == name]

    def names(self) -> List[str]:
        seen: Dict[str, None] = {}
        for name, __, __unused in self.samples:
            seen.setdefault(name, None)
        return list(seen)

    def __len__(self) -> int:
        return len(self.samples)


def parse_prometheus(text: str) -> ParsedExposition:
    """Parse text-format exposition (the exporter's output) back."""
    parsed = ParsedExposition()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 4 and parts[1] == "TYPE":
                parsed.types[parts[2]] = parts[3].strip()
            elif len(parts) >= 3 and parts[1] == "HELP":
                parsed.helps[parts[2]] = parts[3].strip() if len(parts) > 3 else ""
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: unparseable sample {line!r}")
        raw_labels = match.group("labels")
        labels = _split_labels(raw_labels) if raw_labels else ()
        parsed.samples.append((match.group("name"), labels, float(match.group("value"))))
    return parsed
