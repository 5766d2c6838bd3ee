"""The run record: one directory a run leaves, one loader that reads it.

``--obs-out DIR`` on ``demo`` / ``sweep`` / ``scale`` / ``ft demo`` /
``batch`` makes the command write what it observed into ``DIR`` under
fixed file names — ``audit.jsonl``, ``spans.jsonl``, ``timeseries.jsonl``
and ``forensics.jsonl`` at level ``run``, ``metrics.prom`` and
``trace.json`` too at level ``full``, ``profile.pstats`` under
``--profile``, and always ``manifest.json`` — and ``repro obs report
DIR`` reads it back (docs/observability.md, "The run record").

``manifest.json`` is written last, so a directory without one is a run
that did not finish.  It holds the schema version, the package version,
the command line, chain / platform / seed, a hash of the cost model, the
level and, per surface, either ``{"file", "records"}`` or ``"not fed"`` —
the command enabled the surface but nothing reached it, and no file was
written.  It holds no clock and no host name: two runs of one command
leave byte-identical directories.

Every failure to read a record back — no directory, no manifest, an
unknown schema, an empty or truncated file, a record count that is not
the manifest's — is a :class:`ValueError` naming the path, which the CLI
prints as one stderr line before exiting 2.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.promexport import parse_prometheus, write_prometheus
from repro.obs.registry import _render_key

SCHEMA_VERSION = 1
MANIFEST = "manifest.json"
NOT_FED = "not fed"
#: ``run``: the surfaces that consume the finished run or sampled flows,
#: so the route and every simulated number stay put.  ``full`` adds the
#: registry and the packet tracer, which put a run on the per-packet
#: pass and the discrete-event engine.
LEVELS = ("run", "full")
#: one encoder for every row (``json.dumps(row, sort_keys=True)`` builds one a call)
_ROW_ENCODER = json.JSONEncoder(sort_keys=True)


# -- reading -------------------------------------------------------------------


def _read(path) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise ValueError(f"{path}: cannot read: {exc.strerror or exc}") from exc


def load_jsonl(path) -> List[Dict[str, Any]]:
    """Read a JSONL artifact into dicts.  A line that is not valid JSON (a
    truncated write leaves a partial final line) is a :class:`ValueError`
    naming path and 1-based line; so is a file that cannot be read or
    holds no record at all (the writer never leaves an empty file)."""
    records: List[Dict[str, Any]] = []
    for lineno, line in enumerate(_read(path).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}:{lineno}: invalid JSONL (truncated write?): {exc.msg}"
            ) from exc
    if not records:
        raise ValueError(f"{path}: empty artifact — no JSONL records")
    return records


def dump_jsonl(path, rows) -> int:
    """Write ``rows`` as one sorted JSON object per line (what
    :func:`load_jsonl` reads); returns how many."""
    lines = [_ROW_ENCODER.encode(row) + "\n" for row in rows]
    with open(path, "w") as handle:
        handle.write("".join(lines))
    return len(lines)


def load_metrics(path) -> Dict[str, float]:
    """``metrics.prom`` as ``MetricsRegistry.snapshot()`` spelled it live.

    The exposition sorts a bucket's ``le`` among the other labels and
    writes the bound in full; the snapshot keeps ``le`` last and formats
    it ``%g``.
    """
    try:
        parsed = parse_prometheus(_read(path))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    out: Dict[str, float] = {}
    for name, labels, value in parsed.samples:
        bound = dict(labels).get("le")
        if bound is not None:
            if bound != "+Inf":
                bound = f"{float(bound):g}"
            labels = tuple(pair for pair in labels if pair[0] != "le") + (("le", bound),)
        out[_render_key(name, labels)] = value
    return out


def _present(path) -> None:
    # trace.json and profile.pstats are Perfetto's and pstats.Stats's to parse
    if not path.is_file() or not path.stat().st_size:
        raise ValueError(f"{path}: missing or empty")


#: surface -> (file name, what reads it back)
SURFACES = {
    "audit": ("audit.jsonl", load_jsonl),
    "spans": ("spans.jsonl", load_jsonl),
    "timeseries": ("timeseries.jsonl", load_jsonl),
    "forensics": ("forensics.jsonl", load_jsonl),
    "metrics": ("metrics.prom", load_metrics),
    "trace": ("trace.json", _present),
    "profile": ("profile.pstats", _present),
}


@dataclass
class RunRecord:
    """A loaded record: the manifest, and each surface's rows (``None``
    when the manifest says the surface was not fed, or does not list it)."""

    path: Path
    manifest: Dict[str, Any]
    audit: Optional[List[Dict[str, Any]]] = None
    spans: Optional[List[Dict[str, Any]]] = None
    timeseries: Optional[List[Dict[str, Any]]] = None
    #: grouped by row type, as :func:`repro.obs.forensics.group_forensics_rows` does
    forensics: Optional[Dict[str, Any]] = None
    metrics: Optional[Dict[str, float]] = None


def load_record(directory) -> RunRecord:
    """Read a run record back.  Every way this can fail is a
    ``ValueError`` that names the path."""
    from repro.obs.forensics import group_forensics_rows

    root = Path(directory)
    manifest_path = root / MANIFEST
    if not root.is_dir():
        raise ValueError(f"{root}: not a run record (no such directory)")
    if not manifest_path.is_file():
        raise ValueError(
            f"{manifest_path}: no manifest — not a run record, or the run that "
            f"was writing it did not finish"
        )
    try:
        manifest = json.loads(manifest_path.read_text())
        schema, surfaces = manifest["schema"], manifest["surfaces"]
        if schema != SCHEMA_VERSION:
            raise ValueError(f"schema version {schema!r}, this reader knows {SCHEMA_VERSION}")
        fed = [
            (surface, SURFACES[surface][1], root / entry["file"], entry["records"])
            for surface, entry in surfaces.items()
            if entry != NOT_FED
        ]
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ValueError(f"{manifest_path}: not a manifest this reader knows: {exc}") from exc
    loaded: Dict[str, Any] = {}
    for surface, read, path, records in fed:
        rows = read(path)
        if rows is not None:
            if len(rows) != records:
                raise ValueError(
                    f"{path}: {len(rows)} records, the manifest says {records} "
                    f"(truncated write?)"
                )
            loaded[surface] = rows
    if "forensics" in loaded:
        loaded["forensics"] = group_forensics_rows(loaded["forensics"])
    return RunRecord(path=root, manifest=manifest, **loaded)


# -- writing -------------------------------------------------------------------


def write_record(
    directory,
    obs,
    *,
    level: str,
    argv: Sequence[str],
    run: Dict[str, Any],
    cost_model,
    profiler=None,
) -> Dict[str, Any]:
    """Write ``obs``'s surfaces into ``directory`` and return the manifest.

    ``obs`` is the command's ``ObsBundle``, each recorder writing its own
    file through its ``write_*`` method; ``run`` is what the command
    knows about itself (command, chain, platform, seed).  A surface the
    run never fed gets ``"not fed"`` and no file.  What an earlier record
    left in the directory goes first, its manifest before anything else.
    """
    import hashlib  # OpenSSL: only a run that records pays for loading it
    from repro import __version__  # the package imports this module

    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    for name in (MANIFEST, *(name for name, __ in SURFACES.values())):
        (root / name).unlink(missing_ok=True)
    surfaces: Dict[str, Any] = {}

    def put(surface: str, recorder, write, fed=len) -> None:
        """``write(recorder, path)`` returns the number of records written."""
        if recorder is not None and fed(recorder):
            path = root / SURFACES[surface][0]
            surfaces[surface] = {"file": path.name, "records": write(recorder, path)}
        else:
            surfaces[surface] = NOT_FED

    def jsonl(recorder, path) -> int:
        return recorder.write_jsonl(path)

    if obs.timeseries is not None:
        obs.timeseries.finish()
    put("audit", obs.audit, jsonl)
    put("spans", obs.spans, jsonl)
    put("timeseries", obs.timeseries, jsonl)
    put("forensics", obs.forensics, jsonl, fed=lambda engine: engine.runs or engine.stall_records)
    if level == "full":
        put("metrics", obs.metrics, write_prometheus)
        if obs.spans is not None:
            obs.spans.replay_into(obs.tracer)
        put("trace", obs.tracer, lambda tracer, path: tracer.write_chrome(path))
    if profiler is not None:
        # The profile is the run's: stop it before it times its own dump.
        profiler.disable()
        name = SURFACES["profile"][0]
        profiler.dump_stats(root / name)
        surfaces["profile"] = {"file": name, "records": len(profiler.stats)}
    manifest = {
        "schema": SCHEMA_VERSION,
        "version": __version__,
        "argv": list(argv),
        **run,
        # a short digest of every cost constant (the model is a dataclass)
        "cost_model": hashlib.sha256(
            json.dumps(dataclasses.asdict(cost_model), sort_keys=True).encode()
        ).hexdigest()[:16],
        "level": level,
        "surfaces": surfaces,
    }
    (root / MANIFEST).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def describe(manifest: Dict[str, Any]) -> str:
    """``audit 39, spans 256, timeseries not fed, ...`` for a status line."""
    return ", ".join(
        f"{surface} {entry if entry == NOT_FED else entry['records']}"
        for surface, entry in manifest["surfaces"].items()
    )
