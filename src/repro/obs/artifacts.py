"""Machine-readable run artifacts.

Every simulation can leave a paper trail: a JSON *run manifest* (scheme,
query, system configuration, git revision, wall-clock, all metrics, the
span tree) plus the optional timeline exports.  Artifacts land in a
directory chosen by the caller (``--artifacts DIR`` on the CLI) so that
benchmark sweeps and future regression tooling can diff runs instead of
scraping ASCII tables.

The serializer is deliberately forgiving: dataclasses, enums, mappings,
sequences and objects exposing ``to_dict``/``payload`` all become plain
JSON; anything else falls back to ``repr`` rather than raising mid-run.

Manifest schema history:

* v1 -- initial layout (scheme/query identity, config, metrics, spans,
  ``created_unix`` wall-clock).
* v2 -- added ``created``, the same instant as ``created_unix`` rendered
  as an ISO-8601 UTC timestamp, so humans and log pipelines need no
  epoch conversion.
"""

from __future__ import annotations

import enum
import json
import subprocess
import time
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.results import RunResult
    from .timeline import TimelineRecorder

#: bump when the manifest layout changes incompatibly.
#: v2: ``created`` (ISO-8601 UTC) added next to ``created_unix``.
MANIFEST_SCHEMA_VERSION = 2

_git_describe_cache: dict = {}


def to_jsonable(obj: object) -> object:
    """Recursively convert ``obj`` into JSON-serializable builtins."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return obj.value
    if is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name)) for f in fields(obj)
        }
    if isinstance(obj, Mapping):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [to_jsonable(v) for v in obj]
    for attr in ("to_dict", "payload", "as_dict"):
        method = getattr(obj, attr, None)
        if callable(method):
            return to_jsonable(method())
    return repr(obj)


def iso_utc(unix: Optional[float] = None) -> str:
    """ISO-8601 UTC timestamp (second precision) for ``unix`` / now."""
    if unix is None:
        unix = time.time()
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(unix))


def git_describe(root: Optional[Path] = None) -> Optional[str]:
    """``git describe --always --dirty`` of the repo, None outside git."""
    root = root or Path(__file__).resolve().parents[3]
    key = str(root)
    if key not in _git_describe_cache:
        try:
            out = subprocess.run(
                ["git", "describe", "--always", "--dirty"],
                cwd=root, capture_output=True, text=True, timeout=5,
            )
            _git_describe_cache[key] = (
                out.stdout.strip() if out.returncode == 0 else None
            )
        except (OSError, subprocess.SubprocessError):
            _git_describe_cache[key] = None
    return _git_describe_cache[key]


def _slug(text: str) -> str:
    return "".join(
        ch if ch.isalnum() or ch in "-_." else "-" for ch in text
    ) or "unnamed"


def build_run_manifest(result: "RunResult",
                       extra: Optional[Mapping] = None) -> dict:
    """The JSON payload describing one ``run_query`` outcome."""
    spans = result.spans
    wall_s = spans.wall_s if spans is not None else None
    created_unix = time.time()
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "kind": "run",
        "scheme": result.scheme,
        "query": result.query,
        "created_unix": created_unix,
        "created": iso_utc(created_unix),
        "git": git_describe(),
        "wall_s": wall_s,
        "cycles": result.cycles,
        "ns": result.ns,
        "bus_utilization": result.bus_utilization,
        "selected_records": result.selected_records,
        "result": to_jsonable(result.result),
        "plan": (to_jsonable(result.plan.to_dict())
                 if result.plan is not None else None),
        "config": to_jsonable(result.config),
        "core_stats": to_jsonable(result.core_stats),
        "memory_stats": to_jsonable(result.memory_stats),
        "power": to_jsonable(result.power),
        "metrics": to_jsonable(result.metrics),
        "spans": spans.to_dict() if spans is not None else None,
    }
    if extra:
        manifest.update(to_jsonable(extra))
    return manifest


class ArtifactWriter:
    """Writes JSON / JSONL artifacts into one directory."""

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.written: list = []

    def write_json(self, name: str, payload: object) -> Path:
        path = self.directory / name
        with open(path, "w") as fh:
            json.dump(to_jsonable(payload), fh, indent=2, sort_keys=True)
            fh.write("\n")
        self.written.append(path)
        return path

    def write_run(self, result: "RunResult",
                  timeline: "Optional[TimelineRecorder]" = None,
                  extra: Optional[Mapping] = None) -> Path:
        """Write the run manifest (and the timeline exports, when one was
        recorded)."""
        stem = f"run-{_slug(result.scheme)}-{_slug(result.query)}"
        path = self.write_json(f"{stem}.json", build_run_manifest(
            result, extra=extra
        ))
        if timeline is not None:
            self.write_timeline(timeline, stem)
        return path

    def write_timeline(self, timeline: "TimelineRecorder",
                       stem: str) -> Path:
        """Write the Chrome trace-event JSON (Perfetto-loadable) plus the
        per-command JSONL next to it; returns the trace-event path."""
        path = self.write_json(
            f"{stem}.timeline.json", timeline.to_chrome_trace()
        )
        jsonl = self.directory / f"{stem}.timeline.jsonl"
        timeline.export_jsonl(jsonl)
        self.written.append(jsonl)
        return path
