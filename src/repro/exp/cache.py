"""Content-addressed sweep-result cache.

A sweep point's outcome is a pure function of (the point's data, the
system configuration it names, and the simulator source code).  The cache
key is therefore a SHA-256 over

* the canonical JSON form of the :class:`~repro.exp.spec.SweepPoint`
  (covers scheme, workload content -- query plan or kernel parameters
  plus table recipes -- config and overrides),
* a digest of the git-tracked ``repro`` package sources (any source edit
  invalidates every entry -- re-running a figure after an *unrelated*
  edit still misses, which is the safe direction), and
* a cache schema version.

Entries are pickled payloads (``RunResult`` / ``ReliabilityRow``) stored
as ``<digest>.pkl`` under the cache directory; writes go through a
temporary file + ``os.replace`` so interrupted runs never leave a
truncated entry behind.  A corrupt or unreadable entry degrades to a
cache miss, never an error.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

from ..obs.artifacts import to_jsonable
from .spec import SweepPoint

#: bump when cached payload layout changes incompatibly
#: (v2: points carry a Workload instead of query + tables fields)
CACHE_SCHEMA_VERSION = 2

_source_digest_cache: dict = {}


def _package_root() -> Path:
    """Directory of the installed ``repro`` package sources."""
    return Path(__file__).resolve().parents[1]


def _tracked_sources(root: Path) -> "list[Path]":
    """Python sources under ``root``, preferring git's tracked-file list
    (the digest covers exactly what a clean checkout would run)."""
    try:
        out = subprocess.run(
            ["git", "ls-files", "-z", "--", "*.py"],
            cwd=root, capture_output=True, timeout=5,
        )
        if out.returncode == 0 and out.stdout:
            files = [
                root / name
                for name in out.stdout.decode().split("\0")
                if name
            ]
            files = [f for f in files if f.is_file()]
            if files:
                return sorted(files)
    except (OSError, subprocess.SubprocessError):
        pass
    return sorted(root.rglob("*.py"))


def source_digest(root: Optional[Path] = None) -> str:
    """Digest of the simulator's source tree (memoized per process)."""
    root = root or _package_root()
    key = str(root)
    if key not in _source_digest_cache:
        h = hashlib.sha256()
        for path in _tracked_sources(root):
            h.update(str(path.relative_to(root)).encode())
            h.update(b"\0")
            try:
                h.update(path.read_bytes())
            except OSError:
                continue
        _source_digest_cache[key] = h.hexdigest()
    return _source_digest_cache[key]


def point_digest(point: SweepPoint, source: Optional[str] = None) -> str:
    """Stable content hash identifying one sweep point's outcome."""
    workload = point.workload
    payload = {
        "cache_schema": CACHE_SCHEMA_VERSION,
        "source": source if source is not None else source_digest(),
        "point": to_jsonable(point),
        # the workload's own content digest covers its concrete type and
        # canonicalized parameters (two families could share field names)
        "workload_type": type(workload).__name__ if workload else None,
        "workload_digest": workload.digest if workload else None,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class ResultCache:
    """Pickle store of completed sweep points, one file per digest."""

    def __init__(self, directory: "str | Path") -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path(self, digest: str) -> Path:
        return self.directory / f"{digest}.pkl"

    def get(self, digest: str) -> Optional[object]:
        """The cached payload, or None on miss/corruption."""
        path = self.path(digest)
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            return None

    def put(self, digest: str, payload: object) -> Path:
        """Atomically store ``payload`` under ``digest``."""
        path = self.path(digest)
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=".tmp-", suffix=".pkl"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.pkl"))


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro/sweeps``,
    else ``~/.cache/repro/sweeps``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "sweeps"
