"""Disk cache for experiment runs.

Replaying a workload takes seconds to minutes depending on scale; the
figure benchmarks share many runs (Figures 14-16 are three views of the
same sweep), so completed runs are cached as JSON keyed by a hash of the
workload signature, the adapter flavour, the scale — and the package's
own sources, so a change to any heuristic can never be answered with
numbers an older build produced.

The cache lives in the per-user cache directory
(``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``), never in the work
tree.  Set ``REPRO_CACHE_DIR`` to relocate it, or ``REPRO_NO_CACHE=1``
to disable it.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
from pathlib import Path
from typing import Optional

from .runner import RunResult


def cache_enabled() -> bool:
    return os.environ.get("REPRO_NO_CACHE", "") not in ("1", "true", "yes")


def cache_dir() -> Path:
    root = os.environ.get("REPRO_CACHE_DIR")
    if root:
        return Path(root)
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "repro"


def digest_sources(root: Path) -> str:
    """A digest of every ``*.py`` under ``root``: relative paths and bytes."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """The digest of this package's own sources, computed once per process.

    Hashing all ~120 files is cheaper than deciding which modules can
    change a result.
    """
    return digest_sources(Path(__file__).resolve().parents[1])


def run_key(adapter_label: str, workload_signature: dict, scale_name: str) -> str:
    """Stable key identifying one (workload, adapter, scale) run of this code."""
    blob = json.dumps(
        {
            "sources": source_digest(),
            "adapter": adapter_label,
            "workload": workload_signature,
            "scale": scale_name,
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def load_result(key: str) -> Optional[RunResult]:
    """Fetch a cached run, or None."""
    if not cache_enabled():
        return None
    path = cache_dir() / f"{key}.json"
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    field_names = {f.name for f in dataclasses.fields(RunResult)}
    filtered = {k: v for k, v in payload.items() if k in field_names}
    try:
        return RunResult(**filtered)
    except TypeError:
        return None


def store_result(key: str, result: RunResult) -> None:
    """Persist a run result."""
    if not cache_enabled():
        return
    directory = cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    payload = dataclasses.asdict(result)
    (directory / f"{key}.json").write_text(
        json.dumps(payload, default=str, indent=1)
    )
