"""Content-addressed bundle cache: JSON files keyed by the construction inputs.

Every key also covers the package version and the report schema, so a new
release never serves an entry an older one wrote.  A cache file that cannot
be read or parsed as a JSON object counts as a miss, and the next store
rewrites it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from . import __version__
from .report import SCHEMA_VERSION, canonical_json

ENV_VAR = "CASORATIA_CACHE"


def cache_dir(explicit: str | None = None) -> Path | None:
    path = explicit or os.environ.get(ENV_VAR)
    if not path:
        return None
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p


def cache_key(**fields) -> str:
    blob = canonical_json({**fields, "version": __version__, "schema": SCHEMA_VERSION})
    return hashlib.sha256(blob.encode()).hexdigest()


def load(directory: Path | None, key: str):
    if directory is None:
        return None
    try:
        doc = json.loads((directory / f"{key}.json").read_text())
    except (OSError, ValueError):   # missing, unreadable, not UTF-8 or not JSON
        return None
    return doc if isinstance(doc, dict) else None


def store(directory: Path | None, key: str, payload: dict) -> None:
    if directory is None:
        return
    text = canonical_json(payload)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, directory / f"{key}.json")
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
