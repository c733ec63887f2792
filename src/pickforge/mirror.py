"""Fetching an HTTP index through ``index._load``, and caching its copy.

``index.load_repository`` imports this module only for an ``http://`` or
``https://`` source.  Every body is capped at ``index.FETCH_MAX_BYTES``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
import urllib.request
from pathlib import Path

from . import index
from .index import Repository, RepositoryError

CACHE_ENV_VAR = "PICKFORGE_CACHE"

# seconds an HTTP source may stall one request before the load fails
FETCH_TIMEOUT_S = 30


def _resolve_cache_dir(cache_dir: str | Path | None) -> Path:
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "pickforge"


def _fetch(url: str) -> bytes:
    limit = index.FETCH_MAX_BYTES
    try:
        with urllib.request.urlopen(url, timeout=FETCH_TIMEOUT_S) as response:
            data = response.read(limit + 1)
    except OSError as exc:  # urllib.error.URLError is one
        raise RepositoryError(f"unreachable source {url}: {exc}") from exc
    if len(data) > limit:
        raise RepositoryError(f"{url} exceeds {limit} bytes")
    return data


def load_http_source(source: str, cache_dir: str | Path | None) -> Repository:
    """The repository at the base URL ``source``: the cache entry named by the
    digest of its ``index.json`` if there is one and it loads, else the index
    fetched whole and cached once it has validated.  ``cache_dir`` defaults to
    ``$PICKFORGE_CACHE``, then ``$XDG_CACHE_HOME/pickforge``, then ``~/.cache/pickforge``."""
    base_url = source.rstrip("/")
    cache_dir = _resolve_cache_dir(cache_dir)
    index_bytes = _fetch(f"{base_url}/index.json")
    digest = hashlib.sha256(index_bytes).hexdigest()[:16]
    mirror = cache_dir / digest
    if mirror.is_dir():
        try:
            return index._load(str(mirror), index.read_file, source)
        except RepositoryError:
            # a broken copy an older release cached: fetch the index afresh
            shutil.rmtree(mirror, ignore_errors=True)
    cache_dir.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{digest}-", dir=cache_dir))

    def read(url: str) -> bytes:
        # the walker checks names and versions first, so no copy leaves staging
        data = index_bytes if url == f"{base_url}/index.json" else _fetch(url)
        copy = staging / url[len(base_url) + 1 :]
        try:
            copy.parent.mkdir(parents=True, exist_ok=True)
            copy.write_bytes(data)
        except OSError as exc:
            raise RepositoryError(f"cannot cache {url}: {exc}") from exc
        return data

    try:
        repo = index._load(base_url, read, source)
        try:
            staging.rename(mirror)
        except OSError:
            if not mirror.is_dir():  # lost a race with a concurrent mirror
                raise
            shutil.rmtree(staging, ignore_errors=True)
    except Exception:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return repo
