"""Copying an HTTP index into the local cache, where it loads as a directory.

``index.load_repository`` imports this module only for an ``http://`` or
``https://`` source.  Every body is capped at ``index.FETCH_MAX_BYTES``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
import urllib.error
import urllib.request
from pathlib import Path

from . import index
from .index import RepositoryError, _index_package_names, _version_list, parse_json
from .versioning import parse_version

CACHE_ENV_VAR = "PICKFORGE_CACHE"

# seconds an HTTP source may stall one request before the load fails
FETCH_TIMEOUT_S = 30


def _resolve_cache_dir(cache_dir: str | Path | None) -> Path:
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "pickforge"


def _fetch(url: str) -> bytes:
    limit = index.FETCH_MAX_BYTES
    try:
        with urllib.request.urlopen(url, timeout=FETCH_TIMEOUT_S) as response:
            data = response.read(limit + 1)
    except (urllib.error.URLError, OSError) as exc:
        raise RepositoryError(f"unreachable source {url}: {exc}") from exc
    if len(data) > limit:
        raise RepositoryError(f"{url} exceeds {limit} bytes")
    return data


def mirror_http_source(base_url: str, cache_dir: str | Path | None) -> Path:
    """The local copy of the index at ``base_url``, named by the digest of its
    ``index.json``: an unchanged index is served from it after one fetch.

    ``cache_dir`` defaults to ``$PICKFORGE_CACHE``, then
    ``$XDG_CACHE_HOME/pickforge``, then ``~/.cache/pickforge``.
    """
    cache_dir = _resolve_cache_dir(cache_dir)
    index_bytes = _fetch(f"{base_url}/index.json")
    digest = hashlib.sha256(index_bytes).hexdigest()[:16]
    mirror = cache_dir / digest
    if mirror.is_dir():
        return mirror
    cache_dir.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{digest}-", dir=cache_dir))
    try:
        (staging / "index.json").write_bytes(index_bytes)
        raw_index = parse_json(index_bytes, f"{base_url}/index.json")
        for name in _index_package_names(raw_index, f"{base_url}/index.json"):
            listing_url = f"{base_url}/packages/{name}/versions.json"
            versions_bytes = _fetch(listing_url)
            listed = _version_list(versions_bytes, listing_url, parse_version)
            pkg_dir = staging / "packages" / name
            pkg_dir.mkdir(parents=True)
            (pkg_dir / "versions.json").write_bytes(versions_bytes)
            for version_text in listed:
                manifest_bytes = _fetch(f"{base_url}/packages/{name}/{version_text}.json")
                (pkg_dir / f"{version_text}.json").write_bytes(manifest_bytes)
        try:
            staging.rename(mirror)
        except OSError:
            if not mirror.is_dir():  # lost a race with a concurrent mirror
                raise
            shutil.rmtree(staging, ignore_errors=True)
    except Exception:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return mirror
