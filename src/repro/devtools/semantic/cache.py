"""Per-file analysis caching, keyed by content hash.

Whole-program analysis re-parses nothing that has not changed: every
file's semantic summary (see :mod:`repro.devtools.semantic.summary`) is
stored under the SHA-256 of its source text, so a CI lint of a branch
that touched two files re-summarizes two files.  The cache is a single
JSON document — small enough (one compact summary per source file) that
read-modify-write beats a file-per-entry scheme, and trivially safe to
delete at any time.

The store lives under ``<root>/.lint-cache/`` (git-ignored), never under
``results/`` — the results tree is reserved for simulation products and
guarded by the R006 atomic-write rule.  Writes still go through a
temp-file + :func:`os.replace` so a crashed lint run cannot leave a
truncated cache behind.

The cache key is *(content digest, analysis versions)*: editing a
source file invalidates that file's entry (by digest), and changing
what a summary records invalidates the whole store via the
``analysis_versions`` fingerprint.  The store holds only summaries, so
:func:`repro.devtools.semantic.graph.graph_for_project` keys it on
``{"summary": summary.ANALYSIS_VERSION}``; the rules run on every lint
and are never cached.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any

__all__ = ["AnalysisCache", "content_digest", "CACHE_VERSION"]

#: Bump when the summary schema changes; stale-version caches are
#: discarded wholesale rather than risking a mixed-schema read.
CACHE_VERSION = 1


def content_digest(source: str) -> str:
    """SHA-256 of the file's source text (the cache key)."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class AnalysisCache:
    """A content-addressed store of per-file semantic summaries.

    ``get``/``put`` operate on digests; :meth:`save` persists atomically.
    A missing, unreadable, corrupt, or version-mismatched cache file
    degrades to an empty cache — the analysis is then merely slower,
    never wrong.
    """

    def __init__(
        self,
        path: Path | None,
        versions: dict[str, int] | None = None,
    ) -> None:
        #: ``None`` disables persistence (used by unit tests and
        #: ``--no-semantic-cache``); lookups then always miss.
        self.path = path
        #: Per-analysis version fingerprint; a stored cache written
        #: under a different fingerprint is discarded wholesale.
        self.versions = dict(versions) if versions else {}
        self.hits = 0
        self.misses = 0
        self._entries: dict[str, Any] = {}
        self._dirty = False
        if path is not None and path.is_file():
            try:
                doc = json.loads(path.read_text())
            except (OSError, ValueError):
                doc = None
            if (
                isinstance(doc, dict)
                and doc.get("version") == CACHE_VERSION
                and doc.get("analysis_versions", {}) == self.versions
            ):
                entries = doc.get("entries")
                if isinstance(entries, dict):
                    self._entries = entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, digest: str) -> Any | None:
        entry = self._entries.get(digest)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def put(self, digest: str, summary: Any) -> None:
        self._entries[digest] = summary
        self._dirty = True

    def prune(self, live_digests: set[str]) -> None:
        """Drop entries for content no longer present in the tree, so
        the cache tracks the working set instead of growing forever."""
        dead = [d for d in self._entries if d not in live_digests]
        for d in dead:
            del self._entries[d]
            self._dirty = True

    def save(self) -> None:
        """Persist the cache (atomic replace; best-effort on failure)."""
        if self.path is None or not self._dirty:
            return
        doc = {
            "version": CACHE_VERSION,
            "analysis_versions": self.versions,
            "entries": self._entries,
        }
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=str(self.path.parent), prefix=self.path.name, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(doc, fh, separators=(",", ":"))
                os.replace(tmp, self.path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            # A read-only checkout (CI artifact stages) loses caching,
            # not correctness.
            return
        self._dirty = False
