"""On-disk cache for warm ``repro lint`` runs.

Two layers, one JSON file (default ``.repro-lint-cache.json``, see
``repro lint --cache``):

* **file layer** — keyed by absolute path; an entry is valid while the
  file's ``st_mtime_ns`` + ``st_size`` match, with a content-sha256
  fallback for touched-but-unchanged files (checkouts and ``touch``
  update mtime without changing bytes).  A hit skips the parse and
  every per-file rule for that file.
* **project layer** — keyed by module name; an entry is valid while the
  sha256 digest of the module's *dependency cone* (the call-graph
  neighborhood computed in :func:`repro.lint.project._module_cones`)
  is unchanged.  Editing one module therefore re-runs cross-module
  rules for exactly the modules whose cone contains it — its
  reverse-dependency cone — and nothing else.

The whole cache self-invalidates when :func:`cache_signature` changes:
it folds in an analysis-version counter plus the *active* rule ids —
the full registry, or the ``--select`` subset actually run — so growing
the rule set, changing analysis semantics, or switching the selection
never serves findings computed under a different rule set.  Corrupt or
unreadable cache files degrade to a cold run, never to an error.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections.abc import Sequence
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.core import Rule

#: Bump when summary extraction, graph building, or fixpoint semantics
#: change in a way that alters findings for identical sources.
ANALYSIS_VERSION = 2

DEFAULT_CACHE_NAME = ".repro-lint-cache.json"


def cache_signature(rules: Sequence[Rule] | None = None) -> str:
    """Digest of everything that determines findings besides sources.

    ``rules`` is the rule set the run actually executes (default: the
    full registry).  Cached records hold raw violations computed under
    exactly that set, so a ``--select`` run and a full run must never
    share entries — folding the active ids in keys them apart.
    """
    if rules is None:
        from repro.lint.rules import ALL_RULES

        rules = ALL_RULES
    h = hashlib.sha256()
    h.update(f"analysis-v{ANALYSIS_VERSION}".encode())
    for rule_id in sorted(r.id for r in rules):
        h.update(rule_id.encode())
    return h.hexdigest()


class LintCache:
    """Load/query/update/save the two-layer lint cache."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self._files: dict[str, dict] = {}
        self._projects: dict[str, dict] = {}
        self._signature = ""

    # -- lifecycle -----------------------------------------------------
    def load(self, signature: str) -> None:
        self._signature = signature
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if not isinstance(data, dict) or data.get("signature") != signature:
            return
        files = data.get("files")
        projects = data.get("projects")
        if isinstance(files, dict):
            self._files = files
        if isinstance(projects, dict):
            self._projects = projects

    def save(self) -> None:
        payload = json.dumps(
            {
                "signature": self._signature,
                "files": self._files,
                "projects": self._projects,
            },
            separators=(",", ":"),
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=str(self.path.parent), prefix=self.path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
            os.replace(tmp, self.path)
        except OSError:
            # A read-only tree costs cache persistence, not the run.
            try:
                os.unlink(tmp)
            except OSError:
                pass

    # -- file layer ----------------------------------------------------
    def get_file(self, abspath: str, p: Path) -> dict | None:
        """The cached :class:`~repro.lint.project.FileRecord` dict for
        ``p``, or ``None`` if absent/stale."""
        entry = self._files.get(abspath)
        if entry is None:
            return None
        try:
            st = p.stat()
        except OSError:
            return None
        if (
            entry.get("mtime_ns") == st.st_mtime_ns
            and entry.get("size") == st.st_size
        ):
            return entry.get("record")
        # mtime moved: fall back to content identity before re-analyzing.
        # Hash the same universal-newline-decoded text that
        # FileRecord.sha256 was computed from — raw bytes would never
        # match for CRLF files, forcing a re-parse on every mtime bump.
        try:
            text = p.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            return None
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        record = entry.get("record") or {}
        if record.get("sha256") == digest:
            entry["mtime_ns"] = st.st_mtime_ns
            entry["size"] = st.st_size
            return record
        return None

    def put_file(self, abspath: str, p: Path, record: dict) -> None:
        try:
            st = p.stat()
        except OSError:
            return
        self._files[abspath] = {
            "mtime_ns": st.st_mtime_ns,
            "size": st.st_size,
            "record": record,
        }

    # -- project layer -------------------------------------------------
    def get_project(self, module: str, cone_digest: str) -> list | None:
        entry = self._projects.get(module)
        if entry is None or entry.get("digest") != cone_digest:
            return None
        violations = entry.get("violations")
        return violations if isinstance(violations, list) else None

    def put_project(
        self, module: str, cone_digest: str, violations: list
    ) -> None:
        self._projects[module] = {
            "digest": cone_digest,
            "violations": violations,
        }


__all__ = [
    "ANALYSIS_VERSION",
    "DEFAULT_CACHE_NAME",
    "LintCache",
    "cache_signature",
]
