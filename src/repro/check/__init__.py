"""repro.check — invariant lint pass + dynamic lock/race checkers.

Static pass (:mod:`repro.check.lint`), three generations of
repo-specific AST rules:

* **R001–R005** — the paper's frozen-CSR, lock-discipline,
  thread-local-mutation, and unified-signature invariants;
* **R101–R102** (:mod:`repro.check.asyncrules`) — async-safety: no
  blocking calls reachable from ``async def`` bodies, no ``await``
  under a threading lock;
* **R201** (:mod:`repro.check.lifecycle`) — resource lifecycle: every
  mmap/WAL/socket acquisition flows into a ``with``, a
  ``try/finally`` close, or an owner with a close path;
* **R301–R304** (:mod:`repro.check.protocol_conformance`) —
  protocol conformance: the implemented wire surface (engine handlers,
  the front door, error codes, version gates, docs/API.md tables)
  is diffed against the declarative ``repro.service.spec.SPEC``.

All suppress with ``# repro: noqa-RXXX — justification``; the
inventory is audited by ``repro check --list-suppressions``.

Dynamic pass: :class:`LockOrderMonitor` builds a lock-order graph and
reports inversions (L001); :class:`RaceDetector` + :class:`CheckedArray`
record per-task access sets during parallel phases and flag write/write
(D001) and read/write (D002) overlaps.  Off by default — enable with
``REPRO_CHECK=1`` or ``runtime.checked()``.

Everything reports through :class:`Finding` and the ``repro check`` CLI.
"""

from .findings import Finding
from .lint import (
    LintReport,
    Suppression,
    lint_paths,
    lint_source,
    parse_tree,
    select_rules,
)
from .locks import CheckedLock, LockOrderMonitor, patch_threading
from .protocol_conformance import conformance_summary
from .races import CheckedArray, RaceDetector
from .registry import ALL_RULES, MODULE_RULES, TREE_RULES
from .report import (
    render_conformance_table,
    render_json,
    render_suppressions,
    render_text,
    summary_line,
)

__all__ = [
    "ALL_RULES",
    "CheckedArray",
    "CheckedLock",
    "Finding",
    "LintReport",
    "LockOrderMonitor",
    "MODULE_RULES",
    "RaceDetector",
    "Suppression",
    "TREE_RULES",
    "conformance_summary",
    "lint_paths",
    "lint_source",
    "parse_tree",
    "patch_threading",
    "render_conformance_table",
    "render_json",
    "render_suppressions",
    "render_text",
    "select_rules",
    "summary_line",
]
