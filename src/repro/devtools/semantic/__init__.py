"""Whole-program semantic analysis for the repro tree.

The per-file AST rules (R002–R007) check invariants a single parse can
see.  This package adds the cross-function layer the whole-program rules
need:

* :mod:`repro.devtools.semantic.summary` — one compact, cacheable
  summary per source file (imports, definitions, calls, module-level
  mutable state, mutation/write events);
* :mod:`repro.devtools.semantic.cache` — a content-hash-keyed store for
  those summaries so ``repro lint`` re-analyzes only edited files;
* :mod:`repro.devtools.semantic.graph` — the project import/call graph
  built from the summaries (JSON-dumpable via ``repro lint --graph``);
* :mod:`repro.devtools.semantic.effects` — the one determinism
  analysis: effect inference over the call graph behind **R010** (pool
  worker races), **R014** (entropy taint), **R015** (order hazards) and
  **R016** (fingerprint purity);
* :mod:`repro.devtools.semantic.typedcore` — **R011**, typed-core
  enforcement of the ``repro.sim`` / ``repro.exec`` public surfaces;
* :mod:`repro.devtools.semantic.typegate` — the (optional) strict-mode
  mypy gate behind ``repro lint --types``.

See ``docs/devtools.md`` for the catalog entries and the architecture
notes.
"""

from repro.devtools.semantic.cache import AnalysisCache
from repro.devtools.semantic.graph import ProjectGraph, build_graph
from repro.devtools.semantic.summary import FileSummary, summarize_file

__all__ = [
    "AnalysisCache",
    "FileSummary",
    "ProjectGraph",
    "build_graph",
    "summarize_file",
]
