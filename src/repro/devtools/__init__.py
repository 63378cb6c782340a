"""Developer tooling: the repo's own static-analysis pass.

``repro.devtools`` hosts an AST-walking lint framework plus the
repo-specific rules that guard the reproduction's headline guarantees:

* **R002 float-equality** — no ``==``/``!=`` against float expressions
  in library code;
* **R003 cache-schema drift** — the serialized field sets of
  ``SimResult``/``SchemeResult``/``WindowSample`` are fingerprinted and
  pinned against ``CACHE_FORMAT``, so changing them without bumping the
  version (the PR 1 ``windows`` bug) fails the lint;
* **R004 layering** — experiments/metrics/scripts use the
  ``repro.sim`` facade, never engine internals; the simulator never
  imports the experiment layer;
* **R005 picklability** — workers and specs handed to the
  ``repro.exec`` pool are module-level and closure-free;
* **R006 atomic-write** — nothing writes under ``results/`` except
  through the atomic-replace helpers;
* **R010, R014-R016** — the one determinism analysis
  (:mod:`repro.devtools.semantic.effects`): no unseeded entropy reaching
  simulation state, workers or cache keys, no hash-ordered iteration in
  the simulator, no module-state writes in pool workers.

Run it with ``python -m repro lint [paths...]`` or
``python scripts/lint.py``; suppress a finding in place with a
``# repro: noqa[R002]`` comment.  See ``docs/devtools.md`` for the rule
catalog and how to add a rule.
"""

from repro.devtools.findings import Finding, Severity
from repro.devtools.linter import lint_paths, main
from repro.devtools.registry import LintRule, all_rules, register

__all__ = [
    "Finding",
    "Severity",
    "LintRule",
    "all_rules",
    "register",
    "lint_paths",
    "main",
]
