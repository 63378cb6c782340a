#!/usr/bin/env python
"""Run the repo's static invariant checker (same as ``repro lint``).

Usage: python scripts/lint.py [paths...] [--format json] [--select R014]
Defaults to linting ``src tests scripts``.  Exit code 0 means clean;
see docs/devtools.md for the rule catalog and suppression syntax.
"""

import sys
from pathlib import Path

# Allow running straight from a checkout without an editable install.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.devtools.linter import main  # noqa: E402  (path setup first)

if __name__ == "__main__":
    raise SystemExit(main())
