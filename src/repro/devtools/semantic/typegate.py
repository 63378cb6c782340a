"""The (optional) strict-mode mypy gate behind ``repro lint --types``.

The container running the simulator does not necessarily have mypy;
type enforcement therefore has two layers:

* the AST-level :class:`~repro.devtools.semantic.typedcore.TypedCoreRule`
  (R011) always runs and needs nothing beyond the standard library;
* when mypy *is* importable (developer machines, the CI
  ``lint-semantic`` job installs it), ``repro lint --types`` runs it in
  strict mode over the typed-core packages and fails on any
  diagnostic.  Accepted debt is suppressed at the site with mypy's own
  ``# type: ignore[code]``, where a reviewer sees it.
"""

from __future__ import annotations

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

__all__ = [
    "TypeGateResult",
    "mypy_available",
    "run_type_gate",
]

#: Directories handed to mypy, relative to the project root.
TYPED_ROOTS = ("src/repro/sim", "src/repro/exec")

#: ``path:line: error: message  [code]`` — mypy's standard output shape.
_DIAG_RE = re.compile(
    r"^(?P<path>[^:]+):(?P<line>\d+)(?::\d+)?: error: "
    r"(?P<message>.*?)(?:\s+\[(?P<code>[\w-]+)\])?$"
)


class TypeGateResult:
    """Outcome of one gate run, preformatted for the CLI."""

    def __init__(
        self,
        ok: bool,
        messages: list[str],
        diagnostics: list[str] | None = None,
    ) -> None:
        self.ok = ok
        self.messages = messages
        self.diagnostics = diagnostics or []


def mypy_available() -> bool:
    """Is mypy importable in this interpreter?"""
    return importlib.util.find_spec("mypy") is not None


def _normalize(line: str) -> str | None:
    """One raw mypy output line -> ``path|code|message``, or None."""
    m = _DIAG_RE.match(line.strip())
    if m is None:
        return None
    path = m.group("path").replace("\\", "/")
    code = m.group("code") or "misc"
    return f"{path}|{code}|{m.group('message')}"


def _run_mypy(root: Path) -> tuple[list[str], str]:
    """Run mypy over the typed roots; return (normalized keys, raw)."""
    cmd = [
        sys.executable, "-m", "mypy",
        "--config-file", "pyproject.toml",
        *TYPED_ROOTS,
    ]
    proc = subprocess.run(
        cmd, cwd=root, capture_output=True, text=True, check=False
    )
    raw = proc.stdout + proc.stderr
    keys = []
    for line in proc.stdout.splitlines():
        key = _normalize(line)
        if key is not None:
            keys.append(key)
    return keys, raw


def run_type_gate(root: Path) -> TypeGateResult:
    """Run strict-mode mypy from ``root``; skip cleanly without mypy."""
    if not mypy_available():
        return TypeGateResult(
            ok=True,
            messages=[
                "type gate: mypy is not installed in this environment; "
                "skipping the strict-mode pass (the AST-level R011 "
                "checks still ran).  Install mypy to run the full gate."
            ],
        )
    diagnostics, raw = _run_mypy(root)
    if not diagnostics:
        return TypeGateResult(ok=True, messages=["type gate: clean."])
    messages = [f"type gate: {len(diagnostics)} mypy diagnostic(s):"]
    messages.extend(f"  {key}" for key in diagnostics)
    messages.append(
        "fix them, or suppress accepted debt at the site with "
        "`# type: ignore[code]`."
    )
    if raw.strip():
        messages.append("raw mypy output:")
        messages.extend(f"  {line}" for line in raw.strip().splitlines())
    return TypeGateResult(ok=False, messages=messages, diagnostics=diagnostics)
