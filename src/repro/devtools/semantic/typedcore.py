"""R011 — typed-core enforcement for ``repro.sim`` and ``repro.exec``.

The simulator core and the pool runner are the two layers everything
else builds on; their public call surfaces ship with ``py.typed`` and
must stay fully annotated so downstream code (and mypy, when present —
see :mod:`repro.devtools.semantic.typegate`) can actually check against
them.  The AST half of the contract lives here and needs no third-party
tooling: every *public* function and method in those packages must
annotate every parameter and its return type.

Scope decisions, so the rule stays about the public surface:

* private helpers (leading underscore) are exempt — they are free to
  rely on inference;
* ``self``/``cls`` receivers never need annotations;
* ``__init__`` must annotate its parameters (they *are* the constructor
  surface) but may omit the return annotation, matching mypy;
* other dunders follow their visibility: they are part of the type's
  protocol, so they are treated as public;
* nested functions are exempt (not callable from outside);
* public methods of *private* classes (``class _Foo``) are exempt — the
  class itself is not reachable from the public surface.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.devtools.findings import Finding
from repro.devtools.registry import LintRule, register

if TYPE_CHECKING:  # pragma: no cover
    from repro.devtools.context import FileContext

__all__ = ["TypedCoreRule", "TYPED_PACKAGES"]

#: The packages whose public surface must be fully annotated.
TYPED_PACKAGES = ("repro.sim", "repro.exec")


def _missing_params(node: ast.FunctionDef | ast.AsyncFunctionDef,
                    *, is_method: bool) -> list[str]:
    args = node.args
    ordered = [*args.posonlyargs, *args.args]
    if is_method and ordered:
        ordered = ordered[1:]  # self / cls
    ordered += args.kwonlyargs
    missing = [a.arg for a in ordered if a.annotation is None]
    if args.vararg is not None and args.vararg.annotation is None:
        missing.append("*" + args.vararg.arg)
    if args.kwarg is not None and args.kwarg.annotation is None:
        missing.append("**" + args.kwarg.arg)
    return missing


def _is_public(name: str) -> bool:
    return not name.startswith("_") or (
        name.startswith("__") and name.endswith("__")
    )


@register
class TypedCoreRule(LintRule):
    id = "R011"
    name = "typed-core"
    rationale = (
        "repro.sim and repro.exec ship py.typed: an unannotated public "
        "parameter or return silently erases type checking for every "
        "caller of that surface"
    )

    def check_file(self, ctx: "FileContext") -> Iterator[Finding]:
        if not ctx.in_package(*TYPED_PACKAGES):
            return
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_def(ctx, node, is_method=False)
            elif isinstance(node, ast.ClassDef) and _is_public(node.name):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        yield from self._check_def(ctx, sub, is_method=True)

    def _check_def(
        self,
        ctx: "FileContext",
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        *,
        is_method: bool,
    ) -> Iterator[Finding]:
        if not _is_public(node.name) or node.name == "__init_subclass__":
            return
        missing = _missing_params(node, is_method=is_method)
        if missing:
            yield self.finding(
                ctx, node,
                f"public {'method' if is_method else 'function'} "
                f"{node.name}() in a typed-core package leaves "
                f"parameter(s) {', '.join(repr(m) for m in missing)} "
                "unannotated",
            )
        if node.returns is None and node.name != "__init__":
            yield self.finding(
                ctx, node,
                f"public {'method' if is_method else 'function'} "
                f"{node.name}() in a typed-core package has no return "
                "annotation",
            )
