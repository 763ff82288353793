"""Resource-lifecycle rule (R201) for the mmap/WAL/socket layer.

The serving stack holds kernel-backed resources whose leak modes are
invisible to the garbage collector's happy path: mmap handles
(``SlabFile``) pin file pages,
``WriteAheadLog`` holds an open append handle, and ``SocketSession``
holds a live TCP connection.  **R201** checks, per function, that every
acquisition of one of these flows into a release:

* a ``with`` statement (``with SlabFile(...) as f:`` or ``with f:``);
* a closer call (``.close()`` / ``.stop()`` / ``.shutdown()`` /
  ``.release()`` / ``.finish()`` / ``.unlink()``) inside a ``finally``
  block — a closer *outside* ``finally`` is flagged separately, because
  it only covers the happy path;
* an **escape** that transfers ownership out of the function: the
  object is returned or yielded, stored on ``self`` (when the owning
  class has a verified close path), stored into a container or module
  registry, aliased, or passed as an
  argument to another call (constructor injection — the callee owns it
  now).

The analysis is intraprocedural and deliberately conservative in the
escape direction: anything that *might* hand the resource off is
treated as a transfer, so R201 findings are the acquisitions that
provably stay local and still lack a guaranteed release.  Suppress
deliberate leaks (e.g. process-lifetime singletons) with
``# repro: noqa-R201`` and a justification.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .findings import Finding
from .rules import (
    LintRule,
    ModuleContext,
    _walk_shallow,
)

__all__ = ["LIFECYCLE_RULES", "ResourceLifecycleRule"]

#: constructors/factories whose result owns a kernel-backed resource
_FACTORIES = frozenset(
    {
        "SlabFile",
        "SlabWriter",
        "WriteAheadLog",
        "StoreHandle",
        "SocketSession",
        "open_store",
    }
)

#: method names that release a resource
_CLOSERS = frozenset(
    {"close", "stop", "shutdown", "release", "finish", "unlink", "terminate"}
)

#: methods that, defined on a class, make `self.attr = Factory(...)`
#: an owned acquisition with a close path
_OWNER_CLOSERS = _CLOSERS | {"__exit__", "__del__"}


def _factory_name(call: ast.Call) -> str | None:
    """The factory a call constructs, when it is one we track."""
    func = call.func
    name = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    return name if name in _FACTORIES else None


def _contains_factory_call(node: ast.AST) -> ast.Call | None:
    """A tracked factory call anywhere inside ``node`` (comprehensions)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and _factory_name(sub) is not None:
            return sub
    return None


def _names_in(node: ast.AST) -> set[str]:
    return {
        sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)
    }


class _Acquisition:
    __slots__ = ("name", "node", "factory", "container")

    def __init__(
        self, name: str, node: ast.AST, factory: str, container: bool
    ) -> None:
        self.name = name
        self.node = node
        self.factory = factory
        self.container = container


class ResourceLifecycleRule(LintRule):
    code = "R201"
    summary = (
        "SlabFile/SlabWriter/StoreHandle/WriteAheadLog/SocketSession "
        "acquisitions must flow into a with, a "
        "try/finally close, or an owner with a close path"
    )
    hint = (
        "wrap the lifetime in `with` or `try/finally: x.close()`; if "
        "ownership genuinely transfers, return the handle or store it "
        "on an owner object that closes it"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cls = self._owning_class(ctx.tree, node)
                yield from self._check_function(ctx, node, cls)

    @staticmethod
    def _owning_class(
        tree: ast.Module, fn: ast.AST
    ) -> ast.ClassDef | None:
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and fn in cls.body:
                return cls
        return None

    # -- per-function analysis ----------------------------------------------
    def _check_function(
        self,
        ctx: ModuleContext,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        cls: ast.ClassDef | None,
    ) -> Iterator[Finding]:
        acquisitions = self._acquisitions(ctx, fn, cls)
        if not acquisitions:
            return
        nodes = [n for stmt in fn.body for n in _walk_shallow(stmt)]
        finally_nodes = self._finally_nodes(fn)
        for acq in acquisitions:
            if self._escapes(acq, nodes):
                continue
            if self._with_managed(acq, nodes):
                continue
            closers = self._closer_calls(acq, nodes)
            if not closers:
                yield self.finding(
                    ctx,
                    acq.node,
                    f"'{acq.name}' acquires a {acq.factory} that is "
                    "never closed in this function and never escapes it",
                    resource=acq.factory,
                    name=acq.name,
                )
            elif not any(id(c) in finally_nodes for c in closers):
                yield self.finding(
                    ctx,
                    acq.node,
                    f"'{acq.name}' ({acq.factory}) is closed only on "
                    "the happy path — an exception before the close "
                    "leaks it; move the close into try/finally",
                    resource=acq.factory,
                    name=acq.name,
                )

    def _acquisitions(
        self,
        ctx: ModuleContext,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        cls: ast.ClassDef | None,
    ) -> list[_Acquisition]:
        out: list[_Acquisition] = []
        for stmt in fn.body:
            for node in _walk_shallow(stmt):
                if not isinstance(node, ast.Assign):
                    continue
                if len(node.targets) != 1:
                    continue
                target = node.targets[0]
                if not isinstance(target, ast.Name):
                    continue  # self.x / container stores judged as escapes
                if isinstance(node.value, ast.Call):
                    factory = _factory_name(node.value)
                    if factory is not None:
                        out.append(
                            _Acquisition(target.id, node, factory, False)
                        )
                        continue
                if isinstance(
                    node.value,
                    (ast.ListComp, ast.SetComp, ast.DictComp, ast.List,
                     ast.Dict, ast.Set),
                ):
                    call = _contains_factory_call(node.value)
                    if call is not None:
                        out.append(
                            _Acquisition(
                                target.id,
                                node,
                                _factory_name(call) or "resource",
                                True,
                            )
                        )
        return out

    @staticmethod
    def _finally_nodes(fn: ast.AST) -> set[int]:
        """ids of every node living inside a ``finally`` or an
        ``except`` handler (the error-path release positions)."""
        out: set[int] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Try):
                for stmt in node.finalbody:
                    out.update(id(n) for n in ast.walk(stmt))
                for handler in node.handlers:
                    for stmt in handler.body:
                        out.update(id(n) for n in ast.walk(stmt))
        return out

    def _escapes(self, acq: _Acquisition, nodes: list[ast.AST]) -> bool:
        name = acq.name
        seen_acq = False
        for node in nodes:
            if node is acq.node:
                seen_acq = True
                continue
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                value = getattr(node, "value", None)
                if value is not None and name in _names_in(value):
                    return True
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                if not seen_acq:
                    continue
                value = node.value
                if value is None or name not in _names_in(value):
                    continue
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for t in targets:
                    # self.x = name / registry[key] = name / alias = name
                    if isinstance(t, (ast.Attribute, ast.Subscript, ast.Name)):
                        return True
            elif isinstance(node, ast.Call):
                if self._transfers_ownership(node, name):
                    return True
        return False

    @staticmethod
    def _transfers_ownership(call: ast.Call, name: str) -> bool:
        """``name`` passed as an argument (not the closer receiver)."""
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == name
        ):
            return False  # a method call *on* the resource
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            if isinstance(arg, ast.Name) and arg.id == name:
                return True
            if isinstance(arg, ast.Starred) and isinstance(
                arg.value, ast.Name
            ) and arg.value.id == name:
                return True
        return False

    @staticmethod
    def _with_managed(acq: _Acquisition, nodes: list[ast.AST]) -> bool:
        for node in nodes:
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            for item in node.items:
                expr = item.context_expr
                if isinstance(expr, ast.Name) and expr.id == acq.name:
                    return True
                if (
                    isinstance(expr, ast.Call)
                    and any(
                        isinstance(a, ast.Name) and a.id == acq.name
                        for a in expr.args
                    )
                ):
                    return True  # with closing(x): / contextlib wrappers
        return False

    def _closer_calls(
        self, acq: _Acquisition, nodes: list[ast.AST]
    ) -> list[ast.Call]:
        out: list[ast.Call] = []
        loop_vars = self._loop_vars_over(acq.name, nodes) if acq.container else set()
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute) and func.attr in _CLOSERS
            ):
                continue
            recv = func.value
            if isinstance(recv, ast.Name) and recv.id == acq.name:
                out.append(node)
            elif acq.container:
                if isinstance(recv, ast.Name) and recv.id in loop_vars:
                    out.append(node)
                elif (
                    isinstance(recv, ast.Subscript)
                    and isinstance(recv.value, ast.Name)
                    and recv.value.id == acq.name
                ):
                    out.append(node)
        return out

    @staticmethod
    def _loop_vars_over(name: str, nodes: list[ast.AST]) -> set[str]:
        """Loop/comprehension variables iterating over container ``name``."""
        out: set[str] = set()
        for node in nodes:
            iter_expr: ast.AST | None = None
            target: ast.AST | None = None
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iter_expr, target = node.iter, node.target
            elif isinstance(node, ast.comprehension):
                iter_expr, target = node.iter, node.target
            if iter_expr is None or name not in _names_in(iter_expr):
                continue
            if target is not None:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        out.add(sub.id)
        return out


LIFECYCLE_RULES: tuple[LintRule, ...] = (ResourceLifecycleRule(),)
