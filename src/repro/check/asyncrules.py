"""Async-safety rules (R101–R102) for the asyncio front door.

The asyncio server (:mod:`repro.service.aserver`) multiplexes every
connection onto one event loop; a single blocking call anywhere in the
coroutine graph stalls *all* of them at once.  Two rules encode that:

* **R101** — no blocking calls inside code that runs on the event loop:
  ``time.sleep``, synchronous ``socket`` construction, ``os.fsync`` /
  ``os.fdatasync``, anything in ``subprocess``, builtin ``open``,
  ``lock.acquire()`` without a timeout, and the threaded
  ``SocketSession`` client surface.  "Runs on the event loop" is
  computed with a call-graph walk over the module AST: the bodies of
  every ``async def``, plus every *sync* helper reachable from one by a
  direct call (a function merely *passed* to ``run_in_executor`` /
  ``asyncio.to_thread`` creates no call edge, so the executor
  offloading pattern stays clean).
* **R102** — no ``await`` while holding a ``threading`` lock.  An
  awaiting coroutine parks with the lock held; any other task (or
  executor thread) touching the lock then deadlocks the loop.  Only
  synchronous ``with <lock>:`` blocks count — ``async with`` is the
  asyncio-lock idiom and is exempt.

Findings suppress with ``# repro: noqa-R101`` / ``-R102`` (see
:mod:`repro.check.lint`); block suppressions on the ``def`` line cover
the body, which is the idiom for deliberately-blocking shutdown paths.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .findings import Finding
from .rules import (
    LintRule,
    ModuleContext,
    _is_lock_attr,
    _walk_shallow,
)

__all__ = ["ASYNC_RULES", "AsyncBlockingCallRule", "AwaitUnderLockRule"]

#: dotted call targets that block the calling thread
_BLOCKING_EXACT = frozenset(
    {
        "time.sleep",
        "os.fsync",
        "os.fdatasync",
        "socket.socket",
        "socket.create_connection",
        "socket.getaddrinfo",
    }
)

#: any call into these modules blocks (process spawn + pipe I/O)
_BLOCKING_MODULES = frozenset({"subprocess"})

#: blocking builtins (file I/O on the loop)
_BLOCKING_BUILTINS = frozenset({"open"})

#: constructors of the *threaded* client surface — connecting or
#: round-tripping one of these parks the event loop on socket I/O
_SESSION_TYPES = frozenset({"SocketSession"})

#: blocking methods of the threaded client surface
_SESSION_METHODS = frozenset({"request", "batch"})

#: executor offload entry points: a function *passed* (not called)
#: here runs off-loop, so no call edge is created for it
_OFFLOAD = frozenset({"run_in_executor", "to_thread"})


def _import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted origin for every import binding."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    aliases[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    aliases[top] = top
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return aliases


def _dotted(func: ast.AST, aliases: dict[str, str]) -> str | None:
    """The dotted origin a call target resolves to (``time.sleep``)."""
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    origin = aliases.get(node.id, node.id)
    parts.reverse()
    return ".".join([origin, *parts]) if parts else origin


def _is_lock_receiver(expr: ast.AST) -> bool:
    """True for ``self.<x lock y>`` or a bare name containing 'lock'."""
    if _is_lock_attr(expr) is not None:
        return True
    if isinstance(expr, ast.Name) and "lock" in expr.id.lower():
        return True
    return False


def _is_pool_receiver(expr: ast.AST) -> bool:
    """True when the receiver looks like a thread/process pool."""
    name = None
    if isinstance(expr, ast.Attribute):
        name = expr.attr
    elif isinstance(expr, ast.Name):
        name = expr.id
    if name is None:
        return False
    lowered = name.lower()
    return "pool" in lowered or "executor" in lowered


class _FunctionTable:
    """Every def in the module, keyed ``name`` / ``Class.name``."""

    def __init__(self, tree: ast.Module) -> None:
        self.functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        self.owner: dict[str, str | None] = {}
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{cls.name}.{stmt.name}"
                    self.functions[qual] = stmt
                    self.owner[qual] = cls.name
        method_nodes = set(map(id, self.functions.values()))
        for node in ast.walk(tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and id(node) not in method_nodes:
                self.functions.setdefault(node.name, node)
                self.owner.setdefault(node.name, None)

    def edges(self, qual: str) -> set[str]:
        """Direct local call targets of one function (same module)."""
        fn = self.functions[qual]
        cls = self.owner[qual]
        out: set[str] = set()
        for stmt in fn.body:
            for node in _walk_shallow(stmt):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name):
                    if func.id in self.functions:
                        out.add(func.id)
                elif (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                    and cls is not None
                ):
                    callee = f"{cls}.{func.attr}"
                    if callee in self.functions:
                        out.add(callee)
        return out


class AsyncBlockingCallRule(LintRule):
    code = "R101"
    summary = (
        "no blocking calls (time.sleep, sync socket/file I/O, fsync, "
        "subprocess, threaded Session methods, lock.acquire() without "
        "timeout) in code reachable from an async def"
    )
    hint = (
        "offload with `await loop.run_in_executor(...)` (or "
        "asyncio.to_thread) — or, for a deliberately-blocking teardown "
        "path, move it off the loop and out of the coroutine"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        table = _FunctionTable(ctx.tree)
        seeds = [
            qual
            for qual, fn in table.functions.items()
            if isinstance(fn, ast.AsyncFunctionDef)
        ]
        if not seeds:
            return
        aliases = _import_aliases(ctx.tree)
        # call-graph walk: every sync helper a coroutine calls directly
        # also runs on the loop; record which async entry reaches it
        on_loop: dict[str, str] = {qual: qual for qual in seeds}
        stack = list(seeds)
        while stack:
            qual = stack.pop()
            for callee in sorted(table.edges(qual)):
                if callee in on_loop:
                    continue
                fn = table.functions[callee]
                if isinstance(fn, ast.AsyncFunctionDef):
                    continue  # a seed already (or an un-awaited bug)
                on_loop[callee] = on_loop[qual]
                stack.append(callee)
        for qual in sorted(on_loop):
            yield from self._scan(ctx, table, qual, on_loop[qual], aliases)

    def _scan(
        self,
        ctx: ModuleContext,
        table: _FunctionTable,
        qual: str,
        entry: str,
        aliases: dict[str, str],
    ) -> Iterator[Finding]:
        fn = table.functions[qual]
        where = (
            f"in async '{qual}'"
            if qual == entry
            else f"in '{qual}', reachable from async '{entry}'"
        )
        session_locals: set[str] = set()
        for stmt in fn.body:
            for node in _walk_shallow(stmt):
                if isinstance(node, ast.Assign) and isinstance(
                    node.value, ast.Call
                ):
                    dotted = _dotted(node.value.func, aliases)
                    if dotted is not None and dotted.split(".")[-1] in (
                        _SESSION_TYPES
                    ):
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                session_locals.add(target.id)
                if not isinstance(node, ast.Call):
                    continue
                reason = self._blocking_reason(
                    node, aliases, session_locals
                )
                if reason is not None:
                    yield self.finding(
                        ctx,
                        node,
                        f"{reason} {where}",
                        function=qual,
                        entry=entry,
                    )

    @staticmethod
    def _blocking_reason(
        node: ast.Call,
        aliases: dict[str, str],
        session_locals: set[str],
    ) -> str | None:
        func = node.func
        dotted = _dotted(func, aliases)
        if dotted is not None:
            if dotted in _BLOCKING_EXACT:
                return f"blocking call '{dotted}(...)'"
            top = dotted.split(".")[0]
            if top in _BLOCKING_MODULES:
                return f"blocking call '{dotted}(...)'"
            if dotted in _BLOCKING_BUILTINS:
                return "blocking builtin 'open(...)'"
            if dotted.split(".")[-1] in _SESSION_TYPES:
                return (
                    f"threaded client '{dotted.split('.')[-1]}' "
                    "connects synchronously"
                )
        if isinstance(func, ast.Attribute):
            if func.attr == "shutdown" and _is_pool_receiver(func.value):
                wait = True
                for kw in node.keywords:
                    if kw.arg == "wait":
                        wait = not (
                            isinstance(kw.value, ast.Constant)
                            and not kw.value.value
                        )
                if wait:
                    return (
                        "executor '.shutdown(wait=True)' joins worker "
                        "threads on the event loop"
                    )
            if func.attr == "acquire" and _is_lock_receiver(func.value):
                has_timeout = any(
                    kw.arg == "timeout" for kw in node.keywords
                ) or bool(node.args)
                if not has_timeout:
                    return "unbounded 'lock.acquire()' (no timeout)"
            if (
                func.attr in _SESSION_METHODS
                and isinstance(func.value, ast.Name)
                and func.value.id in session_locals
            ):
                return (
                    f"threaded Session method '.{func.attr}(...)' "
                    "round-trips a socket"
                )
        return None


class AwaitUnderLockRule(LintRule):
    code = "R102"
    summary = "no `await` while holding a threading lock"
    hint = (
        "release the lock before awaiting (copy what you need out of "
        "the critical section), or switch to an asyncio.Lock and "
        "`async with`"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                findings: list[Finding] = []
                for stmt in node.body:
                    self._scan(ctx, stmt, frozenset(), node.name, findings)
                yield from findings

    def _scan(
        self,
        ctx: ModuleContext,
        node: ast.AST,
        held: frozenset[str],
        coro: str,
        findings: list[Finding],
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # nested definitions run in their own context
        if isinstance(node, ast.Await) and held:
            findings.append(
                self.finding(
                    ctx,
                    node,
                    f"'{coro}' awaits while holding threading lock(s) "
                    f"{'/'.join(sorted(held))}",
                    locks=sorted(held),
                )
            )
        if isinstance(node, ast.With):
            inner = held
            for item in node.items:
                self._scan(ctx, item.context_expr, inner, coro, findings)
                expr = item.context_expr
                if _is_lock_attr(expr) is not None:
                    inner = inner | {_is_lock_attr(expr) or ""}
                elif isinstance(expr, ast.Name) and "lock" in expr.id.lower():
                    inner = inner | {expr.id}
            for stmt in node.body:
                self._scan(ctx, stmt, inner, coro, findings)
            return
        for child in ast.iter_child_nodes(node):
            self._scan(ctx, child, held, coro, findings)


ASYNC_RULES: tuple[LintRule, ...] = (
    AsyncBlockingCallRule(),
    AwaitUnderLockRule(),
)
