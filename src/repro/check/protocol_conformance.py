"""Protocol-conformance rules (R301–R304): prove the wire surface.

Wire protocol v2 declares its whole surface once, as the pure-literal
``SPEC`` in :mod:`repro.service.spec`: op names with the version that
introduced them, the canonical structured error codes, and the version
gates.  These rules extract the *implemented* surface from the AST of
the service layer — without importing it — and diff the two:

* **R301 — surface parity.**  ``SPEC`` must stay a pure literal; every
  spec op needs an engine handler (``_op_<name>``) and every handler a
  spec entry; the front door must route through the shared
  ``dispatch_line`` (or, failing that, its own literal dispatch table
  must serve every spec op).
* **R302 — error codes.**  Every error code the service emits
  (``QueryError(..., code=...)``, ``protocol_error("code", ...)``,
  ``_fail(op, "code", ...)``, ``CODES`` ledgers, ``code = "..."``
  mappings) must be in ``SPEC.error_codes``, and every canonical code
  must actually be emitted somewhere — a dead code in the canonical
  set is doc rot on the wire.
* **R303 — version gates.**  The engine's post-v1 gate
  (``_POST_V1_OPS``) must either be derived from
  ``SPEC.post_v1_ops()`` or literally equal the spec's post-v1 ops,
  and the gate must actually be enforced (referenced) by the engine.
* **R304 — docs drift.**  The ``<!-- spec:ops -->`` and
  ``<!-- spec:error-codes -->`` tables in ``docs/API.md`` must match
  ``SPEC`` row for row.

All four run as :class:`~repro.check.rules.TreeRule` passes — they see
every parsed module of the lint run at once.  On trees without a
``service/spec.py`` (other projects, fixtures for unrelated rules) they
are silent.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Iterator

from .findings import Finding
from .rules import ModuleContext, TreeContext, TreeRule

__all__ = [
    "CONFORMANCE_RULES",
    "DocsDriftRule",
    "ErrorCodeConformanceRule",
    "FrontDoorParityRule",
    "VersionGateRule",
    "conformance_summary",
]

_SPEC_MODULE = "service/spec.py"
_ENGINE_MODULE = "service/engine.py"
_SHARD_MODULE = "service/shard.py"
_FRONT_DOORS = ("service/aserver.py",)

#: callables whose error-code argument position we know
_CODE_CALLS = {"protocol_error": 0, "_fail": 1, "QueryError": 1}

_DISPATCH_NAME_RE = re.compile(r"dispatch|handlers|routes|ops", re.IGNORECASE)

_OPS_MARKER = "<!-- spec:ops -->"
_ERRORS_MARKER = "<!-- spec:error-codes -->"

_MD_CODE_RE = re.compile(r"`([^`]+)`")


# ---------------------------------------------------------------------------
# AST extraction (no imports — conformance is proven from source)
# ---------------------------------------------------------------------------

def extract_spec(ctx: ModuleContext) -> dict | None:
    """The ``SPEC = ProtocolSpec(...)`` literal, evaluated field by field.

    Returns ``None`` when the module has no SPEC assignment; a field
    that is not a pure literal comes back as the sentinel string
    ``"<non-literal>"`` so R301 can flag it precisely.
    """
    for node in ctx.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not (isinstance(target, ast.Name) and target.id == "SPEC"):
            continue
        if not isinstance(node.value, ast.Call):
            return {"__line__": node.lineno}
        out: dict = {"__line__": node.lineno}
        for kw in node.value.keywords:
            if kw.arg is None:
                continue
            try:
                out[kw.arg] = ast.literal_eval(kw.value)
            except ValueError:
                out[kw.arg] = "<non-literal>"
        return out
    return None


def spec_post_v1_ops(spec: dict) -> frozenset[str]:
    ops = spec.get("ops")
    if not isinstance(ops, dict):
        return frozenset()
    return frozenset(op for op, since in ops.items() if since > 1)


def extract_op_handlers(ctx: ModuleContext) -> dict[str, int]:
    """Op name -> line of every ``_op_<name>`` method in the module."""
    out: dict[str, int] = {}
    for node in ast.walk(ctx.tree):
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ) and node.name.startswith("_op_"):
            out.setdefault(node.name[len("_op_"):], node.lineno)
    return out


def references_name(ctx: ModuleContext, name: str) -> bool:
    """True when the module loads ``name`` (bare or as an attribute)."""
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Name)
            and node.id == name
            and isinstance(node.ctx, ast.Load)
        ):
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
    return False


def literal_dispatch_ops(ctx: ModuleContext) -> dict[str, int]:
    """Op names a front door dispatches on *literally* (no shared
    router): string keys of ``*dispatch*``/``*handlers*`` dict literals
    plus strings compared against a variable named ``op``."""
    out: dict[str, int] = {}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            names = [
                t.id for t in node.targets if isinstance(t, ast.Name)
            ]
            if not any(_DISPATCH_NAME_RE.search(n) for n in names):
                continue
            for key in node.value.keys:
                if isinstance(key, ast.Constant) and isinstance(
                    key.value, str
                ):
                    out.setdefault(key.value, key.lineno)
        elif isinstance(node, ast.Compare):
            left = node.left
            if not (isinstance(left, ast.Name) and left.id == "op"):
                continue
            for comp in node.comparators:
                if isinstance(comp, ast.Constant) and isinstance(
                    comp.value, str
                ):
                    out.setdefault(comp.value, comp.lineno)
    return out


def extract_emitted_codes(ctx: ModuleContext) -> list[tuple[str, int]]:
    """Every structured error code the module can put on the wire."""
    out: list[tuple[str, int]] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            pos = _CODE_CALLS.get(name or "")
            if pos is None:
                continue
            for kw in node.keywords:
                if kw.arg == "code" and isinstance(
                    kw.value, ast.Constant
                ) and isinstance(kw.value.value, str):
                    out.append((kw.value.value, kw.value.lineno))
            if len(node.args) > pos:
                arg = node.args[pos]
                if isinstance(arg, ast.Constant) and isinstance(
                    arg.value, str
                ):
                    out.append((arg.value, arg.lineno))
        elif isinstance(node, ast.Assign):
            targets = [
                t.id for t in node.targets if isinstance(t, ast.Name)
            ]
            if "code" in targets and isinstance(
                node.value, ast.Constant
            ) and isinstance(node.value.value, str):
                out.append((node.value.value, node.lineno))
            elif "CODES" in targets and isinstance(node.value, ast.Dict):
                for v in node.value.values:
                    if isinstance(v, ast.Constant) and isinstance(
                        v.value, str
                    ):
                        out.append((v.value, v.lineno))
    return out


def extract_version_gate(
    ctx: ModuleContext,
) -> tuple[str, frozenset[str] | None, int] | None:
    """The engine's ``_POST_V1_OPS`` gate: ``("derived", None, line)``
    when computed from SPEC, ``("literal", ops, line)`` when spelled
    out, ``None`` when the assignment is missing."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "_POST_V1_OPS"
            for t in node.targets
        ):
            continue
        value = node.value
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Attribute) and func.attr == "post_v1_ops":
                return ("derived", None, node.lineno)
            # frozenset({...}) literal
            if (
                isinstance(func, ast.Name)
                and func.id in {"frozenset", "set"}
                and value.args
            ):
                try:
                    ops = frozenset(ast.literal_eval(value.args[0]))
                except ValueError:
                    return ("opaque", None, node.lineno)
                return ("literal", ops, node.lineno)
        try:
            ops = frozenset(ast.literal_eval(value))
        except ValueError:
            return ("opaque", None, node.lineno)
        return ("literal", ops, node.lineno)
    return None


# ---------------------------------------------------------------------------
# docs/API.md table parsing
# ---------------------------------------------------------------------------

def find_api_doc(spec_ctx: ModuleContext) -> str | None:
    """``docs/API.md`` found by walking up from the spec module."""
    directory = os.path.dirname(os.path.abspath(spec_ctx.path))
    for _ in range(6):
        candidate = os.path.join(directory, "docs", "API.md")
        if os.path.isfile(candidate):
            return candidate
        parent = os.path.dirname(directory)
        if parent == directory:
            break
        directory = parent
    return None


def parse_doc_tables(
    text: str,
) -> tuple[dict[str, tuple[float, int]], dict[str, int], int, int]:
    """The spec-marked tables of ``docs/API.md``.

    Returns ``(ops, error_codes, ops_marker_line, errors_marker_line)``
    where ``ops`` maps op -> (since, line) and ``error_codes`` maps
    code -> line; marker lines are 0 when the marker is absent.
    """
    ops: dict[str, tuple[float, int]] = {}
    codes: dict[str, int] = {}
    ops_line = errors_line = 0
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        stripped = lines[i].strip()
        if stripped == _OPS_MARKER:
            ops_line = i + 1
            i += 1
            while i < len(lines):
                row = lines[i].strip()
                if not row.startswith("|"):
                    if row:
                        break
                    i += 1
                    continue
                cells = [c.strip() for c in row.strip("|").split("|")]
                m = _MD_CODE_RE.search(cells[0]) if cells else None
                if m and len(cells) >= 2:
                    try:
                        since = float(cells[1])
                    except ValueError:
                        since = -1.0
                    ops[m.group(1)] = (since, i + 1)
                i += 1
            continue
        if stripped == _ERRORS_MARKER:
            errors_line = i + 1
            i += 1
            while i < len(lines) and lines[i].strip():
                for m in _MD_CODE_RE.finditer(lines[i]):
                    codes.setdefault(m.group(1), i + 1)
                i += 1
            continue
        i += 1
    return ops, codes, ops_line, errors_line


# ---------------------------------------------------------------------------
# R301 — surface parity
# ---------------------------------------------------------------------------

class FrontDoorParityRule(TreeRule):
    code = "R301"
    summary = (
        "protocol.SPEC is the single literal source of the op surface; "
        "engine handlers and the front door must serve exactly it"
    )
    hint = (
        "add the op to SPEC.ops (with its since-version) or remove the "
        "orphan handler; the front door must route through the shared "
        "protocol.dispatch_line"
    )

    def check(self, tree: TreeContext) -> Iterator[Finding]:
        spec_ctx = tree.find(_SPEC_MODULE)
        if spec_ctx is None:
            return
        spec = extract_spec(spec_ctx)
        if spec is None:
            yield self.finding_at(
                spec_ctx.path,
                1,
                "service/spec.py defines no `SPEC = ProtocolSpec(...)` "
                "assignment",
            )
            return
        for field in ("ops", "error_codes", "supported"):
            if spec.get(field) == "<non-literal>":
                yield self.finding_at(
                    spec_ctx.path,
                    spec["__line__"],
                    f"SPEC field {field!r} is not a pure literal — the "
                    "conformance pass cannot extract it from the AST",
                    field=field,
                )
        ops = spec.get("ops")
        if not isinstance(ops, dict):
            return
        # -- engine handler parity ---------------------------------------
        engine_ctx = tree.find(_ENGINE_MODULE)
        if engine_ctx is not None:
            handlers = dict(extract_op_handlers(engine_ctx))
            shard_ctx = tree.find(_SHARD_MODULE)
            if shard_ctx is not None:
                for op, line in extract_op_handlers(shard_ctx).items():
                    handlers.setdefault(op, line)
            for op in sorted(set(ops) - set(handlers)):
                yield self.finding_at(
                    spec_ctx.path,
                    spec["__line__"],
                    f"op '{op}' is declared in SPEC.ops but no engine "
                    f"handler `_op_{op}` exists",
                    op=op,
                )
            for op in sorted(set(handlers) - set(ops)):
                where = engine_ctx
                if shard_ctx is not None and op not in extract_op_handlers(
                    engine_ctx
                ):
                    where = shard_ctx
                yield self.finding_at(
                    where.path,
                    handlers[op],
                    f"engine handler `_op_{op}` serves an op missing "
                    "from SPEC.ops",
                    op=op,
                )
        # -- front door surface ------------------------------------------
        for suffix in _FRONT_DOORS:
            door_ctx = tree.find(suffix)
            if door_ctx is None or references_name(door_ctx, "dispatch_line"):
                continue  # absent, or the shared router: full surface
            missing = sorted(set(ops) - set(literal_dispatch_ops(door_ctx)))
            if missing:
                yield self.finding_at(
                    door_ctx.path,
                    1,
                    f"front door {suffix} does not route through the "
                    "shared dispatch_line and its literal dispatch "
                    f"table misses spec op(s) "
                    f"{', '.join(repr(o) for o in missing[:5])}"
                    + ("..." if len(missing) > 5 else ""),
                    ops=missing,
                )


# ---------------------------------------------------------------------------
# R302 — canonical error codes
# ---------------------------------------------------------------------------

class ErrorCodeConformanceRule(TreeRule):
    code = "R302"
    summary = (
        "every structured error code the service emits is in "
        "SPEC.error_codes, and every canonical code is emitted"
    )
    hint = (
        "add the new code to SPEC.error_codes (and the docs/API.md "
        "error table), or reuse one of the canonical codes"
    )

    def check(self, tree: TreeContext) -> Iterator[Finding]:
        spec_ctx = tree.find(_SPEC_MODULE)
        if spec_ctx is None:
            return
        spec = extract_spec(spec_ctx)
        if spec is None:
            return
        canonical = spec.get("error_codes")
        if not isinstance(canonical, (tuple, list)):
            return
        canonical_set = frozenset(canonical)
        emitted: set[str] = set()
        for ctx in tree.modules:
            rel = ctx.relpath
            if "service/" not in rel and not rel.startswith("service"):
                continue
            if ctx is spec_ctx:
                continue
            for code, line in extract_emitted_codes(ctx):
                emitted.add(code)
                if code not in canonical_set:
                    yield self.finding_at(
                        ctx.path,
                        line,
                        f"error code {code!r} is not in the canonical "
                        "SPEC.error_codes set",
                        error_code=code,
                    )
        for code in sorted(canonical_set - emitted):
            yield self.finding_at(
                spec_ctx.path,
                spec["__line__"],
                f"canonical error code {code!r} is declared in SPEC "
                "but never emitted by the service layer",
                error_code=code,
            )


# ---------------------------------------------------------------------------
# R303 — version gates
# ---------------------------------------------------------------------------

class VersionGateRule(TreeRule):
    code = "R303"
    summary = (
        "post-v1 ops must be version-gated: the engine's _POST_V1_OPS "
        "matches SPEC (or derives from it) and is actually enforced"
    )
    hint = (
        "derive the gate with `_POST_V1_OPS = SPEC.post_v1_ops()` and "
        "keep the `op in _POST_V1_OPS` check on the execute path"
    )

    def check(self, tree: TreeContext) -> Iterator[Finding]:
        spec_ctx = tree.find(_SPEC_MODULE)
        engine_ctx = tree.find(_ENGINE_MODULE)
        if spec_ctx is None or engine_ctx is None:
            return
        spec = extract_spec(spec_ctx)
        if spec is None or not isinstance(spec.get("ops"), dict):
            return
        gated = spec_post_v1_ops(spec)
        gate = extract_version_gate(engine_ctx)
        if gate is None:
            if gated:
                yield self.finding_at(
                    engine_ctx.path,
                    1,
                    "SPEC declares post-v1 ops "
                    f"({', '.join(sorted(gated))}) but the engine "
                    "defines no _POST_V1_OPS version gate",
                    ops=sorted(gated),
                )
            return
        kind, literal_ops, line = gate
        if kind == "opaque":
            yield self.finding_at(
                engine_ctx.path,
                line,
                "_POST_V1_OPS is neither derived from SPEC"
                ".post_v1_ops() nor a literal op set — the gate "
                "cannot be verified",
            )
        elif kind == "literal" and literal_ops is not None:
            for op in sorted(gated - literal_ops):
                yield self.finding_at(
                    engine_ctx.path,
                    line,
                    f"post-v1 op {op!r} (SPEC since > 1) is missing "
                    "from the _POST_V1_OPS version gate",
                    op=op,
                )
            for op in sorted(literal_ops - gated):
                yield self.finding_at(
                    engine_ctx.path,
                    line,
                    f"_POST_V1_OPS gates {op!r} which SPEC declares "
                    "as a v1 op (or not at all)",
                    op=op,
                )
        # the gate must be enforced somewhere past its definition
        uses = sum(
            1
            for node in ast.walk(engine_ctx.tree)
            if isinstance(node, ast.Name)
            and node.id == "_POST_V1_OPS"
            and isinstance(node.ctx, ast.Load)
        )
        if gated and uses == 0:
            yield self.finding_at(
                engine_ctx.path,
                line,
                "_POST_V1_OPS is defined but never enforced — v1 "
                "clients would see the post-v1 surface",
            )


# ---------------------------------------------------------------------------
# R304 — docs/API.md drift
# ---------------------------------------------------------------------------

class DocsDriftRule(TreeRule):
    code = "R304"
    summary = (
        "the spec-marked op and error-code tables in docs/API.md match "
        "protocol.SPEC row for row"
    )
    hint = (
        "regenerate the table under `<!-- spec:ops -->` / "
        "`<!-- spec:error-codes -->` in docs/API.md from "
        "repro.service.spec.SPEC"
    )

    def check(self, tree: TreeContext) -> Iterator[Finding]:
        spec_ctx = tree.find(_SPEC_MODULE)
        if spec_ctx is None:
            return
        spec = extract_spec(spec_ctx)
        if spec is None:
            return
        doc_path = find_api_doc(spec_ctx)
        if doc_path is None:
            return
        try:
            with open(doc_path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError:
            return
        doc_ops, doc_codes, ops_line, errors_line = parse_doc_tables(text)
        ops = spec.get("ops")
        if isinstance(ops, dict):
            if ops_line == 0:
                yield self.finding_at(
                    doc_path,
                    1,
                    "docs/API.md has no `<!-- spec:ops -->` marker — "
                    "the op table cannot be checked against SPEC",
                )
            else:
                for op in sorted(set(ops) - set(doc_ops)):
                    yield self.finding_at(
                        doc_path,
                        ops_line,
                        f"SPEC op '{op}' is missing from the "
                        "spec-marked op table",
                        op=op,
                    )
                for op, (since, line) in sorted(doc_ops.items()):
                    if op not in ops:
                        yield self.finding_at(
                            doc_path,
                            line,
                            f"documented op '{op}' is not in SPEC.ops",
                            op=op,
                        )
                    elif float(ops[op]) != since:
                        yield self.finding_at(
                            doc_path,
                            line,
                            f"documented since-version {since:g} for "
                            f"op '{op}' drifts from SPEC "
                            f"({float(ops[op]):g})",
                            op=op,
                        )
        codes = spec.get("error_codes")
        if isinstance(codes, (tuple, list)):
            if errors_line == 0:
                yield self.finding_at(
                    doc_path,
                    1,
                    "docs/API.md has no `<!-- spec:error-codes -->` "
                    "marker — the error table cannot be checked "
                    "against SPEC",
                )
            else:
                for code in sorted(set(codes) - set(doc_codes)):
                    yield self.finding_at(
                        doc_path,
                        errors_line,
                        f"SPEC error code '{code}' is missing from "
                        "the spec-marked error-code table",
                        error_code=code,
                    )
                for code, line in sorted(doc_codes.items()):
                    if code not in codes:
                        yield self.finding_at(
                            doc_path,
                            line,
                            f"documented error code '{code}' is not "
                            "in SPEC.error_codes",
                            error_code=code,
                        )


# ---------------------------------------------------------------------------
# CI summary table
# ---------------------------------------------------------------------------

def conformance_summary(tree: TreeContext) -> list[dict]:
    """Surface-by-surface comparison rows for the CI job summary.

    Each row: ``{"surface", "spec", "implemented", "status"}`` —
    ``status`` is ``"ok"`` or ``"drift"``.  An empty list means the
    tree has no ``service/spec.py`` to conform to.
    """
    spec_ctx = tree.find(_SPEC_MODULE)
    if spec_ctx is None:
        return []
    spec = extract_spec(spec_ctx) or {}
    ops = spec.get("ops") if isinstance(spec.get("ops"), dict) else {}
    codes = spec.get("error_codes")
    codes = list(codes) if isinstance(codes, (tuple, list)) else []
    rows: list[dict] = []

    engine_ctx = tree.find(_ENGINE_MODULE)
    handlers: dict[str, int] = {}
    if engine_ctx is not None:
        handlers = dict(extract_op_handlers(engine_ctx))
        shard_ctx = tree.find(_SHARD_MODULE)
        if shard_ctx is not None:
            for op, line in extract_op_handlers(shard_ctx).items():
                handlers.setdefault(op, line)
    rows.append(
        {
            "surface": "engine op handlers",
            "spec": f"{len(ops)} ops",
            "implemented": f"{len(handlers)} handlers",
            "status": "ok" if set(ops) == set(handlers) else "drift",
        }
    )
    for suffix in _FRONT_DOORS:
        door_ctx = tree.find(suffix)
        if door_ctx is None:
            continue
        shared = references_name(door_ctx, "dispatch_line")
        rows.append(
            {
                "surface": f"front door {suffix}",
                "spec": f"{len(ops)} ops",
                "implemented": (
                    "shared dispatch_line"
                    if shared
                    else f"{len(literal_dispatch_ops(door_ctx))} literal ops"
                ),
                "status": "ok"
                if shared
                or set(literal_dispatch_ops(door_ctx)) == set(ops)
                else "drift",
            }
        )
    emitted: set[str] = set()
    for ctx in tree.modules:
        if "service" in ctx.relpath and ctx is not spec_ctx:
            emitted.update(c for c, _ in extract_emitted_codes(ctx))
    rows.append(
        {
            "surface": "error codes",
            "spec": f"{len(codes)} canonical",
            "implemented": f"{len(emitted)} emitted",
            "status": "ok" if emitted == set(codes) else "drift",
        }
    )
    gate = extract_version_gate(engine_ctx) if engine_ctx else None
    gated = spec_post_v1_ops(spec)
    if gate is None:
        gate_desc, gate_ok = "missing", not gated
    elif gate[0] == "derived":
        gate_desc, gate_ok = "derived from SPEC.post_v1_ops()", True
    elif gate[0] == "literal":
        gate_desc = f"literal ({len(gate[1] or ())} ops)"
        gate_ok = gate[1] == gated
    else:
        gate_desc, gate_ok = "opaque", False
    rows.append(
        {
            "surface": "version gate (_POST_V1_OPS)",
            "spec": f"{len(gated)} post-v1 ops",
            "implemented": gate_desc,
            "status": "ok" if gate_ok else "drift",
        }
    )
    doc_path = find_api_doc(spec_ctx)
    if doc_path is not None:
        try:
            with open(doc_path, "r", encoding="utf-8") as fh:
                doc_ops, doc_codes, ops_line, errors_line = (
                    parse_doc_tables(fh.read())
                )
        except OSError:
            doc_ops, doc_codes, ops_line, errors_line = {}, {}, 0, 0
        ops_ok = ops_line > 0 and set(doc_ops) == set(ops) and all(
            float(ops[op]) == since for op, (since, _) in doc_ops.items()
        )
        rows.append(
            {
                "surface": "docs/API.md op table",
                "spec": f"{len(ops)} ops",
                "implemented": f"{len(doc_ops)} rows",
                "status": "ok" if ops_ok else "drift",
            }
        )
        rows.append(
            {
                "surface": "docs/API.md error table",
                "spec": f"{len(codes)} codes",
                "implemented": f"{len(doc_codes)} rows",
                "status": "ok"
                if errors_line > 0 and set(doc_codes) == set(codes)
                else "drift",
            }
        )
    return rows


CONFORMANCE_RULES: tuple[TreeRule, ...] = (
    FrontDoorParityRule(),
    ErrorCodeConformanceRule(),
    VersionGateRule(),
    DocsDriftRule(),
)
