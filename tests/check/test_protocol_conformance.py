"""R301–R304 protocol-conformance tree rules over fixture service trees.

Each test materializes a miniature ``src/repro/service`` tree (spec,
engine, front door, ``docs/API.md``) in ``tmp_path``, seeds one
kind of drift, and asserts the matching rule flags it — plus a fully
conformant baseline that must stay silent.
"""

import textwrap

from repro.check import conformance_summary, lint_paths, parse_tree

SPEC_PY = """\
SPEC = ProtocolSpec(
    version=2,
    supported=(1, 2),
    legacy=(1.1,),
    ops={"stats": 1, "s_distance": 1, "update": 1.1},
    error_codes=("unknown_op", "internal_error"),
    vertex_ops=(),
)
"""

ENGINE_PY = """\
from .spec import SPEC

_POST_V1_OPS = SPEC.post_v1_ops()


class Engine:
    def _op_stats(self, q):
        return {}

    def _op_s_distance(self, q):
        return {}

    def _op_update(self, q):
        return {}

    def execute(self, op, served):
        if served == 1 and op in _POST_V1_OPS:
            raise QueryError(op, "unknown_op")
        return op
"""

ASERVER_PY = """\
from .protocol import dispatch_line


async def serve(engine, line):
    try:
        return dispatch_line(engine, line)
    except ValueError:
        return protocol_error("internal_error", "boom")
"""

API_MD = """\
# API

<!-- spec:ops -->

| op | since |
| --- | --- |
| `stats` | 1 |
| `s_distance` | 1 |
| `update` | 1.1 |

<!-- spec:error-codes -->
`unknown_op` `internal_error`
"""

DEFAULTS = {
    "src/repro/service/spec.py": SPEC_PY,
    "src/repro/service/engine.py": ENGINE_PY,
    "src/repro/service/aserver.py": ASERVER_PY,
    "docs/API.md": API_MD,
}


def make_tree(tmp_path, **overrides):
    files = dict(DEFAULTS)
    for rel, content in overrides.items():
        if content is None:
            files.pop(rel, None)
        else:
            files[rel] = content
    for rel, content in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(content))
    return tmp_path


def conformance(report):
    """Active R3xx findings only (fixtures may trip no other rules)."""
    return [f for f in report.active if f.rule.startswith("R3")]


class TestConformantBaseline:
    def test_fixture_tree_is_silent(self, tmp_path):
        root = make_tree(tmp_path)
        report = lint_paths([str(root)])
        assert report.errors == []
        assert conformance(report) == [], "\n".join(
            f.format() for f in conformance(report)
        )

    def test_summary_rows_all_ok(self, tmp_path):
        root = make_tree(tmp_path)
        tree, errors = parse_tree([str(root)])
        assert errors == []
        rows = conformance_summary(tree)
        assert rows and all(r["status"] == "ok" for r in rows)

    def test_tree_without_spec_module_is_silent(self, tmp_path):
        root = make_tree(tmp_path, **{"src/repro/service/spec.py": None})
        report = lint_paths([str(root)])
        assert conformance(report) == []


class TestR301SurfaceParity:
    def test_orphan_handler_flagged(self, tmp_path):
        engine = ENGINE_PY + (
            "\n\ndef _op_extra(q):\n    return {}\n"
        )
        root = make_tree(
            tmp_path, **{"src/repro/service/engine.py": engine}
        )
        findings = conformance(lint_paths([str(root)]))
        assert any(
            f.rule == "R301" and "_op_extra" in f.message for f in findings
        )

    def test_spec_op_without_handler_flagged(self, tmp_path):
        spec = SPEC_PY.replace('"update": 1.1}', '"update": 1.1, "ghost": 2}')
        root = make_tree(tmp_path, **{"src/repro/service/spec.py": spec})
        findings = conformance(lint_paths([str(root)]))
        assert any(
            f.rule == "R301" and "'ghost'" in f.message for f in findings
        )

    def test_front_door_divergence_flagged(self, tmp_path):
        # the front door abandons the shared router for a literal table
        # that misses 'update'
        aserver = """\
        async def serve(engine, op, line):
            handlers = {"stats": 1, "s_distance": 2}
            return handlers.get(op)
        """
        root = make_tree(
            tmp_path, **{"src/repro/service/aserver.py": aserver}
        )
        findings = conformance(lint_paths([str(root)]))
        assert any(
            f.rule == "R301" and "update" in f.message for f in findings
        )

    def test_non_literal_spec_field_flagged(self, tmp_path):
        spec = SPEC_PY.replace(
            'ops={"stats": 1, "s_distance": 1, "update": 1.1},',
            "ops=dict(OPS),",
        )
        root = make_tree(tmp_path, **{"src/repro/service/spec.py": spec})
        findings = conformance(lint_paths([str(root)]))
        assert any(
            f.rule == "R301" and "not a pure literal" in f.message
            for f in findings
        )

    def test_noqa_on_handler_line_suppresses(self, tmp_path):
        engine = ENGINE_PY + (
            "\n\ndef _op_extra(q):  # repro: noqa-R301 — staged rollout\n"
            "    return {}\n"
        )
        root = make_tree(
            tmp_path, **{"src/repro/service/engine.py": engine}
        )
        report = lint_paths([str(root)])
        assert conformance(report) == []
        assert any(
            f.rule == "R301" and "_op_extra" in f.message
            for f in report.suppressed
        )


class TestR302ErrorCodes:
    def test_non_canonical_code_flagged_at_site(self, tmp_path):
        aserver = ASERVER_PY.replace('"internal_error"', '"weird"')
        # keep internal_error emitted somewhere so only 'weird' drifts
        aserver += (
            "\n\ndef fallback(op):\n"
            '    return protocol_error("internal_error", "fallback")\n'
        )
        root = make_tree(
            tmp_path, **{"src/repro/service/aserver.py": aserver}
        )
        findings = conformance(lint_paths([str(root)]))
        assert any(
            f.rule == "R302" and "'weird'" in f.message for f in findings
        )

    def test_dead_canonical_code_flagged(self, tmp_path):
        spec = SPEC_PY.replace(
            '"internal_error"),', '"internal_error", "quota_exceeded"),'
        )
        root = make_tree(tmp_path, **{"src/repro/service/spec.py": spec})
        findings = conformance(lint_paths([str(root)]))
        assert any(
            f.rule == "R302"
            and "quota_exceeded" in f.message
            and "never emitted" in f.message
            for f in findings
        )


class TestR303VersionGate:
    def test_derived_gate_is_fine(self, tmp_path):
        root = make_tree(tmp_path)
        findings = conformance(lint_paths([str(root)]))
        assert [f for f in findings if f.rule == "R303"] == []

    def test_literal_gate_mismatch_flagged(self, tmp_path):
        engine = ENGINE_PY.replace(
            "_POST_V1_OPS = SPEC.post_v1_ops()",
            '_POST_V1_OPS = frozenset({"update", "stats"})',
        )
        root = make_tree(
            tmp_path, **{"src/repro/service/engine.py": engine}
        )
        findings = conformance(lint_paths([str(root)]))
        assert any(
            f.rule == "R303" and "'stats'" in f.message for f in findings
        )

    def test_missing_gate_flagged(self, tmp_path):
        engine = ENGINE_PY.replace(
            "_POST_V1_OPS = SPEC.post_v1_ops()", "GATE = None"
        ).replace("op in _POST_V1_OPS", "op in ()")
        root = make_tree(
            tmp_path, **{"src/repro/service/engine.py": engine}
        )
        findings = conformance(lint_paths([str(root)]))
        assert any(
            f.rule == "R303" and "no _POST_V1_OPS" in f.message
            for f in findings
        )

    def test_unenforced_gate_flagged(self, tmp_path):
        engine = ENGINE_PY.replace("op in _POST_V1_OPS", "op in ()")
        root = make_tree(
            tmp_path, **{"src/repro/service/engine.py": engine}
        )
        findings = conformance(lint_paths([str(root)]))
        assert any(
            f.rule == "R303" and "never enforced" in f.message
            for f in findings
        )


class TestR304DocsDrift:
    def test_missing_marker_flagged(self, tmp_path):
        api = API_MD.replace("<!-- spec:ops -->", "")
        root = make_tree(tmp_path, **{"docs/API.md": api})
        findings = conformance(lint_paths([str(root)]))
        assert any(
            f.rule == "R304" and "spec:ops" in f.message for f in findings
        )

    def test_missing_op_row_flagged(self, tmp_path):
        api = API_MD.replace("| `update` | 1.1 |\n", "")
        root = make_tree(tmp_path, **{"docs/API.md": api})
        findings = conformance(lint_paths([str(root)]))
        assert any(
            f.rule == "R304" and "'update'" in f.message for f in findings
        )

    def test_since_version_drift_flagged(self, tmp_path):
        api = API_MD.replace("| `update` | 1.1 |", "| `update` | 1 |")
        root = make_tree(tmp_path, **{"docs/API.md": api})
        findings = conformance(lint_paths([str(root)]))
        assert any(
            f.rule == "R304" and "drifts from SPEC" in f.message
            for f in findings
        )

    def test_undocumented_extra_rows_flagged(self, tmp_path):
        api = API_MD.replace(
            "| `stats` | 1 |", "| `stats` | 1 |\n| `bogus` | 1 |"
        ).replace("`internal_error`", "`internal_error` `made_up`")
        root = make_tree(tmp_path, **{"docs/API.md": api})
        findings = conformance(lint_paths([str(root)]))
        assert any(
            f.rule == "R304" and "'bogus'" in f.message for f in findings
        )
        assert any(
            f.rule == "R304" and "'made_up'" in f.message for f in findings
        )

    def test_summary_reports_drift(self, tmp_path):
        api = API_MD.replace("| `update` | 1.1 |\n", "")
        root = make_tree(tmp_path, **{"docs/API.md": api})
        tree, _ = parse_tree([str(root)])
        rows = conformance_summary(tree)
        drifted = [r for r in rows if r["status"] != "ok"]
        assert any("op table" in r["surface"] for r in drifted)
