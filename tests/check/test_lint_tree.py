"""The shipped tree lints clean: ``repro check src`` exits 0.

This is the CI gate — any rule regression on the real sources fails
here first, with the offending findings in the assertion message.
"""

import pathlib

from repro.check import lint_paths

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


class TestTreeIsClean:
    def test_src_has_no_active_findings(self):
        report = lint_paths([str(REPO_ROOT / "src")])
        assert report.errors == []
        assert report.active == [], "\n".join(
            f.format() for f in report.active
        )
        assert report.ok

    def test_all_rules_ran_over_the_tree(self):
        report = lint_paths([str(REPO_ROOT / "src")])
        assert len(report.paths) > 50  # the whole package, not a subset

    def test_cli_exit_code_on_tree(self):
        from repro.cli import main

        assert main(["check", str(REPO_ROOT / "src")]) == 0

    def test_suppressions_are_annotated(self):
        # every suppression in the tree must carry a justification after
        # the noqa code (enforced by convention: "— reason" suffix)
        report = lint_paths([str(REPO_ROOT / "src")])
        assert report.suppressed, "tree should exercise the noqa machinery"

    def test_no_stale_suppressions_in_the_tree(self):
        # a noqa comment that silences nothing is dead weight: drop it
        report = lint_paths([str(REPO_ROOT / "src")])
        assert report.suppressions
        stale = report.stale_suppressions
        assert stale == [], "\n".join(
            f"{s.path}:{s.line}" for s in stale
        )

    def test_protocol_surface_conforms(self):
        # the front door, the error codes, the version gate, and the
        # docs/API.md tables must all match repro.service.spec.SPEC
        from repro.check import conformance_summary, parse_tree

        tree, errors = parse_tree([str(REPO_ROOT / "src")])
        assert errors == []
        rows = conformance_summary(tree)
        assert len(rows) >= 6  # engine, door, codes, gate, 2 doc tables
        drifted = [r for r in rows if r["status"] != "ok"]
        assert drifted == [], drifted

    def test_conformance_cli_exit_code_on_tree(self):
        from repro.cli import main

        assert main(
            ["check", str(REPO_ROOT / "src"), "--conformance"]
        ) == 0
