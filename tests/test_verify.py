"""The verification suite and the acceptance tests name the same clauses."""
from __future__ import annotations

import ast
from pathlib import Path

from punctorus import verify


def _acceptance_tests() -> list[str]:
    tree = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    return [node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")]


def test_each_check_has_one_acceptance_test(verify_results):
    names = [r.name for r in verify_results]
    expected = ["test_criterion_" + name.replace("-", "_") for name in names]
    assert len(set(names)) == len(names)
    assert sorted(_acceptance_tests()) == sorted(expected)


def test_quick_mode_keeps_the_checks(verify_results, cr_table):
    quick = verify.run_checks(quick=True, table=cr_table)
    assert [r.name for r in quick] == [r.name for r in verify_results]
