"""Every rejection code the package raises is reached through a verdict.

Lists, with the standard library's ``ast``, each code a
``ValidationError`` is raised with in ``src/dietchain``, and checks it
against ``VERDICT_TESTS``: one test per code that asserts it as a full
node's connect result or a diet node's verdict.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dietchain"
TESTS = Path(__file__).resolve().parent

# rejection code -> "file::test" asserting it as a connect result or a diet verdict
VERDICT_TESTS = {
    "bad-coinbase": "test_full_node.py::test_coinbase_version_must_be_the_height",
    "bad-coinbase-value":
        "test_diet_node.py::test_coinbase_overpay_in_window_is_bad_coinbase_value_on_both_nodes",
    "bad-genesis": "test_full_node.py::test_heavier_chain_from_another_genesis_is_rejected",
    "bad-height": "test_full_node.py::test_a_block_breaking_one_rule_is_a_rejected_connect_at_its_height",
    "bad-structure": "test_diet_node.py::test_input_less_tx_in_window_is_bad_structure_on_both_nodes",
    "bad-target": "test_full_node.py::test_zero_target_block_is_rejected_on_the_tip_and_on_a_branch",
    "history-unavailable":
        "test_diet_node.py::test_a_window_below_the_peers_floor_is_history_unavailable",
    "missing-input": "test_acceptance.py::test_03_spv_accepts_the_double_spend_diet_rejects_it",
    "ownership-failure":
        "test_full_node.py::test_a_block_breaking_one_rule_is_a_rejected_connect_at_its_height",
    "peer-fault": "test_diet_node.py::test_a_shard_served_twice_is_a_peer_fault",
    "pow-failure": "test_full_node.py::test_a_block_breaking_one_rule_is_a_rejected_connect_at_its_height",
    "proof-mismatch": "test_diet_node.py::test_a_lying_tx_proof_is_a_proof_mismatch",
    "reorg-too-deep": "test_full_node.py::test_a_branch_forking_below_the_floor_is_reorg_too_deep",
    "root-mismatch": "test_full_node.py::test_tampered_commitment_rejected_by_full_node",
    "shard-proof-mismatch":
        "test_diet_node.py::test_a_rewritten_window_answer_is_a_verdict_at_its_height",
    "tx-mroot-mismatch":
        "test_full_node.py::test_a_block_breaking_one_rule_is_a_rejected_connect_at_its_height",
    "unknown-block":
        "test_diet_node.py::test_a_peer_without_the_block_asked_about_is_unknown_block_at_its_height",
    "unknown-parent": "test_full_node.py::test_heavier_chain_from_another_genesis_is_rejected",
    "value-creation":
        "test_full_node.py::test_a_block_breaking_one_rule_is_a_rejected_connect_at_its_height",
}


def _raised_codes() -> set[str]:
    """The string codes ``ValidationError`` is built with in the package.
    A code that is not a literal must be another error's ``.code``,
    raised again with a height."""
    codes = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "ValidationError"):
                code = node.args[0]
                if isinstance(code, ast.Constant) and isinstance(code.value, str):
                    codes.add(code.value)
                else:
                    assert isinstance(code, ast.Attribute) and code.attr == "code", \
                        f"{path.name}:{node.lineno}: a code that is not a literal"
    return codes


def test_every_rejection_code_has_a_verdict_test():
    assert sorted(_raised_codes() - set(VERDICT_TESTS)) == []
    assert sorted(set(VERDICT_TESTS) - _raised_codes()) == []


def test_each_verdict_test_exists_and_names_its_code():
    sources: dict[str, tuple[str, dict[str, ast.FunctionDef]]] = {}
    missing = []
    for code, where in sorted(VERDICT_TESTS.items()):
        file, name = where.split("::")
        if file not in sources:
            text = (TESTS / file).read_text()
            sources[file] = text, {node.name: node for node in ast.parse(text).body
                                   if isinstance(node, ast.FunctionDef)}
        text, tests = sources[file]
        test = tests.get(name)
        if test is None:
            missing.append(f"{code}: no test {where}")
            continue
        parts = [*test.decorator_list, test]
        if not any(f'"{code}"' in ast.get_source_segment(text, part) for part in parts):
            missing.append(f"{code}: {where} does not name it")
    assert missing == []
