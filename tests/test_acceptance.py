"""End-to-end acceptance gate.

Each test is one numbered claim about the system, checked at full strength
and printed as a single PASS/FAIL line (run with -s or read captured output).
The oracles here are built from hashlib/struct only, independent of the
package's own hashing and serialization helpers.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import struct

from conftest import key_of, mined_node, payment

from dietchain import cli
from dietchain.chain import COIN_SIZE, ChainParams, OutPoint
from dietchain.diet_node import compute_verification_range
from dietchain.merkle import build_root, extract_partial, partial_root
from dietchain.miner import mine_on
from dietchain.rules import commitment_of
from dietchain.scenario import render_report, render_trace, run_scenario
from dietchain.utxo import Coin, coins_of

ALICE = key_of("alice")
BOB = key_of("bob")


def _criterion(num: int, title: str, ok: bool, detail: str = "") -> bool:
    mark = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{mark}] {num:02d} {title}{suffix}")
    return ok


def _bundled(name: str) -> dict:
    return json.loads(cli.bundled_scenarios()[name])


def _last_verdict(report: dict, node: str) -> dict:
    return report["queries"][node]["verdicts"][-1]


def _h(data: bytes) -> bytes:
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


def _leaf_of(tx_id: bytes, leaves: set[int]) -> int:
    """The leaf on the txid's path: the one whose id is its depth's bit
    behind the txid's first bits (the root is 1, node n has children 2n
    and 2n+1)."""
    prefix = int.from_bytes(tx_id[:4], "big")
    return next(i for d in range(33) if (i := 1 << d | prefix >> (32 - d)) in leaves)


def _blob(coins: list[Coin]) -> bytes:
    return b"".join(c.outpoint.txid + struct.pack("<IQ", c.outpoint.index, c.value) + c.challenge
                    for c in sorted(coins))


def _oracle_root(coins: list[Coin], leaves: set[int]) -> bytes:
    """The trie's root by its definition: a leaf is the hash of 0x00 and
    its coins' bytes, an inner node the hash of 0x01 and its children."""
    buckets: dict[int, list[Coin]] = {i: [] for i in leaves}
    for coin in coins:
        buckets[_leaf_of(coin.outpoint.txid, leaves)].append(coin)

    def node(i: int) -> bytes:
        if i in leaves:
            return _h(b"\x00" + _blob(buckets[i]))
        return _h(b"\x01" + node(2 * i) + node(2 * i + 1))
    return node(1)


def _oracle_split(leaf: int, coins: list[Coin], leaves: set[int], cap: int) -> None:
    """The split rule on an edited leaf: over ``cap`` bytes and above
    depth 32, it gives way to its two children, which settle in turn."""
    held = [c for c in coins if _leaf_of(c.outpoint.txid, leaves) == leaf]
    if len(_blob(held)) > cap and leaf < 1 << 32:
        leaves.remove(leaf)
        leaves |= {2 * leaf, 2 * leaf + 1}
        for child in (2 * leaf, 2 * leaf + 1):
            _oracle_split(child, held, leaves, cap)


def test_01_sharded_store_equals_flat_oracle():
    params = ChainParams(target_bits=5, subsidy=50, size_cap=512, initial_k=1)
    node = mined_node(params, ALICE, 1, seed=90)
    rng = random.Random(90)

    committed: dict[OutPoint, Coin] = {}
    pending: list[Coin] = list(coins_of(node.blocks[node.tip_hash].transactions[0]))
    checked = 0
    leaves = {2, 3}  # the split rule, run on the oracle's coins from initial_k 1
    for height in range(1, 50):
        if rng.random() < 0.8:
            recipients = [(ALICE.challenge if rng.random() < 0.7 else BOB.challenge,
                           rng.randrange(1, 5))
                          for _ in range(rng.randrange(1, 6))]
            node.submit_transaction(payment(node, ALICE, recipients))
        block = mine_on(node, ALICE.public_key, seed=900 + height)

        touched = [coin.outpoint.txid for coin in pending]
        for coin in pending:
            committed[coin.outpoint] = coin
        for tx in block.transactions[1:]:
            for inp in tx.inputs:
                touched.append(inp.prevout.txid)
                del committed[inp.prevout]
            for coin in coins_of(tx):
                touched.append(coin.outpoint.txid)
                committed[coin.outpoint] = coin
        pending = list(coins_of(block.transactions[0]))
        for leaf in sorted({_leaf_of(tid, leaves) for tid in touched}):
            _oracle_split(leaf, list(committed.values()), leaves, params.size_cap)

        store = node.utxo
        expected = sorted(list(committed.values()) + pending)
        if sorted(store.all_coins()) != expected:
            assert _criterion(1, "sharded store equals flat oracle", False,
                              f"coin multiset diverged at height {height}")
        if sorted(store.pending) != sorted(pending):
            assert _criterion(1, "sharded store equals flat oracle", False,
                              f"pending set diverged at height {height}")
        rebuilt = _oracle_root(list(committed.values()), leaves)
        if commitment_of(block) != rebuilt:
            assert _criterion(1, "sharded store equals flat oracle", False,
                              f"committed root diverged at height {height}")
        record = store.touched_log[height]
        k = len(leaves).bit_length() - 1
        if (set(store.shards), record.k_after, record.shard_bytes) != \
                (leaves, k, COIN_SIZE * len(committed)):
            assert _criterion(1, "sharded store equals flat oracle", False,
                              f"height record diverged at height {height}")
        checked += 1

    splits = len(node.utxo.rebalance_log)
    ok = checked == 49 and splits >= 1
    assert _criterion(1, "sharded store equals flat oracle", ok,
                      f"{checked} blocks, {splits} splits, exact match throughout")


def test_02_partial_tree_matches_rebuild_within_size_bound():
    rng = random.Random(91)
    worst_ratio = 0.0
    for _ in range(1000):
        n = rng.randrange(1, 65)
        leaves = [rng.randbytes(32) for _ in range(n)]
        include = set(rng.sample(range(n), rng.randrange(1, n + 1)))
        tree = extract_partial(leaves, include)

        if partial_root(tree, {i: leaves[i] for i in include}) != build_root(leaves):
            assert _criterion(2, "partial trees match full rebuilds", False,
                              "extracted root diverged")
        bound = len(include) * math.ceil(math.log2(n)) if n > 1 else 0
        if len(tree.siblings) > bound:
            assert _criterion(2, "partial trees match full rebuilds", False,
                              f"{len(tree.siblings)} siblings over bound {bound}")
        worst_ratio = max(worst_ratio, len(tree.siblings) / bound if bound else 0)

        changed = {i: rng.randbytes(32)
                   for i in rng.sample(sorted(include), rng.randrange(1, len(include) + 1))}
        patched = list(leaves)
        for i, leaf in changed.items():
            patched[i] = leaf
        if partial_root(tree, {i: patched[i] for i in include}) != build_root(patched):
            assert _criterion(2, "partial trees match full rebuilds", False,
                              "in-place update diverged from rebuild")
    assert _criterion(2, "partial trees match full rebuilds", True,
                      f"1000 cases, worst sibling/bound ratio {worst_ratio:.2f}")


def test_03_spv_accepts_the_double_spend_diet_rejects_it():
    run = run_scenario(_bundled("spv_vs_diet_double_spend"))
    spv = _last_verdict(run.report, "spv-victim")
    diet = _last_verdict(run.report, "diet-victim")
    ok = (run.passed
          and spv["tx"] == diet["tx"]
          and spv["status"] == "spv-only"
          and diet["status"] == "rejected"
          and diet["reason"] == "missing-input")
    assert _criterion(3, "spv accepts the double spend, diet rejects it", ok,
                      f"spv={spv['status']} diet={diet['status']}/{diet['reason']}")


def test_04_single_forged_block_rejected_across_100_seeds():
    cfg = _bundled("forged_single_block")
    victim = next(n for n in cfg["nodes"] if n["id"] == "victim-node")
    assert victim["max_length"] >= 2
    hits = 0
    for seed in range(100):
        run = run_scenario(cfg, seed_override=seed)
        verdict = _last_verdict(run.report, "victim-node")
        if verdict["status"] == "rejected" and verdict["reason"] == "root-mismatch":
            hits += 1
    assert _criterion(4, "a single forged block never fools a window of 2",
                      hits == 100, f"{hits}/100 seeds rejected with root-mismatch")


def test_05_window_l_falls_only_to_l_plus_1_consecutive_forgeries():
    cfg = _bundled("forge_l_plus_1")
    run = run_scenario(cfg)
    windows = {n["id"]: n["max_length"] for n in cfg["nodes"] if "max_length" in n}
    budgets = {s["victim"]: s["forge_count"]
               for s in cfg["script"] if s["action"] == "forge_chain"}
    outcomes = []
    ok = run.passed
    for l in (1, 2, 4):
        reject_node, accept_node = f"w{l}r-node", f"w{l}a-node"
        assert windows[reject_node] == windows[accept_node] == l
        assert budgets[reject_node] == l and budgets[accept_node] == l + 1
        rejected = _last_verdict(run.report, reject_node)
        accepted = _last_verdict(run.report, accept_node)
        ok = ok and rejected["status"] == "rejected"
        ok = ok and accepted["status"] == "diet-verified"
        outcomes.append(f"l={l}: {l} forged {rejected['status']}, "
                        f"{l + 1} forged {accepted['status']}")
    assert _criterion(5, "forging l blocks fails, l+1 coherent blocks succeed",
                      ok, "; ".join(outcomes))


def test_06_shard_cap_holds_and_splits_halve_the_average():
    cfg = _bundled("rebalance_growth")
    run = run_scenario(cfg)
    chain = run.report["chain"]
    cap = cfg["size_cap"]
    store = run.state.full(run.state.reference).utxo
    # every leaf above depth 32 fits the cap; a depth-32 leaf holds one
    # txid's first 32 bits and splits no further
    worst = max(len(coins) * COIN_SIZE for i, coins in store.shards.items() if i < 1 << 32)
    worst_block = max(per["largest_bytes"] for per in chain["per_block"])
    drifts = [abs(sum(s["bytes_after"]) / 2 - s["bytes_before"] / 2)
              for s in chain["rebalances"]]
    ok = (run.passed
          and cap <= 1024
          and worst <= cap and worst_block <= cap
          and len(drifts) >= 1
          and max(drifts) <= 1.0)
    assert _criterion(6, "per-leaf cap holds and each split halves its leaf on average",
                      ok, f"largest leaf {worst_block}/{cap}, {len(drifts)} splits, "
                          f"max halving drift {max(drifts):.2f}")


def test_07_verification_downloads_a_small_slice_of_the_set():
    cfg = _bundled("honest_chain")
    assert cfg["initial_k"] == 6  # 64 shards
    run = run_scenario(cfg)
    chain = run.report["chain"]
    touched = max(per["touched"] for per in chain["per_block"])
    totals = {per["height"]: per["total_bytes"] for per in chain["per_block"]}
    ratios = [entry["utxos_bytes"] / totals[entry["height"] - 1]
              for entry in run.report["queries"]["carol-node"]["per_height"]
              if "utxos_bytes" in entry]
    ok = (run.passed and touched <= 6 and len(ratios) > 0
          and max(ratios) <= 0.25)
    assert _criterion(7, "shard downloads stay under a quarter of the full set",
                      ok, f"max touched {touched}, worst ratio "
                          f"{max(ratios):.3f} over {len(ratios)} blocks")


def test_08_same_seed_reproduces_every_scenario_byte_for_byte():
    stable = 0
    names = sorted(cli.bundled_scenarios())
    for name in names:
        first = run_scenario(_bundled(name))
        second = run_scenario(_bundled(name))
        if (render_report(first.report) == render_report(second.report)
                and render_trace(first.trace) == render_trace(second.trace)):
            stable += 1
    assert _criterion(8, "reruns are byte-identical in report and trace",
                      stable == len(names), f"{stable}/{len(names)} scenarios")


def test_09_commitment_unaware_node_follows_the_same_chain():
    run = run_scenario(_bundled("legacy_interop"))
    modern = run.state.full_nodes["full-1"]
    legacy = run.state.full_nodes["legacy-1"]
    verdict = _last_verdict(run.report, "carol-node")
    ok = (run.passed
          and modern.check_commitments
          and not legacy.check_commitments
          and modern.tip_hash == legacy.tip_hash
          and verdict["status"] == "diet-verified")
    assert _criterion(9, "a commitment-unaware node accepts the same chain", ok,
                      f"tips match at {legacy.tip_height}, diet verified via legacy peer")


def test_10_window_arithmetic_matches_hand_traced_values():
    traced = compute_verification_range(10, 20, 6, 3, 18)
    heights = list(range(traced[0] + 1, traced[1] + 1)) if traced else []
    too_deep = compute_verification_range(0, 20, 6, 3, 14)
    already_done = compute_verification_range(18, 20, 6, 3, 18)
    ok = (traced == (15, 18)
          and heights == [16, 17, 18]
          and too_deep is None
          and already_done is None)
    assert _criterion(10, "verification window arithmetic matches hand-traced values",
                      ok, f"window {traced} verifies {heights}; deep/done fall back")
