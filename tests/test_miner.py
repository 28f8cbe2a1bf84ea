from __future__ import annotations

import dataclasses
import itertools
import random

import pytest
from conftest import FAST, coins_owned, key_of, mined_node, payment, store_state
from hypothesis import given, settings, strategies as st

from dietchain import miner
from dietchain.chain import (
    BlockHeader,
    ChainParams,
    KIND_PAYMENT,
    TxOutput,
    ZERO32,
    header_hash,
    leading_zero_bits,
    make_coinbase_input,
    pow_ok,
    txid,
)
from dietchain.crypto import hash256
from dietchain.errors import ValidationError
from dietchain.full_node import FullNode
from dietchain.miner import (
    BlockTemplate,
    assemble_block,
    make_coinbase,
    make_genesis,
    mine_block,
    mine_on,
    nonce_start,
    solve_pow,
    template_on,
)
from dietchain.rules import commitment_of, signed_spend
from dietchain.utxo import VersionedShardStore, coins_of

ALICE = key_of("alice")
BOB = key_of("bob")


def test_genesis_starts_a_valid_chain():
    node = FullNode(FAST)
    genesis = make_genesis(FAST, ALICE.public_key, seed=1)
    assert genesis.header.height == 0
    assert pow_ok(header_hash(genesis.header), genesis.header.target_bits)
    assert node.connect_block(genesis).accepted
    reward = coins_of(genesis.transactions[0])
    assert len(reward) == 1
    assert reward[0].value == FAST.subsidy
    assert reward[0].challenge == ALICE.challenge


def test_mined_blocks_satisfy_own_difficulty():
    node = mined_node(FAST, ALICE, 5, seed=2)
    for h in node.headers.active_chain():
        header = node.blocks[h].header
        assert header.target_bits == FAST.target_bits
        assert pow_ok(header_hash(header), header.target_bits)


def test_coinbase_txids_never_collide():
    node = mined_node(FAST, ALICE, 8, seed=3)
    ids = [txid(node.blocks[h].transactions[0])
           for h in node.headers.active_chain()]
    assert len(set(ids)) == len(ids)
    # the version field carries the height, which is what makes them unique
    for h, block_hash_ in enumerate(node.headers.active_chain()):
        assert node.blocks[block_hash_].transactions[0].version == h


def test_closed_mining_loop_collects_fees():
    node = mined_node(FAST, ALICE, 3, seed=4)
    node.submit_transaction(payment(node, ALICE, [(BOB.challenge, 10)], fee=3))
    block = mine_on(node, ALICE.public_key, seed=104)
    reward = coins_of(block.transactions[0])[0]
    assert reward.value == FAST.subsidy + 3
    assert node.mempool == []


def test_empty_template_commitment_absorbs_parent_coinbase():
    node = mined_node(FAST, ALICE, 3, seed=5)
    parent_root = commitment_of(node.blocks[node.tip_hash])
    block = mine_on(node, ALICE.public_key, seed=105)  # empty template
    # the new root covers the parent's reward, so it moves
    assert commitment_of(block) != parent_root
    assert commitment_of(block) == node.utxo.utxo_root()


def test_mine_block_budget_exhaustion_returns_none():
    from dietchain.chain import ZERO32
    header = BlockHeader(prev_hash=ZERO32, tx_mroot=ZERO32, target_bits=64,
                         nonce=0, height=0)
    assert solve_pow(header, 64, seed=6) is None


def test_extra_nonce_changes_the_txid_and_nothing_the_coinbase_pays():
    template = BlockTemplate(parent_hash=bytes(32), height=4, target_bits=5,
                             transactions=(), reward_key=ALICE.public_key,
                             reward_value=50)
    root = hash256(b"root")
    base = make_coinbase(template, root)
    rolled = make_coinbase(template, root, extra_nonce=7)
    assert txid(base) != txid(rolled)
    assert base.inputs[0] == make_coinbase_input()  # no roll, no trace
    assert base.outputs == rolled.outputs
    assert rolled.outputs[0].payload == hash256(template.reward_key)
    assert rolled.outputs[1].payload == root  # commitment untouched


def _mined_off_tip(node: FullNode, reward_key: bytes, seed: int):
    """An empty block mined with ``mine_block`` on the node's store, then
    connected."""
    block = mine_block(template_on(node, (), 0, reward_key), node.utxo, seed=seed)
    assert node.connect_block(block).accepted
    return block


def test_a_reward_mined_after_a_rolled_extra_nonce_is_spendable(monkeypatch):
    """Through ``mine_on`` and through ``mine_block`` alike."""
    for mine in (mine_on, _mined_off_tip):
        node = mined_node(FAST, ALICE, 2, seed=143)
        scans = []
        with monkeypatch.context() as patched:
            patched.setattr(miner, "MAX_ATTEMPTS", 1)  # nearly every scan comes up empty
            patched.setattr(miner, "solve_pow",
                            lambda *a, **kw: scans.append(a) or solve_pow(*a, **kw))
            block = mine(node, BOB.public_key, seed=243)
            assert len(scans) > 1 and {attempts for _, attempts in scans} == {1}  # rolled
            mine_on(node, ALICE.public_key, seed=244)
            reward = coins_of(block.transactions[0])[0]
            spend = signed_spend(BOB, [reward], [
                TxOutput(value=reward.value - 1, kind=KIND_PAYMENT, payload=ALICE.challenge)])
            node.submit_transaction(spend)  # the reward's key is the one the template named
            assert spend in mine_on(node, ALICE.public_key, seed=245).transactions


def test_a_genesis_mined_on_an_empty_node_is_the_reference_genesis():
    node = FullNode(FAST)
    genesis = mine_on(node, ALICE.public_key, seed=1)
    template = BlockTemplate(parent_hash=ZERO32, height=0, target_bits=FAST.target_bits,
                             transactions=(), reward_key=ALICE.public_key,
                             reward_value=FAST.subsidy)
    empty = VersionedShardStore(initial_k=FAST.initial_k, size_cap=FAST.size_cap)
    assert genesis == mine_block(template, empty, seed=1) == make_genesis(FAST, ALICE.public_key, 1)
    assert node.headers.active_chain() == [header_hash(genesis.header)]
    assert node.utxo.height == 0 and node.utxo.pending == list(coins_of(genesis.transactions[0]))


def test_nonce_start_spreads_miners():
    starts = {nonce_start(seed) for seed in range(50)}
    assert len(starts) == 50


def test_mine_on_rejects_nothing_on_honest_chain():
    rng = random.Random(7)
    node = mined_node(FAST, ALICE, 2, seed=8)
    for i in range(6):
        if coins_owned(node, ALICE) and rng.random() < 0.7:
            node.submit_transaction(
                payment(node, ALICE, [(BOB.challenge, rng.randrange(1, 5))]))
        mine_on(node, ALICE.public_key, seed=200 + i)
    assert node.tip_height == 7


def _replica(params: ChainParams, blocks) -> FullNode:
    node = FullNode(params)
    for block in blocks:
        assert node.connect_block(block).accepted
    return node


def _active_blocks(node: FullNode):
    return [node.blocks[h] for h in node.headers.active_chain()]


def test_mined_store_equals_a_follower_fed_the_same_blocks():
    # A small cap splits the tree a few times within a dozen blocks.
    params = ChainParams(target_bits=5, subsidy=50, size_cap=160, initial_k=0)
    node = mined_node(params, ALICE, 2, seed=140)
    follower = _replica(params, _active_blocks(node))
    reorged = False
    for i in range(14):
        node.submit_transaction(payment(node, ALICE, [(BOB.challenge, 3)]))
        before = store_state(node.utxo)
        mine_block(template_on(node, *node.build_template(), BOB.public_key), node.utxo,
                   seed=340 + i)
        assert store_state(node.utxo) == before  # a preview leaves no trace

        parent = _active_blocks(node)
        block = mine_on(node, ALICE.public_key, seed=240 + i)
        assert follower.connect_block(block).accepted
        if i == 6:
            # A rival branch without the payment outgrows the block by one.
            rival = _replica(params, parent)
            rival_block = mine_on(rival, BOB.public_key, seed=440)
            extension = mine_on(rival, BOB.public_key, seed=441)
            for peer in (node, follower):
                assert peer.connect_block(rival_block).status == "branch"
                assert peer.connect_block(extension).accepted
            assert node.tip_hash == follower.tip_hash == rival.tip_hash
            assert node.mempool == list(block.transactions[1:])  # the orphan is back
            reorged = True
        assert store_state(node.utxo) == store_state(follower.utxo)
    assert reorged and len(node.utxo.rebalance_log) >= 2
    assert node.mempool == []


def _node_snapshot(node: FullNode):
    return (store_state(node.utxo), node.tip_hash, node.headers.active_chain(),
            dict(node.headers.headers), dict(node.blocks),
            list(node.mempool))


def test_a_failed_solve_leaves_the_node_as_it_was(monkeypatch):
    node = mined_node(FAST, ALICE, 3, seed=141)
    tx = payment(node, ALICE, [(BOB.challenge, 5)])
    node.submit_transaction(tx)
    before = _node_snapshot(node)

    def broken(header, max_attempts, seed=0):
        raise RuntimeError("no nonce for you")

    monkeypatch.setattr(miner, "solve_pow", broken)
    with pytest.raises(RuntimeError):
        mine_on(node, ALICE.public_key, seed=241)
    assert _node_snapshot(node) == before
    monkeypatch.undo()
    assert tx in mine_on(node, ALICE.public_key, seed=241).transactions


def _overpaying(template):
    return dataclasses.replace(template, reward_value=template.reward_value + 1)


def _off_target(template):
    return dataclasses.replace(template, target_bits=template.target_bits + 1)


def _failing_nonce(header, max_attempts, seed=0):
    return next(n for n in itertools.count()
                if not pow_ok(header_hash(header._replace(nonce=n)), header.target_bits))


def _junk_root(make):
    return lambda template, root, extra_nonce=0: make(template, hash256(b"junk"), extra_nonce)


@pytest.mark.parametrize("code, patch", [
    # a corrupted pool (one tx twice) is refused when the body is opened
    ("missing-input", lambda mp, node: mp.setattr(node, "mempool", node.mempool * 2)),
    ("bad-coinbase-value", lambda mp, node: mp.setattr(
        miner, "template_on", lambda *a: _overpaying(template_on(*a)))),
    ("bad-target", lambda mp, node: mp.setattr(
        miner, "template_on", lambda *a: _off_target(template_on(*a)))),
    ("root-mismatch", lambda mp, node: mp.setattr(
        miner, "make_coinbase", _junk_root(make_coinbase))),
    ("pow-failure", lambda mp, node: mp.setattr(miner, "solve_pow", _failing_nonce)),
])
def test_a_rejected_own_block_leaves_the_node_as_it_was(monkeypatch, code, patch):
    node = mined_node(FAST, ALICE, 3, seed=142)
    node.submit_transaction(payment(node, ALICE, [(BOB.challenge, 5)]))
    patch(monkeypatch, node)
    before = _node_snapshot(node)
    with pytest.raises(ValidationError) as raised:
        mine_on(node, ALICE.public_key, seed=242)
    assert (raised.value.code, raised.value.height) == (code, 3)
    assert _node_snapshot(node) == before


def _reference_scan(header: BlockHeader, max_attempts: int, start: int):
    """The nonce search as a plain scan over the leading-zero-bit count."""
    nonce = start
    for _ in range(max_attempts):
        candidate = header._replace(nonce=nonce)
        if leading_zero_bits(header_hash(candidate)) >= candidate.target_bits:
            return nonce
        nonce = (nonce + 1) % (1 << 64)
    return None


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(prev_hash=st.binary(min_size=32, max_size=32),
       tx_mroot=st.binary(min_size=32, max_size=32),
       target_bits=st.integers(0, 16), nonce=st.integers(0, 2 ** 64 - 1),
       height=st.integers(0, 2 ** 32 - 1), seed=st.integers(0, 2 ** 64 - 1),
       max_attempts=st.integers(0, 300))
def test_solve_pow_finds_the_reference_scan_nonce(prev_hash, tx_mroot, target_bits, nonce,
                                                  height, seed, max_attempts):
    header = BlockHeader(prev_hash, tx_mroot, target_bits, nonce, height)
    expected = _reference_scan(header, max_attempts, nonce_start(seed))
    assert solve_pow(header, max_attempts, seed) == expected
    if expected is not None:
        assert pow_ok(header_hash(header._replace(nonce=expected)), target_bits)


def _counting_pow_ok(monkeypatch) -> list:
    """Rebind ``miner.pow_ok`` to record each (digest, target_bits) it is
    asked about, as the bench tracer counts attempts."""
    calls = []

    def counting(digest, target_bits):
        calls.append((digest, target_bits))
        return pow_ok(digest, target_bits)

    monkeypatch.setattr(miner, "pow_ok", counting)
    return calls


@pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1])
def test_a_scan_calls_pow_ok_once_per_nonce_it_tries(monkeypatch, seed):
    header = BlockHeader(b"\x03" * 32, b"\x04" * 32, 6, 0, 12)
    calls = _counting_pow_ok(monkeypatch)
    found = solve_pow(header, 1 << 16, seed)
    start = nonce_start(seed)
    assert found is not None
    assert len(calls) == (found - start) % 2 ** 64 + 1
    assert calls == [(header_hash(header._replace(nonce=(start + i) % 2 ** 64)), 6)
                     for i in range(len(calls))]


def test_an_empty_scan_calls_pow_ok_max_attempts_times(monkeypatch):
    header = BlockHeader(b"\x05" * 32, b"\x06" * 32, 255, 0, 1)
    calls = _counting_pow_ok(monkeypatch)
    assert solve_pow(header, 300, seed=4) is None
    assert len(calls) == 300


@pytest.mark.parametrize("field", ["prev_hash", "tx_mroot"])
@pytest.mark.parametrize("width", [31, 33])
def test_solve_pow_refuses_a_wrong_width_hash_before_any_attempt(monkeypatch, field, width):
    # struct's "32s" would pad or cut such a hash without a word
    header = BlockHeader(b"\x07" * 32, b"\x08" * 32, 0, 0, 2)._replace(
        **{field: b"\x09" * width})
    calls = _counting_pow_ok(monkeypatch)
    with pytest.raises(ValueError, match=f"^{field} must be 32 bytes, got {width}$"):
        solve_pow(header, 10)
    assert calls == []


def test_solve_pow_scan_wraps_the_nonce_space(monkeypatch):
    header = BlockHeader(b"\x01" * 32, b"\x02" * 32, 4, 0, 9)
    start = (1 << 64) - 3
    expected = _reference_scan(header, 200, start)
    assert expected is not None and expected < start  # found after the wrap
    monkeypatch.setattr(miner, "nonce_start", lambda seed: start)
    assert solve_pow(header, 200) == expected
