from __future__ import annotations

import copy
import dataclasses
import itertools
import operator
import random

import pytest
from conftest import (
    FAST,
    coins_owned,
    key_of,
    leaves_before,
    mined_node,
    payment,
    served_root,
    store_state,
)
from hypothesis import given, settings, strategies as st

from dietchain import chain, full_node, rules
from dietchain.chain import (
    Block,
    ChainParams,
    KIND_COMMITMENT,
    KIND_PAYMENT,
    Transaction,
    TxInput,
    TxOutput,
    ZERO32,
    block_hash,
    encode_block,
    sighash,
    txid,
)
from dietchain.crypto import BloomFilter, hash256
from dietchain.errors import ValidationError
from dietchain.full_node import ConnectResult, FullNode
from dietchain.merkle import partial_root
from dietchain.miner import (
    BlockTemplate,
    assemble_block,
    block_on,
    make_coinbase,
    make_genesis,
    mine_block,
    mine_on,
    mine_txs,
    solve_pow,
    template_on,
)
from dietchain.rules import commitment_of, signed_spend, tx_merkle_root, validate_transaction
from dietchain.utxo import VersionedShardStore, coins_of

ALICE = key_of("alice")
BOB = key_of("bob")
MALLORY = key_of("mallory")


def test_fee_is_input_sum_minus_output_sum():
    node = mined_node(FAST, ALICE, 3, seed=100)
    coin = coins_owned(node, ALICE)[0]
    tx = payment(node, ALICE, [(BOB.challenge, 7)], fee=4)
    view = node.utxo.open(node.utxo.next_height)
    total_in = sum(view.get_coin(i.prevout).value for i in tx.inputs)
    assert total_in - sum(o.value for o in tx.outputs) == 4
    node.submit_transaction(tx)
    _, fees = node.build_template()
    assert fees == 4


def test_missing_input_rejected():
    node = mined_node(FAST, ALICE, 3, seed=101)
    tx = payment(node, ALICE, [(BOB.challenge, 5)])
    ghost = tx.inputs[0]._replace(
        prevout=tx.inputs[0].prevout._replace(index=99))
    bad = tx._replace(inputs=(ghost,) + tx.inputs[1:])
    with pytest.raises(ValidationError) as info:
        node.submit_transaction(bad)
    assert info.value.code == "missing-input"


def test_wrong_key_is_ownership_failure():
    node = mined_node(FAST, ALICE, 3, seed=102)
    coin = coins_owned(node, ALICE)[0]
    from dietchain.chain import TxInput
    tx = Transaction(
        version=0,
        inputs=(TxInput(prevout=coin.outpoint, public_key=MALLORY.public_key,
                        signature=b"\x00" * 64),),
        outputs=(TxOutput(value=coin.value, kind=KIND_PAYMENT,
                          payload=MALLORY.challenge),),
    )
    signature = MALLORY.sign(sighash(tx))
    tx = tx._replace(inputs=(tx.inputs[0]._replace(signature=signature),))
    with pytest.raises(ValidationError) as info:
        node.submit_transaction(tx)
    assert info.value.code == "ownership-failure"


def test_bad_signature_is_ownership_failure():
    node = mined_node(FAST, ALICE, 3, seed=103)
    tx = payment(node, ALICE, [(BOB.challenge, 5)])
    flipped = bytearray(tx.inputs[0].signature)
    flipped[0] ^= 1
    bad = tx._replace(inputs=(
        tx.inputs[0]._replace(signature=bytes(flipped)),) + tx.inputs[1:])
    with pytest.raises(ValidationError) as info:
        node.submit_transaction(bad)
    assert info.value.code == "ownership-failure"


def test_value_creation_rejected():
    node = mined_node(FAST, ALICE, 3, seed=104)
    coin = coins_owned(node, ALICE)[0]
    from dietchain.chain import TxInput
    tx = Transaction(
        version=0,
        inputs=(TxInput(prevout=coin.outpoint, public_key=ALICE.public_key,
                        signature=b"\x00" * 64),),
        outputs=(TxOutput(value=coin.value + 1, kind=KIND_PAYMENT,
                          payload=BOB.challenge),),
    )
    signature = ALICE.sign(sighash(tx))
    tx = tx._replace(inputs=(tx.inputs[0]._replace(signature=signature),))
    with pytest.raises(ValidationError) as info:
        node.submit_transaction(tx)
    assert info.value.code == "value-creation"


def test_double_spend_within_one_transaction_rejected():
    node = mined_node(FAST, ALICE, 3, seed=105)
    tx = payment(node, ALICE, [(BOB.challenge, 5)])
    doubled = tx._replace(inputs=tx.inputs + tx.inputs)
    signature = ALICE.sign(sighash(doubled))  # valid over the doubled shape
    doubled = doubled._replace(inputs=tuple(
        i._replace(signature=signature) for i in doubled.inputs))
    with pytest.raises(ValidationError) as info:
        validate_transaction(doubled, node.utxo.open(node.utxo.next_height))
    assert info.value.code == "missing-input"
    assert "twice" in info.value.detail


def test_mempool_blocks_conflicting_spend():
    node = mined_node(FAST, ALICE, 3, seed=106)
    first = payment(node, ALICE, [(BOB.challenge, 5)])
    node.submit_transaction(first)
    conflict = payment(node, ALICE, [(MALLORY.challenge, 5)])
    if conflict.inputs[0].prevout == first.inputs[0].prevout:
        with pytest.raises(ValidationError):
            node.submit_transaction(conflict)


def test_full_block_cycle_and_commitment_checked():
    node = mined_node(FAST, ALICE, 4, seed=107)
    node.submit_transaction(payment(node, ALICE, [(BOB.challenge, 11)]))
    block = mine_on(node, ALICE.public_key, seed=207)
    assert node.tip_height == 4
    assert len(block.transactions) == 2
    assert any(c.challenge == BOB.challenge for c in node.utxo.all_coins())
    # the block's committed root is exactly the staged store root
    assert commitment_of(block) == node.utxo.utxo_root()


def test_tampered_commitment_rejected_by_full_node():
    node = mined_node(FAST, ALICE, 3, seed=108)
    template = template_on(node, *node.build_template(), ALICE.public_key)
    block = assemble_block(template, node.utxo)
    fake = make_coinbase(template, hash256(b"not the root"))
    txs = (fake,) + template.transactions
    forged = Block(header=block.header._replace(tx_mroot=tx_merkle_root(txs)),
                   transactions=txs)
    nonce = solve_pow(forged.header, 1 << 20, seed=308)
    forged = Block(header=forged.header._replace(nonce=nonce),
                   transactions=forged.transactions)
    result = node.connect_block(forged)
    assert not result.accepted
    assert result.reason == "root-mismatch"
    # a node with commitment checks off takes the same block
    easy = FullNode(FAST, check_commitments=False)
    for h in node.headers.active_chain():
        assert easy.connect_block(node.blocks[h]).accepted
    assert easy.connect_block(forged).accepted


def test_pow_failure_rejected():
    node = mined_node(FAST, ALICE, 2, seed=109)
    template = template_on(node, *node.build_template(), ALICE.public_key)
    block = assemble_block(template, node.utxo)  # nonce 0, almost surely bad
    if not block.header.target_bits or not block_hash_ok(block):
        result = node.connect_block(block)
        assert result.status == "rejected"
        assert result.reason == "pow-failure"


def block_hash_ok(block: Block) -> bool:
    from dietchain.chain import header_hash, pow_ok
    return pow_ok(header_hash(block.header), block.header.target_bits)


def test_duplicate_block_reports_duplicate():
    node = mined_node(FAST, ALICE, 3, seed=110)
    tip = node.blocks[node.tip_hash]
    result = node.connect_block(tip)
    assert result.status == "duplicate"


def test_fork_choice_first_seen_wins_ties():
    shared = mined_node(FAST, ALICE, 3, seed=111)
    blocks = [shared.blocks[h] for h in shared.headers.active_chain()]

    a = FullNode(FAST)
    for b in blocks:
        a.connect_block(b)
    # a competing block at the same height, same cumulative work
    rival_parent = blocks[-2]
    rival_node = FullNode(FAST)
    for b in blocks[:-1]:
        rival_node.connect_block(b)
    rival = mine_on(rival_node, BOB.public_key, seed=911)
    assert rival.header.height == blocks[-1].header.height

    tip_before = a.tip_hash
    result = a.connect_block(rival)
    assert result.status == "branch"
    assert a.tip_hash == tip_before  # strictly-greater work required


def test_reorganization_switches_to_heavier_branch():
    node = mined_node(FAST, ALICE, 4, seed=112)
    old_tip = node.tip_hash
    fork_parent = node.headers.active_chain()[-2]

    branch = FullNode(FAST)
    for h in node.headers.active_chain()[:-1]:
        branch.connect_block(node.blocks[h])
    b1 = mine_on(branch, BOB.public_key, seed=512)
    b2 = mine_on(branch, BOB.public_key, seed=513)

    assert node.connect_block(b1).status == "branch"
    result = node.connect_block(b2)
    assert result.accepted
    assert node.tip_hash == block_hash(b2)
    assert node.tip_height == 4
    # the store replayed the new branch: rewards belong to the rival miner
    rewards = [c for c in node.utxo.all_coins() if c.challenge == BOB.challenge]
    assert len(rewards) == 2


def test_reorg_rejects_branch_with_invalid_body():
    node = mined_node(FAST, ALICE, 3, seed=113)
    old_tip = node.tip_hash

    branch = FullNode(FAST, check_commitments=False)
    for h in node.headers.active_chain()[:-1]:
        branch.connect_block(node.blocks[h])
    template = template_on(branch, *branch.build_template(), BOB.public_key)
    bad_cb = make_coinbase(template, hash256(b"junk"))
    txs = (bad_cb,) + template.transactions
    from dietchain.chain import BlockHeader
    header = branch.blocks[branch.tip_hash].header
    forged1 = mine_block(template, branch.utxo, seed=613)
    # swap in the junk commitment, remine
    txs = (make_coinbase(template, hash256(b"junk")),) + template.transactions
    h2 = forged1.header._replace(tx_mroot=tx_merkle_root(txs), nonce=0)
    nonce = solve_pow(h2, 1 << 20, seed=614)
    forged1 = Block(header=h2._replace(nonce=nonce), transactions=txs)
    assert branch.connect_block(forged1).accepted

    forged2 = mine_on(branch, BOB.public_key, seed=615)
    store = node.utxo
    before = (node.headers.active_chain(), store.utxo_root(), store.touched_log.copy(),
              dict(store.versions), list(store.pending),
              sorted(store.all_coins()))
    node.connect_block(forged1)
    result = node.connect_block(forged2)
    assert not result.accepted
    assert result.reason == "root-mismatch"
    assert node.tip_hash == old_tip  # state restored
    assert (node.headers.active_chain(), store.utxo_root(), store.touched_log, store.versions,
            store.pending, sorted(store.all_coins())) == before
    assert block_hash(forged1) not in node.blocks


def _junk_commitment_block(node: FullNode, seed: int) -> Block:
    """A block with valid work on the node's tip that commits a junk root;
    the node must not check commitments to accept it."""
    template = template_on(node, *node.build_template(), BOB.public_key)
    txs = (make_coinbase(template, hash256(b"junk")),) + template.transactions
    header = assemble_block(template, node.utxo).header._replace(tx_mroot=tx_merkle_root(txs))
    block = Block(header=header._replace(nonce=solve_pow(header, 1 << 20, seed=seed)),
                  transactions=txs)
    assert node.connect_block(block).accepted
    return block


def test_a_failed_reorg_forgets_sibling_branches_on_the_invalid_block():
    node = mined_node(FAST, ALICE, 5, seed=124)  # heights 0..4
    prefix = [node.blocks[h] for h in node.headers.active_chain()[:2]]
    branches = []
    for key, seed in ((BOB, 625), (MALLORY, 635)):
        lenient = FullNode(FAST, check_commitments=False)
        for block in prefix:
            assert lenient.connect_block(block).accepted
        bad = _junk_commitment_block(lenient, seed=615)  # the same block on both
        branches.append([bad] + [mine_on(lenient, key.public_key, seed=seed + i)
                                 for i in range(3)])  # heights 2..5
    (bad, b3, b4, b5), (_, s3, s4, s5) = branches
    tip, root = node.tip_hash, node.utxo.utxo_root()

    for block in (bad, b3, s3, b4):
        assert node.connect_block(block).status == "branch"
    result = node.connect_block(b5)  # heavier, and invalid at height 2
    assert (result.status, result.reason, result.height) == ("rejected", "root-mismatch", 2)
    for block in (s4, s5):  # s3's parent is forgotten, so s3 must be too
        result = node.connect_block(block)
        assert (result.status, result.reason) == ("rejected", "unknown-parent")
    assert (node.tip_hash, node.utxo.utxo_root()) == (tip, root)
    assert block_hash(s3) not in node.headers and block_hash(s3) not in node.blocks


def test_heavier_chain_from_another_genesis_is_rejected():
    node = mined_node(FAST, ALICE, 2, seed=116)
    foreign = mined_node(FAST, BOB, 3, seed=216)
    chain, root = node.headers.active_chain(), node.utxo.current_root
    results = [node.connect_block(foreign.blocks[h]) for h in foreign.headers.active_chain()]
    assert [r.status for r in results] == ["rejected"] * 3
    assert [r.reason for r in results] == ["bad-genesis", "unknown-parent", "unknown-parent"]
    assert node.headers.active_chain() == chain
    assert node.utxo.current_root == root and node.utxo.height == 1


def test_query_merkle_blocks_filters_and_proves():
    node = mined_node(FAST, ALICE, 3, seed=114)
    node.submit_transaction(payment(node, ALICE, [(BOB.challenge, 9)]))
    mine_on(node, ALICE.public_key, seed=214)
    mine_on(node, ALICE.public_key, seed=215)

    bloom = BloomFilter()
    bloom.add(BOB.challenge)
    resp = node.serve_query_merkle_blocks(ZERO32, bloom)
    assert [h.height for h in resp.headers] == list(range(node.tip_height + 1))
    assert len(resp.matches) >= 1
    match = next(m for m in resp.matches if m.header.height == 3)
    assert match.tx_indices == tuple(sorted(match.tx_indices))
    for i, tx in zip(match.tx_indices, match.transactions):
        assert node.blocks[node.headers.active_hash_at(3)].transactions[i] == tx
    leaves = {i: txid(tx) for i, tx in zip(match.tx_indices, match.transactions)}
    assert partial_root(match.tx_tree, leaves) == match.header.tx_mroot
    assert any(out.payload == BOB.challenge
               for tx in match.transactions for out in tx.outputs)

    # since=tip yields nothing new
    resp2 = node.serve_query_merkle_blocks(node.tip_hash, bloom)
    assert resp2.headers == ()
    assert resp2.matches == ()


def test_query_utxos_serves_only_touched_shards():
    node = mined_node(FAST, ALICE, 4, seed=115)
    node.submit_transaction(payment(node, ALICE, [(BOB.challenge, 9)]))
    leaves = set(node.utxo.shards)
    block = mine_on(node, ALICE.public_key, seed=216)
    bh = block_hash(block)
    resp = node.serve_query_utxos(bh)
    assert set(resp.shards) == set(node.utxo.versions[block.header.height])
    assert set(resp.shards) < leaves and resp.siblings
    # proof hangs together against the parent's committed root
    assert served_root(resp.shards, resp.siblings) == \
        commitment_of(node.blocks[block.header.prev_hash])


def test_query_utxo_mroot_and_block_follow_active_chain():
    node = mined_node(FAST, ALICE, 3, seed=116)
    tip = node.blocks[node.tip_hash]
    assert node.serve_query_utxo_mroot(node.tip_hash) == commitment_of(tip)
    assert node.serve_query_block(node.tip_hash) == tip
    with pytest.raises(ValidationError) as info:
        node.serve_query_block(hash256(b"nowhere"))
    assert info.value.code == "unknown-block"


def test_query_proof_size_beats_full_snapshot():
    params = ChainParams(target_bits=5, subsidy=50, size_cap=512, initial_k=4)
    node = mined_node(params, ALICE, 2, seed=117)
    # fan out so the set dwarfs any one block's touched shards
    for i in range(8):
        node.submit_transaction(payment(node, ALICE, [(ALICE.challenge, 2)] * 12))
        mine_on(node, ALICE.public_key, seed=300 + i)
    block = node.blocks[node.tip_hash]
    resp = node.serve_query_utxos(block_hash(block))
    from dietchain.netsim import encode_utxos_response
    proof_bytes = len(encode_utxos_response(resp))
    shards, _ = node.utxo.state_before(block.header.height,
                                       leaves_before(node.utxo, block.header.height))
    full_bytes = sum(len(s.encoded) for s in shards.values())
    assert proof_bytes < full_bytes / 2


def _spend_to(coin, owner, challenge) -> Transaction:
    tx = Transaction(
        version=0,
        inputs=(TxInput(prevout=coin.outpoint, public_key=owner.public_key,
                        signature=b"\x00" * 64),),
        outputs=(TxOutput(value=coin.value - 1, kind=KIND_PAYMENT, payload=challenge),),
    )
    signature = owner.sign(sighash(tx))
    return tx._replace(inputs=(tx.inputs[0]._replace(signature=signature),))


def test_body_with_duplicated_last_tx_cannot_shadow_the_real_block():
    node = mined_node(FAST, ALICE, 3, seed=118)
    branch = FullNode(FAST)
    for h in node.headers.active_chain()[:-1]:
        branch.connect_block(node.blocks[h])
    for coin in coins_owned(branch, ALICE)[:2]:
        branch.submit_transaction(_spend_to(coin, ALICE, BOB.challenge))
    rival = mine_on(branch, BOB.public_key, seed=618)
    heavier = mine_on(branch, BOB.public_key, seed=619)
    assert len(rival.transactions) == 3
    # An odd last node pairs with itself, so the tx root does not change.
    mutated = rival._replace(transactions=rival.transactions + rival.transactions[-1:])
    assert tx_merkle_root(mutated.transactions) == rival.header.tx_mroot

    result = node.connect_block(mutated)
    assert (result.status, result.reason) == ("rejected", "bad-structure")
    assert node.connect_block(rival).status == "branch"
    assert node.connect_block(heavier).accepted
    assert node.tip_hash == block_hash(heavier)


def test_zero_target_block_is_rejected_on_the_tip_and_on_a_branch():
    node = mined_node(FAST, ALICE, 3, seed=119)
    tip, root = node.tip_hash, node.utxo.utxo_root()
    template = dataclasses.replace(
        template_on(node, *node.build_template(), ALICE.public_key), target_bits=0)
    free = assemble_block(template, node.utxo)  # nonce 0 meets a zero target
    result = node.connect_block(free)
    assert (result.status, result.reason) == ("rejected", "bad-target")

    last = node.blocks[tip]
    sibling = last._replace(header=last.header._replace(target_bits=0, nonce=1))
    result = node.connect_block(sibling)
    assert (result.status, result.reason) == ("rejected", "bad-target")
    assert (node.tip_hash, node.utxo.utxo_root()) == (tip, root)



@pytest.mark.parametrize("code", ["bad-height", "pow-failure", "ownership-failure",
                                  "value-creation", "tx-mroot-mismatch"])
def test_a_block_breaking_one_rule_is_a_rejected_connect_at_its_height(code):
    """A block on the tip, with valid proof of work, that breaks one
    header, body or structure rule is a rejected connect naming that
    rule at the block's height, and leaves the node as it was."""
    node = mined_node(FAST, ALICE, 3, seed=121)
    block = assemble_block(template_on(node, *node.build_template(), ALICE.public_key),
                           node.utxo)
    header, txs = block.header, block.transactions
    coin = coins_owned(node, ALICE)[0]
    if code == "bad-height":  # the coinbase names the same wrong height
        header = header._replace(height=header.height + 1)
        txs = (txs[0]._replace(version=header.height),)
    elif code == "ownership-failure":
        txs += (signed_spend(MALLORY, [coin], [TxOutput(coin.value, KIND_PAYMENT,
                                                        MALLORY.challenge)]),)
    elif code == "value-creation":
        txs += (signed_spend(ALICE, [coin], [TxOutput(coin.value + 1, KIND_PAYMENT,
                                                      BOB.challenge)]),)
    header = header._replace(tx_mroot=hash256(b"junk") if code == "tx-mroot-mismatch"
                             else tx_merkle_root(txs))
    header = header._replace(nonce=solve_pow(header, 1 << 20, seed=321))
    if code == "pow-failure":
        header = header._replace(nonce=next(
            n for n in itertools.count()
            if not chain.pow_ok(chain.header_hash(header._replace(nonce=n)), header.target_bits)))
    tip, root = node.tip_hash, node.utxo.current_root
    result = node.connect_block(Block(header=header, transactions=txs))
    assert (result.status, result.reason, result.height) == ("rejected", code, header.height)
    assert (node.tip_hash, node.utxo.current_root) == (tip, root)

def test_coinbase_version_must_be_the_height():
    node = mined_node(FAST, ALICE, 3, seed=120)
    block = assemble_block(template_on(node, *node.build_template(), ALICE.public_key),
                           node.utxo)
    txs = (block.transactions[0]._replace(version=0),) + block.transactions[1:]
    header = block.header._replace(tx_mroot=tx_merkle_root(txs))
    header = header._replace(nonce=solve_pow(header, 1 << 20, seed=320))
    result = node.connect_block(Block(header=header, transactions=txs))
    assert (result.status, result.reason) == ("rejected", "bad-coinbase")


def test_rejected_commitment_leaves_the_store_untouched():
    node = mined_node(FAST, ALICE, 3, seed=121)
    node.submit_transaction(payment(node, ALICE, [(BOB.challenge, 5)]))
    store = node.utxo
    before = (store.height, store.utxo_root(), dict(store.touched_log),
              dict(store.versions), list(store.pending),
              sorted(store.all_coins()))
    template = template_on(node, *node.build_template(), ALICE.public_key)
    txs = (make_coinbase(template, hash256(b"not the root")),) + template.transactions
    header = assemble_block(template, store).header._replace(tx_mroot=tx_merkle_root(txs))
    header = header._replace(nonce=solve_pow(header, 1 << 20, seed=321))
    result = node.connect_block(Block(header=header, transactions=txs))
    assert result.reason == "root-mismatch"
    assert node.utxo is store
    assert (store.height, store.utxo_root(), store.touched_log, store.versions,
            store.pending, sorted(store.all_coins())) == before


def test_a_reorg_prunes_pool_txs_the_new_branch_mines_or_conflicts_with():
    node = mined_node(FAST, ALICE, 3, seed=122)
    prefix = [node.blocks[h] for h in node.headers.active_chain()]
    first, second = coins_owned(node, ALICE)[:2]
    mined = _spend_to(first, ALICE, BOB.challenge)
    conflict = _spend_to(second, ALICE, BOB.challenge)
    double_spend = _spend_to(second, ALICE, MALLORY.challenge)

    mine_on(node, ALICE.public_key, seed=222)  # an empty block at height 3
    node.submit_transaction(mined)
    node.submit_transaction(conflict)
    rival = FullNode(FAST)
    for block in prefix:
        assert rival.connect_block(block).accepted
    rival.submit_transaction(mined)
    rival.submit_transaction(double_spend)
    r3 = mine_on(rival, BOB.public_key, seed=223)
    r4 = mine_on(rival, BOB.public_key, seed=224)
    assert {mined, double_spend} <= set(r3.transactions)

    assert node.connect_block(r3).status == "branch"
    assert node.connect_block(r4).accepted and node.tip_hash == rival.tip_hash
    assert node.mempool == []
    assert node.build_template() == ([], 0)


@pytest.mark.parametrize("double_spent", [False, True])
def test_a_pool_tx_on_an_orphan_follows_the_orphan(double_spent):
    node = mined_node(FAST, ALICE, 3, seed=125)
    prefix = [node.blocks[h] for h in node.headers.active_chain()]
    coin = coins_owned(node, ALICE)[0]
    orphan = _spend_to(coin, ALICE, BOB.challenge)
    node.submit_transaction(orphan)
    assert orphan in mine_on(node, ALICE.public_key, seed=225).transactions
    child = _spend_to(coins_of(orphan)[0], BOB, MALLORY.challenge)
    node.submit_transaction(child)

    rival = FullNode(FAST)
    for block in prefix:
        assert rival.connect_block(block).accepted
    if double_spent:
        rival.submit_transaction(_spend_to(coin, ALICE, MALLORY.challenge))
    r3 = mine_on(rival, BOB.public_key, seed=226)
    r4 = mine_on(rival, BOB.public_key, seed=227)
    assert node.connect_block(r3).status == "branch"
    assert node.connect_block(r4).accepted
    assert node.mempool == ([] if double_spent else [orphan, child])


def test_a_block_spending_a_pool_txs_input_drops_its_pooled_child_too():
    node = mined_node(FAST, ALICE, 3, seed=126)
    prefix = [node.blocks[h] for h in node.headers.active_chain()]
    coin = coins_owned(node, ALICE)[0]
    parent = _spend_to(coin, ALICE, BOB.challenge)
    child = _spend_to(coins_of(parent)[0], BOB, MALLORY.challenge)
    node.submit_transaction(parent)
    node.submit_transaction(child)

    rival = FullNode(FAST)
    for block in prefix:
        assert rival.connect_block(block).accepted
    rival.submit_transaction(_spend_to(coin, ALICE, MALLORY.challenge))
    assert node.connect_block(mine_on(rival, BOB.public_key, seed=228)).accepted
    assert node.mempool == []
    assert node.build_template() == ([], 0)


def test_a_rejected_genesis_leaves_an_empty_node_that_takes_the_real_one():
    template = BlockTemplate(parent_hash=ZERO32, height=0, target_bits=FAST.target_bits,
                             transactions=(), reward_key=ALICE.public_key,
                             reward_value=FAST.subsidy)
    junk = block_on(template, hash256(b"junk"))
    junk = junk._replace(header=junk.header._replace(
        nonce=solve_pow(junk.header, 1 << 20, seed=329)))
    node = FullNode(FAST)
    result = node.connect_block(junk)
    assert (result.status, result.reason, result.height) == ("rejected", "root-mismatch", 0)
    assert (node.headers.headers, node.headers.tip) == ({}, None)
    assert node.headers.active_chain() == [] and node.blocks == {}
    assert node.utxo.height is None and node.utxo.pending == []
    genesis = make_genesis(FAST, ALICE.public_key, seed=329)
    assert node.connect_block(genesis).accepted
    assert node.headers.active_chain() == [block_hash(genesis)] == list(node.blocks)


@pytest.fixture(scope="module")
def fuzz_base():
    """A node and a valid block for its tip whose second payment spends
    the first one's change, plus another block's coinbase at that height."""
    node = mined_node(FAST, ALICE, 4, seed=123)
    first = payment(node, ALICE, [(BOB.challenge, 7)])
    change = coins_of(first)[-1]
    second = signed_spend(ALICE, [change],
                          [TxOutput(value=change.value - 1, kind=KIND_PAYMENT,
                                    payload=BOB.challenge)])
    node.submit_transaction(first)
    node.submit_transaction(second)
    block = mine_block(template_on(node, *node.build_template(), ALICE.public_key),
                       node.utxo, seed=323)
    assert block.transactions[1:] == (first, second)
    other = mine_block(dataclasses.replace(
        template_on(node, *node.build_template(), BOB.public_key), transactions=()),
        node.utxo, seed=324)
    return node, block, other.transactions[0]


def _node_state(node: FullNode):
    return (store_state(node.utxo), node.tip_hash, list(node.mempool),
            dict(node.headers.headers), node.headers.active_chain(), dict(node.blocks))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["drop", "duplicate", "reorder", "swap-coinbase", "height"]),
       index=st.integers(0, 5), position=st.integers(0, 5),
       order=st.permutations(range(3)), delta=st.sampled_from([-2, -1, 1, 2]),
       bump_version=st.booleans(), reseal=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_mutated_blocks_get_a_verdict_and_leave_no_trace(fuzz_base, kind, index, position,
                                                         order, delta, bump_version, reseal,
                                                         seed):
    base, block, other_coinbase = fuzz_base
    node = copy.deepcopy(base)

    txs = list(block.transactions)
    header = block.header
    if kind == "drop":
        del txs[index % len(txs)]
    elif kind == "duplicate":
        txs.insert(position % (len(txs) + 1), txs[index % len(txs)])
    elif kind == "reorder":
        txs = [txs[i] for i in order]
    elif kind == "swap-coinbase" and index % 2:
        txs[0] = other_coinbase
    elif kind == "swap-coinbase":
        txs.insert(1 + position % len(txs), txs.pop(0))
    else:
        header = header._replace(height=header.height + delta)
        if bump_version:
            txs[0] = txs[0]._replace(version=header.height)
    if reseal:
        header = header._replace(tx_mroot=tx_merkle_root(txs), nonce=0)
        header = header._replace(nonce=solve_pow(header, 1 << 20, seed=seed))
    mutated = Block(header=header, transactions=tuple(txs))

    before = _node_state(node)
    result = node.connect_block(mutated)
    assert isinstance(result, ConnectResult)
    if mutated.transactions == block.transactions and header.height == block.header.height:
        assert result.accepted  # the identity permutation, resealed or not
        return
    assert result.status == "rejected" and result.reason is not None
    assert _node_state(node) == before
    assert node.connect_block(block).accepted


# -- the pool always fits the tip -------------------------------------------------

POOL_KEYS = {key.challenge: key for key in (ALICE, BOB, MALLORY)}


def _pool_spend(node: FullNode, rng: random.Random, kind: str,
                floods: int = 0) -> Transaction | None:
    """A tx of ``kind`` for the node's pool: ``valid`` spends a confirmed
    coin the pool leaves alone, ``chained`` a pooled tx's output,
    ``conflicting`` a coin the pool already spends, and ``badly-signed``
    is a valid tx with a zeroed signature. ``floods`` more zero-value
    outputs pay the coin's owner, to fill a shard. None if no coin fits."""
    spent = {inp.prevout for tx in node.mempool for inp in tx.inputs}
    if kind == "chained":
        coins = [c for tx in node.mempool for c in coins_of(tx) if c.outpoint not in spent]
    else:
        coins = [c for c in node.utxo.all_coins()
                 if (c.outpoint in spent) == (kind == "conflicting")]
    coins = sorted(c for c in coins if c.challenge in POOL_KEYS and c.value >= 3)
    if not coins:
        return None
    coin = rng.choice(coins)
    part = rng.randrange(1, coin.value - 1)
    tx = signed_spend(POOL_KEYS[coin.challenge], [coin], [
        TxOutput(value=part, kind=KIND_PAYMENT, payload=rng.choice(sorted(POOL_KEYS))),
        TxOutput(value=coin.value - part - 1, kind=KIND_PAYMENT,
                 payload=rng.choice(sorted(POOL_KEYS)))]
        + [TxOutput(value=0, kind=KIND_PAYMENT, payload=coin.challenge)] * floods)
    if kind == "badly-signed":
        tx = tx._replace(inputs=(tx.inputs[0]._replace(signature=bytes(64)),))
    return tx


def _rival_branch(node: FullNode, rng: random.Random, wins: bool, invalid: bool) -> list[Block]:
    """Blocks forking off the node's active chain a few blocks down, that
    mine some of the node's pool and may double-spend another pooled tx's
    input. A winning (or invalid) branch outgrows the node's; an invalid
    one commits a junk root in a block no lighter than the node's tip, so
    the switch to it fails."""
    depth = rng.randrange(min(3, node.tip_height) + 1)  # the node's blocks above the fork
    rival = FullNode(FAST, check_commitments=not invalid)
    for hh in node.headers.active_chain()[:node.tip_height - depth + 1]:
        assert rival.connect_block(node.blocks[hh]).accepted
    for tx in node.mempool:
        conflict = _pool_spend(rival, rng, "valid") if rng.random() < 0.2 else None
        try:
            rival.submit_transaction(tx if conflict is None or rng.random() < 0.5 else conflict)
        except ValidationError:
            pass  # its input is not on the rival's chain
    length = depth + 1 + rng.randrange(2) if wins or invalid else rng.randrange(depth + 1)
    junk_at = rng.randrange(depth + 1) if invalid else -1  # the branch outgrows the node's there
    key = rng.choice(list(POOL_KEYS.values()))
    return [mine_txs(rival, rival.mempool, key.public_key, seed=rng.getrandbits(32),
                     commitment=hash256(b"junk") if i == junk_at else None)
            for i in range(length)]


# submits drawn more often than the rest, so the pool grows between blocks
POOL_STEPS = ["valid"] * 3 + ["chained"] * 2 + [
    "conflicting", "badly-signed", "mine", "rival-wins", "rival-loses", "rival-invalid"]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(steps=st.lists(st.tuples(st.sampled_from(POOL_STEPS), st.integers(0, 2 ** 32 - 1)),
                      min_size=1, max_size=30))
def test_the_pool_always_fits_the_tip(steps):
    node = mined_node(FAST, ALICE, 3, seed=130)
    for kind, seed in steps:
        rng = random.Random(seed)
        tip, pool = node.tip_hash, list(node.mempool)
        if kind == "mine":
            block = mine_on(node, rng.choice(list(POOL_KEYS.values())).public_key, seed=seed)
            assert block.transactions[1:] == tuple(pool) and node.mempool == []
        elif kind.startswith("rival"):
            branch = _rival_branch(node, rng, kind == "rival-wins", kind == "rival-invalid")
            statuses = [node.connect_block(block).status for block in branch]
            if kind == "rival-invalid":
                assert statuses[-1] == "rejected"
                assert (node.tip_hash, node.mempool) == (tip, pool)
            else:
                assert "rejected" not in statuses
                assert (node.tip_hash != tip) == (kind == "rival-wins")
        else:
            tx = _pool_spend(node, rng, kind)
            if tx is None:
                continue
            fits = kind in ("valid", "chained") or txid(tx) in {txid(p) for p in pool}
            try:
                node.submit_transaction(tx)
            except ValidationError:
                assert not fits
            else:
                assert fits
        assert node.build_template()[0] == node.mempool
        _assert_pool_view_is_fresh(node)


def _assert_pool_view_is_fresh(node: FullNode) -> None:
    """The pool the node keeps as its next block holds the pool's own tx
    objects in order and their fees, and its view, if any, reads as a
    view built afresh for the pool does."""
    assert len(node._pool_txs) == len(node.mempool)
    assert all(map(operator.is_, node._pool_txs, node.mempool))
    assert node._pool_fees == node.build_template()[1]
    view = node._pool_view
    if view is None:
        return
    fresh = node.utxo.open(node.utxo.next_height)
    for tx in node.mempool:
        fresh.absorb(tx)
    assert view.height == fresh.height
    assert {i: list(view.edited.get(i, coins)) for i, coins in view.shards.items()} == \
        {i: list(fresh.edited.get(i, coins)) for i, coins in fresh.shards.items()}


# -- the miner commits the pool's view --------------------------------------------

# submits drawn more often than the rest; floods spend one coin to many outputs
KEPT_VIEW_STEPS = ["valid"] * 3 + ["chained"] * 2 + [
    "conflicting", "badly-signed", "flood", "flood", "mine", "mine", "mine", "rival-wins",
    "rival-invalid"]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(width=st.integers(16, 40),
       steps=st.lists(st.tuples(st.sampled_from(KEPT_VIEW_STEPS), st.integers(0, 2 ** 32 - 1)),
                      min_size=8, max_size=30))
def test_mining_the_kept_pool_view_matches_a_full_body_pass(width, steps):
    """Random submits (valid, chained, conflicting, badly signed, and
    floods of up to ``width`` outputs), heavier and failing rival
    branches, and blocks mined with ``mine_on``. Each block is mined
    twice from the same state: by the node, committing the view its pool
    keeps without a validation, and by a replica whose view is dropped,
    which walks the body. Both give the same block bytes, store and
    pool."""
    with pytest.MonkeyPatch.context() as patch:
        validations = []
        for module in (rules, full_node):
            real = module.validate_transaction
            patch.setattr(module, "validate_transaction",
                          lambda *args, real=real: validations.append(args[0]) or real(*args))
        node = mined_node(FAST, ALICE, 3, seed=136)
        for kind, seed in steps:
            rng = random.Random(seed)
            if kind == "mine":
                replica = copy.deepcopy(node)
                replica._pool_view = None
                key = rng.choice(list(POOL_KEYS.values())).public_key
                kept, pool = node._pool_view is not None, list(node.mempool)
                validations.clear()
                mined = encode_block(mine_on(node, key, seed=seed))
                assert validations == ([] if kept else pool)
                assert encode_block(mine_on(replica, key, seed=seed)) == mined
                assert store_state(replica.utxo) == store_state(node.utxo)
                assert replica.mempool == node.mempool
            elif kind.startswith("rival"):
                for block in _rival_branch(node, rng, kind == "rival-wins",
                                           kind == "rival-invalid"):
                    node.connect_block(block)
            else:
                tx = _pool_spend(node, rng, "valid", rng.randrange(width // 2, width)) \
                    if kind == "flood" else _pool_spend(node, rng, kind)
                try:
                    if tx is not None:
                        node.submit_transaction(tx)
                except ValidationError as exc:
                    assert exc.code == {"conflicting": "missing-input",
                                        "badly-signed": "ownership-failure"}.get(kind)
            _assert_pool_view_is_fresh(node)
            _assert_coins_replay(node)


def test_one_submit_hashes_the_same_at_any_pool_size():
    """A submit hashes only its own tx, whatever the pool holds: the pool
    keeps its txids, so a deep pool is not hashed again (the txid memo
    holds 512 ids)."""
    node = mined_node(FAST, ALICE, 2, seed=137)
    coin = coins_owned(node, ALICE)[0]
    hashes = {}
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for pooled in range(1001):
            tx = signed_spend(ALICE, [coin], [TxOutput(value=coin.value, kind=KIND_PAYMENT,
                                                       payload=ALICE.challenge)])
            if pooled in (100, 1000):
                for module in (chain, rules):
                    real = module.hash256
                    patch.setattr(module, "hash256",
                                  lambda data, real=real: calls.append(data) or real(data))
            node.submit_transaction(tx)
            if pooled in (100, 1000):
                patch.undo()
                hashes[pooled], calls[:] = len(calls), []
            coin = coins_of(tx)[0]
    assert len(node.mempool) == 1001
    assert hashes[100] == hashes[1000] == 3  # the txid, the sighash, the key


# -- a shard has no coin limit ----------------------------------------------------

WIDE = ChainParams(target_bits=4, size_cap=6_000_000, initial_k=0)  # k = 0 up to ~78,900 coins


def _flood(coin, n_outputs: int, payee: bytes = BOB.challenge) -> Transaction:
    """Alice spends one coin to ``n_outputs`` zero-value outputs."""
    return signed_spend(ALICE, [coin], [TxOutput(value=0, kind=KIND_PAYMENT,
                                                 payload=payee)] * n_outputs)


@pytest.mark.parametrize("n_outputs", [65_534, 65_535])
def test_blocks_follow_a_flood_past_a_u16_coin_count(n_outputs):
    """At k = 0 the next block's one shard holds the parent's reward coin
    plus the flood's outputs, and each later block adds its parent's
    reward coin to it: 65,534 outputs leave 65,535 coins, which once
    halted the chain, and 65,535 leave 65,536. A shard's encoding counts
    no coins, so the pool admits either flood, and blocks 3 and 4
    follow it."""
    node = mined_node(WIDE, ALICE, 2, seed=131)
    flood = _flood(coins_owned(node, ALICE)[0], n_outputs)
    node.submit_transaction(flood)
    assert mine_on(node, ALICE.public_key, seed=231).transactions[1:] == (flood,)
    assert len(node.utxo.shards[1]) == n_outputs + 1
    small = _spend_to(coins_owned(node, ALICE)[0], ALICE, BOB.challenge)
    node.submit_transaction(small)
    assert mine_on(node, ALICE.public_key, seed=232).transactions[1:] == (small,)
    assert mine_on(node, ALICE.public_key, seed=233).transactions[1:] == ()
    assert (node.tip_height, node.utxo.k) == (4, 0)
    _assert_coins_replay(node)


def test_two_floods_split_the_one_shard_of_the_next_block():
    """Two floods of 40,000 outputs put 80,000 coins in the one shard of
    k = 0, past the cap, so the block that carries them splits to k = 1,
    where each flood's coins go to the half its txid's first bit names."""
    params = ChainParams(target_bits=4, size_cap=4_000_000, initial_k=0)
    node = mined_node(params, ALICE, 3, seed=132)
    first, second = coins_owned(node, ALICE)[:2]
    a = _flood(first, 40_000)
    payees = (key_of(f"payee{i}").challenge for i in range(64))
    b = next(tx for tx in (_flood(second, 40_000, p) for p in payees)
             if txid(tx)[0] >> 7 != txid(a)[0] >> 7)
    node.submit_transaction(a)
    node.submit_transaction(b)
    assert node.mempool == [a, b]
    mine_on(node, ALICE.public_key, seed=232)
    assert node.utxo.k == 1
    assert sorted(map(len, node.utxo.shards.values())) == [40_000, 40_001]


# -- bounded history: the floor on a full node ---------------------------------------

SPLITTING = ChainParams(target_bits=3, subsidy=50, size_cap=240, initial_k=0)


def _header_state(node: FullNode) -> tuple:
    index = node.headers
    return dict(index.headers), index.tip, index.active_chain()


def _branch_from(node: FullNode, fork: int, length: int, miner: bytes, seed: int) -> list[Block]:
    """``length`` empty blocks paying ``miner`` that another node mines on
    the node's active chain at height ``fork``."""
    rival = FullNode(node.params)
    for hh in node.headers.active_chain()[:fork + 1]:
        assert rival.connect_block(node.blocks[hh]).accepted
    return [mine_on(rival, miner, seed=seed + i) for i in range(length)]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(horizon=st.integers(1, 5),
       steps=st.lists(st.tuples(st.sampled_from(["mine", "mine", "reorg"]), st.integers(0, 7),
                                st.integers(0, 2 ** 32 - 1)), min_size=4, max_size=16))
def test_a_branch_forking_below_the_floor_is_reorg_too_deep(horizon, steps):
    """Mined payments (with splits) and heavier branches of random depth
    under a short horizon. A branch whose fork lies below the floor is
    ``reorg-too-deep`` at its first block, whose children then have no
    parent; one whose fork lies below the floor its tip would set is
    ``reorg-too-deep`` at its last block. Neither changes anything the
    node had before the branch arrived; any other branch switches. After
    every step the coin set equals a flat replay of the active chain, and
    the node serves a block's pre-state exactly when it lies at or above
    the floor."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("dietchain.utxo.HISTORY_HORIZON", horizon)
        node = mined_node(SPLITTING, ALICE, 2, seed=134)
        highest = node.tip_height
        for step, (kind, depth, seed) in enumerate(steps):
            if kind == "mine":
                if not node.mempool:
                    node.submit_transaction(payment(node, ALICE, [(BOB.challenge, 1)] * 3))
                mine_on(node, ALICE.public_key, seed=seed)
            else:
                fork = max(0, node.tip_height - depth)
                branch = _branch_from(node, fork, node.tip_height - fork + 1,
                                      key_of(f"rival{step}").public_key, seed)
                new_tip = branch[-1].header.height
                before = (_header_state(node), store_state(node.utxo), list(node.mempool),
                          set(node.blocks))
                floor = node.utxo.floor
                connected = [node.connect_block(block) for block in branch]
                assert [r.height for r in connected] == [b.header.height for b in branch]
                results = [(r.status, r.reason) for r in connected]
                if fork < floor:
                    assert results == [("rejected", "reorg-too-deep")] + \
                        [("rejected", "unknown-parent")] * (len(branch) - 1)
                elif fork < max(highest, new_tip) - horizon:
                    assert results == [("branch", None)] * (len(branch) - 1) + \
                        [("rejected", "reorg-too-deep")]
                else:
                    assert results == [("branch", None)] * (len(branch) - 1) + \
                        [("accepted", None)]
                    assert node.tip_hash == block_hash(branch[-1])
                if fork < max(highest, new_tip) - horizon:
                    assert (_header_state(node), store_state(node.utxo), node.mempool,
                            set(node.blocks)) == before
            highest = max(highest, node.tip_height)
            _assert_pool_view_is_fresh(node)
            assert node.utxo.floor == max(-1, highest - horizon)
            _assert_coins_replay(node)
            for h in range(1, node.tip_height + 1):
                hh = node.headers.active_hash_at(h)
                if h - 1 < node.utxo.floor:
                    with pytest.raises(ValidationError) as info:
                        node.serve_query_utxos(hh)
                    assert (info.value.code, info.value.height) == ("history-unavailable", h)
                    continue
                parent = node.blocks[node.headers.active_hash_at(h - 1)]
                resp = node.serve_query_utxos(hh)
                assert served_root(resp.shards, resp.siblings) == commitment_of(parent)


def test_a_side_branch_forking_below_the_floor_is_not_kept(monkeypatch):
    """With a horizon of 3 an 11-block chain has floor 7. Blocks another
    node mines on height 2 could never become the active branch: the
    first is ``reorg-too-deep`` and not indexed, so the rest have no
    parent, and the node keeps only its own 11 blocks."""
    monkeypatch.setattr("dietchain.utxo.HISTORY_HORIZON", 3)
    node = mined_node(FAST, ALICE, 11, seed=138)
    assert node.utxo.floor == 7
    before = (_header_state(node), store_state(node.utxo), set(node.blocks))
    branch = _branch_from(node, 2, 4, BOB.public_key, seed=338)
    results = [node.connect_block(block) for block in branch]
    assert [(r.status, r.reason, r.height) for r in results] == \
        [("rejected", "reorg-too-deep", 3)] + \
        [("rejected", "unknown-parent", h) for h in (4, 5, 6)]
    assert (_header_state(node), store_state(node.utxo), set(node.blocks)) == before
    assert len(node.blocks) == len(node.headers.headers) == 11


def _assert_coins_replay(node: FullNode) -> None:
    """The store's coins, reward coins included, equal a flat replay of
    the active chain."""
    coins = {}
    for hh in node.headers.active_chain():
        for tx in node.blocks[hh].transactions:
            for inp in tx.inputs if not tx.is_coinbase else ():
                del coins[inp.prevout]
            coins.update((c.outpoint, c) for c in coins_of(tx))
    assert sorted(node.utxo.all_coins()) == sorted(coins.values())


def test_a_failed_switch_across_a_split_leaves_the_pool_view_on_the_tip():
    """A failed switch that undoes a split and applies it again leaves the
    store's shards in new objects. The pool's view must follow: a payment
    spending a coin of the block above the split is still admitted."""
    node = mined_node(SPLITTING, ALICE, 2, seed=135)
    while node.utxo.k < 3 or not node.utxo.touched_log[node.tip_height].rebalanced:
        node.submit_transaction(payment(node, ALICE, [(BOB.challenge, 1)] * 2))
        mine_on(node, ALICE.public_key, seed=335 + node.tip_height)
    split_at = node.tip_height
    paid = [_spend_to(coin, ALICE, BOB.challenge) for coin in coins_owned(node, ALICE)[:4]]
    for tx in paid:
        node.submit_transaction(tx)
    mine_on(node, ALICE.public_key, seed=336)  # touches shards the pool view below does not
    node.submit_transaction(payment(node, ALICE, [(MALLORY.challenge, 1)]))

    rival = FullNode(SPLITTING, check_commitments=False)
    for hh in node.headers.active_chain()[:split_at]:
        assert rival.connect_block(node.blocks[hh]).accepted
    branch = [mine_txs(rival, [], BOB.public_key, seed=337 + i,
                       commitment=hash256(b"junk") if i == 2 else None) for i in range(3)]
    results = [node.connect_block(block) for block in branch]
    assert [(r.status, r.reason) for r in results] == \
        [("branch", None), ("branch", None), ("rejected", "root-mismatch")]
    _assert_pool_view_is_fresh(node)
    for tx in paid:
        node.submit_transaction(_spend_to(coins_of(tx)[0], BOB, MALLORY.challenge))
    assert len(node.mempool) == 5
    _assert_pool_view_is_fresh(node)


@pytest.fixture(scope="module")
def delivery_tree():
    """A block tree and the node that took it in order: a trunk of paying
    blocks up to k = 2, a losing branch of paying blocks that splits the
    store again above the fork, and a longer winning branch of empty
    blocks from the same fork."""
    node = mined_node(SPLITTING, ALICE, 3, seed=139)

    def pay_and_mine() -> None:
        node.submit_transaction(payment(node, ALICE, [(BOB.challenge, 1)] * 3))
        mine_on(node, ALICE.public_key, seed=339 + node.tip_height)
    while node.utxo.k < 2:
        pay_and_mine()
    fork = node.tip_height
    while not any(node.utxo.touched_log[h].rebalanced for h in range(fork + 1, node.tip_height)):
        pay_and_mine()
    chain = [node.blocks[hh] for hh in node.headers.active_chain()]
    winning = _branch_from(node, fork, node.tip_height - fork + 1, BOB.public_key, seed=439)
    in_order = FullNode(SPLITTING)
    for block in chain + winning:
        assert in_order.connect_block(block).status in ("accepted", "branch")
    assert in_order.tip_hash == block_hash(winning[-1])
    return chain[0], chain[1:] + winning, in_order


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_any_delivery_order_ends_where_the_in_order_node_does(delivery_tree, data):
    """Blocks of the tree delivered in any order, each ``unknown-parent``
    block retried until a pass connects nothing, end at the in-order tip
    and root, with the store a flat replay of the active chain would
    build, and the same pre-state served at every height above the floor,
    across the losing branch's split undone or never applied."""
    genesis, blocks, in_order = delivery_tree
    node = FullNode(SPLITTING)
    assert node.connect_block(genesis).accepted
    waiting = data.draw(st.permutations(blocks))
    while waiting:
        results = [(block, node.connect_block(block)) for block in waiting]
        assert {(r.status, r.reason) for _, r in results} <= {
            ("accepted", None), ("branch", None), ("rejected", "unknown-parent")}
        retry = [block for block, r in results if r.reason == "unknown-parent"]
        assert len(retry) < len(waiting)
        waiting = retry
    assert (node.tip_hash, node.utxo.current_root) == \
        (in_order.tip_hash, in_order.utxo.current_root)
    _assert_coins_replay(node)
    replay = VersionedShardStore(initial_k=SPLITTING.initial_k, size_cap=SPLITTING.size_cap)
    for h, hh in enumerate(node.headers.active_chain()):
        replay.apply_block(node.blocks[hh], h)
    assert store_state(node.utxo) == store_state(replay) == store_state(in_order.utxo)
    for h in range(max(node.utxo.floor, 0) + 1, node.tip_height + 2):
        everything = leaves_before(node.utxo, h)
        served = node.utxo.state_before(h, everything)
        assert served == in_order.utxo.state_before(h, everything)
        parent = node.blocks[node.headers.active_hash_at(h - 1)]
        assert served_root(*served) == commitment_of(parent)
