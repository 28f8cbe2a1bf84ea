"""Signature checks run once per node: a pooled tx's signatures are not
checked again, and every other rule still is."""

from __future__ import annotations

import dataclasses

import pytest
from conftest import FAST, coins_owned, key_of, mined_node, payment

from dietchain import rules
from dietchain.chain import (
    KIND_PAYMENT,
    Transaction,
    TxInput,
    TxOutput,
    block_hash,
    decode_transaction,
    encode_transaction,
    sighash,
    txid,
)
from dietchain.crypto import hash256
from dietchain.diet_node import DietConfig, DietNode
from dietchain.full_node import FullNode
from dietchain.miner import mine_block, mine_on, template_on
from dietchain.netsim import Bus, BusTransport, FullNodeService

ALICE = key_of("alice")
BOB = key_of("bob")
MALLORY = key_of("mallory")


@pytest.fixture
def verifies(monkeypatch):
    """Every Ed25519 check the rules make, as (public key, digest, signature)."""
    calls = []
    real = rules.verify

    def counted(public_key, digest, signature):
        calls.append((public_key, digest, signature))
        return real(public_key, digest, signature)

    monkeypatch.setattr(rules, "verify", counted)
    return calls


def _replica(blocks) -> FullNode:
    node = FullNode(FAST)
    for block in blocks:
        assert node.connect_block(block).accepted
    return node


def _chain_of(node: FullNode):
    return [node.blocks[h] for h in node.headers.active_chain()]


def _flip_signature(tx: Transaction) -> Transaction:
    first = tx.inputs[0]
    signature = bytes([first.signature[0] ^ 1]) + first.signature[1:]
    return tx._replace(inputs=(first._replace(signature=signature),) + tx.inputs[1:])


def _mine_with(node: FullNode, txs, seed: int):
    """A block on the node's tip carrying ``txs`` instead of its pool."""
    template = dataclasses.replace(template_on(node, *node.build_template(), ALICE.public_key),
                                   transactions=tuple(txs))
    return mine_block(template, node.utxo, seed=seed)


@pytest.mark.parametrize("amount", [5, 60])  # one input, two inputs
def test_miner_verifies_once_and_a_follower_once_per_input(verifies, amount):
    miner = mined_node(FAST, ALICE, 3, seed=130)
    follower = _replica(_chain_of(miner))
    verifies.clear()

    tx = payment(miner, ALICE, [(BOB.challenge, amount)])
    assert len(tx.inputs) == (1 if amount < FAST.subsidy else 2)
    miner.submit_transaction(tx)
    assert len(verifies) == len(tx.inputs)

    block = mine_on(miner, ALICE.public_key, seed=230)
    assert tx in block.transactions
    assert len(verifies) == len(tx.inputs)  # template and connect skip the pooled tx

    assert follower.connect_block(block).accepted  # empty pool: checks every input
    assert len(verifies) == 2 * len(tx.inputs)
    assert {public_key for public_key, _, _ in verifies} == {ALICE.public_key}


def test_a_flipped_signature_is_not_vouched_for_by_the_pooled_original(verifies):
    node = mined_node(FAST, ALICE, 3, seed=131)
    tx = payment(node, ALICE, [(BOB.challenge, 5)])
    node.submit_transaction(tx)
    forged = _flip_signature(tx)
    assert forged != tx and txid(forged) != txid(tx)

    tip = node.tip_hash
    result = node.connect_block(_mine_with(node, [forged], seed=231))
    assert (result.status, result.reason) == ("rejected", "ownership-failure")
    assert verifies[-1][2] == forged.inputs[0].signature
    assert node.tip_hash == tip and node.mempool == [tx]


def test_a_pooled_tx_with_the_wrong_key_still_fails_ownership(verifies):
    node = mined_node(FAST, ALICE, 3, seed=132)
    coin = coins_owned(node, ALICE)[0]
    stolen = Transaction(
        version=0,
        inputs=(TxInput(prevout=coin.outpoint, public_key=MALLORY.public_key,
                        signature=b"\x00" * 64),),
        outputs=(TxOutput(value=coin.value - 1, kind=KIND_PAYMENT,
                          payload=MALLORY.challenge),),
    )
    signature = MALLORY.sign(sighash(stolen))
    stolen = stolen._replace(inputs=(stolen.inputs[0]._replace(signature=signature),))
    node.mempool.append(stolen)  # as if it had got past submit_transaction

    assert node.build_template() == ([], 0)
    result = node.connect_block(_mine_with(node, [stolen], seed=232))
    assert (result.status, result.reason) == ("rejected", "ownership-failure")
    assert verifies == []  # refused on the key's hash, before any signature check


def test_a_reorg_verifies_orphaned_txs_again_unless_resubmitted(verifies):
    base = mined_node(FAST, ALICE, 3, seed=133)
    prefix = _chain_of(base)
    tx = payment(base, ALICE, [(BOB.challenge, 5)])

    # The node mines tx at height 3; a rival branch mines it at 3 and outgrows the node.
    node = _replica(prefix)
    node.submit_transaction(tx)
    mine_on(node, ALICE.public_key, seed=233)
    assert node.mempool == []
    rival = _replica(prefix)
    rival.submit_transaction(tx)
    b3 = mine_on(rival, BOB.public_key, seed=234)
    b4 = mine_on(rival, BOB.public_key, seed=235)
    assert tx in b3.transactions

    verifies.clear()
    assert node.connect_block(b3).status == "branch"
    assert node.connect_block(b4).accepted and node.tip_hash == block_hash(b4)
    assert len(verifies) == len(tx.inputs)  # the orphan is checked again, signature included

    # A rival branch without tx orphans it: it returns to the pool, checked
    # on the new tip without its signature (the node verified that when it
    # applied its own block), and a resubmit of the pooled tx costs nothing.
    node = _replica(prefix)
    node.submit_transaction(tx)
    mine_on(node, ALICE.public_key, seed=236)
    empty = _replica(prefix)
    c3 = mine_on(empty, BOB.public_key, seed=237)
    c4 = mine_on(empty, BOB.public_key, seed=238)
    assert node.connect_block(c3).status == "branch"
    verifies.clear()
    assert node.connect_block(c4).accepted
    assert node.mempool == [tx] and verifies == []
    node.submit_transaction(tx)
    assert node.mempool == [tx] and verifies == []
    assert tx in mine_on(node, ALICE.public_key, seed=239).transactions
    assert verifies == []


def test_a_one_block_reorg_verifies_no_returned_payment_again(verifies):
    """The node applied its block, signatures and all, so the payments a
    one-block reorg returns to the pool are refit without a signature
    check; a tx the node never saw, carried by the winning branch, is
    still verified."""
    base = mined_node(FAST, ALICE, 3, seed=140)
    prefix = _chain_of(base)
    first, second, third = [
        rules.signed_spend(ALICE, [coin], [TxOutput(value=coin.value - 1, kind=KIND_PAYMENT,
                                                    payload=BOB.challenge)])
        for coin in coins_owned(base, ALICE)[:3]]
    node = _replica(prefix)
    node.submit_transaction(first)
    node.submit_transaction(second)
    mine_on(node, ALICE.public_key, seed=240)
    rival = _replica(prefix)
    rival.submit_transaction(third)
    branch = [mine_on(rival, BOB.public_key, seed=241 + i) for i in range(2)]

    assert node.connect_block(branch[0]).status == "branch"
    verifies.clear()
    assert node.connect_block(branch[1]).accepted
    assert [signature for *_, signature in verifies] == [third.inputs[0].signature]
    assert node.mempool == [first, second]


def test_a_diet_window_verifies_every_signature(verifies):
    node = mined_node(FAST, ALICE, 4, seed=134)
    tx = payment(node, ALICE, [(BOB.challenge, 5)])
    node.submit_transaction(tx)
    mine_on(node, ALICE.public_key, seed=234)
    verifies.clear()

    bus = Bus(seed=1)
    bus.register("peer", FullNodeService(node))
    config = DietConfig(keys=(BOB.public_key,), max_depth=10, max_length=2)
    diet = DietNode(FAST, config, BusTransport(bus, "client", "peer"))
    (verdict,) = diet.update_chain().verdicts
    assert verdict.status == "diet-verified"
    assert len(verifies) == len(tx.inputs)


def test_txid_memo_is_exact_for_equal_and_near_equal_txs():
    node = mined_node(FAST, ALICE, 3, seed=135)
    tx = payment(node, ALICE, [(BOB.challenge, 5)])
    twin = decode_transaction(encode_transaction(tx))
    assert twin == tx and twin is not tx
    assert txid(tx) == txid(twin) == hash256(encode_transaction(twin))
    flipped = _flip_signature(tx)
    assert txid(flipped) == hash256(encode_transaction(flipped)) != txid(tx)
    assert txid.cache_info().maxsize == 512
