from __future__ import annotations

import random

import pytest
from conftest import FAST, coins_owned, key_of, mined_node, payment

from dietchain.chain import ChainParams, pow_ok, txid
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
    node_template,
    nonce_start,
)
from dietchain.rules import commitment_of
from dietchain.utxo import coins_of

ALICE = key_of("alice")
BOB = key_of("bob")


def test_genesis_starts_a_valid_chain():
    node = FullNode(FAST)
    genesis = make_genesis(FAST, ALICE.public_key, seed=1)
    assert genesis.header.height == 0
    assert pow_ok(genesis.header)
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
        assert pow_ok(header)


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
    parent_height = node.tip_height
    parent_root = node.utxo.root_log[parent_height]
    block = mine_on(node, ALICE.public_key, seed=105)  # empty template
    # the new root covers the parent's reward, so it moves
    assert commitment_of(block) != parent_root
    preview = node.utxo.root_log[block.header.height]
    assert commitment_of(block) == preview


def test_mine_block_budget_exhaustion_returns_none():
    from dietchain.miner import solve_pow
    from dietchain.chain import BlockHeader, ZERO32
    header = BlockHeader(prev_hash=ZERO32, tx_mroot=ZERO32, target_bits=64,
                         nonce=0, height=0)
    assert solve_pow(header, 64, seed=6) is None


def test_extra_nonce_changes_reward_challenge_only():
    template = BlockTemplate(parent_hash=bytes(32), height=4, target_bits=5,
                             transactions=(), reward_key=ALICE.public_key,
                             reward_value=50)
    root = hash256(b"root")
    base = make_coinbase(template, root)
    rolled = make_coinbase(template, root, extra_nonce=7)
    assert txid(base) != txid(rolled)
    assert base.outputs[0].payload[:24] == rolled.outputs[0].payload[:24]
    assert base.outputs[1] == rolled.outputs[1]  # commitment untouched


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
