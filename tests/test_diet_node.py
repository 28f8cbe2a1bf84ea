from __future__ import annotations

import dataclasses

import pytest
from conftest import FAST, key_of, mined_node, payment

from dietchain.chain import ChainParams
from dietchain.diet_node import DietConfig, DietNode, compute_verification_range
from dietchain.errors import ValidationError
from dietchain.full_node import FullNode
from dietchain.miner import assemble_block, mine_on, node_template
from dietchain.netsim import Bus, BusTransport, FullNodeService

ALICE = key_of("alice")
CAROL = key_of("carol")


def _wire(node: FullNode, config: DietConfig, seed: int = 0) -> DietNode:
    bus = Bus(seed=seed)
    bus.register("peer", FullNodeService(node))
    return DietNode(node.params, config, BusTransport(bus, "client", "peer"))


def test_verification_range_basic_window():
    assert compute_verification_range(10, 20, 6, 3, 18) == (15, 18)


def test_verification_range_clamped_by_depth():
    # depth pins the window start even when the length allows more
    assert compute_verification_range(0, 20, 6, 100, 18) == (14, 18)


def test_verification_range_fallback_when_too_deep():
    # the tx sits deeper than the window can reach
    assert compute_verification_range(0, 20, 6, 3, 14) is None


def test_verification_range_nothing_new():
    assert compute_verification_range(18, 20, 6, 3, 18) is None
    assert compute_verification_range(18, 20, 6, 3, 17) is None


def test_verification_range_resumes_from_verified():
    # already verified past the depth/length clamp: continue from there
    assert compute_verification_range(16, 20, 100, 100, 19) == (16, 19)


def test_honest_updates_verify_and_advance():
    node = mined_node(FAST, ALICE, 4, seed=40)
    node.submit_transaction(payment(node, ALICE, [(CAROL.challenge, 6)]))
    mine_on(node, ALICE.public_key, seed=140)

    diet = _wire(node, DietConfig(keys=(CAROL.public_key,), max_depth=10,
                                  max_length=3))
    result = diet.update_chain()
    assert result.tip_height == node.tip_height
    assert [v.status for v in result.verdicts] == ["diet-verified"]
    assert diet.highest_verified == 4

    # nothing new: the next update does no verification work
    again = diet.update_chain()
    assert again.verdicts == ()

    node.submit_transaction(payment(node, ALICE, [(CAROL.challenge, 2)]))
    mine_on(node, ALICE.public_key, seed=141)
    third = diet.update_chain()
    assert [v.status for v in third.verdicts] == ["diet-verified"]
    assert third.verdicts[0].first == 4  # window resumed, not recomputed from 0
    assert diet.highest_verified == 5


def test_bytes_accounting_by_query_type():
    node = mined_node(FAST, ALICE, 3, seed=41)
    node.submit_transaction(payment(node, ALICE, [(CAROL.challenge, 6)]))
    mine_on(node, ALICE.public_key, seed=142)
    diet = _wire(node, DietConfig(keys=(CAROL.public_key,), max_depth=10,
                                  max_length=2))
    result = diet.update_chain()
    counted = result.bytes_by_type
    assert set(counted) == {"query_merkle_blocks", "query_utxo_mroot",
                            "query_block", "query_utxos"}
    assert all(v > 0 for v in counted.values())
    # per-height log pairs block bytes with proof bytes inside the window
    verified = [e for e in result.per_height if "utxos_bytes" in e]
    assert verified, "no proof downloads recorded"


def test_spv_mode_never_downloads_state():
    node = mined_node(FAST, ALICE, 3, seed=42)
    node.submit_transaction(payment(node, ALICE, [(CAROL.challenge, 6)]))
    mine_on(node, ALICE.public_key, seed=143)
    diet = _wire(node, DietConfig(keys=(CAROL.public_key,), max_depth=10,
                                  max_length=2, diet_enabled=False))
    result = diet.update_chain()
    assert [v.status for v in result.verdicts] == ["spv-only"]
    assert set(result.bytes_by_type) == {"query_merkle_blocks"}


def test_depth_overflow_falls_back_to_spv():
    node = mined_node(FAST, ALICE, 2, seed=43)
    node.submit_transaction(payment(node, ALICE, [(CAROL.challenge, 6)]))
    mine_on(node, ALICE.public_key, seed=144)
    for i in range(8):
        mine_on(node, ALICE.public_key, seed=145 + i)
    # tx now sits 8 blocks under the tip; window of 2 cannot reach it
    diet = _wire(node, DietConfig(keys=(CAROL.public_key,), max_depth=4,
                                  max_length=2))
    result = diet.update_chain()
    assert [v.status for v in result.verdicts] == ["spv-only"]


def test_verification_across_a_split():
    params = ChainParams(target_bits=5, subsidy=50, size_cap=256, initial_k=0)
    node = mined_node(params, ALICE, 2, seed=44)
    for i in range(6):
        node.submit_transaction(payment(node, ALICE, [(ALICE.challenge, 2)] * 8))
        mine_on(node, ALICE.public_key, seed=244 + i)
    assert node.utxo.rebalance_log, "growth should have split shards"
    split_heights = {s.height for s in node.utxo.rebalance_log}

    node.submit_transaction(payment(node, ALICE, [(CAROL.challenge, 3)]))
    mine_on(node, ALICE.public_key, seed=250)
    depth = node.tip_height  # window wide enough to cross the last split
    diet = _wire(node, DietConfig(keys=(CAROL.public_key,), max_depth=depth,
                                  max_length=depth))
    result = diet.update_chain()
    assert [v.status for v in result.verdicts] == ["diet-verified"]
    first = result.verdicts[0].first
    assert any(first < h <= node.tip_height for h in split_heights)


def test_reorg_rewinds_verified_mark():
    bob = key_of("bob")
    node = mined_node(FAST, ALICE, 3, seed=46)
    node.submit_transaction(payment(node, ALICE, [(CAROL.challenge, 6)]))
    mine_on(node, ALICE.public_key, seed=146)

    diet = _wire(node, DietConfig(keys=(CAROL.public_key,), max_depth=10,
                                  max_length=10))
    diet.update_chain()
    assert diet.highest_verified == node.tip_height

    # competing branch: shares heights 0..1, then outgrows the old chain
    rival = FullNode(FAST)
    for h in (0, 1):
        rival.connect_block(node.blocks[node.headers.active_chain()[h]])
    for i in range(4):
        mine_on(rival, bob.public_key, seed=346 + i)
    for h in range(2, rival.tip_height + 1):
        node.connect_block(rival.blocks[rival.headers.active_chain()[h]])
    assert node.tip_hash == rival.tip_hash

    result = diet.update_chain()
    assert result.tip_height == rival.tip_height
    assert diet.highest_verified == 1  # back to the fork point


def test_tampered_merkle_proof_is_rejected():
    node = mined_node(FAST, ALICE, 3, seed=45)
    node.submit_transaction(payment(node, ALICE, [(CAROL.challenge, 6)]))
    mine_on(node, ALICE.public_key, seed=145)

    class TamperingService(FullNodeService):
        def handle_query(self, msg_type, payload):
            import dataclasses

            from dietchain.netsim import (MSG_QUERY_MERKLE_BLOCKS,
                                          decode_merkle_blocks_response,
                                          encode_merkle_blocks_response)
            response = super().handle_query(msg_type, payload)
            if msg_type != MSG_QUERY_MERKLE_BLOCKS:
                return response
            resp = decode_merkle_blocks_response(response)
            if not resp.matches:
                return response
            match = resp.matches[-1]
            fake_tx = match.transactions[-1]._replace(version=999)
            tampered = dataclasses.replace(match, transactions=(fake_tx,))
            return encode_merkle_blocks_response(
                dataclasses.replace(resp, matches=(tampered,)))

    bus = Bus(seed=9)
    bus.register("peer", TamperingService(node))
    diet = DietNode(FAST, DietConfig(keys=(CAROL.public_key,), max_depth=10,
                                     max_length=2),
                    BusTransport(bus, "client", "peer"))
    result = diet.update_chain()
    # the substituted transaction is not under the header's tx root
    rejected = [v for v in result.verdicts if v.status == "rejected"]
    assert rejected and rejected[0].reason == "proof-mismatch"


def test_zero_target_header_is_refused():
    node = mined_node(FAST, ALICE, 4, seed=46)
    diet = _wire(node, DietConfig(keys=(CAROL.public_key,)))
    diet.update_chain()
    template = dataclasses.replace(node_template(node, ALICE.public_key), target_bits=0)
    free = assemble_block(template, node.utxo)  # nonce 0 meets a zero target
    with pytest.raises(ValidationError) as info:
        diet.headers.add(free.header)
    assert info.value.code == "bad-target"
    diet.ingest_headers([free.header])
    assert diet.headers.tip == node.tip_hash


def test_headers_from_another_genesis_are_refused():
    node = mined_node(FAST, ALICE, 2, seed=47)
    foreign = mined_node(FAST, CAROL, 3, seed=147)
    diet = _wire(node, DietConfig(keys=(CAROL.public_key,)))
    diet.update_chain()
    headers = [foreign.blocks[h].header for h in foreign.headers.active_chain()]
    with pytest.raises(ValidationError) as info:
        diet.headers.add(headers[0])
    assert info.value.code == "bad-genesis"
    diet.ingest_headers(headers)
    assert diet.headers.tip == node.tip_hash
    assert diet.headers.active_chain() == node.headers.active_chain()
