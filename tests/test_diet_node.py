from __future__ import annotations

import dataclasses
import functools
import struct

import pytest
from conftest import FAST, coins_owned, key_of, mined_node, payment, store_state
from hypothesis import given, settings, strategies as st

from dietchain import utxo
from dietchain.chain import (
    COIN_SIZE,
    Block,
    ChainParams,
    KIND_PAYMENT,
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
    block_hash,
    encode_block,
    make_coinbase_input,
    sighash,
)
from dietchain.crypto import hash256
from dietchain.diet_node import (
    DietConfig,
    DietNode,
    VerifyOutcome,
    compute_verification_range,
    window_step,
)
from dietchain.errors import ValidationError
from dietchain.full_node import FullNode, UtxosResponse
from dietchain.merkle import encode_partial, update_levels
from dietchain.miner import (
    BlockTemplate,
    assemble_block,
    mine_on,
    solve_pow,
    template_on,
)
from dietchain.netsim import (
    MSG_QUERY_BLOCK,
    MSG_QUERY_MERKLE_BLOCKS,
    MSG_QUERY_UTXO_MROOT,
    MSG_QUERY_UTXOS,
    MSG_UTXOS,
    Adversary,
    Bus,
    BusTransport,
    ForgedChainBuilder,
    FullNodeService,
    decode_merkle_blocks_response,
    decode_utxos_response,
    encode_merkle_blocks_response,
    encode_utxos_response,
)
from dietchain.rules import commitment_of, signed_spend, tx_merkle_root
from dietchain.utxo import Coin, Shard, coins_of, encode_shard_coins, shard_key

ALICE = key_of("alice")
BOB = key_of("bob")
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


@pytest.mark.parametrize("name, value", [("max_length", 0), ("max_length", -1),
                                         ("max_depth", 0), ("max_depth", -3)])
def test_a_window_below_one_block_is_refused(name, value):
    """Below one block a diet node would never verify a window and would
    give every payment ``spv-only``; the config refuses it."""
    with pytest.raises(ValueError, match=f"{name} must be at least 1, got {value}"):
        DietConfig(keys=(CAROL.public_key,), **{name: value})
    assert getattr(DietConfig(keys=(CAROL.public_key,), **{name: 1}), name) == 1


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
    # the window's base root is read from the base block, never asked for
    assert set(counted) == {"query_merkle_blocks", "query_block", "query_utxos"}
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


@functools.lru_cache(maxsize=None)
def _split_chain() -> FullNode:
    """Nine blocks above genesis at ``size_cap`` 256 from ``k = 0``, each
    paying Alice 2 six times and Carol 3; the blocks at heights 2, 3, 5
    and 8 split the shards. Window steps only read it."""
    params = ChainParams(target_bits=5, subsidy=50, size_cap=256, initial_k=0)
    node = mined_node(params, ALICE, 2, seed=48)
    for i in range(8):
        node.submit_transaction(payment(node, ALICE, [(ALICE.challenge, 2)] * 6
                                        + [(CAROL.challenge, 3)]))
        mine_on(node, ALICE.public_key, seed=248 + i)
    return node


def _step_start(node: FullNode, height: int) -> tuple[bytes, list[Coin]]:
    """What a window step at ``height`` starts from: the root and the
    reward coins of the block below."""
    below = node.blocks[node.headers.active_hash_at(height - 1)]
    return commitment_of(below), coins_of(below.transactions[0])


def _stepped_closes(monkeypatch, node: FullNode) -> dict:
    """Chain ``window_step`` over every block of ``node``'s chain on the
    answers it serves, from the genesis block's root and reward coins.
    Returns, by height, what closing the step's view did (``k`` before
    and after, the shards the body edited, the ``encode_shard_coins``
    calls the close made), the served shard indices, the tree size and
    the root the step derived."""
    closes = {}
    close = utxo.ShardView.close
    packed = []
    encode = utxo.encode_shard_coins

    def counting_encode(coins):
        packed.append(len(coins))
        return encode(coins)

    def recording(view, size_cap):
        k, edited = view.k, set(view.edited)
        packed.clear()
        monkeypatch.setattr(utxo, "encode_shard_coins", counting_encode)
        try:
            leaves = close(view, size_cap)
        finally:
            monkeypatch.setattr(utxo, "encode_shard_coins", encode)
        closes[view.height] = (k, view.k, edited, len(packed))
        return leaves

    monkeypatch.setattr(utxo.ShardView, "close", recording)
    trusted, pending = _step_start(node, 1)
    for block_hash in node.headers.active_chain()[1:]:
        block, answer = node.blocks[block_hash], node.serve_query_utxos(block_hash)
        trusted, pending = window_step(node.params, trusted, pending, block, answer)
        height = block.header.height
        closes[height] += (set(answer.shards), answer.tree.total_leaves, trusted)
    return closes


def test_the_diet_replay_edits_exactly_the_shards_served(monkeypatch):
    """The replay of an honest block edits every shard the node served for
    it and no other, so re-hashing the served paths after the edits costs
    no leaf the block did not change; a split block is served every
    shard, and the diet node rebuilds the whole tree."""
    node = _split_chain()
    replayed = _stepped_closes(monkeypatch, node)
    assert sorted(replayed) == list(range(1, node.tip_height + 1))
    splits = {h for h in replayed if node.utxo.touched_log[h].rebalanced}
    assert splits and len(splits) < len(replayed)
    for height, (_, _, edited, _, served, total, root) in replayed.items():
        assert root == commitment_of(node.blocks[node.headers.active_hash_at(height)])
        if height in splits:
            assert len(served) == total
        else:
            assert edited == served == set(node.utxo.versions[height])


def test_a_split_in_a_window_packs_only_the_shards_the_block_edited(monkeypatch):
    """A split cuts each served shard into runs and slices the served
    bytes, so closing a window's split block packs each shard the body
    edited once and no other: not the ``2**(k+1)`` children."""
    params = ChainParams(target_bits=5, subsidy=50, size_cap=256, initial_k=2)
    node = mined_node(params, ALICE, 2, seed=46)
    for i in range(8):
        node.submit_transaction(payment(node, ALICE, [(ALICE.challenge, 2)] * 6
                                        + [(CAROL.challenge, 3)]))
        mine_on(node, ALICE.public_key, seed=246 + i)
    closes = _stepped_closes(monkeypatch, node)
    assert sorted(closes) == list(range(1, node.tip_height + 1))
    splits = [h for h, (k, k_after, *_) in closes.items() if k_after != k]
    assert splits
    for height, (k, k_after, edited, packs, _, _, root) in closes.items():
        assert packs == len(edited)
        if height in splits:
            assert len(edited) < 1 << k  # some shards were served and left as they were
        assert root == commitment_of(node.blocks[node.headers.active_hash_at(height)])


def test_a_window_verifies_a_block_that_splits_by_two_bits(monkeypatch):
    """A block that adds enough coins to split twice at once cuts each
    served shard into four runs; the diet node verifies it and derives
    the root the full node committed."""
    params = ChainParams(target_bits=5, subsidy=50, size_cap=256, initial_k=1)
    node = mined_node(params, ALICE, 2, seed=47)
    node.submit_transaction(payment(node, ALICE, [(ALICE.challenge, 1)] * 12
                                    + [(CAROL.challenge, 3)]))
    mine_on(node, ALICE.public_key, seed=247)
    record = node.utxo.touched_log[node.tip_height]
    assert (record.k, record.k_after) == (1, 3)
    k, k_after, *_, root = _stepped_closes(monkeypatch, node)[node.tip_height]
    assert (k, k_after) == (1, 3)
    assert root == commitment_of(node.blocks[node.tip_hash]) == node.utxo.current_root


class _ExtraSiblingService(FullNodeService):
    """Appends one sibling, which the served leaves do not need, to the
    proof of every block that split the shards."""

    def handle_query(self, msg_type, payload):
        response = super().handle_query(msg_type, payload)
        if msg_type != MSG_QUERY_UTXOS:
            return response
        height = self.node.blocks[payload].header.height
        if not self.node.utxo.touched_log[height].rebalanced:
            return response
        resp = self.node.serve_query_utxos(payload)
        tree = dataclasses.replace(resp.tree, siblings=resp.tree.siblings + (hash256(b"extra"),))
        return encode_utxos_response(UtxosResponse(shards=resp.shards, tree=tree))


def test_a_window_across_a_split_rejects_an_extra_sibling():
    """A split block is served every shard, so its proof needs no
    sibling; one the peer adds is left unread, and the window is
    rejected at the split."""
    params = ChainParams(target_bits=5, subsidy=50, size_cap=256, initial_k=0)
    node = mined_node(params, ALICE, 2, seed=49)
    for i in range(6):
        node.submit_transaction(payment(node, ALICE, [(ALICE.challenge, 2)] * 8))
        mine_on(node, ALICE.public_key, seed=249 + i)
    node.submit_transaction(payment(node, ALICE, [(CAROL.challenge, 3)]))
    mine_on(node, ALICE.public_key, seed=255)
    splits = {h for h, record in node.utxo.touched_log.items() if record.rebalanced}
    assert splits
    depth = node.tip_height
    bus = Bus(seed=9)
    bus.register("peer", _ExtraSiblingService(node))
    diet = DietNode(params, DietConfig(keys=(CAROL.public_key,), max_depth=depth,
                                       max_length=depth), BusTransport(bus, "client", "peer"))
    (verdict,) = diet.update_chain().verdicts
    assert (verdict.status, verdict.reason) == ("rejected", "shard-proof-mismatch")
    assert verdict.fail_height == min(h for h in splits if h > verdict.first)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(window=st.lists(st.integers(0, 9), min_size=2, max_size=2, unique=True))
def test_window_steps_end_where_the_diet_node_does(window):
    """Chaining the step over a window from the base block's root and
    reward coins reaches the root of the block the diet node verifies up
    to, and each step leaves its arguments as they were."""
    node = _split_chain()
    first, last = sorted(window)
    diet = _wire(node, DietConfig(keys=(CAROL.public_key,), max_depth=node.tip_height,
                                  max_length=last - first))
    diet.ingest_headers([node.blocks[hh].header for hh in node.headers.active_chain()])
    assert diet.verify_blocks_up_to(last) == VerifyOutcome("verified", first, last)
    trusted, pending = _step_start(node, first + 1)
    for height in range(first + 1, last + 1):
        block_hash = node.headers.active_hash_at(height)
        block, answer = node.blocks[block_hash], node.serve_query_utxos(block_hash)
        before = (list(pending), encode_block(block), dict(answer.shards), answer.tree)
        trusted, after = window_step(node.params, trusted, pending, block, answer)
        assert (list(pending), encode_block(block), dict(answer.shards), answer.tree) == before
        pending = after
    assert diet.highest_verified == last
    assert trusted == commitment_of(node.blocks[node.headers.active_hash_at(last)])


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
    assert rejected[0].fail_height == rejected[0].height == node.tip_height


def test_zero_target_header_is_refused():
    node = mined_node(FAST, ALICE, 4, seed=46)
    diet = _wire(node, DietConfig(keys=(CAROL.public_key,)))
    diet.update_chain()
    template = dataclasses.replace(
        template_on(node, *node.build_template(), ALICE.public_key), target_bits=0)
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


# -- invalid blocks served with honest proofs ------------------------------------


class _LenientNode(FullNode):
    """A serving node that takes any block with valid proof-of-work on its
    tip: its validation step only applies the block, so it serves an
    invalid block together with honest proofs of the state before it."""

    def _validate_and_apply(self, block: Block) -> None:
        self.utxo.apply_block(block, block.header.height)

    def plant(self, block: Block) -> None:
        """Put a block on the tip without applying it, for bodies the
        store cannot apply at all (a spent or made-up input)."""
        self.headers.add(block.header)
        self.blocks[block_hash(block)] = block

    def serve_query_utxos(self, block_hash: bytes) -> UtxosResponse:
        height = self.blocks[block_hash].header.height
        if height in self.utxo.touched_log:
            return super().serve_query_utxos(block_hash)
        # A planted block: prove every shard of the state it sits on.
        shards, tree = self.utxo.state_before(height, set(range(1 << self.utxo.k)))
        return UtxosResponse(shards=shards, tree=tree)


def _lenient_copy(node: FullNode) -> _LenientNode:
    lenient = _LenientNode(node.params)
    for hh in node.headers.active_chain():
        assert lenient.connect_block(node.blocks[hh]).accepted
    return lenient


def _signed(key, outpoints, outputs) -> Transaction:
    tx = Transaction(
        version=0,
        inputs=tuple(TxInput(prevout=o, public_key=key.public_key, signature=b"\x00" * 64)
                     for o in outpoints),
        outputs=tuple(outputs),
    )
    signature = key.sign(sighash(tx))
    return tx._replace(inputs=tuple(i._replace(signature=signature) for i in tx.inputs))


def _pay(coin, to: bytes, amount: int, fee: int = 1) -> Transaction:
    """Alice spends one coin: ``amount`` to ``to``, the rest less the fee back."""
    return _signed(ALICE, [coin.outpoint], [
        TxOutput(value=amount, kind=KIND_PAYMENT, payload=to),
        TxOutput(value=coin.value - amount - fee, kind=KIND_PAYMENT, payload=ALICE.challenge),
    ])


def _tip_block(node: FullNode, txs, fees: int, overpay: int = 0, seed: int = 0) -> Block:
    """A solved block on the node's tip committing the root of ``txs``."""
    template = BlockTemplate(
        parent_hash=node.tip_hash, height=node.tip_height + 1,
        target_bits=node.params.target_bits, transactions=tuple(txs),
        reward_key=ALICE.public_key, reward_value=node.params.subsidy + fees + overpay)
    return _solved(assemble_block(template, node.utxo), seed)


def _solved(block: Block, seed: int) -> Block:
    header = block.header._replace(tx_mroot=tx_merkle_root(block.transactions))
    nonce = solve_pow(header, 1 << 20, seed=seed)
    return Block(header=header._replace(nonce=nonce), transactions=block.transactions)


def _tip_verdicts(diet: DietNode, height: int) -> set:
    return {(v.status, v.reason, v.fail_height)
            for v in diet.update_chain().verdicts if v.height == height}


WATCH_CAROL = DietConfig(keys=(CAROL.public_key,), max_depth=10, max_length=2)


def test_input_less_tx_in_window_is_bad_structure_on_both_nodes():
    honest = mined_node(FAST, ALICE, 3, seed=60)
    lenient = _lenient_copy(honest)
    paid = _pay(coins_owned(honest, ALICE)[0], CAROL.challenge, 6)
    free = Transaction(version=0, inputs=(),
                       outputs=(TxOutput(value=0, kind=KIND_PAYMENT, payload=CAROL.challenge),))
    block = _tip_block(lenient, [paid, free], fees=1, seed=160)
    assert lenient.connect_block(block).accepted

    result = honest.connect_block(block)
    assert (result.status, result.reason) == ("rejected", "bad-structure")
    diet = _wire(lenient, WATCH_CAROL)
    assert _tip_verdicts(diet, 3) == {("rejected", "bad-structure", 3)}


def test_coinbase_overpay_in_window_is_bad_coinbase_value_on_both_nodes():
    honest = mined_node(FAST, ALICE, 3, seed=61)
    lenient = _lenient_copy(honest)
    paid = _pay(coins_owned(honest, ALICE)[0], CAROL.challenge, 6)
    block = _tip_block(lenient, [paid], fees=1, overpay=1, seed=161)
    assert lenient.connect_block(block).accepted

    result = honest.connect_block(block)
    assert (result.status, result.reason) == ("rejected", "bad-coinbase-value")
    diet = _wire(lenient, WATCH_CAROL)
    assert _tip_verdicts(diet, 3) == {("rejected", "bad-coinbase-value", 3)}


def test_coinbase_overpay_is_bad_coinbase_value_on_a_node_checking_no_commitments():
    """With commitments off the close rule skips only the root: the
    overpaying block above is still refused for its value."""
    honest = mined_node(FAST, ALICE, 3, seed=61)
    legacy = FullNode(FAST, check_commitments=False)
    for hh in honest.headers.active_chain():
        assert legacy.connect_block(honest.blocks[hh]).accepted
    paid = _pay(coins_owned(honest, ALICE)[0], CAROL.challenge, 6)
    block = _tip_block(honest, [paid], fees=1, overpay=1, seed=161)

    result = legacy.connect_block(block)
    assert (result.status, result.reason, result.height) == \
        ("rejected", "bad-coinbase-value", 3)


def test_a_shard_past_a_u16_coin_count_is_accepted_on_both_nodes():
    """A shard's encoding counts no coins, so no rule limits them: a
    block that leaves 65,536 coins in the one shard of k = 0 is mined
    and connected by a full node, and a diet node verifies the window
    whose pre-state proof serves that shard."""
    params = ChainParams(target_bits=4, size_cap=6_000_000, initial_k=0)
    miner = mined_node(params, ALICE, 2, seed=63)
    flood = _signed(ALICE, [coins_owned(miner, ALICE)[0].outpoint], [
        TxOutput(value=0, kind=KIND_PAYMENT, payload=CAROL.challenge)] * 0xFFFF)
    miner.submit_transaction(flood)
    mine_on(miner, ALICE.public_key, seed=163)
    miner.submit_transaction(_pay(coins_owned(miner, ALICE)[0], CAROL.challenge, 6))
    mine_on(miner, ALICE.public_key, seed=164)
    follower = _lenient_copy(miner)
    assert store_state(follower.utxo) == store_state(miner.utxo)

    served = miner.serve_query_utxos(miner.tip_hash)
    assert (miner.utxo.k, len(served.shards[0].coins)) == (0, 0x10000)
    diet = _wire(miner, WATCH_CAROL)
    assert {(v.height, v.status, v.first, v.last) for v in diet.update_chain().verdicts} == \
        {(2, "diet-verified", 0, 2), (3, "diet-verified", 2, 3)}  # 3 replays on that shard


def test_a_window_below_the_peers_floor_is_history_unavailable(monkeypatch):
    """A peer keeps pre-states only down to its floor (tip 10 less a
    horizon of 3). A window that needs an older one gets a ``rejected``
    verdict at the first block the peer cannot serve, not an exception; a
    window at the floor verifies."""
    monkeypatch.setattr("dietchain.utxo.HISTORY_HORIZON", 3)
    node = mined_node(FAST, ALICE, 4, seed=64)
    payees = {4: CAROL, 9: BOB}
    for height in range(4, 11):
        if height in payees:
            coin = coins_owned(node, ALICE)[0]
            node.submit_transaction(_pay(coin, payees[height].challenge, 6))
        mine_on(node, ALICE.public_key, seed=160 + height)
    assert (node.tip_height, node.utxo.floor) == (10, 7)
    carol = _wire(node, DietConfig(keys=(CAROL.public_key,), max_depth=10, max_length=3))
    assert _tip_verdicts(carol, 4) == {("rejected", "history-unavailable", 2)}
    bob = _wire(node, DietConfig(keys=(BOB.public_key,), max_depth=10, max_length=2))
    verdicts = bob.update_chain().verdicts
    assert {(v.status, v.first, v.last) for v in verdicts} == {("diet-verified", 7, 9)}



class _BehindService(FullNodeService):
    """Answers ``query_merkle_blocks`` from ``ahead`` and every window
    query from its own node, which lacks the blocks ``ahead`` mined past
    it."""

    def __init__(self, node: FullNode, ahead: FullNode):
        super().__init__(node)
        self.ahead = FullNodeService(ahead)

    def handle_query(self, msg_type, payload):
        if msg_type == MSG_QUERY_MERKLE_BLOCKS:
            return self.ahead.handle_query(msg_type, payload)
        return super().handle_query(msg_type, payload)


def test_a_peer_without_the_block_asked_about_is_unknown_block_at_its_height():
    """A peer that sent headers it holds no block for gets a ``rejected``
    verdict at the first height it cannot serve, not an exception."""
    behind = mined_node(FAST, ALICE, 4, seed=68)
    ahead = mined_node(FAST, ALICE, 4, seed=68)
    ahead.submit_transaction(payment(ahead, ALICE, [(CAROL.challenge, 6)]))
    mine_on(ahead, ALICE.public_key, seed=168)
    bus = Bus(seed=2)
    bus.register("peer", _BehindService(behind, ahead))
    diet = DietNode(FAST, WATCH_CAROL, BusTransport(bus, "client", "peer"))
    (verdict,) = diet.update_chain().verdicts
    assert (verdict.status, verdict.reason, verdict.fail_height) == \
        ("rejected", "unknown-block", behind.tip_height + 1)

def test_repeated_last_tx_body_is_bad_structure():
    node = mined_node(FAST, ALICE, 3, seed=62)
    first, second = coins_owned(node, ALICE)[:2]
    node.submit_transaction(_pay(first, CAROL.challenge, 6))
    node.submit_transaction(_pay(second, BOB.challenge, 4))
    block = mine_on(node, ALICE.public_key, seed=162)
    assert len(block.transactions) == 3  # odd: the last tx pairs with itself
    target = block_hash(block)
    doubled = block._replace(transactions=block.transactions + block.transactions[-1:])
    assert tx_merkle_root(doubled.transactions) == block.header.tx_mroot

    class RepeatingService(FullNodeService):
        def handle_query(self, msg_type, payload):
            if msg_type == MSG_QUERY_BLOCK and payload == target:
                return encode_block(doubled)
            return super().handle_query(msg_type, payload)

    bus = Bus(seed=3)
    bus.register("peer", RepeatingService(node))
    diet = DietNode(FAST, WATCH_CAROL, BusTransport(bus, "client", "peer"))
    assert _tip_verdicts(diet, 3) == {("rejected", "bad-structure", 3)}


# -- a hostile peer gets a verdict, not an exception ---------------------------------


class _TruncatingService(FullNodeService):
    """Drops the last byte of every response of one query type."""

    def __init__(self, node: FullNode, cut: int | None):
        super().__init__(node)
        self.cut = cut

    def handle_query(self, msg_type, payload):
        response = super().handle_query(msg_type, payload)
        return response[:-1] if msg_type == self.cut else response


def _truncated_window(cut: int):
    node = mined_node(FAST, ALICE, 4, seed=63)
    node.submit_transaction(payment(node, ALICE, [(CAROL.challenge, 6)]))
    mine_on(node, ALICE.public_key, seed=163)
    bus = Bus(seed=4)
    bus.register("peer", _TruncatingService(node, cut))
    diet = DietNode(FAST, WATCH_CAROL, BusTransport(bus, "client", "peer"))
    return diet.update_chain().verdicts


def test_truncated_block_is_a_peer_fault():
    (verdict,) = _truncated_window(MSG_QUERY_BLOCK)
    assert (verdict.status, verdict.reason) == ("rejected", "peer-fault")
    assert verdict.fail_height == verdict.first  # the trusted base block comes first


def test_truncated_utxos_is_a_peer_fault():
    (verdict,) = _truncated_window(MSG_QUERY_UTXOS)
    assert (verdict.status, verdict.reason) == ("rejected", "peer-fault")
    assert verdict.fail_height == verdict.first + 1


def test_a_window_asks_no_root_so_a_truncated_root_answer_changes_nothing():
    """The base root comes from the base block, whose truncation is the
    peer fault at the base (above); a root answer is never asked for."""
    (verdict,) = _truncated_window(MSG_QUERY_UTXO_MROOT)
    assert verdict.status == "diet-verified"
    assert (verdict.first, verdict.last) == (verdict.height - 2, verdict.height)


# -- a peer that lies about the window's base root -------------------------------


class _LyingRootService(FullNodeService):
    """Serves a forger's replica, and answers a root query about the base
    block with the root of the replica's made-up state there."""

    def __init__(self, node: FullNode, base: bytes, lie: bytes):
        super().__init__(node)
        self.base, self.lie = base, lie

    def handle_query(self, msg_type, payload):
        if msg_type == MSG_QUERY_UTXO_MROOT and payload == self.base:
            return self.lie
        return super().handle_query(msg_type, payload)


def _forge_on_a_made_up_base(honest: FullNode, l: int) -> tuple[ForgedChainBuilder, bytes, bytes]:
    """A forger that forks at ``T = tip - (l - 1)`` with a made-up coin of
    Alice's in its state at ``T`` (so its root there is a lie), mines
    ``l - 1`` empty blocks and one that spends the coin to Carol: ``l``
    real proofs of work. Returns the forger, the base hash and the lie."""
    fork = honest.tip_height - (l - 1)
    forger = ForgedChainBuilder(FAST, budget=l, seed=77)
    forger.replay(honest, fork)
    store = forger.node.utxo
    coin = Coin(OutPoint(hash256(b"made up"), 0), 1000, ALICE.challenge)
    idx = shard_key(coin.outpoint.txid, store.k)
    store.shards[idx] = sorted(store.shards[idx] + [coin])
    update_levels(store._levels, {idx: hash256(encode_shard_coins(store.shards[idx]))})
    store._coin_count += 1
    lie = store.current_root
    assert lie != commitment_of(honest.blocks[honest.headers.active_hash_at(fork)])
    for _ in range(l - 1):
        forger.mine([], ALICE.public_key)
    spend = signed_spend(ALICE, [coin], [
        TxOutput(value=10, kind=KIND_PAYMENT, payload=CAROL.challenge),
        TxOutput(value=989, kind=KIND_PAYMENT, payload=ALICE.challenge)])
    forger.mine([spend], ALICE.public_key)
    return forger, forger.node.headers.active_hash_at(fork), lie


@pytest.mark.parametrize("l", [1, 2, 3])
def test_a_lying_base_root_cannot_save_a_proof_of_work(l):
    """A forger with ``l`` proofs of work, under a window of ``l``, whose
    peer serves shards of a made-up base state and vouches for its root,
    has the spend at height 8 rejected: the base root is the base
    block's own commitment, which the made-up shards served for the
    window's first block do not reach."""
    honest = mined_node(FAST, ALICE, 8, seed=3)  # tip 7
    forger, base, lie = _forge_on_a_made_up_base(honest, l)
    assert forger.node.tip_height == 8 and forger.mined == l
    bus = Bus(seed=5)
    bus.register("peer", _LyingRootService(forger.node, base, lie))
    config = DietConfig(keys=(CAROL.public_key,), max_depth=l, max_length=l)
    diet = DietNode(FAST, config, BusTransport(bus, "client", "peer"))
    result = diet.update_chain()
    (verdict,) = result.verdicts
    assert (verdict.height, verdict.status, verdict.reason) == \
        (8, "rejected", "shard-proof-mismatch")
    assert (verdict.first, verdict.last, verdict.fail_height) == (8 - l, 8, 8 - l + 1)
    assert "query_utxo_mroot" not in result.bytes_by_type


class _ShardTwiceService(FullNodeService):
    """Serves every query_utxos answer with its first shard twice: the
    same shards and proof, in a non-canonical encoding."""

    def handle_query(self, msg_type, payload):
        if msg_type != MSG_QUERY_UTXOS:
            return super().handle_query(msg_type, payload)
        resp = self.node.serve_query_utxos(payload)
        order = sorted(resp.shards)
        order.insert(0, order[0])
        parts = [struct.pack("<H", len(order))]
        for idx in order:
            encoded = resp.shards[idx].encoded
            parts += [struct.pack("<II", idx, len(encoded) // COIN_SIZE), encoded]
        parts.append(encode_partial(resp.tree))
        return b"".join(parts)


class _RewritingService(FullNodeService):
    """Answers one query about the block at ``height`` otherwise than an
    honest node: as ``case`` says, a ``query_utxos`` answer loses a
    touched shard or gains an untouched one (proved with the shards it
    then holds), gets a tree size that is not a power of two, loses a
    sibling, gains one at the end, serves one more shard at an index past
    the tree or serves no shard, or a ``query_block`` answer is the block
    below."""

    def __init__(self, node: FullNode, height: int, case: str):
        super().__init__(node)
        self.target = node.headers.active_hash_at(height)
        self.height = height
        self.case = case

    def handle_query(self, msg_type, payload):
        if payload != self.target:
            return super().handle_query(msg_type, payload)
        if self.case == "other-block":
            if msg_type != MSG_QUERY_BLOCK:
                return super().handle_query(msg_type, payload)
            return encode_block(self.node.blocks[self.node.headers.active_hash_at(self.height - 1)])
        if msg_type != MSG_QUERY_UTXOS:
            return super().handle_query(msg_type, payload)
        resp = self.node.serve_query_utxos(payload)
        tree = resp.tree
        held = set(resp.shards)
        if self.case in ("drop-shard", "extra-shard"):
            if self.case == "drop-shard":
                held.remove(max(held))
            else:
                held.add(min(set(range(tree.total_leaves)) - held))
            shards, tree = self.node.utxo.state_before(self.height, held)
            return encode_utxos_response(UtxosResponse(shards=shards, tree=tree))
        shards = resp.shards
        if self.case == "size":
            tree = dataclasses.replace(tree, total_leaves=3 * tree.total_leaves)
        elif self.case == "drop-sibling":
            tree = dataclasses.replace(tree, siblings=tree.siblings[1:])
        elif self.case == "extra-sibling":
            tree = dataclasses.replace(tree, siblings=tree.siblings + (hash256(b"extra"),))
        elif self.case == "outside":
            shards = {**shards, tree.total_leaves: Shard(b"")}
        else:  # "no-shard"
            shards = {}
        return encode_utxos_response(UtxosResponse(shards=shards, tree=tree))


@pytest.mark.parametrize("case, reason", [("drop-shard", "shard-proof-mismatch"),
                                          ("size", "shard-proof-mismatch"),
                                          ("drop-sibling", "shard-proof-mismatch"),
                                          ("extra-sibling", "shard-proof-mismatch"),
                                          ("outside", "shard-proof-mismatch"),
                                          ("no-shard", "shard-proof-mismatch"),
                                          ("other-block", "proof-mismatch")])
def test_a_rewritten_window_answer_is_a_verdict_at_its_height(case, reason):
    """Each lie ends the window at the height it was told about; the
    payment below it is still verified."""
    first, second, height = _rewritten_window(case)
    assert (first.status, first.height) == ("diet-verified", height - 1)
    assert (second.status, second.reason, second.fail_height) == ("rejected", reason, height)


def test_an_untouched_shard_served_with_its_proof_is_still_verified():
    """A served shard the block leaves alone keeps its leaf in the root
    walked after the block."""
    first, second, _ = _rewritten_window("extra-shard")
    assert (first.status, second.status) == ("diet-verified", "diet-verified")


def _rewritten_window(case: str):
    """The two verdicts of a diet client paid at the last two heights of a
    chain whose peer rewrites one answer about the tip block, and that
    height."""
    node = mined_node(FAST, ALICE, 4, seed=63)
    for seed in (163, 164):
        node.submit_transaction(payment(node, ALICE, [(CAROL.challenge, 6)]))
        mine_on(node, ALICE.public_key, seed=seed)
    height = node.tip_height
    served = node.serve_query_utxos(node.headers.active_hash_at(height))
    assert 2 <= len(served.shards) < served.tree.total_leaves and served.tree.siblings
    bus = Bus(seed=8)
    bus.register("peer", _RewritingService(node, height, case))
    diet = DietNode(FAST, WATCH_CAROL, BusTransport(bus, "client", "peer"))
    first, second = diet.update_chain().verdicts
    return first, second, height


LIES = ("drop-shard", "extra-shard", "other-height", "other-block", "size", "drop-sibling",
        "add-sibling", "swap-siblings", "replace-sibling", "flip-coin", "drop-coin",
        "no-shard", "outside")


def _differing_pairs(siblings) -> list[tuple[int, int]]:
    return [(i, j) for i in range(len(siblings)) for j in range(i + 1, len(siblings))
            if siblings[i] != siblings[j]]


def _lie_fits(lie: str, answer: UtxosResponse) -> bool:
    """Whether ``lie`` can be told about ``answer``: a shard to drop
    while one stays, an unserved one to add, a sibling to drop or
    replace, two different ones to swap, a coin to flip or drop."""
    siblings = answer.tree.siblings
    return {"drop-shard": len(answer.shards) > 1,
            "extra-shard": len(answer.shards) < answer.tree.total_leaves,
            "drop-sibling": bool(siblings), "replace-sibling": bool(siblings),
            "swap-siblings": bool(_differing_pairs(siblings)),
            "flip-coin": any(s.encoded for s in answer.shards.values()),
            "drop-coin": any(s.encoded for s in answer.shards.values()),
            }.get(lie, True)


def _lie(node: FullNode, height: int, lie: str, draw) -> tuple[Block, UtxosResponse]:
    """The block at ``height`` and the node's answer for it, one of them
    rewritten as ``lie`` says, with ``draw`` picking where."""
    block_hash = node.headers.active_hash_at(height)
    block, answer = node.blocks[block_hash], node.serve_query_utxos(block_hash)
    shards, tree = dict(answer.shards), answer.tree
    siblings = list(tree.siblings)
    other = node.headers.active_hash_at(
        draw(st.sampled_from([h for h in range(1, node.tip_height + 1) if h != height])))
    if lie in ("drop-shard", "extra-shard"):
        held = set(shards)
        if lie == "drop-shard":
            held.remove(draw(st.sampled_from(sorted(held))))
        else:
            held.add(draw(st.sampled_from(sorted(set(range(tree.total_leaves)) - held))))
        shards, tree = node.utxo.state_before(height, held)
    elif lie == "other-height":
        return block, node.serve_query_utxos(other)
    elif lie == "other-block":
        return node.blocks[other], answer
    elif lie == "size":
        tree = dataclasses.replace(tree, total_leaves=draw(
            st.integers(1, 4 * tree.total_leaves).filter(lambda n: n != tree.total_leaves)))
    elif lie == "drop-sibling":
        del siblings[draw(st.integers(0, len(siblings) - 1))]
    elif lie == "add-sibling":
        siblings.insert(draw(st.integers(0, len(siblings))), hash256(b"extra"))
    elif lie == "swap-siblings":
        i, j = draw(st.sampled_from(_differing_pairs(siblings)))
        siblings[i], siblings[j] = siblings[j], siblings[i]
    elif lie == "replace-sibling":
        siblings[draw(st.integers(0, len(siblings) - 1))] = hash256(b"replaced")
    elif lie in ("flip-coin", "drop-coin"):
        idx = draw(st.sampled_from(sorted(i for i, s in shards.items() if s.encoded)))
        data = bytearray(shards[idx].encoded)
        at = COIN_SIZE * draw(st.integers(0, len(data) // COIN_SIZE - 1))
        if lie == "flip-coin":
            data[at + draw(st.integers(0, COIN_SIZE - 1))] ^= 1 << draw(st.integers(0, 7))
        else:
            del data[at:at + COIN_SIZE]
        shards[idx] = Shard(bytes(data))
    elif lie == "no-shard":
        shards = {}
    else:  # "outside"
        shards[tree.total_leaves + draw(st.integers(0, 3))] = Shard(b"")
    if "sibling" in lie:
        tree = dataclasses.replace(tree, siblings=tuple(siblings))
    return block, UtxosResponse(shards=shards, tree=tree)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_lying_answer_is_a_verdict_at_its_block_or_changes_nothing(data):
    """A step told one lie about a block of a chain with four splits,
    from the honest root and reward coins below it, raises a
    ``ValidationError`` at the height of the block it was handed, or,
    for an untouched shard served with its proof, returns what the
    honest answer gives; it never raises anything else."""
    node = _split_chain()
    lie = data.draw(st.sampled_from(LIES))
    height = data.draw(st.sampled_from(
        [h for h in range(1, node.tip_height + 1)
         if _lie_fits(lie, node.serve_query_utxos(node.headers.active_hash_at(h)))]))
    block, answer = _lie(node, height, lie, data.draw)
    try:
        result = window_step(node.params, *_step_start(node, height), block, answer)
    except ValidationError as exc:
        assert lie != "extra-shard"
        assert exc.height == block.header.height
        if lie == "drop-shard" and node.utxo.touched_log[height].rebalanced:
            # without a shard the body leaves alone, a split block's view does not split
            assert exc.code in ("shard-proof-mismatch", "root-mismatch")
        elif lie != "other-block":
            assert exc.code == "shard-proof-mismatch"
    else:
        assert lie == "extra-shard"
        assert result == (commitment_of(block), coins_of(block.transactions[0]))


def test_a_shard_count_overrunning_the_answer_is_a_peer_fault():
    """A peer that frames its first shard with a coin count past the
    end of its answer gets ``peer-fault`` at the block asked about."""
    node = mined_node(FAST, ALICE, 4, seed=66)
    node.submit_transaction(payment(node, ALICE, [(CAROL.challenge, 6)]))
    mine_on(node, ALICE.public_key, seed=166)
    bus = Bus(seed=7)
    bus.register("peer", FullNodeService(node))
    bus.attach_adversary(Adversary(victim="client", transforms={
        MSG_UTXOS: lambda data: data[:6] + struct.pack("<I", 0xFFFFFFFF) + data[10:]}))
    diet = DietNode(FAST, WATCH_CAROL, BusTransport(bus, "client", "peer"))
    (verdict,) = diet.update_chain().verdicts
    assert (verdict.status, verdict.reason) == ("rejected", "peer-fault")
    assert verdict.fail_height == verdict.first + 1


def test_a_utxos_tree_of_zero_leaves_is_a_peer_fault():
    """A peer whose ``utxos`` answer gives its tree no leaves gets
    ``peer-fault`` at the block asked about: such a tree never decodes."""
    node = mined_node(FAST, ALICE, 4, seed=66)
    node.submit_transaction(payment(node, ALICE, [(CAROL.challenge, 6)]))
    mine_on(node, ALICE.public_key, seed=166)

    def no_leaves(data: bytes) -> bytes:
        # the tree follows the shard frames: walk them from the front
        (count,), at = struct.unpack_from("<H", data), 2
        for _ in range(count):
            _, coins = struct.unpack_from("<II", data, at)
            at += 8 + COIN_SIZE * coins
        assert decode_utxos_response(data).tree.total_leaves == \
            struct.unpack_from("<I", data, at)[0]
        return data[:at] + struct.pack("<I", 0) + data[at + 4:]

    bus = Bus(seed=7)
    bus.register("peer", FullNodeService(node))
    bus.attach_adversary(Adversary(victim="client", transforms={MSG_UTXOS: no_leaves}))
    diet = DietNode(FAST, WATCH_CAROL, BusTransport(bus, "client", "peer"))
    (verdict,) = diet.update_chain().verdicts
    assert (verdict.status, verdict.reason) == ("rejected", "peer-fault")
    assert verdict.fail_height == verdict.first + 1


def test_a_shard_served_twice_is_a_peer_fault():
    node = mined_node(FAST, ALICE, 4, seed=65)
    node.submit_transaction(payment(node, ALICE, [(CAROL.challenge, 6)]))
    mine_on(node, ALICE.public_key, seed=165)
    bus = Bus(seed=6)
    bus.register("peer", _ShardTwiceService(node))
    diet = DietNode(FAST, WATCH_CAROL, BusTransport(bus, "client", "peer"))
    (verdict,) = diet.update_chain().verdicts
    assert (verdict.status, verdict.reason) == ("rejected", "peer-fault")
    assert verdict.fail_height == verdict.first + 1


class _MatchRewritingService(FullNodeService):
    """Rewrites the last match of every ``query_merkle_blocks`` answer as
    ``case`` says: its last tx index moved past the tx tree, a sibling
    appended to its proof, or its first two tx indices repeated or
    swapped."""

    def __init__(self, node: FullNode, case: str):
        super().__init__(node)
        self.case = case

    def handle_query(self, msg_type, payload):
        response = super().handle_query(msg_type, payload)
        if msg_type != MSG_QUERY_MERKLE_BLOCKS:
            return response
        resp = decode_merkle_blocks_response(response)
        match = resp.matches[-1]
        indices, tree = list(match.tx_indices), match.tx_tree
        if self.case == "index-outside":
            indices[-1] = tree.total_leaves
        elif self.case == "extra-sibling":
            tree = dataclasses.replace(tree, siblings=tree.siblings + (hash256(b"extra"),))
        elif self.case == "repeated":
            indices[1] = indices[0]
        else:  # "decreasing"
            indices[0], indices[1] = indices[1], indices[0]
        match = dataclasses.replace(match, tx_tree=tree, tx_indices=tuple(indices))
        return encode_merkle_blocks_response(
            dataclasses.replace(resp, matches=resp.matches[:-1] + (match,)))


def _paid_twice_in_one_block(case: str) -> tuple[FullNode, DietNode]:
    """A chain whose tip block pays Carol twice, and a diet client of it
    whose peer rewrites that block's match as ``case`` says."""
    node = mined_node(FAST, ALICE, 4, seed=67)
    for coin in coins_owned(node, ALICE)[:2]:
        node.submit_transaction(_pay(coin, CAROL.challenge, 6))
    mine_on(node, ALICE.public_key, seed=167)
    bloom = DietNode(FAST, WATCH_CAROL, None).build_filter()
    (match,) = node.serve_query_merkle_blocks(node.headers.active_hash_at(3), bloom).matches
    assert len(match.tx_indices) >= 2
    bus = Bus(seed=3)
    bus.register("peer", _MatchRewritingService(node, case))
    return node, DietNode(FAST, WATCH_CAROL, BusTransport(bus, "client", "peer"))


@pytest.mark.parametrize("case", ["index-outside", "extra-sibling"])
def test_a_lying_tx_proof_is_a_proof_mismatch(case):
    """A tx index past the block's tx tree, or a sibling its proof does
    not need, reaches no root: each paid tx gets ``proof-mismatch`` at
    its block."""
    node, diet = _paid_twice_in_one_block(case)
    verdicts = diet.update_chain().verdicts
    assert len(verdicts) >= 2
    assert {(v.status, v.reason, v.fail_height) for v in verdicts} == \
        {("rejected", "proof-mismatch", node.tip_height)}


@pytest.mark.parametrize("case", ["repeated", "decreasing"])
def test_tx_indices_not_strictly_increasing_change_nothing(case):
    """Such an answer does not decode, so the update indexes no header
    and gives no verdict."""
    _, diet = _paid_twice_in_one_block(case)
    result = diet.update_chain()
    assert (result.verdicts, result.tip_height, diet.headers.tip) == ((), -1, None)


def test_truncated_merkle_blocks_changes_nothing():
    node = mined_node(FAST, ALICE, 4, seed=64)
    service = _TruncatingService(node, MSG_QUERY_MERKLE_BLOCKS)
    bus = Bus(seed=5)
    bus.register("peer", service)
    diet = DietNode(FAST, WATCH_CAROL, BusTransport(bus, "client", "peer"))
    first = diet.update_chain()  # nothing indexed yet
    assert (first.verdicts, first.tip_height, diet.headers.tip) == ((), -1, None)

    service.cut = None
    diet.update_chain()
    tip, verified = diet.headers.tip, diet.highest_verified

    node.submit_transaction(payment(node, ALICE, [(CAROL.challenge, 6)]))
    mine_on(node, ALICE.public_key, seed=164)
    service.cut = MSG_QUERY_MERKLE_BLOCKS
    result = diet.update_chain()
    assert result.verdicts == ()
    assert result.tip_height == 3
    assert (diet.headers.tip, diet.highest_verified) == (tip, verified)

    service.cut = None  # the next honest answer is taken as usual
    assert [v.status for v in diet.update_chain().verdicts] == ["diet-verified"]


# -- differential: a diet window verdict agrees with full-node acceptance -------------


MUTATIONS = ("none", "flip-sig", "respend", "inflate", "overpay", "coinbase-version",
             "stray-marker", "dup-last", "no-input")


def _mutate(block: Block, mutation: str, spent) -> Block:
    coinbase, paid, *rest = block.transactions
    if mutation == "flip-sig":
        inp = paid.inputs[0]
        flipped = bytes([inp.signature[0] ^ 1]) + inp.signature[1:]
        paid = paid._replace(inputs=(inp._replace(signature=flipped),) + paid.inputs[1:])
    elif mutation == "respend":
        paid = _signed(ALICE, [i.prevout for i in paid.inputs] + [spent], paid.outputs)
    elif mutation == "inflate":
        outputs = (paid.outputs[0]._replace(value=paid.outputs[0].value + 1000),)
        paid = _signed(ALICE, [i.prevout for i in paid.inputs], outputs + paid.outputs[1:])
    elif mutation == "coinbase-version":
        coinbase = coinbase._replace(version=coinbase.version + 1)
    elif mutation == "stray-marker":
        paid = _signed(ALICE, [i.prevout for i in paid.inputs]
                       + [make_coinbase_input().prevout], paid.outputs)
    txs = (coinbase, paid, *rest)
    if mutation == "dup-last":
        txs += txs[-1:]
    elif mutation == "no-input":
        txs += (Transaction(version=0, inputs=(), outputs=(
            TxOutput(value=0, kind=KIND_PAYMENT, payload=CAROL.challenge),)),)
    return block._replace(transactions=txs)


@pytest.mark.parametrize("mutation", MUTATIONS)
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(initial_k=st.integers(0, 2), cap=st.sampled_from([160, 400, 1024]),
       spends=st.lists(st.integers(0, 2), min_size=1, max_size=4),
       extra=st.booleans(), seed=st.integers(0, 1 << 16))
def test_diet_window_verdict_agrees_with_full_node(mutation, initial_k, cap, spends, extra,
                                                   seed):
    params = ChainParams(target_bits=5, subsidy=50, size_cap=cap, initial_k=initial_k)
    honest = mined_node(params, ALICE, 1, seed=seed)
    spends[0] = max(spends[0], 1)  # leave a spent coin behind to re-spend
    spent = []
    for i, count in enumerate(spends):
        for coin in coins_owned(honest, ALICE)[:count]:
            honest.submit_transaction(_pay(coin, BOB.challenge, 3))
            spent.append(coin.outpoint)
        mine_on(honest, ALICE.public_key, seed=seed + 1 + i)
    lenient = _lenient_copy(honest)

    coins = coins_owned(honest, ALICE)
    txs = [_pay(coins[0], CAROL.challenge, 5)] + ([_pay(coins[1], BOB.challenge, 4)]
                                                  if extra else [])
    block = _tip_block(lenient, txs, fees=len(txs), overpay=int(mutation == "overpay"),
                       seed=seed)
    block = _solved(_mutate(block, mutation, spent[0]), seed)
    height = block.header.height
    if mutation in ("respend", "stray-marker", "dup-last") \
            or not lenient.connect_block(block).accepted:
        lenient.plant(block)

    full = honest.connect_block(block)
    verdicts = _tip_verdicts(_wire(lenient, WATCH_CAROL), height)
    if full.accepted:
        assert mutation == "none"
        assert verdicts == {("diet-verified", None, None)}
    else:
        assert verdicts == {("rejected", full.reason, height)}, mutation


# -- a block that skips a due split ------------------------------------------------

SPLITTING_AT_256 = ChainParams(target_bits=5, subsidy=50, size_cap=256, initial_k=2)


def _unsplit_chain() -> FullNode:
    """A chain whose miner never splits (its ``size_cap`` is huge): three
    blocks above height 1, each paying Alice 2 three times and Carol 1."""
    lenient = mined_node(dataclasses.replace(SPLITTING_AT_256, size_cap=10**9), ALICE, 2,
                         seed=44)
    for i in range(3):
        lenient.submit_transaction(
            payment(lenient, ALICE, [(ALICE.challenge, 2)] * 3 + [(CAROL.challenge, 1)]))
        mine_on(lenient, ALICE.public_key, seed=244 + i)
    return lenient


def test_a_full_node_rejects_a_block_that_skips_a_due_split():
    lenient = _unsplit_chain()
    honest = FullNode(SPLITTING_AT_256)
    results = [honest.connect_block(lenient.blocks[hh]) for hh in lenient.headers.active_chain()]
    assert [(r.status, r.reason, r.height) for r in results[2:]] == \
        [("accepted", None, 2), ("accepted", None, 3), ("rejected", "root-mismatch", 4)]


@pytest.mark.xfail(strict=True, reason="a diet node holds only the served shards, so it "
                   "cannot run the split rule while the split is a consensus rule")
def test_a_diet_node_rejects_a_block_that_skips_a_due_split():
    """The diet node, with the honest params and a window of 3, must reject
    height 4 as the honest full node does; today it verifies it."""
    bus = Bus()
    bus.register("peer", FullNodeService(_unsplit_chain()))
    diet = DietNode(SPLITTING_AT_256,
                    DietConfig(keys=(CAROL.public_key,), max_depth=3, max_length=3),
                    BusTransport(bus, "client", "peer"))
    verdicts = diet.update_chain().verdicts
    assert {(v.status, v.fail_height) for v in verdicts if v.height == 4} == {("rejected", 4)}
