from __future__ import annotations

import dataclasses
import functools
import struct

import pytest
from conftest import (
    FAST,
    byte_edit,
    coins_owned,
    key_of,
    leaves_before,
    mined_node,
    payment,
    split_chain,
    store_state,
    utxos_siblings_at,
)
from hypothesis import given, settings, strategies as st

from dietchain import utxo
from dietchain.chain import (
    COIN_SIZE,
    Block,
    ChainParams,
    KIND_COMMITMENT,
    KIND_PAYMENT,
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
    block_hash,
    encode_block,
    make_coinbase_input,
    sighash,
    txid,
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
from dietchain.merkle import trie_leaf, trie_walk
from dietchain.miner import (
    BlockTemplate,
    assemble_block,
    mine_on,
    solve_pow,
    template_on,
)
from dietchain.netsim import (
    MSG_BLOCK,
    MSG_MERKLE_BLOCKS,
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
from dietchain.utxo import MAX_DEPTH, Coin, Shard, coins_of, encode_shard_coins, shard_key

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


@pytest.mark.parametrize("diet_enabled, status", [(True, "diet-verified"), (False, "spv-only")])
def test_the_genesis_reward_needs_no_window(diet_enabled, status):
    """The genesis is the trust anchor, at ``highest_verified`` from the
    start: a diet client watching its reward key gets that coinbase
    verified with no window and no state download; an SPV client gets
    it ``spv-only``."""
    node = mined_node(FAST, ALICE, 1, seed=39)
    for seed in (139, 239):
        mine_on(node, BOB.public_key, seed=seed)
    diet = _wire(node, DietConfig(keys=(ALICE.public_key,), diet_enabled=diet_enabled))
    result = diet.update_chain()
    assert [(v.height, v.status, v.reason, v.fail_height, v.first, v.last)
            for v in result.verdicts] == [(0, status, None, None, None, None)]
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


def _leaf(tx_id: bytes, leaves) -> int:
    """The leaf of ``leaves`` on the txid's path."""
    return next(i for d in range(MAX_DEPTH + 1)
                if (i := 1 << d | shard_key(tx_id, d)) in leaves)


@functools.lru_cache(maxsize=None)
def _split_chain() -> FullNode:
    """``conftest.split_chain``, built once: window steps only read it."""
    return split_chain()


def _step_start(node: FullNode, height: int) -> tuple[bytes, list[Coin]]:
    """What a window step at ``height`` starts from: the root and the
    reward coins of the block below."""
    below = node.blocks[node.headers.active_hash_at(height - 1)]
    return commitment_of(below), coins_of(below.transactions[0])


def _stepped_closes(monkeypatch, node: FullNode) -> dict:
    """Chain ``window_step`` over every block of ``node``'s chain on the
    answers it serves, from the genesis block's root and reward coins.
    Returns, by height, what closing the step's view did (the leaves the
    body edited, the splits, the ``encode_shard_coins`` calls the close
    made), the served leaf ids, the sibling count and the root the step
    derived."""
    closes = {}
    close = utxo.ShardView.close
    packed = []
    encode = utxo.encode_shard_coins

    def counting_encode(coins):
        packed.append(len(coins))
        return encode(coins)

    def recording(view, size_cap):
        edited = set(view.edited)
        packed.clear()
        monkeypatch.setattr(utxo, "encode_shard_coins", counting_encode)
        try:
            leaves = close(view, size_cap)
        finally:
            monkeypatch.setattr(utxo, "encode_shard_coins", encode)
        closes[view.height] = (edited, list(view.splits), len(packed))
        return leaves

    monkeypatch.setattr(utxo.ShardView, "close", recording)
    trusted, pending = _step_start(node, 1)
    for block_hash in node.headers.active_chain()[1:]:
        block, answer = node.blocks[block_hash], node.serve_query_utxos(block_hash)
        trusted, pending = window_step(node.params, trusted, pending, block, answer)
        height = block.header.height
        closes[height] += (set(answer.shards), len(answer.siblings), trusted)
    return closes


def test_the_diet_replay_edits_exactly_the_shards_served(monkeypatch):
    """The replay of an honest block edits every leaf the node served for
    it and no other, split block or not, so re-hashing the served paths
    after the edits costs no leaf the block did not change: on a chain
    with six blocks that split, no answer serves the whole set."""
    node = _split_chain()
    replayed = _stepped_closes(monkeypatch, node)
    assert sorted(replayed) == list(range(1, node.tip_height + 1))
    splits = {h for h in replayed if node.utxo.touched_log[h].rebalanced}
    assert len(splits) >= 3 and len(splits) < len(replayed)
    for height, (edited, split, _, served, _, root) in replayed.items():
        assert root == commitment_of(node.blocks[node.headers.active_hash_at(height)])
        assert edited == served == set(node.utxo.versions[height])
        assert bool(split) == (height in splits)
        leaves = leaves_before(node.utxo, height)
        assert served < leaves or leaves == {1}  # one leaf: the whole set


def test_a_split_in_a_window_packs_only_the_shards_the_block_edited(monkeypatch):
    """A split cuts each edited leaf into runs and slices its bytes, so
    closing a window's split block packs each leaf the body edited once
    and no other: not the children it splits into, and no leaf it was
    not served."""
    params = ChainParams(target_bits=5, subsidy=50, size_cap=256, initial_k=2)
    node = mined_node(params, ALICE, 2, seed=46)
    for i in range(8):
        node.submit_transaction(payment(node, ALICE, [(ALICE.challenge, 2)] * 6
                                        + [(CAROL.challenge, 3)]))
        mine_on(node, ALICE.public_key, seed=246 + i)
    closes = _stepped_closes(monkeypatch, node)
    assert sorted(closes) == list(range(1, node.tip_height + 1))
    splits = [h for h, (_, split, *_) in closes.items() if split]
    assert splits
    for height, (edited, split, packs, served, _, root) in closes.items():
        assert packs == len(edited) and edited == served
        if height in splits:
            assert len(served) < len(leaves_before(node.utxo, height))  # some leaves not served
        assert root == commitment_of(node.blocks[node.headers.active_hash_at(height)])


def test_a_window_verifies_a_block_that_splits_by_two_bits(monkeypatch):
    """A block that adds enough coins to one leaf splits it and then one
    of its children, and so on; the diet node verifies it and derives the
    root the full node committed."""
    params = ChainParams(target_bits=5, subsidy=50, size_cap=256, initial_k=1)
    node = mined_node(params, ALICE, 2, seed=47)
    node.submit_transaction(payment(node, ALICE, [(ALICE.challenge, 1)] * 12
                                    + [(CAROL.challenge, 3)]))
    mine_on(node, ALICE.public_key, seed=247)
    split = [idx for idx, *_ in node.utxo.touched_log[node.tip_height].splits]
    assert any(idx >> 1 in split for idx in split)  # a split leaf's child split again
    _, step_splits, *_, root = _stepped_closes(monkeypatch, node)[node.tip_height]
    assert [idx for idx, *_ in step_splits] == split
    assert root == commitment_of(node.blocks[node.tip_hash]) == node.utxo.current_root


def test_a_tx_over_the_cap_splits_its_path_down_to_depth_32():
    """Outputs of one tx share a txid, so no split parts them: a payment
    whose outputs alone exceed the cap splits its leaf down to depth 32
    and stops there, one leaf over the cap, and a follower and a diet
    node's window steps reach every root the miner committed."""
    params = ChainParams(target_bits=5, subsidy=50, size_cap=256, initial_k=0)
    node = mined_node(params, ALICE, 2, seed=50)
    paid = payment(node, ALICE, [(CAROL.challenge, 1)] * 4)
    node.submit_transaction(paid)
    mine_on(node, ALICE.public_key, seed=250)
    mine_on(node, ALICE.public_key, seed=251)
    deep = _leaf(txid(paid), node.utxo.shards)
    assert deep >> MAX_DEPTH == 1 and deep == 1 << 32 | shard_key(txid(paid), 32)
    assert node.utxo.shards[deep] == coins_of(paid) and 5 * COIN_SIZE > params.size_cap
    assert max(node.utxo.shards) < 2 << MAX_DEPTH
    record = node.utxo.touched_log[node.tip_height - 1]
    assert [idx for idx, *_ in record.splits] == [deep >> up for up in range(32, 0, -1)]
    follower = FullNode(params)
    for hh in node.headers.active_chain():
        assert follower.connect_block(node.blocks[hh]).accepted
    assert store_state(follower.utxo) == store_state(node.utxo)
    trusted, pending = _step_start(node, 1)
    for hh in node.headers.active_chain()[1:]:
        trusted, pending = window_step(params, trusted, pending, node.blocks[hh],
                                       node.serve_query_utxos(hh))
        assert trusted == commitment_of(node.blocks[hh])
    diet = _wire(node, DietConfig(keys=(CAROL.public_key,), max_depth=3, max_length=3))
    assert [v.status for v in diet.update_chain().verdicts] == ["diet-verified"]


class _ExtraSiblingService(FullNodeService):
    """Appends one sibling, which the served leaves do not need, to the
    proof of every block that split a leaf."""

    def handle_query(self, msg_type, payload):
        response = super().handle_query(msg_type, payload)
        if msg_type != MSG_QUERY_UTXOS:
            return response
        height = self.node.blocks[payload].header.height
        if not self.node.utxo.touched_log[height].rebalanced:
            return response
        resp = self.node.serve_query_utxos(payload)
        return encode_utxos_response(dataclasses.replace(
            resp, siblings=resp.siblings + (hash256(b"extra"),)))


def test_a_window_across_a_split_rejects_an_extra_sibling():
    """A split block is proved as any block is, by the leaves it edited
    and the siblings their paths need; one sibling more is left unread,
    and the window is rejected at the split."""
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
        before = (list(pending), encode_block(block), dict(answer.shards), answer.siblings)
        trusted, after = window_step(node.params, trusted, pending, block, answer)
        assert (list(pending), encode_block(block), dict(answer.shards), answer.siblings) == before
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
        # A planted block: prove every leaf of the state it sits on.
        return UtxosResponse(*self.utxo.state_before(height, set(self.utxo.shards)))


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
    assert (miner.utxo.k, len(served.shards[1].coins)) == (0, 0x10000)
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
    idx = _leaf(coin.outpoint.txid, store.shards)
    store.shards[idx] = sorted(store.shards[idx] + [coin])
    store._nodes.update(trie_walk({idx: trie_leaf(encode_shard_coins(store.shards[idx]))},
                                  store._nodes.get))
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
            parts += [struct.pack("<QI", idx, len(encoded) // COIN_SIZE), encoded]
        parts += [struct.pack("<H", len(resp.siblings)), *resp.siblings]
        return b"".join(parts)


class _RewritingService(FullNodeService):
    """Answers one query about the block at ``height`` otherwise than an
    honest node: as ``case`` says, a ``query_utxos`` answer loses an
    edited leaf or gains an unedited one (proved with the leaves it then
    holds), serves a leaf at its parent's id, loses a sibling, gains one
    at the end, serves one more leaf below a served one (outside the
    trie) or serves a leaf the block leaves alone in place of all it
    edited, or a ``query_block`` answer is the block below."""

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
        held = set(resp.shards)
        unedited = leaves_before(self.node.utxo, self.height) - held
        if self.case in ("drop-shard", "extra-shard", "no-shard"):
            if self.case == "drop-shard":
                held.remove(max(held))
            elif self.case == "extra-shard":
                held.add(min(unedited))
            else:
                held = {min(unedited)}
            return encode_utxos_response(UtxosResponse(
                *self.node.utxo.state_before(self.height, held)))
        shards, siblings = dict(resp.shards), resp.siblings
        if self.case == "size":  # the trie's shape: a leaf one level up
            shards[max(held) >> 1] = shards.pop(max(held))
        elif self.case == "drop-sibling":
            siblings = siblings[1:]
        elif self.case == "extra-sibling":
            siblings = siblings + (hash256(b"extra"),)
        else:  # "outside": below a leaf, where the trie has no node
            shards[2 * max(held)] = Shard(b"")
        return encode_utxos_response(UtxosResponse(shards=shards, siblings=siblings))


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
    """A served leaf the block leaves alone keeps its hash in the root
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
    assert 2 <= len(served.shards) < len(node.utxo.shards) and served.siblings
    bus = Bus(seed=8)
    bus.register("peer", _RewritingService(node, height, case))
    diet = DietNode(FAST, WATCH_CAROL, BusTransport(bus, "client", "peer"))
    first, second = diet.update_chain().verdicts
    return first, second, height


LIES = ("drop-shard", "extra-shard", "other-height", "other-block", "drop-sibling",
        "add-sibling", "swap-siblings", "replace-sibling", "flip-coin", "drop-coin",
        "no-shard", "outside", "ancestor", "parent-id")


def _differing_pairs(siblings) -> list[tuple[int, int]]:
    return [(i, j) for i in range(len(siblings)) for j in range(i + 1, len(siblings))
            if siblings[i] != siblings[j]]


def _lie_fits(lie: str, node: FullNode, height: int, answer: UtxosResponse) -> bool:
    """Whether ``lie`` can be told about ``answer``: a leaf to drop
    while one stays, an unserved one to add, a sibling to drop or
    replace, two different ones to swap, a coin to flip or drop, a
    served leaf below the root to serve at or beside its parent's id."""
    siblings = answer.siblings
    return {"drop-shard": len(answer.shards) > 1,
            "extra-shard": len(answer.shards) < len(leaves_before(node.utxo, height)),
            "drop-sibling": bool(siblings), "replace-sibling": bool(siblings),
            "swap-siblings": bool(_differing_pairs(siblings)),
            "flip-coin": any(s.encoded for s in answer.shards.values()),
            "drop-coin": any(s.encoded for s in answer.shards.values()),
            "ancestor": max(answer.shards) > 1, "parent-id": max(answer.shards) > 1,
            }.get(lie, True)


def _lie(node: FullNode, height: int, lie: str, draw) -> tuple[Block, UtxosResponse]:
    """The block at ``height`` and the node's answer for it, one of them
    rewritten as ``lie`` says, with ``draw`` picking where. An edited
    leaf is left out (``drop-shard``), an unedited one served with its
    proof (``extra-shard``), a served leaf's parent served too
    (``ancestor``) or in its place (``parent-id``), a leaf served at id 0
    or below depth 32 (``outside``), or only leaves the block leaves
    alone (``no-shard``)."""
    block_hash = node.headers.active_hash_at(height)
    block, answer = node.blocks[block_hash], node.serve_query_utxos(block_hash)
    shards, siblings = dict(answer.shards), list(answer.siblings)
    other = node.headers.active_hash_at(
        draw(st.sampled_from([h for h in range(1, node.tip_height + 1) if h != height])))
    unedited = sorted(leaves_before(node.utxo, height) - set(shards))
    if lie in ("drop-shard", "extra-shard", "no-shard"):
        held = set(shards)
        if lie == "drop-shard":
            held.remove(draw(st.sampled_from(sorted(held))))
        elif lie == "extra-shard":
            held.add(draw(st.sampled_from(unedited)))
        else:
            held = {draw(st.sampled_from(unedited))} if unedited else set()
        if not held:
            return block, UtxosResponse(shards={}, siblings=())
        return block, UtxosResponse(*node.utxo.state_before(height, held))
    if lie == "other-height":
        return block, node.serve_query_utxos(other)
    if lie == "other-block":
        return node.blocks[other], answer
    if lie == "drop-sibling":
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
    elif lie in ("ancestor", "parent-id"):
        idx = draw(st.sampled_from(sorted(i for i in shards if i > 1)))
        shard = shards.pop(idx) if lie == "parent-id" else shards[idx]
        shards[idx >> draw(st.integers(1, idx.bit_length() - 1))
               if lie == "ancestor" else idx >> 1] = shard
    else:  # "outside"
        shards[draw(st.sampled_from([0, 2 << MAX_DEPTH, (2 << MAX_DEPTH) + 5]))] = Shard(b"")
    return block, UtxosResponse(shards=shards, siblings=tuple(siblings))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_lying_answer_is_a_verdict_at_its_block_or_changes_nothing(data):
    """A step told one lie about a block of a chain whose blocks split
    leaves, from the honest root and reward coins below it, raises a
    ``ValidationError`` at the height of the block it was handed, or,
    for an unedited leaf served with its proof, returns what the honest
    answer gives; it never raises anything else."""
    node = _split_chain()
    lie = data.draw(st.sampled_from(LIES))
    height = data.draw(st.sampled_from(
        [h for h in range(1, node.tip_height + 1)
         if _lie_fits(lie, node, h, node.serve_query_utxos(node.headers.active_hash_at(h)))]))
    block, answer = _lie(node, height, lie, data.draw)
    try:
        result = window_step(node.params, *_step_start(node, height), block, answer)
    except ValidationError as exc:
        assert lie != "extra-shard"
        assert exc.height == block.header.height
        if lie != "other-block":
            assert exc.code == "shard-proof-mismatch"
    else:
        assert lie == "extra-shard"
        assert result == (commitment_of(block), coins_of(block.transactions[0]))


class _LoggingService(FullNodeService):
    """A full node's service that logs each query it answers."""

    def __init__(self, node: FullNode, log: list):
        super().__init__(node)
        self.log = log

    def handle_query(self, msg_type, payload):
        self.log.append((msg_type, payload))
        return super().handle_query(msg_type, payload)


def _sync_split_chain(transforms=None):
    """One update of a diet client watching Carol over the whole split
    chain, its window as long as the chain, through ``transforms``; its
    verdicts and the queries the peer answered."""
    node, log = _split_chain(), []
    bus = Bus(seed=48)
    bus.register("peer", _LoggingService(node, log))
    if transforms:
        bus.attach_adversary(Adversary(victim="client", transforms=transforms))
    config = DietConfig(keys=(CAROL.public_key,), max_depth=node.tip_height,
                        max_length=node.tip_height)
    return DietNode(node.params, config, BusTransport(bus, "client", "peer")).update_chain(), log


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), msg_type=st.sampled_from([MSG_UTXOS, MSG_BLOCK, MSG_MERKLE_BLOCKS]))
def test_a_mutated_answer_is_a_verdict_or_changes_nothing(data, msg_type):
    """One answer of a peer, a ``utxos``, ``block`` or ``merkle_blocks``
    answer of a sync over the split chain, with its bytes mutated: the
    sync raises nothing. A mutated window answer turns verdicts into
    ``rejected`` at the height it answers for, at least one if its bytes
    changed, and leaves every other status as the honest sync gives it
    (a later window may start lower); a mutated ``merkle_blocks`` answer
    verifies no payment the honest sync does not."""
    honest, log = _sync_split_chain()
    answers = [payload for kind, payload in log if kind + 1 == msg_type]
    nth = data.draw(st.integers(0, len(answers) - 1))
    seen, mutated = [], []

    def mutate(answer: bytes) -> bytes:
        seen.append(answer)
        if len(seen) - 1 != nth:
            return answer
        mutated.append(byte_edit(answer, data.draw))
        return mutated[0]

    result, _ = _sync_split_chain({msg_type: mutate})
    assert mutated
    if msg_type == MSG_MERKLE_BLOCKS:
        verified = {(v.tx_id, v.height) for v in honest.verdicts if v.status == "diet-verified"}
        assert {(v.tx_id, v.height) for v in result.verdicts
                if v.status == "diet-verified"} <= verified
        return
    height = _split_chain().blocks[answers[nth]].header.height
    assert [(v.tx_id, v.height) for v in result.verdicts] == \
        [(v.tx_id, v.height) for v in honest.verdicts]
    changed = [v for v, h in zip(result.verdicts, honest.verdicts) if v.status != h.status]
    assert all((v.status, v.fail_height) == ("rejected", height) for v in changed)
    assert bool(changed) == (mutated[0] != seen[nth])


def test_a_shard_count_overrunning_the_answer_is_a_peer_fault():
    """A peer that frames its first shard with a coin count past the
    end of its answer gets ``peer-fault`` at the block asked about."""
    node = mined_node(FAST, ALICE, 4, seed=66)
    node.submit_transaction(payment(node, ALICE, [(CAROL.challenge, 6)]))
    mine_on(node, ALICE.public_key, seed=166)
    bus = Bus(seed=7)
    bus.register("peer", FullNodeService(node))
    bus.attach_adversary(Adversary(victim="client", transforms={
        MSG_UTXOS: lambda data: data[:10] + struct.pack("<I", 0xFFFFFFFF) + data[14:]}))
    diet = DietNode(FAST, WATCH_CAROL, BusTransport(bus, "client", "peer"))
    (verdict,) = diet.update_chain().verdicts
    assert (verdict.status, verdict.reason) == ("rejected", "peer-fault")
    assert verdict.fail_height == verdict.first + 1


def test_a_utxos_tree_of_zero_leaves_is_a_peer_fault():
    """A peer whose ``utxos`` answer serves no leaf, with the siblings it
    had, gets ``peer-fault`` at the block asked about: a block always
    edits the leaf of its parent's reward coins, so such an answer never
    decodes."""
    node = mined_node(FAST, ALICE, 4, seed=66)
    node.submit_transaction(payment(node, ALICE, [(CAROL.challenge, 6)]))
    mine_on(node, ALICE.public_key, seed=166)

    def no_leaves(data: bytes) -> bytes:
        assert decode_utxos_response(data).shards
        return struct.pack("<H", 0) + data[utxos_siblings_at(data):]

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
             "stray-marker", "dup-last", "no-input", "miscount")


def _miscounted(node: FullNode, block: Block) -> Block:
    """``block``, for the node's tip, with a coinbase that commits the
    trie root after its body with one coin too many in a leaf it edited."""
    store = node.utxo
    store.apply_body(block.transactions[1:], block.header.height)
    assert store.current_root == commitment_of(block)
    idx = max(store.versions[block.header.height])
    idx = max(i for i in store.shards if i >> max(i.bit_length() - idx.bit_length(), 0) == idx)
    extra = Coin(OutPoint(bytes(32), 0), 1, bytes(32))
    miscounted = trie_walk({idx: trie_leaf(encode_shard_coins([*store.shards[idx], extra]))},
                           store._nodes.get)[1]
    store.undo_block()
    coinbase = block.transactions[0]
    outputs = tuple(out._replace(payload=miscounted)
                    if out.kind == KIND_COMMITMENT else out for out in coinbase.outputs)
    return block._replace(transactions=(coinbase._replace(outputs=outputs),
                                        *block.transactions[1:]))


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
    if mutation == "miscount":
        block = _miscounted(lenient, block)
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
        if mutation == "miscount":
            assert full.reason == "root-mismatch"


def _body_shards(node: FullNode, height: int) -> set[int]:
    """The leaves a window step's body reads at ``height``, in the trie
    the block is proved in: those of the reward coins it places first,
    of the coins it spends and of the coins it creates."""
    block = node.blocks[node.headers.active_hash_at(height)]
    leaves = leaves_before(node.utxo, height)
    pending = coins_of(node.blocks[node.headers.active_hash_at(height - 1)].transactions[0])
    body = block.transactions[1:]
    return {_leaf(tid, leaves) for tid in [
        *(coin.outpoint.txid for coin in pending),
        *(inp.prevout.txid for tx in body for inp in tx.inputs),
        *(coin.outpoint.txid for tx in body for coin in coins_of(tx))]}


def test_a_split_step_is_served_exactly_the_shards_its_body_reads():
    """A split block is served the leaves it edited, which are the leaves
    its body reads: its step derives the root the full node committed
    from them."""
    node = _split_chain()
    splits = [h for h, record in node.utxo.touched_log.items() if h and record.rebalanced]
    assert splits
    for height in splits:
        block_hash = node.headers.active_hash_at(height)
        answer = decode_utxos_response(encode_utxos_response(node.serve_query_utxos(block_hash)))
        assert set(answer.shards) == set(node.utxo.versions[height])
        root, _ = window_step(node.params, *_step_start(node, height), node.blocks[block_hash],
                              answer)
        assert root == commitment_of(node.blocks[block_hash])
        assert _body_shards(node, height) == set(answer.shards) == set(node.utxo.versions[height])


class _UnreadShardService(FullNodeService):
    """Serves the answer for the block at ``height`` with leaf ``idx``,
    one the block leaves alone, and its proof added, its bytes replaced
    by ``data``."""

    def __init__(self, node: FullNode, height: int, idx: int, data: bytes):
        super().__init__(node)
        self.target = node.headers.active_hash_at(height)
        self.height, self.idx, self.data = height, idx, data

    def handle_query(self, msg_type, payload):
        if msg_type != MSG_QUERY_UTXOS or payload != self.target:
            return super().handle_query(msg_type, payload)
        held = set(self.node.serve_query_utxos(payload).shards) | {self.idx}
        shards, siblings = self.node.utxo.state_before(self.height, held)
        return encode_utxos_response(UtxosResponse(
            shards={**shards, self.idx: Shard(self.data)}, siblings=siblings))


@pytest.mark.parametrize("lie, reason", [("value", "shard-proof-mismatch"),
                                         ("order", "peer-fault")])
def test_a_lie_in_a_shard_the_split_step_never_reads_is_a_verdict(lie, reason, monkeypatch):
    """A split block's answer that serves one more leaf, which the body
    never reads, with a coin's value changed or two coins swapped, is
    rejected at that block: the changed bytes miss their leaf hash, and
    the swapped ones do not decode, and neither is ever unpacked into
    coins."""
    node = _split_chain()
    height = max(h for h, record in node.utxo.touched_log.items() if record.rebalanced)
    honest = node.serve_query_utxos(node.headers.active_hash_at(height))
    idx = min(i for i in leaves_before(node.utxo, height) - set(honest.shards)
              if len(node.utxo.state_before(height, {i})[0][i].encoded) >= 2 * COIN_SIZE)
    data = bytearray(node.utxo.state_before(height, {idx})[0][idx].encoded)
    if lie == "value":
        data[36:44] = struct.pack("<Q", struct.unpack_from("<Q", data, 36)[0] + 1)
    else:
        data[:2 * COIN_SIZE] = data[COIN_SIZE:2 * COIN_SIZE] + data[:COIN_SIZE]
    unpacked = []
    coins = Shard.coins.fget

    def recording_coins(shard: Shard):
        unpacked.append(shard.encoded)
        return coins(shard)

    monkeypatch.setattr(Shard, "coins", property(recording_coins))
    bus = Bus(seed=10)
    bus.register("peer", _UnreadShardService(node, height, idx, bytes(data)))
    diet = DietNode(node.params, DietConfig(keys=(CAROL.public_key,), max_depth=node.tip_height,
                                            max_length=1), BusTransport(bus, "client", "peer"))
    verdicts = {v.height: v for v in diet.update_chain().verdicts}
    assert (verdicts[height - 1].status, verdicts[height].status) == ("diet-verified", "rejected")
    assert (verdicts[height].reason, verdicts[height].fail_height) == (reason, height)
    assert unpacked and bytes(data) not in unpacked


# -- a block that skips a due split ------------------------------------------------

SPLITTING_AT_256 = ChainParams(target_bits=5, subsidy=50, size_cap=256, initial_k=2)


def _unsplit_chain() -> FullNode:
    """A chain whose miner never splits (its ``size_cap`` is huge): three
    blocks above height 1, each paying Alice 2 and Carol 1; at cap 256
    the block at height 4 fills a leaf past it."""
    lenient = mined_node(dataclasses.replace(SPLITTING_AT_256, size_cap=10**9), ALICE, 2,
                         seed=44)
    for i in range(3):
        lenient.submit_transaction(
            payment(lenient, ALICE, [(ALICE.challenge, 2), (CAROL.challenge, 1)]))
        mine_on(lenient, ALICE.public_key, seed=244 + i)
    return lenient


def test_a_full_node_rejects_a_block_that_skips_a_due_split():
    lenient = _unsplit_chain()
    honest = FullNode(SPLITTING_AT_256)
    results = [honest.connect_block(lenient.blocks[hh]) for hh in lenient.headers.active_chain()]
    assert [(r.status, r.reason, r.height) for r in results[2:]] == \
        [("accepted", None, 2), ("accepted", None, 3), ("rejected", "root-mismatch", 4)]


def test_a_diet_node_rejects_a_block_that_skips_a_due_split():
    """The diet node, with the honest params and a window of 3, rejects
    height 4 as the honest full node does: the leaf the block fills past
    the cap is one it edited, so the split is due in a view of only the
    served leaves."""
    bus = Bus()
    bus.register("peer", FullNodeService(_unsplit_chain()))
    diet = DietNode(SPLITTING_AT_256,
                    DietConfig(keys=(CAROL.public_key,), max_depth=3, max_length=3),
                    BusTransport(bus, "client", "peer"))
    verdicts = diet.update_chain().verdicts
    assert {(v.status, v.fail_height) for v in verdicts if v.height == 4} == {("rejected", 4)}
