from __future__ import annotations

import bisect
import copy
import dataclasses
import functools
import hashlib
import random
import struct
from unittest import mock

import pytest
from conftest import leaves_before, served_root, store_state
from hypothesis import assume, given, settings, strategies as st

from dietchain.chain import (
    KIND_COMMITMENT,
    KIND_PAYMENT,
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
    ZERO32,
    make_coinbase_input,
    txid,
)
from dietchain.errors import HistoryUnavailableError, InconsistentStateError
from dietchain.miner import BlockTemplate, mine_block
from dietchain.utxo import (
    COIN_SIZE,
    HISTORY_HORIZON,
    MAX_DEPTH,
    Coin,
    Shard,
    ShardView,
    VersionedShardStore,
    coins_of,
    decode_shard,
    encode_shard_coins,
    shard_key,
)
from dietchain.chain import Block, BlockHeader


def _h(data: bytes) -> bytes:
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


def _coin_bytes(c: Coin) -> bytes:
    return c.outpoint.txid + struct.pack("<IQ", c.outpoint.index, c.value) + c.challenge


def _leaf_of(tx_id: bytes, leaves) -> int:
    """The leaf on the txid's path: node ``(1 << d) | (first d bits)``."""
    prefix = int.from_bytes(tx_id[:4], "big")
    return next(i for d in range(33) if (i := 1 << d | prefix >> (32 - d)) in leaves)


def _root_of(blobs: dict[int, bytes]) -> bytes:
    """The trie's root by its definition, from its leaves' bytes by id:
    a leaf hashes 0x00 and its bytes, an inner node 0x01 and its children."""
    def node(i: int) -> bytes:
        if i in blobs:
            return _h(b"\x00" + blobs[i])
        return _h(b"\x01" + node(2 * i) + node(2 * i + 1))
    return node(1)


def test_shard_key_takes_leading_bits_msb_first():
    tid = bytes([0xB3]) + bytes(31)
    assert shard_key(tid, 0) == 0
    assert shard_key(tid, 1) == 1          # 1011... -> first bit 1
    assert shard_key(tid, 4) == 0b1011     # 11
    assert shard_key(tid, 8) == 0xB3
    wide = bytes([0xB3, 0x51]) + bytes(30)
    assert shard_key(wide, 12) == (0xB351 >> 4)


def test_shard_key_partitions_everything():
    rng = random.Random(21)
    for k in (0, 1, 3, 7):
        for _ in range(50):
            key = shard_key(rng.randbytes(32), k)
            assert 0 <= key < (1 << k)


def test_coin_encoding_width_and_order():
    coin = Coin(outpoint=OutPoint(txid=b"\xAA" * 32, index=5), value=1000,
                challenge=b"\xBB" * 32)
    wire = encode_shard_coins([coin])
    assert len(wire) == COIN_SIZE == 76
    assert wire[:32] == b"\xAA" * 32
    assert wire[32:36] == struct.pack("<I", 5)
    assert wire[36:44] == struct.pack("<Q", 1000)
    assert wire[44:] == b"\xBB" * 32


def test_empty_shard_leaf_hash_is_hash_of_empty_string():
    """An empty shard's bytes are the empty string; its leaf hashes them
    behind the leaf prefix, and a trie of two empty leaves hashes the
    inner prefix and both."""
    assert encode_shard_coins([]) == b""
    assert Shard(b"").leaf_hash == _h(b"\x00")
    assert VersionedShardStore(initial_k=1).current_root == \
        _h(b"\x01" + _h(b"\x00") + _h(b"\x00"))
    assert VersionedShardStore(initial_k=0).current_root == _h(b"\x00")


def test_shard_decode_checks_sortedness():
    a = Coin(OutPoint(b"\x02" * 32, 0), 5, bytes(32))
    b = Coin(OutPoint(b"\x01" * 32, 0), 5, bytes(32))
    good = encode_shard_coins([b]) + encode_shard_coins([a])
    assert good == encode_shard_coins([b, a])
    assert decode_shard(good).coins == (b, a)
    bad = encode_shard_coins([a]) + encode_shard_coins([b])
    from dietchain.errors import DecodeError
    with pytest.raises(DecodeError, match="out of order"):
        decode_shard(bad)
    with pytest.raises(DecodeError, match="whole coins"):
        decode_shard(good[:-1])


# -- synthetic chain helpers ---------------------------------------------------

def _coinbase(height: int, n_outputs: int, rng: random.Random) -> Transaction:
    outputs = [TxOutput(value=50, kind=KIND_PAYMENT, payload=rng.randbytes(32))
               for _ in range(n_outputs)]
    outputs.append(TxOutput(value=0, kind=KIND_COMMITMENT, payload=bytes(32)))
    return Transaction(version=height, inputs=(make_coinbase_input(),),
                       outputs=tuple(outputs))


def _spend(coins: list[Coin], n_outputs: int, rng: random.Random) -> Transaction:
    inputs = tuple(TxInput(prevout=c.outpoint, public_key=rng.randbytes(33),
                           signature=rng.randbytes(64)) for c in coins)
    total = sum(c.value for c in coins)
    outputs = tuple(TxOutput(value=max(1, total // n_outputs), kind=KIND_PAYMENT,
                             payload=rng.randbytes(32)) for _ in range(n_outputs))
    return Transaction(version=rng.randrange(1 << 30), inputs=inputs, outputs=outputs)


def _block(height: int, txs: list[Transaction]) -> Block:
    header = BlockHeader(prev_hash=ZERO32, tx_mroot=ZERO32, target_bits=0,
                         nonce=0, height=height)
    return Block(header=header, transactions=tuple(txs))


class _FlatOracle:
    """Naive reference: a dict of live coins plus the not-yet-committed
    coinbase coins of the newest block, and the trie's leaf ids, split
    by the rule's definition: after a block, each leaf holding a coin it
    placed, spent or created, while over ``cap`` bytes and above depth
    32, gives way to its two children."""

    def __init__(self, initial_k: int = 0, cap: int = 1 << 30):
        self.committed: dict[OutPoint, Coin] = {}
        self.pending: list[Coin] = []
        self.leaves = set(range(1 << initial_k, 2 << initial_k))
        self.cap = cap

    def apply(self, block: Block) -> None:
        touched = [coin.outpoint.txid for coin in self.pending]
        for coin in self.pending:
            self.committed[coin.outpoint] = coin
        for tx in block.transactions[1:]:
            for inp in tx.inputs:
                touched.append(inp.prevout.txid)
                del self.committed[inp.prevout]
            for coin in coins_of(tx):
                touched.append(coin.outpoint.txid)
                self.committed[coin.outpoint] = coin
        self.pending = list(coins_of(block.transactions[0]))
        for leaf in {_leaf_of(tid, self.leaves) for tid in touched}:
            self._settle(leaf)

    def _settle(self, leaf: int) -> None:
        depth = leaf.bit_length() - 1
        held = [c for c in self.committed
                if 1 << depth | int.from_bytes(c.txid[:4], "big") >> (32 - depth) == leaf]
        if COIN_SIZE * len(held) > self.cap and leaf < 1 << 32:
            self.leaves.remove(leaf)
            self.leaves |= {2 * leaf, 2 * leaf + 1}
            self._settle(2 * leaf)
            self._settle(2 * leaf + 1)

    def blobs(self) -> dict[int, bytes]:
        """The committed coins in their leaves, serialized, by leaf id."""
        buckets: dict[int, list[Coin]] = {i: [] for i in self.leaves}
        for coin in self.committed.values():
            buckets[_leaf_of(coin.outpoint.txid, self.leaves)].append(coin)
        return {i: b"".join(map(_coin_bytes, sorted(coins))) for i, coins in buckets.items()}

    def root(self) -> bytes:
        return _root_of(self.blobs())


def _random_history(rng: random.Random, n_blocks: int, cap: int = 1 << 30,
                    initial_k: int = 0):
    """Build a synthetic block list plus the store that applied it."""
    store = VersionedShardStore(initial_k=initial_k, size_cap=cap)
    blocks = []
    spendable: list[Coin] = []
    for h in range(n_blocks):
        txs = [_coinbase(h, rng.randrange(1, 4), rng)]
        rng.shuffle(spendable)
        n_spends = rng.randrange(0, min(3, len(spendable)) + 1)
        for _ in range(n_spends):
            picked = [spendable.pop() for _ in range(rng.randrange(1, min(2, len(spendable)) + 1))] \
                if spendable else []
            if not picked:
                break
            tx = _spend(picked, rng.randrange(1, 4), rng)
            txs.append(tx)
        block = _block(h, txs)
        store.apply_block(block, h)
        blocks.append(block)
        for tx in txs[1:]:
            spendable.extend(coins_of(tx))
        spendable.extend(coins_of(txs[0]))
    return blocks, store


def test_store_matches_flat_oracle_over_random_history():
    rng = random.Random(22)
    blocks, store = _random_history(rng, 25, cap=400)
    oracle = _FlatOracle(cap=400)
    for block in blocks:
        oracle.apply(block)
    in_shards = [c for coins in store.shards.values() for c in coins]
    assert sorted(in_shards) == sorted(oracle.committed.values())
    assert sorted(store.pending) == sorted(oracle.pending)
    assert set(store.shards) == oracle.leaves and len(oracle.leaves) > 2
    assert store.current_root == oracle.root()


def test_pending_coins_are_spendable_but_uncommitted():
    rng = random.Random(23)
    store = VersionedShardStore(initial_k=2, size_cap=1 << 20)
    cb0 = _coinbase(0, 1, rng)
    store.apply_block(_block(0, [cb0]), 0)
    reward = coins_of(cb0)[0]
    # visible to spend lookups, absent from every shard
    assert store.open(store.next_height).get_coin(reward.outpoint) == reward
    assert all(reward not in coins for coins in store.shards.values())
    root_before = store.current_root

    spend = _spend([reward], 2, rng)
    store.apply_block(_block(1, [_coinbase(1, 1, rng), spend]), 1)
    # the reward was inserted then spent within block 1
    assert store.open(store.next_height).get_coin(reward.outpoint) is None
    assert store.current_root != root_before
    for coin in coins_of(spend):
        assert store.open(store.next_height).get_coin(coin.outpoint) == coin


def test_empty_block_root_moves_by_parent_coinbase():
    rng = random.Random(24)
    store = VersionedShardStore(initial_k=1, size_cap=1 << 20)
    store.apply_block(_block(0, [_coinbase(0, 2, rng)]), 0)
    root0 = store.current_root
    # an empty block still absorbs the parent's coinbase coins
    store.apply_block(_block(1, [_coinbase(1, 1, rng)]), 1)
    assert store.current_root != root0
    oracle = _FlatOracle(initial_k=1)
    # replay to confirm the only difference is the absorbed coinbase
    store2 = VersionedShardStore(initial_k=1, size_cap=1 << 20)
    cb = _coinbase(0, 2, rng)
    store2.apply_block(_block(0, [cb]), 0)
    oracle.apply(_block(0, [cb]))
    empty = _block(1, [_coinbase(1, 1, rng)])
    store2.apply_block(empty, 1)
    oracle.apply(empty)
    assert store2.current_root == oracle.root()


def test_missing_input_is_a_store_invariant_violation():
    rng = random.Random(25)
    store = VersionedShardStore(initial_k=0, size_cap=1 << 20)
    store.apply_block(_block(0, [_coinbase(0, 1, rng)]), 0)
    ghost = Coin(OutPoint(rng.randbytes(32), 0), 5, rng.randbytes(32))
    bad = _spend([ghost], 1, rng)
    with pytest.raises(InconsistentStateError):
        store.apply_block(_block(1, [_coinbase(1, 1, rng), bad]), 1)


def test_a_failed_application_leaves_the_store_as_it_was():
    """A body the store cannot apply (a ghost input after a real spend and
    a new coin) raises and changes nothing, so the next valid block commits
    the root a fresh store commits; ``mine_block`` on such a template
    leaves its store as it was too."""
    rng = random.Random(31)
    cb0, cb1 = _coinbase(0, 2, rng), _coinbase(1, 2, rng)
    ghost = Coin(OutPoint(rng.randbytes(32), 0), 5, rng.randbytes(32))
    spend = _spend(coins_of(cb0)[:1], 2, rng)
    stores = [VersionedShardStore(initial_k=1, size_cap=1 << 20) for _ in range(2)]
    for store in stores:
        store.apply_block(_block(0, [cb0]), 0)
        store.apply_block(_block(1, [cb1]), 1)
    store, fresh = stores
    before = store_state(store)
    bad = _block(2, [_coinbase(2, 1, rng), spend, _spend([ghost], 1, rng)])
    with pytest.raises(InconsistentStateError):
        store.apply_block(bad, 2)
    assert store_state(store) == before
    template = BlockTemplate(parent_hash=ZERO32, height=2, target_bits=0,
                             transactions=bad.transactions[1:],
                             reward_key=rng.randbytes(33), reward_value=50)
    with pytest.raises(InconsistentStateError):
        mine_block(template, store)
    assert store_state(store) == before

    good = _block(2, [_coinbase(2, 1, rng), spend])
    assert store.apply_block(good, 2) == fresh.apply_block(good, 2)
    assert store_state(store) == store_state(fresh)


def test_apply_requires_consecutive_heights():
    rng = random.Random(26)
    store = VersionedShardStore(initial_k=0, size_cap=1 << 20)
    store.apply_block(_block(0, [_coinbase(0, 1, rng)]), 0)
    with pytest.raises(InconsistentStateError):
        store.apply_block(_block(5, [_coinbase(5, 1, rng)]), 5)


def test_split_refines_shards_and_halves_averages():
    rng = random.Random(27)
    store = VersionedShardStore(initial_k=0, size_cap=256)
    spendable: list[Coin] = []
    for h in range(14):
        txs = [_coinbase(h, 1, rng)]
        if spendable:
            coin = spendable.pop(0)
            txs.append(_spend([coin], 3, rng))
        store.apply_block(_block(h, txs), h)
        for tx in txs[1:]:
            spendable.extend(coins_of(tx))
        spendable.extend(coins_of(txs[0]))
    assert store.rebalance_log, "growth never forced a split"
    assert store.k >= 3

    for step in store.rebalance_log:
        # a shard is its coins' bytes alone, so a split halves its leaf on average
        assert sum(step.bytes_after) / 2 == step.bytes_before / 2
        assert step.bytes_before > store.size_cap

    # every coin stays reachable under its leaf's txid bits
    for i, coins in store.shards.items():
        depth = i.bit_length() - 1
        for coin in coins:
            assert 1 << depth | shard_key(coin.outpoint.txid, depth) == i


def _settled(leaf: int, coins: list[Coin], cap: int) -> dict[int, list[Coin]]:
    """The split rule by definition on one leaf: over ``cap`` bytes and
    above depth 32, every coin goes to the child its next txid bit names,
    and each child settles in turn."""
    if COIN_SIZE * len(coins) <= cap or leaf >> MAX_DEPTH:
        return {leaf: coins}
    depth = leaf.bit_length()
    halves: dict[int, list[Coin]] = {2 * leaf: [], 2 * leaf + 1: []}
    for coin in coins:
        halves[2 * leaf | shard_key(coin.outpoint.txid, depth) & 1].append(coin)
    return {i: c for child, held in halves.items() for i, c in _settled(child, held, cap).items()}


def _complete(coins: list[Coin], k: int) -> dict[int, list[Coin]]:
    """``coins`` in the leaves of a complete trie of depth ``k``."""
    leaves: dict[int, list[Coin]] = {i: [] for i in range(1 << k, 2 << k)}
    for coin in coins:
        leaves[1 << k | shard_key(coin.outpoint.txid, k)].append(coin)
    return leaves


# txids whose first four bytes sit on, or one off, a boundary between shards
# of any depth up to 6; such a txid is where a misplaced cut would show
_TXIDS = st.builds(lambda m, delta, rest: (((m << 26) + delta) % 2**32).to_bytes(4, "big") + rest,
                   st.integers(0, 63), st.integers(-1, 1), st.binary(min_size=28, max_size=28))
_OUTPOINTS = st.tuples(_TXIDS, st.integers(0, 2))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(k=st.integers(0, 3), cap=st.sampled_from([COIN_SIZE, 2 * COIN_SIZE, 5 * COIN_SIZE]),
       outpoints=st.sets(_OUTPOINTS, max_size=40), added=st.sets(_OUTPOINTS, max_size=4),
       spent=st.sets(st.integers(0, 39), max_size=4), lump=st.none() | st.integers(0, 255))
def test_a_split_cuts_each_shard_as_rebucketing_every_coin_does(k, cap, outpoints, added,
                                                                spent, lump):
    """``ShardView.close`` splits each edited leaf over the cap into
    sorted runs and slices its coins and bytes; over leaves at depth
    ``k``, some edited (coins added or spent), it gives the leaves of
    putting every coin of an edited leaf in its child by definition,
    leaves the others as they are, and hashes each final leaf's own
    encoding once. ``lump`` gives every txid one first byte, so every
    coin lands in one leaf, which splits down to where its coins part."""
    if lump is not None:
        outpoints, added = ({(bytes([lump]) + tid[1:], n) for tid, n in drawn}
                            for drawn in (outpoints, added))
    coins = [Coin(OutPoint(tid, n), len(tid) + n, _h(tid)) for tid, n in sorted(outpoints)]
    shards = _complete(coins, k)
    view = ShardView(shards, [], 1)
    for tid, n in added - outpoints:
        view.insert(Coin(OutPoint(tid, n), n, bytes(32)))
    gone = [coins[i].outpoint for i in spent if i < len(coins)]
    if gone:
        view.absorb(Transaction(version=0, outputs=(), inputs=tuple(
            TxInput(prevout=o, public_key=bytes(33), signature=bytes(64)) for o in gone)))
    assume(view.edited)
    expected = {i: c for idx, edited in sorted(view.edited.items())
                for i, c in _settled(idx, edited, cap).items()}
    hashed = []

    def recording_leaf(data: bytes) -> bytes:
        hashed.append(data)
        return _h(b"\x00" + data)

    with mock.patch("dietchain.utxo.trie_leaf", recording_leaf):
        leaves = view.close(cap)
    assert {i: list(c) for i, c in view.leaves.items()} == expected
    assert leaves == {i: _h(b"\x00" + encode_shard_coins(c)) for i, c in expected.items()}
    assert sorted(hashed) == sorted(encode_shard_coins(c) for c in expected.values())

    def held(node: int) -> int:  # bytes in the final leaves at or below ``node``
        return COIN_SIZE * sum(len(c) for j, c in expected.items()
                               if j >> max(j.bit_length() - node.bit_length(), 0) == node)
    assert len(view.splits) == len(expected) - len(view.edited)
    assert view.splits == [(i, held(i), held(2 * i)) for i, *_ in view.splits]


def test_a_view_of_one_leaf_splits_it_alone():
    """The split rule reads only the leaves a block edited: a view
    holding one leaf of two, with another leaf nobody holds, splits the
    one it edits down to where its coins part, and needs nothing else."""
    held = [Coin(OutPoint(bytes(32), 0), 1, bytes(32))]
    view = ShardView({2: held}, [], 1)
    view.insert(Coin(OutPoint(bytes([0x20]) + bytes(31), 0), 1, bytes(32)))
    leaves = view.close(COIN_SIZE)
    # 0x00... and 0x20... part at their third bit: leaves 8 and 9, and 5 stays empty
    assert sorted(leaves) == [5, 8, 9] and [i for i, *_ in view.splits] == [2, 4]
    assert [len(view.leaves[i]) for i in (5, 8, 9)] == [0, 1, 1]


def test_average_never_exceeds_cap_after_application():
    """Every leaf is at most the cap after every block unless it sits at
    depth 32, so the average is too."""
    rng = random.Random(28)
    store = VersionedShardStore(initial_k=0, size_cap=200)
    spendable: list[Coin] = []
    for h in range(20):
        txs = [_coinbase(h, 2, rng)]
        if spendable:
            txs.append(_spend([spendable.pop(0)], 2, rng))
        store.apply_block(_block(h, txs), h)
        for tx in txs[1:]:
            spendable.extend(coins_of(tx))
        spendable.extend(coins_of(txs[0]))
        assert all(COIN_SIZE * len(coins) <= store.size_cap
                   for i, coins in store.shards.items() if not i >> MAX_DEPTH)
        assert store.total_shard_bytes() / len(store.shards) <= store.size_cap
    assert store.rebalance_log


def test_state_before_reconstructs_committed_history():
    rng = random.Random(29)
    blocks, store = _random_history(rng, 18, cap=400)
    replay = VersionedShardStore(initial_k=0, size_cap=400)
    roots = [replay.apply_block(block, h) for h, block in enumerate(blocks)]
    # replay the oracle, checking each height's reconstruction
    oracle = _FlatOracle(cap=400)
    for h, block in enumerate(blocks):
        oracle.apply(block)
        shards, siblings = store.state_before(h + 1, leaves_before(store, h + 1))
        assert {i: shard.encoded for i, shard in shards.items()} == oracle.blobs()
        assert siblings == ()  # every leaf: the walk needs no sibling
        assert oracle.root() == roots[h]
        assert served_root(shards, siblings) == roots[h]
    assert store.rebalance_log


def test_state_before_bounds():
    rng = random.Random(30)
    blocks, store = _random_history(rng, 5)
    with pytest.raises(HistoryUnavailableError):
        store.state_before(0, {1})
    with pytest.raises(HistoryUnavailableError):
        store.state_before(store.height + 2, {1})


def test_state_before_refuses_an_index_outside_the_tree():
    """Only a leaf of the state before the block is served: the root
    above a leaf, a child below it and no node at all are ValueErrors."""
    rng = random.Random(30)
    blocks, store = _random_history(rng, 5, cap=160)
    leaves = leaves_before(store, store.height)
    assert len(leaves) > 1
    leaf = max(leaves)
    store.state_before(store.height, {leaf})
    for idx in (1, leaf >> 1, 2 * leaf, 0):
        with pytest.raises(ValueError, match="no leaf"):
            store.state_before(store.height, {leaf, idx})


def test_rewind_matches_fresh_replay():
    rng = random.Random(31)
    blocks, store = _random_history(rng, 20, cap=500)
    target = 9
    store.rewind_to(target)

    fresh = VersionedShardStore(initial_k=0, size_cap=500)
    for h in range(target + 1):
        fresh.apply_block(blocks[h], h)

    assert store.k == fresh.k
    assert store.height == fresh.height == target
    assert store.current_root == fresh.current_root
    assert {i: sorted(c) for i, c in store.shards.items() if c} == \
           {i: sorted(c) for i, c in fresh.shards.items() if c}
    assert sorted(store.pending) == sorted(fresh.pending)
    assert store.touched_log == fresh.touched_log

    # the rewound store keeps working
    for h in range(target + 1, len(blocks)):
        store.apply_block(blocks[h], h)
        fresh.apply_block(blocks[h], h)
    assert store.current_root == fresh.current_root


def test_coins_of_skips_commitment_outputs():
    tx = Transaction(version=0, inputs=(make_coinbase_input(),), outputs=(
        TxOutput(value=50, kind=KIND_PAYMENT, payload=b"\x01" * 32),
        TxOutput(value=0, kind=KIND_COMMITMENT, payload=b"\x02" * 32),
        TxOutput(value=7, kind=KIND_PAYMENT, payload=b"\x03" * 32),
    ))
    coins = coins_of(tx)
    assert [c.outpoint.index for c in coins] == [0, 2]
    assert all(c.outpoint.txid == txid(tx) for c in coins)
    assert coins[0].value == 50 and coins[1].value == 7


# -- apply / undo / reorg against a replay from genesis ------------------------

def _next_block(store: VersionedShardStore, rng: random.Random, wide: bool = False) -> Block:
    """A random block that is valid on top of ``store``; ``wide`` adds a
    tx whose outputs alone exceed the store's cap, so their one txid runs
    its leaf's path down to depth 32."""
    height = 0 if store.height is None else store.height + 1
    spendable = list(store.all_coins())
    rng.shuffle(spendable)
    txs = [_coinbase(height, rng.randrange(1, 3), rng)]
    for _ in range(rng.randrange(0, 4)):
        picked = spendable[:rng.randrange(1, 3)]
        del spendable[:len(picked)]
        if not picked:
            break
        txs.append(_spend(picked, rng.randrange(1, 4), rng))
    if wide and spendable:
        txs.append(_spend(spendable[:1], store.size_cap // COIN_SIZE + 1, rng))
    return _block(height, txs)


def _assert_matches_replay(store: VersionedShardStore, chain: list[Block]) -> None:
    fresh = VersionedShardStore(initial_k=store.initial_k, size_cap=store.size_cap)
    oracle = _FlatOracle(store.initial_k, store.size_cap)
    committed = []  # per height, the oracle's leaves
    roots = []  # per height, the root the replay committed
    for h, block in enumerate(chain):
        roots.append(fresh.apply_block(block, h))
        oracle.apply(block)
        committed.append(oracle.blobs())
    assert {i: encode_shard_coins(coins) for i, coins in store.shards.items()} == oracle.blobs()
    assert store.current_root == oracle.root()
    assert sorted(store.all_coins()) == sorted([*oracle.committed.values(), *oracle.pending])
    assert store.pending == oracle.pending
    assert store.total_shard_bytes() == sum(map(len, oracle.blobs().values()))
    assert (store.height, store.k, store.versions, store.touched_log, store.rebalance_log) == \
        (fresh.height, fresh.k, fresh.versions, fresh.touched_log, fresh.rebalance_log)
    assert store_state(store) == store_state(fresh)
    assert [record.shard_bytes for record in store.touched_log.values()] == \
        [sum(map(len, blobs.values())) for blobs in committed]
    # every pre-state proof, for the whole trie, the block's own served set
    # and random strict subsets, against the oracle's leaves
    rng = random.Random(len(chain))
    for h in range(1, len(chain) + 1):
        blobs = committed[h - 1]
        ids = sorted(blobs)
        subsets = [set(ids), {rng.choice(ids)}, set(rng.sample(ids, rng.randrange(1, len(ids) + 1)))]
        if h in store.versions:
            subsets.append(set(store.versions[h]))
        for subset in subsets:
            shards, siblings = store.state_before(h, subset)
            assert served_root(shards, siblings) == roots[h - 1]
            assert {i: shard.encoded for i, shard in shards.items()} == \
                {i: blobs[i] for i in subset}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(initial_k=st.integers(0, 2), cap=st.sampled_from([160, 240, 400]),
       ops=st.lists(st.tuples(st.sampled_from(["apply", "preview", "undo", "reorg"]),
                              st.integers(0, 2 ** 32 - 1)), min_size=1, max_size=24))
def test_undo_and_reorg_match_a_replay_from_genesis(initial_k, cap, ops):
    store = VersionedShardStore(initial_k=initial_k, size_cap=cap)
    chain: list[Block] = []
    for op, seed in ops:
        rng = random.Random(seed)
        if op == "undo" and chain:
            store.undo_block()
            chain.pop()
        elif op == "reorg" and len(chain) > 1:
            fork = rng.randrange(len(chain) - 1)
            store.rewind_to(fork)
            del chain[fork + 1:]
            for _ in range(rng.randrange(1, 4)):
                chain.append(_next_block(store, rng))
                store.apply_block(chain[-1], len(chain) - 1)
        else:
            block = _next_block(store, rng)
            if op == "preview":
                root = store.preview_root(list(block.transactions[1:]), len(chain))
                _assert_matches_replay(store, chain)
            store.apply_block(block, len(chain))
            chain.append(block)
            if op == "preview":
                assert store.current_root == root
        _assert_matches_replay(store, chain)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(initial_k=st.integers(0, 2), cap=st.sampled_from([COIN_SIZE, 160, 400]),
       ops=st.lists(st.tuples(st.sampled_from(["apply", "wide", "undo", "rewind"]),
                              st.integers(0, 2 ** 32 - 1)), min_size=1, max_size=16))
def test_the_trie_store_matches_the_flat_oracle_through_wide_txs_undos_and_rewinds(
        initial_k, cap, ops):
    """Random bodies, some with a tx whose outputs alone exceed the cap
    (its txid's path splits down to depth 32), with undos and rewinds:
    after every step the coins equal the flat oracle's, the root and
    every kept record equal a fresh replay's, and every pre-state above
    the floor proves the root committed below it."""
    store = VersionedShardStore(initial_k=initial_k, size_cap=cap)
    chain: list[Block] = []
    for op, seed in ops:
        rng = random.Random(seed)
        if op == "undo" and chain:
            store.undo_block()
            chain.pop()
        elif op == "rewind" and chain:
            store.rewind_to(rng.randrange(len(chain)))
            del chain[store.height + 1:]
        else:
            chain.append(_next_block(store, rng, wide=op == "wide"))
            store.apply_block(chain[-1], len(chain) - 1)
        if chain:
            _assert_matches_replay(store, chain)
    deep = [i for i in store.shards if i >> MAX_DEPTH]
    assert all(len({c.outpoint.txid[:4] for c in store.shards[i]}) <= 1 for i in deep)


def test_undo_of_a_split_block_restores_the_coarser_tree():
    rng = random.Random(32)
    store = VersionedShardStore(initial_k=0, size_cap=160)
    chain: list[Block] = []
    while not store.rebalance_log:
        chain.append(_next_block(store, rng))
        store.apply_block(chain[-1], len(chain) - 1)
    split_leaves = len(store.shards)
    store.undo_block()
    chain.pop()
    assert len(store.shards) < split_leaves
    _assert_matches_replay(store, chain)
    store.rewind_to(0)
    _assert_matches_replay(store, chain[:1])


def test_recent_state_before_rehashes_only_what_changed(monkeypatch):
    """A proof re-hashes only paths: the tip block's pre-state hashes the
    paths of the leaves it edited, once to find the old node hashes and
    once to walk the proof; the live state hashes the one path asked
    for; a split block's pre-state hashes the paths of its journal entry,
    not the leaves it split into."""
    rng = random.Random(33)
    _, store = _random_history(rng, 12, initial_k=8)
    split_rng = random.Random(34)
    split = VersionedShardStore(initial_k=2, size_cap=160)
    while not split.rebalance_log:
        block = _next_block(split, split_rng)
        split.apply_block(block, block.header.height)
    calls = []

    def counted(data: bytes) -> bytes:
        calls.append(data)
        return _h(data)

    monkeypatch.setattr("dietchain.merkle.hash256", counted)
    tip = store.height
    edited = set(store.versions[tip])
    store.state_before(tip, edited)
    assert len(calls) <= 2 * len(edited) * (store.k + 1) < 1 << store.k
    calls.clear()
    store.state_before(tip + 1, {min(store.shards)})
    assert len(calls) == store.k  # the live hashes of the rest: one path
    calls.clear()
    entry = split.versions[split.height]
    split.state_before(split.height, set(entry))
    # a split block's pre-state is built from its journal entry: its
    # leaves of the coarser trie and their paths, twice
    assert len(calls) <= len(entry) * (1 + 2 * 2)


def test_state_before_across_two_splits_matches_the_flat_oracle(monkeypatch):
    """Under a horizon that keeps two splits and the blocks around them,
    every pre-state above the floor, whole and in a random part, equals
    the flat oracle's leaves at that height, and its proof reaches the
    root committed there. A pre-state below a split serves the split
    leaf from its journal entry, with the entries below it merged in."""
    monkeypatch.setattr("dietchain.utxo.HISTORY_HORIZON", 8)
    rng = random.Random(44)
    store = VersionedShardStore(initial_k=0, size_cap=160)
    oracle = _FlatOracle(cap=160)
    blobs, roots = [], []  # per height: the oracle's leaves, the committed root

    def splits_above_the_floor() -> list[int]:
        return sorted({step.height for step in store.rebalance_log if step.height > store.floor})
    while (store.floor < 1 or len(splits_above_the_floor()) < 2
           or store.height < store.rebalance_log[-1].height + 2):
        block = _next_block(store, rng)
        roots.append(store.apply_block(block, store.next_height))
        oracle.apply(block)
        blobs.append(oracle.blobs())
    assert len(splits_above_the_floor()) >= 2 and store.floor >= 1
    for h in range(store.floor + 1, store.height + 2):
        ids = sorted(blobs[h - 1])
        assert leaves_before(store, h) == set(ids)
        for subset in (set(ids), set(rng.sample(ids, rng.randrange(1, len(ids) + 1)))):
            shards, siblings = store.state_before(h, subset)
            assert {i: shard.encoded for i, shard in shards.items()} == \
                {i: blobs[h - 1][i] for i in subset}
            assert served_root(shards, siblings) == roots[h - 1] == _root_of(blobs[h - 1])


def test_a_clone_rewound_across_a_split_serves_what_its_source_served():
    """A clone rewound below a split puts the split leaf back from the
    split's journal entry: it serves every pre-state its source served at
    or below its new tip, and after taking the same blocks again it
    serves all of them."""
    rng = random.Random(45)
    source = VersionedShardStore(initial_k=1, size_cap=160)
    blocks = []
    while not source.rebalance_log or source.height < source.rebalance_log[-1].height + 2:
        blocks.append(_next_block(source, rng))
        source.apply_block(blocks[-1], source.next_height)
    split = source.rebalance_log[-1].height

    def served(store: VersionedShardStore, heights) -> dict:
        return {h: store.state_before(h, leaves_before(store, h)) for h in heights}

    before = served(source, range(1, source.height + 2))
    twin = source.clone()
    twin.rewind_to(split - 1)
    assert len(twin.shards) < len(source.shards)
    assert served(twin, range(1, split + 1)) == {h: before[h] for h in range(1, split + 1)}
    for block in blocks[split:]:
        twin.apply_block(block, twin.next_height)
    assert served(twin, range(1, twin.height + 2)) == before
    assert store_state(twin) == store_state(source)


@pytest.mark.parametrize("cap", [-1, 0, 2, COIN_SIZE - 1])
def test_store_refuses_a_cap_below_one_coin_shard(cap):
    # Construction only: under such a cap a block needs more shards than coins.
    with pytest.raises(ValueError, match="size_cap"):
        VersionedShardStore(initial_k=0, size_cap=cap)
    VersionedShardStore(initial_k=0, size_cap=COIN_SIZE)


# -- bounded history ---------------------------------------------------------------

def test_the_default_horizon_keeps_288_blocks_of_history():
    rng = random.Random(35)
    store = VersionedShardStore(initial_k=0, size_cap=240)
    chain: list[Block] = []
    while len(chain) < HISTORY_HORIZON + 12:
        chain.append(_next_block(store, rng))
        store.apply_block(chain[-1], len(chain) - 1)
    assert HISTORY_HORIZON == 288
    assert store.floor == store.height - 288 == 11
    _assert_bounded_history(store, chain)


def _assert_bounded_history(store: VersionedShardStore, chain: list[Block]) -> None:
    """The store equals a replay of ``chain`` from genesis on everything
    but pruned history, serves every pre-state at or above its floor as
    the replay does, refuses every one below it and keeps a journal entry
    for exactly the heights above its floor."""
    fresh = VersionedShardStore(initial_k=store.initial_k, size_cap=store.size_cap)
    oracle = _FlatOracle(store.initial_k, store.size_cap)
    roots = [fresh.apply_block(block, h) for h, block in enumerate(chain)]
    for block in chain:
        oracle.apply(block)
    assert fresh.floor <= store.floor
    assert sorted(c for coins in store.shards.values() for c in coins) == \
        sorted(oracle.committed.values())
    assert store.pending == oracle.pending
    assert store.current_root == fresh.current_root == oracle.root()
    assert (store.height, store.k, store.touched_log, store.rebalance_log) == \
        (fresh.height, fresh.k, fresh.touched_log, fresh.rebalance_log)
    rng = random.Random(len(chain))
    for h in range(1, len(chain) + 1):
        if h - 1 < store.floor:
            with pytest.raises(HistoryUnavailableError):
                store.state_before(h, {1})
            continue
        ids = sorted(leaves_before(store, h))
        subset = set(rng.sample(ids, rng.randrange(1, len(ids) + 1)))
        shards, siblings = store.state_before(h, subset)
        assert (shards, siblings) == fresh.state_before(h, subset)
        assert served_root(shards, siblings) == roots[h - 1]
    assert len(store._undo_pending) == len(chain) - 1 - store.floor
    assert list(store.versions) == list(range(store.floor + 1, store.next_height))


def test_the_undo_record_is_bounded_by_the_floor(monkeypatch):
    """A store keeps the pending list a block replaced only for the
    heights an undo can reach: after 40 blocks under a horizon of 4 it
    holds four, and undoing down to the floor restores each height's
    pending list exactly."""
    monkeypatch.setattr("dietchain.utxo.HISTORY_HORIZON", 4)
    rng = random.Random(36)
    store = VersionedShardStore(initial_k=0, size_cap=240)
    pending = []  # the store's pending list after each height
    for h in range(40):
        store.apply_block(_next_block(store, rng), h)
        pending.append(list(store.pending))
        assert len(store._undo_pending) == min(h + 1, 4)
    assert store.floor == 35
    while store.height > store.floor:
        store.undo_block()
        assert store.pending == pending[store.height]
    assert store._undo_pending == []
    with pytest.raises(HistoryUnavailableError):
        store.undo_block()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(horizon=st.integers(1, 5), initial_k=st.integers(0, 2),
       cap=st.sampled_from([160, 240, 400]),
       ops=st.lists(st.tuples(st.sampled_from(["apply", "preview", "undo", "reorg"]),
                              st.integers(0, 2 ** 32 - 1)), min_size=4, max_size=24))
def test_bounded_history_matches_a_replay_from_genesis(horizon, initial_k, cap, ops):
    """Random apply, preview, undo and reorg steps, with splits, under a
    short horizon. The floor is the highest height ever committed less the
    horizon; an undo or a rewind below it raises and changes nothing."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("dietchain.utxo.HISTORY_HORIZON", horizon)
        store = VersionedShardStore(initial_k=initial_k, size_cap=cap)
        chain: list[Block] = []
        highest = -1  # the highest height the store ever committed
        for op, seed in ops:
            rng = random.Random(seed)
            if op in ("undo", "reorg") and chain:
                fork = len(chain) - 2 if op == "undo" else rng.randrange(len(chain))
                if fork < store.floor:
                    before = store_state(store)
                    with pytest.raises(HistoryUnavailableError):
                        store.undo_block() if op == "undo" else store.rewind_to(fork)
                    assert store_state(store) == before
                    continue
                if op == "undo":
                    store.undo_block()
                else:
                    store.rewind_to(fork)
                del chain[fork + 1:]
                for _ in range(rng.randrange(1, 4) if op == "reorg" else 0):
                    chain.append(_next_block(store, rng))
                    store.apply_block(chain[-1], len(chain) - 1)
            else:
                block = _next_block(store, rng)
                if op == "preview":
                    store.preview_root(list(block.transactions[1:]), len(chain))
                store.apply_block(block, len(chain))
                chain.append(block)
            highest = max(highest, len(chain) - 1)
            assert store.floor == max(-1, highest - horizon)
            _assert_bounded_history(store, chain)


def test_store_state_covers_every_state_field():
    """The undo, rewind, replay and clone tests compare stores by
    ``conftest.store_state``, so it copies every field of the store,
    leading underscore dropped, but the two settings a store never
    changes: a field added without it would escape every such check.
    Each copy is a new container, so later blocks leave it as it was."""
    state = {f.name.lstrip("_") for f in dataclasses.fields(VersionedShardStore)} - \
        {"initial_k", "size_cap"}
    store = VersionedShardStore(initial_k=1, size_cap=160)
    store.apply_block(_next_block(store, random.Random(46)), 0)
    snapshot = store_state(store)
    assert set(snapshot) == state
    for name, value in snapshot.items():
        live = getattr(store, name if hasattr(store, name) else "_" + name)
        assert value == live
        assert value is not live or isinstance(value, (int, type(None)))


def test_a_clone_and_its_source_evolve_apart(monkeypatch):
    """A clone shares with its source only what neither edits in place
    (coin lists, journal entries, records): each side undoes across a
    split, takes a coin into ``pending`` in place (as a forger does),
    commits its own blocks and prunes past the split, and after every
    step each side equals a ``copy.deepcopy`` of the source that took
    the same steps."""
    monkeypatch.setattr("dietchain.utxo.HISTORY_HORIZON", 4)
    rng = random.Random(37)
    source = VersionedShardStore(initial_k=0, size_cap=160)
    while len(source.rebalance_log) < 2 or source.height < source.rebalance_log[-1].height + 2:
        source.apply_block(_next_block(source, rng), source.next_height)
    split = source.rebalance_log[-1].height
    split_leaves = len(source.shards)  # no block after the split splits
    assert source.floor < split - 1
    twin = source.clone()
    sides = [(source, copy.deepcopy(source), random.Random(1)),
             (twin, copy.deepcopy(source), random.Random(2))]

    def step(act) -> None:
        for store, reference, side_rng in sides:
            act(store, reference, side_rng)
            for other, other_reference, _ in sides:
                assert store_state(other) == store_state(other_reference)

    step(lambda store, ref, _: (store.rewind_to(split - 1), ref.rewind_to(split - 1)))
    assert len(source.shards) == len(twin.shards) < split_leaves

    def plant(store, ref, side_rng):
        coin = Coin(OutPoint(side_rng.randbytes(32), 0), 7, side_rng.randbytes(32))
        store.pending.append(coin)
        ref.pending.append(coin)
    step(plant)

    def commit(store, ref, side_rng):
        block = _next_block(ref, side_rng)
        ref.apply_block(block, ref.next_height)
        store.apply_block(block, store.next_height)
    for _ in range(8):
        step(commit)
    assert source.floor > split and twin.floor > split  # the split's history is pruned
    assert source.current_root != twin.current_root


@pytest.mark.parametrize("split", [False, True])
def test_undo_puts_back_the_very_lists_a_block_replaced(split):
    """The journal keeps the lists a block replaced, not copies, so an
    undo restores the shards (and ``pending``) as the same objects."""
    rng = random.Random(41)
    store = VersionedShardStore(initial_k=0, size_cap=160)
    while True:
        before, pending = dict(store.shards), store.pending
        store.apply_block(_next_block(store, rng), store.next_height)
        record = store.touched_log[store.height]
        if record.rebalanced == split and record.touched:
            break
    store.undo_block()
    assert store.shards.keys() == before.keys()
    assert all(store.shards[i] is coins for i, coins in before.items())
    assert store.pending is pending


def test_no_shard_list_or_journal_entry_changes_while_it_is_kept(monkeypatch):
    """Entries, undos and clones share coin lists because the store never
    edits one in place. Over a seeded history of blocks, undos, rewinds,
    splits and a clone that mines its own blocks, every live list and
    journal entry reads as it did when first seen."""
    monkeypatch.setattr("dietchain.utxo.HISTORY_HORIZON", 6)
    rng = random.Random(43)
    stores = [VersionedShardStore(initial_k=0, size_cap=160)]
    seen: dict[int, tuple[object, tuple]] = {}  # id -> (the object, kept alive; its snapshot)

    def check(obj, snapshot: tuple) -> None:
        kept = seen.setdefault(id(obj), (obj, snapshot))
        assert kept[0] is obj and kept[1] == snapshot

    for step in range(120):
        if step == 60:
            stores.append(stores[0].clone())
        for store in stores:
            roll = rng.random()
            if roll < 0.15 and store.height is not None and store.height - 1 >= store.floor:
                store.undo_block()
            elif roll < 0.25 and store.height is not None and store.height > max(store.floor, 0):
                store.rewind_to(rng.randrange(max(store.floor, 0), store.height))
            else:
                store.apply_block(_next_block(store, rng), store.next_height)
            for coins in store.shards.values():
                check(coins, tuple(coins))
            for entry in store.versions.values():
                check(entry, tuple((i, id(coins)) for i, coins in entry.items()))
                for coins in entry.values():
                    check(coins, tuple(coins))
    assert len(stores[0].rebalance_log) >= 2 and stores[0].current_root != stores[1].current_root


# -- finding a coin's leaf -----------------------------------------------------

@functools.lru_cache(maxsize=None)
def _lookup_store() -> VersionedShardStore:
    """A store of 16 random blocks at cap 160 from one leaf, every fourth
    with a tx over the cap: its leaves sit at many depths, some at 32.
    Lookups only read it."""
    rng = random.Random(61)
    store = VersionedShardStore(initial_k=0, size_cap=160)
    for height in range(16):
        store.apply_block(_next_block(store, rng, wide=height % 4 == 3), height)
    depths = {i.bit_length() - 1 for i in store.shards}
    assert len(depths) >= 4 and MAX_DEPTH in depths
    return store


def _held_coins(view: ShardView, idx: int):
    return view.edited[idx] if idx in view.edited else view.shards[idx]


def _checked_lookups(view: ShardView, misses: list) -> None:
    """Make every lookup of ``view`` check itself against a scan of all
    33 depths: the same leaf, position and presence, and the leaf's depth
    as the next start; a coin whose path meets no held leaf goes to
    ``misses`` and raises."""
    locate = view._locate

    def checked(outpoint: OutPoint, edit: bool):
        on_path = [i for d in range(MAX_DEPTH + 1)
                   if (i := 1 << d | shard_key(outpoint.txid, d)) in view.shards]
        assert len(on_path) <= 1  # the held leaves are prefix-free
        try:
            shard, i, found = locate(outpoint, edit)
        except InconsistentStateError:
            assert not on_path
            misses.append(outpoint)
            raise
        (idx,) = on_path
        assert shard is _held_coins(view, idx) and (idx in view.edited or not edit)
        assert i == bisect.bisect_left([coin.outpoint for coin in shard], outpoint)
        assert found == (i < len(shard) and shard[i].outpoint == outpoint)
        assert view.depth == idx.bit_length() - 1
        return shard, i, found

    view._locate = checked


def _txid_under(rng: random.Random, idx: int) -> bytes:
    """A random txid whose path runs through node ``idx``."""
    depth = idx.bit_length() - 1
    prefix = (idx ^ 1 << depth) << (MAX_DEPTH - depth) | rng.getrandbits(MAX_DEPTH - depth)
    return prefix.to_bytes(4, "big") + rng.randbytes(28)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), served=st.booleans(),
       ops=st.lists(st.tuples(st.sampled_from(["get", "insert", "absorb"]),
                              st.integers(0, MAX_DEPTH), st.integers(0, 2 ** 32 - 1)),
                    min_size=1, max_size=12))
def test_a_lookup_from_any_start_depth_finds_the_leaf_a_full_scan_finds(data, served, ops):
    """``get_coin``, ``insert`` and ``absorb`` in random order, each
    from a stale start depth, on a view of a store whose leaves split to
    many depths or on a view of the coins of leaves ``state_before``
    served: every lookup finds the leaf and position a scan of every
    depth finds, and a coin whose leaf is not held raises
    InconsistentStateError."""
    store = _lookup_store()
    if served:
        height = data.draw(st.integers(max(store.floor, 0) + 1, store.height + 1))
        ids = data.draw(st.sets(st.sampled_from(sorted(leaves_before(store, height))),
                                min_size=1, max_size=6))
        proved = store.state_before(height, ids)[0]
        view = ShardView({i: shard.coins for i, shard in proved.items()}, [], height)
    else:
        view = store.open(store.next_height)
    misses: list[OutPoint] = []
    _checked_lookups(view, misses)
    held = sorted(view.shards)
    for op, start, seed in ops:
        rng = random.Random(seed)
        coins = [coin for idx in held for coin in _held_coins(view, idx)]
        view.depth = start
        missed = len(misses)
        try:
            if op == "get":
                outpoint = (rng.choice(coins).outpoint if coins and rng.random() < 0.5 else
                            OutPoint(_txid_under(rng, rng.choice([1, *held])), rng.randrange(4)))
                coin = view.get_coin(outpoint)
                assert coin is None or coin.outpoint == outpoint
            elif op == "insert":
                tx_id = _txid_under(rng, rng.choice([1, *held]))
                view.insert(Coin(OutPoint(tx_id, rng.randrange(4)), 1, rng.randbytes(32)))
            else:
                view.absorb(_spend(rng.sample(coins, min(len(coins), rng.randrange(3))),
                                   rng.randrange(1, 4), rng))
        except InconsistentStateError as exc:
            if str(exc).startswith("duplicate coin"):  # a seed drawn twice
                assert op != "get" and len(misses) == missed
            else:
                assert len(misses) == missed + 1 and str(exc).startswith("no shard held")
    assert store_state(store) == store_state(_lookup_store())
