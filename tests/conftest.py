"""Shared helpers for building small real chains in tests."""

from __future__ import annotations

import struct

from dietchain.chain import (
    COIN_SIZE,
    ChainParams,
    KIND_PAYMENT,
    Reader,
    Transaction,
    TxInput,
    TxOutput,
    sighash,
)
from dietchain.crypto import KeyPair, hash256
from dietchain.full_node import FullNode
from dietchain.merkle import partial_root
from dietchain.miner import make_genesis, mine_on
from dietchain.utxo import Coin, VersionedShardStore, committed_root

FAST = ChainParams(target_bits=5, subsidy=50, size_cap=1024, initial_k=2)


def read_whole(read, data: bytes):
    """What ``read`` takes from a reader over ``data``, which must be all
    of it: trailing bytes are a DecodeError, as for a whole payload."""
    r = Reader(data)
    value = read(r)
    r.done()
    return value


def key_of(name: str) -> KeyPair:
    return KeyPair.from_seed(hash256(b"test-key:" + name.encode()))


def mined_node(params: ChainParams, miner: KeyPair, n_blocks: int,
               seed: int = 0) -> FullNode:
    node = FullNode(params)
    result = node.connect_block(make_genesis(params, miner.public_key, seed=seed))
    assert result.accepted
    for i in range(1, n_blocks):
        mine_on(node, miner.public_key, seed=seed + i)
    return node


def coins_owned(node: FullNode, owner: KeyPair) -> list[Coin]:
    mine = [c for c in node.utxo.all_coins() if c.challenge == owner.challenge]
    return sorted(mine, key=lambda c: (-c.value, c.outpoint))


def payment(node: FullNode, sender: KeyPair, pays: list[tuple[bytes, int]],
            fee: int = 1) -> Transaction:
    """Spend the sender's largest coins to cover the given (challenge, value)
    outputs plus the fee; change goes back to the sender."""
    needed = sum(v for _, v in pays) + fee
    picked: list[Coin] = []
    for coin in coins_owned(node, sender):
        picked.append(coin)
        if sum(c.value for c in picked) >= needed:
            break
    total = sum(c.value for c in picked)
    assert total >= needed, "test wallet out of funds"
    outputs = [TxOutput(value=v, kind=KIND_PAYMENT, payload=ch) for ch, v in pays]
    if total > needed:
        outputs.append(TxOutput(value=total - needed, kind=KIND_PAYMENT,
                                payload=sender.challenge))
    tx = Transaction(
        version=0,
        inputs=tuple(TxInput(prevout=c.outpoint, public_key=sender.public_key,
                             signature=b"\x00" * 64) for c in picked),
        outputs=tuple(outputs),
    )
    signature = sender.sign(sighash(tx))
    return tx._replace(inputs=tuple(i._replace(signature=signature)
                                    for i in tx.inputs))


def served_root(shards: dict, tree, coin_count: int) -> bytes:
    """The root a verifier reaches from served shards, their proof and
    the coin count of all shards, hashing each shard's leaf itself."""
    return committed_root(partial_root(tree, {i: shard.leaf_hash for i, shard in shards.items()}),
                          coin_count)


def utxos_tree_at(data: bytes) -> int:
    """The offset of the partial tree in a ``utxos`` answer: it follows
    the shard frames, walked from the front."""
    (count,), at = struct.unpack_from("<H", data), 2
    for _ in range(count):
        _, coins = struct.unpack_from("<II", data, at)
        at += 8 + COIN_SIZE * coins
    return at


def store_state(store: VersionedShardStore) -> dict:
    """A copy of every field a block application writes, packed tree
    levels as bytes, for comparing two stores or one store over time."""
    return {
        "height": store.height,
        "floor": store.floor,
        "k": store.k,
        "versions": dict(store.versions),
        "touched_log": dict(store.touched_log),
        "pending": list(store.pending),
        "shards": {i: list(coins) for i, coins in store.shards.items()},
        "levels": [bytes(level) for level in store._levels],
        "coin_count": store._coin_count,
        "undo_pending": [list(p) for p in store._undo_pending],
    }
