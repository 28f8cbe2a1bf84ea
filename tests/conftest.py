"""Shared helpers for building small real chains in tests."""

from __future__ import annotations

import struct

from hypothesis import strategies as st

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
from dietchain.merkle import trie_root
from dietchain.miner import make_genesis, mine_on
from dietchain.utxo import Coin, VersionedShardStore

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


def split_chain() -> FullNode:
    """Nine blocks above genesis at ``size_cap`` 256 from one leaf, each
    paying Carol 3 and Alice 2, six times at even heights (eight outputs
    of one txid, over the cap: their leaf splits down to depth 32) and
    once at odd ones; the blocks at heights 2 and 4 to 8 split leaves."""
    alice, carol = key_of("alice"), key_of("carol")
    params = ChainParams(target_bits=5, subsidy=50, size_cap=256, initial_k=0)
    node = mined_node(params, alice, 2, seed=48)
    for i in range(8):
        node.submit_transaction(payment(node, alice, [(alice.challenge, 2)] * (1 + 5 * (i % 2 == 0))
                                        + [(carol.challenge, 3)]))
        mine_on(node, alice.public_key, seed=248 + i)
    assert [h for h, record in node.utxo.touched_log.items() if record.rebalanced] == \
        [2, 4, 5, 6, 7, 8]
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


def served_root(shards: dict, siblings) -> bytes:
    """The root a verifier reaches from served leaves and their trie
    siblings, hashing each leaf itself."""
    return trie_root({i: shard.leaf_hash for i, shard in shards.items()}, siblings)


def leaves_before(store: VersionedShardStore, height: int) -> set[int]:
    """The leaf ids of the store's state before ``height``: the journal
    keys from ``height`` up (a key below another is a leaf only after a
    later split), and the live leaves below none of them."""
    keys = set().union(*(store.versions[h] for h in range(height, store.height + 1)))
    keys = {i for i in keys if not any(i >> up in keys for up in range(1, i.bit_length()))}
    return keys | {i for i in store.shards
                   if not any(i >> up in keys for up in range(i.bit_length()))}


def utxos_siblings_at(data: bytes) -> int:
    """The offset of the sibling count in a ``utxos`` answer: it follows
    the leaf frames, walked from the front."""
    (count,), at = struct.unpack_from("<H", data), 2
    for _ in range(count):
        _, coins = struct.unpack_from("<QI", data, at)
        at += 12 + COIN_SIZE * coins
    return at


def byte_edit(data: bytes, draw) -> bytes:
    """One random mutation of ``data``: a bit flipped, the bytes cut at
    a point, 1-8 bytes inserted, or 4 of its bytes copied over others."""
    kind = draw(st.sampled_from(["flip", "cut", "insert", "copy"]))
    at = draw(st.integers(0, len(data)))
    if kind == "flip":
        at = min(at, len(data) - 1)
        return data[:at] + bytes([data[at] ^ 1 << draw(st.integers(0, 7))]) + data[at + 1:]
    if kind == "cut":
        return data[:at]
    if kind == "insert":
        return data[:at] + draw(st.binary(min_size=1, max_size=8)) + data[at:]
    src = draw(st.integers(0, max(len(data) - 4, 0)))
    return data[:at] + data[src:src + 4] + data[at + 4:]


def store_state(store: VersionedShardStore) -> dict:
    """A copy of every field a block application writes, for comparing
    two stores or one store over time."""
    return {
        "height": store.height,
        "floor": store.floor,
        "versions": dict(store.versions),
        "touched_log": dict(store.touched_log),
        "pending": list(store.pending),
        "shards": {i: list(coins) for i, coins in store.shards.items()},
        "nodes": dict(store._nodes),
        "undo_pending": [list(p) for p in store._undo_pending],
    }
