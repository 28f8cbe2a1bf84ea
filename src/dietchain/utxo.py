"""Sharded UTXO set with height-versioned history and a Merkle root.

Coins are bucketed by the first ``k`` bits of their creating txid (byte
0 first, most significant bit first), giving ``2**k`` shards. The store
commits to a root over all shard hashes after every block and keeps
every previous version of every shard it ever changed, so it can later
prove what any shard looked like just before a given block.

Two rules shape the commitment:

* The committed root for a block covers the state after that block's
  non-coinbase transactions. The block's own reward coins depend on the
  coinbase txid, which embeds the root itself, so they cannot be under
  it; they are parked in ``pending`` and enter the shards at the start
  of the next block's application, making them spendable immediately
  but first reflected in the next committed root.

* When total serialized shard bytes exceed ``size_cap`` per shard on
  average, ``k`` increments (splitting every shard in two) until the
  average fits. The split runs before root computation, so committed
  roots always describe the post-split tree, and it is a pure function
  of the coin set, so any verifier holding all shards can replay it.

Blocks are applied in place. The store keeps every level of its shard
tree, so a block re-hashes only the paths above the shards it touched;
a split rebuilds the tree once. The history doubles as the undo log:
``undo_block`` drops the newest block's log entries and reloads the
shards it changed from their previous versions, which returns the store
exactly to its state before that block. Only the ``pending`` list each
block replaced is kept apart. Previewing a block's root, dropping a
block whose commitment is wrong and switching branches are all
apply-then-undo; nothing copies the store.

Application has two steps: ``apply_body`` applies the non-coinbase txs
and returns the root, and ``seal`` parks the coinbase's reward coins.
A node mining on its own tip needs the root before its coinbase exists,
so it applies the body once, builds the coinbase and header on the
returned root, and seals the block, or undoes it if the block fails;
its block is applied once, not previewed and then applied again.

A split keeps the tree it replaces as the final tree of the coarser
``k``. ``state_before`` cuts a historical proof from the live tree or
from that kept tree: it puts back the old versions of only the shards
changed since the queried height and re-hashes their paths, so a recent
height costs O((|indices| + shards changed since) * k) hashes, not a
rebuild over all ``2**k`` leaves. History holds each shard version as
its wire bytes, and a proof serves them as they are: a :class:`Shard` is
an index and its encoding, decoded only where a reader needs its coins.
"""

from __future__ import annotations

import bisect
import copy
import struct
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from .chain import COIN_SIZE, KIND_PAYMENT, MIN_SIZE_CAP, OutPoint, Reader, Transaction, txid
from .crypto import hash256
from .errors import DecodeError, HistoryUnavailableError, InconsistentStateError
from .merkle import PartialMerkleTree, pack_levels, partial_from_levels, update_levels

EMPTY_SHARD_BYTES = b"\x00\x00"


class Coin(NamedTuple):
    outpoint: OutPoint
    value: int
    challenge: bytes


def shard_key(tx_id: bytes, k: int) -> int:
    """First ``k`` bits of the txid as an unsigned integer."""
    if not 0 <= k <= 32:
        raise ValueError(f"k must be in [0, 32], got {k}")
    if k == 0:
        return 0
    return int.from_bytes(tx_id[:4], "big") >> (32 - k)


def _locate(shard: list[Coin], outpoint: OutPoint) -> tuple[int, bool]:
    """Where ``outpoint`` belongs in a sorted shard, and whether it is there."""
    i = bisect.bisect_left(shard, outpoint, key=lambda c: c.outpoint)
    return i, i < len(shard) and shard[i].outpoint == outpoint


def find_coin(shard: list[Coin], outpoint: OutPoint) -> Coin | None:
    i, found = _locate(shard, outpoint)
    return shard[i] if found else None


def insert_coin(shard: list[Coin], coin: Coin) -> bool:
    """Insert in outpoint order; False if the outpoint is already there."""
    i, found = _locate(shard, coin.outpoint)
    if not found:
        shard.insert(i, coin)
    return not found


def remove_coin(shard: list[Coin], outpoint: OutPoint) -> bool:
    """Remove the coin at ``outpoint``; False if the shard has none."""
    i, found = _locate(shard, outpoint)
    if found:
        del shard[i]
    return found


def shard_set_bytes(k: int, coin_count: int) -> int:
    """Serialized bytes of all ``2**k`` shards holding ``coin_count`` coins."""
    return 2 * (1 << k) + COIN_SIZE * coin_count


def split_due(k: int, coin_count: int, size_cap: int) -> bool:
    """The split rule's trigger: ``2**k`` shards average over ``size_cap`` bytes."""
    return shard_set_bytes(k, coin_count) > size_cap * (1 << k)


def split_shards(shards: dict[int, list[Coin]], k: int) -> dict[int, list[Coin]]:
    """The ``2**(k+1)`` shards the split rule makes of ``2**k`` shards;
    each keeps its coins in order."""
    if k + 1 > 32:
        raise InconsistentStateError("shard key space exhausted")
    split: dict[int, list[Coin]] = {i: [] for i in range(1 << (k + 1))}
    for coins in shards.values():
        for coin in coins:
            split[shard_key(coin.outpoint.txid, k + 1)].append(coin)
    return split


def coins_of(tx: Transaction) -> list[Coin]:
    """The spendable coins a transaction creates (payment outputs only)."""
    tid = txid(tx)
    return [
        Coin(OutPoint(tid, n), out.value, out.payload)
        for n, out in enumerate(tx.outputs)
        if out.kind == KIND_PAYMENT
    ]


def encode_coin(c: Coin) -> bytes:
    return c.outpoint.txid + struct.pack("<IQ", c.outpoint.index, c.value) + c.challenge


def encode_shard_coins(coins: list[Coin]) -> bytes:
    return struct.pack("<H", len(coins)) + b"".join(encode_coin(c) for c in coins)


def shard_leaf_hash(encoded: bytes) -> bytes:
    """Leaf hash of a serialized shard; an empty shard hashes as the
    empty byte string, not as its two count bytes."""
    if encoded == EMPTY_SHARD_BYTES:
        return hash256(b"")
    return hash256(encoded)


_COIN = struct.Struct("<32sIQ32s")  # a coin's wire fields, in Coin's order


@dataclass(frozen=True, slots=True)
class Shard:
    """One shard as it travels: its index and its wire bytes (a u16 coin
    count, then the coins in outpoint order). The store serves the bytes
    it keeps, so serving decodes nothing."""
    index: int
    encoded: bytes

    @classmethod
    def of_coins(cls, index: int, coins) -> "Shard":
        return cls(index, encode_shard_coins(list(coins)))

    @property
    def coins(self) -> tuple[Coin, ...]:
        """The coins, decoded from the wire bytes on each call."""
        return tuple(Coin(OutPoint(tid, n), value, challenge)
                     for tid, n, value, challenge in _COIN.iter_unpack(self.encoded[2:]))

    @property
    def leaf_hash(self) -> bytes:
        return shard_leaf_hash(self.encoded)


def read_shard(r: Reader, index: int) -> Shard:
    """Read one serialized shard from a reader positioned at its count.
    Its coins must come in order; their raw fields order as the coins do,
    so the check builds no Coin."""
    start = r.offset
    r.take(COIN_SIZE * r.u16())
    shard = Shard(index, r.data[start:r.offset])
    records = list(_COIN.iter_unpack(memoryview(shard.encoded)[2:]))
    if any(a > b for a, b in zip(records, records[1:])):
        raise DecodeError("shard coins out of order", r.offset)
    return shard


def decode_shard(data: bytes, index: int) -> Shard:
    r = Reader(data)
    shard = read_shard(r, index)
    r.done()
    return shard


@dataclass(frozen=True)
class RebalanceStep:
    height: int
    k_from: int
    k_to: int
    avg_before: float
    avg_after: float


@dataclass(frozen=True)
class TouchedRecord:
    """Which shards a block's application changed, in the coordinates of
    the tree its proofs are checked against (the pre-split ``k``). A
    split changes every shard: its record holds a ``range``, not 2**k ints."""
    indices: frozenset[int] | range
    k: int
    rebalanced: bool


@dataclass
class VersionedShardStore:
    initial_k: int = 0
    size_cap: int = 1024
    k: int = field(init=False)
    shards: dict[int, list[Coin]] = field(init=False)
    pending: list[Coin] = field(init=False, default_factory=list)
    height: int | None = field(init=False, default=None)
    # (k, shard index) -> ((height, encoded shard bytes), ...) in height order;
    # tuples hold the append-only history at its exact size
    versions: dict[tuple[int, int], tuple[tuple[int, bytes], ...]] = field(
        init=False, default_factory=dict)
    root_log: dict[int, bytes] = field(init=False, default_factory=dict)
    bytes_log: list[int] = field(init=False, default_factory=list)  # shard bytes, by height
    touched_log: dict[int, TouchedRecord] = field(init=False, default_factory=dict)
    policy_log: list[tuple[int, int]] = field(init=False, default_factory=list)
    rebalance_log: list[RebalanceStep] = field(init=False, default_factory=list)
    _levels: list[bytearray] = field(init=False)  # packed shard tree, leaves first
    # k -> (last height committed at k, packed tree at that height); one per split
    _frozen: dict[int, tuple[int, list[bytearray]]] = field(init=False, default_factory=dict)
    _coin_count: int = field(init=False, default=0)
    _undo_pending: list[list[Coin]] = field(init=False, default_factory=list)  # per block

    def __post_init__(self):
        if not 0 <= self.initial_k <= 32:
            raise ValueError("initial_k must be in [0, 32]")
        if self.size_cap < MIN_SIZE_CAP:
            raise ValueError(f"size_cap must be at least {MIN_SIZE_CAP}, one coin's shard")
        self.k = self.initial_k
        self.shards = {i: [] for i in range(1 << self.k)}
        self._levels = pack_levels([shard_leaf_hash(EMPTY_SHARD_BYTES)] * (1 << self.k))

    # -- current-state queries -------------------------------------------

    @property
    def current_root(self) -> bytes:
        return bytes(self._levels[-1])

    def get_coin(self, outpoint: OutPoint) -> Coin | None:
        """Look up a spendable coin, including not-yet-committed rewards."""
        coin = find_coin(self.shards[shard_key(outpoint.txid, self.k)], outpoint)
        if coin is not None:
            return coin
        for coin in self.pending:
            if coin.outpoint == outpoint:
                return coin
        return None

    def all_coins(self) -> Iterator[Coin]:
        for i in range(1 << self.k):
            yield from self.shards[i]
        yield from self.pending

    def total_shard_bytes(self) -> int:
        return shard_set_bytes(self.k, self._coin_count)

    def average_shard_bytes(self) -> float:
        return self.total_shard_bytes() / (1 << self.k)

    def utxo_root(self) -> bytes:
        return self.current_root

    def k_at(self, height: int) -> int:
        """The shard count exponent in effect after applying ``height``."""
        k = self.initial_k
        for h, new_k in self.policy_log:
            if h <= height:
                k = new_k
        return k

    # -- mutation ---------------------------------------------------------

    def apply_block(self, block, height: int) -> tuple[bytes, frozenset[int] | range]:
        """Apply a validated block; returns (committed root, changed shards).

        The caller must have validated the block: missing inputs here are
        an InconsistentStateError, not a verdict.
        """
        coinbase = block.transactions[0]
        if not coinbase.is_coinbase:
            raise InconsistentStateError("block does not start with a coinbase")
        root = self.apply_body(list(block.transactions[1:]), height)
        self.seal(coinbase)
        return root, self.touched_log[height].indices

    def preview_root(self, txs: list[Transaction], height: int) -> bytes:
        """The root a block with these non-coinbase txs would commit;
        the store is left as it was."""
        root = self.apply_body(txs, height)
        self.undo_block()
        return root

    def seal(self, coinbase: Transaction) -> None:
        """Park the reward coins of the block just applied by
        :meth:`apply_body`; they enter the shards with the next block."""
        self.pending = coins_of(coinbase)

    def apply_body(self, txs: list[Transaction], height: int) -> bytes:
        """Apply a block's validated non-coinbase txs at ``height`` and
        return the root its coinbase must commit. The block is applied,
        history and all, except for its reward coins: :meth:`seal` adds
        them, and :meth:`undo_block` reverses either state."""
        expected = 0 if self.height is None else self.height + 1
        if height != expected:
            raise InconsistentStateError(f"expected height {expected}, got {height}")
        changed = {self._insert(coin) for coin in self.pending}
        self._undo_pending.append(self.pending)
        self.pending = []
        for tx in txs:
            for inp in tx.inputs:
                changed.add(self._remove(inp.prevout))
            for coin in coins_of(tx):
                changed.add(self._insert(coin))

        k_before = self.k
        rebalanced = False
        while split_due(self.k, self._coin_count, self.size_cap):
            avg_before = self.average_shard_bytes()
            self.shards = split_shards(self.shards, self.k)
            self.k += 1
            self.rebalance_log.append(RebalanceStep(
                height=height, k_from=self.k - 1, k_to=self.k,
                avg_before=avg_before, avg_after=self.average_shard_bytes(),
            ))
            rebalanced = True
        if rebalanced:
            self.policy_log.append((height, self.k))
            changed = set(range(1 << self.k))

        leaves = {}
        for idx in sorted(changed):
            encoded = encode_shard_coins(self.shards[idx])
            key = (self.k, idx)
            self.versions[key] = self.versions.get(key, ()) + ((height, encoded),)
            leaves[idx] = shard_leaf_hash(encoded)
        if rebalanced:
            self._frozen[k_before] = (height - 1, self._levels)
            self._levels = pack_levels([leaves[i] for i in range(1 << self.k)])
        else:
            update_levels(self._levels, leaves)
        self.height = height
        self.root_log[height] = self.current_root
        self.bytes_log.append(self.total_shard_bytes())
        self.touched_log[height] = TouchedRecord(
            indices=range(1 << k_before) if rebalanced else frozenset(changed),
            k=k_before,
            rebalanced=rebalanced,
        )
        return self.current_root

    def undo_block(self) -> None:
        """Reverse the newest applied block, leaving the store exactly as
        it was before it, history included. The shards it changed are
        reloaded from their previous versions."""
        if self.height is None:
            raise HistoryUnavailableError("no applied block to undo")
        height = self.height
        del self.root_log[height]
        self.bytes_log.pop()
        record = self.touched_log.pop(height)
        for idx in range(1 << self.k) if record.rebalanced else record.indices:
            key = (self.k, idx)
            if len(self.versions[key]) > 1:
                self.versions[key] = self.versions[key][:-1]
            else:
                del self.versions[key]
        if record.rebalanced:
            self.policy_log.pop()
            while self.rebalance_log and self.rebalance_log[-1].height == height:
                self.rebalance_log.pop()
            live = [coin for coins in self.shards.values() for coin in coins]
            self.k = record.k
            self.shards, self._coin_count = {}, 0
            self._reload(range(1 << self.k), height - 1, live)
            self._levels = self._frozen.pop(self.k)[1]
        else:
            live = [coin for idx in record.indices for coin in self.shards[idx]]
            reloaded = self._reload(record.indices, height - 1, live)
            update_levels(self._levels, {i: shard_leaf_hash(enc) for i, enc in reloaded.items()})
        self.pending = self._undo_pending.pop()
        self.height = height - 1 if height else None

    def _reload(self, indices, height: int, live: list[Coin]) -> dict[int, bytes]:
        """Set shards to their versions as of ``height``; returns those
        encodings. Coins still ``live`` keep their objects, which share
        bytes with the transactions that created them."""
        live_at = {coin.outpoint: coin for coin in live}
        reloaded = {}
        for idx in indices:
            encoded = self._version_at(self.k, idx, height)
            coins = [live_at.get(c.outpoint, c) for c in Shard(idx, encoded).coins]
            self._coin_count += len(coins) - len(self.shards.get(idx, ()))
            self.shards[idx] = coins
            reloaded[idx] = encoded
        return reloaded

    def rewind_to(self, height: int) -> None:
        """Undo blocks until ``height`` is the newest applied one."""
        if self.height is None or not 0 <= height <= self.height:
            raise HistoryUnavailableError(f"cannot rewind to height {height}")
        while self.height > height:
            self.undo_block()

    def clone(self) -> "VersionedShardStore":
        """An independent deep copy; block application never needs one."""
        return copy.deepcopy(self)

    def _insert(self, coin: Coin) -> int:
        idx = shard_key(coin.outpoint.txid, self.k)
        if not insert_coin(self.shards[idx], coin):
            raise InconsistentStateError(f"duplicate coin {coin.outpoint}")
        self._coin_count += 1
        return idx

    def _remove(self, outpoint: OutPoint) -> int:
        idx = shard_key(outpoint.txid, self.k)
        if not remove_coin(self.shards[idx], outpoint):
            raise InconsistentStateError(f"spent coin {outpoint} not in store")
        self._coin_count -= 1
        return idx

    # -- history ----------------------------------------------------------

    def state_before(self, height: int, indices: set[int]) -> tuple[dict[int, Shard], PartialMerkleTree]:
        """Shards and proof for the state the given block was applied to.

        The returned partial tree recomputes the root committed at
        ``height - 1`` and includes exactly ``indices``. It is cut from
        the newest tree at that height's ``k`` (the live one, or the one
        kept when the tree split away from that ``k``), with only the
        shards changed since put back to their old versions and re-hashed.
        The shards are the encodings the store keeps, served undecoded.
        """
        if self.height is None or not 1 <= height <= self.height + 1:
            raise HistoryUnavailableError(f"no history for height {height}")
        kb = self.k_at(height - 1)
        if not all(0 <= i < (1 << kb) for i in indices):
            raise ValueError("shard index out of range for the tree at that height")
        include = set(indices)
        newest, levels = (self.height, self._levels) if kb == self.k else self._frozen[kb]
        since = set().union(*(self.touched_log[h].indices for h in range(height, newest + 1)))
        encodings = {i: self._version_at(kb, i, height - 1) for i in since | include}
        if since:
            levels = [bytearray(level) for level in levels]
            update_levels(levels, {i: shard_leaf_hash(encodings[i]) for i in since})
        return {i: Shard(i, encodings[i]) for i in indices}, partial_from_levels(levels, include)

    def _version_at(self, k: int, index: int, height: int) -> bytes:
        for h, encoded in reversed(self.versions.get((k, index), ())):
            if h <= height:
                return encoded
        return EMPTY_SHARD_BYTES
