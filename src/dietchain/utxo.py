"""Sharded UTXO set with a per-height undo journal and a Merkle root.

Coins are bucketed by the first ``k`` bits of their creating txid (byte
0 first, most significant bit first), giving ``2**k`` shards. After every
block the store commits to the root of a tree over all shard hashes,
bound to the number of coins in the shards (:func:`committed_root`). It
keeps, for each of the last ``HISTORY_HORIZON`` blocks, the shards that
block replaced, so it can prove what any shard looked like just before a
recent block, and undo back to any height at or above its ``floor``.

Two rules shape the commitment; :class:`ShardView` holds the one
implementation of each, which the store and a diet node both run:

* The committed root for a block covers the state after that block's
  non-coinbase transactions. The block's own reward coins depend on the
  coinbase txid, which embeds the root itself, so they cannot be under
  it; they are parked in ``pending`` and placed first when the next
  block opens its view: spendable at once, committed one block later.

* When the coins' bytes exceed ``size_cap`` per shard on average,
  ``k`` increments (splitting every shard in two) until the average
  fits. The split runs before root computation, so committed
  roots always describe the post-split tree, and it is a pure function
  of the coin count, which the root commits: a verifier holding only
  the shards a block touched knows when a split is due, and a view
  without every shard refuses a block that must split.
  A shard's coins are in outpoint order, so the txid bits it gains cut
  them into contiguous runs: each child is a slice of its parent's coin
  list and of its parent's bytes, and no coin is re-bucketed.

A block is applied in three steps: ``open`` returns a view of the live
shards, on which the body rules run; ``commit`` closes the view and
records it; ``seal`` parks the coinbase's reward coins. A body that
fails before ``commit`` leaves the store as it was. A node mining on its
own tip commits the body, builds the coinbase on the returned root and
seals the block, or undoes it.

The store keeps every level of its shard tree, so a block re-hashes only
the paths above the shards it touched; a split rebuilds the tree once.

History is an undo journal with one entry per height, as Bitcoin Core
keeps one undo record per block: ``versions[h]`` maps each shard block
``h`` changed, in its pre-block ``k`` (every shard, for a split), to the
coin list the block replaced. The store never edits a list in place (a
view edits its own copy), so the entry shares it, and ``undo_block``
puts exactly those lists back; only the ``pending`` list each block
replaced is kept apart. Previewing a root, dropping a block whose
commitment is wrong and switching branches are all apply-then-undo; no
block application copies the store. Only a forger's replica starts from
a copy (``clone``), which copies the containers and shares what they hold.

A split keeps no old tree: its entry holds every shard of the coarser
``k``. ``state_before`` merges the journal from the tip down to the
queried height and re-hashes, on a copy of the live tree, the paths of
only the shards changed since, so a recent height costs O((|indices| +
shards changed since) * k) hashes; across a split it builds the tree
from the merged shards, as an undo of the split does. A proof encodes the
shards it serves: a :class:`Shard` is its wire bytes, keyed by its
index, decoded only where a reader needs its coins. A shard's encoding
is its coins' bytes alone, in outpoint order, and its leaf
(:func:`shard_leaf`) is the hash of those bytes (of ``b""`` for an empty
shard); it carries no count, so no rule limits how many coins a shard holds.

History is bounded. Committing height ``h`` prunes height
``p = h - HISTORY_HORIZON``: it drops the entry of ``p``, which no state
at or above ``p`` reads. ``p`` becomes the ``floor``: ``state_before``,
``undo_block`` and ``rewind_to`` raise :class:`HistoryUnavailableError`
for a state below it, and an undo does not lower it, so the journal and
the pending lists are kept only for the heights above it. The store also
keeps one small record per height (how many shards the block touched,
``k`` before and after it, the shard bytes after it); those stay whole.
"""

from __future__ import annotations

import bisect
import copy
import operator
import struct
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .chain import COIN_SIZE, KIND_PAYMENT, MIN_SIZE_CAP, OutPoint, Transaction, txid
from .crypto import hash256
from .errors import DecodeError, HistoryUnavailableError, InconsistentStateError
from .merkle import PartialMerkleTree, pack_levels, partial_from_levels, update_levels

# Blocks of shard history a store keeps below its tip: Bitcoin Core's
# pruned minimum (MIN_BLOCKS_TO_KEEP). Node policy, not consensus; at least 1.
HISTORY_HORIZON = 288


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


def coins_of(tx: Transaction) -> list[Coin]:
    """The spendable coins a transaction creates (payment outputs only)."""
    tid = txid(tx)
    return [
        Coin(OutPoint(tid, n), out.value, out.payload)
        for n, out in enumerate(tx.outputs)
        if out.kind == KIND_PAYMENT
    ]


_COIN = struct.Struct("<32sIQ32s")  # a coin's wire fields, in Coin's order
_TXID = attrgetter("outpoint.txid")


def encode_shard_coins(coins: list[Coin]) -> bytes:
    """A shard's wire bytes: its coins, each packed in one call (txids
    and challenges are always 32 bytes)."""
    pack = _COIN.pack
    return b"".join([pack(outpoint.txid, outpoint.index, value, challenge)
                     for outpoint, value, challenge in coins])


def shard_leaf(encoded: bytes) -> bytes:
    """A shard's leaf in the shard tree, from its wire bytes."""
    return hash256(encoded)


_COUNT = struct.Struct("<Q")  # a coin count, as committed and as served


def committed_root(tree_root: bytes, coin_count: int) -> bytes:
    """The root a block commits: its shard tree's root bound to the
    number of coins in the shards. The 40-byte preimage cannot pose as a
    64-byte inner node or a shard of 76-byte coins."""
    return hash256(tree_root + _COUNT.pack(coin_count))


@dataclass(frozen=True, slots=True)
class Shard:
    """One shard as it travels: its wire bytes (its coins in outpoint
    order), kept under its index by whoever holds it. A shard read off
    the wire (:func:`decode_shard`) keeps the coins it was checked with,
    so a reader unpacks it once."""
    encoded: bytes
    decoded: tuple[Coin, ...] | None = field(default=None, compare=False, repr=False)

    @classmethod
    def of_coins(cls, coins) -> "Shard":
        return cls(encode_shard_coins(list(coins)))

    @property
    def coins(self) -> tuple[Coin, ...]:
        """The coins: the decoded ones if kept, else decoded from the
        wire bytes on each call."""
        if self.decoded is not None:
            return self.decoded
        return _unpack_coins(self.encoded)

    @property
    def leaf_hash(self) -> bytes:
        return shard_leaf(self.encoded)


def _unpack_coins(data: bytes) -> tuple[Coin, ...]:
    # tuple.__new__ builds each NamedTuple without its Python-level constructor
    new = tuple.__new__
    return tuple([new(Coin, (new(OutPoint, (tid, n)), value, challenge))
                  for tid, n, value, challenge in _COIN.iter_unpack(data)])


def decode_shard(data: bytes) -> Shard:
    """A shard from its wire bytes, which must be whole coins in order.
    The bytes are unpacked once: the coins built from them are checked
    for order (a coin orders as its raw fields do) and kept."""
    if len(data) % COIN_SIZE:
        raise DecodeError("shard bytes are not whole coins", len(data))
    coins = _unpack_coins(data)
    if not all(map(operator.le, coins, coins[1:])):
        raise DecodeError("shard coins out of order", len(data))
    return Shard(data, coins)


class ShardView:
    """One block's edits to the shards: the state transition both the
    store (over all its shards) and a diet node (over the shards a peer
    served) run. It places ``pending``, the reward coins of the block
    before, then absorbs the body through the coin-view interface the
    body rules read, and :meth:`close` finishes the block. The shards
    handed in never change: an edit goes to the view's own copy of the
    shard (``edited``), so dropping a view drops its edits. An edit the
    shards cannot take (a shard not held, a coin already there, a spent
    coin missing) is an :class:`InconsistentStateError`.
    """

    def __init__(self, shards: Mapping[int, Sequence[Coin]], k: int, coin_count: int,
                 pending: Iterable[Coin], height: int,
                 encoded: Mapping[int, bytes] | None = None):
        self.shards = shards
        # index -> wire bytes of that shard as handed in, where the holder has them
        self.encoded = encoded or {}
        self.k = k
        self.coin_count = coin_count  # coins in all shards, held or not
        self.height = height
        self.edited: dict[int, list[Coin]] = {}  # index -> the view's copy of that shard
        for coin in pending:
            self.insert(coin)

    def _locate(self, outpoint: OutPoint, edit: bool) -> tuple[list[Coin], int, bool]:
        """The shard ``outpoint`` belongs in, where in it, and whether it
        is there; ``edit`` makes that shard the view's own copy."""
        idx = shard_key(outpoint.txid, self.k)
        shard = self.edited.get(idx)
        if shard is None:
            shard = self.shards.get(idx)
            if shard is None:
                raise InconsistentStateError(f"shard {idx} needed but not held")
            if edit:
                shard = self.edited[idx] = list(shard)
        i = bisect.bisect_left(shard, outpoint, key=attrgetter("outpoint"))
        return shard, i, i < len(shard) and shard[i].outpoint == outpoint

    def get_coin(self, outpoint: OutPoint) -> Coin | None:
        shard, i, found = self._locate(outpoint, False)
        return shard[i] if found else None

    def insert(self, coin: Coin) -> None:
        shard, i, found = self._locate(coin.outpoint, True)
        if found:
            raise InconsistentStateError(f"duplicate coin {coin.outpoint}")
        shard.insert(i, coin)
        self.coin_count += 1

    def absorb(self, tx: Transaction) -> None:
        """Spend the tx's inputs and add its payment outputs."""
        for inp in tx.inputs:
            shard, i, found = self._locate(inp.prevout, True)
            if not found:
                raise InconsistentStateError(f"spent coin {inp.prevout} not held")
            del shard[i]
            self.coin_count -= 1
        for coin in coins_of(tx):
            self.insert(coin)

    def _split_k(self, size_cap: int) -> int:
        """The ``k`` the split rule gives the view's coins: while the
        ``2**k`` shards average over ``size_cap`` bytes, one more txid
        bit. A due split needs every shard."""
        k = self.k
        while COIN_SIZE * self.coin_count > size_cap << k:
            if k == 32:
                raise InconsistentStateError("shard key space exhausted")
            k += 1
        if k != self.k and len(self.shards) != 1 << self.k:
            raise InconsistentStateError("a due split needs every shard")
        return k

    def close(self, size_cap: int) -> dict[int, bytes]:
        """Finish the block: the split (:meth:`_split_k`). Returns the leaf
        hashes of the edited shards (all, after a split) by index.

        A split cuts each shard into the runs the txid bits it gains give,
        found by bisection, as its coins are in outpoint order: each child
        is a slice of the shard's coin list and of its bytes. The bytes are
        the ones handed in for a shard the view did not edit; any other
        shard is packed once."""
        k = self._split_k(size_cap)
        if k == self.k:
            return {idx: shard_leaf(encode_shard_coins(self.edited[idx]))
                    for idx in sorted(self.edited)}
        bits = k - self.k
        split: dict[int, list[Coin]] = {}
        leaves: dict[int, bytes] = {}
        for idx in range(1 << self.k):
            coins, encoded = self.edited.get(idx), None
            if coins is None:
                coins, encoded = self.shards[idx], self.encoded.get(idx)
            if encoded is None:
                encoded = encode_shard_coins(coins)
            children = range(idx << bits, (idx + 1) << bits)
            cuts = [0]
            for child in children[1:]:
                bound = (child << (32 - k)).to_bytes(4, "big")  # the child's first txid prefix
                cuts.append(bisect.bisect_left(coins, bound, cuts[-1], key=_TXID))
            cuts.append(len(coins))
            for child, start, end in zip(children, cuts, cuts[1:]):
                split[child] = coins[start:end]
                leaves[child] = shard_leaf(encoded[COIN_SIZE * start:COIN_SIZE * end])
        self.k, self.shards, self.edited = k, split, split
        return leaves


@dataclass(frozen=True)
class RebalanceStep:
    height: int
    k_from: int
    k_to: int
    avg_before: float
    avg_after: float


@dataclass(frozen=True)
class TouchedRecord:
    """What a block's application did, in numbers: how many shards it
    changed, counted in the tree its proofs are checked against (the
    pre-split ``k``, so a split touches all ``2**k``), ``k`` before and
    after it and the shard bytes after it. Which shards, above the floor,
    are the keys of the block's journal entry."""
    touched: int
    k: int
    k_after: int
    shard_bytes: int

    @property
    def rebalanced(self) -> bool:
        return self.k_after != self.k


@dataclass
class VersionedShardStore:
    initial_k: int = 0
    size_cap: int = 1024
    k: int = field(init=False)
    shards: dict[int, list[Coin]] = field(init=False)
    pending: list[Coin] = field(init=False, default_factory=list)
    height: int | None = field(init=False, default=None)
    # lowest height whose state the store can rebuild; -1: the empty store
    floor: int = field(init=False, default=-1)
    # height -> {shard index: the coin list that block replaced}, every
    # height above the floor in height order. No entry, and no list in an
    # entry or in ``shards``, changes once written: an edit goes to a
    # view's copy, so entries, undos and clones share the lists.
    versions: dict[int, dict[int, list[Coin]]] = field(init=False, default_factory=dict)
    # height -> that block's record, every committed height in height order
    touched_log: dict[int, TouchedRecord] = field(init=False, default_factory=dict)
    _levels: list[bytearray] = field(init=False)  # packed shard tree, leaves first
    _coin_count: int = field(init=False, default=0)
    # the pending list each block above the floor replaced, oldest first
    _undo_pending: list[list[Coin]] = field(init=False, default_factory=list)

    def __post_init__(self):
        if not 0 <= self.initial_k <= 32:
            raise ValueError("initial_k must be in [0, 32]")
        if self.size_cap < MIN_SIZE_CAP:
            raise ValueError(f"size_cap must be at least {MIN_SIZE_CAP}, one coin")
        self.k = self.initial_k
        self.shards = {i: [] for i in range(1 << self.k)}
        self._levels = pack_levels([shard_leaf(b"")] * (1 << self.k))

    # -- current-state queries -------------------------------------------

    @property
    def current_root(self) -> bytes:
        return committed_root(bytes(self._levels[-1]), self._coin_count)

    def all_coins(self) -> Iterator[Coin]:
        for i in range(1 << self.k):
            yield from self.shards[i]
        yield from self.pending

    def total_shard_bytes(self) -> int:
        return COIN_SIZE * self._coin_count

    def utxo_root(self) -> bytes:
        return self.current_root

    @property
    def rebalance_log(self) -> list[RebalanceStep]:
        """Every split, one step per txid bit gained, in height order."""
        return [RebalanceStep(height=h, k_from=k, k_to=k + 1,
                              avg_before=record.shard_bytes / (1 << k),
                              avg_after=record.shard_bytes / (1 << (k + 1)))
                for h, record in self.touched_log.items()
                for k in range(record.k, record.k_after)]

    # -- mutation ---------------------------------------------------------

    @property
    def next_height(self) -> int:
        return 0 if self.height is None else self.height + 1

    def open(self, height: int) -> ShardView:
        """The view a block at ``height`` is absorbed on: the live shards
        with the pending reward coins placed. The store is unchanged
        until :meth:`commit`; dropping the view drops the block."""
        if height != self.next_height:
            raise InconsistentStateError(f"expected height {self.next_height}, got {height}")
        return ShardView(self.shards, self.k, self._coin_count, self.pending, height)

    def commit(self, view: ShardView) -> bytes:
        """Close a view :meth:`open` returned and make it the store's
        state, history and all, except for the block's reward coins:
        :meth:`seal` adds them, and :meth:`undo_block` reverses either
        state. Returns the root the block's coinbase must commit. If
        closing the view raises, the store is left as it was."""
        k_before = self.k
        leaves = view.close(self.size_cap)
        height = view.height
        rebalanced = view.k != k_before
        replaced = self.versions[height] = dict(self.shards) if rebalanced else {
            idx: self.shards[idx] for idx in leaves}
        self.k, self._coin_count = view.k, view.coin_count
        self._undo_pending.append(self.pending)
        self.pending = []

        if rebalanced:
            # after a split the view's copies are every shard
            self.shards = view.edited
            self._levels = pack_levels([leaves[i] for i in range(1 << self.k)])
        else:
            self.shards.update(view.edited)
            update_levels(self._levels, leaves)
        self.height = height
        self.touched_log[height] = TouchedRecord(
            touched=len(replaced), k=k_before, k_after=self.k, shard_bytes=self.total_shard_bytes())
        self._prune(height - HISTORY_HORIZON)
        return self.current_root

    def floor_after(self, height: int) -> int:
        """The floor once a block at ``height`` is committed."""
        return max(self.floor, height - HISTORY_HORIZON)

    def _prune(self, height: int) -> None:
        """Make ``height`` the floor, dropping the history no state at or
        above it needs: the journal entry of ``height`` and the pending
        lists of the heights up to it, which no undo can reach."""
        if height <= self.floor:
            return
        del self.versions[height]
        del self._undo_pending[:height - self.floor]
        self.floor = height

    def apply_body(self, txs: Iterable[Transaction], height: int) -> bytes:
        """Open, absorb a block's non-coinbase txs unvalidated, and
        commit; returns the root. A body the store cannot apply (a
        missing input is an InconsistentStateError, not a verdict)
        leaves the store as it was."""
        view = self.open(height)
        for tx in txs:
            view.absorb(tx)
        return self.commit(view)

    def apply_block(self, block, height: int) -> bytes:
        """Apply a block validated before, as a node re-applying its old
        branch does; returns the committed root."""
        coinbase = block.transactions[0]
        if not coinbase.is_coinbase:
            raise InconsistentStateError("block does not start with a coinbase")
        root = self.apply_body(block.transactions[1:], height)
        self.seal(coinbase)
        return root

    def preview_root(self, txs: list[Transaction], height: int) -> bytes:
        """The root a block with these non-coinbase txs would commit;
        the store is left as it was."""
        root = self.apply_body(txs, height)
        self.undo_block()
        return root

    def seal(self, coinbase: Transaction) -> None:
        """Park the reward coins of the block just committed; they enter
        the shards with the next block."""
        self.pending = coins_of(coinbase)

    def undo_block(self) -> None:
        """Reverse the newest applied block, leaving the store as it was
        before it, history included, except that what pruning dropped
        stays dropped and the floor stays. The lists in its journal entry
        go back in place of the block's, as they are; a split's are every
        shard of the coarser ``k``, and its tree is built from them."""
        if self.height is None:
            raise HistoryUnavailableError("no applied block to undo")
        height = self.height
        if height - 1 < self.floor:
            raise HistoryUnavailableError(f"height {height - 1} is below the floor {self.floor}")
        record = self.touched_log.pop(height)
        replaced = self.versions.pop(height)
        leaves = {i: shard_leaf(encode_shard_coins(coins)) for i, coins in replaced.items()}
        if record.rebalanced:
            self.k, self.shards, self._coin_count = record.k, {}, 0
            self._levels = pack_levels([leaves[i] for i in range(1 << self.k)])
        else:
            update_levels(self._levels, leaves)
        for idx, coins in replaced.items():
            self._coin_count += len(coins) - len(self.shards.get(idx, ()))
        self.shards.update(replaced)
        self.pending = self._undo_pending.pop()
        self.height = height - 1 if height else None

    def rewind_to(self, height: int) -> None:
        """Undo blocks until ``height`` is the newest applied one; it must
        be at or above the floor."""
        if self.height is None or not max(self.floor, 0) <= height <= self.height:
            raise HistoryUnavailableError(f"cannot rewind to height {height}")
        while self.height > height:
            self.undo_block()

    def clone(self) -> "VersionedShardStore":
        """An independent copy, for a node that starts from this one's
        state (a forger's replica). Every container is copied, the packed
        tree and pending lists included; the coin lists, journal entries
        and records they hold never change in place and are shared."""
        twin = copy.copy(self)
        twin.shards = dict(self.shards)
        twin.pending = list(self.pending)
        twin.versions = dict(self.versions)
        twin.touched_log = dict(self.touched_log)
        twin._levels = _copy_levels(self._levels)
        twin._undo_pending = [list(replaced) for replaced in self._undo_pending]
        return twin

    # -- history ----------------------------------------------------------

    def state_before(self, height: int, indices: set[int]) -> tuple[dict[int, Shard], PartialMerkleTree]:
        """Shards and proof for the state the given block was applied to.

        The returned partial tree recomputes the root committed at
        ``height - 1``, which must be at or above the floor, and includes
        exactly ``indices``. The journal is merged from the tip down to
        ``height``, the oldest entry winning; a split's entry, every shard
        of the coarser ``k``, starts the merge afresh. Each merged shard is
        encoded once. Across a split the tree is built from them; otherwise
        their paths are re-hashed on a copy of the live tree, and other
        shards are encoded from the live lists. An index outside that tree
        is ``partial_from_levels``' ValueError.
        """
        if self.height is None or not max(self.floor, 0) + 1 <= height <= self.height + 1:
            raise HistoryUnavailableError(f"no history for height {height}")
        merged: dict[int, list[Coin]] = {}
        for h in range(self.height, height - 1, -1):
            merged = ({} if self.touched_log[h].rebalanced else merged) | self.versions[h]
        since = {i: encode_shard_coins(coins) for i, coins in merged.items()}
        leaves = {i: shard_leaf(encoded) for i, encoded in since.items()}
        if self.touched_log[height - 1].k_after != self.k:
            levels = pack_levels([leaves[i] for i in range(len(leaves))])
        else:
            levels = _copy_levels(self._levels)
            update_levels(levels, leaves)
        tree = partial_from_levels(levels, set(indices))
        return {i: Shard(since[i] if i in since else encode_shard_coins(self.shards[i]))
                for i in indices}, tree


def _copy_levels(levels: list[bytearray]) -> list[bytearray]:
    return [bytearray(level) for level in levels]
