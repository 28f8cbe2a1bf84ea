"""Sharded UTXO set: a trie over txid prefixes, an undo journal and a root.

Coins are bucketed by the bits of their creating txid (byte 0 first,
most significant bit first). The shards are the leaves of a binary trie
over those bits, numbered heap-style (``merkle.trie_walk``): the root is
1 and node n has children 2n and 2n+1, so a txid's node at depth d is
``(1 << d) | shard_key(txid, d)`` and a leaf at depth d holds every coin
whose txid starts with its d bits. A store starts as the complete trie of
depth ``initial_k``. After every block it commits to the trie's root. It
keeps, for each of the last ``HISTORY_HORIZON`` blocks, the leaves that
block replaced, so it can prove what any leaf looked like just before a
recent block, and undo back to any height at or above its ``floor``.

Two rules shape the commitment; :class:`ShardView` holds the one
implementation of each, which the store and a diet node both run:

* The committed root for a block covers the state after that block's
  non-coinbase transactions. The block's own reward coins depend on the
  coinbase txid, which embeds the root itself, so they cannot be under
  it; they are parked in ``pending`` and placed first when the next
  block opens its view: spendable at once, committed one block later.

* After the body, each leaf the block edited whose bytes exceed
  ``size_cap`` splits by its next txid bit, and each child over the cap
  splits again, down to depth 32, as extendible hashing splits only the
  bucket that overflows (Fagin et al., ACM TODS 1979). The split runs
  before the root is computed, so committed roots describe the split
  trie, and it reads only the leaves the block edited: a verifier
  holding those knows every split the block makes. A leaf's coins are
  in outpoint order, so the next bit cuts them into two runs: each
  child is a slice of its parent's coin list and bytes, and no coin is
  re-bucketed.

A block is applied in three steps: ``open`` returns a view of the live
shards, on which the body rules run; ``commit`` closes the view and
records it; ``seal`` parks the coinbase's reward coins. A body that
fails before ``commit`` leaves the store as it was. A node mining on its
own tip commits the body, builds the coinbase on the returned root and
seals the block, or undoes it.

The store keeps the hash of every node of its trie, so a block re-hashes
only the paths above the leaves it left, split children included.

History is an undo journal with one entry per height, as Bitcoin Core
keeps one undo record per block: ``versions[h]`` maps each leaf block
``h`` edited, a leaf of the trie before it, to the coin list the block
replaced. The store never edits a list in place (a view edits its own
copy), so the entry shares it, and ``undo_block`` drops every live leaf
at or below each key, then puts exactly those lists back; only the
``pending`` list each block replaced is kept apart. Previewing a root,
dropping a block whose commitment is wrong and switching branches are
all apply-then-undo; no block application copies the store. Only a
forger's replica starts from a copy (``clone``), which copies the
containers and shares what they hold.

``state_before`` merges the journal from the tip down to the queried
height, the oldest entry winning, and drops a key below another (it is a
leaf only after a later split). It re-hashes the paths of the merged
leaves over the live node hashes, so a recent height costs
O((|indices| + leaves changed since) * depth) hashes. A proof encodes
the leaves it serves: a :class:`Shard` is its wire bytes, keyed by its
id, unpacked into coins when a reader asks for them. A shard's
encoding is its coins' bytes alone, in outpoint order, and its leaf hash
(:func:`merkle.trie_leaf`) covers those bytes; it carries no count, so
no rule limits how many coins a shard holds.

History is bounded. Committing height ``h`` prunes height
``p = h - HISTORY_HORIZON``: it drops the entry of ``p``, which no state
at or above ``p`` reads. ``p`` becomes the ``floor``: ``state_before``,
``undo_block`` and ``rewind_to`` raise :class:`HistoryUnavailableError`
for a state below it, and an undo does not lower it, so the journal and
the pending lists are kept only for the heights above it. The store also
keeps one small record per height (how many leaves the block edited, its
splits, ``k`` and the shard bytes after it); those stay whole.
"""

from __future__ import annotations

import bisect
import copy
import operator
import struct
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .chain import COIN_SIZE, KIND_PAYMENT, MAX_INITIAL_K, MIN_SIZE_CAP, OutPoint, Transaction, txid
from .errors import DecodeError, HistoryUnavailableError, InconsistentStateError
from .merkle import trie_leaf, trie_walk

# Blocks of shard history a store keeps below its tip: Bitcoin Core's
# pruned minimum (MIN_BLOCKS_TO_KEEP). Node policy, not consensus; at least 1.
HISTORY_HORIZON = 288

# A leaf at this depth never splits: shard keys are a txid's first 32 bits.
MAX_DEPTH = 32

# start depth -> the shifts that take a depth-32 node id to its ancestor
# at each depth, nearest depth first: d, d + 1, d - 1, d + 2, d - 2, ...
_SHIFTS = tuple(tuple(MAX_DEPTH - d for d in sorted(range(MAX_DEPTH + 1),
                                                    key=lambda d: (abs(d - start), d < start)))
                for start in range(MAX_DEPTH + 1))


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
_OUTPOINT = attrgetter("outpoint")


def encode_shard_coins(coins: list[Coin]) -> bytes:
    """A shard's wire bytes: its coins, each packed in one call (txids
    and challenges are always 32 bytes)."""
    pack = _COIN.pack
    return b"".join([pack(outpoint.txid, outpoint.index, value, challenge)
                     for outpoint, value, challenge in coins])


@dataclass(frozen=True, slots=True)
class Shard:
    """One shard as it travels: its wire bytes (its coins in outpoint
    order), kept under its leaf id by whoever holds it. Each read of
    :attr:`coins` unpacks the bytes anew, so a reader reads it once."""
    encoded: bytes

    @classmethod
    def of_coins(cls, coins) -> "Shard":
        return cls(encode_shard_coins(list(coins)))

    @property
    def coins(self) -> tuple[Coin, ...]:
        """The coins, unpacked from the wire bytes on each read."""
        # tuple.__new__ builds each NamedTuple without its Python-level constructor
        new = tuple.__new__
        return tuple([new(Coin, (new(OutPoint, (tid, n)), value, challenge))
                      for tid, n, value, challenge in _COIN.iter_unpack(self.encoded)])

    @property
    def leaf_hash(self) -> bytes:
        return trie_leaf(self.encoded)


def decode_shard(data: bytes) -> Shard:
    """A shard from its wire bytes, which must be whole coins in order.
    The order is checked on the unpacked fields, as a flat
    ``(txid, index, value, challenge)`` orders as its :class:`Coin` does;
    no coin is built until a reader asks for the shard's coins."""
    if len(data) % COIN_SIZE:
        raise DecodeError("shard bytes are not whole coins", len(data))
    fields = list(_COIN.iter_unpack(data))
    if not all(map(operator.le, fields, fields[1:])):
        raise DecodeError("shard coins out of order", len(data))
    return Shard(data)


class ShardView:
    """One block's edits to the shards: the state transition both the
    store (over all its leaves) and a diet node (over the leaves a peer
    served, unpacked once their proof has checked) run. It places
    ``pending``, the reward coins of the block before, then absorbs the
    body through the coin-view interface the body rules read, and
    :meth:`close` finishes the block. ``shards`` holds each leaf's coins
    by id; a coin's leaf is the held id on its txid's path. The leaves
    handed in never change: an edit goes to the view's own copy of the
    leaf (``edited``), so dropping a view drops its edits. An edit the
    leaves cannot take (a leaf not held, a coin already there, a spent
    coin missing) is an :class:`InconsistentStateError`.

    The held leaves are prefix-free (the store's by construction, a diet
    node's because ``merkle.trie_root`` refused an ancestor held beside
    its descendant before the view was built), so a txid's path meets at
    most one. A lookup looks for it from ``depth``, the depth of the
    leaf found last, nearest depths first: leaves cluster at a few
    depths, so most lookups test one or two.
    """

    def __init__(self, shards: Mapping[int, Sequence[Coin]], pending: Iterable[Coin], height: int):
        self.shards = shards
        self.height = height
        self.edited: dict[int, list[Coin]] = {}  # id -> the view's copy of that leaf
        self.depth = 0  # where the next lookup starts: the depth of the leaf found last
        for coin in pending:
            self.insert(coin)

    def _locate(self, outpoint: OutPoint, edit: bool) -> tuple[Sequence[Coin], int, bool]:
        """The leaf ``outpoint`` belongs in, where in it, and whether it
        is there; ``edit`` makes that leaf the view's own copy. Depths
        are tested from ``depth`` outwards, and the leaf's depth becomes
        the next start; a coin whose path meets no held leaf has tested
        every depth."""
        path = 1 << MAX_DEPTH | shard_key(outpoint.txid, MAX_DEPTH)  # its depth-32 node
        shards = self.shards
        for shift in _SHIFTS[self.depth]:
            idx = path >> shift
            if idx in shards:
                break
        else:
            raise InconsistentStateError(f"no shard held for {outpoint}")
        self.depth = MAX_DEPTH - shift
        shard = self.edited.get(idx)
        if shard is None:
            shard = shards[idx]
            if edit:
                shard = self.edited[idx] = list(shard)
        i = bisect.bisect_left(shard, outpoint, key=_OUTPOINT)
        return shard, i, i < len(shard) and shard[i].outpoint == outpoint

    def get_coin(self, outpoint: OutPoint) -> Coin | None:
        shard, i, found = self._locate(outpoint, False)
        return shard[i] if found else None

    def insert(self, coin: Coin) -> None:
        shard, i, found = self._locate(coin.outpoint, True)
        if found:
            raise InconsistentStateError(f"duplicate coin {coin.outpoint}")
        shard.insert(i, coin)

    def absorb(self, tx: Transaction) -> None:
        """Spend the tx's inputs and add its payment outputs."""
        for inp in tx.inputs:
            shard, i, found = self._locate(inp.prevout, True)
            if not found:
                raise InconsistentStateError(f"spent coin {inp.prevout} not held")
            del shard[i]
        for coin in coins_of(tx):
            self.insert(coin)

    def close(self, size_cap: int) -> dict[int, bytes]:
        """Finish the block: split each edited leaf over ``size_cap``
        bytes by its next txid bit, and each child over it again, down to
        depth 32. Returns the hashes of the leaves the edited ones became
        (each itself, unless it split), by id; ``leaves`` holds their
        coin lists and ``splits`` each split as (id, bytes, bytes of its
        left child). Each leaf is packed once: a child's coins and bytes
        are slices of its parent's."""
        self.leaves: dict[int, list[Coin]] = {}
        self.splits: list[tuple[int, int, int]] = []
        hashes: dict[int, bytes] = {}
        work = [(idx, coins, encode_shard_coins(coins))
                for idx, coins in sorted(self.edited.items(), reverse=True)]
        while work:
            idx, coins, encoded = work.pop()
            if len(encoded) <= size_cap or idx >> MAX_DEPTH:
                self.leaves[idx] = coins
                hashes[idx] = trie_leaf(encoded)
                continue
            depth = idx.bit_length()  # the children's
            right = 2 * idx + 1
            bound = ((right ^ 1 << depth) << (MAX_DEPTH - depth)).to_bytes(4, "big")
            cut = bisect.bisect_left(coins, bound, key=lambda coin: coin.outpoint.txid[:4])
            at = COIN_SIZE * cut
            self.splits.append((idx, len(encoded), at))
            work += [(right, coins[cut:], encoded[at:]), (2 * idx, coins[:cut], encoded[:at])]
        return hashes


@dataclass(frozen=True)
class RebalanceStep:
    """One leaf split: its id, its bytes and its two children's bytes."""
    height: int
    shard: int
    bytes_before: int
    bytes_after: tuple[int, int]


@dataclass(frozen=True)
class TouchedRecord:
    """What a block's application did, in numbers: how many leaves it
    edited (the keys of its journal entry, above the floor), ``k``
    after it, the shard bytes after it, the bytes of the largest leaf
    above depth 32 it left, and its splits, each as (id, bytes, bytes of
    its left child)."""
    touched: int
    k_after: int
    shard_bytes: int
    largest: int
    splits: tuple[tuple[int, int, int], ...] = ()

    @property
    def rebalanced(self) -> bool:
        return bool(self.splits)


@dataclass
class VersionedShardStore:
    initial_k: int = 0
    size_cap: int = 1024
    shards: dict[int, list[Coin]] = field(init=False)  # leaf id -> its coins
    pending: list[Coin] = field(init=False, default_factory=list)
    height: int | None = field(init=False, default=None)
    # lowest height whose state the store can rebuild; -1: the empty store
    floor: int = field(init=False, default=-1)
    # height -> {leaf id: the coin list that block replaced}, every height
    # above the floor in height order. No entry, and no list in an entry
    # or in ``shards``, changes once written: an edit goes to a view's
    # copy, so entries, undos and clones share the lists.
    versions: dict[int, dict[int, list[Coin]]] = field(init=False, default_factory=dict)
    # height -> that block's record, every committed height in height order
    touched_log: dict[int, TouchedRecord] = field(init=False, default_factory=dict)
    _nodes: dict[int, bytes] = field(init=False)  # node id -> hash, every node of the trie
    # the pending list each block above the floor replaced, oldest first
    _undo_pending: list[list[Coin]] = field(init=False, default_factory=list)

    def __post_init__(self):
        if not 0 <= self.initial_k <= MAX_INITIAL_K:
            raise ValueError(f"initial_k must be in [0, {MAX_INITIAL_K}]")
        if self.size_cap < MIN_SIZE_CAP:
            raise ValueError(f"size_cap must be at least {MIN_SIZE_CAP}, one coin")
        self.shards = {i: [] for i in range(1 << self.initial_k, 2 << self.initial_k)}
        # a complete trie: the walk asks for no sibling
        self._nodes = trie_walk(dict.fromkeys(self.shards, trie_leaf(b"")), {}.get)

    # -- current-state queries -------------------------------------------

    @property
    def k(self) -> int:
        """The depth of a complete trie with as many leaves: the largest
        ``k`` with ``2**k`` leaves or fewer."""
        return len(self.shards).bit_length() - 1

    @property
    def current_root(self) -> bytes:
        return self._nodes[1]

    def all_coins(self) -> Iterator[Coin]:
        for coins in self.shards.values():
            yield from coins
        yield from self.pending

    def total_shard_bytes(self) -> int:
        return 0 if self.height is None else self.touched_log[self.height].shard_bytes

    def utxo_root(self) -> bytes:
        return self.current_root

    @property
    def rebalance_log(self) -> list[RebalanceStep]:
        """Every leaf split, in height order."""
        return [RebalanceStep(height=h, shard=idx, bytes_before=before,
                              bytes_after=(left, before - left))
                for h, record in self.touched_log.items()
                for idx, before, left in record.splits]

    # -- mutation ---------------------------------------------------------

    @property
    def next_height(self) -> int:
        return 0 if self.height is None else self.height + 1

    def open(self, height: int) -> ShardView:
        """The view a block at ``height`` is absorbed on: the live leaves
        with the pending reward coins placed. The store is unchanged
        until :meth:`commit`; dropping the view drops the block."""
        if height != self.next_height:
            raise InconsistentStateError(f"expected height {self.next_height}, got {height}")
        return ShardView(self.shards, self.pending, height)

    def commit(self, view: ShardView) -> bytes:
        """Close a view :meth:`open` returned and make it the store's
        state, history and all, except for the block's reward coins:
        :meth:`seal` adds them, and :meth:`undo_block` reverses either
        state. Returns the root the block's coinbase must commit. If
        closing the view raises, the store is left as it was."""
        hashes = view.close(self.size_cap)
        height = view.height
        replaced = self.versions[height] = {idx: self.shards.pop(idx) for idx in view.edited}
        self.shards.update(view.leaves)
        self._nodes.update(trie_walk(hashes, self._nodes.get))
        grown = sum(map(len, view.leaves.values())) - sum(map(len, replaced.values()))
        self.touched_log[height] = TouchedRecord(
            touched=len(replaced), k_after=self.k,
            shard_bytes=self.total_shard_bytes() + COIN_SIZE * grown,
            largest=max((COIN_SIZE * len(coins) for idx, coins in view.leaves.items()
                         if not idx >> MAX_DEPTH), default=0),
            splits=tuple(view.splits))
        self._undo_pending.append(self.pending)
        self.pending = []
        self.height = height
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
        stays dropped and the floor stays. Each key of its journal entry
        loses the leaves it split into and the nodes between, and gets
        back the very list the entry holds."""
        if self.height is None:
            raise HistoryUnavailableError("no applied block to undo")
        height = self.height
        if height - 1 < self.floor:
            raise HistoryUnavailableError(f"height {height - 1} is below the floor {self.floor}")
        del self.touched_log[height]
        replaced = self.versions.pop(height)
        below = [*replaced]
        while below:
            idx = below.pop()
            del self._nodes[idx]
            if self.shards.pop(idx, None) is None:  # an inner node the block made
                below += (2 * idx, 2 * idx + 1)
        self.shards.update(replaced)
        self._nodes.update(trie_walk(
            {idx: trie_leaf(encode_shard_coins(coins)) for idx, coins in replaced.items()},
            self._nodes.get))
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
        state (a forger's replica). Every container is copied, the node
        hashes and pending lists included; the coin lists, journal
        entries and records they hold never change in place and are
        shared."""
        twin = copy.copy(self)
        twin.shards = dict(self.shards)
        twin.pending = list(self.pending)
        twin.versions = dict(self.versions)
        twin.touched_log = dict(self.touched_log)
        twin._nodes = dict(self._nodes)
        twin._undo_pending = [list(replaced) for replaced in self._undo_pending]
        return twin

    # -- history ----------------------------------------------------------

    def state_before(self, height: int, indices: set[int]) -> tuple[dict[int, Shard], tuple[bytes, ...]]:
        """Leaves and proof for the state the given block was applied to.

        Returns the leaves at ``indices``, which must be leaves of that
        state, and the trie siblings, in walk order, that take them to
        the root committed at ``height - 1``, which must be at or above
        the floor. The journal is merged from the tip down to ``height``,
        the oldest entry winning; a key below another is dropped. Each
        merged leaf is encoded once and their paths are re-hashed over
        the live node hashes; other leaves are encoded from the live
        lists. An index that is no leaf of that state is a ValueError.
        """
        if self.height is None or not max(self.floor, 0) + 1 <= height <= self.height + 1:
            raise HistoryUnavailableError(f"no history for height {height}")
        merged: dict[int, list[Coin]] = {}
        for h in range(self.height, height - 1, -1):
            merged |= self.versions[h]
        since = {idx: encode_shard_coins(coins) for idx, coins in merged.items()
                 if not any(idx >> up in merged for up in range(1, idx.bit_length()))}
        before = trie_walk({idx: trie_leaf(encoded) for idx, encoded in since.items()},
                           self._nodes.get)
        served = {}
        for idx in indices:
            if idx in since:
                served[idx] = Shard(since[idx])
            elif idx in self.shards and not any(idx >> up in since for up in range(idx.bit_length())):
                served[idx] = Shard(encode_shard_coins(self.shards[idx]))
            else:
                raise ValueError(f"shard {idx} is no leaf before height {height}")
        siblings: list[bytes] = []

        def sibling(idx: int) -> bytes:
            siblings.append(before.get(idx) or self._nodes[idx])
            return siblings[-1]
        trie_walk({idx: before.get(idx) or self._nodes[idx] for idx in served}, sibling)
        return served, tuple(siblings)
