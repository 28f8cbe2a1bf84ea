"""Full node: complete validation, canonical state, and query services.

A full node validates every block in full, keeps the sharded UTXO store
for the active branch only, and answers the four queries light clients
need: filtered header/tx sync, committed roots, whole blocks, and the
shards a block touched together with their membership proof.

A block reaches the tip by one path: ``connect_block`` checks its
structure and indexes its header, the header's one check; if its branch
is then the heaviest, the store is undone to the fork (nothing, for a
block on the tip) and the branch applied block by block. Each block is
applied as a mined one is: ``open_block`` runs the body rules on the
store's own view of the tip, walking the body once, and one check of
the coinbase's value and commitment closes it.

A tx enters the pool by one admission step, which checks it against the
tip plus the pool with the body rules. A submit takes it, and so does
every tx of the refit after a tip change (the node's own blocks
included), which empties the pool and admits the orphaned payments and
then the pooled txs the new blocks do not carry.
With a failed switch or own block leaving tip and pool as they were, the
pool always fits the tip: the miner mines all of it, and
``build_template`` is the pool as it stands.

The pool is the node's next block: the store's view of that block with
the pooled txs absorbed, kept with those tx objects in order and their
fees. Admission validates and absorbs only its own tx there, and when
the miner opens a block of exactly those objects, ``open_block`` commits
the kept view with no second pass over the body. Any other body walks
the body rules on a fresh view. Opening any block uses the kept view up;
the next admission first refits the pool onto a fresh view.

The store keeps ``utxo.HISTORY_HORIZON`` blocks of shard history below
the tip, so the node can undo only to its floor. A heavier branch that
forks below the floor it would have once on that branch's tip is
rejected as ``reorg-too-deep`` before anything is undone, and forgotten
as a branch with a bad block is; a block whose branch forks below the
current floor is ``reorg-too-deep`` at once and never indexed. A
pre-state below the floor is ``history-unavailable`` to a peer. Block
bodies stay from genesis, for filtered sync.

Answers are built once and served from what the node keeps. A
``query_block`` or ``query_utxos`` answer depends only on the block, so
its wire bytes are kept by query and block hash until the next tip
change, which drops them all to bound memory: a block asked about by
many clients is proved and encoded once. Filtered sync keeps one record
per block it has scanned: the distinct filter items of the block's txs
and, from the block's first match, its tx-tree levels. It keeps each
filter item's probe digests too. None of these depend on the tip, and
they stay; a branch forgotten after a failed switch takes its blocks'
records with it. Within one query the filter is asked once per distinct
item, and a block none of whose items it may contain is passed over
without looking at its txs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from .chain import (
    COIN_SIZE,
    Block,
    BlockHeader,
    ChainParams,
    Transaction,
    header_hash,
    tx_items,
    tx_touches,
    txid,
)
from .crypto import BloomFilter, probe_digests
from .errors import HistoryUnavailableError, ValidationError
from .headers import HeaderIndex
from .merkle import PartialMerkleTree, pack_levels, partial_from_levels
from .rules import (
    check_block_structure,
    check_coinbase,
    commitment_of,
    connect_body,
    validate_transaction,
)
from .utxo import Shard, ShardView, VersionedShardStore


@dataclass(frozen=True)
class ConnectResult:
    status: str  # 'accepted' | 'rejected' | 'branch' | 'duplicate'
    reason: str | None = None
    height: int | None = None

    @property
    def accepted(self) -> bool:
        return self.status == "accepted"


@dataclass(frozen=True)
class MerkleBlockMatch:
    header: BlockHeader
    tx_tree: PartialMerkleTree
    tx_indices: tuple[int, ...]  # each served tx's index in the block, increasing
    transactions: tuple[Transaction, ...]


@dataclass(frozen=True)
class MerkleBlocksResponse:
    headers: tuple[BlockHeader, ...]
    matches: tuple[MerkleBlockMatch, ...]


@dataclass(frozen=True)
class UtxosResponse:
    shards: dict[int, Shard]
    tree: PartialMerkleTree
    coin_count: int  # coins in all shards before the block


@dataclass(slots=True)
class FilterRecord:
    """What filtered sync keeps of one block: the distinct filter items of
    its txs, in the order they first appear, and its packed tx-tree
    levels, built at its first match."""
    items: tuple[bytes, ...]
    levels: list[bytearray] | None = None

    @classmethod
    def of_block(cls, block: Block) -> "FilterRecord":
        return cls(tuple(dict.fromkeys(
            item for tx in block.transactions for item in tx_items(tx))))


@dataclass
class FullNode:
    params: ChainParams
    check_commitments: bool = True  # off: interop with chains that do not commit
    headers: HeaderIndex = field(init=False)
    blocks: dict[bytes, Block] = field(init=False, default_factory=dict)
    utxo: VersionedShardStore = field(init=False)
    mempool: list[Transaction] = field(init=False, default_factory=list)
    # txids of pooled txs, each verified by this node; rebuilt at every refit
    _pooled: set[bytes] = field(init=False, default_factory=set)
    # (query type, block hash) -> that answer's wire bytes; dropped on a tip change
    _answers: dict[tuple[int, bytes], bytes] = field(init=False, default_factory=dict)
    # the pool as the next block: the pooled tx objects in the order they were
    # admitted, their fees, and the store's view of the next block with them
    # absorbed, which the miner commits as the body. The view is None once a
    # block is opened (a tip change or failed switch opens one, and only the
    # refit after a tip change opens a new view); the next admission refits
    # the pool onto a fresh view first
    _pool_txs: list[Transaction] = field(init=False, default_factory=list)
    _pool_fees: int = field(init=False, default=0)
    _pool_view: ShardView | None = field(init=False, default=None)
    # what filtered sync keeps: block hash -> the block's record, from its
    # first scan; filter item -> its probe digests, from its first scan
    _filter_index: dict[bytes, FilterRecord] = field(init=False, default_factory=dict)
    _probes: dict[bytes, bytes] = field(init=False, default_factory=dict)

    def __post_init__(self):
        self.headers = HeaderIndex(self.params.target_bits)
        self.utxo = VersionedShardStore(
            initial_k=self.params.initial_k, size_cap=self.params.size_cap)

    @property
    def tip_hash(self) -> bytes:
        if self.headers.tip is None:
            raise ValidationError("unknown-block", "node has no chain yet")
        return self.headers.tip

    @property
    def tip_height(self) -> int:
        return self.headers.tip_height

    # -- block intake -------------------------------------------------------

    def connect_block(self, block: Block) -> ConnectResult:
        """Check the structure, index the header (its one check), and
        switch to the block's branch if that is now the heaviest. A block
        whose branch forks below the store's floor is ``reorg-too-deep``
        and not indexed: no switch to that branch could ever run."""
        hh = header_hash(block.header)
        height = block.header.height
        if hh in self.blocks:
            return ConnectResult("duplicate", height=height)
        old_tip = self.headers.tip
        try:
            check_block_structure(block)
            self._check_fork(block.header)
            self.headers.add(block.header)
        except ValidationError as exc:
            return ConnectResult("rejected", exc.code, height)
        self.blocks[hh] = block
        if self.headers.tip == old_tip:
            return ConnectResult("branch", height=height)
        return self._switch_to(old_tip, block)

    def _check_fork(self, header: BlockHeader) -> None:
        """``reorg-too-deep`` if the header's parent is indexed and its
        branch leaves the active chain below the store's floor."""
        if header.prev_hash not in self.headers:
            return  # a genesis, or no parent: the header check decides
        fork = self.headers.active_ancestor_height(header.prev_hash)
        if fork < self.utxo.floor:
            raise ValidationError("reorg-too-deep", f"the branch forks at {fork}, below "
                                  f"the floor {self.utxo.floor}", height=header.height)

    def _switch_to(self, old_tip: bytes | None, block: Block) -> ConnectResult:
        """Make ``block``'s branch, now the heaviest indexed, the active
        one: undo the store to the fork, apply the branch, refit the pool.
        A block on the old tip, or a genesis, is a switch with nothing to
        undo. A fork below the store's floor on the new tip is
        ``reorg-too-deep``. If the switch fails, the old tip is restored
        and the branch is forgotten with every block indexed on it."""
        if old_tip is None or block.header.prev_hash == old_tip:
            fork, old_branch, new_branch = block.header.height - 1, [], [block]
        else:
            fork = self.headers.fork_height(old_tip, self.headers.tip)
            old_branch = self._blocks_above(old_tip, fork)
            new_branch = self._blocks_above(self.headers.tip, fork)
        try:
            self._apply_branch(fork, old_branch, new_branch)
        except ValidationError as exc:
            for hh in self.headers.forget(self.headers.active_hash_at(fork + 1), old_tip):
                self.blocks.pop(hh, None)
                self._filter_index.pop(hh, None)
            return ConnectResult("rejected", exc.code, exc.height)
        self._tip_changed(new_branch, old_branch)
        return ConnectResult("accepted", height=block.header.height)

    def _apply_branch(self, fork: int, old_branch: list[Block], new_branch: list[Block]) -> None:
        """Undo the store to ``fork`` and apply ``new_branch``. On a
        ValidationError the store is back on ``old_branch``. The fork is
        checked against the floor the new tip's commit would set, so the
        undo back to the fork can always run."""
        new_tip = new_branch[-1].header.height
        floor = self.utxo.floor_after(new_tip)
        if fork < floor:
            raise ValidationError("reorg-too-deep", f"the branch forks at {fork}, below "
                                  f"the floor {floor} of its tip", height=new_tip)
        if old_branch:
            self.utxo.rewind_to(fork)
        for applied, new in enumerate(new_branch):
            try:
                self._validate_and_apply(new)
            except ValidationError:
                for _ in range(applied):
                    self.utxo.undo_block()
                for old in old_branch:
                    self.utxo.apply_block(old, old.header.height)
                raise

    def _validate_and_apply(self, block: Block) -> None:
        """Open the body on the tip as a mined block is opened, then run
        the close checks and seal it; a rejected block leaves the store
        as it was."""
        root, fees = self.open_block(block.transactions[1:], block.header.height)
        try:
            self._check_close(block, root, fees)
        except ValidationError:
            self.utxo.undo_block()
            raise
        self.utxo.seal(block.transactions[0])

    def _blocks_above(self, tip: bytes, fork: int) -> list[Block]:
        """The blocks of ``tip``'s branch above height ``fork``, in order."""
        branch = []
        while self.headers.headers[tip].height > fork:
            branch.append(self.blocks[tip])
            tip = self.headers.headers[tip].prev_hash
        return branch[::-1]

    # -- mining on the tip ----------------------------------------------------

    def open_block(self, txs, height: int) -> tuple[bytes, int]:
        """Run the body rules on the store's view of the tip and commit
        the body; returns (root its coinbase must commit, fees). A body
        the rules reject leaves the store as it was.

        When ``txs`` are the very tx objects the kept pool view absorbed,
        in that order, that view already holds the body, each tx checked
        against the tip plus the txs before it, so it is committed as it
        stands. Any other body, equal txs that are other objects
        included, is walked by the body rules. Either way the kept view
        is used up.

        The store then holds the body unsealed: the caller either passes
        the finished block to :meth:`close_block` or undoes it with
        ``utxo.undo_block()``.
        """
        view, self._pool_view = self._pool_view, None
        if view is not None and view.height == height and _same_objects(txs, self._pool_txs):
            fees = self._pool_fees
        else:
            view = self.utxo.open(height)
            fees = connect_body(txs, view, height, self._pooled)
        return self.utxo.commit(view), fees

    def close_block(self, block: Block, root: bytes, fees: int) -> None:
        """Finish a block whose body :meth:`open_block` applied: run the
        close checks, index the header (the one header check), then seal
        the block and refit the pool. On a ValidationError nothing is
        indexed and the block is still open.

        The structure checks of :meth:`connect_block` hold by
        construction: the miner built the coinbase and tx root, and the
        body rules refuse a tx that spends a coinbase marker or spends
        an input twice, as any repeated tx would.
        """
        self._check_close(block, root, fees)
        self.blocks[self.headers.add(block.header)] = block
        self.utxo.seal(block.transactions[0])
        self._tip_changed([block], [])

    def _check_close(self, block: Block, root: bytes, fees: int) -> None:
        """The close rule of an opened block: its coinbase pays at most the
        subsidy plus ``fees`` and, unless commitments are off, commits
        ``root``, the opened body's."""
        check_coinbase(block, self.params.subsidy, fees,
                       root if self.check_commitments else None)

    # -- mempool ------------------------------------------------------------

    def submit_transaction(self, tx: Transaction) -> None:
        """Admit a tx to the pool if it fits the tip plus the pool; a tx
        already pooled is left as it is."""
        self._admit(tx)

    def _admit(self, tx: Transaction, signed=frozenset()) -> None:
        """The one admission step: unless ``tx`` is pooled already,
        validate it on the pool's view of the next block, absorb it
        there and pool it. Signatures of txs in ``signed``, txids this
        node has verified, are not checked again. A view that opening a
        block used up is built again by a refit of the pool first."""
        tx_id = txid(tx)
        if tx_id in self._pooled:
            return
        if self._pool_view is None:
            self._refit(self.mempool, self._pooled)
        view = self._pool_view
        fee = validate_transaction(tx, view, signed)
        view.absorb(tx)
        self.mempool.append(tx)
        self._pooled.add(tx_id)
        self._pool_txs.append(tx)
        self._pool_fees += fee

    def _tip_changed(self, applied: list[Block], orphaned: list[Block]) -> None:
        """After a tip change, drop the kept answer bytes (they never go
        stale; dropping them bounds their memory) and refit the
        pool from the orphaned payments (first) and the pooled txs that
        the applied blocks do not carry. This node verified the orphaned payments'
        signatures when it applied their block, so the refit skips those
        checks as it does for pooled txs."""
        self._answers.clear()
        mined = {txid(tx) for block in applied for tx in block.transactions[1:]}
        returned = [tx for block in orphaned for tx in block.transactions[1:]]
        self._refit([tx for tx in returned + self.mempool if txid(tx) not in mined],
                    self._pooled.union(map(txid, returned)))

    def _refit(self, candidates, signed) -> None:
        """Empty the pool onto a fresh view of the next block and admit
        each candidate in order; a candidate refused drops out."""
        self.mempool, self._pool_txs, self._pooled, self._pool_fees = [], [], set(), 0
        self._pool_view = self.utxo.open(self.utxo.next_height)
        for tx in candidates:
            try:
                self._admit(tx, signed)
            except ValidationError:
                pass

    def build_template(self) -> tuple[list[Transaction], int]:
        """The pool, which always fits the tip, and its total fees."""
        return list(self._pool_txs), self._pool_fees

    # -- query services ------------------------------------------------------

    def serve_query_merkle_blocks(self, since: bytes, bloom: BloomFilter) -> MerkleBlocksResponse:
        """Headers of the active chain above ``since`` (from genesis if it
        is not on it) and every tx the filter may match, with its proof.
        A block is first asked about by its record's distinct items, and
        only a block where one may match has its txs scanned. The record
        of every scanned block, with the tx tree of every matched one,
        and the probe digests of every filter item are kept from the
        first query that needs them."""
        start = 0
        if self.headers.on_active_chain(since):
            start = self.headers.headers[since].height + 1
        may_match = self._may_match(bloom)
        index = self._filter_index
        headers = []
        matches = []
        for hh in self.headers.active_from(start):
            block = self.blocks[hh]
            headers.append(block.header)
            record = index.get(hh)
            if record is None:
                record = index[hh] = FilterRecord.of_block(block)
            if not any(map(may_match, record.items)):
                continue
            matched = [i for i, tx in enumerate(block.transactions)
                       if tx_touches(tx, may_match)]
            if record.levels is None:
                record.levels = pack_levels([txid(tx) for tx in block.transactions])
            matches.append(MerkleBlockMatch(
                header=block.header,
                tx_tree=partial_from_levels(record.levels, set(matched)),
                tx_indices=tuple(matched),
                transactions=tuple(block.transactions[i] for i in matched),
            ))
        return MerkleBlocksResponse(headers=tuple(headers), matches=tuple(matches))

    def _may_match(self, bloom: BloomFilter):
        """``bloom.may_contain`` fed with kept probe digests, asked once
        per distinct item: the verdicts are kept for this filter only,
        while an item's digests depend on no filter, so each is hashed
        once and kept by the node."""
        verdicts: dict[bytes, bool] = {}

        def may_match(item: bytes) -> bool:
            verdict = verdicts.get(item)
            if verdict is None:
                digests = self._probes.get(item)
                if digests is None:
                    digests = self._probes[item] = probe_digests(item)
                verdict = verdicts[item] = bloom.may_contain(item, digests)
            return verdict
        return may_match

    def serve_query_utxo_mroot(self, block_hash: bytes) -> bytes:
        return commitment_of(self._active_block(block_hash))

    def serve_query_block(self, block_hash: bytes) -> Block:
        return self._active_block(block_hash)

    def serve_query_utxos(self, block_hash: bytes) -> UtxosResponse:
        """The shards the block touched (its journal entry's keys), as
        they stood before it, and their proof against its parent's root,
        built on each call; :meth:`kept_answer` keeps its wire bytes."""
        height = self._active_block(block_hash).header.height
        try:
            shards, tree = self.utxo.state_before(
                height, set(self.utxo.versions.get(height, ())))
        except HistoryUnavailableError as exc:
            raise ValidationError("history-unavailable", str(exc), height=height) from exc
        coins = self.utxo.touched_log[height - 1].shard_bytes // COIN_SIZE
        return UtxosResponse(shards=shards, tree=tree, coin_count=coins)

    def kept_answer(self, query: int, block_hash: bytes, build) -> bytes:
        """The wire bytes of the ``query`` answer about ``block_hash``, a
        block of the active chain: ``build(block_hash)`` the first time,
        then the bytes it returned, kept until the next tip change. The
        active-chain check runs before the lookup; a build that raises
        keeps nothing."""
        self._active_block(block_hash)
        key = (query, block_hash)
        data = self._answers.get(key)
        if data is None:
            data = self._answers[key] = build(block_hash)
        return data

    def _active_block(self, block_hash: bytes) -> Block:
        if not self.headers.on_active_chain(block_hash) or block_hash not in self.blocks:
            raise ValidationError("unknown-block")
        return self.blocks[block_hash]


def _same_objects(txs, kept: list[Transaction]) -> bool:
    """Whether ``txs`` are the ``kept`` tx objects themselves, in order;
    one pointer compare per tx, where equality would compare encodings."""
    return len(txs) == len(kept) and all(map(operator.is_, txs, kept))
