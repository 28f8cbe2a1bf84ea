"""Full node: complete validation, canonical state, and query services.

A full node validates every block in full, keeps the sharded UTXO store
for the active branch only, and answers the four queries light clients
need: filtered header/tx sync, committed roots, whole blocks, and the
shards a block touched together with their membership proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chain import (
    Block,
    BlockHeader,
    ChainParams,
    Transaction,
    header_hash,
    tx_touches,
    txid,
)
from .crypto import BloomFilter
from .errors import ValidationError
from .headers import HeaderIndex, check_header
from .merkle import PartialMerkleTree, extract_partial
from .rules import (
    CoinView,
    check_block_structure,
    check_coinbase_value,
    commitment_of,
    connect_body,
    validate_transaction,
)
from .utxo import Shard, VersionedShardStore


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
    transactions: tuple[Transaction, ...]


@dataclass(frozen=True)
class MerkleBlocksResponse:
    headers: tuple[BlockHeader, ...]
    matches: tuple[MerkleBlockMatch, ...]


@dataclass(frozen=True)
class UtxosResponse:
    shards: dict[int, Shard]
    tree: PartialMerkleTree


@dataclass
class FullNode:
    params: ChainParams
    check_commitments: bool = True  # off: interop with chains that do not commit
    headers: HeaderIndex = field(init=False)
    blocks: dict[bytes, Block] = field(init=False, default_factory=dict)
    utxo: VersionedShardStore = field(init=False)
    mempool: list[Transaction] = field(init=False, default_factory=list)

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
        hh = header_hash(block.header)
        height = block.header.height
        if hh in self.blocks:
            return ConnectResult("duplicate", height=height)
        try:
            check_block_structure(block)
        except ValidationError as exc:
            return ConnectResult("rejected", exc.code, height)

        extends_tip = (
            self.headers.tip is None and block.header.height == 0
        ) or (self.headers.tip is not None and block.header.prev_hash == self.headers.tip)

        if extends_tip:
            try:
                self._validate_and_apply(block)
            except ValidationError as exc:
                return ConnectResult("rejected", exc.code, height)
            self._index(block)
            return ConnectResult("accepted", height=height)

        # Off-tip: index header and block, then reorganize if the new
        # branch is strictly heavier than the active one.
        old_tip = self.headers.tip
        try:
            self.headers.add(block.header)
        except ValidationError as exc:
            return ConnectResult("rejected", exc.code, height)
        self.blocks[hh] = block
        if self.headers.tip == old_tip:
            return ConnectResult("branch", height=height)
        return self._reorganize(old_tip, block)

    def _validate_and_apply(self, block: Block) -> None:
        """Fully validate a block on the current state and apply it in
        place; a rejected block leaves the store as it was."""
        header = block.header
        check_header(header, self.headers.parent_of(header), self.params.target_bits)
        fees = self._connect_body(block.transactions[1:], header.height)
        check_coinbase_value(block.transactions[0], self.params.subsidy, fees, header.height)
        committed = commitment_of(block) if self.check_commitments else None
        root, _ = self.utxo.apply_block(block, header.height)
        if committed is not None and root != committed:
            self.utxo.undo_block()
            raise ValidationError("utxo-root-mismatch", height=header.height)

    def _connect_body(self, txs, height: int) -> int:
        return connect_body(txs, CoinView(self.utxo), height, self._pooled_txids())

    def _index(self, block: Block) -> None:
        """Record an applied block as the new tip."""
        hh = self.headers.add(block.header)
        self.blocks[hh] = block
        self._drop_mined_from_mempool(block)

    # -- mining on the tip ----------------------------------------------------

    def open_block(self, txs, height: int) -> tuple[bytes, int]:
        """Validate a block body on the tip, as :meth:`connect_block` does,
        and apply it; returns (root its coinbase must commit, fees).

        The store then holds the body unsealed: the caller either passes
        the finished block to :meth:`close_block` or undoes it with
        ``utxo.undo_block()``.
        """
        fees = self._connect_body(txs, height)
        return self.utxo.apply_body(list(txs), height), fees

    def close_block(self, block: Block, root: bytes, fees: int) -> None:
        """Finish a block whose body :meth:`open_block` applied: run the
        header, coinbase-value and commitment checks, then seal and index
        it. On a ValidationError the block is still open.

        The structure checks of :meth:`connect_block` hold by
        construction: the miner built the coinbase and tx root, and the
        body rules refuse a tx that spends a coinbase marker or spends
        an input twice, as any repeated tx would.
        """
        header = block.header
        coinbase = block.transactions[0]
        check_header(header, self.headers.parent_of(header), self.params.target_bits)
        check_coinbase_value(coinbase, self.params.subsidy, fees, header.height)
        if self.check_commitments and commitment_of(block) != root:
            raise ValidationError("utxo-root-mismatch", height=header.height)
        self.utxo.seal(coinbase)
        self._index(block)

    def _reorganize(self, old_tip: bytes, new_block: Block) -> ConnectResult:
        new_tip = self.headers.tip
        fork = self.headers.fork_height(old_tip, new_tip)
        old_branch = self._branch_above(old_tip, fork)
        self.utxo.rewind_to(fork)
        for height in range(fork + 1, self.headers.tip_height + 1):
            block = self.blocks[self.headers.active_hash_at(height)]
            try:
                self._validate_and_apply(block)
            except ValidationError as exc:
                # The heavier branch is invalid: forget it and every block
                # indexed on top of it, and restore.
                self.utxo.rewind_to(fork)
                for hh in reversed(old_branch):
                    old = self.blocks[hh]
                    self.utxo.apply_block(old, old.header.height)
                forgotten = set(self._branch_above(new_tip, fork))
                # A header is indexed after its parent, so one pass finds every descendant.
                for hh, header in self.headers.headers.items():
                    if header.prev_hash in forgotten:
                        forgotten.add(hh)
                for hh in forgotten:
                    del self.headers.headers[hh]
                    del self.headers.work[hh]
                    self.blocks.pop(hh, None)
                self.headers.set_tip(old_tip)
                return ConnectResult("rejected", exc.code, height)
        # Orphaned payments still valid go back ahead of the pool; pool txs
        # that the new branch mined or spent the inputs of drop out.
        orphaned = [tx for hh in reversed(old_branch) for tx in self.blocks[hh].transactions[1:]]
        self.mempool, _ = self._fitting(orphaned + self.mempool)
        return ConnectResult("accepted", height=new_block.header.height)

    def _branch_above(self, tip: bytes, fork: int) -> list[bytes]:
        """Hashes from ``tip`` down to the block just above height ``fork``."""
        branch = []
        cursor = tip
        while self.headers.headers[cursor].height > fork:
            branch.append(cursor)
            cursor = self.headers.headers[cursor].prev_hash
        return branch

    def _drop_mined_from_mempool(self, block: Block) -> None:
        mined = {txid(tx) for tx in block.transactions}
        spent = {i.prevout for tx in block.transactions[1:] for i in tx.inputs}
        self.mempool = [
            tx for tx in self.mempool
            if txid(tx) not in mined and not any(i.prevout in spent for i in tx.inputs)
        ]

    # -- mempool ------------------------------------------------------------

    def submit_transaction(self, tx: Transaction) -> None:
        """Validate against the current view plus the pool, then queue;
        a tx already pooled is left as it is."""
        if txid(tx) in self._pooled_txids():
            return
        view = CoinView(self.utxo)
        for pooled in self.mempool:
            view.absorb(pooled)
        validate_transaction(tx, view)
        self.mempool.append(tx)

    def _pooled_txids(self) -> set[bytes]:
        """Txids whose signatures this node has verified: every pooled tx
        passed full validation in ``submit_transaction``."""
        return {txid(tx) for tx in self.mempool}

    def build_template(self) -> tuple[list[Transaction], int]:
        """Mempool txs that fit together on the current tip, plus total fees."""
        return self._fitting(self.mempool)

    def _fitting(self, txs) -> tuple[list[Transaction], int]:
        """The txs, in order, that are valid together on the current tip,
        plus their total fees. Signatures of pooled txs are not checked
        again; those of any other tx are."""
        view = CoinView(self.utxo)
        signed = self._pooled_txids()
        selected = []
        fees = 0
        for tx in txs:
            try:
                fees += validate_transaction(tx, view, signed)
            except ValidationError:
                continue
            view.absorb(tx)
            selected.append(tx)
        return selected, fees

    # -- query services ------------------------------------------------------

    def serve_query_merkle_blocks(self, since: bytes, bloom: BloomFilter) -> MerkleBlocksResponse:
        chain = self.headers.active_chain()
        start = 0
        if self.headers.on_active_chain(since):
            start = self.headers.headers[since].height + 1
        headers = []
        matches = []
        for hh in chain[start:]:
            block = self.blocks[hh]
            headers.append(block.header)
            matched = [
                i for i, tx in enumerate(block.transactions)
                if tx_touches(tx, bloom.may_contain)
            ]
            if matched:
                tx_ids = [txid(tx) for tx in block.transactions]
                matches.append(MerkleBlockMatch(
                    header=block.header,
                    tx_tree=extract_partial(tx_ids, set(matched)),
                    transactions=tuple(block.transactions[i] for i in matched),
                ))
        return MerkleBlocksResponse(headers=tuple(headers), matches=tuple(matches))

    def serve_query_utxo_mroot(self, block_hash: bytes) -> bytes:
        return commitment_of(self._active_block(block_hash))

    def serve_query_block(self, block_hash: bytes) -> Block:
        return self._active_block(block_hash)

    def serve_query_utxos(self, block_hash: bytes) -> UtxosResponse:
        block = self._active_block(block_hash)
        height = block.header.height
        record = self.utxo.touched_log.get(height)
        if record is None or height == 0:
            raise ValidationError("history-unavailable",
                                  "no pre-state exists for that block", height=height)
        shards, tree = self.utxo.state_before(height, set(record.indices))
        return UtxosResponse(shards=shards, tree=tree)

    def _active_block(self, block_hash: bytes) -> Block:
        if not self.headers.on_active_chain(block_hash) or block_hash not in self.blocks:
            raise ValidationError("unknown-block")
        return self.blocks[block_hash]
