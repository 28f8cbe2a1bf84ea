"""Light clients: SPV sync plus optional bounded full verification.

An SPV client downloads headers and inclusion proofs for transactions
matching its keys and trusts proof-of-work alone. A diet client goes
further: before trusting a transaction at height ``last`` it re-derives
the chain state across a window of recent blocks, using only the UTXO
shards each block touched plus their membership proofs against the
root committed by the coinbase of the block before the window, which it
fetches and checks against its header. It replays each block on
a ``utxo.ShardView`` over the served shards, the code a full node's store
applies blocks with, so the deferred rewards and the split rule are the
store's own. Faking a transaction inside the window therefore requires
forging every block of the window and the one before it, each with valid
proof-of-work.

Remote calls go through a transport (``query_merkle_blocks``,
``query_block``, ``query_utxos``), each returning the decoded response
together with its size in bytes on the wire. A diet node never asks a
peer for a committed root: a peer's word on the base root would let a
forger prove a made-up state with l proofs of work instead of l+1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain import (
    Block,
    ChainParams,
    ZERO32,
    header_hash,
    tx_touches,
    txid,
)
from .crypto import BloomFilter, hash256
from .errors import DecodeError, IncompleteProofError, InconsistentStateError, ValidationError
from .headers import HeaderIndex
from .merkle import PartialMerkleTree, partial_root
from .rules import (
    check_block_structure,
    check_coinbase,
    commitment_of,
    connect_body,
)
from .utxo import Coin, ShardView, coins_of


@dataclass(frozen=True)
class DietConfig:
    keys: tuple[bytes, ...]   # 33-byte public keys the user watches
    max_depth: int = 6        # blocks below the tip trusted outright
    max_length: int = 2       # verification window length
    diet_enabled: bool = True # off: behave as a plain SPV client

    def __post_init__(self):
        # below one block, no window is ever verified: every payment would be spv-only
        for name in ("max_depth", "max_length"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")


def compute_verification_range(highest_verified: int, tip_height: int,
                               max_depth: int, max_length: int,
                               last: int) -> tuple[int, int] | None:
    """Window of blocks to verify before trusting height ``last``.

    Returns (first, last): block ``first`` is the trusted base and
    blocks first+1 .. last get full verification. None means there is
    nothing to verify and the caller falls back to SPV trust.
    """
    first = max(highest_verified, tip_height - max_depth)
    first = max(first, last - max_length)
    if first >= last:
        return None
    return first, last


@dataclass(frozen=True)
class TxVerdict:
    tx_id: bytes
    height: int
    status: str               # 'spv-only' | 'diet-verified' | 'rejected'
    reason: str | None = None
    fail_height: int | None = None
    first: int | None = None
    last: int | None = None


@dataclass(frozen=True)
class VerifyOutcome:
    kind: str                 # 'verified' | 'fallback' | 'rejected'
    first: int | None = None
    last: int | None = None
    reason: str | None = None
    fail_height: int | None = None


@dataclass(frozen=True)
class UpdateResult:
    verdicts: tuple[TxVerdict, ...]
    tip_height: int
    bytes_by_type: dict[str, int]
    per_height: tuple[dict, ...]


class DietNode:
    def __init__(self, params: ChainParams, config: DietConfig, transport):
        self.params = params
        self.config = config
        self.transport = transport
        self.headers = HeaderIndex(params.target_bits)
        self.highest_verified = 0
        self.bytes_by_type: dict[str, int] = {}
        # keys (33 bytes) as spenders, their challenges (32 bytes) as payees
        self._watched = set(config.keys) | {hash256(k) for k in config.keys}
        self._per_height: dict[int, dict] = {}  # height -> its byte counts, this update

    # -- sync ---------------------------------------------------------------

    def build_filter(self) -> BloomFilter:
        """Bloom over the user's keys and their challenges."""
        bloom = BloomFilter()
        for item in self._watched:
            bloom.add(item)
        return bloom

    def update_chain(self) -> UpdateResult:
        since = self.headers.tip if self.headers.tip is not None else ZERO32
        self._per_height = {}
        verdicts: list[TxVerdict] = []
        try:
            response, nbytes = self.transport.query_merkle_blocks(since, self.build_filter())
        except DecodeError:
            return self._result(verdicts)  # a garbled answer changes nothing
        self._count("query_merkle_blocks", nbytes)

        old_tip = self.headers.tip
        self.ingest_headers(response.headers)
        if old_tip is not None and self.headers.tip != old_tip:
            fork = self.headers.fork_height(old_tip, self.headers.tip)
            if fork < self.highest_verified:
                self.highest_verified = fork

        for match in response.matches:
            match_hash = header_hash(match.header)
            height = match.header.height
            relevant = [tx for tx in match.transactions
                        if tx_touches(tx, self._watched.__contains__)]
            if not relevant:
                continue  # bloom false positive, nothing of ours inside
            if not self._match_proof_ok(match, match_hash):
                verdicts.extend(self._verdicts(relevant, height, "rejected",
                                               reason="proof-mismatch", fail_height=height))
                continue
            if not self.config.diet_enabled:
                verdicts.extend(self._verdicts(relevant, height, "spv-only"))
                continue
            if height <= self.highest_verified:
                verdicts.extend(self._verdicts(relevant, height, "diet-verified"))
                continue
            outcome = self.verify_blocks_up_to(height)
            if outcome.kind == "verified":
                verdicts.extend(self._verdicts(relevant, height, "diet-verified",
                                               first=outcome.first, last=outcome.last))
            elif outcome.kind == "fallback":
                verdicts.extend(self._verdicts(relevant, height, "spv-only"))
            else:
                verdicts.extend(self._verdicts(relevant, height, "rejected",
                                               reason=outcome.reason,
                                               fail_height=outcome.fail_height,
                                               first=outcome.first, last=outcome.last))
        return self._result(verdicts)

    def _result(self, verdicts: list[TxVerdict]) -> UpdateResult:
        return UpdateResult(
            verdicts=tuple(verdicts),
            tip_height=self.headers.tip_height if self.headers.tip is not None else -1,
            bytes_by_type=dict(self.bytes_by_type),
            per_height=tuple(self._per_height.values()),
        )

    def ingest_headers(self, headers) -> None:
        """Index headers in order; a bad header rejects the rest of its list."""
        for header in headers:
            try:
                self.headers.add(header)
            except ValidationError:
                break

    def _match_proof_ok(self, match, match_hash: bytes) -> bool:
        if not self.headers.on_active_chain(match_hash):
            return False
        leaves = {i: txid(tx) for i, tx in zip(match.tx_indices, match.transactions)}
        try:
            return partial_root(match.tx_tree, leaves) == match.header.tx_mroot
        except IncompleteProofError:
            return False

    def _verdicts(self, txs, height, status, reason=None, fail_height=None,
                  first=None, last=None):
        return [TxVerdict(tx_id=txid(tx), height=height, status=status, reason=reason,
                          fail_height=fail_height, first=first, last=last)
                for tx in txs]

    def _count(self, kind: str, nbytes: int) -> None:
        self.bytes_by_type[kind] = self.bytes_by_type.get(kind, 0) + nbytes

    # -- bounded full verification -------------------------------------------

    def verify_blocks_up_to(self, last: int) -> VerifyOutcome:
        window = compute_verification_range(
            self.highest_verified, self.headers.tip_height,
            self.config.max_depth, self.config.max_length, last)
        if window is None:
            return VerifyOutcome("fallback")
        first, last = window
        try:
            self._verify_window(first, last)
        except ValidationError as exc:
            return VerifyOutcome("rejected", first=first, last=last,
                                 reason=exc.code, fail_height=exc.height)
        return VerifyOutcome("verified", first=first, last=last)

    def _verify_window(self, first: int, last: int) -> None:
        # The base block is trusted by its header: the root its coinbase
        # commits is the state the window starts from, and its reward
        # coins, not under that root yet, are the deferred insertions of
        # the first verified block. Nothing about the base is taken from
        # the peer's word.
        base_block = self._fetch_block(self.headers.active_hash_at(first), first)
        trusted = commitment_of(base_block)
        pending = coins_of(base_block.transactions[0])

        for height in range(first + 1, last + 1):
            block_hash = self.headers.active_hash_at(height)
            block = self._fetch_block(block_hash, height)
            try:
                view, tree, leaves = self._served_view(block_hash, height, trusted, pending)
                fees = connect_body(block.transactions[1:], view, height)
                root = self._rebuild_root(view, tree, leaves)
            except InconsistentStateError as exc:
                # The served shards cannot take the block: they do not cover it.
                raise ValidationError("shard-proof-mismatch", str(exc), height=height) from exc
            check_coinbase(block, self.params.subsidy, fees, root)
            trusted = root
            pending = coins_of(block.transactions[0])
            self.highest_verified = height

    def _served_view(self, block_hash: bytes, height: int, trusted: bytes,
                     pending: list[Coin]
                     ) -> tuple[ShardView, PartialMerkleTree, dict[int, bytes]]:
        """Ask for the shards the block touched, hash each served shard
        once and check the proof over those leaves against the ``trusted``
        root, and open the block's view on the shards, with ``pending``
        placed, plus the proof and the leaves. The view holds each served
        shard's decoded coins and its checked bytes, which a split slices
        instead of packing the shard again."""
        response = self._ask("query_utxos", block_hash, height, "utxos_bytes")
        tree = response.tree
        total = tree.total_leaves
        if total & (total - 1):
            raise ValidationError("shard-proof-mismatch",
                                  "shard tree size is not a power of two",
                                  height=height)
        leaves = {idx: shard.leaf_hash for idx, shard in response.shards.items()}
        try:
            if partial_root(tree, leaves) != trusted:
                raise ValidationError("shard-proof-mismatch",
                                      "shard proof does not reach the trusted root",
                                      height=height)
        except IncompleteProofError as exc:
            raise ValidationError("shard-proof-mismatch", str(exc), height=height)
        shards = {idx: shard.coins for idx, shard in response.shards.items()}
        view = ShardView(shards, total.bit_length() - 1, sum(map(len, shards.values())),
                         pending, height,
                         {idx: shard.encoded for idx, shard in response.shards.items()})
        return view, tree, leaves

    def _ask(self, query: str, block_hash: bytes, height: int, note: str | None = None):
        """Run one window query and count its bytes; bytes that do not
        decode are the peer's fault at ``height``, and a refusal that
        names no height is at ``height`` too."""
        try:
            value, nbytes = getattr(self.transport, query)(block_hash)
        except DecodeError as exc:
            raise ValidationError("peer-fault", str(exc), height=height) from exc
        except ValidationError as exc:
            if exc.height is not None:
                raise
            raise ValidationError(exc.code, exc.detail, height=height) from exc
        self._count(query, nbytes)
        if note is not None:
            self._note_height(height, note, nbytes)
        return value

    def _fetch_block(self, block_hash: bytes, height: int) -> Block:
        block = self._ask("query_block", block_hash, height, "block_bytes")
        if header_hash(block.header) != block_hash:
            raise ValidationError("proof-mismatch", "served block has the wrong header",
                                  height=height)
        check_block_structure(block)
        return block

    def _rebuild_root(self, view: ShardView, tree: PartialMerkleTree,
                      served: dict[int, bytes]) -> bytes:
        """Close the replayed view and compute the root after the block,
        over the view's ``2**k`` leaves. The ``served`` leaves are the
        checked hashes of the served bytes, so only the shards the view
        edited are hashed again. Without a split the served siblings stay
        valid; after one the view returns every shard, so the walk takes
        all ``2**k`` new leaves and no sibling."""
        leaves = view.close(self.params.size_cap)
        if 1 << view.k != tree.total_leaves:
            return partial_root(PartialMerkleTree(1 << view.k, ()), leaves)
        return partial_root(tree, served | leaves)

    def _note_height(self, height: int, key: str, nbytes: int) -> None:
        entry = self._per_height.setdefault(height, {"height": height})
        entry[key] = entry.get(key, 0) + nbytes
