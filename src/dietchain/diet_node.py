"""Light clients: SPV sync plus optional bounded full verification.

An SPV client downloads headers and inclusion proofs for transactions
matching its keys and trusts proof-of-work alone. A diet client goes
further: before trusting a transaction at height ``last`` it re-derives
the chain state across a window of recent blocks, using only the UTXO
shards each block edited plus their membership proofs against the root
committed by the coinbase of the block before the window, which it
fetches and checks against its header. A leaf splits only when the
block edits it, so the leaves a block edited are all the split rule
reads. A window is fetching plus one pure :func:`window_step` per
block: from the root and reward coins the block before committed, the
block and the peer's answer for it, the step replays the block on a
``utxo.ShardView`` over the served leaves, the code a full node's store
applies blocks with, so the deferred rewards and the split rule are the
store's own, and returns the block's root and reward coins. Faking a
transaction inside the window therefore requires forging every block of
the window and the one before it, each with valid proof-of-work.

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
from .full_node import UtxosResponse
from .headers import HeaderIndex
from .merkle import partial_root, trie_root
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


# a watched tx's status, by the outcome of its block
_STATUS = {"verified": "diet-verified", "fallback": "spv-only", "rejected": "rejected"}


@dataclass(frozen=True)
class UpdateResult:
    verdicts: tuple[TxVerdict, ...]
    tip_height: int
    bytes_by_type: dict[str, int]
    per_height: tuple[dict, ...]


def window_step(params: ChainParams, trusted: bytes, pending: list[Coin], block: Block,
                answer: UtxosResponse) -> tuple[bytes, list[Coin]]:
    """Verify one window block from ``trusted``, the root the block
    before committed, and ``pending``, that block's reward coins: check
    ``answer``'s leaves, hashing each once, against ``trusted``, unpack
    them into coins only then, replay the body on a ``ShardView`` over
    those, close it, walk the root after the block over the served
    leaves it left, the ones it edited or split into and the same
    siblings, and check the coinbase against the fees and that root.
    Returns the block's ``(commitment, reward coins)``.

    Reads nothing else and changes none of its arguments. Served leaves
    that do not prove ``trusted`` or cannot take the block are
    ``shard-proof-mismatch`` at the block's height; a body rule's
    ``ValidationError`` passes as it is. The caller checks the block's
    header hash and structure."""
    height = block.header.height
    try:
        served = {idx: shard.leaf_hash for idx, shard in answer.shards.items()}
        if trie_root(served, answer.siblings) != trusted:
            raise InconsistentStateError("shard proof does not reach the trusted root")
        view = ShardView({idx: shard.coins for idx, shard in answer.shards.items()},
                         pending, height)
        fees = connect_body(block.transactions[1:], view, height)
        leaves = view.close(params.size_cap)
        root = trie_root({i: h for i, h in served.items() if i not in view.edited} | leaves,
                         answer.siblings)
    except (InconsistentStateError, IncompleteProofError) as exc:
        raise ValidationError("shard-proof-mismatch", str(exc), height=height) from exc
    check_coinbase(block, params.subsidy, fees, root)
    return root, coins_of(block.transactions[0])


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
            relevant = [tx for tx in match.transactions
                        if tx_touches(tx, self._watched.__contains__)]
            if not relevant:
                continue  # bloom false positive, nothing of ours inside
            outcome = self._judge(match)
            verdicts.extend(TxVerdict(tx_id=txid(tx), height=match.header.height,
                                      status=_STATUS[outcome.kind], reason=outcome.reason,
                                      fail_height=outcome.fail_height,
                                      first=outcome.first, last=outcome.last)
                            for tx in relevant)
        return self._result(verdicts)

    def _judge(self, match) -> VerifyOutcome:
        """The outcome every watched tx of ``match`` gets."""
        height = match.header.height
        if not self._match_proof_ok(match):
            return VerifyOutcome("rejected", reason="proof-mismatch", fail_height=height)
        if not self.config.diet_enabled:
            return VerifyOutcome("fallback")
        if height <= self.highest_verified:
            return VerifyOutcome("verified")
        return self.verify_blocks_up_to(height)

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

    def _match_proof_ok(self, match) -> bool:
        if not self.headers.on_active_chain(header_hash(match.header)):
            return False
        leaves = {i: txid(tx) for i, tx in zip(match.tx_indices, match.transactions)}
        try:
            return partial_root(match.tx_tree, leaves) == match.header.tx_mroot
        except IncompleteProofError:
            return False

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
            answer = self._ask("query_utxos", block_hash, height, "utxos_bytes")
            trusted, pending = window_step(self.params, trusted, pending, block, answer)
            self.highest_verified = height

    def _ask(self, query: str, block_hash: bytes, height: int, note: str):
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
        self._note_height(height, note, nbytes)
        return value

    def _fetch_block(self, block_hash: bytes, height: int) -> Block:
        block = self._ask("query_block", block_hash, height, "block_bytes")
        if header_hash(block.header) != block_hash:
            raise ValidationError("proof-mismatch", "served block has the wrong header",
                                  height=height)
        check_block_structure(block)
        return block

    def _note_height(self, height: int, key: str, nbytes: int) -> None:
        entry = self._per_height.setdefault(height, {"height": height})
        entry[key] = entry.get(key, 0) + nbytes
