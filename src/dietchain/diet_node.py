"""Light clients: SPV sync plus optional bounded full verification.

An SPV client downloads headers and inclusion proofs for transactions
matching its keys and trusts proof-of-work alone. A diet client goes
further: before trusting a transaction at height ``last`` it re-derives
the chain state across a window of recent blocks, using only the UTXO
shards each block touched plus their membership proofs against the
committed root of the block before the window. Faking a transaction
inside the window therefore requires forging every block of the window
and the one before it, each with valid proof-of-work.

Remote calls go through a transport (``query_merkle_blocks``,
``query_utxo_mroot``, ``query_block``, ``query_utxos``), each returning
the decoded response together with its size in bytes on the wire.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from .chain import (
    Block,
    ChainParams,
    KIND_PAYMENT,
    Transaction,
    ZERO32,
    header_hash,
    sighash,
    txid,
)
from .crypto import BloomFilter, hash256, verify
from .errors import IncompleteProofError, ValidationError
from .full_node import commitment_of, tx_merkle_root
from .headers import HeaderIndex
from .merkle import build_root, contains, partial_root, update_in_place
from .utxo import (
    COIN_SIZE,
    Coin,
    coins_of,
    encode_shard_coins,
    shard_key,
    shard_leaf_hash,
)


@dataclass(frozen=True)
class DietConfig:
    keys: tuple[bytes, ...]   # 33-byte public keys the user watches
    max_depth: int = 6        # blocks below the tip trusted outright
    max_length: int = 2       # verification window length
    diet_enabled: bool = True # off: behave as a plain SPV client


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
        self._challenges = {hash256(k) for k in config.keys}
        self._per_height: list[dict] = []

    # -- sync ---------------------------------------------------------------

    def build_filter(self) -> BloomFilter:
        """Bloom over the user's keys in both forms a transaction can
        carry them: spending keys and receiving challenges."""
        bloom = BloomFilter()
        for key in self.config.keys:
            bloom.add(key)
            bloom.add(hash256(key))
        return bloom

    def update_chain(self) -> UpdateResult:
        since = self.headers.tip if self.headers.tip is not None else ZERO32
        response, nbytes = self.transport.query_merkle_blocks(since, self.build_filter())
        self._count("query_merkle_blocks", nbytes)
        self._per_height: list[dict] = []

        old_tip = self.headers.tip
        self.ingest_headers(response.headers)
        if old_tip is not None and self.headers.tip != old_tip:
            fork = self.headers.fork_height(old_tip, self.headers.tip)
            if fork < self.highest_verified:
                self.highest_verified = fork

        verdicts: list[TxVerdict] = []
        for match in response.matches:
            match_hash = header_hash(match.header)
            height = match.header.height
            relevant = [tx for tx in match.transactions if self._involves_user(tx)]
            if not relevant:
                continue  # bloom false positive, nothing of ours inside
            if not self._match_proof_ok(match, match_hash):
                verdicts.extend(self._verdicts(relevant, height, "rejected",
                                               reason="proof-mismatch"))
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
        return UpdateResult(
            verdicts=tuple(verdicts),
            tip_height=self.headers.tip_height,
            bytes_by_type=dict(self.bytes_by_type),
            per_height=tuple(self._per_height),
        )

    def ingest_headers(self, headers) -> None:
        """Index headers in order; a bad header rejects the rest of its list."""
        for header in headers:
            try:
                self.headers.add(header)
            except ValidationError:
                break

    def _match_proof_ok(self, match, match_hash: bytes) -> bool:
        if match_hash not in self.headers or not self.headers.on_active_chain(match_hash):
            return False
        try:
            root = partial_root(match.tx_tree)
        except IncompleteProofError:
            return False
        if root != match.header.tx_mroot:
            return False
        return all(contains(match.tx_tree, txid(tx)) for tx in match.transactions)

    def _involves_user(self, tx: Transaction) -> bool:
        for inp in tx.inputs:
            if not inp.prevout.is_coinbase_marker and inp.public_key in self.config.keys:
                return True
        return any(
            out.kind == KIND_PAYMENT and out.payload in self._challenges
            for out in tx.outputs
        )

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
        base_hash = self.headers.active_hash_at(first)
        trusted, nbytes = self.transport.query_utxo_mroot(base_hash)
        self._count("query_utxo_mroot", nbytes)
        # The base block itself is trusted, but its reward coins are not
        # under its committed root yet; they are needed as the deferred
        # insertions of the first verified block.
        base_block = self._fetch_block(base_hash, first)
        pending = coins_of(base_block.transactions[0])

        for height in range(first + 1, last + 1):
            block_hash = self.headers.active_hash_at(height)
            block = self._fetch_block(block_hash, height)
            response, nbytes = self.transport.query_utxos(block_hash)
            self._count("query_utxos", nbytes)
            self._note_height(height, "utxos_bytes", nbytes)

            tree = response.tree
            total = tree.total_leaves
            if total <= 0 or total & (total - 1):
                raise ValidationError("shard-proof-mismatch",
                                      "shard tree size is not a power of two",
                                      height=height)
            k = total.bit_length() - 1
            for idx, shard in response.shards.items():
                if shard.index != idx or tree.included.get(idx) != shard.leaf_hash:
                    raise ValidationError("shard-proof-mismatch",
                                          f"shard {idx} does not match its leaf",
                                          height=height)
            try:
                if partial_root(tree) != trusted:
                    raise ValidationError("shard-proof-mismatch",
                                          "shard proof does not reach the trusted root",
                                          height=height)
            except IncompleteProofError as exc:
                raise ValidationError("shard-proof-mismatch", str(exc), height=height)

            local = {idx: list(shard.coins) for idx, shard in response.shards.items()}
            for coin in pending:
                self._insert(local, k, coin, height)
            fees = 0
            for tx in block.transactions[1:]:
                fees += self._apply_tx(local, k, tx, height)
            reward = sum(out.value for out in block.transactions[0].outputs
                         if out.kind == KIND_PAYMENT)
            if reward > self.params.subsidy + fees:
                raise ValidationError("value-creation", "coinbase overpays itself",
                                      height=height)

            try:
                committed = commitment_of(block)
            except ValidationError:
                raise ValidationError("root-mismatch", "block commits to nothing",
                                      height=height)
            rebuilt = self._rebuild_root(local, k, tree, height)
            if rebuilt != committed:
                raise ValidationError("root-mismatch", height=height)

            trusted = committed
            pending = coins_of(block.transactions[0])
            self.highest_verified = height

    def _fetch_block(self, block_hash: bytes, height: int) -> Block:
        block, nbytes = self.transport.query_block(block_hash)
        self._count("query_block", nbytes)
        self._note_height(height, "block_bytes", nbytes)
        if header_hash(block.header) != block_hash:
            raise ValidationError("proof-mismatch", "served block has the wrong header",
                                  height=height)
        if not block.transactions or not block.transactions[0].is_coinbase:
            raise ValidationError("proof-mismatch", "served block lacks a coinbase",
                                  height=height)
        if tx_merkle_root(block.transactions) != block.header.tx_mroot:
            raise ValidationError("proof-mismatch", "block body does not match its header",
                                  height=height)
        return block

    def _insert(self, local, k: int, coin: Coin, height: int) -> int:
        idx = shard_key(coin.outpoint.txid, k)
        if idx not in local:
            raise ValidationError("shard-proof-mismatch",
                                  f"shard {idx} needed but not served", height=height)
        shard = local[idx]
        i = bisect.bisect_left(shard, coin.outpoint, key=lambda c: c.outpoint)
        if i < len(shard) and shard[i].outpoint == coin.outpoint:
            raise ValidationError("shard-proof-mismatch",
                                  f"duplicate coin {coin.outpoint}", height=height)
        shard.insert(i, coin)
        return idx

    def _apply_tx(self, local, k: int, tx: Transaction, height: int) -> int:
        digest = sighash(tx)
        seen = set()
        total_in = 0
        for inp in tx.inputs:
            point = inp.prevout
            if point in seen:
                raise ValidationError("missing-input", f"{point} spent twice",
                                      height=height)
            seen.add(point)
            idx = shard_key(point.txid, k)
            if idx not in local:
                raise ValidationError("shard-proof-mismatch",
                                      f"shard {idx} needed but not served", height=height)
            shard = local[idx]
            i = bisect.bisect_left(shard, point, key=lambda c: c.outpoint)
            if i >= len(shard) or shard[i].outpoint != point:
                raise ValidationError("missing-input", f"{point} not in its shard",
                                      height=height)
            coin = shard[i]
            if hash256(inp.public_key) != coin.challenge:
                raise ValidationError("ownership-failure",
                                      "key does not match the challenge", height=height)
            if not verify(inp.public_key, digest, inp.signature):
                raise ValidationError("ownership-failure", "bad signature", height=height)
            del shard[i]
            total_in += coin.value
        total_out = sum(out.value for out in tx.outputs)
        if total_in < total_out:
            raise ValidationError("value-creation",
                                  f"outputs {total_out} exceed inputs {total_in}",
                                  height=height)
        for coin in coins_of(tx):
            self._insert(local, k, coin, height)
        return total_in - total_out

    def _rebuild_root(self, local, k: int, tree, height: int) -> bytes:
        if len(local) == tree.total_leaves:
            # Full snapshot: replay the deterministic split rule, then
            # rebuild the whole tree at whatever k it lands on.
            while self._total_bytes(local) > self.params.size_cap * (1 << k):
                split: dict[int, list[Coin]] = {i: [] for i in range(1 << (k + 1))}
                for coins in local.values():
                    for coin in coins:
                        split[shard_key(coin.outpoint.txid, k + 1)].append(coin)
                local.clear()
                local.update(split)
                k += 1
            leaves = [shard_leaf_hash(encode_shard_coins(local[i]))
                      for i in range(1 << k)]
            return build_root(leaves)
        changed = {idx: shard_leaf_hash(encode_shard_coins(coins))
                   for idx, coins in local.items()}
        return partial_root(update_in_place(tree, changed))

    @staticmethod
    def _total_bytes(local) -> int:
        return sum(2 + COIN_SIZE * len(coins) for coins in local.values())

    def _note_height(self, height: int, key: str, nbytes: int) -> None:
        for entry in self._per_height:
            if entry["height"] == height:
                entry[key] = entry.get(key, 0) + nbytes
                return
        self._per_height.append({"height": height, key: nbytes})
