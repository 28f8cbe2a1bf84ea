"""Block assembly and the nonce search.

The coinbase commits the UTXO root for the block being built. That root
covers the block's non-coinbase transactions but never the coinbase's
own reward coins, so the root comes first and the coinbase is built
around it.

Every block a node mines goes through ``mine_txs``: ``FullNode.open_block``
runs the body rules and applies the body on the tip, the coinbase and
header are built on the returned root and solved, and
``FullNode.close_block`` checks the coinbase value and the commitment,
indexes the header (its one check) and seals the block in place. If
anything fails, the body is undone and nothing is indexed. ``mine_on``
mines the node's whole pool, which always fits the tip. The node keeps
the pool as a view of the next block that admitted each pooled tx, and
``open_block`` commits that view, so each payment is validated once, at
admission; on a node with no chain it mines the genesis
(``make_genesis``). The adversary's counterfeit blocks take the same path
and the same proof of work. ``mine_block`` leaves the store it is given
as it was: it previews the root (apply, then undo) and solves; a
template the store cannot apply raises before the store changes.

``solve_pow`` tries each nonce with ``chain.pow_ok``, the predicate
``HeaderIndex.add`` applies to every header, on the hash of the packed
header fields: one call per attempt, and the first nonce that passes is
the one the node's own header check accepts.

The coinbase's version field carries the block height so that two
otherwise identical coinbases can never collide on txid. When a nonce
scan comes up empty, the extra nonce rolls in the coinbase input's
signature bytes, which no rule reads (as Bitcoin rolls the coinbase
script): the tx Merkle root changes, and nothing the block pays.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

from .chain import (
    Block,
    BlockHeader,
    ChainParams,
    HEADER_STRUCT,
    KIND_COMMITMENT,
    KIND_PAYMENT,
    Transaction,
    TxOutput,
    ZERO32,
    encode_header,
    make_coinbase_input,
    pow_ok,
)
from .crypto import SIGNATURE_SIZE, hash256
from .full_node import FullNode
from .rules import tx_merkle_root
from .utxo import VersionedShardStore


MAX_ATTEMPTS = 1 << 20  # nonces scanned before the extra nonce rolls


@dataclass(frozen=True)
class BlockTemplate:
    parent_hash: bytes
    height: int
    target_bits: int
    transactions: tuple[Transaction, ...]
    reward_key: bytes  # 33-byte public key paid by the coinbase
    reward_value: int  # subsidy plus collected fees


def make_coinbase(template: BlockTemplate, committed_root: bytes,
                  extra_nonce: int = 0) -> Transaction:
    return Transaction(
        version=template.height,
        inputs=(make_coinbase_input()._replace(
            signature=extra_nonce.to_bytes(SIGNATURE_SIZE, "little")),),
        outputs=(
            TxOutput(value=template.reward_value, kind=KIND_PAYMENT,
                     payload=hash256(template.reward_key)),
            TxOutput(value=0, kind=KIND_COMMITMENT, payload=committed_root),
        ),
    )


def assemble_block(template: BlockTemplate, parent_state: VersionedShardStore,
                   extra_nonce: int = 0) -> Block:
    """Build an unmined block (nonce 0) committing the correct root."""
    root = parent_state.preview_root(list(template.transactions), template.height)
    return block_on(template, root, extra_nonce)


def block_on(template: BlockTemplate, root: bytes, extra_nonce: int = 0) -> Block:
    """An unmined block (nonce 0) of the template committing ``root``."""
    coinbase = make_coinbase(template, root, extra_nonce)
    txs = (coinbase,) + template.transactions
    header = BlockHeader(
        prev_hash=template.parent_hash,
        tx_mroot=tx_merkle_root(txs),
        target_bits=template.target_bits,
        nonce=0,
        height=template.height,
    )
    return Block(header=header, transactions=txs)


def nonce_start(seed: int) -> int:
    """Deterministic starting nonce for a given search seed."""
    return int.from_bytes(hash256(struct.pack("<Q", seed & (1 << 64) - 1))[:8], "little")


def solve_pow(header: BlockHeader, max_attempts: int, seed: int = 0) -> int | None:
    """Scan nonces from a seed-derived start, wrapping at 2**64; None when
    the budget runs out.

    The header is encoded once, which checks its field widths. One attempt
    then packs the five header fields with ``HEADER_STRUCT``, hashes them
    with ``hash256`` and calls ``pow_ok`` on the digest: no ``BlockHeader``
    is built and nothing else is encoded. Raises the ValueError of
    :func:`encode_header` for a hash of the wrong width.
    """
    encode_header(header)
    prev_hash, tx_mroot, target_bits, _, height = header
    pack = HEADER_STRUCT.pack
    nonce = nonce_start(seed)
    for _ in range(max_attempts):
        if pow_ok(hash256(pack(prev_hash, tx_mroot, target_bits, nonce, height)), target_bits):
            return nonce
        nonce = (nonce + 1) & (1 << 64) - 1
    return None


def _solve(unmined: Callable[[int], Block], seed: int) -> Block:
    """Solve ``unmined(extra_nonce)``, rolling the extra nonce whenever a
    scan of ``MAX_ATTEMPTS`` nonces comes up empty."""
    extra_nonce = 0
    while True:
        block = unmined(extra_nonce)
        nonce = solve_pow(block.header, MAX_ATTEMPTS, seed=seed + extra_nonce)
        if nonce is not None:
            return Block(header=block.header._replace(nonce=nonce),
                         transactions=block.transactions)
        extra_nonce += 1


def mine_block(template: BlockTemplate, parent_state: VersionedShardStore,
               seed: int = 0) -> Block:
    """Assemble and solve; ``parent_state`` is left as it was."""
    return _solve(lambda extra: assemble_block(template, parent_state, extra), seed)


def template_on(node: FullNode, txs, fees: int, reward_key: bytes) -> BlockTemplate:
    """A template of ``txs``, which pay ``fees``, on the node's tip; on a
    node with no chain, a genesis template (parent ``ZERO32``, height 0)."""
    return BlockTemplate(
        parent_hash=node.headers.tip or ZERO32,
        height=_next_height(node),
        target_bits=node.params.target_bits,
        transactions=tuple(txs),
        reward_key=reward_key,
        reward_value=node.params.subsidy + fees,
    )


def _next_height(node: FullNode) -> int:
    return 0 if node.headers.tip is None else node.tip_height + 1


def mine_txs(node: FullNode, txs, reward_key: bytes, seed: int = 0,
             commitment: bytes | None = None) -> Block:
    """Mine a block of ``txs`` on the node's tip (its genesis, on a node
    with no chain) and connect it there, applying its body once.
    ``commitment`` replaces the committed root; only a node that does not
    check commitments takes that. Raises ValidationError if the node
    rejects the block; on any failure the node is left as it was."""
    txs = tuple(txs)
    root, fees = node.open_block(txs, _next_height(node))
    closed = False
    try:
        template = template_on(node, txs, fees, reward_key)
        committed = root if commitment is None else commitment
        block = _solve(lambda extra: block_on(template, committed, extra), seed)
        node.close_block(block, root, fees)
        closed = True
    finally:
        if not closed:
            node.utxo.undo_block()
    return block


def mine_on(node: FullNode, reward_key: bytes, seed: int = 0) -> Block:
    """Mine the node's whole pool, which always fits its tip, as
    :func:`mine_txs` does; the pool's own tx objects let ``open_block``
    commit the view that admission built."""
    return mine_txs(node, node.mempool, reward_key, seed)


def make_genesis(params: ChainParams, reward_key: bytes, seed: int = 0) -> Block:
    """Mine the height-0 block; it commits the root of an empty store."""
    return mine_on(FullNode(params), reward_key, seed)
