"""Block assembly and the nonce search.

The coinbase commits the UTXO root for the block being built. That root
covers the block's non-coinbase transactions but never the coinbase's
own reward coins, so the root comes first and the coinbase is built
around it. A node mining on its own tip (``mine_on``) applies the
template's body once (``FullNode.open_block``) and builds and solves the
block on the returned root; ``FullNode.close_block`` then checks the
coinbase value and the commitment, indexes the header (its one check)
and seals the block in place. If anything fails, the body is undone and
nothing is indexed. ``mine_block`` leaves the store it is
given as it was: it previews the root (apply, then undo) and solves.

The coinbase's version field carries the block height so that two
otherwise identical coinbases can never collide on txid. If the 64-bit
nonce space were ever exhausted, the extra nonce is folded into unused
bits of the reward challenge, changing the tx Merkle root.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

from .chain import (
    Block,
    BlockHeader,
    ChainParams,
    KIND_COMMITMENT,
    KIND_PAYMENT,
    Transaction,
    TxOutput,
    ZERO32,
    make_coinbase_input,
    pow_ok,
)
from .crypto import hash256
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
    challenge = hash256(template.reward_key)
    if extra_nonce:
        # Overflow nonce space spills into the low challenge bytes.
        low = int.from_bytes(challenge[24:], "little") ^ (extra_nonce & (1 << 64) - 1)
        challenge = challenge[:24] + struct.pack("<Q", low)
    return Transaction(
        version=template.height,
        inputs=(make_coinbase_input(),),
        outputs=(
            TxOutput(value=template.reward_value, kind=KIND_PAYMENT, payload=challenge),
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
    """Scan nonces from a seed-derived start; None when the budget runs out."""
    prev_hash, tx_mroot, target_bits, _, height = header
    nonce = nonce_start(seed)
    for _ in range(max_attempts):
        if pow_ok(BlockHeader(prev_hash, tx_mroot, target_bits, nonce, height)):
            return nonce
        nonce = (nonce + 1) & (1 << 64) - 1
    return None


def _solve(unmined: Callable[[int], Block], seed: int, max_attempts: int) -> Block:
    """Solve ``unmined(extra_nonce)``, rolling the extra nonce whenever a
    scan comes up empty."""
    extra_nonce = 0
    while True:
        block = unmined(extra_nonce)
        nonce = solve_pow(block.header, max_attempts, seed=seed + extra_nonce)
        if nonce is not None:
            return Block(header=block.header._replace(nonce=nonce),
                         transactions=block.transactions)
        extra_nonce += 1


def mine_block(template: BlockTemplate, parent_state: VersionedShardStore,
               seed: int = 0, max_attempts: int = MAX_ATTEMPTS) -> Block:
    """Assemble and solve; ``parent_state`` is left as it was."""
    return _solve(lambda extra: assemble_block(template, parent_state, extra),
                  seed, max_attempts)


def node_template(node: FullNode, reward_key: bytes) -> BlockTemplate:
    """Template extending the node's tip with its current mempool."""
    txs, fees = node.build_template()
    return BlockTemplate(
        parent_hash=node.tip_hash,
        height=node.tip_height + 1,
        target_bits=node.params.target_bits,
        transactions=tuple(txs),
        reward_key=reward_key,
        reward_value=node.params.subsidy + fees,
    )


def mine_on(node: FullNode, reward_key: bytes, seed: int = 0) -> Block:
    """Mine the next block on a node's tip and connect it there, applying
    its body once. Raises ValidationError if the node rejects the block;
    on any failure the node is left as it was."""
    template = node_template(node, reward_key)
    root, fees = node.open_block(template.transactions, template.height)
    closed = False
    try:
        block = _solve(lambda extra: block_on(template, root, extra), seed, MAX_ATTEMPTS)
        node.close_block(block, root, fees)
        closed = True
    finally:
        if not closed:
            node.utxo.undo_block()
    return block


def make_genesis(params: ChainParams, reward_key: bytes, seed: int = 0) -> Block:
    """Mine the height-0 block; it commits the root of an empty store."""
    template = BlockTemplate(
        parent_hash=ZERO32,
        height=0,
        target_bits=params.target_bits,
        transactions=(),
        reward_key=reward_key,
        reward_value=params.subsidy,
    )
    fresh = VersionedShardStore(initial_k=params.initial_k, size_cap=params.size_cap)
    return mine_block(template, fresh, seed=seed)
