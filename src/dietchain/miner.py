"""Block assembly and the nonce search.

The coinbase commits the UTXO root for the block being built. That root
covers the block's non-coinbase transactions but never the coinbase's
own reward coins, so assembly is two-pass: compute the root from the
parent state plus the template, then build the coinbase around it.

The coinbase's version field carries the block height so that two
otherwise identical coinbases can never collide on txid. If the 64-bit
nonce space were ever exhausted, the extra nonce is folded into unused
bits of the reward challenge, changing the tx Merkle root.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

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
from .errors import ValidationError
from .full_node import FullNode
from .rules import tx_merkle_root
from .utxo import VersionedShardStore


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
    nonce = nonce_start(seed)
    for _ in range(max_attempts):
        candidate = header._replace(nonce=nonce)
        if pow_ok(candidate):
            return nonce
        nonce = (nonce + 1) & (1 << 64) - 1
    return None


def mine_block(template: BlockTemplate, parent_state: VersionedShardStore,
               seed: int = 0, max_attempts: int = 1 << 20) -> Block:
    """Assemble and solve; rolls the extra nonce if a scan comes up empty."""
    extra_nonce = 0
    while True:
        block = assemble_block(template, parent_state, extra_nonce)
        nonce = solve_pow(block.header, max_attempts, seed=seed + extra_nonce)
        if nonce is not None:
            return Block(header=block.header._replace(nonce=nonce),
                         transactions=block.transactions)
        extra_nonce += 1


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
    """Mine the next block on a node's tip and connect it there."""
    block = mine_block(node_template(node, reward_key), node.utxo, seed=seed)
    result = node.connect_block(block)
    if not result.accepted:
        raise ValidationError(result.reason or "rejected",
                              "node rejected its own block", result.height)
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
