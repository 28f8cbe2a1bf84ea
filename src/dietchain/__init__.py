"""Desk-scale blockchain with a sharded, Merkle-committed UTXO set.

Full nodes validate everything; SPV clients check header inclusion
proofs; diet clients additionally re-verify a bounded window of recent
blocks by downloading only the UTXO shards those blocks touched,
checked against the roots committed in each block's coinbase.
"""

from .chain import (
    Block,
    BlockHeader,
    ChainParams,
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
    block_hash,
    header_hash,
    pow_ok,
    sighash,
    txid,
)
from .crypto import BloomFilter, KeyPair, hash256, verify
from .diet_node import DietConfig, DietNode, compute_verification_range
from .errors import (
    DecodeError,
    DietchainError,
    HistoryUnavailableError,
    IncompleteProofError,
    InconsistentStateError,
    ScenarioError,
    ValidationError,
)
from .full_node import ConnectResult, FullNode
from .merkle import (
    PartialMerkleTree,
    build_root,
    extract_partial,
    partial_root,
)
from .miner import BlockTemplate, assemble_block, make_genesis, mine_block, mine_on, solve_pow
from .netsim import Adversary, Bus
from .rules import validate_transaction
from .utxo import Coin, Shard, VersionedShardStore, shard_key

__version__ = "0.1.0"

__all__ = [
    "Adversary",
    "Block",
    "BlockHeader",
    "BlockTemplate",
    "BloomFilter",
    "Bus",
    "ChainParams",
    "Coin",
    "ConnectResult",
    "DecodeError",
    "DietConfig",
    "DietNode",
    "DietchainError",
    "FullNode",
    "HistoryUnavailableError",
    "IncompleteProofError",
    "InconsistentStateError",
    "KeyPair",
    "OutPoint",
    "PartialMerkleTree",
    "ScenarioError",
    "Shard",
    "Transaction",
    "TxInput",
    "TxOutput",
    "ValidationError",
    "VersionedShardStore",
    "assemble_block",
    "block_hash",
    "build_root",
    "compute_verification_range",
    "extract_partial",
    "hash256",
    "header_hash",
    "make_genesis",
    "mine_block",
    "mine_on",
    "partial_root",
    "pow_ok",
    "shard_key",
    "sighash",
    "solve_pow",
    "txid",
    "validate_transaction",
    "verify",
]
