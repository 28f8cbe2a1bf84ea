"""Block-body consensus rules, the one copy both the full node and the diet
node run. Rules that read coins take a coin view, a ``utxo.ShardView``
on both node kinds: ``get_coin(outpoint)`` returns a spendable coin or
None, ``absorb(tx)`` spends a validated tx's inputs and adds its outputs.
"""

from __future__ import annotations

from .chain import (
    Block,
    KIND_COMMITMENT,
    KIND_PAYMENT,
    OutPoint,
    Transaction,
    TxInput,
    sighash,
    txid,
)
from .crypto import KeyPair, hash256, verify
from .errors import ValidationError
from .merkle import build_root
from .utxo import Coin


def tx_merkle_root(txs) -> bytes:
    return build_root([txid(tx) for tx in txs])


def signed_spend(key: KeyPair, coins: list[Coin], outputs) -> Transaction:
    """A transaction spending ``coins`` to ``outputs``, signed by ``key``."""
    tx = Transaction(version=0, inputs=tuple(
        TxInput(prevout=c.outpoint, public_key=key.public_key, signature=b"\x00" * 64)
        for c in coins), outputs=tuple(outputs))
    signature = key.sign(sighash(tx))
    return tx._replace(inputs=tuple(i._replace(signature=signature) for i in tx.inputs))


def validate_transaction(tx: Transaction, view, signed=frozenset()) -> int:
    """Check ownership, value balance, and double spends; returns the fee.

    ``signed`` holds txids whose signatures this node has already
    verified; for such a tx the Ed25519 checks are skipped. A txid
    commits to the whole encoding, keys and signatures included, and a
    signature check reads nothing else, so its outcome cannot have
    changed. Every other check runs against ``view`` each time: inputs
    exist and are not spent twice, each key hashes to its coin's
    challenge, and outputs do not exceed inputs.

    Raises ValidationError with code 'bad-structure', 'missing-input',
    'ownership-failure', or 'value-creation'.
    """
    if tx.is_coinbase or not tx.inputs:
        raise ValidationError("bad-structure", "expected a spending transaction")
    digest = None if signed and txid(tx) in signed else sighash(tx)
    seen: set[OutPoint] = set()
    total_in = 0
    for inp in tx.inputs:
        if inp.prevout in seen:
            raise ValidationError("missing-input", f"{inp.prevout} spent twice in one tx")
        seen.add(inp.prevout)
        coin = view.get_coin(inp.prevout)
        if coin is None:
            raise ValidationError("missing-input", f"{inp.prevout} not in the UTXO set")
        if hash256(inp.public_key) != coin.challenge:
            raise ValidationError("ownership-failure", "key does not match the challenge")
        if digest is not None and not verify(inp.public_key, digest, inp.signature):
            raise ValidationError("ownership-failure", "bad signature")
        total_in += coin.value
    total_out = sum(out.value for out in tx.outputs)
    if total_in < total_out:
        raise ValidationError("value-creation", f"outputs {total_out} exceed inputs {total_in}")
    return total_in - total_out


def connect_body(txs, view, height: int, signed=frozenset()) -> int:
    """Validate and absorb each spending tx of a block body in order;
    returns the fees. Errors without a height get ``height``, the block's.

    ``signed`` is passed on to :func:`validate_transaction`: txids whose
    signatures the caller has verified before. A full node passes its
    mempool's txids; a diet node passes nothing and checks every
    signature in its window.
    """
    fees = 0
    try:
        for tx in txs:
            fees += validate_transaction(tx, view, signed)
            view.absorb(tx)
    except ValidationError as exc:
        raise exc if exc.height is not None else ValidationError(exc.code, exc.detail, height)
    return fees


def commitment_of(block: Block) -> bytes:
    """The committed UTXO root a block carries in its coinbase."""
    for out in block.transactions[0].outputs:
        if out.kind == KIND_COMMITMENT:
            return out.payload
    raise ValidationError("root-mismatch", "coinbase carries no commitment",
                          height=block.header.height)


def check_coinbase(block: Block, subsidy: int, fees: int, root: bytes | None) -> None:
    """The close rule of a block whose body paid ``fees``: its coinbase
    pays at most ``subsidy`` plus the fees (``bad-coinbase-value``), then
    commits ``root``, the UTXO root after the body (``root-mismatch``).
    ``root=None`` skips the commitment."""
    height = block.header.height
    reward = sum(out.value for out in block.transactions[0].outputs if out.kind == KIND_PAYMENT)
    if reward > subsidy + fees:
        raise ValidationError("bad-coinbase-value",
                              f"reward {reward} exceeds subsidy plus fees", height=height)
    if root is not None and commitment_of(block) != root:
        raise ValidationError("root-mismatch", height=height)


def check_block_structure(block: Block) -> None:
    height = block.header.height
    if not block.transactions:
        raise ValidationError("bad-structure", "block has no transactions", height=height)
    if not block.transactions[0].is_coinbase:
        raise ValidationError("bad-structure", "first transaction is not a coinbase",
                              height=height)
    if block.transactions[0].version != height:
        raise ValidationError("bad-coinbase", "coinbase version is not the block height",
                              height=height)
    for tx in block.transactions[1:]:
        if any(i.prevout.is_coinbase_marker for i in tx.inputs):
            raise ValidationError("bad-structure", "coinbase marker outside the coinbase",
                                  height=height)
    tx_ids = [txid(tx) for tx in block.transactions]
    # The tx tree pairs an odd last node with itself, so repeating the
    # last transactions keeps the root: such a body must not count as
    # the block's (CVE-2012-2459).
    if len(set(tx_ids)) != len(tx_ids):
        raise ValidationError("bad-structure", "duplicate transaction", height=height)
    if build_root(tx_ids) != block.header.tx_mroot:
        raise ValidationError("tx-mroot-mismatch", height=height)
