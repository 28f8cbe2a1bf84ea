"""Core chain value types and their canonical wire encodings.

All integers are little-endian and fixed-width; every list is preceded
by a 16-bit element count. Nothing here touches state: these are plain
values plus the hashing rules derived from their encodings.

Wire layout summary::

    OutPoint     txid(32) index(u32)                          36 bytes
    TxInput      outpoint(36) public_key(33) signature(64)   133 bytes
    TxOutput     value(u64) kind(u8) payload(32)              41 bytes
    Transaction  version(u32) inputs(u16+...) outputs(u16+...)
    BlockHeader  prev_hash(32) tx_mroot(32) target_bits(u8)
                 nonce(u64) height(u32)                       77 bytes
    Block        header(77) transactions(u16+...)
    Coin         txid(32) index(u32) value(u64) challenge(32)  76 bytes

Each fixed-width record (a header, an input, an output, a transaction's
version and input count) is read and written with one ``struct`` call,
and a run of inputs or outputs is unpacked in one pass. Bytes that do
not decode are read again field by field from the record's start, so a
short run or an unknown output kind raises the same DecodeError, with
the same message and offset, as reading each field in turn would.

A transaction's id is ``hash256`` of its encoding; its signing digest is
``hash256`` of the encoding with every input's public key and signature
zeroed, so signatures cover the spends and amounts but not each other.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from typing import NamedTuple

from .crypto import PUBLIC_KEY_SIZE, SIGNATURE_SIZE, hash256
from .errors import DecodeError

ZERO32 = b"\x00" * 32

# The marker outpoint carried by a coinbase's single input.
COINBASE_TXID = ZERO32
COINBASE_INDEX = 0xFFFFFFFF

KIND_PAYMENT = 0x00
KIND_COMMITMENT = 0x01

HEADER_SIZE = 77
COIN_SIZE = 76
# A shard is its coins' bytes. Under a cap smaller than one coin the
# split rule settles only with more shards than coins.
MIN_SIZE_CAP = COIN_SIZE

# (field, lowest, highest) a ChainParams value may take
_PARAM_LIMITS = (
    ("target_bits", 0, 0xFF),          # the header's u8
    ("subsidy", 0, (1 << 64) - 1),     # an output's u64
    ("size_cap", MIN_SIZE_CAP, None),
    ("initial_k", 0, 32),              # shard keys are a txid's first 32 bits
)


@dataclass(frozen=True)
class ChainParams:
    """Consensus constants shared by every node in a deployment."""

    target_bits: int = 8
    subsidy: int = 50
    size_cap: int = 1024
    initial_k: int = 0

    def __post_init__(self):
        for name, low, high in _PARAM_LIMITS:
            value = getattr(self, name)
            if not isinstance(value, int) or value < low or (high is not None and value > high):
                allowed = f"at least {low}" if high is None else f"in [{low}, {high}]"
                raise ValueError(f"{name} must be an integer {allowed}, got {value!r}")


class OutPoint(NamedTuple):
    txid: bytes
    index: int

    @property
    def is_coinbase_marker(self) -> bool:
        return self.txid == COINBASE_TXID and self.index == COINBASE_INDEX


class TxInput(NamedTuple):
    prevout: OutPoint
    public_key: bytes  # 33 bytes
    signature: bytes   # 64 bytes


class TxOutput(NamedTuple):
    value: int
    kind: int          # KIND_PAYMENT or KIND_COMMITMENT
    payload: bytes     # challenge (payment) or committed root (commitment)


class Transaction(NamedTuple):
    version: int
    inputs: tuple[TxInput, ...]
    outputs: tuple[TxOutput, ...]

    @property
    def is_coinbase(self) -> bool:
        return len(self.inputs) == 1 and self.inputs[0].prevout.is_coinbase_marker


class BlockHeader(NamedTuple):
    prev_hash: bytes
    tx_mroot: bytes
    target_bits: int
    nonce: int
    height: int


class Block(NamedTuple):
    header: BlockHeader
    transactions: tuple[Transaction, ...]


class Reader:
    """Cursor over wire bytes; raises DecodeError with the failing offset."""

    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.data):
            raise DecodeError("input truncated", self.offset)
        chunk = self.data[self.offset:self.offset + n]
        self.offset += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def done(self) -> None:
        if self.offset != len(self.data):
            raise DecodeError("trailing bytes after value", self.offset)


def _exact_width(name: str, value: bytes, width: int) -> bytes:
    if len(value) != width:
        raise ValueError(f"{name} must be {width} bytes, got {len(value)}")
    return value


# One struct per fixed-width record. A "32s"/"33s"/"64s" field pads or
# truncates silently, so the encoders check byte widths before packing.
HEADER_STRUCT = struct.Struct("<32s32sBQI")  # BlockHeader's fields in order
_TX_START = struct.Struct("<IH")        # a transaction's version and input count
_INPUT = struct.Struct("<32sI33s64s")   # prevout txid and index, public key, signature
_OUTPUT = struct.Struct("<QB32s")       # TxOutput's fields in order
_COUNT = struct.Struct("<H")            # a list's element count
_KIND_AT = 8                            # an output's kind byte follows its u64 value
_KINDS = frozenset((KIND_PAYMENT, KIND_COMMITMENT))


def encode_input(i: TxInput) -> bytes:
    txid, index = i.prevout
    if (len(txid) != 32 or len(i.public_key) != PUBLIC_KEY_SIZE
            or len(i.signature) != SIGNATURE_SIZE):
        _exact_width("txid", txid, 32)
        _exact_width("public_key", i.public_key, PUBLIC_KEY_SIZE)
        _exact_width("signature", i.signature, SIGNATURE_SIZE)
    return _INPUT.pack(txid, index, i.public_key, i.signature)


def encode_output(o: TxOutput) -> bytes:
    if len(o.payload) != 32:
        _exact_width("payload", o.payload, 32)
    return _OUTPUT.pack(*o)


def encode_transaction(tx: Transaction) -> bytes:
    parts = [_TX_START.pack(tx.version, len(tx.inputs))]
    parts.extend(map(encode_input, tx.inputs))
    parts.append(_COUNT.pack(len(tx.outputs)))
    parts.extend(map(encode_output, tx.outputs))
    return b"".join(parts)


def encode_header(h: BlockHeader) -> bytes:
    if len(h.prev_hash) != 32 or len(h.tx_mroot) != 32:
        _exact_width("prev_hash", h.prev_hash, 32)
        _exact_width("tx_mroot", h.tx_mroot, 32)
    return HEADER_STRUCT.pack(*h)


def encode_block(b: Block) -> bytes:
    parts = [encode_header(b.header), _COUNT.pack(len(b.transactions))]
    parts.extend(map(encode_transaction, b.transactions))
    return b"".join(parts)


# Field by field: these name the DecodeError of bytes the record readers
# below refuse, and nothing else calls them.

def _read_outpoint_fields(r: Reader) -> OutPoint:
    return OutPoint(txid=r.take(32), index=r.u32())


def _read_input_fields(r: Reader) -> TxInput:
    return TxInput(
        prevout=_read_outpoint_fields(r),
        public_key=r.take(PUBLIC_KEY_SIZE),
        signature=r.take(SIGNATURE_SIZE),
    )


def _read_output_fields(r: Reader) -> TxOutput:
    value = r.u64()
    kind = r.u8()
    if kind not in _KINDS:
        raise DecodeError(f"unknown output kind 0x{kind:02x}", r.offset - 1)
    return TxOutput(value=value, kind=kind, payload=r.take(32))


def _read_transaction_fields(r: Reader) -> Transaction:
    version = r.u32()
    inputs = tuple(_read_input_fields(r) for _ in range(r.u16()))
    outputs = tuple(_read_output_fields(r) for _ in range(r.u16()))
    return Transaction(version=version, inputs=inputs, outputs=outputs)


def _read_header_fields(r: Reader) -> BlockHeader:
    prev_hash = r.take(32)
    tx_mroot = r.take(32)
    target_bits = r.u8()
    nonce = r.u64()
    height = r.u32()
    return BlockHeader(prev_hash, tx_mroot, target_bits, nonce, height)


def _field_error(read_fields, r: Reader, start: int) -> DecodeError:
    """The DecodeError that ``read_fields`` raises reading from ``start``.
    A record reader asks for it only on bytes it refused, which reading
    field by field refuses too, so malformed bytes keep their message
    and offset."""
    r.offset = start
    try:
        read_fields(r)
    except DecodeError as exc:
        return exc
    raise AssertionError(f"{read_fields.__name__} decoded bytes a record reader refused")


def read_transaction(r: Reader) -> Transaction:
    data, start = r.data, r.offset
    try:
        version, n_in = _TX_START.unpack_from(data, start)
        inputs_at = start + _TX_START.size
        count_at = inputs_at + _INPUT.size * n_in
        (n_out,) = _COUNT.unpack_from(data, count_at)
    except struct.error:  # the bytes end before the output count
        raise _field_error(_read_transaction_fields, r, start) from None
    outputs_at = count_at + _COUNT.size
    end = outputs_at + _OUTPUT.size * n_out
    if end > len(data) or not _KINDS.issuperset(data[outputs_at + _KIND_AT:end:_OUTPUT.size]):
        raise _field_error(_read_transaction_fields, r, start)
    inputs = tuple([TxInput(OutPoint(txid, index), key, sig) for txid, index, key, sig
                    in _INPUT.iter_unpack(data[inputs_at:count_at])])
    outputs = tuple(map(TxOutput._make, _OUTPUT.iter_unpack(data[outputs_at:end])))
    r.offset = end
    return Transaction(version, inputs, outputs)


def read_header(r: Reader) -> BlockHeader:
    data, start = r.data, r.offset
    if len(data) - start < HEADER_SIZE:
        raise _field_error(_read_header_fields, r, start)
    r.offset = start + HEADER_SIZE
    return BlockHeader._make(HEADER_STRUCT.unpack_from(data, start))


def read_block(r: Reader) -> Block:
    header = read_header(r)
    txs = tuple([read_transaction(r) for _ in range(r.u16())])
    return Block(header=header, transactions=txs)


def decode_transaction(data: bytes) -> Transaction:
    r = Reader(data)
    tx = read_transaction(r)
    r.done()
    return tx


def decode_header(data: bytes) -> BlockHeader:
    r = Reader(data)
    h = read_header(r)
    r.done()
    return h


def decode_block(data: bytes) -> Block:
    r = Reader(data)
    b = read_block(r)
    r.done()
    return b


# A tx on the write path is asked for its id many times (coin views, the
# store, the pool, the block checks); a small memo hashes it once. Equal
# transactions have equal encodings, so a hit is exact.
@functools.lru_cache(maxsize=512)
def txid(tx: Transaction) -> bytes:
    return hash256(encode_transaction(tx))


_BLANK_PROOF = (b"\x00" * PUBLIC_KEY_SIZE, b"\x00" * SIGNATURE_SIZE)  # key, signature


def sighash(tx: Transaction) -> bytes:
    """Signing digest: the encoding with all input proofs blanked."""
    blanked = Transaction(tx.version, tuple([TxInput(i.prevout, *_BLANK_PROOF) for i in tx.inputs]),
                          tx.outputs)
    return hash256(encode_transaction(blanked))


def tx_items(tx: Transaction) -> list[bytes]:
    """What a filter matches a tx on: the keys it spends with, then the
    challenges it pays."""
    return ([i.public_key for i in tx.inputs if not i.prevout.is_coinbase_marker]
            + [o.payload for o in tx.outputs if o.kind == KIND_PAYMENT])


def tx_touches(tx: Transaction, watched) -> bool:
    """Whether ``tx`` spends with a key or pays a challenge that ``watched`` accepts."""
    return any(watched(item) for item in tx_items(tx))


def header_hash(h: BlockHeader) -> bytes:
    return hash256(encode_header(h))


def block_hash(b: Block) -> bytes:
    return header_hash(b.header)


def leading_zero_bits(digest: bytes) -> int:
    count = 0
    for byte in digest:
        if byte == 0:
            count += 8
        else:
            count += 8 - byte.bit_length()
            break
    return count


def pow_ok(digest: bytes, target_bits: int) -> bool:
    """The proof-of-work predicate: whether a 32-byte header digest has at
    least ``target_bits`` (0..256) leading zero bits, as
    :func:`leading_zero_bits` counts them. Header checks and the nonce scan
    both call it."""
    return int.from_bytes(digest, "big") >> (256 - target_bits) == 0


def make_coinbase_input() -> TxInput:
    return TxInput(
        prevout=OutPoint(COINBASE_TXID, COINBASE_INDEX),
        public_key=b"\x00" * PUBLIC_KEY_SIZE,
        signature=b"\x00" * SIGNATURE_SIZE,
    )
