from __future__ import annotations

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from dietchain.chain import (
    COINBASE_INDEX,
    COINBASE_TXID,
    HEADER_SIZE,
    KIND_COMMITMENT,
    KIND_PAYMENT,
    MIN_SIZE_CAP,
    ZERO32,
    Block,
    BlockHeader,
    ChainParams,
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
    decode_block,
    decode_header,
    decode_transaction,
    encode_block,
    encode_header,
    encode_input,
    encode_output,
    encode_transaction,
    header_hash,
    leading_zero_bits,
    make_coinbase_input,
    pow_ok,
    sighash,
    txid,
)
from dietchain.crypto import hash256
from dietchain.errors import DecodeError
from dietchain.miner import nonce_start, solve_pow


def _random_output(rng: random.Random) -> TxOutput:
    kind = rng.choice([KIND_PAYMENT, KIND_COMMITMENT])
    return TxOutput(value=rng.randrange(1 << 40), kind=kind, payload=rng.randbytes(32))


def _random_tx(rng: random.Random) -> Transaction:
    inputs = tuple(
        TxInput(
            prevout=OutPoint(txid=rng.randbytes(32), index=rng.randrange(1 << 16)),
            public_key=rng.randbytes(33),
            signature=rng.randbytes(64),
        )
        for _ in range(rng.randrange(1, 4))
    )
    outputs = tuple(_random_output(rng) for _ in range(rng.randrange(1, 5)))
    return Transaction(version=rng.randrange(1 << 16), inputs=inputs, outputs=outputs)


def _random_header(rng: random.Random) -> BlockHeader:
    return BlockHeader(
        prev_hash=rng.randbytes(32),
        tx_mroot=rng.randbytes(32),
        target_bits=rng.randrange(256),
        nonce=rng.randrange(1 << 64),
        height=rng.randrange(1 << 32),
    )


def test_wire_widths():
    rng = random.Random(1)
    header = _random_header(rng)
    assert HEADER_SIZE == 77
    assert len(encode_header(header)) == 77
    single = TxInput(
        prevout=OutPoint(txid=bytes(32), index=0),
        public_key=bytes(33),
        signature=bytes(64),
    )
    assert len(encode_input(single)) == 36 + 33 + 64 == 133
    assert len(encode_output(TxOutput(value=0, kind=0, payload=bytes(32)))) == 41


def test_header_field_order_little_endian():
    header = BlockHeader(prev_hash=b"\x01" * 32, tx_mroot=b"\x02" * 32,
                         target_bits=7, nonce=0x1122334455667788, height=0x0A0B0C0D)
    wire = encode_header(header)
    assert wire[:32] == b"\x01" * 32
    assert wire[32:64] == b"\x02" * 32
    assert wire[64] == 7
    assert wire[65:73] == struct.pack("<Q", 0x1122334455667788)
    assert wire[73:77] == struct.pack("<I", 0x0A0B0C0D)


def test_transaction_roundtrip_randomized():
    rng = random.Random(2)
    for _ in range(100):
        tx = _random_tx(rng)
        assert decode_transaction(encode_transaction(tx)) == tx


def test_block_roundtrip_randomized():
    rng = random.Random(3)
    for _ in range(30):
        block = Block(
            header=_random_header(rng),
            transactions=tuple(_random_tx(rng) for _ in range(rng.randrange(1, 5))),
        )
        assert decode_block(encode_block(block)) == block


def test_decode_truncation_reports_offset():
    rng = random.Random(4)
    tx = _random_tx(rng)
    wire = encode_transaction(tx)
    with pytest.raises(DecodeError) as info:
        decode_transaction(wire[:10])
    assert info.value.offset <= 10
    with pytest.raises(DecodeError) as info:
        decode_header(encode_header(_random_header(rng))[:76])
    # cut mid-height: the error points at the start of the failed u32 read
    assert info.value.offset == 73


def test_decode_rejects_trailing_bytes():
    rng = random.Random(5)
    tx = _random_tx(rng)
    with pytest.raises(DecodeError) as info:
        decode_transaction(encode_transaction(tx) + b"\x00")
    assert "trailing" in str(info.value)


def test_decode_rejects_unknown_output_kind():
    out = TxOutput(value=1, kind=0, payload=bytes(32))
    tx = Transaction(version=0, inputs=(), outputs=(out,))
    wire = bytearray(encode_transaction(tx))
    # kind byte sits after version(4) + input count(2) + output count(2) + value(8)
    assert wire[16] == 0
    wire[16] = 9
    with pytest.raises(DecodeError):
        decode_transaction(bytes(wire))


def test_txid_is_stable_and_sensitive():
    rng = random.Random(6)
    tx = _random_tx(rng)
    first = txid(tx)
    assert txid(tx) == first
    bumped = tx._replace(version=tx.version + 1)
    assert txid(bumped) != first


def test_sighash_ignores_input_proofs():
    rng = random.Random(7)
    tx = _random_tx(rng)
    resigned = tx._replace(inputs=tuple(
        i._replace(public_key=rng.randbytes(33), signature=rng.randbytes(64))
        for i in tx.inputs))
    assert sighash(tx) == sighash(resigned)
    assert txid(tx) != txid(resigned)
    moved = tx._replace(inputs=tuple(
        i._replace(prevout=OutPoint(txid=rng.randbytes(32), index=0))
        for i in tx.inputs))
    assert sighash(tx) != sighash(moved)


def test_coinbase_marker():
    marker = make_coinbase_input()
    assert marker.prevout.txid == COINBASE_TXID == ZERO32
    assert marker.prevout.index == COINBASE_INDEX == 0xFFFFFFFF
    tx = Transaction(version=3, inputs=(marker,),
                     outputs=(TxOutput(value=50, kind=KIND_PAYMENT, payload=bytes(32)),))
    assert tx.is_coinbase
    assert not _random_tx(random.Random(8)).is_coinbase


def test_leading_zero_bits():
    assert leading_zero_bits(b"\x00" * 32) == 256
    assert leading_zero_bits(b"\x80" + b"\x00" * 31) == 0
    assert leading_zero_bits(b"\x08" + b"\x00" * 31) == 4
    assert leading_zero_bits(b"\x00\x01" + b"\x00" * 30) == 15


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(zeros=st.integers(0, 256), noise=st.binary(min_size=32, max_size=32),
       target_bits=st.integers(0, 255))
def test_pow_ok_counts_leading_zero_bits(zeros, noise, target_bits):
    digest = (int.from_bytes(noise, "big") >> zeros).to_bytes(32, "big")
    assert pow_ok(digest, target_bits) == (leading_zero_bits(digest) >= target_bits)


def test_pow_ok_at_the_edges():
    assert pow_ok(b"\xff" * 32, 0)
    assert pow_ok(b"\x00" * 32, 255)
    assert pow_ok(b"\x00\x7f" + b"\xff" * 30, 9)
    assert not pow_ok(b"\x00\x7f" + b"\xff" * 30, 10)


@pytest.mark.parametrize("field", ["prev_hash", "tx_mroot"])
@pytest.mark.parametrize("width", [0, 31, 33])
def test_encode_header_refuses_a_wrong_width_hash(field, width):
    header = _random_header(random.Random(11))._replace(**{field: b"\x07" * width})
    with pytest.raises(ValueError, match=f"^{field} must be 32 bytes, got {width}$"):
        encode_header(header)


def test_encode_header_names_prev_hash_first_when_both_are_wrong():
    header = _random_header(random.Random(12))._replace(prev_hash=b"", tx_mroot=b"")
    with pytest.raises(ValueError, match="^prev_hash must be 32 bytes, got 0$"):
        encode_header(header)


_TX_FIELD_WIDTHS = {"txid": 32, "public_key": 33, "signature": 64, "payload": 32}


def _with_field(tx: Transaction, field: str, value: bytes) -> Transaction:
    """``tx`` with ``field`` of its first input (or output) set to ``value``."""
    if field == "payload":
        first = tx.outputs[0]._replace(payload=value)
        return tx._replace(outputs=(first, *tx.outputs[1:]))
    first = tx.inputs[0]
    first = (first._replace(prevout=first.prevout._replace(txid=value)) if field == "txid"
             else first._replace(**{field: value}))
    return tx._replace(inputs=(first, *tx.inputs[1:]))


@pytest.mark.parametrize("delta", [-1, 1, "empty"])
@pytest.mark.parametrize("field", sorted(_TX_FIELD_WIDTHS))
def test_encode_transaction_refuses_a_wrong_width_field(field, delta):
    """A fixed-width bytes field of the wrong width is a ValueError naming
    it, never a record silently padded or cut to width."""
    width = _TX_FIELD_WIDTHS[field]
    got = 0 if delta == "empty" else width + delta
    tx = _with_field(_random_tx(random.Random(13)), field, b"\x05" * got)
    with pytest.raises(ValueError, match=f"^{field} must be {width} bytes, got {got}$"):
        encode_transaction(tx)


def _sighash_the_old_way(tx: Transaction) -> bytes:
    """The reference signing digest: every input rebuilt with
    ``_replace``, its key and signature zeroed."""
    blanked = tx._replace(inputs=tuple(
        i._replace(public_key=b"\x00" * 33, signature=b"\x00" * 64) for i in tx.inputs))
    return hash256(encode_transaction(blanked))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 1 << 32), inputs=st.integers(0, 3), outputs=st.integers(0, 4))
def test_sighash_is_the_hash_of_the_zeroed_proof_encoding(seed, inputs, outputs):
    rng = random.Random(seed)
    tx = Transaction(
        version=rng.randrange(1 << 32),
        inputs=tuple(TxInput(OutPoint(rng.randbytes(32), rng.randrange(1 << 32)),
                             rng.randbytes(33), rng.randbytes(64)) for _ in range(inputs)),
        outputs=tuple(_random_output(rng) for _ in range(outputs)))
    assert sighash(tx) == _sighash_the_old_way(tx)


def test_pow_mean_attempts_matches_target():
    rng = random.Random(9)
    attempts = []
    for trial in range(200):
        header = BlockHeader(prev_hash=rng.randbytes(32), tx_mroot=rng.randbytes(32),
                             target_bits=8, nonce=0, height=trial)
        start = nonce_start(trial)
        nonce = solve_pow(header, 1 << 16, seed=trial)
        assert nonce is not None
        assert pow_ok(header_hash(header._replace(nonce=nonce)), header.target_bits)
        attempts.append((nonce - start) % (1 << 64) + 1)
    mean = sum(attempts) / len(attempts)
    # geometric with p = 2^-8: mean 256, generous two-sided band
    assert 128 < mean < 512


def test_header_hash_is_double_sha_of_encoding():
    import hashlib
    header = _random_header(random.Random(10))
    wire = encode_header(header)
    assert header_hash(header) == hashlib.sha256(hashlib.sha256(wire).digest()).digest()


@pytest.mark.parametrize("field, value", [
    ("target_bits", -1), ("target_bits", 256),
    ("subsidy", -1), ("subsidy", 1 << 64),
    ("initial_k", -1), ("initial_k", 33),
    ("size_cap", 0), ("size_cap", 2), ("size_cap", MIN_SIZE_CAP - 1),
    ("target_bits", "8"), ("size_cap", 1024.0),
])
def test_params_outside_the_wire_limits_are_refused(field, value):
    # Construction only: under such a cap a block needs more shards than coins.
    with pytest.raises(ValueError, match=field):
        ChainParams(**{field: value})


def test_params_at_the_wire_limits_are_accepted():
    assert MIN_SIZE_CAP == 76
    ChainParams(target_bits=0, subsidy=0, size_cap=MIN_SIZE_CAP, initial_k=0)
    ChainParams(target_bits=255, subsidy=(1 << 64) - 1, size_cap=1 << 40, initial_k=32)
