"""Round-trip fuzzing of every wire codec: mutated, truncated and extended
copies of honest payloads either decode to a value that encodes to the
very same bytes, or raise DecodeError; no other exception gets out."""

from __future__ import annotations

import struct

import pytest
from conftest import FAST, key_of, mined_node, payment
from hypothesis import given, settings, strategies as st

from dietchain.chain import (
    block_hash,
    decode_block,
    decode_header,
    decode_transaction,
    encode_block,
    encode_header,
    encode_transaction,
)
from dietchain.crypto import BloomFilter, hash256
from dietchain.errors import DecodeError
from dietchain.full_node import UtxosResponse
from dietchain.merkle import decode_partial, encode_partial
from dietchain.miner import mine_on
from dietchain.netsim import (
    decode_merkle_blocks_request,
    decode_merkle_blocks_response,
    decode_utxos_response,
    encode_merkle_blocks_request,
    encode_merkle_blocks_response,
    encode_utxos_response,
)
from dietchain.utxo import Shard, decode_shard, encode_shard_coins

ALICE = key_of("alice")
PAYEES = [key_of(f"fuzz{i}") for i in range(3)]


def _honest_payloads() -> dict[str, bytes]:
    node = mined_node(FAST, ALICE, 3, seed=900)
    node.submit_transaction(payment(node, ALICE, [(k.challenge, 3) for k in PAYEES]))
    block = mine_on(node, ALICE.public_key, seed=901)
    bloom = BloomFilter(m=64, h=3)
    for key in PAYEES[:2]:
        bloom.add(key.public_key)
        bloom.add(hash256(key.public_key))
    utxos = node.serve_query_utxos(block_hash(block))
    shard = max(utxos.shards.values(), key=lambda s: len(s.coins))
    return {
        "shard": shard.encoded,
        "utxos": encode_utxos_response(utxos),
        "partial": encode_partial(utxos.tree),
        "merkle_blocks_request": encode_merkle_blocks_request(block.header.prev_hash, bloom),
        "merkle_blocks": encode_merkle_blocks_response(
            node.serve_query_merkle_blocks(block.header.prev_hash, bloom)),
        "header": encode_header(block.header),
        "transaction": encode_transaction(block.transactions[1]),
        "block": encode_block(block),
        "bloom": bloom.encode(),
    }


def _reencode_utxos(data: bytes) -> bytes:
    resp = decode_utxos_response(data)
    shards = {i: Shard.of_coins(i, shard.coins) for i, shard in resp.shards.items()}
    return encode_utxos_response(UtxosResponse(shards=shards, tree=resp.tree))


# codec name -> bytes -> the decoded value encoded again
ROUND_TRIPS = {
    "shard": lambda data: encode_shard_coins(list(decode_shard(data, 0).coins)),
    "utxos": _reencode_utxos,
    "partial": lambda data: encode_partial(decode_partial(data)),
    "merkle_blocks_request": lambda data: encode_merkle_blocks_request(
        *decode_merkle_blocks_request(data)),
    "merkle_blocks": lambda data: encode_merkle_blocks_response(
        decode_merkle_blocks_response(data)),
    "header": lambda data: encode_header(decode_header(data)),
    "transaction": lambda data: encode_transaction(decode_transaction(data)),
    "block": lambda data: encode_block(decode_block(data)),
    "bloom": lambda data: BloomFilter.decode(data).encode(),
}
HONEST = _honest_payloads()


def test_every_honest_payload_round_trips():
    assert set(HONEST) == set(ROUND_TRIPS)
    for name, data in HONEST.items():
        assert ROUND_TRIPS[name](data) == data, name


def _edits():
    """One edit of a payload: (kind, position fraction, byte values)."""
    return st.tuples(st.sampled_from(["set", "insert", "delete", "truncate", "extend", "repeat"]),
                     st.floats(0, 1, exclude_max=True),
                     st.binary(min_size=1, max_size=8))


def _apply(data: bytes, edit) -> bytes:
    kind, where, chunk = edit
    at = int(where * (len(data) + 1))
    if kind == "set":
        at = min(at, len(data) - 1)
        return data[:at] + chunk[:1] + data[at + 1:]
    if kind == "insert":
        return data[:at] + chunk + data[at:]
    if kind == "delete":
        return data[:at] + data[at + len(chunk):]
    if kind == "truncate":
        return data[:at]
    if kind == "extend":
        return data + chunk
    # repeat a stretch of the payload right after itself
    return data[:at + len(chunk)] + data[at:at + len(chunk)] + data[at + len(chunk):]


@pytest.mark.parametrize("name", sorted(ROUND_TRIPS))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(edits=st.lists(_edits(), min_size=1, max_size=3))
def test_a_mutated_payload_round_trips_or_is_a_decode_error(name, edits):
    data = HONEST[name]
    for edit in edits:
        data = _apply(data, edit)
    try:
        again = ROUND_TRIPS[name](data)
    except DecodeError:
        return
    assert again == data


# Byte edits rarely land on an index field with a value that breaks the
# order, so the order rules get entries written straight from hypothesis.

_hashes = st.binary(min_size=32, max_size=32)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(total=st.integers(1, 40),
       leaves=st.lists(st.tuples(st.integers(0, 40), _hashes), max_size=5),
       siblings=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 40), _hashes), max_size=5))
def test_partial_entries_in_any_order_round_trip_or_are_a_decode_error(total, leaves, siblings):
    data = b"".join([struct.pack("<IH", total, len(leaves)),
                     *(struct.pack("<I", i) + h for i, h in leaves),
                     struct.pack("<H", len(siblings)),
                     *(struct.pack("<BI", level, i) + h for level, i, h in siblings)])
    try:
        again = ROUND_TRIPS["partial"](data)
    except DecodeError:
        return
    assert again == data


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(order=st.lists(st.integers(0, 5), max_size=6))
def test_shards_in_any_order_round_trip_or_are_a_decode_error(order):
    honest = decode_utxos_response(HONEST["utxos"])
    shards = sorted(honest.shards.items())
    entries = [shards[j % len(shards)] for j in order]
    data = b"".join([struct.pack("<H", len(entries)),
                     *(struct.pack("<I", i) + shard.encoded for i, shard in entries),
                     encode_partial(honest.tree)])
    try:
        again = ROUND_TRIPS["utxos"](data)
    except DecodeError:
        return
    assert again == data
