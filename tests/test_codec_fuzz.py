"""Round-trip fuzzing of every wire codec: mutated, truncated and extended
copies of honest payloads either decode to a value that encodes to the
very same bytes, or raise DecodeError; no other exception gets out."""

from __future__ import annotations

import random
import struct

import pytest
from conftest import FAST, key_of, mined_node, payment, read_whole, utxos_siblings_at
from hypothesis import given, settings, strategies as st

from dietchain.chain import (
    COIN_SIZE,
    KIND_COMMITMENT,
    KIND_PAYMENT,
    Block,
    BlockHeader,
    OutPoint,
    Reader,
    Transaction,
    TxInput,
    TxOutput,
    decode_block,
    decode_header,
    decode_transaction,
    encode_block,
    encode_header,
    encode_transaction,
    read_block,
    read_header,
    read_transaction,
)
from dietchain.crypto import BloomFilter, hash256
from dietchain.errors import DecodeError
from dietchain.full_node import MerkleBlockMatch, MerkleBlocksResponse, UtxosResponse
from dietchain.merkle import encode_partial, read_partial
from dietchain.miner import mine_on
from dietchain.netsim import (
    decode_merkle_blocks_request,
    decode_merkle_blocks_response,
    decode_utxos_response,
    encode_merkle_blocks_request,
    encode_merkle_blocks_response,
    encode_utxos_response,
)
from dietchain.utxo import Coin, Shard, decode_shard, encode_shard_coins

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
    # the next block spends two of the payment's coins, whose leaf it
    # edits; the answer proves that leaf and one more, so it carries two
    # leaves and two siblings. The block's match serves two txs
    node.submit_transaction(payment(node, PAYEES[0], [(ALICE.challenge, 1)]))
    node.submit_transaction(payment(node, PAYEES[1], [(ALICE.challenge, 1)]))
    height = mine_on(node, ALICE.public_key, seed=902).header.height
    assert set(node.utxo.versions[height]) == {6}
    utxos = UtxosResponse(*node.utxo.state_before(height, {4, 6}))
    shard = max(utxos.shards.values(), key=lambda s: len(s.coins))
    merkle_blocks = node.serve_query_merkle_blocks(block.header.prev_hash, bloom)
    return {
        "shard": shard.encoded,
        "utxos": encode_utxos_response(utxos),
        "partial": encode_partial(max((m.tx_tree for m in merkle_blocks.matches),
                                      key=lambda tree: len(tree.siblings))),
        "merkle_blocks_request": encode_merkle_blocks_request(block.header.prev_hash, bloom),
        "merkle_blocks": encode_merkle_blocks_response(merkle_blocks),
        "header": encode_header(block.header),
        "transaction": encode_transaction(block.transactions[1]),
        "block": encode_block(block),
        "bloom": bloom.encode(),
    }


def _reencode_utxos(data: bytes) -> bytes:
    resp = decode_utxos_response(data)
    shards = {i: Shard.of_coins(shard.coins) for i, shard in resp.shards.items()}
    return encode_utxos_response(UtxosResponse(shards=shards, siblings=resp.siblings))


# codec name -> bytes -> the decoded value encoded again
ROUND_TRIPS = {
    "shard": lambda data: encode_shard_coins(list(decode_shard(data).coins)),
    "utxos": _reencode_utxos,
    "partial": lambda data: encode_partial(read_whole(read_partial, data)),
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


# The field-by-field readers the record readers replaced, kept as the
# oracle: every record a reader unpacks in one call must decode as these
# read it, and bytes that do not decode must fail with the same message
# at the same offset.

def _oracle_outpoint(r: Reader) -> OutPoint:
    return OutPoint(txid=r.take(32), index=r.u32())


def _oracle_input(r: Reader) -> TxInput:
    return TxInput(prevout=_oracle_outpoint(r), public_key=r.take(33), signature=r.take(64))


def _oracle_output(r: Reader) -> TxOutput:
    value = r.u64()
    kind = r.u8()
    if kind not in (KIND_PAYMENT, KIND_COMMITMENT):
        raise DecodeError(f"unknown output kind 0x{kind:02x}", r.offset - 1)
    return TxOutput(value=value, kind=kind, payload=r.take(32))


def _oracle_transaction(r: Reader) -> Transaction:
    version = r.u32()
    inputs = tuple(_oracle_input(r) for _ in range(r.u16()))
    outputs = tuple(_oracle_output(r) for _ in range(r.u16()))
    return Transaction(version=version, inputs=inputs, outputs=outputs)


def _oracle_header(r: Reader) -> BlockHeader:
    prev_hash = r.take(32)
    tx_mroot = r.take(32)
    target_bits = r.u8()
    nonce = r.u64()
    height = r.u32()
    return BlockHeader(prev_hash, tx_mroot, target_bits, nonce, height)


def _oracle_block(r: Reader) -> Block:
    header = _oracle_header(r)
    txs = tuple(_oracle_transaction(r) for _ in range(r.u16()))
    return Block(header=header, transactions=txs)


def _oracle_merkle_blocks(r: Reader) -> MerkleBlocksResponse:
    headers = tuple(_oracle_header(r) for _ in range(r.u16()))
    matches = []
    for _ in range(r.u16()):
        header = _oracle_header(r)
        tree = read_partial(r)
        count = r.u16()
        start = r.offset
        run = r.take(4 * count)
        indices = tuple(struct.unpack_from("<I", run, 4 * n)[0] for n in range(count))
        for n in range(1, count):
            if indices[n] <= indices[n - 1]:
                raise DecodeError("tx indices not strictly increasing", start + 4 * n)
        txs = tuple(_oracle_transaction(r) for _ in range(count))
        matches.append(MerkleBlockMatch(header=header, tx_tree=tree, tx_indices=indices,
                                        transactions=txs))
    r.done()
    return MerkleBlocksResponse(headers=headers, matches=tuple(matches))


def _oracle_utxos(r: Reader) -> UtxosResponse:
    shards = {}
    last = 0
    leaves = r.u16()
    if not leaves:
        raise DecodeError("no shard served", 0)
    for _ in range(leaves):
        idx, count = struct.unpack("<QI", r.take(12))
        if not 1 <= idx < 1 << 33:
            raise DecodeError("shard id outside the trie", r.offset - 12)
        if idx <= last:
            raise DecodeError("shard ids not strictly increasing", r.offset - 12)
        shards[idx] = decode_shard(r.take(COIN_SIZE * count))
        last = idx
    run = r.take(32 * r.u16())
    r.done()
    return UtxosResponse(shards=shards, siblings=tuple(run[i:i + 32] for i in range(0, len(run), 32)))


def _whole_payload(decode):
    """A whole-payload decoder as a reader that starts at byte 0."""
    def read(r: Reader):
        value = decode(r.data[r.offset:])
        r.offset = len(r.data)
        return value
    return read


# payload name -> (reader under test, oracle)
READERS = {
    "transaction": (read_transaction, _oracle_transaction),
    "header": (read_header, _oracle_header),
    "block": (read_block, _oracle_block),
    "merkle_blocks": (_whole_payload(decode_merkle_blocks_response), _oracle_merkle_blocks),
    "utxos": (_whole_payload(decode_utxos_response), _oracle_utxos),
}


def _outcome(read, data: bytes):
    """(value, offset after it), or the DecodeError's (message, offset)."""
    r = Reader(data)
    try:
        return "value", read(r), r.offset
    except DecodeError as exc:
        return "error", str(exc), exc.offset


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(edits=st.lists(_edits(), max_size=3))
def test_record_readers_agree_with_reading_field_by_field(name, edits):
    data = HONEST[name]
    for edit in edits:
        data = _apply(data, edit)
    read, oracle = READERS[name]
    assert _outcome(read, data) == _outcome(oracle, data)


# Byte edits rarely land on an index field with a value that breaks the
# order, so the order rules get entries written straight from hypothesis.

_hashes = st.binary(min_size=32, max_size=32)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(total=st.integers(0, 40), count=st.integers(0, 6),
       siblings=st.lists(_hashes, max_size=5))
def test_partial_entries_in_any_order_round_trip_or_are_a_decode_error(total, count, siblings):
    """Any leaf count, sibling count and hashes: a tree of no leaves, or
    a count that is not the number of hashes, is the only refusal."""
    data = struct.pack("<IH", total, count) + b"".join(siblings)
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
                     *(struct.pack("<QI", i, len(shard.coins)) + shard.encoded
                       for i, shard in entries),
                     _siblings(honest)])
    try:
        again = ROUND_TRIPS["utxos"](data)
    except DecodeError:
        return
    assert again == data


def _siblings(resp: UtxosResponse) -> bytes:
    """The tail of a utxos answer: its sibling count and siblings."""
    return struct.pack("<H", len(resp.siblings)) + b"".join(resp.siblings)


# The framing of a leaf in a utxos answer: id (u64), coin count (u32),
# coins. The first leaf's count sits after the u16 leaf count and its id.

def _with_first_count(data: bytes, count: int) -> bytes:
    return data[:10] + struct.pack("<I", count) + data[14:]


def test_the_first_shards_count_is_where_the_framing_puts_it():
    honest = decode_utxos_response(HONEST["utxos"])
    first = min(honest.shards)
    assert struct.unpack_from("<HQI", HONEST["utxos"]) == \
        (len(honest.shards), first, len(honest.shards[first].coins))


@pytest.mark.parametrize("count", ["one past the end", 0xFFFFFFFF])
def test_a_shard_count_overrunning_the_answer_is_a_decode_error(count):
    """A count whose coins would run past the answer's end is refused
    before anything is read or allocated for it; a diet node turns it
    into a ``peer-fault`` (``tests/test_diet_node.py``)."""
    data = HONEST["utxos"]
    if count == "one past the end":
        count = (len(data) - 14) // COIN_SIZE + 1
    with pytest.raises(DecodeError, match="truncated"):
        decode_utxos_response(_with_first_count(data, count))


# The trie siblings end a utxos answer: a u16 count and the hashes.

def test_the_siblings_follow_the_shards():
    data = HONEST["utxos"]
    at = utxos_siblings_at(data)
    siblings = decode_utxos_response(data).siblings
    assert len(siblings) >= 2 and data[at:] == _siblings(decode_utxos_response(data))


def _frames(data: bytes) -> list[int]:
    """Where each leaf frame of a utxos answer starts."""
    (count,), at, starts = struct.unpack_from("<H", data), 2, []
    for _ in range(count):
        starts.append(at)
        at += 12 + COIN_SIZE * struct.unpack_from("<QI", data, at)[1]
    return starts


@pytest.mark.parametrize("cut", range(1, 8))
def test_a_utxos_answer_cut_inside_its_coin_count_is_a_decode_error(cut):
    """Cut 1-3 bytes into the u32 coin count of one of its leaves, in
    turn: the frame is refused whole, at its first byte."""
    data = HONEST["utxos"]
    frames = _frames(data)
    assert len(frames) >= 2
    start = frames[(cut - 1) % len(frames)]
    with pytest.raises(DecodeError, match=rf"truncated \(at byte {start}\)"):
        decode_utxos_response(data[:start + 8 + (cut - 1) % 3 + 1])


@pytest.mark.parametrize("idx", [0, 1 << 33, (1 << 64) - 1])
def test_a_shard_id_outside_the_trie_is_a_decode_error(idx):
    """No node has id 0 and no leaf sits below depth 32."""
    data = HONEST["utxos"]
    bad = data[:2] + struct.pack("<Q", idx) + data[10:]
    with pytest.raises(DecodeError, match=r"shard id outside the trie \(at byte 2\)"):
        decode_utxos_response(bad)


def test_a_byte_after_a_utxos_answers_siblings_is_a_decode_error():
    data = HONEST["utxos"]
    with pytest.raises(DecodeError, match=rf"trailing bytes after value \(at byte {len(data)}\)"):
        decode_utxos_response(data + b"\x00")


def test_shard_coins_out_of_order_in_an_answer_are_a_decode_error():
    honest = decode_utxos_response(HONEST["utxos"])
    idx, shard = next((i, s) for i, s in sorted(honest.shards.items()) if len(s.coins) > 1)
    coins = shard.coins
    swapped = Shard(encode_shard_coins([coins[1], coins[0], *coins[2:]]))
    data = encode_utxos_response(UtxosResponse(shards={**honest.shards, idx: swapped},
                                               siblings=honest.siblings))
    with pytest.raises(DecodeError, match="out of order"):
        decode_utxos_response(data)
    with pytest.raises(DecodeError, match="out of order"):
        decode_shard(swapped.encoded)


def test_a_shard_of_65536_coins_round_trips():
    """One coin past what a u16 count could hold: the shard's own bytes
    and a utxos answer serving it both decode to the same bytes."""
    rng = random.Random(902)
    coins = sorted(Coin(OutPoint(rng.randbytes(32), 0), 1, bytes(32)) for _ in range(1 << 16))
    encoded = encode_shard_coins(coins)
    assert len(encoded) == COIN_SIZE << 16
    assert ROUND_TRIPS["shard"](encoded) == encoded
    honest = decode_utxos_response(HONEST["utxos"])
    data = encode_utxos_response(UtxosResponse(shards={3: Shard(encoded)},
                                               siblings=honest.siblings))
    assert struct.unpack_from("<HQI", data) == (1, 3, 1 << 16)
    assert decode_utxos_response(data).shards == {3: Shard(encoded)}
    assert ROUND_TRIPS["utxos"](data) == data


# Each run of entries is taken whole and unpacked in one pass; these pin
# that every order rule and every count still holds entry by entry. The
# included leaves of a filtered-sync proof are its match's tx indices.

def _served_twice() -> tuple[int, MerkleBlockMatch]:
    """The offset of the tx-index count of the honest ``merkle_blocks``
    match that serves two txs or more, and that match."""
    data = HONEST["merkle_blocks"]
    match = next(m for m in decode_merkle_blocks_response(data).matches
                 if len(m.tx_indices) >= 2)
    proof = encode_header(match.header) + encode_partial(match.tx_tree)
    return data.index(proof) + len(proof), match


@pytest.mark.parametrize("where", range(4))
@pytest.mark.parametrize("run", ["included"])
def test_a_partial_entry_not_above_the_one_before_is_a_decode_error(run, where):
    """Repeating or moving back any one served tx's index of a
    ``merkle_blocks`` match is refused, at the offset of that index.
    The included run is the only ordered run left on the wire: siblings
    carry no positions, and a misordered sibling fails the root walk."""
    count_at, match = _served_twice()
    indices = list(match.tx_indices)
    at = 1 + where % (len(indices) - 1)
    if where % 2:
        indices[at - 1], indices[at] = indices[at], indices[at - 1]
    else:
        indices[at] = indices[at - 1 if where < 2 else 0]
    data = HONEST["merkle_blocks"]
    bad_run = struct.pack(f"<{len(indices)}I", *indices)
    bad = data[:count_at + 2] + bad_run + data[count_at + 2 + len(bad_run):]
    offset = count_at + 2 + 4 * at
    with pytest.raises(DecodeError, match=rf"not strictly increasing \(at byte {offset}\)"):
        decode_merkle_blocks_response(bad)


@pytest.mark.parametrize("count", ["one past the end", 0xFFFF])
@pytest.mark.parametrize("run", ["included", "siblings"])
def test_a_partial_count_past_the_end_is_a_decode_error(run, count):
    """A run whose entries would reach past the answer's last byte is
    refused before any of it is read: the tx indices of a
    ``merkle_blocks`` match, or the siblings of a tree."""
    if run == "included":
        at, _ = _served_twice()
        data = HONEST["merkle_blocks"]
        if count == "one past the end":
            count = (len(data) - at - 2) // 4 + 1
        with pytest.raises(DecodeError, match="truncated"):
            decode_merkle_blocks_response(data[:at] + struct.pack("<H", count) + data[at + 2:])
        return
    tree = read_whole(read_partial, HONEST["partial"])
    if count == "one past the end":
        count = len(tree.siblings) + 1
    data = struct.pack("<IH", tree.total_leaves, count) + b"".join(tree.siblings)
    with pytest.raises(DecodeError, match="truncated"):
        read_whole(read_partial, data)
    honest = HONEST["utxos"]  # the trie siblings of a utxos answer
    at = utxos_siblings_at(honest)
    count = len(decode_utxos_response(honest).siblings) + 1 if count != 0xFFFF else count
    with pytest.raises(DecodeError, match="truncated"):
        decode_utxos_response(honest[:at] + struct.pack("<H", count) + honest[at + 2:])


def _utxos_wire(entries, tail: bytes) -> bytes:
    return b"".join([struct.pack("<H", len(entries)),
                     *(struct.pack("<QI", i, len(encoded) // COIN_SIZE) + encoded
                       for i, encoded in entries),
                     tail])


@pytest.mark.parametrize("kind", ["repeated", "decreasing"])
def test_a_shard_index_not_above_the_one_before_is_a_decode_error(kind):
    honest = decode_utxos_response(HONEST["utxos"])
    entries = [(i, s.encoded) for i, s in sorted(honest.shards.items())]
    assert len(entries) >= 2
    bad = ([entries[0], entries[0], *entries[1:]] if kind == "repeated"
           else [entries[1], entries[0], *entries[2:]])
    offset = 2 + 12 + len(bad[0][1])  # the second leaf's id
    with pytest.raises(DecodeError, match=rf"not strictly increasing \(at byte {offset}\)"):
        decode_utxos_response(_utxos_wire(bad, _siblings(honest)))


def test_shard_coins_out_of_order_anywhere_in_the_shard_are_a_decode_error():
    honest = decode_utxos_response(HONEST["utxos"])
    idx, shard = max(honest.shards.items(), key=lambda item: len(item[1].coins))
    coins = list(shard.coins)
    assert len(coins) >= 3
    entries = dict((i, s.encoded) for i, s in honest.shards.items())
    for at in range(1, len(coins)):
        swapped = coins[:at - 1] + [coins[at], coins[at - 1]] + coins[at + 1:]
        entries[idx] = encode_shard_coins(swapped)
        with pytest.raises(DecodeError, match="out of order"):
            decode_utxos_response(_utxos_wire(sorted(entries.items()), _siblings(honest)))


def test_a_decoded_shard_keeps_the_coins_it_was_checked_with():
    """A shard read off the wire unpacks into the coins a fresh decode
    of its bytes gives, equals one built from its bytes alone, and its
    coins encode back to those bytes."""
    for shard in decode_utxos_response(HONEST["utxos"]).shards.values():
        assert shard.coins == Shard(shard.encoded).coins
        assert shard == Shard(shard.encoded)
        assert encode_shard_coins(list(shard.coins)) == shard.encoded
