"""Deterministic message bus with adversarial interception.

Every byte between nodes crosses the bus: queries are synchronous
request/response pairs, block announcements are queued and delivered one
at a time in an order fixed entirely by the bus seed. Each message is
traced with a sequence number, type, endpoints, and size, so two runs
with the same seed produce byte-identical traces.

An adversary owns one victim. It can divert the victim's queries to a
shadow node serving a counterfeit branch, or rewrite individual
responses in flight. Forged blocks are prepared up front by a builder
that starts from the honest node's state at the fork, mines them as
honest blocks are mined (``miner.mine_txs``) and charges each against a
mining budget; nothing the adversary serves is exempt from the
proof-of-work check.

Message types::

    0x01/0x02  query_merkle_blocks   since(32) bloom | headers, matches
    0x03/0x04  query_utxo_mroot      block hash      | committed root
    0x05/0x06  query_block           block hash      | whole block
    0x07/0x08  query_utxos           block hash      | leaves, trie siblings
    0x10       block_announce        whole block     (no response)

No diet node asks ``query_utxo_mroot``: it reads a window's base root
from the base block. A full node still answers it. An announce whose
bytes do not decode as exactly one block connects nothing; it is traced
as a ``rejected`` / ``peer-fault`` connect with no height.

A ``utxos`` answer is a u16 leaf count, not 0; per leaf, in increasing id
order, its trie node id (u64, at depth 32 or less), its coin count (u32)
and its coins; then a u16 sibling count and the trie siblings (32 bytes
each), in the order the root walk reads them. A leaf's own bytes, which
its hash covers, are the coins alone: the count frames them in the
answer and is not stored.

A ``merkle_blocks`` answer is a u16 header count and the headers, then a
u16 match count; per match, its header, the partial tx tree, a u16 tx
count, each served tx's index in the block (u32, strictly increasing)
and the txs. Neither tree carries a leaf: the client hashes each served
shard, and the txid of each served tx at its index, itself.
"""

from __future__ import annotations

import random
import struct
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from .chain import (
    COIN_SIZE,
    Block,
    ChainParams,
    Reader,
    Transaction,
    decode_block,
    encode_block,
    encode_header,
    encode_transaction,
    read_header,
    read_transaction,
)
from .crypto import BloomFilter
from .errors import DecodeError, ScenarioError, ValidationError
from .full_node import (
    FullNode,
    MerkleBlockMatch,
    MerkleBlocksResponse,
    UtxosResponse,
)
from .merkle import encode_partial, read_partial
from .miner import mine_txs
from .utxo import MAX_DEPTH, Coin, Shard, decode_shard

MSG_QUERY_MERKLE_BLOCKS = 0x01
MSG_MERKLE_BLOCKS = 0x02
MSG_QUERY_UTXO_MROOT = 0x03
MSG_UTXO_MROOT = 0x04
MSG_QUERY_BLOCK = 0x05
MSG_BLOCK = 0x06
MSG_QUERY_UTXOS = 0x07
MSG_UTXOS = 0x08
MSG_BLOCK_ANNOUNCE = 0x10
MSG_WAKE = 0x00  # bus-internal: tells a client to run its sync loop


# -- payload codecs ----------------------------------------------------------

def encode_merkle_blocks_request(since: bytes, bloom: BloomFilter) -> bytes:
    return since + bloom.encode()


def decode_merkle_blocks_request(payload: bytes) -> tuple[bytes, BloomFilter]:
    return payload[:32], BloomFilter.decode(payload[32:])


def encode_merkle_blocks_response(resp: MerkleBlocksResponse) -> bytes:
    parts = [struct.pack("<H", len(resp.headers))]
    parts.extend(encode_header(h) for h in resp.headers)
    parts.append(struct.pack("<H", len(resp.matches)))
    for match in resp.matches:
        parts.append(encode_header(match.header))
        parts.append(encode_partial(match.tx_tree))
        parts.append(struct.pack(f"<H{len(match.tx_indices)}I",
                                 len(match.tx_indices), *match.tx_indices))
        parts.extend(encode_transaction(tx) for tx in match.transactions)
    return b"".join(parts)


def decode_merkle_blocks_response(payload: bytes) -> MerkleBlocksResponse:
    """Decode a filtered-sync answer; each match's tx indices must
    strictly increase, so only the one canonical encoding decodes."""
    r = Reader(payload)
    headers = tuple(read_header(r) for _ in range(r.u16()))
    matches = []
    for _ in range(r.u16()):
        header = read_header(r)
        tree = read_partial(r)
        count = r.u16()
        start = r.offset
        indices = struct.unpack(f"<{count}I", r.take(4 * count))
        for n in range(1, count):
            if indices[n] <= indices[n - 1]:
                raise DecodeError("tx indices not strictly increasing", start + 4 * n)
        txs = tuple(read_transaction(r) for _ in range(count))
        matches.append(MerkleBlockMatch(header=header, tx_tree=tree, tx_indices=indices,
                                        transactions=txs))
    r.done()
    return MerkleBlocksResponse(headers=headers, matches=tuple(matches))


_LEAF_FRAME = struct.Struct("<QI")  # a served leaf's id and coin count


def encode_utxos_response(resp: UtxosResponse) -> bytes:
    parts = [struct.pack("<H", len(resp.shards))]
    for idx in sorted(resp.shards):
        encoded = resp.shards[idx].encoded
        parts.append(_LEAF_FRAME.pack(idx, len(encoded) // COIN_SIZE))
        parts.append(encoded)
    parts.append(struct.pack("<H", len(resp.siblings)))
    parts.extend(resp.siblings)
    return b"".join(parts)


def decode_utxos_response(payload: bytes) -> UtxosResponse:
    """Decode a shard proof; it serves a leaf or more, whose ids must lie
    in the trie (1 up to depth 32) and strictly increase, and each
    leaf's coins must come in order, so only the one canonical encoding
    of an answer decodes. A count past the answer's end is a DecodeError
    before anything is allocated for it."""
    r = Reader(payload)
    shards: dict[int, Shard] = {}
    last = 0
    count = r.u16()
    if not count:  # a block always edits the leaf of its parent's reward coins
        raise DecodeError("no shard served", 0)
    for _ in range(count):
        start = r.offset
        if len(payload) - start < _LEAF_FRAME.size:
            raise DecodeError("input truncated", start)
        idx, count = _LEAF_FRAME.unpack_from(payload, start)
        if not 0 < idx < 2 << MAX_DEPTH:
            raise DecodeError("shard id outside the trie", start)
        if idx <= last:
            raise DecodeError("shard ids not strictly increasing", start)
        r.offset = start + _LEAF_FRAME.size
        shards[idx] = decode_shard(r.take(COIN_SIZE * count))
        last = idx
    run = r.take(32 * r.u16())
    r.done()
    return UtxosResponse(shards=shards, siblings=tuple(run[i:i + 32] for i in range(0, len(run), 32)))


# -- the bus -----------------------------------------------------------------

@dataclass
class Adversary:
    """Interception rules applied to one victim's traffic."""
    victim: str
    shadow: "FullNodeService | None" = None  # answers every query the victim sends
    transforms: dict[int, Callable[[bytes], bytes]] = field(default_factory=dict)


class QuerySide:
    """What a query needs of the bus: the services that answer queries,
    the adversaries, and the trace with its sequence counter. A transport
    holds this and not the bus, so no node on a bus refers back to it
    and a finished bus is freed without the cycle collector."""

    def __init__(self):
        self.responders: dict[str, object] = {}
        self.adversaries: list[Adversary] = []
        self.trace: list[dict] = []
        self.seq = 0

    def record(self, kind: str, **fields) -> None:
        self.trace.append({"seq": self.seq, "kind": kind, **fields})
        self.seq += 1

    def request(self, src: str, dst: str, msg_type: int, payload: bytes) -> bytes:
        self.record("message", type=msg_type, src=src, dst=dst, bytes=len(payload))
        responder = self.responders[dst]
        intercepted = False
        for adv in self.adversaries:
            if adv.victim == src and adv.shadow is not None:
                responder = adv.shadow
                intercepted = True
        response = responder.handle_query(msg_type, payload)
        resp_type = msg_type + 1
        for adv in self.adversaries:
            if adv.victim == src and resp_type in adv.transforms:
                response = adv.transforms[resp_type](response)
                intercepted = True
        self.record("message", type=resp_type, src=dst, dst=src,
                    bytes=len(response), intercepted=intercepted)
        return response


class Bus:
    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)
        self.services: dict[str, object] = {}
        self.queues: dict[tuple[str, str], deque] = {}
        self.queries = QuerySide()

    @property
    def trace(self) -> list[dict]:
        return self.queries.trace

    def register(self, node_id: str, service) -> None:
        if node_id in self.services:
            raise ScenarioError(f"duplicate node id {node_id!r}")
        self.services[node_id] = service
        if hasattr(service, "handle_query"):  # a diet node's service would close a cycle
            self.queries.responders[node_id] = service
        service.node_id = node_id

    def attach_adversary(self, adversary: Adversary) -> None:
        self.queries.adversaries.append(adversary)

    def note(self, kind: str, **fields) -> None:
        """Trace a node-level event (verdicts, connects) between messages."""
        self.queries.record(kind, **fields)

    def post(self, src: str, dst: str, msg_type: int, payload: bytes) -> None:
        self.queues.setdefault((src, dst), deque()).append((msg_type, payload))

    def run_until_idle(self) -> None:
        while True:
            links = sorted(link for link, q in self.queues.items() if q)
            if not links:
                return
            link = self.rng.choice(links)
            msg_type, payload = self.queues[link].popleft()
            src, dst = link
            self.queries.record("message", type=msg_type, src=src, dst=dst, bytes=len(payload))
            self.services[dst].handle_message(self, src, msg_type, payload)


# -- node adapters -------------------------------------------------------------

class FullNodeService:
    """Wire adapter: decodes queries for a FullNode and encodes answers.
    The bytes of a ``query_block`` or ``query_utxos`` answer are kept by
    the node (:meth:`FullNode.kept_answer`) until its next tip change."""

    def __init__(self, node: FullNode):
        self.node = node
        self.node_id = "?"

    def handle_query(self, msg_type: int, payload: bytes) -> bytes:
        if msg_type == MSG_QUERY_MERKLE_BLOCKS:
            since, bloom = decode_merkle_blocks_request(payload)
            return encode_merkle_blocks_response(
                self.node.serve_query_merkle_blocks(since, bloom))
        if msg_type == MSG_QUERY_UTXO_MROOT:
            return self.node.serve_query_utxo_mroot(payload)
        if msg_type == MSG_QUERY_BLOCK:
            return self.node.kept_answer(
                msg_type, payload, lambda h: encode_block(self.node.serve_query_block(h)))
        if msg_type == MSG_QUERY_UTXOS:
            return self.node.kept_answer(
                msg_type, payload, lambda h: encode_utxos_response(self.node.serve_query_utxos(h)))
        raise ScenarioError(f"unhandled query type 0x{msg_type:02x}")

    def handle_message(self, bus: Bus, src: str, msg_type: int, payload: bytes) -> None:
        if msg_type != MSG_BLOCK_ANNOUNCE:
            raise ScenarioError(f"unhandled message type 0x{msg_type:02x}")
        try:
            block = decode_block(payload)
        except DecodeError:
            bus.note("connect", node=self.node_id, height=None,
                     status="rejected", reason="peer-fault")
            return
        result = self.node.connect_block(block)
        bus.note("connect", node=self.node_id, height=block.header.height,
                 status=result.status, reason=result.reason)


class BusTransport:
    """Remote-query transport for light clients; returns (value, wire bytes)."""

    def __init__(self, bus: Bus, src: str, peer: str):
        self.queries = bus.queries  # not the bus: see QuerySide
        self.src = src
        self.peer = peer

    def query_merkle_blocks(self, since: bytes, bloom: BloomFilter):
        payload = self.queries.request(self.src, self.peer, MSG_QUERY_MERKLE_BLOCKS,
                                       encode_merkle_blocks_request(since, bloom))
        return decode_merkle_blocks_response(payload), len(payload)

    def query_utxo_mroot(self, block_hash: bytes):
        payload = self.queries.request(self.src, self.peer, MSG_QUERY_UTXO_MROOT, block_hash)
        r = Reader(payload)
        root = r.take(32)
        r.done()
        return root, len(payload)

    def query_block(self, block_hash: bytes):
        payload = self.queries.request(self.src, self.peer, MSG_QUERY_BLOCK, block_hash)
        return decode_block(payload), len(payload)

    def query_utxos(self, block_hash: bytes):
        payload = self.queries.request(self.src, self.peer, MSG_QUERY_UTXOS, block_hash)
        return decode_utxos_response(payload), len(payload)


class DietNodeService:
    """Bus endpoint for a light client; a wake message runs one sync pass."""

    def __init__(self, diet_node):
        self.diet = diet_node
        self.node_id = "?"
        self.results = []

    def handle_message(self, bus: Bus, src: str, msg_type: int, payload: bytes) -> None:
        if msg_type != MSG_WAKE:
            raise ScenarioError(f"unhandled message type 0x{msg_type:02x}")
        result = self.diet.update_chain()
        self.results.append(result)
        for verdict in result.verdicts:
            bus.note("verdict", node=self.node_id, tx=verdict.tx_id.hex(),
                     height=verdict.height, status=verdict.status,
                     reason=verdict.reason, fail_height=verdict.fail_height,
                     first=verdict.first, last=verdict.last)


# -- forged chains --------------------------------------------------------------

class ForgedChainBuilder:
    """Builds the counterfeit branch an adversary serves.

    The builder starts its replica node from the honest node's own state
    at the fork (its headers, its blocks and a copy of its store rewound
    there, validated once already by the honest node), may slip extra
    coins into the replica's not-yet-committed set (the seam every
    forgery needs), and then mines counterfeit blocks with real
    proof-of-work, each solution charged against the mining budget.
    """

    def __init__(self, params: ChainParams, budget: int, seed: int = 0,
                 accept_bad_commitments: bool = False):
        self.budget = budget
        self.seed = seed
        self.mined = 0
        self.node = FullNode(params, check_commitments=not accept_bad_commitments)

    def replay(self, honest: FullNode, height: int) -> None:
        """Make the replica ``honest``'s active chain up to ``height``:
        index its headers, share its blocks, and take a copy of its store
        rewound to ``height``. No block is validated again. The fork must
        lie within the history the honest store keeps (at or above its
        floor)."""
        store = honest.utxo
        if not max(store.floor, 0) <= height <= honest.tip_height:
            raise ScenarioError(
                f"cannot fork at height {height}: the honest node keeps the states of "
                f"heights {max(store.floor, 0)} (its floor) to {honest.tip_height}")
        for hh in honest.headers.active_chain()[:height + 1]:
            self.node.blocks[self.node.headers.add(honest.headers.headers[hh])] = honest.blocks[hh]
        self.node.utxo = store.clone()
        self.node.utxo.rewind_to(height)

    def inject_coin(self, coin: Coin) -> None:
        """Plant a coin the next counterfeit commitment will cover. The
        replica's pool view was opened without it, so it is dropped: the
        next block opens a view of the store with the coin placed."""
        self.node.utxo.pending.append(coin)
        self.node._pool_view = None

    def mine(self, txs: list[Transaction], reward_key: bytes,
             fake_commitment: bytes | None = None) -> Block:
        """Mine a counterfeit block of ``txs`` on the replica's tip and
        connect it there, through the honest miner's one path
        (``miner.mine_txs``); on any failure the replica is left as it
        was."""
        if self.mined + 1 > self.budget:
            raise ScenarioError("adversary mining budget exceeded")
        try:
            block = mine_txs(self.node, txs, reward_key, seed=self.seed + self.mined,
                             commitment=fake_commitment)
        except ValidationError as exc:
            raise ScenarioError(f"replica rejected forged block: {exc.code}") from None
        self.mined += 1
        return block

    def service(self) -> FullNodeService:
        return FullNodeService(self.node)
