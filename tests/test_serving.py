"""What a full node keeps to serve light clients, pinned against answers
built anew: kept answer bytes, the per-block filter records with their
tx trees, and probe digests."""

from __future__ import annotations

import random

import pytest
from conftest import FAST, key_of, mined_node, payment
from hypothesis import given, settings, strategies as st

from dietchain import chain, full_node
from dietchain.chain import ZERO32, block_hash, encode_block, tx_items, tx_touches, txid
from dietchain.crypto import BloomFilter, hash256
from dietchain.diet_node import DietConfig, DietNode
from dietchain.errors import ValidationError
from dietchain.full_node import FullNode, MerkleBlockMatch, MerkleBlocksResponse
from dietchain.merkle import extract_partial
from dietchain.miner import mine_on, mine_txs
from dietchain.netsim import (
    Bus,
    BusTransport,
    DietNodeService,
    FullNodeService,
    MSG_QUERY_BLOCK,
    MSG_QUERY_UTXOS,
    MSG_WAKE,
    encode_merkle_blocks_response,
    encode_utxos_response,
)
from dietchain.utxo import VersionedShardStore

ALICE = key_of("alice")
BOB = key_of("bob")
PAYEES = [key_of(f"payee{i}") for i in range(6)]


def _grow(node: FullNode, blocks: int, seed: int) -> None:
    """Mine ``blocks`` blocks on the node's tip, each with a payment."""
    rng = random.Random(seed)
    for i in range(blocks):
        pays = [(payee.challenge, rng.randrange(1, 5)) for payee in rng.sample(PAYEES, 2)]
        node.submit_transaction(payment(node, ALICE, pays))
        mine_on(node, ALICE.public_key, seed=seed + i)


def _chain(node: FullNode) -> list:
    return [node.blocks[h] for h in node.headers.active_chain()]


def _replica(node: FullNode) -> FullNode:
    """A node that replays ``node``'s active chain and has served nothing."""
    fresh = FullNode(node.params)
    for block in _chain(node):
        assert fresh.connect_block(block).accepted
    return fresh


def _rival_blocks(node: FullNode, count: int, seed: int) -> list:
    """``count`` blocks mined by another miner on the parent of the node's tip."""
    rival = FullNode(node.params)
    for block in _chain(node)[:-1]:
        assert rival.connect_block(block).accepted
    return [mine_on(rival, BOB.public_key, seed=seed + i) for i in range(count)]


def _served_bytes(node: FullNode) -> dict[int, bytes]:
    service = FullNodeService(node)
    return {block.header.height: service.handle_query(MSG_QUERY_UTXOS, block_hash(block))
            for block in _chain(node)[1:]}


def _assert_served_like_a_fresh_node(node: FullNode) -> None:
    first = _served_bytes(node)
    assert _served_bytes(node) == first  # answered again, from the kept answers
    assert first == _served_bytes(_replica(node))


def test_kept_proofs_equal_a_fresh_nodes_at_every_height_through_a_reorg():
    node = mined_node(FAST, ALICE, 3, seed=800)
    _grow(node, 4, seed=810)
    _assert_served_like_a_fresh_node(node)

    _grow(node, 2, seed=820)  # further blocks
    _assert_served_like_a_fresh_node(node)

    # a one-block reorg away: a rival tip, then one block on it
    away = _rival_blocks(node, 2, seed=830)
    old_tip = node.tip_hash
    assert node.connect_block(away[0]).status == "branch"
    assert node.connect_block(away[1]).accepted
    assert not node.headers.on_active_chain(old_tip)
    _assert_served_like_a_fresh_node(node)

    # and back: the old branch grows heavier again
    back = FullNode(FAST)
    for block in _chain(node)[:-2]:
        assert back.connect_block(block).accepted
    assert back.connect_block(node.blocks[old_tip]).accepted
    statuses = [node.connect_block(mine_on(back, ALICE.public_key, seed=840 + i)).status
                for i in range(2)]
    assert statuses == ["branch", "accepted"]
    assert node.headers.on_active_chain(old_tip)
    _assert_served_like_a_fresh_node(node)


def _counting_state_before(monkeypatch) -> list:
    calls = []
    original = VersionedShardStore.state_before

    def counted(self, height, indices):
        calls.append(height)
        return original(self, height, indices)

    monkeypatch.setattr(VersionedShardStore, "state_before", counted)
    return calls


def test_a_tip_change_drops_every_kept_proof(monkeypatch):
    node = mined_node(FAST, ALICE, 3, seed=850)
    _grow(node, 2, seed=851)
    calls = _counting_state_before(monkeypatch)
    tip = node.tip_hash
    service = FullNodeService(node)
    service.handle_query(MSG_QUERY_UTXOS, tip)
    service.handle_query(MSG_QUERY_UTXOS, tip)
    assert len(calls) == 1

    _grow(node, 1, seed=852)  # the node's own block
    service.handle_query(MSG_QUERY_UTXOS, tip)
    assert len(calls) == 2

    follower = _replica(node)
    follower_service = FullNodeService(follower)
    follower_service.handle_query(MSG_QUERY_UTXOS, tip)
    follower_service.handle_query(MSG_QUERY_UTXOS, tip)
    assert len(calls) == 3
    mine_on(node, ALICE.public_key, seed=853)
    assert follower.connect_block(node.blocks[node.tip_hash]).accepted  # a received block
    follower_service.handle_query(MSG_QUERY_UTXOS, tip)
    assert len(calls) == 4


def test_clients_checking_one_block_share_one_pre_state_proof(monkeypatch):
    node = mined_node(FAST, ALICE, 3, seed=870)
    _grow(node, 2, seed=871)
    clients = [key_of(f"client{i}") for i in range(5)]
    node.submit_transaction(payment(node, ALICE, [(k.challenge, 2) for k in clients]))
    mine_on(node, ALICE.public_key, seed=872)
    calls = _counting_state_before(monkeypatch)

    bus = Bus(seed=0)
    bus.register("full", FullNodeService(node))
    services = []
    for i, key in enumerate(clients):
        config = DietConfig(keys=(key.public_key,), max_depth=10, max_length=1)
        service = DietNodeService(DietNode(FAST, config, BusTransport(bus, f"c{i}", "full")))
        bus.register(f"c{i}", service)
        services.append(service)
        bus.post("test", f"c{i}", MSG_WAKE, b"")
    bus.run_until_idle()

    verdicts = [v for s in services for r in s.results for v in r.verdicts]
    assert [v.status for v in verdicts] == ["diet-verified"] * len(clients)
    assert {v.height for v in verdicts} == {node.tip_height}
    assert calls == [node.tip_height]


# -- filtered sync -------------------------------------------------------------

def _scan_keeping_nothing(node: FullNode, since: bytes, bloom: BloomFilter) -> MerkleBlocksResponse:
    """Filtered sync as a node without kept digests or trees answers it:
    hash every probe of every item, build every matched block's tree."""
    chain = node.headers.active_chain()
    start = node.headers.headers[since].height + 1 if node.headers.on_active_chain(since) else 0
    headers, matches = [], []
    for hh in chain[start:]:
        block = node.blocks[hh]
        headers.append(block.header)
        matched = [i for i, tx in enumerate(block.transactions)
                   if tx_touches(tx, bloom.may_contain)]
        if matched:
            matches.append(MerkleBlockMatch(
                header=block.header,
                tx_tree=extract_partial([txid(tx) for tx in block.transactions], set(matched)),
                tx_indices=tuple(matched),
                transactions=tuple(block.transactions[i] for i in matched)))
    return MerkleBlocksResponse(headers=tuple(headers), matches=tuple(matches))


def test_filtered_sync_equals_a_scan_keeping_nothing_for_random_filters():
    node = mined_node(FAST, ALICE, 3, seed=880)
    _grow(node, 5, seed=881)
    orphan = node.tip_hash
    node.serve_query_merkle_blocks(ZERO32, BloomFilter())  # orphan's block gets scanned
    for block in _rival_blocks(node, 2, seed=882):
        node.connect_block(block)
    assert not node.headers.on_active_chain(orphan)

    items = [k.public_key for k in PAYEES + [ALICE, BOB]]
    items += [hash256(item) for item in items]
    sinces = [ZERO32, orphan, hash256(b"nowhere")] + node.headers.active_chain()
    rng = random.Random(883)
    hits = false_hits = 0
    for _ in range(60):
        # small filters match many items they were not given
        bloom = BloomFilter(m=rng.choice([8, 32, 256, 2048]), h=rng.randrange(1, 12))
        added = set(rng.sample(items, rng.randrange(0, 4)))
        for item in added:
            bloom.add(item)
        since = rng.choice(sinces)
        served = node.serve_query_merkle_blocks(since, bloom)
        txs = [tx for match in served.matches for tx in match.transactions]
        hits += len(txs)
        false_hits += sum(not tx_touches(tx, added.__contains__) for tx in txs)
        assert encode_merkle_blocks_response(served) == \
            encode_merkle_blocks_response(_scan_keeping_nothing(node, since, bloom))
    assert 0 < false_hits < hits


def test_a_query_asks_the_filter_once_per_distinct_item(monkeypatch):
    """Items recur across a chain's txs (the miner's key, each payee's
    challenge); within one query the filter is asked about each once,
    and the next query asks again."""
    node = mined_node(FAST, ALICE, 3, seed=890)
    _grow(node, 6, seed=891)
    asked = []
    may_contain = BloomFilter.may_contain

    def counted(self, item, digests=b""):
        asked.append(item)
        return may_contain(self, item, digests)
    monkeypatch.setattr(BloomFilter, "may_contain", counted)

    items = [item for block in _chain(node) for tx in block.transactions
             for item in tx_items(tx)]
    assert len(items) > 2 * len(set(items))
    node.serve_query_merkle_blocks(ZERO32, BloomFilter())  # matches nothing
    assert sorted(asked) == sorted(set(items))
    for bloom in (BloomFilter(m=8, h=1), BloomFilter(m=64, h=3)):
        bloom.add(PAYEES[0].challenge)
        asked.clear()
        served = node.serve_query_merkle_blocks(ZERO32, bloom)
        assert served.matches
        assert len(asked) == len(set(asked)) > 0


_ITEMS = [k.public_key for k in PAYEES + [ALICE, BOB]]
_ITEMS += [hash256(item) for item in _ITEMS]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 1000), blocks=st.integers(0, 4),
       m=st.sampled_from([1, 8, 32, 256, 2048]), h=st.integers(1, 11),
       added=st.sets(st.sampled_from(_ITEMS), max_size=4),
       since=st.integers(-1, 6))
def test_filtered_sync_equals_asking_the_filter_at_every_item(seed, blocks, m, h, added, since):
    """For random chains and filters, the served answer, with its
    per-query verdicts and the node's kept digests, equals the one built
    by asking the filter afresh at every item of every tx."""
    node = mined_node(FAST, ALICE, 2, seed=seed)
    _grow(node, blocks, seed=seed + 100)
    bloom = BloomFilter(m=m, h=h)
    for item in added:
        bloom.add(item)
    chain = node.headers.active_chain()
    start = ZERO32 if since < 0 else chain[min(since, len(chain) - 1)]
    expected = encode_merkle_blocks_response(_scan_keeping_nothing(node, start, bloom))
    for _ in range(2):  # the second query reads the digests the first kept
        assert encode_merkle_blocks_response(
            node.serve_query_merkle_blocks(start, bloom)) == expected


# -- the per-block filter index -------------------------------------------------

def _random_filters(rng: random.Random, count: int):
    """Empty filters, filters that match everything (every bit set, or
    one bit for every item), and random small and large ones."""
    yield BloomFilter()
    full = BloomFilter(m=64, h=2)
    full.bits[:] = b"\xff" * len(full.bits)
    yield full
    one_bit = BloomFilter(m=1, h=1)
    one_bit.add(b"anything")
    yield one_bit
    for _ in range(count):
        bloom = BloomFilter(m=rng.choice([8, 32, 256, 2048]), h=rng.randrange(1, 12))
        for item in rng.sample(_ITEMS, rng.randrange(0, 4)):
            bloom.add(item)
        yield bloom


def _assert_index_serves_as_a_full_scan(node: FullNode, sinces, seed: int) -> None:
    rng = random.Random(seed)
    for bloom in _random_filters(rng, 30):
        since = rng.choice(sinces)
        assert encode_merkle_blocks_response(node.serve_query_merkle_blocks(since, bloom)) == \
            encode_merkle_blocks_response(_scan_keeping_nothing(node, since, bloom))
    assert set(node._filter_index) <= set(node.blocks)


def test_the_filter_index_serves_as_a_full_scan_through_a_reorg_and_a_forgotten_branch():
    """Served answers equal a scan that runs ``tx_touches`` over every
    tx, for random, empty and match-everything filters: before a reorg,
    after it, and after a failed switch back to the orphaned branch,
    which forgets that branch's blocks together with their records."""
    node = mined_node(FAST, ALICE, 3, seed=900)
    _grow(node, 4, seed=901)
    node.serve_query_merkle_blocks(ZERO32, BloomFilter())  # every active block gets a record
    old_chain = _chain(node)
    orphan = node.tip_hash
    assert set(node._filter_index) == set(node.headers.active_chain())
    _assert_index_serves_as_a_full_scan(node, [ZERO32, *node.headers.active_chain()], 902)

    for block in _rival_blocks(node, 2, seed=903):
        assert node.connect_block(block).status in ("branch", "accepted")
    assert not node.headers.on_active_chain(orphan) and orphan in node._filter_index
    _assert_index_serves_as_a_full_scan(
        node, [ZERO32, orphan, *node.headers.active_chain()], 904)

    # the orphaned branch comes back heavier, its first new block committing
    # a junk root: the switch fails and the branch from the fork is forgotten
    lenient = FullNode(FAST, check_commitments=False)
    for block in old_chain:
        assert lenient.connect_block(block).accepted
    junk = mine_txs(lenient, [], ALICE.public_key, seed=905, commitment=hash256(b"junk"))
    heavier = mine_on(lenient, ALICE.public_key, seed=906)
    assert node.connect_block(junk).status == "branch"
    tip = node.tip_hash
    result = node.connect_block(heavier)
    assert (result.status, result.reason) == ("rejected", "root-mismatch")
    assert node.tip_hash == tip
    for hh in (orphan, block_hash(junk), block_hash(heavier)):
        assert hh not in node.blocks and hh not in node._filter_index
    _assert_index_serves_as_a_full_scan(
        node, [ZERO32, orphan, *node.headers.active_chain()], 907)


def test_a_block_the_filter_cannot_match_is_passed_over_by_its_record(monkeypatch):
    """Once a block has a record, a query whose filter may contain none
    of its items never looks at its txs; one that may match scans them."""
    node = mined_node(FAST, ALICE, 3, seed=910)
    _grow(node, 3, seed=911)
    node.serve_query_merkle_blocks(ZERO32, BloomFilter())
    listed = []
    monkeypatch.setattr(chain, "tx_items", lambda tx: listed.append(tx) or tx_items(tx))
    monkeypatch.setattr(full_node, "tx_items", chain.tx_items)

    served = node.serve_query_merkle_blocks(ZERO32, BloomFilter())
    assert served.matches == () and listed == []

    paid = node.blocks[node.tip_hash].transactions[1].outputs[0].payload
    matched = {h for h in node.headers.active_chain()
               if any(paid in tx_items(tx) for tx in node.blocks[h].transactions)}
    bloom = BloomFilter()
    bloom.add(paid)
    served = node.serve_query_merkle_blocks(ZERO32, bloom)
    assert len(served.matches) == len(matched) > 0
    assert {txid(tx) for tx in listed} == {
        txid(tx) for h in matched for tx in node.blocks[h].transactions}


# -- kept answer bytes ------------------------------------------------------------

def _wire_answers(service: FullNodeService, node: FullNode) -> dict:
    return {(msg, hh): service.handle_query(msg, hh)
            for hh in node.headers.active_chain()[1:]
            for msg in (MSG_QUERY_BLOCK, MSG_QUERY_UTXOS)}


def test_kept_answer_bytes_equal_fresh_encodings_until_a_tip_change():
    node = mined_node(FAST, ALICE, 3, seed=920)
    _grow(node, 3, seed=921)
    service = FullNodeService(node)
    served = _wire_answers(service, node)
    assert served == {key: node._answers[key] for key in served}
    for (msg, hh), data in served.items():
        fresh = (encode_block(node.blocks[hh]) if msg == MSG_QUERY_BLOCK
                 else encode_utxos_response(_replica(node).serve_query_utxos(hh)))
        assert data == fresh
    again = _wire_answers(service, node)
    assert all(again[key] is served[key] for key in served)  # the kept bytes themselves

    _grow(node, 1, seed=922)  # the node's own block
    assert node._answers == {}
    follower = _replica(node)
    follower_service = FullNodeService(follower)
    _wire_answers(follower_service, follower)
    assert follower._answers
    mine_on(node, ALICE.public_key, seed=923)
    assert follower.connect_block(node.blocks[node.tip_hash]).accepted  # a received block
    assert follower._answers == {}
    assert _wire_answers(follower_service, follower) == _wire_answers(service, node)


def test_kept_answer_bytes_of_a_block_that_left_the_active_chain_are_not_served():
    node = mined_node(FAST, ALICE, 3, seed=925)
    _grow(node, 1, seed=926)
    orphan = node.tip_hash
    service = FullNodeService(node)
    for msg in (MSG_QUERY_BLOCK, MSG_QUERY_UTXOS):
        service.handle_query(msg, orphan)
    kept = dict(node._answers)

    for block in _rival_blocks(node, 2, seed=927):
        node.connect_block(block)
    assert not node.headers.on_active_chain(orphan)
    node._answers.update(kept)  # even if they were still kept, the chain check comes first
    for msg in (MSG_QUERY_BLOCK, MSG_QUERY_UTXOS):
        with pytest.raises(ValidationError) as info:
            service.handle_query(msg, orphan)
        assert info.value.code == "unknown-block"


def test_a_query_about_an_unknown_block_keeps_no_bytes():
    node = mined_node(FAST, ALICE, 3, seed=930)
    service = FullNodeService(node)
    for msg in (MSG_QUERY_BLOCK, MSG_QUERY_UTXOS):
        with pytest.raises(ValidationError):
            service.handle_query(msg, hash256(b"nowhere"))
    assert node._answers == {}
