from __future__ import annotations

import copy
import random
import struct
from collections import Counter

import pytest
from conftest import FAST, coins_owned, key_of, mined_node, payment, store_state

from dietchain import headers, rules
from dietchain.chain import COIN_SIZE, KIND_PAYMENT, ChainParams, TxOutput, encode_block
from dietchain.crypto import BloomFilter, hash256
from dietchain.errors import DecodeError, ScenarioError
from dietchain.full_node import FullNode, UtxosResponse
from dietchain.merkle import encode_partial
from dietchain.miner import mine_on, mine_txs
from dietchain.netsim import (
    MSG_BLOCK_ANNOUNCE,
    MSG_QUERY_BLOCK,
    Adversary,
    Bus,
    BusTransport,
    ForgedChainBuilder,
    FullNodeService,
    decode_merkle_blocks_request,
    decode_merkle_blocks_response,
    decode_utxos_response,
    encode_merkle_blocks_request,
    encode_merkle_blocks_response,
    encode_utxos_response,
)
from dietchain.rules import commitment_of, signed_spend
from dietchain.utxo import Coin, OutPoint, coins_of

ALICE = key_of("alice")
CAROL = key_of("carol")


def test_merkle_blocks_request_round_trip():
    rng = random.Random(70)
    for _ in range(20):
        since = rng.randbytes(32)
        bloom = BloomFilter()
        for _ in range(rng.randrange(8)):
            bloom.add(rng.randbytes(rng.randrange(1, 40)))
        payload = encode_merkle_blocks_request(since, bloom)
        got_since, got_bloom = decode_merkle_blocks_request(payload)
        assert got_since == since
        assert got_bloom.encode() == bloom.encode()


def test_merkle_blocks_response_round_trip():
    node = mined_node(FAST, ALICE, 3, seed=70)
    node.submit_transaction(payment(node, ALICE, [(CAROL.challenge, 6)]))
    mine_on(node, ALICE.public_key, seed=170)
    bloom = BloomFilter()
    bloom.add(CAROL.public_key)
    bloom.add(hash256(CAROL.public_key))
    resp = node.serve_query_merkle_blocks(bytes(32), bloom)
    assert resp.matches, "payment should match the filter"
    payload = encode_merkle_blocks_response(resp)
    decoded = decode_merkle_blocks_response(payload)
    assert encode_merkle_blocks_response(decoded) == payload
    assert decoded.matches[0].transactions == resp.matches[0].transactions


def test_utxos_response_round_trip():
    node = mined_node(FAST, ALICE, 5, seed=71)
    store = node.utxo
    indices = frozenset(range(2 ** store.k))
    shards, tree = store.state_before(store.height + 1, indices)
    count = store.touched_log[store.height].shard_bytes // COIN_SIZE
    payload = encode_utxos_response(UtxosResponse(shards=shards, tree=tree, coin_count=count))
    decoded = decode_utxos_response(payload)
    assert payload.endswith(struct.pack("<Q", count)) and decoded.coin_count == count
    assert set(decoded.shards) == set(shards)
    for idx, shard in shards.items():
        assert decoded.shards[idx].coins == shard.coins
    assert encode_utxos_response(decoded) == payload


def test_utxos_response_decodes_only_in_increasing_shard_order():
    node = mined_node(FAST, ALICE, 5, seed=71)
    store = node.utxo
    shards, tree = store.state_before(store.height + 1, frozenset(range(2 ** store.k)))
    proof = encode_partial(tree) + struct.pack(
        "<Q", store.touched_log[store.height].shard_bytes // COIN_SIZE)

    def payload(order):
        parts = [struct.pack("<H", len(order))]
        for idx in order:
            encoded = shards[idx].encoded
            parts += [struct.pack("<II", idx, len(encoded) // COIN_SIZE), encoded]
        return b"".join(parts) + proof

    assert decode_utxos_response(payload(sorted(shards))).shards == shards
    for order in ([1, 0, 2, 3], [0, 1, 1, 2, 3], [0, 0]):
        with pytest.raises(DecodeError, match="shard indices"):
            decode_utxos_response(payload(order))


def test_bus_trace_identical_for_same_seed():
    def run(seed):
        node_a = mined_node(FAST, ALICE, 2, seed=72)
        node_b = FullNode(FAST)
        bus = Bus(seed=seed)
        bus.register("a", FullNodeService(node_a))
        bus.register("b", FullNodeService(node_b))
        chain = node_a.headers.active_chain()
        for h in (0, 1):
            bus.post("a", "b", MSG_BLOCK_ANNOUNCE,
                     encode_block(node_a.blocks[chain[h]]))
        bus.run_until_idle()
        return bus.trace, node_b.tip_hash

    trace_one, tip_one = run(5)
    trace_two, tip_two = run(5)
    assert trace_one == trace_two
    # delivery order may differ across seeds, final state may not
    _, tip_three = run(6)
    assert tip_one == tip_two == tip_three


def test_announce_records_connect_outcome():
    node_a = mined_node(FAST, ALICE, 2, seed=73)
    node_b = FullNode(FAST)
    bus = Bus(seed=0)
    bus.register("a", FullNodeService(node_a))
    bus.register("b", FullNodeService(node_b))
    block = node_a.blocks[node_a.headers.active_chain()[0]]
    bus.post("a", "b", MSG_BLOCK_ANNOUNCE, encode_block(block))
    bus.run_until_idle()
    connects = [e for e in bus.trace if e["kind"] == "connect"]
    assert connects == [{"seq": connects[0]["seq"], "kind": "connect",
                         "node": "b", "height": 0, "status": "accepted",
                         "reason": None}]
    # replaying the same block is flagged as a duplicate, not an error
    bus.post("a", "b", MSG_BLOCK_ANNOUNCE, encode_block(block))
    bus.run_until_idle()
    assert bus.trace[-1]["status"] == "duplicate"


@pytest.mark.parametrize("garble", [lambda wire: wire + b"junk", lambda wire: wire[:50]],
                         ids=["trailing junk", "cut short"])
def test_an_announce_that_is_not_one_block_is_a_peer_fault(garble):
    """Bytes that do not decode as exactly one block connect nothing: the
    announce is traced as rejected with no height, and nothing raises."""
    node_a = mined_node(FAST, ALICE, 2, seed=73)
    node_b = FullNode(FAST)
    before = store_state(node_b.utxo)
    bus = Bus(seed=0)
    bus.register("a", FullNodeService(node_a))
    bus.register("b", FullNodeService(node_b))
    block = node_a.blocks[node_a.headers.active_chain()[0]]
    bus.post("a", "b", MSG_BLOCK_ANNOUNCE, garble(encode_block(block)))
    bus.run_until_idle()
    connects = [e for e in bus.trace if e["kind"] == "connect"]
    assert connects == [{"seq": connects[0]["seq"], "kind": "connect",
                         "node": "b", "height": None, "status": "rejected",
                         "reason": "peer-fault"}]
    assert node_b.blocks == {}
    assert node_b.headers.tip is None
    assert store_state(node_b.utxo) == before
    # the honest bytes still connect afterwards
    bus.post("a", "b", MSG_BLOCK_ANNOUNCE, encode_block(block))
    bus.run_until_idle()
    assert bus.trace[-1]["status"] == "accepted"


def test_hijack_reroutes_to_shadow():
    """A shadow answers every query its victim sends, marked intercepted;
    another client's queries still reach the honest peer."""
    honest = mined_node(FAST, ALICE, 4, seed=74)
    shadow_node = mined_node(FAST, key_of("mallory"), 4, seed=75)
    bus = Bus(seed=0)
    bus.register("peer", FullNodeService(honest))
    bus.attach_adversary(Adversary(victim="victim", shadow=FullNodeService(shadow_node)))
    victim = BusTransport(bus, "victim", "peer")
    other = BusTransport(bus, "other", "peer")

    root, _ = victim.query_utxo_mroot(shadow_node.tip_hash)
    assert root == commitment_of(shadow_node.blocks[shadow_node.tip_hash])
    block, _ = victim.query_block(shadow_node.tip_hash)
    assert block == shadow_node.blocks[shadow_node.tip_hash]
    block, _ = other.query_block(honest.tip_hash)
    assert block == honest.blocks[honest.tip_hash]

    flags = [(e["dst"], e.get("intercepted")) for e in bus.trace
             if e["kind"] == "message" and e["dst"] in ("victim", "other")]
    assert flags == [("victim", True), ("victim", True), ("other", False)]


def test_transform_rewrites_response_in_flight():
    node = mined_node(FAST, ALICE, 3, seed=76)
    bus = Bus(seed=0)
    bus.register("peer", FullNodeService(node))
    bus.attach_adversary(Adversary(
        victim="victim", shadow=None,
        transforms={MSG_QUERY_BLOCK + 1: lambda raw: raw[:-1] + bytes([raw[-1] ^ 1])}))
    transport = BusTransport(bus, "victim", "peer")
    clean = BusTransport(bus, "other", "peer")

    mangled, _ = transport.query_block(node.tip_hash)
    intact, _ = clean.query_block(node.tip_hash)
    assert mangled != intact
    assert [e["intercepted"] for e in bus.trace
            if e["kind"] == "message" and e.get("dst") in ("victim", "other")
            ] == [True, False]


def test_forged_builder_budget_is_hard():
    honest = mined_node(FAST, ALICE, 3, seed=77)
    builder = ForgedChainBuilder(FAST, budget=1, seed=7)
    builder.replay(honest, honest.tip_height)
    builder.mine([], key_of("mallory").public_key)
    with pytest.raises(ScenarioError):
        builder.mine([], key_of("mallory").public_key)


def test_forged_blocks_carry_real_pow():
    honest = mined_node(FAST, ALICE, 3, seed=78)
    builder = ForgedChainBuilder(FAST, budget=2, seed=8)
    builder.replay(honest, honest.tip_height)
    forged = builder.mine([], key_of("mallory").public_key)

    # without tampering the block is indistinguishable from honest work
    assert honest.connect_block(forged).accepted
    assert honest.tip_hash == builder.node.tip_hash


def test_injected_coin_spendable_on_forged_branch():
    honest = mined_node(FAST, ALICE, 3, seed=79)
    builder = ForgedChainBuilder(FAST, budget=2, seed=9,
                                 accept_bad_commitments=True)
    builder.replay(honest, honest.tip_height)

    mallory = key_of("mallory")
    template = coins_owned(honest, ALICE)[0]
    fake = template._replace(
        outpoint=template.outpoint._replace(txid=hash256(b"nowhere")),
        challenge=mallory.challenge)
    builder.inject_coin(fake)
    spend = payment(builder.node, mallory, [(CAROL.challenge, 2)])
    forged = builder.mine([spend], mallory.public_key,
                          fake_commitment=hash256(b"lies"))
    assert spend in forged.transactions

    # the honest node sees through the counterfeit commitment
    result = honest.connect_block(forged)
    assert not result.accepted
    assert result.reason in ("root-mismatch", "missing-input")


def _forger(seed: int) -> tuple[FullNode, ForgedChainBuilder]:
    honest = mined_node(FAST, ALICE, 3, seed=seed)
    builder = ForgedChainBuilder(FAST, budget=2, seed=seed)
    builder.replay(honest, honest.tip_height)
    return honest, builder


def test_a_forged_block_charges_the_fee_of_a_tx_spending_an_in_block_parent():
    honest, builder = _forger(81)
    parent = payment(builder.node, ALICE, [(CAROL.challenge, 5)])
    change = coins_of(parent)[-1]
    child = signed_spend(ALICE, [change], [
        TxOutput(value=change.value - 1, kind=KIND_PAYMENT, payload=CAROL.challenge)])
    forged = builder.mine([parent, child], key_of("mallory").public_key)
    assert forged.transactions[0].outputs[0].value == FAST.subsidy + 2
    assert honest.connect_block(forged).accepted


@pytest.mark.parametrize("code", ["missing-input", "root-mismatch"])
def test_a_forged_block_the_replica_rejects_leaves_the_replica_as_it_was(code):
    _, builder = _forger(82)
    spend = payment(builder.node, ALICE, [(CAROL.challenge, 5)])
    node = builder.node
    before = (store_state(node.utxo), node.headers.active_chain(), dict(node.blocks))
    with pytest.raises(ScenarioError, match=f"replica rejected forged block: {code}"):
        if code == "missing-input":
            builder.mine([spend, spend], key_of("mallory").public_key)
        else:
            builder.mine([spend], key_of("mallory").public_key,
                         fake_commitment=hash256(b"lies"))
    assert (store_state(node.utxo), node.headers.active_chain(), dict(node.blocks)) == before


# -- a replica from the honest node's state -------------------------------------

SPLITTING = ChainParams(target_bits=5, subsidy=50, size_cap=256, initial_k=1)
MALLORY = key_of("mallory")


def _splitting_chain() -> FullNode:
    """16 blocks, each after the first two carrying a 3-payee payment;
    the store splits at heights 3, 5, 8 and 15."""
    node = mined_node(SPLITTING, ALICE, 2, seed=90)
    for i in range(2, 16):
        node.submit_transaction(payment(
            node, ALICE, [(ALICE.challenge, 2), (ALICE.challenge, 2), (CAROL.challenge, 1)]))
        mine_on(node, ALICE.public_key, seed=90 + i)
    assert [step.height for step in node.utxo.rebalance_log] == [3, 5, 8, 15]
    return node


def _chain_state(node: FullNode) -> tuple:
    return (node.tip_hash, node.utxo.current_root, node.utxo.k,
            sorted(node.utxo.all_coins()), node.utxo.pending)


def test_a_replica_equals_a_node_that_connected_the_same_prefix():
    """At every fork height, across each split, the replica a replay
    builds is the state a node reaches by connecting the honest prefix,
    and the first block each mines with the same seed is the same."""
    honest = _splitting_chain()
    chain = [honest.blocks[hh] for hh in honest.headers.active_chain()]
    connected = FullNode(SPLITTING)
    for height, block in enumerate(chain):
        assert connected.connect_block(block).accepted
        builder = ForgedChainBuilder(SPLITTING, budget=1, seed=height)
        builder.replay(honest, height)
        replica = builder.node
        assert _chain_state(replica) == _chain_state(connected)
        assert replica.headers.active_chain() == connected.headers.active_chain()

        trial = copy.deepcopy(connected)
        spend = payment(trial, ALICE, [(CAROL.challenge, 3)])
        assert builder.mine([spend], MALLORY.public_key) == \
            mine_txs(trial, [spend], MALLORY.public_key, seed=height)
        assert _chain_state(replica) == _chain_state(trial)


@pytest.mark.parametrize("fork", [15, 14, 7])
def test_forging_leaves_the_honest_node_as_it_was(monkeypatch, fork):
    """Forking at the tip, below the split at 15, and at the floor below
    the split at 8: planting a coin and mining the whole budget on the
    replica changes nothing of the honest node, which then connects its
    next block and rewinds to its floor as a copy of it does."""
    monkeypatch.setattr("dietchain.utxo.HISTORY_HORIZON", 8)
    honest = _splitting_chain()
    assert honest.utxo.floor == 7
    twin = copy.deepcopy(honest)
    twin.submit_transaction(payment(twin, ALICE, [(CAROL.challenge, 4)]))
    next_block = mine_on(twin, ALICE.public_key, seed=7)
    before = store_state(honest.utxo)
    pending = honest.utxo.pending

    budget = honest.tip_height + 1 - fork
    builder = ForgedChainBuilder(SPLITTING, budget=budget, seed=fork)
    builder.replay(honest, fork)
    fake = Coin(OutPoint(hash256(b"nowhere"), 0), 40, MALLORY.challenge)
    builder.inject_coin(fake)
    for _ in range(budget - 1):
        builder.mine([], MALLORY.public_key)
    lure = signed_spend(MALLORY, [fake], [
        TxOutput(value=40, kind=KIND_PAYMENT, payload=CAROL.challenge)])
    builder.mine([lure], MALLORY.public_key)
    assert builder.node.tip_height == honest.tip_height + 1

    assert store_state(honest.utxo) == before
    assert honest.utxo.pending is pending and fake not in pending
    assert honest.connect_block(next_block).accepted
    assert store_state(honest.utxo) == store_state(twin.utxo)
    honest.utxo.rewind_to(honest.utxo.floor)
    twin.utxo.rewind_to(twin.utxo.floor)
    assert store_state(honest.utxo) == store_state(twin.utxo)


def test_a_replay_validates_nothing_and_hashes_each_header_once(monkeypatch):
    honest = _splitting_chain()
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(rules, "verify", counted("verify", rules.verify))
    monkeypatch.setattr(headers, "header_hash", counted("header_hash", headers.header_hash))
    monkeypatch.setattr(FullNode, "connect_block",
                        counted("connect_block", FullNode.connect_block))
    ForgedChainBuilder(SPLITTING, budget=1).replay(honest, 12)
    assert calls == {"header_hash": 13}

    calls.clear()  # the counters see a node that connects the same prefix
    connected = FullNode(SPLITTING)
    for hh in honest.headers.active_chain()[:13]:
        connected.connect_block(honest.blocks[hh])
    assert calls["connect_block"] == 13 and calls["verify"] == 11


def test_a_fork_below_the_honest_floor_is_a_scenario_error(monkeypatch):
    monkeypatch.setattr("dietchain.utxo.HISTORY_HORIZON", 4)
    honest = _splitting_chain()
    assert honest.utxo.floor == 11
    builder = ForgedChainBuilder(SPLITTING, budget=1)
    with pytest.raises(ScenarioError, match=r"height 10: .* 11 \(its floor\)"):
        builder.replay(honest, 10)
    assert builder.node.headers.tip is None and not builder.node.blocks
    builder.replay(honest, 11)
    assert builder.node.tip_hash == honest.headers.active_hash_at(11)
