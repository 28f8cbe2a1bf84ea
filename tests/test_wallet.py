"""The scenario's wallet against the store it follows: after every pay of
every bundled scenario, through a reorg, and in how often it reads the
whole coin set. Its pick order is checked against a fresh sort."""

from __future__ import annotations

import json

import pytest
from conftest import FAST, key_of, mined_node, payment

from dietchain import cli, scenario
from dietchain.miner import mine_on
from dietchain.scenario import Wallet, run_scenario
from dietchain.utxo import VersionedShardStore

ALICE = key_of("alice")
BOB = key_of("bob")
CAROL = key_of("carol")


def _by_challenge(node) -> dict:
    """The node's coin set grouped as a wallet keeps it."""
    grouped: dict = {}
    for coin in node.utxo.all_coins():
        grouped.setdefault(coin.challenge, {})[coin.outpoint] = coin
    return grouped


def _pick_order(grouped: dict) -> dict:
    """Each challenge's coins as ``(-value, outpoint)``, sorted: the
    order a wallet keeps for its picks, with nothing spent in it."""
    return {challenge: sorted((-coin.value, outpoint) for outpoint, coin in owned.items())
            for challenge, owned in grouped.items()}


def _sorted_pick(node, challenge: bytes, needed: int) -> list:
    """The pick as a whole-set scan makes it: every coin of the challenge
    the pool does not spend, largest first, ties by outpoint, taken
    until ``needed`` is covered."""
    pooled = {i.prevout for tx in node.mempool for i in tx.inputs}
    owned = sorted((c for c in node.utxo.all_coins()
                    if c.challenge == challenge and c.outpoint not in pooled),
                   key=lambda c: (-c.value, c.outpoint))
    picked = []
    for coin in owned:
        picked.append(coin)
        if sum(c.value for c in picked) >= needed:
            break
    return picked


@pytest.mark.parametrize("seed", [None, 7], ids=["own-seed", "seed-7"])
def test_after_every_pay_the_wallet_is_the_store_by_challenge(monkeypatch, seed):
    """Every pick equals the whole-set scan's, and after every pay of
    every bundled scenario the paying node's wallet holds exactly its
    store's coins, grouped by challenge."""
    original_pick = Wallet.pick

    def checked_pick(self, challenge, needed):
        expected = _sorted_pick(self.node, challenge, needed)
        picked = original_pick(self, challenge, needed)
        assert picked == expected
        return picked

    handler, required = scenario._ACTIONS["pay"]
    pays = []

    def checked_pay(state, step):
        handler(state, step)
        node_id = step.get("node", state.reference)
        wallet = state.wallets[node_id]
        assert wallet.coins == _by_challenge(state.full(node_id))
        assert wallet.order == _pick_order(wallet.coins)
        pays.append(node_id)

    monkeypatch.setattr(Wallet, "pick", checked_pick)
    monkeypatch.setitem(scenario._ACTIONS, "pay", (checked_pay, required))
    for name, text in sorted(cli.bundled_scenarios().items()):
        assert run_scenario(json.loads(text), seed_override=seed).passed, name
    assert len(pays) > 20


def _counting(monkeypatch, attr: str) -> list:
    """Record the store of every call to ``VersionedShardStore.<attr>``."""
    calls = []
    original = getattr(VersionedShardStore, attr)

    def counted(self, *args):
        calls.append(self)
        return original(self, *args)
    monkeypatch.setattr(VersionedShardStore, attr, counted)
    return calls


def test_a_reorg_makes_the_next_pick_rebuild_the_wallet(monkeypatch):
    node = mined_node(FAST, ALICE, 4, seed=300)
    rival = mined_node(FAST, ALICE, 2, seed=300)
    assert rival.headers.active_hash_at(1) == node.headers.active_hash_at(1)
    scans = _counting(monkeypatch, "all_coins")  # _sorted_pick scans too
    wallet = Wallet(node)
    picked = wallet.pick(ALICE.challenge, 60)
    assert len(scans) == 1
    assert picked == _sorted_pick(node, ALICE.challenge, 60)

    # blocks on the kept tip are replayed, not scanned; carol's one coin
    # comes and goes, and her challenge leaves the wallet with it
    node.submit_transaction(payment(node, ALICE, [(CAROL.challenge, 7)]))
    mine_on(node, ALICE.public_key, seed=304)
    assert CAROL.challenge in _by_challenge(node)
    node.submit_transaction(payment(node, CAROL, [(BOB.challenge, 6)]))
    mine_on(node, ALICE.public_key, seed=305)
    node.submit_transaction(payment(node, ALICE, [(CAROL.challenge, 5)]))
    scans.clear()
    picked = wallet.pick(ALICE.challenge, 60)
    assert scans == []
    assert picked == _sorted_pick(node, ALICE.challenge, 60)
    assert wallet.coins == _by_challenge(node)
    assert wallet.order == _pick_order(wallet.coins)
    assert CAROL.challenge not in wallet.coins and BOB.challenge in wallet.coins
    assert CAROL.challenge not in wallet.order

    # a heavier rival branch from height 1 orphans the blocks that paid bob
    for i in range(5):
        mine_on(rival, BOB.public_key, seed=310 + i)
    for hh in rival.headers.active_chain()[2:]:
        node.connect_block(rival.blocks[hh])
    assert node.tip_hash == rival.tip_hash
    assert not node.headers.on_active_chain(wallet.tip)
    scans.clear()
    picked = wallet.pick(BOB.challenge, 30)
    assert [store is node.utxo for store in scans] == [True]
    assert picked == _sorted_pick(node, BOB.challenge, 30)
    assert wallet.coins == _by_challenge(node)
    assert wallet.order == _pick_order(wallet.coins)
    assert wallet.tip == node.tip_hash


def test_a_bundled_run_without_a_reorg_scans_each_paying_node_at_most_once(monkeypatch):
    scans = _counting(monkeypatch, "all_coins")
    rewinds = _counting(monkeypatch, "rewind_to")
    paying = 0
    for name, text in sorted(cli.bundled_scenarios().items()):
        scans.clear()
        rewinds.clear()
        run = run_scenario(json.loads(text))
        for node_id, wallet in run.state.wallets.items():
            store = wallet.node.utxo
            assert not any(s is store for s in rewinds), f"{name}: {node_id} reorged"
            assert sum(s is store for s in scans) <= 1, f"{name}: {node_id}"
            paying += 1
    assert paying >= 5
