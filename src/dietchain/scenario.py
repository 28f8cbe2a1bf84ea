"""Scripted end-to-end runs: a JSON config describes nodes, a sequence of
actions (mining, payments, attacks), and the verdicts and chain facts the
run must end with.

Everything is derived from the config seed: keys, proof-of-work nonce
starts, message interleaving, forged commitments. Two runs of the same
config produce byte-identical traces and reports.
"""

from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass, field, fields, replace

from .chain import (
    ChainParams,
    Transaction,
    TxOutput,
    KIND_PAYMENT,
    encode_block,
    txid,
)
from .crypto import KeyPair, hash256
from .diet_node import DietConfig, DietNode
from .errors import ScenarioError
from .full_node import FullNode
from .miner import mine_on
from .netsim import (
    MSG_BLOCK_ANNOUNCE,
    MSG_UTXOS,
    MSG_WAKE,
    Adversary,
    Bus,
    BusTransport,
    DietNodeService,
    ForgedChainBuilder,
    FullNodeService,
    decode_utxos_response,
    encode_utxos_response,
)
from .rules import signed_spend
from .utxo import Coin, OutPoint, Shard, coins_of

_NODE_ROLES = ("full", "spv", "diet")


def derive_key(seed: int, name: str) -> KeyPair:
    if not 0 <= seed < 1 << 64:
        raise ScenarioError(f"seed {seed} is not in [0, 2**64)")
    material = hash256(b"dietchain-key" + seed.to_bytes(8, "little") + name.encode())
    return KeyPair.from_seed(material)


class Wallet:
    """A full node's coins by challenge, kept in step with its active chain.

    ``coins`` maps each challenge to its coins by outpoint, as of the
    active tip ``tip``, and holds no empty map. ``order`` keeps, per
    challenge, its coins' ``(-value, outpoint)`` in sorted order, the
    order a pick takes them in, with no entry for a spent coin. When the
    node's tip extends the kept one, only the new blocks are replayed, in
    the order the store applies them: each tx's spends out and its coins
    in, the coinbase's coins last. A spent coin is found under the hash
    of the key that spends it, which the body rules require to be its
    challenge. Any other tip (the first pick, a reorg) is read back with
    one scan of the node's coin set.
    """

    def __init__(self, node: FullNode):
        self.node = node
        self.coins: dict[bytes, dict[OutPoint, Coin]] = {}
        self.order: dict[bytes, list[tuple[int, OutPoint]]] = {}
        self.tip: bytes | None = None

    def pick(self, challenge: bytes, needed: int) -> list[Coin]:
        """The coins of ``challenge`` that a payment of ``needed`` spends:
        the largest first, ties broken by outpoint, coins the pool
        already spends skipped, until ``needed`` is covered or none are
        left. It reads only the entries it takes or skips."""
        self._sync()
        owned = self.coins.get(challenge)
        if owned is None:
            return []
        pooled = {i.prevout for tx in self.node.mempool for i in tx.inputs}
        picked: list[Coin] = []
        total = 0
        for _, outpoint in self.order[challenge]:
            if total >= needed:
                break
            if outpoint not in pooled:
                coin = owned[outpoint]
                picked.append(coin)
                total += coin.value
        return picked

    def _sync(self) -> None:
        headers = self.node.headers
        if headers.tip == self.tip:
            return
        if self.tip is not None and headers.on_active_chain(self.tip):
            for block_hash in headers.active_from(headers.headers[self.tip].height + 1):
                self._replay(self.node.blocks[block_hash].transactions)
        else:
            self.coins = {}
            for coin in self.node.utxo.all_coins():
                self.coins.setdefault(coin.challenge, {})[coin.outpoint] = coin
            self.order = {challenge: sorted((-coin.value, outpoint)
                                            for outpoint, coin in owned.items())
                          for challenge, owned in self.coins.items()}
        self.tip = headers.tip

    def _replay(self, transactions) -> None:
        for tx in transactions[1:]:
            for inp in tx.inputs:
                challenge = hash256(inp.public_key)
                owned = self.coins[challenge]
                order = self.order[challenge]
                coin = owned.pop(inp.prevout)
                del order[bisect.bisect_left(order, (-coin.value, inp.prevout))]
                if not owned:
                    del self.coins[challenge], self.order[challenge]
            self._add(coins_of(tx))
        self._add(coins_of(transactions[0]))

    def _add(self, coins) -> None:
        for coin in coins:
            self.coins.setdefault(coin.challenge, {})[coin.outpoint] = coin
            bisect.insort(self.order.setdefault(coin.challenge, []),
                          (-coin.value, coin.outpoint))


@dataclass
class ScenarioState:
    config: dict
    params: ChainParams
    rng: random.Random
    bus: Bus
    keys: dict[str, KeyPair]
    full_nodes: dict[str, FullNode] = field(default_factory=dict)
    diet_services: dict[str, DietNodeService] = field(default_factory=dict)
    reference: str = ""                      # chain-of-record full node
    labeled: dict[str, tuple[Transaction, list[Coin]]] = field(default_factory=dict)
    wallets: dict[str, Wallet] = field(default_factory=dict)  # by paying node

    def full(self, node_id: str) -> FullNode:
        if node_id not in self.full_nodes:
            raise ScenarioError(f"{node_id!r} is not a full node")
        return self.full_nodes[node_id]

    def light(self, node_id: str) -> DietNodeService:
        if node_id not in self.diet_services:
            raise ScenarioError(f"{node_id!r} is not a light node")
        return self.diet_services[node_id]

    def key(self, name: str) -> KeyPair:
        if not isinstance(name, str) or name not in self.keys:
            raise ScenarioError(f"unknown key {name!r}")
        return self.keys[name]

    def key_by_public(self, public_key: bytes) -> KeyPair:
        for pair in self.keys.values():
            if pair.public_key == public_key:
                return pair
        raise ScenarioError("no scenario key matches that public key")


def load_config(source) -> dict:
    if isinstance(source, dict):
        cfg = source
    else:
        with open(source) as fh:
            cfg = json.load(fh)
    for req in ("name", "seed", "nodes", "script"):
        if req not in cfg:
            raise ScenarioError(f"config is missing {req!r}")
    cfg.setdefault("keys", [])
    cfg.setdefault("expect", [])
    _check_types("config", {name: cfg[name] for name in ("seed", "keys")})
    for name in ("nodes", "expect"):
        if not isinstance(cfg[name], list):
            raise ScenarioError(f"config {name!r} is not a list")
    for spec in cfg["nodes"]:
        if not isinstance(spec, dict) or not isinstance(spec.get("id"), str):
            raise ScenarioError(f"node spec {spec!r} has no string 'id'")
        _check_types(f"node {spec['id']!r}", spec)
    roles = {spec["id"]: spec.get("role", "full") for spec in cfg["nodes"]}
    full_ids = [node_id for node_id, role in roles.items() if role == "full"]
    if not full_ids:
        raise ScenarioError("at least one full node is required")
    for spec in cfg["nodes"]:
        if spec.get("role", "full") not in _NODE_ROLES:
            raise ScenarioError(f"unknown role {spec.get('role')!r} for node {spec['id']!r}")
        if spec.get("role", "full") != "full" and spec.get("peer", full_ids[0]) not in full_ids:
            raise ScenarioError(f"{spec['peer']!r} is not a full node")
    _check_script(cfg["script"])
    for check in cfg["expect"]:
        if not isinstance(check, dict):
            raise ScenarioError(f"expectation {check!r} is not an object")
        kind = check.get("check")
        if kind not in _CHECKS:
            raise ScenarioError(f"unknown expectation {kind!r}")
        required, allowed = _CHECKS[kind]
        for key in required:
            if key not in check:
                raise ScenarioError(f"{kind} expectation is missing {key!r}")
        named = ([check["node"]] if "node" in required
                 else check["nodes"] if "nodes" in required else [])
        for node_id in named:
            if roles.get(node_id) not in allowed:
                raise ScenarioError(f"{kind} expectation names {node_id!r},"
                                    f" not a {' or '.join(allowed)} node")
    return cfg


def _check_script(steps) -> None:
    """Refuse, before any step runs, steps that are not a list of objects
    each naming a known action and holding the keys it needs, well typed."""
    if not isinstance(steps, list):
        raise ScenarioError(f"steps {steps!r} are not a list")
    for step in steps:
        if not isinstance(step, dict):
            raise ScenarioError(f"step {step!r} is not an object")
        action = step.get("action")
        if action not in _ACTIONS:
            raise ScenarioError(f"unknown action {action!r}")
        for key in _ACTIONS[action][1]:
            if key not in step:
                raise ScenarioError(f"{action} step is missing {key!r}")
        _check_types(f"{action} step", step)
        if action == "repeat":
            _check_script(step["steps"])


def _check_types(where: str, spec: dict) -> None:
    """Refuse a value of the wrong type under a key :data:`_TYPES` names:
    a bool is no integer, and a list must hold names."""
    for key, value in spec.items():
        kind = _TYPES.get(key)
        if kind and (not isinstance(value, kind) or isinstance(value, bool) or kind is list
                     and not all(isinstance(item, str) for item in value)):
            raise ScenarioError(f"{where} {key!r} is {value!r}, not {_TYPE_NAMES[kind]}")


def _build(cfg: dict) -> ScenarioState:
    try:
        params = ChainParams(**{f.name: cfg[f.name] for f in fields(ChainParams)
                                if f.name in cfg})
    except ValueError as exc:
        raise ScenarioError(f"bad chain parameters: {exc}") from exc
    seed = cfg["seed"]
    state = ScenarioState(
        config=cfg,
        params=params,
        rng=random.Random(seed),
        bus=Bus(seed=seed),
        keys={name: derive_key(seed, name) for name in cfg["keys"]},
    )
    state.reference = next(n["id"] for n in cfg["nodes"] if n.get("role", "full") == "full")
    for spec in cfg["nodes"]:
        role = spec.get("role", "full")
        node_id = spec["id"]
        if role == "full":
            node = FullNode(params, check_commitments=not spec.get("legacy", False))
            state.full_nodes[node_id] = node
            state.bus.register(node_id, FullNodeService(node))
        else:
            key_names = spec.get("keys", [])
            if not key_names:
                raise ScenarioError(f"light node {node_id!r} watches no keys")
            try:
                config = DietConfig(
                    keys=tuple(state.key(n).public_key for n in key_names),
                    diet_enabled=role == "diet",
                    **{name: spec[name] for name in ("max_depth", "max_length") if name in spec},
                )
            except ValueError as exc:
                raise ScenarioError(f"bad light node {node_id!r}: {exc}") from exc
            peer = spec.get("peer", state.reference)
            diet = DietNode(params, config, BusTransport(state.bus, node_id, peer))
            service = DietNodeService(diet)
            state.diet_services[node_id] = service
            state.bus.register(node_id, service)
    return state


# -- script actions ----------------------------------------------------------

def _announce(state: ScenarioState, miner_id: str, block) -> None:
    payload = encode_block(block)
    for node_id in state.full_nodes:
        if node_id != miner_id:
            state.bus.post(miner_id, node_id, MSG_BLOCK_ANNOUNCE, payload)
    state.bus.run_until_idle()


def _act_mine(state: ScenarioState, step: dict) -> None:
    node_id = step.get("node", state.reference)
    node = state.full(node_id)
    reward = state.key(step["reward"]).public_key
    for _ in range(step.get("count", 1)):
        block = mine_on(node, reward, seed=state.rng.getrandbits(32))
        _announce(state, node_id, block)


def _act_pay(state: ScenarioState, step: dict) -> None:
    node_id = step.get("node", state.reference)
    node = state.full(node_id)
    sender = state.key(step["from"])
    names = step["to"] if isinstance(step["to"], list) else [step["to"]]
    if not names:
        raise ScenarioError("pay step has no recipients")
    receivers = [state.key(name) for name in names]
    amount = step["amount"]
    fee = step.get("fee", 1)
    n_out = step.get("outputs", len(receivers))
    if n_out < len(receivers):
        raise ScenarioError("fewer outputs than recipients")
    if amount < n_out:
        raise ScenarioError("amount too small to split across outputs")
    if fee < 0:
        raise ScenarioError("negative fee")

    wallet = state.wallets.get(node_id)
    if wallet is None:
        wallet = state.wallets[node_id] = Wallet(node)
    challenge = sender.challenge
    picked = wallet.pick(challenge, amount + fee)
    total = sum(c.value for c in picked)
    if total < amount + fee:
        raise ScenarioError(
            f"insufficient funds: {step['from']} has {total}, needs {amount + fee}")

    outputs = _split_outputs(amount, [receivers[i % len(receivers)].challenge
                                      for i in range(n_out)])
    if total - amount - fee > 0:
        outputs.append(TxOutput(value=total - amount - fee, kind=KIND_PAYMENT,
                                payload=challenge))
    tx = signed_spend(sender, picked, outputs)
    node.submit_transaction(tx)
    if "label" in step:
        state.labeled[step["label"]] = (tx, picked)


def _act_update(state: ScenarioState, step: dict) -> None:
    for node_id in step["nodes"]:
        state.light(node_id)
        state.bus.post("script", node_id, MSG_WAKE, b"")
    state.bus.run_until_idle()


def _act_repeat(state: ScenarioState, step: dict) -> None:
    for _ in range(step["count"]):
        for inner in step["steps"]:
            _run_step(state, inner)


def _victims(step: dict) -> list[str]:
    """The light nodes a forging step lures: ``victims``, or one ``victim``."""
    if "victims" in step:
        return step["victims"]
    if "victim" in step:
        return [step["victim"]]
    raise ScenarioError(f"{step['action']} step is missing 'victim' or 'victims'")


def _victim_challenges(state: ScenarioState, victims: list[str]) -> list[bytes]:
    challenges = []
    for victim in victims:
        state.light(victim)
        spec = next(n for n in state.config["nodes"] if n["id"] == victim)
        challenges.append(state.key(spec["keys"][0]).challenge)
    return challenges


def _act_corrupt_shard(state: ScenarioState, step: dict) -> None:
    """Flip a coin value inside every utxo response headed for the victim."""
    state.light(step["victim"])

    def transform(payload: bytes) -> bytes:
        resp = decode_utxos_response(payload)
        for idx in sorted(resp.shards):
            coins = resp.shards[idx].coins
            if coins:
                tampered = Shard.of_coins(
                    (coins[0]._replace(value=coins[0].value + 1),) + coins[1:])
                shards = dict(resp.shards)
                shards[idx] = tampered
                return encode_utxos_response(replace(resp, shards=shards))
        return payload
    state.bus.attach_adversary(
        Adversary(victim=step["victim"], transforms={MSG_UTXOS: transform}))


def _forger(state: ScenarioState, fork: int, budget: int = 1,
            lenient: bool = False) -> ForgedChainBuilder:
    """A builder whose replica is the reference node's chain up to
    ``fork``, seeded by the next draw of the scenario's rng; a
    ``lenient`` replica takes any commitment."""
    builder = ForgedChainBuilder(state.params, budget=budget,
                                 seed=state.rng.getrandbits(32),
                                 accept_bad_commitments=lenient)
    builder.replay(state.full(state.reference), fork)
    return builder


def _lure(state: ScenarioState, step: dict, builder: ForgedChainBuilder, attacker: KeyPair,
          coin: Coin, victims: list[str], empty: int = 0,
          commitment: bytes | None = None) -> None:
    """Mine ``empty`` empty blocks, then one whose lure spends ``coin`` to
    the victims (committing ``commitment`` if given), and divert every
    query of the victims to the builder's branch."""
    lure = signed_spend(attacker, [coin],
                        _split_outputs(coin.value, _victim_challenges(state, victims)))
    for _ in range(empty):
        builder.mine([], attacker.public_key)
    builder.mine([lure], attacker.public_key, fake_commitment=commitment)
    shadow = builder.service()
    for victim in victims:
        state.bus.attach_adversary(Adversary(victim=victim, shadow=shadow))
    if "label" in step:
        state.labeled[step["label"]] = (lure, [coin])


def _split_outputs(value: int, challenges: list[bytes]) -> list[TxOutput]:
    part = value // len(challenges)
    amounts = [part] * len(challenges)
    amounts[0] += value - part * len(challenges)
    return [TxOutput(value=v, kind=KIND_PAYMENT, payload=ch)
            for v, ch in zip(amounts, challenges)]


def _act_forge_commitment_tip(state: ScenarioState, step: dict) -> None:
    """One forged block on the honest tip whose commitment is garbage."""
    attacker = state.key(step["attacker"])
    builder = _forger(state, state.full(state.reference).tip_height, lenient=True)
    owned = sorted(c for c in builder.node.utxo.all_coins()
                   if c.challenge == attacker.challenge)
    if not owned:
        raise ScenarioError("attacker owns nothing to lure with")
    _lure(state, step, builder, attacker, owned[-1], _victims(step),
          commitment=state.rng.randbytes(32))


def _act_double_spend(state: ScenarioState, step: dict) -> None:
    """Re-spend a coin the honest chain already consumed, on a forged tip."""
    if step["spent_tx"] not in state.labeled:
        raise ScenarioError(f"no payment labeled {step['spent_tx']!r}")
    spent_tx, consumed = state.labeled[step["spent_tx"]]
    coin = consumed[0]
    attacker = state.key_by_public(spent_tx.inputs[0].public_key)
    builder = _forger(state, state.full(state.reference).tip_height)
    builder.inject_coin(coin)
    _lure(state, step, builder, attacker, coin, step["victims"])


def _act_forge_chain(state: ScenarioState, step: dict) -> None:
    """Fork below the tip, plant a coin that never existed, spend it to the
    victim at the end of a freshly mined branch one block past the honest tip."""
    attacker = state.key(step["attacker"])
    forge_count = step["forge_count"]
    fork = state.full(state.reference).tip_height + 1 - forge_count
    if fork < 0:
        raise ScenarioError("honest chain too short for that forge length")
    builder = _forger(state, fork, budget=forge_count)
    fake = Coin(
        outpoint=OutPoint(txid=state.rng.randbytes(32), index=0),
        value=step.get("amount", 40),
        challenge=attacker.challenge,
    )
    builder.inject_coin(fake)
    _lure(state, step, builder, attacker, fake, _victims(step), empty=forge_count - 1)


# action -> (handler, the step keys it cannot run without)
_ACTIONS = {
    "mine": (_act_mine, ("reward",)),
    "pay": (_act_pay, ("from", "to", "amount")),
    "update": (_act_update, ("nodes",)),
    "repeat": (_act_repeat, ("count", "steps")),
    "corrupt_shard": (_act_corrupt_shard, ("victim",)),
    "forge_commitment_tip": (_act_forge_commitment_tip, ("attacker",)),
    "double_spend": (_act_double_spend, ("spent_tx", "victims")),
    "forge_chain": (_act_forge_chain, ("attacker", "forge_count")),
}


# key of a step, a node spec or the config -> the type its value must have
_TYPES = {"seed": int, "count": int, "amount": int, "fee": int, "outputs": int,
          "forge_count": int, "max_depth": int, "max_length": int, "node": str,
          "victim": str, "label": str, "spent_tx": str, "keys": list, "nodes": list,
          "victims": list}
_TYPE_NAMES = {int: "an integer", str: "a name", list: "a list of names"}


def _run_step(state: ScenarioState, step: dict) -> None:
    _ACTIONS[step["action"]][0](state, step)


# -- expectations ---------------------------------------------------------------

# expectation kind -> (the keys it cannot run without, the roles of the nodes it names)
_CHECKS = {
    "verdict": (("node", "tx", "status"), ("spv", "diet")),
    "tip_height": (("node", "height"), _NODE_ROLES),
    "same_tip": (("nodes",), _NODE_ROLES),
    "utxos_bytes_ratio": (("node", "max"), ("diet",)),
    "k_final": (("min",), ()), "touched_max": (("max",), ()),
    "cap_every_block": ((), ()), "halving": ((), ()),
}


def _last_verdict(state: ScenarioState, node_id: str, label: str):
    if label not in state.labeled:
        return None
    wanted = txid(state.labeled[label][0])
    found = None
    for result in state.diet_services[node_id].results:
        for verdict in result.verdicts:
            if verdict.tx_id == wanted:
                found = verdict
    return found


def _chain_stats(state: ScenarioState) -> dict:
    store = state.full(state.reference).utxo
    if store.height is None:
        raise ScenarioError("the script mines no block")
    per_block = [{
        "height": h,
        "k": record.k_after,
        "total_bytes": record.shard_bytes,
        "largest_bytes": record.largest,
        "touched": record.touched,
        "rebalanced": record.rebalanced,
    } for h, record in store.touched_log.items()]
    return {
        "tip_height": state.full(state.reference).tip_height,
        "k_final": store.k,
        "k_history": [[h, record.k_after] for h, record in store.touched_log.items()
                      if record.rebalanced],
        "per_block": per_block,
        "rebalances": [{
            "height": s.height, "shard": s.shard,
            "bytes_before": s.bytes_before, "bytes_after": list(s.bytes_after),
        } for s in store.rebalance_log],
    }


def _headers(state: ScenarioState, node_id: str):
    """The header index of a full or light node."""
    if node_id in state.full_nodes:
        return state.full_nodes[node_id].headers
    return state.diet_services[node_id].diet.headers


def _check_one(state: ScenarioState, chain: dict, check: dict) -> tuple[bool, str]:
    kind = check["check"]
    if kind == "verdict":
        verdict = _last_verdict(state, check["node"], check["tx"])
        if verdict is None:
            return False, "no verdict observed for that payment"
        if verdict.status != check["status"]:
            return False, f"status {verdict.status} (reason {verdict.reason})"
        if "reason" in check and verdict.reason != check["reason"]:
            return False, f"reason {verdict.reason}"
        return True, f"status {verdict.status}" + (
            f", reason {verdict.reason}" if verdict.reason else "")
    if kind == "tip_height":
        headers = _headers(state, check["node"])
        if headers.tip is None:
            return False, "no tip"
        return headers.tip_height == check["height"], f"tip at {headers.tip_height}"
    if kind == "same_tip":
        tips = [_headers(state, node_id).tip for node_id in check["nodes"]]
        same = all(t == tips[0] for t in tips)
        return same, "tips agree" if same else "tips diverge"
    if kind == "cap_every_block":
        # a block changes only the leaves it edits, so these are every leaf
        cap = state.params.size_cap
        worst = max(per["largest_bytes"] for per in chain["per_block"])
        return worst <= cap, f"largest leaf above depth 32 {worst} vs cap {cap}"
    if kind == "halving":
        tol = check.get("tolerance", 1.0)
        worst = 0.0
        for step in chain["rebalances"]:
            worst = max(worst, abs(sum(step["bytes_after"]) / 2 - step["bytes_before"] / 2))
        ok = worst <= tol and chain["rebalances"]
        return bool(ok), f"{len(chain['rebalances'])} splits, worst drift {worst:.2f}"
    if kind == "k_final":
        ok = chain["k_final"] >= check["min"]
        return ok, f"k ended at {chain['k_final']}"
    if kind == "touched_max":
        worst = max(per["touched"] for per in chain["per_block"]
                    if not per["rebalanced"])
        return worst <= check["max"], f"worst non-split block touched {worst}"
    if kind == "utxos_bytes_ratio":
        totals = {per["height"]: per["total_bytes"] for per in chain["per_block"]}
        worst = 0.0
        samples = 0
        for result in state.diet_services[check["node"]].results:
            for entry in result.per_height:
                # proofs for block h describe the set as of block h-1; a set
                # of no coin bytes gives no sample
                if "utxos_bytes" in entry and totals.get(entry["height"] - 1):
                    worst = max(worst, entry["utxos_bytes"] / totals[entry["height"] - 1])
                    samples += 1
        ok = samples > 0 and worst <= check["max"]
        return ok, f"{samples} samples, worst ratio {worst:.3f}"


# -- entry point -----------------------------------------------------------------

@dataclass
class ScenarioRun:
    report: dict
    trace: list[dict]
    state: ScenarioState

    @property
    def passed(self) -> bool:
        return self.report["pass"]


def run_scenario(source, seed_override: int | None = None) -> ScenarioRun:
    cfg = dict(load_config(source))
    if seed_override is not None:
        cfg["seed"] = seed_override
    state = _build(cfg)
    for step in cfg["script"]:
        _run_step(state, step)

    chain = _chain_stats(state)
    expectations = []
    for check in cfg["expect"]:
        ok, detail = _check_one(state, chain, check)
        expectations.append({**check, "pass": ok, "detail": detail})

    queries = {}
    for node_id, service in sorted(state.diet_services.items()):
        verdicts = []
        for result in service.results:
            for v in result.verdicts:
                verdicts.append({
                    "tx": v.tx_id.hex(), "height": v.height, "status": v.status,
                    "reason": v.reason, "fail_height": v.fail_height,
                    "window_first": v.first, "window_last": v.last,
                })
        last = service.results[-1] if service.results else None
        queries[node_id] = {
            "verdicts": verdicts,
            # both over the whole run: the node's byte counts are running totals,
            # and each update lists the heights it verified
            "bytes_by_type": dict(last.bytes_by_type) if last else {},
            "per_height": [entry for result in service.results for entry in result.per_height],
        }

    report = {
        "scenario": cfg["name"],
        "seed": cfg["seed"],
        "chain": chain,
        "queries": queries,
        "expectations": expectations,
        "pass": all(e["pass"] for e in expectations),
    }
    return ScenarioRun(report=report, trace=state.bus.trace, state=state)


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2)


def render_trace(trace: list[dict]) -> str:
    return "".join(json.dumps(event, sort_keys=True) + "\n" for event in trace)
