"""The three benchmark workloads: ``grow``, ``diet-serve`` and ``scenario-scale``.

Each workload is a closed loop with one caller that waits for every reply,
in one process and one thread. Bus delivery is instant, so every latency
is processor time, rescaled to a reference speed while ``PACE`` samples
(see ``pace.py``); the run deadline is wall time.

A workload returns an :class:`Outcome`: its set-up times, the latencies of
its operations in each repetition of identical work, the named figures the
README lists, and the count of operations attempted and failed. A failure is an unexpected connect
status, a missing or wrong verdict, or a failed scenario expectation;
correctness gates that look at the end state (same tips, the flat-dict
oracle, every SPV client at the tip) add to ``problems``.

Every call into the program goes through a module attribute
(``full_node.FullNode``, ``miner.mine_on``, ...) so that a traced run,
which patches those attributes, sees it.
"""

from __future__ import annotations

import contextlib
import gc
import random
import statistics
import time
from collections import deque
from dataclasses import dataclass, field

from dietchain import chain, crypto, diet_node, full_node, miner, netsim, scenario, utxo
from dietchain.errors import DietchainError

from pace import Pace

PACE = Pace()
clock = PACE.now


def elapsed_ms(start: float) -> float:
    """Milliseconds since ``start`` (a ``clock()`` reading), rescaled."""
    return PACE.ms(start, clock())

SUBSIDY = 1 << 20  # large enough that 1-in/3-out splits never run dry
FEE = 1
MIN_SPEND = FEE + 3  # a coin must cover the fee and three non-zero outputs


class NoTrace:
    """Hooks a workload calls; the traced run replaces them."""

    def begin(self) -> None:
        """The measured phase starts."""

    def end(self) -> None:
        """The measured phase ends."""

    def request(self, rid) -> None:
        """Later spans belong to request ``rid``."""

    def paused(self):
        """Context in which calls are not traced (benchmark-side work)."""
        return contextlib.nullcontext()


@dataclass
class Outcome:
    setup_s: list[float] = field(default_factory=list)
    # One list per repetition of identical work: the latency of each of its
    # operations in ms, in the same order every repetition.
    reps: list[list[float]] = field(default_factory=list)
    units: int = 0                  # work one repetition completes (blocks, syncs, runs)
    p50_ops: int | None = None      # leading operations that op_ms_p50 covers
    timed_s: float = 0.0            # (rescaled) processor seconds of the timed phase
    named: dict[str, tuple[float, str, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)  # end-state counts

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problem(what)
        return ok

    def problem(self, what: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(what)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def op_ms_p50(self) -> float:
        """Median latency of the leading ``p50_ops`` operations of every repetition."""
        samples = [ms for rep in self.reps for ms in rep[:self.p50_ops]]
        return statistics.median(samples) if samples else 0.0

    def ops_per_s(self) -> float:
        """Work of every repetition over the sum of its operations' latencies."""
        total_ms = sum(sum(rep) for rep in self.reps)
        return self.units * len(self.reps) / (total_ms / 1e3) if total_ms else 0.0


def percentile_report(samples: list[float]) -> list[tuple[str, float]]:
    """Median plus the highest of p90/p99 with at least ten samples beyond it."""
    if not samples:
        return []
    out = [("p50", statistics.median(samples))]
    ordered = sorted(samples)
    for label, q in (("p99", 0.99), ("p90", 0.90)):
        if len(ordered) * (1 - q) >= 10:
            out.append((label, ordered[min(len(ordered) - 1, int(q * len(ordered)))]))
            break
    return out


def add_latency(outcome: Outcome, name: str, samples: list[float]) -> None:
    """Record ``<name>_p50`` and the supported tail percentile, in ms."""
    for label, value in percentile_report(samples):
        outcome.named[f"{name}_{label}"] = (value, "ms", f"n={len(samples)}")


def timed_setup(build, times: list):
    """Run ``build`` once, appending its processor time (s) to ``times``."""
    gc.collect()
    start = clock()
    result = build()
    times.append(elapsed_ms(start) / 1e3)
    return result


def timed_setups(build, repeats: int):
    """Run ``build`` ``repeats`` times; returns (last result, set-up times).

    Each later repetition of a workload builds its own state again with
    :func:`timed_setup`, so set-up times are sampled across the whole run,
    not only in one burst at its start.
    """
    times: list = []
    for _ in range(repeats):
        result = None  # free the previous set-up before timing the next
        result = timed_setup(build, times)
    return result, times


# -- a benchmark-side wallet ---------------------------------------------------

class Wallet:
    """Seeded keys that pay each other 1-in/3-out; tracks its own coins.

    Outputs count as spendable as soon as the payment is made, so the
    wallet can chain payments inside one block, as the mempool allows.
    """

    def __init__(self, seed: int, n_keys: int = 16):
        self.rng = random.Random(seed)
        self.keys = [_key(seed, b"wallet" + bytes([i])) for i in range(n_keys)]
        self.by_challenge = {k.challenge: k for k in self.keys}
        self.spendable: deque = deque()

    def receive(self, tx) -> None:
        for coin in utxo.coins_of(tx):
            if coin.challenge in self.by_challenge and coin.value >= MIN_SPEND:
                self.spendable.append(coin)

    def pay(self, first_payee: bytes | None = None):
        """One signed payment: the oldest coin, split three ways."""
        coin = self.spendable.popleft()
        key = self.by_challenge[coin.challenge]
        payees = [self.rng.choice(self.keys).challenge for _ in range(3)]
        if first_payee is not None:
            payees[0] = first_payee
        part = (coin.value - FEE) // 3
        values = [coin.value - FEE - 2 * part, part, part]
        tx = chain.Transaction(
            version=0,
            inputs=(chain.TxInput(coin.outpoint, key.public_key, b"\x00" * 64),),
            outputs=tuple(chain.TxOutput(v, chain.KIND_PAYMENT, p)
                          for v, p in zip(values, payees)),
        )
        signature = key.sign(chain.sighash(tx))
        tx = tx._replace(inputs=(tx.inputs[0]._replace(signature=signature),))
        self.receive(tx)
        return tx


def _key(seed: int, name: bytes):
    material = crypto.hash256(b"dietchain-bench" + seed.to_bytes(8, "little") + name)
    return crypto.KeyPair.from_seed(material)


def flat_replay(node) -> dict:
    """Coin set of ``node``'s active chain, replayed into one flat dict.

    The oracle the sharded store must equal: no shards, no versions, no
    commitments, just spends and creations in chain order.
    """
    coins: dict = {}
    for block_hash in node.headers.active_chain():
        block = node.blocks[block_hash]
        for tx in block.transactions[1:]:
            for inp in tx.inputs:
                del coins[inp.prevout]
            for coin in utxo.coins_of(tx):
                coins[coin.outpoint] = coin
        for coin in utxo.coins_of(block.transactions[0]):
            coins[coin.outpoint] = coin
    return coins


def check_store_matches_oracle(outcome: Outcome, name: str, node) -> None:
    try:
        expected = flat_replay(node)
    except KeyError as exc:
        outcome.problem(f"{name}: active chain spends a missing coin {exc}")
        return
    actual = {coin.outpoint: coin for coin in node.utxo.all_coins()}
    if actual != expected:
        outcome.problem(f"{name}: coin set differs from the flat replay "
                        f"({len(actual)} vs {len(expected)} coins)")


# -- grow: the write path --------------------------------------------------------

@dataclass(frozen=True)
class GrowSize:
    payments: int = 6          # wallet payments per block
    race_every: int = 20       # one height in this many is a mining race
    prefix: int = 10           # blocks mined during set-up
    setups: int = 8            # set-ups before the first epoch; each later one adds one
    height: int = 600          # each epoch grows a fresh chain to this height


GROW_PARAMS = chain.ChainParams(target_bits=8, subsidy=SUBSIDY, size_cap=1024, initial_k=2)


class _Grow:
    """Miner and follower full nodes fed by one wallet."""

    def __init__(self, seed: int, size: GrowSize):
        self.size = size
        self.wallet = Wallet(seed)
        self.rng = random.Random(seed * 7919 + 1)
        self.race_offset = self.rng.randrange(size.race_every)
        self.rival = _key(seed, b"rival").public_key
        self.miner = full_node.FullNode(GROW_PARAMS)
        self.follower = full_node.FullNode(GROW_PARAMS)
        genesis = miner.make_genesis(GROW_PARAMS, self.wallet.keys[0].public_key,
                                     seed=self.rng.getrandbits(32))
        self.miner.connect_block(genesis)
        self.follower.connect_block(genesis)
        self.wallet.receive(genesis.transactions[0])
        self.mine_ms: list[float] = []
        self.connect_ms: list[tuple[int, float]] = []  # (height, ms)
        self.reorg_ms: list[float] = []
        self.step_ms: list[float] = []

    def reward_key(self) -> bytes:
        return self.rng.choice(self.wallet.keys).public_key

    def timed(self, samples, fn, *args):
        start = clock()
        result = fn(*args)
        samples.append(elapsed_ms(start))
        return result

    def step(self, outcome: Outcome, hooks, record: bool) -> None:
        """One height: payments, the miner's block, the follower's connect,
        and on a race height a competing block that wins one height later.
        Set-up steps (``record`` false) never race, so set-up work is the
        same for every seed."""
        m, f = self.miner, self.follower
        height = m.tip_height + 1
        hooks.request(height)
        spent = 0.0
        for _ in range(self.size.payments):
            if not self.wallet.spendable:
                break
            with hooks.paused():
                tx = self.wallet.pay()
            start = clock()
            m.submit_transaction(tx)
            spent += elapsed_ms(start) / 1e3
        race = record and (height + self.race_offset) % self.size.race_every == 0
        if race:
            with hooks.paused():
                rival = _rival_block(m.tip_hash, height, m.utxo, self.rival,
                                     self.rng.getrandbits(32))
        mine_ms, connect_ms, reorg_ms = [], [], []
        block = self.timed(mine_ms, miner.mine_on, m, self.reward_key(),
                           self.rng.getrandbits(32))
        if not race:
            result = self.timed(connect_ms, f.connect_block, block)
            outcome.check(result.status == "accepted",
                          f"follower connect at {height}: {result.status} {result.reason}")
            self.wallet.receive(block.transactions[0])
        else:
            result = self.timed(connect_ms, f.connect_block, rival)
            outcome.check(result.status == "accepted",
                          f"follower rival at {height}: {result.status} {result.reason}")
            other_ms = []  # timed into the step, not reported on their own
            result = self.timed(other_ms, f.connect_block, block)
            outcome.check(result.status == "branch",
                          f"follower late block at {height}: {result.status}")
            with hooks.paused():
                extension = _rival_block(chain.block_hash(rival), height + 1, f.utxo,
                                         self.rival, self.rng.getrandbits(32))
            hooks.request(height + 1)
            result = self.timed(connect_ms, f.connect_block, extension)
            outcome.check(result.status == "accepted",
                          f"follower extension at {height + 1}: {result.status}")
            result = self.timed(other_ms, m.connect_block, rival)
            outcome.check(result.status == "branch",
                          f"miner rival at {height}: {result.status}")
            result = self.timed(reorg_ms, m.connect_block, extension)
            outcome.check(result.status == "accepted" and m.tip_hash == f.tip_hash,
                          f"miner reorg at {height + 1}: {result.status} {result.reason}")
            # The orphaned block's payments go back to the miner's pool.
            for tx in block.transactions[1:]:
                self.timed(other_ms, m.submit_transaction, tx)
            spent += sum(other_ms) / 1e3
        spent += (sum(mine_ms) + sum(connect_ms) + sum(reorg_ms)) / 1e3
        if record:
            self.mine_ms += mine_ms
            self.reorg_ms += reorg_ms
            self.connect_ms += [(height, ms) for ms in connect_ms]
            self.step_ms.append(spent * 1e3)


def _rival_block(parent: bytes, height: int, state, reward_key: bytes, pow_seed: int):
    """An empty block another miner found at ``height`` on ``parent``."""
    template = miner.BlockTemplate(
        parent_hash=parent, height=height, target_bits=GROW_PARAMS.target_bits,
        transactions=(), reward_key=reward_key, reward_value=GROW_PARAMS.subsidy)
    return miner.mine_block(template, state, seed=pow_seed)


def grow(seed: int, seconds: float | None, hooks=None, size: GrowSize = GrowSize(),
         setups: int | None = None) -> Outcome:
    """Grow fresh chains to ``size.height`` until ``seconds`` have passed, or
    grow one when ``seconds`` is None.

    An epoch started before the deadline runs to its end, so every epoch
    covers the same heights whatever the program's speed: a slower program
    mines fewer epochs, not fewer and cheaper heights.
    """
    hooks = hooks or NoTrace()

    def build():
        g = _Grow(seed, size)
        prefix = Outcome()
        for _ in range(size.prefix):
            g.step(prefix, NoTrace(), record=False)
        return g, prefix

    (g, prefix_outcome), setup_s = timed_setups(build, setups or size.setups)
    outcome = Outcome(setup_s)
    start_height = g.miner.tip_height
    k_start = g.miner.utxo.k
    mine_ms, connect_ms, reorg_ms = [], [], []
    blocks = epochs = 0
    deadline = None if seconds is None else time.perf_counter() + seconds
    gc.collect()
    hooks.begin()
    while epochs == 0 or (deadline is not None and time.perf_counter() < deadline):
        if g is None:
            with hooks.paused():
                g, prefix_outcome = timed_setup(build, outcome.setup_s)
        outcome.problems += prefix_outcome.problems
        begin = clock()
        try:
            while g.miner.tip_height < size.height:
                g.step(outcome, hooks, record=True)
        except DietchainError as exc:
            outcome.check(False, f"height {g.miner.tip_height + 1}: {exc!r}")
            break
        finally:
            outcome.timed_s += elapsed_ms(begin) / 1e3
        with hooks.paused():
            _check_grow_gates(outcome, g)
        blocks += g.miner.tip_height - start_height
        outcome.reps.append(g.step_ms)
        mine_ms += g.mine_ms
        connect_ms += g.connect_ms
        reorg_ms += g.reorg_ms
        epochs += 1
        store = g.miner.utxo
        g = None
    hooks.end()

    outcome.units = size.height - start_height
    outcome.named["grow_blocks_per_s"] = (
        blocks / outcome.timed_s if outcome.timed_s else 0.0, "blocks/s",
        f"{epochs} epochs of heights {start_height}->{size.height}")
    add_latency(outcome, "mine_ms", mine_ms)
    add_latency(outcome, "connect_ms", [ms for _, ms in connect_ms])
    late_from = size.height - (size.height - start_height) // 10
    late = [ms for h, ms in connect_ms if h > late_from]
    if late:
        outcome.named["connect_ms_late_p50"] = (statistics.median(late), "ms",
                                                f"n={len(late)}, heights>{late_from}")
    if reorg_ms:
        outcome.named["reorg_ms_p50"] = (statistics.median(reorg_ms), "ms",
                                         f"n={len(reorg_ms)}")
    if epochs:
        outcome.counts.update(_store_counts(store))
        outcome.named["k"] = (store.k, "k", f"from {k_start}")
    return outcome


def _check_grow_gates(outcome: Outcome, g: _Grow) -> None:
    m, f = g.miner, g.follower
    if m.tip_hash != f.tip_hash or m.utxo.utxo_root() != f.utxo.utxo_root():
        outcome.problem("miner and follower end on different tips or UTXO roots")
    check_store_matches_oracle(outcome, "miner", m)
    check_store_matches_oracle(outcome, "follower", f)


def _store_counts(store) -> dict:
    return {
        "utxo.history_entries": sum(len(v) for v in store.versions.values()),
        "utxo.k_final": store.k,
        "utxo.rebalances": len(store.rebalance_log),
    }


# -- diet-serve: the read path ------------------------------------------------------

@dataclass(frozen=True)
class DietSize:
    k_target: int = 10        # grow until the store splits to this k
    size_cap: int = 256       # smaller than grow's, to reach k_target sooner
    payments: int = 6
    warm: int = 96            # diet clients woken once per round
    cold: int = 8             # SPV clients syncing headers from genesis
    tail: int = 5             # blocks after the split that carry client payments
    behind: int = 6           # warm clients start this many headers below the tip
    windows: tuple[int, ...] = (1, 2, 4)
    max_depth: int = 16
    setups: int = 2           # set-ups before the first round; each later one adds one


@dataclass
class _Served:
    node: object
    params: object
    headers: list              # active-chain headers, genesis first
    warm: list                 # (key, window, payment txid, payment height)
    cold: list                 # (key, payment txid, payment height)
    rebalanced: frozenset      # heights whose query_utxos serves every shard


def _build_served(seed: int, size: DietSize) -> _Served:
    params = chain.ChainParams(target_bits=8, subsidy=SUBSIDY, size_cap=size.size_cap,
                               initial_k=2)
    wallet = Wallet(seed)
    rng = random.Random(seed * 7919 + 2)
    node = full_node.FullNode(params)
    genesis = miner.make_genesis(params, wallet.keys[0].public_key, seed=rng.getrandbits(32))
    node.connect_block(genesis)
    wallet.receive(genesis.transactions[0])

    def mine(payees=()):
        txs = [wallet.pay(first_payee=p) for p in payees]
        while len(txs) < size.payments and wallet.spendable:
            txs.append(wallet.pay())
        for tx in txs:
            node.submit_transaction(tx)
        block = miner.mine_on(node, rng.choice(wallet.keys).public_key, rng.getrandbits(32))
        wallet.receive(block.transactions[0])
        return block, txs

    while node.utxo.k < size.k_target:
        mine()
    warm_keys = [_key(seed, b"warm" + i.to_bytes(2, "little")) for i in range(size.warm)]
    cold_keys = [_key(seed, b"cold" + i.to_bytes(2, "little")) for i in range(size.cold)]
    clients = warm_keys + cold_keys
    per_block = -(-len(clients) // size.tail)
    paid = {}
    for b in range(size.tail):
        batch = clients[b * per_block:(b + 1) * per_block]
        block, txs = mine([k.challenge for k in batch])
        for key, tx in zip(batch, txs):
            paid[key.public_key] = (chain.txid(tx), block.header.height)
    warm = [(k, size.windows[i % len(size.windows)], *paid[k.public_key])
            for i, k in enumerate(warm_keys)]
    cold = [(k, *paid[k.public_key]) for k in cold_keys]
    headers = [node.blocks[h].header for h in node.headers.active_chain()]
    rebalanced = frozenset(h for h, rec in node.utxo.touched_log.items() if rec.rebalanced)
    return _Served(node, params, headers, warm, cold, rebalanced)


def _round(served: _Served, size: DietSize, outcome: Outcome, hooks, client_tag: str,
           bytes_seen: dict) -> tuple[list[float], list[float]]:
    """Wake every warm client once, then sync every cold SPV client;
    returns their latencies in ms."""
    warm_ms: list[float] = []
    cold_ms: list[float] = []
    bus = netsim.Bus(seed=0)
    bus.register("full", netsim.FullNodeService(served.node))
    tip = served.node.tip_height
    start_headers = served.headers[:len(served.headers) - size.behind]
    services = []
    with hooks.paused():
        for i, (key, window, _, _) in enumerate(served.warm):
            cid = f"{client_tag}warm{i}"
            config = diet_node.DietConfig(keys=(key.public_key,), max_depth=size.max_depth,
                                          max_length=window)
            client = diet_node.DietNode(served.params, config,
                                        netsim.BusTransport(bus, cid, "full"))
            client.ingest_headers(start_headers)
            service = netsim.DietNodeService(client)
            bus.register(cid, service)
            services.append((cid, service))
    for (cid, service), (key, window, tx_id, height) in zip(services, served.warm):
        hooks.request(cid)
        start = clock()
        bus.post("bench", cid, netsim.MSG_WAKE, b"")
        bus.run_until_idle()
        warm_ms.append(elapsed_ms(start))
        verdicts = [v for r in service.results for v in r.verdicts]
        ok = (len(verdicts) == 1 and verdicts[0].tx_id == tx_id
              and verdicts[0].status == "diet-verified"
              and (verdicts[0].first, verdicts[0].last) == (height - window, height))
        seen = [(v.status, v.reason, v.first, v.last) for v in verdicts]
        outcome.check(ok, f"{cid}: verdicts {seen}")
        _tally_bytes(service.diet, service.results, served.rebalanced, bytes_seen)
    for i, (key, tx_id, height) in enumerate(served.cold):
        cid = f"{client_tag}cold{i}"
        config = diet_node.DietConfig(keys=(key.public_key,), diet_enabled=False)
        with hooks.paused():
            client = diet_node.DietNode(served.params, config,
                                        netsim.BusTransport(bus, cid, "full"))
            service = netsim.DietNodeService(client)
            bus.register(cid, service)
        hooks.request(cid)
        start = clock()
        bus.post("bench", cid, netsim.MSG_WAKE, b"")
        bus.run_until_idle()
        cold_ms.append(elapsed_ms(start))
        verdicts = [v for r in service.results for v in r.verdicts]
        ok = (client.headers.tip_height == tip and len(verdicts) == 1
              and verdicts[0].tx_id == tx_id and verdicts[0].status == "spv-only")
        outcome.check(ok, f"{cid}: tip {client.headers.tip_height}/{tip}, "
                          f"verdicts {[(v.status, v.reason) for v in verdicts]}")
        _tally_bytes(client, service.results, served.rebalanced, bytes_seen)
    _tally_messages(bus.trace, bytes_seen)
    return warm_ms, cold_ms


MESSAGE_NAMES = {
    netsim.MSG_QUERY_MERKLE_BLOCKS: "query_merkle_blocks",
    netsim.MSG_MERKLE_BLOCKS: "merkle_blocks",
    netsim.MSG_QUERY_UTXO_MROOT: "query_utxo_mroot",
    netsim.MSG_UTXO_MROOT: "utxo_mroot",
    netsim.MSG_QUERY_BLOCK: "query_block",
    netsim.MSG_BLOCK: "block",
    netsim.MSG_QUERY_UTXOS: "query_utxos",
    netsim.MSG_UTXOS: "utxos",
    netsim.MSG_BLOCK_ANNOUNCE: "block_announce",
    netsim.MSG_WAKE: "wake",
}


def _tally_messages(trace: list[dict], seen: dict) -> None:
    """Add the bytes of every message in a ``Bus`` trace, by message type."""
    for event in trace:
        if event["kind"] == "message":
            name = "netsim.bytes." + MESSAGE_NAMES[event["type"]]
            seen[name] = seen.get(name, 0) + event["bytes"]


def _tally_bytes(client, results, rebalanced: frozenset, seen: dict) -> None:
    for kind, nbytes in client.bytes_by_type.items():
        name = f"diet_node.bytes.{kind}"
        seen[name] = seen.get(name, 0) + nbytes
    for result in results:
        for entry in result.per_height:
            if "utxos_bytes" not in entry:
                continue
            key = "rebalance" if entry["height"] in rebalanced else "normal"
            seen[f"diet_node.utxos_bytes.{key}"] = (
                seen.get(f"diet_node.utxos_bytes.{key}", 0) + entry["utxos_bytes"])
            seen[f"diet_node.utxos_blocks.{key}"] = (
                seen.get(f"diet_node.utxos_blocks.{key}", 0) + 1)


def diet_serve(seed: int, seconds: float | None, hooks=None, size: DietSize = DietSize(),
               setups: int | None = None) -> Outcome:
    """Serve rounds of warm and cold clients for ``seconds``, or one round
    when ``seconds`` is None."""
    hooks = hooks or NoTrace()

    def build():
        return _build_served(seed, size)

    served, setup_s = timed_setups(build, setups or size.setups)
    outcome = Outcome(setup_s, p50_ops=size.warm, units=size.warm + size.cold)
    warm_ms: list[float] = []
    cold_ms: list[float] = []
    bytes_seen: dict = {}
    deadline = None if seconds is None else time.perf_counter() + seconds
    gc.collect()
    hooks.begin()
    rounds = 0
    try:
        while rounds == 0 or (deadline is not None and time.perf_counter() < deadline):
            if rounds:
                served = None
                with hooks.paused():
                    served = timed_setup(build, outcome.setup_s)
            warm, cold = _round(served, size, outcome, hooks, f"r{rounds}-", bytes_seen)
            outcome.reps.append(warm + cold)
            warm_ms += warm
            cold_ms += cold
            rounds += 1
    except DietchainError as exc:
        outcome.check(False, f"round {rounds}: {exc!r}")
    hooks.end()

    outcome.timed_s = (sum(warm_ms) + sum(cold_ms)) / 1e3
    syncs = len(warm_ms) + len(cold_ms)
    outcome.named["client_syncs_per_s"] = (syncs / outcome.timed_s if outcome.timed_s else 0.0,
                                           "1/s", f"{rounds} rounds")
    add_latency(outcome, "verdict_ms", warm_ms)
    if cold_ms:
        outcome.named["spv_sync_ms_p50"] = (statistics.median(cold_ms), "ms",
                                            f"n={len(cold_ms)}")
    normal_blocks = bytes_seen.get("diet_node.utxos_blocks.normal", 0)
    if normal_blocks:
        outcome.named["utxos_bytes_per_block"] = (
            bytes_seen["diet_node.utxos_bytes.normal"] / normal_blocks, "bytes",
            f"{normal_blocks} non-rebalance blocks; "
            f"{bytes_seen.get('diet_node.utxos_blocks.rebalance', 0)} rebalance blocks "
            f"carried {bytes_seen.get('diet_node.utxos_bytes.rebalance', 0)} bytes")
    outcome.counts.update({k: v for k, v in bytes_seen.items()
                           if not k.startswith("diet_node.utxos_blocks")})
    outcome.counts.update(_store_counts(served.node.utxo))
    outcome.named["k"] = (served.node.utxo.k, "k", f"tip {served.node.tip_height}")
    return outcome


# -- scenario-scale: the `dietchain run` path ------------------------------------------

@dataclass(frozen=True)
class ScenarioSize:
    blocks: int = 120          # honest blocks before the attacks
    pays: int = 2              # wallet payments per block
    outputs: int = 4           # outputs per wallet payment
    clients: int = 12          # diet clients watching labeled payments
    windows: tuple[int, ...] = (1, 2, 4)
    forge_window: int = 2      # l: forge_chain runs at l and l+1
    setups: int = 8            # set-ups before the first run; each later one adds one
    warmup_blocks: int = 6     # size of the warm-up scenario run during set-up


def scenario_config(seed: int, size: ScenarioSize) -> dict:
    """One scenario from the seed: honest growth with labeled payments to
    diet clients, then a double spend, a corrupted shard and l / l+1 forgeries."""
    rng = random.Random(seed * 7919 + 3)
    payers = [f"w{i}" for i in range(4)]
    clients = [f"c{i}" for i in range(size.clients)]
    victims = ["ds", "cs", "fr", "fa"]
    l = size.forge_window
    nodes = [{"id": "full-1", "role": "full"}, {"id": "full-2", "role": "full"}]
    nodes += [{"id": f"{c}-node", "role": "diet", "keys": [c], "max_depth": 16,
               "max_length": size.windows[i % len(size.windows)], "peer": "full-1"}
              for i, c in enumerate(clients)]
    nodes += [
        {"id": "ds-spv", "role": "spv", "keys": ["ds"], "peer": "full-1"},
        {"id": "ds-node", "role": "diet", "keys": ["ds"], "max_depth": 16,
         "max_length": 2, "peer": "full-1"},
        {"id": "cs-node", "role": "diet", "keys": ["cs"], "max_depth": 16,
         "max_length": 2, "peer": "full-1"},
        {"id": "fr-node", "role": "diet", "keys": ["fr"], "max_depth": 100,
         "max_length": l, "peer": "full-1"},
        {"id": "fa-node", "role": "diet", "keys": ["fa"], "max_depth": 100,
         "max_length": l, "peer": "full-1"},
    ]
    script = [{"action": "mine", "node": "full-1", "reward": "alice", "count": 2}]
    expect = []
    label_at = {size.blocks * (i + 1) // (size.clients + 1): c for i, c in enumerate(clients)}
    for b in range(size.blocks):
        script.append({"action": "pay", "from": "alice", "to": payers,
                       "amount": 4 * 4096, "outputs": 4})
        for j in range(size.pays if b >= 2 else 0):
            src = payers[(b * size.pays + j) % len(payers)]
            script.append({"action": "pay", "from": src,
                           "to": [rng.choice(payers) for _ in range(size.outputs)],
                           "amount": 4 * size.outputs, "outputs": size.outputs})
        if b in label_at:
            c = label_at[b]
            script.append({"action": "pay", "label": f"to-{c}", "from": "alice", "to": c,
                           "amount": 1000})
        script.append({"action": "mine", "node": "full-1", "reward": "alice"})
        if b - 5 in label_at:
            c = label_at[b - 5]
            script.append({"action": "update", "nodes": [f"{c}-node"]})
            expect.append({"check": "verdict", "node": f"{c}-node", "tx": f"to-{c}",
                           "status": "diet-verified"})
    script += [
        {"action": "pay", "label": "honest", "from": "w0", "to": "alice", "amount": 100},
        {"action": "mine", "node": "full-1", "reward": "alice", "count": 2},
        {"action": "update", "nodes": ["ds-spv", "ds-node"]},
        {"action": "double_spend", "spent_tx": "honest", "victims": ["ds-spv", "ds-node"],
         "label": "respend"},
        {"action": "update", "nodes": ["ds-spv", "ds-node"]},
        {"action": "corrupt_shard", "victim": "cs-node"},
        {"action": "pay", "label": "to-cs", "from": "alice", "to": "cs", "amount": 1000},
        {"action": "mine", "node": "full-1", "reward": "alice", "count": 2},
        {"action": "update", "nodes": ["cs-node"]},
        {"action": "forge_chain", "attacker": "mallory", "victim": "fr-node",
         "forge_count": l, "label": "lure-l"},
        {"action": "update", "nodes": ["fr-node"]},
        {"action": "forge_chain", "attacker": "mallory", "victim": "fa-node",
         "forge_count": l + 1, "label": "lure-l1"},
        {"action": "update", "nodes": ["fa-node"]},
    ]
    expect += [
        {"check": "same_tip", "nodes": ["full-1", "full-2"]},
        {"check": "tip_height", "node": "full-1", "height": size.blocks + 5},
        {"check": "verdict", "node": "ds-spv", "tx": "respend", "status": "spv-only"},
        {"check": "verdict", "node": "ds-node", "tx": "respend", "status": "rejected",
         "reason": "missing-input"},
        {"check": "verdict", "node": "cs-node", "tx": "to-cs", "status": "rejected",
         "reason": "shard-proof-mismatch"},
        {"check": "verdict", "node": "fr-node", "tx": "lure-l", "status": "rejected",
         "reason": "missing-input" if l == 1 else "root-mismatch"},
        {"check": "verdict", "node": "fa-node", "tx": "lure-l1", "status": "diet-verified"},
        {"check": "cap_every_block"},
    ]
    return {
        "name": f"bench-scale-{seed}",
        "seed": seed,
        "target_bits": 6,
        "subsidy": SUBSIDY,
        "size_cap": 1024,
        "initial_k": 2,
        "keys": ["alice", "mallory"] + payers + clients + victims,
        "nodes": nodes,
        "script": script,
        "expect": expect,
    }


def scenario_scale(seed: int, seconds: float | None, hooks=None,
                   size: ScenarioSize = ScenarioSize(), setups: int | None = None) -> Outcome:
    """Run the generated scenario repeatedly for ``seconds``, or once when
    ``seconds`` is None."""
    hooks = hooks or NoTrace()

    def build():
        warm = scenario_config(seed, ScenarioSize(blocks=size.warmup_blocks, clients=2))
        scenario.run_scenario(scenario.load_config(warm))
        return scenario.load_config(scenario_config(seed, size))

    cfg, setup_s = timed_setups(build, setups or size.setups)
    outcome = Outcome(setup_s, units=1)
    run_ms: list[float] = []
    deadline = None if seconds is None else time.perf_counter() + seconds
    run = None
    gc.collect()
    hooks.begin()
    while not run_ms or (deadline is not None and time.perf_counter() < deadline):
        if run_ms:
            with hooks.paused():
                cfg = timed_setup(build, outcome.setup_s)
        hooks.request(len(run_ms))
        run = None
        start = clock()
        try:
            run = scenario.run_scenario(dict(cfg))
        except DietchainError as exc:
            outcome.check(False, f"run {len(run_ms)}: {exc!r}")
            break
        finally:
            run_ms.append(elapsed_ms(start))
        for item in run.report["expectations"]:
            outcome.check(item["pass"], f"expectation {item['check']} "
                          f"{item.get('node', '')} {item.get('tx', '')}: {item['detail']}")
    hooks.end()
    outcome.reps = [[ms] for ms in run_ms]
    outcome.timed_s = sum(run_ms) / 1e3
    outcome.named["scenario_s"] = (statistics.median(run_ms) / 1e3, "s", f"n={len(run_ms)}")
    if run is not None:
        store = run.state.full(run.state.reference).utxo
        outcome.counts.update(_store_counts(store))
        outcome.named["k"] = (store.k, "k", f"tip {run.report['chain']['tip_height']}, "
                              f"{len(cfg['expect'])} expectations")
        _tally_messages(run.trace, outcome.counts)
        for info in run.report["queries"].values():
            for kind, nbytes in info["bytes_by_type"].items():
                name = f"diet_node.bytes.{kind}"
                outcome.counts[name] = outcome.counts.get(name, 0) + nbytes
    return outcome


WORKLOADS = {
    "grow": grow,
    "diet-serve": diet_serve,
    "scenario-scale": scenario_scale,
}
