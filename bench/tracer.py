"""Per-layer tracing for the benchmark's traced run.

The tracer wraps the public functions and methods of each dietchain
module from outside the program: module functions are replaced at every
binding (the modules use ``from .x import y``, so ``hash256`` alone is
bound in eight modules), and methods are replaced on their class. Nothing
under ``src/`` knows it is traced, and nothing is patched outside
:meth:`Tracer.begin` / :meth:`Tracer.end`.

Each wrapped call into a layer records a span: name, start, end, parent
span, the request id the workload set (block height on ``grow``, client id
on ``diet-serve``, run index on ``scenario-scale``), and an optional note
taken from the result. Spans stay in memory until the run ends. Hot leaf
primitives (``hash256``, ``verify``, ``pow_ok``, ``txid``, bloom probes,
the chain wire codec) are folded into counters and busy time instead.

A span's self time is its duration minus the part its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

now = time.perf_counter_ns

CODEC_FUNCTIONS = (
    "encode_header", "encode_transaction", "encode_block",
    "read_header", "read_transaction", "read_block",
    "decode_header", "decode_transaction", "decode_block",
)

# (module, class or None, attribute, span name)
SPANS = (
    ("merkle", None, "build_levels", "merkle.build_levels"),
    ("merkle", None, "extract_partial", "merkle.extract_partial"),
    ("merkle", None, "partial_root", "merkle.partial_root"),
    ("utxo", "VersionedShardStore", "apply_block", "utxo.apply_block"),
    ("utxo", "VersionedShardStore", "preview_root", "utxo.preview_root"),
    ("utxo", "VersionedShardStore", "clone", "utxo.clone"),
    ("utxo", "VersionedShardStore", "rewind_to", "utxo.rewind_to"),
    ("utxo", "VersionedShardStore", "state_before", "utxo.state_before"),
    ("headers", "HeaderIndex", "add", "headers.add"),
    ("headers", "HeaderIndex", "fork_height", "headers.fork_height"),
    ("full_node", "FullNode", "connect_block", "full_node.connect_block"),
    ("full_node", "FullNode", "submit_transaction", "full_node.submit_transaction"),
    ("full_node", "FullNode", "build_template", "full_node.build_template"),
    ("full_node", "FullNode", "serve_query_utxos", "full_node.serve_query_utxos"),
    ("full_node", "FullNode", "serve_query_merkle_blocks", "full_node.serve_query_merkle_blocks"),
    ("full_node", "FullNode", "serve_query_block", "full_node.serve_query_block"),
    ("miner", None, "mine_on", "miner.mine_on"),
    ("miner", None, "assemble_block", "miner.assemble_block"),
    ("miner", None, "solve_pow", "miner.solve_pow"),
    ("diet_node", "DietNode", "update_chain", "diet_node.update_chain"),
    ("diet_node", "DietNode", "verify_blocks_up_to", "diet_node.verify_blocks_up_to"),
    ("diet_node", "DietNode", "ingest_headers", "diet_node.ingest_headers"),
    ("netsim", "BusTransport", "query_merkle_blocks", "netsim.request"),
    ("netsim", "BusTransport", "query_utxo_mroot", "netsim.request"),
    ("netsim", "BusTransport", "query_block", "netsim.request"),
    ("netsim", "BusTransport", "query_utxos", "netsim.request"),
    ("netsim", "ForgedChainBuilder", "replay", "netsim.forged_replay"),
    ("scenario", None, "run_scenario", "scenario.run_scenario"),
)

# Leaf functions counted (and, where named in TIMED_LEAVES, timed) per call.
COUNTED = (
    ("crypto", "hash256", "crypto.hash256"),
    ("crypto", "verify", "crypto.verify"),
    ("chain", "pow_ok", "chain.pow_ok"),
    ("chain", "txid", "chain.txid"),
    ("full_node", "validate_transaction", "full_node.validate_transaction"),
)
TIMED_LEAVES = {"crypto.verify"}

# Span names whose busy and self time the report lists.
REPORTED_SPANS = tuple(dict.fromkeys(name for *_, name in SPANS))


class Tracer:
    """Workload hooks that record spans and leaf counters while installed."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, request, note]
        self.stack: list[int] = []
        self.rid = None
        self.calls: dict[str, int] = defaultdict(int)
        self.busy_ns: dict[str, int] = defaultdict(int)
        self.off = 0                  # > 0 while paused
        self.codec_depth = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- workload hooks -------------------------------------------------------

    def begin(self) -> None:
        self.install()

    def end(self) -> None:
        self.uninstall()

    def request(self, rid) -> None:
        self.rid = rid

    @contextlib.contextmanager
    def paused(self):
        self.off += 1
        try:
            yield
        finally:
            self.off -= 1

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        mods = {name[len("dietchain."):]: mod for name, mod in sys.modules.items()
                if name.startswith("dietchain.")}
        bindings = [mod for name, mod in sys.modules.items()
                    if name == "dietchain" or name.startswith("dietchain.")]
        for mod_name, cls_name, attr, span in SPANS:
            mod = mods[mod_name]
            if cls_name is None:
                self._rebind(bindings, getattr(mod, attr), self._span(span, getattr(mod, attr)))
            else:
                cls = getattr(mod, cls_name)
                self._set(cls, attr, self._span(span, cls.__dict__[attr]))
        for mod_name, attr, name in COUNTED:
            original = getattr(mods[mod_name], attr)
            self._rebind(bindings, original, self._leaf(name, original, name in TIMED_LEAVES))
        bloom = mods["crypto"].BloomFilter
        for attr in ("add", "may_contain"):
            self._set(bloom, attr, self._bloom(bloom.__dict__[attr]))
        for attr in CODEC_FUNCTIONS:
            original = getattr(mods["chain"], attr)
            self._rebind(bindings, original, self._codec(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, modules, original, wrapper) -> None:
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name: str, fn):
        note = NOTES.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.off:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            record = [name, 0, 0, tracer.stack[-1] if tracer.stack else -1, tracer.rid, None]
            tracer.spans.append(record)
            tracer.stack.append(index)
            before = note.before(tracer, args) if note else None
            record[1] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = now()
                tracer.stack.pop()
            if note:
                record[5] = note.after(tracer, args, result, before)
            return result
        return wrapper

    def _leaf(self, name: str, fn, timed: bool):
        calls = self.calls
        busy = self.busy_ns
        tracer = self

        if not timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if not tracer.off:
                    calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def timed_leaf(*args, **kwargs):
            if tracer.off:
                return fn(*args, **kwargs)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                busy[name] += now() - start
                calls[name] += 1
        return timed_leaf

    def _bloom(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.off:
                return fn(*args, **kwargs)
            hashes = tracer.calls["crypto.hash256"]
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.busy_ns["crypto.bloom"] += now() - start
                tracer.calls["crypto.bloom.probes"] += tracer.calls["crypto.hash256"] - hashes
        return wrapper

    def _codec(self, fn):
        tracer = self
        reads = fn.__name__.startswith("read_")
        decodes = fn.__name__.startswith("decode_")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.off or tracer.codec_depth:
                return fn(*args, **kwargs)
            tracer.codec_depth += 1
            offset = args[0].offset if reads else 0
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.busy_ns["chain.codec"] += now() - start
                tracer.codec_depth -= 1
            if reads:
                size = args[0].offset - offset
            elif decodes:
                size = len(args[0])
            else:
                size = len(result)
            tracer.calls["chain.codec.bytes"] += size
            return result
        return wrapper

    # -- report -------------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        spans = self.spans
        child_ns = [0] * len(spans)
        children: dict[int, list[int]] = defaultdict(list)
        for i, (_, start, end, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child_ns[parent] += end - start
                children[parent].append(i)
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, int] = defaultdict(int)
        own: dict[str, int] = defaultdict(int)
        for i, (name, start, end, parent, _, _) in enumerate(spans):
            calls[name] += 1
            own[name] += end - start - child_ns[i]
            if not _has_ancestor(spans, parent, name):
                busy[name] += end - start

        out: dict[str, tuple[float, str]] = {}
        for name in REPORTED_SPANS:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.s"] = (busy[name] / 1e9, "s")
            out[f"{name}.self_s"] = (own[name] / 1e9, "s")
        for _, _, name in COUNTED:
            out[f"{name}.calls"] = (self.calls[name], "count")
        out["crypto.verify.s"] = (self.busy_ns["crypto.verify"] / 1e9, "s")
        out["crypto.bloom.probes"] = (self.calls["crypto.bloom.probes"], "count")
        out["crypto.bloom.s"] = (self.busy_ns["crypto.bloom"] / 1e9, "s")
        out["chain.codec.s"] = (self.busy_ns["chain.codec"] / 1e9, "s")
        out["chain.codec.bytes"] = (self.calls["chain.codec.bytes"], "bytes")

        notes = defaultdict(int)
        reorgs = depth_max = 0
        for i, (name, _, _, parent, _, note) in enumerate(spans):
            if note is None and name != "utxo.state_before":
                continue  # the call raised, or it keeps no note
            if name == "merkle.build_levels":
                notes["merkle.leaves_hashed"] += note
            elif name == "merkle.extract_partial":
                notes["merkle.proof_siblings"] += note
            elif name == "miner.solve_pow":
                notes["miner.pow.attempts"] += note
            elif name == "full_node.connect_block":
                status, tip_before = note
                notes[f"full_node.connect_block.calls.{status}"] += 1
                fork = _find_descendant(spans, children, i, "headers.fork_height")
                if fork is not None and tip_before is not None:
                    reorgs += 1
                    depth_max = max(depth_max, tip_before - spans[fork][5])
            elif name == "diet_node.verify_blocks_up_to":
                notes[f"diet_node.verify_blocks_up_to.{note}"] += 1
            elif name == "utxo.state_before" and parent >= 0 \
                    and spans[parent][0] == "scenario.run_scenario":
                notes["scenario.report.state_before.calls"] += 1
        for key in ("merkle.leaves_hashed", "merkle.proof_siblings"):
            out[key] = (notes[key], "count")
        for status in ("accepted", "branch", "rejected", "duplicate"):
            key = f"full_node.connect_block.calls.{status}"
            out[key] = (notes[key], "count")
        for kind in ("verified", "fallback", "rejected"):
            key = f"diet_node.verify_blocks_up_to.{kind}"
            out[key] = (notes[key], "count")
        out["full_node.reorgs"] = (reorgs, "count")
        out["full_node.reorg_depth_max"] = (depth_max, "blocks")
        solved = calls["miner.solve_pow"]
        out["miner.pow.attempts_per_block"] = (
            notes["miner.pow.attempts"] / solved if solved else 0.0, "attempts/block")
        out["scenario.report.state_before.calls"] = (
            notes["scenario.report.state_before.calls"], "count")
        out["trace.spans"] = (len(spans), "count")
        return out

    def span_records(self):
        """Spans as dicts, for writing out after the run."""
        for i, (name, start, end, parent, rid, note) in enumerate(self.spans):
            yield {"id": i, "name": name, "start_ns": start, "end_ns": end,
                   "parent": parent, "request": rid,
                   "note": note if isinstance(note, (int, str, type(None))) else list(note)}


def _has_ancestor(spans, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _find_descendant(spans, children, index: int, name: str):
    todo = list(children.get(index, ()))
    while todo:
        i = todo.pop()
        if spans[i][0] == name:
            return i
        todo.extend(children.get(i, ()))
    return None


class _Note:
    """What a span keeps from its call: ``before`` runs ahead of it,
    ``after`` turns the result into the note."""

    def __init__(self, after, before=None):
        self.after = after
        self.before = before or (lambda tracer, args: None)


def _tip_height(tracer, args):
    node = args[0]
    return node.headers.tip_height if node.headers.tip is not None else None


def _pow_count(tracer, args):
    return tracer.calls["chain.pow_ok"]


NOTES = {
    "merkle.build_levels": _Note(lambda t, a, r, b: len(a[0])),
    "merkle.extract_partial": _Note(lambda t, a, r, b: len(r.siblings)),
    "miner.solve_pow": _Note(lambda t, a, r, b: t.calls["chain.pow_ok"] - b, _pow_count),
    "full_node.connect_block": _Note(lambda t, a, r, b: (r.status, b), _tip_height),
    "headers.fork_height": _Note(lambda t, a, r, b: r),
    "diet_node.verify_blocks_up_to": _Note(lambda t, a, r, b: r.kind),
}
