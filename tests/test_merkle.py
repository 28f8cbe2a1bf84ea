from __future__ import annotations

import hashlib
import heapq
import math
import random
import re
import struct

import pytest
from conftest import read_whole, split_chain
from hypothesis import given, settings, strategies as st

from dietchain import merkle, utxo
from dietchain.errors import DecodeError, IncompleteProofError
from dietchain.merkle import (
    PartialMerkleTree,
    build_levels,
    build_root,
    encode_partial,
    extract_partial,
    pack_levels,
    partial_from_levels,
    partial_root,
    read_partial,
    trie_root,
    trie_walk,
)


def _h(data: bytes) -> bytes:
    # independent of the package's own hashing helper
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


def _leaves(rng: random.Random, n: int) -> list[bytes]:
    return [rng.randbytes(32) for _ in range(n)]


def _at(leaves: list[bytes], include) -> dict[int, bytes]:
    """The leaves a verifier hashes itself, by index."""
    return {i: leaves[i] for i in include}


def test_single_leaf_root_is_the_leaf():
    leaf = _h(b"only")
    assert build_root([leaf]) == leaf


def test_three_leaf_root_hand_evaluated():
    a, b, c = _h(b"a"), _h(b"b"), _h(b"c")
    # odd layer duplicates its last node
    expected = _h(_h(a + b) + _h(c + c))
    assert build_root([a, b, c]) == expected


def test_build_levels_shapes():
    rng = random.Random(11)
    levels = build_levels(_leaves(rng, 6))
    assert [len(level) for level in levels] == [6, 3, 2, 1]


def test_extract_partial_minimal_sibling_counts():
    rng = random.Random(12)
    leaves = _leaves(rng, 8)
    single = extract_partial(leaves, {0})
    # path 0: needs leaf sibling 1, then nodes (1,1) and (2,1)
    assert len(single.siblings) == 3
    pair = extract_partial(leaves, {0, 1})
    # leaves 0,1 cover their shared parent; needs (1,1) and (2,1)
    assert len(pair.siblings) == 2
    assert partial_root(single, _at(leaves, {0})) == build_root(leaves)
    assert partial_root(pair, _at(leaves, {0, 1})) == build_root(leaves)


def test_partial_root_randomized_equivalence():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randrange(1, 40)
        leaves = _leaves(rng, n)
        include = {rng.randrange(n) for _ in range(rng.randrange(1, min(n, 6) + 1))}
        partial = extract_partial(leaves, include)
        assert partial_root(partial, _at(leaves, include)) == build_root(leaves)
        for idx in include:  # a leaf the proof was not made for misses the root
            absent = {**_at(leaves, include), idx: _h(b"absent")}
            assert partial_root(partial, absent) != build_root(leaves)


def test_sibling_sets_are_minimal():
    rng = random.Random(14)
    for _ in range(20):
        n = rng.randrange(2, 24)
        leaves = _leaves(rng, n)
        include = {rng.randrange(n)}
        partial = extract_partial(leaves, include)
        for j in range(len(partial.siblings)):
            pruned = PartialMerkleTree(
                total_leaves=partial.total_leaves,
                siblings=partial.siblings[:j] + partial.siblings[j + 1:],
            )
            with pytest.raises(IncompleteProofError):
                partial_root(pruned, _at(leaves, include))


def test_sibling_count_bounded_by_log():
    rng = random.Random(15)
    for _ in range(30):
        n = rng.randrange(1, 200)
        leaves = _leaves(rng, n)
        include = {rng.randrange(n) for _ in range(rng.randrange(1, 5))}
        partial = extract_partial(leaves, include)
        bound = len(include) * max(1, math.ceil(math.log2(n))) if n > 1 else 0
        assert len(partial.siblings) <= bound


def test_update_in_place_tracks_rebuilt_tree():
    rng = random.Random(16)
    for _ in range(40):
        n = rng.randrange(1, 32)
        leaves = _leaves(rng, n)
        include = {rng.randrange(n) for _ in range(rng.randrange(1, min(n, 4) + 1))}
        partial = extract_partial(leaves, include)
        changed = {idx: rng.randbytes(32) for idx in include}
        new_leaves = list(leaves)
        for idx, value in changed.items():
            new_leaves[idx] = value
        assert partial_root(partial, changed) == build_root(new_leaves)
        # original object untouched
        assert partial_root(partial, _at(leaves, include)) == build_root(leaves)


def test_tampered_sibling_changes_root():
    rng = random.Random(18)
    leaves = _leaves(rng, 16)
    partial = extract_partial(leaves, {5})
    bad = (_h(b"tampered"),) + partial.siblings[1:]
    tampered = PartialMerkleTree(total_leaves=16, siblings=bad)
    assert partial_root(tampered, _at(leaves, {5})) != build_root(leaves)


def test_encode_decode_partial_roundtrip():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randrange(1, 64)
        leaves = _leaves(rng, n)
        include = {rng.randrange(n) for _ in range(rng.randrange(1, 5))}
        partial = extract_partial(leaves, include)
        wire = encode_partial(partial)
        again = read_whole(read_partial, wire)
        assert again == partial
        assert partial_root(again, _at(leaves, include)) == build_root(leaves)


def test_decode_partial_rejects_truncation():
    rng = random.Random(20)
    partial = extract_partial(_leaves(rng, 8), {1, 6})
    wire = encode_partial(partial)
    for cut in (0, 3, 10, len(wire) - 1):
        with pytest.raises(DecodeError):
            read_whole(read_partial, wire[:cut])
    with pytest.raises(DecodeError):
        read_whole(read_partial, wire + b"\x00")


def test_decode_partial_keeps_siblings_in_walk_order():
    """The wire is the leaf count, the sibling count and the hashes, read
    back in the order they came: any order decodes, and only the walk's
    own order reaches the root."""
    rng = random.Random(22)
    leaves = _leaves(rng, 16)
    partial = extract_partial(leaves, {2, 9})
    siblings = partial.siblings
    assert len(siblings) >= 2

    def wire(siblings):
        return struct.pack("<IH", 16, len(siblings)) + b"".join(siblings)

    assert encode_partial(partial) == wire(siblings)
    assert read_whole(read_partial, wire(siblings)) == partial
    for bad in (siblings[::-1], siblings[1:] + siblings[:1]):
        swapped = read_whole(read_partial, wire(bad))
        assert swapped.siblings == bad
        assert partial_root(swapped, _at(leaves, {2, 9})) != build_root(leaves)


def _reference_levels(leaves: list[bytes]) -> list[list[bytes]]:
    levels = [list(leaves)]
    while len(levels[-1]) > 1:
        layer = levels[-1]
        levels.append([_h(layer[i] + layer[min(i + 1, len(layer) - 1)])
                       for i in range(0, len(layer), 2)])
    return levels


def _widths(n: int) -> list[int]:
    widths = [n]
    while widths[-1] > 1:
        widths.append((widths[-1] + 1) // 2)
    return widths


def _needed(n: int, include: set[int]) -> list[tuple[int, int]]:
    """The (level, index) of every sibling a proof of ``include`` in a
    tree of ``n`` leaves needs, in increasing (level, index) order."""
    needed = []
    paths = set(include)
    for level, width in enumerate(_widths(n)[:-1]):
        needed += sorted((level, i ^ 1) for i in paths if i ^ 1 < width and i ^ 1 not in paths)
        paths = {i // 2 for i in paths}
    return needed


def _reference_partial(leaves: list[bytes], include: set[int]) -> PartialMerkleTree:
    """Minimal partial tree from a tree built with the local hash helper."""
    levels = _reference_levels(leaves)
    return PartialMerkleTree(total_leaves=len(leaves),
                             siblings=tuple(levels[level][i]
                                            for level, i in _needed(len(leaves), include)))


def test_partial_from_levels_matches_extract_partial():
    rng = random.Random(21)
    for k in range(8):
        leaves = _leaves(rng, 1 << k)
        packed = pack_levels(leaves)
        for _ in range(8):
            include = set(rng.sample(range(1 << k), rng.randrange(1, (1 << k) + 1)))
            expected = _reference_partial(leaves, include)
            assert partial_from_levels(packed, include) == expected
            assert extract_partial(leaves, include) == expected
    for n in range(1, 40):  # odd layers: the last node has no sibling
        leaves = _leaves(rng, n)
        include = set(rng.sample(range(n), rng.randrange(1, min(n, 5) + 1)))
        assert extract_partial(leaves, include) == _reference_partial(leaves, include)


@pytest.mark.parametrize("include", [set(), {-1}, {8}, {0, 8}])
def test_partial_from_levels_refuses_an_empty_or_out_of_range_include(include):
    """The partial tree it builds is the one check of ``include``."""
    packed = pack_levels(_leaves(random.Random(23), 8))
    with pytest.raises(ValueError):
        partial_from_levels(packed, include)


def _path_nodes(n: int, include: set[int]) -> int:
    """How many nodes above the leaves lie on an included leaf's path:
    the hashes a root walk over ``include`` makes."""
    count, paths = 0, set(include)
    while n > 1:
        paths = {i // 2 for i in paths}
        n = (n + 1) // 2
        count += len(paths)
    return count


def _check_leaves(p: PartialMerkleTree, leaves: dict[int, bytes]) -> None:
    if not leaves:
        raise IncompleteProofError("no leaf to prove")
    if min(leaves) < 0 or max(leaves) >= p.total_leaves:
        raise IncompleteProofError(f"leaf outside a tree of {p.total_leaves}")


def _reference_walk(p: PartialMerkleTree, leaves: dict[int, bytes]) -> bytes:
    """The root walk over one (level, index)-keyed map of every known
    node, with the local hash helper, the siblings placed at the
    positions ``_needed`` lists: what ``partial_root`` returns, and the
    error it raises first."""
    _check_leaves(p, leaves)
    widths = _widths(p.total_leaves)
    needed = _needed(p.total_leaves, set(leaves))
    known = {(0, i): h for i, h in leaves.items()}
    known.update(zip(needed, p.siblings))
    frontier = set(leaves)
    for level, width in enumerate(widths[:-1]):
        frontier = sorted({i // 2 for i in frontier})
        for j in frontier:
            left = known.get((level, 2 * j))
            right = known.get((level, 2 * j + 1)) if 2 * j + 1 < width else left
            if left is None or right is None:
                raise IncompleteProofError(f"missing node at level {level}, pair {j}")
            known[(level + 1, j)] = _h(left + right)
    if len(p.siblings) > len(needed):
        raise IncompleteProofError("a sibling is left unread")
    return known[(len(widths) - 1, 0)]


def _counted_root(p: PartialMerkleTree, leaves: dict[int, bytes]) -> tuple[bytes, int]:
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(merkle, "hash256", lambda data: calls.append(data) or _h(data))
        return merkle.partial_root(p, leaves), len(calls)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n=st.integers(1, 80))
def test_partial_root_is_build_root_and_needs_every_sibling(data, n):
    """For random sizes, odd widths included, and random include sets,
    given in any order: the root is ``build_root``'s, with one hash per
    node on the included paths; dropping any one sibling raises
    ``IncompleteProofError``, the same error the (level, index)-keyed
    reference walk raises first."""
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    leaves = _leaves(rng, n)
    include = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    partial = extract_partial(leaves, include)
    order = data.draw(st.permutations(sorted(include)))
    shuffled = _at(leaves, order)
    assert _counted_root(partial, shuffled) == (build_root(leaves), _path_nodes(n, include))
    assert _reference_walk(partial, shuffled) == build_root(leaves)
    for j in range(len(partial.siblings)):
        pruned = PartialMerkleTree(n, partial.siblings[:j] + partial.siblings[j + 1:])
        with pytest.raises(IncompleteProofError) as info:
            partial_root(pruned, shuffled)
        with pytest.raises(IncompleteProofError, match=re.escape(str(info.value))):
            _reference_walk(pruned, shuffled)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(total=st.integers(1, 40),
       leaves=st.dictionaries(st.integers(-1, 40), st.binary(min_size=32, max_size=32),
                              max_size=6),
       siblings=st.lists(st.binary(min_size=32, max_size=32), max_size=8))
def test_partial_root_of_any_tree_is_the_reference_walks(total, leaves, siblings):
    """Any leaves, none or outside the tree among them, and any run of
    siblings, too short or too long: the same root, or the same first
    error, as the reference."""
    p = PartialMerkleTree(total, tuple(siblings))
    try:
        expected = _reference_walk(p, leaves)
    except IncompleteProofError as exc:
        with pytest.raises(IncompleteProofError, match=re.escape(str(exc))):
            partial_root(p, leaves)
    else:
        assert partial_root(p, leaves) == expected


def _dict_walk(p: PartialMerkleTree, leaves: dict[int, bytes]) -> bytes:
    """The root walk ``partial_root`` ran before it paired sorted path
    indices: one ``{index: hash}`` dict of path nodes per level, both
    children of every pair looked up there or among the siblings, each
    sibling placed at the position ``_needed`` gives it."""
    _check_leaves(p, leaves)
    widths = _widths(p.total_leaves)
    needed = _needed(p.total_leaves, set(leaves))
    given: list[dict[int, bytes]] = [{} for _ in widths]
    for (level, idx), h in zip(needed, p.siblings):
        given[level][idx] = h
    nodes = dict(sorted(leaves.items()))
    for level, width in enumerate(widths[:-1]):
        parents: dict[int, bytes] = {}
        for i in nodes:
            j = i >> 1
            if j in parents:
                continue
            left = nodes.get(2 * j, given[level].get(2 * j))
            if 2 * j + 1 < width:
                right = nodes.get(2 * j + 1, given[level].get(2 * j + 1))
            else:
                right = left
            if left is None or right is None:
                raise IncompleteProofError(f"missing node at level {level}, pair {j}")
            parents[j] = _h(left + right)
        nodes = parents
    if len(p.siblings) > len(needed):
        raise IncompleteProofError("a sibling is left unread")
    return nodes[0]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n=st.integers(1, 40),
       edit=st.sampled_from(["none", "drop", "insert", "swap", "junk", "outside"]))
def test_partial_root_pairs_sorted_paths_as_the_dict_walk_does(data, n, edit):
    """Real partial trees over any width, odd ones and a single leaf
    included, given whole, with one sibling dropped, with a stray sibling
    put in anywhere, with two siblings swapped, with one sibling replaced,
    or with one leaf moved outside the tree: ``partial_root`` returns the
    dict walk's root, or raises its first error, word for word."""
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    leaves = _leaves(rng, n)
    include = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    partial = extract_partial(leaves, include)
    siblings = list(partial.siblings)
    given = _at(leaves, include)
    if edit == "drop" and siblings:
        del siblings[data.draw(st.integers(0, len(siblings) - 1))]
    elif edit == "insert":
        siblings.insert(data.draw(st.integers(0, len(siblings))), rng.randbytes(32))
    elif edit == "swap" and len(siblings) >= 2:
        i, j = data.draw(st.lists(st.integers(0, len(siblings) - 1),
                                  min_size=2, max_size=2, unique=True))
        siblings[i], siblings[j] = siblings[j], siblings[i]
    elif edit == "junk" and siblings:
        siblings[data.draw(st.integers(0, len(siblings) - 1))] = rng.randbytes(32)
    elif edit == "outside":
        given[data.draw(st.sampled_from([-1, n]))] = rng.randbytes(32)
    p = PartialMerkleTree(n, tuple(siblings))
    try:
        expected = _dict_walk(p, given)
    except IncompleteProofError as exc:
        with pytest.raises(IncompleteProofError, match=re.escape(str(exc))):
            partial_root(p, given)
    else:
        assert partial_root(p, given) == expected
        if edit == "none":
            assert expected == build_root(leaves)


def test_a_sibling_more_than_the_paths_need_is_left_unread():
    """A proof with one hash more than its leaves need, wherever that hash
    sits, reaches no root; so does the proof of fewer leaves given the
    leaves its siblings stood for."""
    rng = random.Random(23)
    leaves = _leaves(rng, 8)
    for include in ({0, 1}, {2, 3, 6}, {5}):
        partial = extract_partial(leaves, include)
        for at in range(len(partial.siblings) + 1):
            extra = PartialMerkleTree(8, partial.siblings[:at] + (_h(b"junk"),)
                                      + partial.siblings[at:])
            with pytest.raises(IncompleteProofError, match="left unread"):
                partial_root(extra, _at(leaves, include))
    for include, more in (({2, 3, 6}, {7}), ({5}, {4})):
        with pytest.raises(IncompleteProofError, match="left unread"):
            partial_root(extract_partial(leaves, include), _at(leaves, include | more))


def _hashed(run) -> tuple[object, list[bytes]]:
    """What ``run()`` returns, and every preimage it hashed, in order."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(merkle, "hash256", lambda data: calls.append(data) or _h(data))
        return run(), calls


def test_every_leaf_and_no_sibling_is_hashed_level_by_level():
    """For every tree size from 1 to 64, odd ones included, every leaf
    (given in reverse order) and no sibling give ``build_root``'s root,
    with the hashes ``build_levels`` makes, in its order; one sibling
    more is left unread."""
    rng = random.Random(31)
    for n in range(1, 65):
        leaves = _leaves(rng, n)
        given = {i: leaves[i] for i in reversed(range(n))}
        root, walked = _hashed(lambda: partial_root(PartialMerkleTree(n, ()), given))
        _, built = _hashed(lambda: build_levels(leaves))
        assert root == build_root(leaves) and walked == built
        with pytest.raises(IncompleteProofError, match="left unread"):
            partial_root(PartialMerkleTree(n, (_h(b"extra"),)), given)


# -- the shard trie ------------------------------------------------------------

def _heap_walk(held, sibling) -> dict[int, bytes]:
    """The walk ``trie_walk`` ran before it went level by level, kept as
    the oracle: one heap of the reached ids, popped largest first, each
    popped node paired with its left sibling if that is the next one out,
    else with ``sibling(id)``."""
    if held and not (min(held) > 0 and max(held) >> 33 == 0):
        raise IncompleteProofError("node id outside the trie")
    nodes = dict(held)
    heap = [-i for i in nodes]
    heapq.heapify(heap)
    while heap:
        i = -heapq.heappop(heap)
        if i == 1:
            break
        if i & 1 and heap and heap[0] == 1 - i:
            heapq.heappop(heap)
            left, right = nodes[i - 1], nodes[i]
        else:
            other = sibling(i ^ 1)
            if other is None:
                raise IncompleteProofError(f"missing sibling of node {i}")
            left, right = (other, nodes[i]) if i & 1 else (nodes[i], other)
        if i >> 1 in nodes:
            raise IncompleteProofError(f"node {i >> 1} is both held and reached")
        nodes[i >> 1] = _h(b"\x01" + left + right)
        heapq.heappush(heap, -(i >> 1))
    return nodes


def _heap_root(held, siblings) -> bytes:
    """``trie_root`` over the heap walk."""
    if not held:
        raise IncompleteProofError("no leaf to prove")
    given = iter(siblings)
    root = _heap_walk(held, lambda _: next(given, None))[1]
    if next(given, None) is not None:
        raise IncompleteProofError("a sibling is left unread")
    return root


@st.composite
def _trie_ids(draw) -> set[int]:
    """A prefix-free set of node ids at depths 0-32, clustered near one
    random path so that siblings and cousins often meet."""
    path = draw(st.integers(0, 2 ** 32 - 1))
    ids: set[int] = set()
    for depth, noise in draw(st.lists(st.tuples(st.integers(0, 32), st.integers(0, 15)),
                                      max_size=24)):
        i = 1 << depth | ((path >> (32 - depth)) ^ noise) & ((1 << depth) - 1)
        if not any(j >> max(j.bit_length() - i.bit_length(), 0) == i
                   or i >> max(i.bit_length() - j.bit_length(), 0) == j for j in ids):
            ids.add(i)
    return ids


def _sibling_hash(i: int) -> bytes:
    return _h(b"sibling" + i.to_bytes(5, "big"))


def _asking(missing_at: int | None = None):
    """A sibling source, and the ids asked of it in order; it lacks the
    ``missing_at``-th one asked for, counting from 1."""
    asked: list[int] = []

    def sibling(i: int) -> bytes | None:
        asked.append(i)
        return None if len(asked) == missing_at else _sibling_hash(i)
    return sibling, asked


def _outcome(run):
    """What ``run()`` returns, or the message of the IncompleteProofError
    it raises."""
    try:
        return run()
    except IncompleteProofError as exc:
        return f"IncompleteProofError: {exc}"


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data(), ids=_trie_ids(),
       edit=st.sampled_from(["none", "zero", "outside", "ancestor", "missing", "unread"]))
def test_the_level_walk_is_the_heap_walk(data, ids, edit):
    """Prefix-free ids at mixed depths, whole or with id 0, an id below
    depth 32 or a held ancestor added, with a sibling missing, or with
    one sibling too many for ``trie_root``: the level walk returns the
    heap walk's nodes, asks for the same siblings in the same order and
    raises its error, word for word; so does ``trie_root``."""
    held = {i: _h(b"held" + i.to_bytes(5, "big")) for i in ids}
    if edit == "zero":
        held[0] = _h(b"zero")
    elif edit == "outside":
        held[data.draw(st.integers(2 ** 33, 2 ** 40))] = _h(b"outside")
    elif edit == "ancestor" and any(i > 1 for i in held):
        i = data.draw(st.sampled_from(sorted(i for i in held if i > 1)))
        held[i >> data.draw(st.integers(1, i.bit_length() - 1))] = _h(b"ancestor")
    sibling, every = _asking()
    _outcome(lambda: _heap_walk(held, sibling))  # the siblings a whole proof carries
    siblings = [_sibling_hash(i) for i in every]
    missing_at = None
    if edit == "missing" and siblings:
        missing_at = data.draw(st.integers(1, len(siblings)))
        del siblings[missing_at - 1]
    elif edit == "unread":
        siblings.insert(data.draw(st.integers(0, len(siblings))), _h(b"extra"))

    sibling, heap_asked = _asking(missing_at)
    expected = _outcome(lambda: _heap_walk(held, sibling))
    sibling, asked = _asking(missing_at)
    assert _outcome(lambda: trie_walk(held, sibling)) == expected
    assert asked == heap_asked
    root = _outcome(lambda: trie_root(held, siblings))
    assert root == _outcome(lambda: _heap_root(held, siblings))
    if len(held) > len(ids) or missing_at:  # an id added, or a sibling lacking
        assert isinstance(expected, str) and isinstance(root, str)
    elif held:
        assert root == ("IncompleteProofError: a sibling is left unread" if edit == "unread"
                        else expected[1])


def test_the_walk_hashes_each_inner_node_it_returns_once(monkeypatch):
    """Over a chain whose blocks split leaves, every walk its store runs
    (the commit of each block, split ones included, an undo of each and
    the proof of each block's leaves) hashes each inner node it returns
    once and nothing else."""
    calls, walks = [], []
    monkeypatch.setattr(merkle, "hash256", lambda data: calls.append(data) or _h(data))
    walk = merkle.trie_walk

    def counted(held, sibling):
        before = len(calls)
        nodes = walk(held, sibling)
        walks.append((len(nodes) - len(held), len(calls) - before))
        return nodes

    monkeypatch.setattr(utxo, "trie_walk", counted)
    node = split_chain()  # it checks that six of its blocks split leaves
    store = node.utxo
    for height in range(1, store.height + 1):
        store.state_before(height, set(store.versions[height]))
    twin = store.clone()
    twin.rewind_to(0)
    assert len(walks) > 3 * store.height
    assert all(reached == hashed for reached, hashed in walks)
    assert sum(hashed for _, hashed in walks) > 0
