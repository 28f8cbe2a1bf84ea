from __future__ import annotations

import hashlib
import math
import random
import re
import struct

import pytest
from conftest import read_whole
from hypothesis import given, settings, strategies as st

from dietchain import merkle
from dietchain.errors import DecodeError, IncompleteProofError
from dietchain.merkle import (
    PartialMerkleTree,
    build_levels,
    build_root,
    contains,
    encode_partial,
    extract_partial,
    pack_levels,
    partial_from_levels,
    partial_root,
    read_partial,
)


def _h(data: bytes) -> bytes:
    # independent of the package's own hashing helper
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


def _leaves(rng: random.Random, n: int) -> list[bytes]:
    return [rng.randbytes(32) for _ in range(n)]


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
    assert partial_root(single) == build_root(leaves)
    assert partial_root(pair) == build_root(leaves)


def test_partial_root_randomized_equivalence():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randrange(1, 40)
        leaves = _leaves(rng, n)
        include = {rng.randrange(n) for _ in range(rng.randrange(1, min(n, 6) + 1))}
        partial = extract_partial(leaves, include)
        assert partial_root(partial) == build_root(leaves)
        for idx in include:
            assert contains(partial, leaves[idx])
        assert not contains(partial, _h(b"absent"))


def test_sibling_sets_are_minimal():
    rng = random.Random(14)
    for _ in range(20):
        n = rng.randrange(2, 24)
        leaves = _leaves(rng, n)
        include = {rng.randrange(n)}
        partial = extract_partial(leaves, include)
        for key in list(partial.siblings):
            pruned = PartialMerkleTree(
                total_leaves=partial.total_leaves,
                included=dict(partial.included),
                siblings={k: v for k, v in partial.siblings.items() if k != key},
            )
            with pytest.raises(IncompleteProofError):
                partial_root(pruned)


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
        updated = PartialMerkleTree(n, {**partial.included, **changed}, partial.siblings)
        new_leaves = list(leaves)
        for idx, value in changed.items():
            new_leaves[idx] = value
        assert partial_root(updated) == build_root(new_leaves)
        # original object untouched
        assert partial_root(partial) == build_root(leaves)


def test_tampered_sibling_changes_root():
    rng = random.Random(18)
    leaves = _leaves(rng, 16)
    partial = extract_partial(leaves, {5})
    key = sorted(partial.siblings)[0]
    bad = dict(partial.siblings)
    bad[key] = _h(b"tampered")
    tampered = PartialMerkleTree(total_leaves=16, included=dict(partial.included),
                                 siblings=bad)
    assert partial_root(tampered) != build_root(leaves)


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
        assert partial_root(again) == build_root(leaves)


def test_decode_partial_rejects_truncation():
    rng = random.Random(20)
    partial = extract_partial(_leaves(rng, 8), {1, 6})
    wire = encode_partial(partial)
    for cut in (0, 3, 10, len(wire) - 1):
        with pytest.raises(DecodeError):
            read_whole(read_partial, wire[:cut])
    with pytest.raises(DecodeError):
        read_whole(read_partial, wire + b"\x00")


def test_decode_partial_requires_strictly_increasing_entries():
    rng = random.Random(22)
    partial = extract_partial(_leaves(rng, 16), {2, 9})
    leaves = sorted(partial.included.items())
    siblings = sorted(partial.siblings.items())

    def wire(leaves, siblings):
        parts = [struct.pack("<IH", 16, len(leaves))]
        parts += [struct.pack("<I", i) + h for i, h in leaves]
        parts.append(struct.pack("<H", len(siblings)))
        parts += [struct.pack("<BI", *pos) + h for pos, h in siblings]
        return b"".join(parts)

    assert read_whole(read_partial, wire(leaves, siblings)) == partial
    bad = [(leaves[::-1], siblings), (leaves + leaves[-1:], siblings),
           (leaves, siblings[::-1]), (leaves, siblings[:1] + siblings)]
    for entries in bad:
        with pytest.raises(DecodeError, match="strictly increasing"):
            read_whole(read_partial, wire(*entries))


def _reference_partial(leaves: list[bytes], include: set[int]) -> PartialMerkleTree:
    """Minimal partial tree from a tree built with the local hash helper."""
    levels = [list(leaves)]
    while len(levels[-1]) > 1:
        layer = levels[-1]
        levels.append([_h(layer[i] + layer[min(i + 1, len(layer) - 1)])
                       for i in range(0, len(layer), 2)])
    siblings = {}
    paths = set(include)
    for level, layer in enumerate(levels[:-1]):
        for i in paths:
            if i ^ 1 < len(layer) and i ^ 1 not in paths:
                siblings[(level, i ^ 1)] = layer[i ^ 1]
        paths = {i // 2 for i in paths}
    return PartialMerkleTree(total_leaves=len(leaves),
                             included={i: leaves[i] for i in include}, siblings=siblings)


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


def _reference_walk(p: PartialMerkleTree) -> bytes:
    """The root walk over one (level, index)-keyed map of every known
    node, with the local hash helper: what ``partial_root`` returns, and
    the error it raises first."""
    widths = [p.total_leaves]
    while widths[-1] > 1:
        widths.append((widths[-1] + 1) // 2)
    known = {(0, i): h for i, h in p.included.items()}
    for (level, i), h in p.siblings.items():
        if level >= len(widths) or not 0 <= i < widths[level]:
            raise IncompleteProofError(f"sibling ({level}, {i}) outside the tree")
        known.setdefault((level, i), h)
    frontier = set(p.included)
    for level, width in enumerate(widths[:-1]):
        frontier = sorted({i // 2 for i in frontier})
        for j in frontier:
            left = known.get((level, 2 * j))
            right = known.get((level, 2 * j + 1)) if 2 * j + 1 < width else left
            if left is None or right is None:
                raise IncompleteProofError(f"missing node at level {level}, pair {j}")
            known[(level + 1, j)] = _h(left + right)
    return known[(len(widths) - 1, 0)]


def _counted_root(p: PartialMerkleTree) -> tuple[bytes, int]:
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(merkle, "hash256", lambda data: calls.append(data) or _h(data))
        return merkle.partial_root(p), len(calls)


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
    shuffled = PartialMerkleTree(n, {i: partial.included[i] for i in order}, partial.siblings)
    assert _counted_root(shuffled) == (build_root(leaves), _path_nodes(n, include))
    assert _reference_walk(shuffled) == build_root(leaves)
    for key in partial.siblings:
        pruned = PartialMerkleTree(n, dict(partial.included),
                                   {k: v for k, v in partial.siblings.items() if k != key})
        with pytest.raises(IncompleteProofError) as info:
            partial_root(pruned)
        with pytest.raises(IncompleteProofError, match=re.escape(str(info.value))):
            _reference_walk(pruned)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(total=st.integers(1, 40),
       leaves=st.dictionaries(st.integers(0, 39), st.binary(min_size=32, max_size=32),
                              min_size=1, max_size=6),
       siblings=st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 40)),
                                st.binary(min_size=32, max_size=32), max_size=8))
def test_partial_root_of_any_tree_is_the_reference_walks(total, leaves, siblings):
    """Any included and sibling entries, redundant and missing ones
    included: the same root, or the same first error, as the reference."""
    leaves = {i: h for i, h in leaves.items() if i < total} or {0: bytes(32)}
    p = PartialMerkleTree(total, leaves, siblings)
    try:
        expected = _reference_walk(p)
    except IncompleteProofError as exc:
        with pytest.raises(IncompleteProofError, match=re.escape(str(exc))):
            partial_root(p)
    else:
        assert partial_root(p) == expected


def _dict_walk(p: PartialMerkleTree) -> bytes:
    """The root walk ``partial_root`` ran before it paired sorted path
    indices: one ``{index: hash}`` dict of path nodes per level, both
    children of every pair looked up there or among the siblings."""
    widths = [p.total_leaves]
    while widths[-1] > 1:
        widths.append((widths[-1] + 1) // 2)
    given: list[dict[int, bytes]] = [{} for _ in widths]
    for (level, idx), h in p.siblings.items():
        if level >= len(widths) or not 0 <= idx < widths[level]:
            raise IncompleteProofError(f"sibling ({level}, {idx}) outside the tree")
        given[level][idx] = h
    nodes = dict(sorted(p.included.items()))
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
    return nodes[0]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n=st.integers(1, 40),
       edit=st.sampled_from(["none", "drop", "outside", "on-path", "junk"]))
def test_partial_root_pairs_sorted_paths_as_the_dict_walk_does(data, n, edit):
    """Real partial trees over any width, odd ones and a single leaf
    included, given whole, with one sibling dropped, with a sibling
    outside the tree, with a sibling where a path node is, or with a
    stray sibling anywhere: ``partial_root`` returns the dict walk's
    root, or raises its first error, word for word."""
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    leaves = _leaves(rng, n)
    include = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    partial = extract_partial(leaves, include)
    siblings = dict(partial.siblings)
    widths = [n]
    while widths[-1] > 1:
        widths.append((widths[-1] + 1) // 2)
    if edit == "drop" and siblings:
        del siblings[data.draw(st.sampled_from(sorted(siblings)))]
    elif edit == "outside":
        level = data.draw(st.integers(0, len(widths)))
        idx = widths[level] if level < len(widths) else 0
        siblings[(level, idx)] = rng.randbytes(32)
    elif edit == "on-path":
        level = data.draw(st.integers(0, len(widths) - 1))
        paths = {i >> level for i in include}
        siblings[(level, data.draw(st.sampled_from(sorted(paths))))] = rng.randbytes(32)
    elif edit == "junk":
        level = data.draw(st.integers(0, len(widths) - 1))
        siblings[(level, data.draw(st.integers(0, widths[level] - 1)))] = rng.randbytes(32)
    p = PartialMerkleTree(n, dict(partial.included), siblings)
    try:
        expected = _dict_walk(p)
    except IncompleteProofError as exc:
        with pytest.raises(IncompleteProofError, match=re.escape(str(exc))):
            partial_root(p)
    else:
        assert partial_root(p) == expected
        if edit in ("none", "on-path"):
            assert expected == build_root(leaves)


def test_a_sibling_given_where_the_paths_reach_is_ignored():
    """A sibling placed on an included leaf, or on a node the included
    leaves hash to, never replaces that node, left or right of its pair."""
    rng = random.Random(23)
    leaves = _leaves(rng, 8)
    for include in ({0, 1}, {2, 3, 6}, {5}):
        partial = extract_partial(leaves, include)
        for level, idx in [(0, i) for i in include] + [(1, i // 2) for i in include]:
            junk = PartialMerkleTree(8, dict(partial.included),
                                     {**partial.siblings, (level, idx): _h(b"junk")})
            assert partial_root(junk) == _reference_walk(junk) == build_root(leaves)
