"""Binary Merkle trees with partial (multi-leaf) proofs, and the
txid-prefix trie that commits the UTXO shards.

Parents are ``hash256(left || right)``. A layer with an odd number of
nodes pairs its last node with itself. A single leaf is its own root,
with no hashing step.

A partial tree carries only what its verifier cannot compute: the tree's
leaf count and the minimal set of sibling hashes needed to rebuild the
root from the proven leaves, which the verifier hashes itself from the
data they commit to. A sibling is included only if it cannot be derived
from the proven leaves. Updating proven leaves keeps every sibling
valid, which is what lets a verifier patch a few shard hashes and
recompute the root without the full tree.

Siblings come level by level, leaves first, and in increasing index
order within a level: the order the root walk reads them, so they need
no positions. Only the one minimal proof of a leaf set reaches a root.

Wire layout::

    total_leaves(u32) count(u16) count * hash(32)

The shard trie (:func:`trie_walk`) is a binary tree whose leaves sit at
any depth up to 32, numbered heap-style: the root is 1 and node n has
children 2n and 2n+1. A leaf hashes as ``hash256(0x00 || bytes)`` and an
inner node as ``hash256(0x01 || left || right)`` (RFC 6962 section 2.1),
so no leaf's bytes can pose as two child hashes at any depth.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .chain import Reader
from .crypto import hash256
from .errors import DecodeError, IncompleteProofError


def _layer_widths(n: int) -> list[int]:
    """Node counts per level, leaves first. [5] -> [5, 3, 2, 1]."""
    widths = [n]
    while widths[-1] > 1:
        widths.append((widths[-1] + 1) // 2)
    return widths


def build_levels(leaves: list[bytes]) -> list[list[bytes]]:
    """All tree levels, leaves first, root level last."""
    if not leaves:
        raise ValueError("cannot build a tree with no leaves")
    levels = [list(leaves)]
    while len(levels[-1]) > 1:
        levels.append(_parents(levels[-1]))
    return levels


def _parents(layer: list[bytes]) -> list[bytes]:
    """The level above ``layer``, hashed left to right; an odd layer's
    last node is paired with itself."""
    if len(layer) & 1:
        layer = layer + layer[-1:]
    return [hash256(left + right) for left, right in zip(layer[0::2], layer[1::2])]


def build_root(leaves: list[bytes]) -> bytes:
    return build_levels(leaves)[-1][0]


def pack_levels(leaves: list[bytes]) -> list[bytearray]:
    """build_levels with each level packed into one buffer of 32-byte nodes."""
    return [bytearray(b"".join(level)) for level in build_levels(leaves)]


@dataclass(frozen=True)
class PartialMerkleTree:
    total_leaves: int
    siblings: tuple[bytes, ...]  # in the order partial_root reads them

    def __post_init__(self):
        if self.total_leaves <= 0:
            raise ValueError("partial tree over zero leaves")


def extract_partial(leaves: list[bytes], include: set[int]) -> PartialMerkleTree:
    """Build a partial tree proving the leaves at ``include``."""
    return partial_from_levels(pack_levels(leaves), include)


def partial_from_levels(levels: list[bytearray], include: set[int]) -> PartialMerkleTree:
    """A partial tree proving the leaves at ``include``, read from packed
    ``levels`` (as pack_levels builds them) without hashing.

    The sibling set is minimal: per level, only nodes adjacent to the
    proven paths that the proven leaves cannot reproduce, in increasing
    index order. An empty or out-of-range ``include`` is a ValueError.
    """
    n = len(levels[0]) // 32
    if not include or min(include) < 0 or max(include) >= n:
        raise ValueError(f"cannot prove leaves {sorted(include)} of a tree of {n}")
    siblings: list[bytes] = []
    frontier = set(include)
    for layer in levels[:-1]:
        width = len(layer) // 32
        for i in sorted(frontier):
            sib = i ^ 1
            if sib < width and sib not in frontier:
                siblings.append(bytes(layer[32 * sib:32 * sib + 32]))
        frontier = {i >> 1 for i in frontier}
    return PartialMerkleTree(total_leaves=n, siblings=tuple(siblings))


def partial_root(p: PartialMerkleTree, leaves: dict[int, bytes]) -> bytes:
    """Recompute the root from ``leaves`` (leaf index -> leaf hash), which
    the caller computed itself, plus the proof's siblings.

    Raises IncompleteProofError if ``leaves`` is empty, an index lies
    outside the tree, a needed node is neither a path node, the next
    sibling nor an odd-layer self-pair, or a sibling is left unread.

    The walk keeps, per level, the sorted indices the proof's paths reach
    there and their hashes, and pairs each with its neighbour: the next
    path node if that is its pair, else the next sibling.
    """
    if not leaves:
        raise IncompleteProofError("no leaf to prove")
    indices = sorted(leaves)
    if indices[0] < 0 or indices[-1] >= p.total_leaves:
        raise IncompleteProofError(f"leaf outside a tree of {p.total_leaves}")
    hashes = [leaves[i] for i in indices]
    given = iter(p.siblings)
    for level, width in enumerate(_layer_widths(p.total_leaves)[:-1]):
        parents: list[int] = []
        parent_hashes: list[bytes] = []
        n, at = len(indices), 0
        while at < n:
            i = indices[at]
            if i & 1:  # a right node whose left is off the paths
                left, right = next(given, None), hashes[at]
                at += 1
            elif at + 1 < n and indices[at + 1] == i + 1:
                left, right = hashes[at], hashes[at + 1]
                at += 2
            else:  # a left node: its right is a sibling, or itself at an odd layer's end
                left = hashes[at]
                right = next(given, None) if i + 1 < width else left
                at += 1
            if left is None or right is None:
                raise IncompleteProofError(f"missing node at level {level}, pair {i >> 1}")
            parents.append(i >> 1)
            parent_hashes.append(hash256(left + right))
        indices, hashes = parents, parent_hashes
    if next(given, None) is not None:
        raise IncompleteProofError("a sibling is left unread")
    return hashes[0]


def trie_leaf(data: bytes) -> bytes:
    """A trie leaf's hash, from the bytes it holds."""
    return hash256(b"\x00" + data)


def trie_walk(held: Mapping[int, bytes], sibling: Callable[[int], bytes | None]) -> dict[int, bytes]:
    """Every node hash on the paths from the ``held`` nodes (id -> hash)
    up to the root, the held ones included; nothing for no node.

    The walk goes one level at a time, deepest first: each level's held
    ids merge with the parents reached from below, largest first. A node
    pairs with its sibling if that sibling is in the level; if not, it
    takes ``sibling(id)``, asked in walk order. A verifier reads the
    sibling from a proof, and a store from its node hashes. Raises
    IncompleteProofError for an id outside depths 0-32, a held id that
    is an ancestor of another, or a sibling ``sibling`` lacks (None).
    """
    if held and not (min(held) > 0 and max(held) >> 33 == 0):
        raise IncompleteProofError("node id outside the trie")
    nodes = dict(held)
    by_level: dict[int, list[int]] = {}  # id bit length (depth + 1) -> held ids
    for i in nodes:
        by_level.setdefault(i.bit_length(), []).append(i)
    reached: list[int] = []  # the parents reached from the level below, largest first
    for level in range(max(by_level, default=1), 1, -1):
        ids = by_level.get(level)
        ids = sorted(ids + reached, reverse=True) if ids else reached
        reached = []
        n, at = len(ids), 0
        while at < n:
            i = ids[at]
            at += 1
            if i & 1 and at < n and ids[at] == i - 1:  # its left sibling is in the level
                left, right = nodes[i - 1], nodes[i]
                at += 1
            else:
                other = sibling(i ^ 1)
                if other is None:
                    raise IncompleteProofError(f"missing sibling of node {i}")
                left, right = (other, nodes[i]) if i & 1 else (nodes[i], other)
            i >>= 1
            if i in nodes:
                raise IncompleteProofError(f"node {i} is both held and reached")
            nodes[i] = hash256(b"\x01" + left + right)
            reached.append(i)
    return nodes


def trie_root(held: Mapping[int, bytes], siblings: Sequence[bytes]) -> bytes:
    """The root a proof reaches: :func:`trie_walk` over ``held`` reading
    ``siblings`` in order, every one of them. IncompleteProofError if
    ``held`` is empty or a sibling is missing or left unread."""
    if not held:
        raise IncompleteProofError("no leaf to prove")
    given = iter(siblings)
    root = trie_walk(held, lambda _: next(given, None))[1]
    if next(given, None) is not None:
        raise IncompleteProofError("a sibling is left unread")
    return root


def encode_partial(p: PartialMerkleTree) -> bytes:
    return struct.pack("<IH", p.total_leaves, len(p.siblings)) + b"".join(p.siblings)


def read_partial(r: Reader) -> PartialMerkleTree:
    """Decode a partial tree from a reader positioned at its first byte.
    The sibling run is taken whole; a count past the input's end is a
    DecodeError before anything is allocated for it."""
    total = r.u32()
    run = r.take(32 * r.u16())
    try:
        return PartialMerkleTree(total_leaves=total,
                                 siblings=tuple(run[i:i + 32] for i in range(0, len(run), 32)))
    except ValueError as exc:
        raise DecodeError(str(exc), r.offset) from exc
