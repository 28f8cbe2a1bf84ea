"""Binary Merkle trees with partial (multi-leaf) proofs.

Parents are ``hash256(left || right)``. A layer with an odd number of
nodes pairs its last node with itself. A single leaf is its own root,
with no hashing step.

A partial tree carries a subset of leaves plus the minimal set of
sibling hashes needed to rebuild the root: a sibling is included only if
it cannot be derived from the included leaves themselves. Updating
included leaves keeps every sibling valid, which is what lets a verifier
patch a few shard hashes and recompute the root without the full tree.

Wire layout::

    total_leaves(u32)
    included: count(u16), then per entry index(u32) hash(32), in
              strictly increasing index order
    siblings: count(u16), then per entry level(u8) index(u32) hash(32),
              in strictly increasing (level, index) order
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

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
        layer = levels[-1]
        parents = []
        for i in range(0, len(layer), 2):
            left = layer[i]
            right = layer[i + 1] if i + 1 < len(layer) else left
            parents.append(hash256(left + right))
        levels.append(parents)
    return levels


def build_root(leaves: list[bytes]) -> bytes:
    return build_levels(leaves)[-1][0]


def pack_levels(leaves: list[bytes]) -> list[bytearray]:
    """build_levels with each level packed into one buffer of 32-byte nodes."""
    return [bytearray(b"".join(level)) for level in build_levels(leaves)]


def update_levels(levels: list[bytearray], changed: dict[int, bytes]) -> None:
    """Set leaves of packed ``levels`` (from pack_levels over a power of
    two leaves) in place and re-hash only the nodes on their paths."""
    for i, leaf in changed.items():
        levels[0][32 * i:32 * i + 32] = leaf
    frontier = set(changed)
    for below, layer in zip(levels, levels[1:]):
        frontier = {i >> 1 for i in frontier}
        for j in frontier:
            layer[32 * j:32 * j + 32] = hash256(below[64 * j:64 * j + 64])


@dataclass(frozen=True)
class PartialMerkleTree:
    total_leaves: int
    included: dict[int, bytes]          # leaf index -> leaf hash
    siblings: dict[tuple[int, int], bytes]  # (level, index) -> node hash

    def __post_init__(self):
        if self.total_leaves <= 0:
            raise ValueError("partial tree over zero leaves")
        if not self.included:
            raise ValueError("partial tree must include at least one leaf")
        for idx in self.included:
            if not 0 <= idx < self.total_leaves:
                raise ValueError(f"included leaf index {idx} out of range")


def extract_partial(leaves: list[bytes], include: set[int]) -> PartialMerkleTree:
    """Build a partial tree proving the leaves at ``include``."""
    return partial_from_levels(pack_levels(leaves), include)


def partial_from_levels(levels: list[bytearray], include: set[int]) -> PartialMerkleTree:
    """A partial tree proving the leaves at ``include``, read from packed
    ``levels`` (as pack_levels builds them) without hashing.

    The sibling set is minimal: per level, only nodes adjacent to the
    proven paths that the included leaves cannot reproduce. An empty or
    out-of-range ``include`` is the tree's ValueError.
    """
    n = len(levels[0]) // 32
    siblings: dict[tuple[int, int], bytes] = {}
    frontier = set(include)
    for level, layer in enumerate(levels[:-1]):
        width = len(layer) // 32
        for i in frontier:
            sib = i ^ 1
            if sib < width and sib not in frontier:
                siblings[(level, sib)] = bytes(layer[32 * sib:32 * sib + 32])
        frontier = {i // 2 for i in frontier}
    return PartialMerkleTree(
        total_leaves=n,
        included={i: bytes(levels[0][32 * i:32 * i + 32]) for i in include},
        siblings=siblings,
    )


def partial_root(p: PartialMerkleTree) -> bytes:
    """Recompute the root from included leaves plus siblings.

    Raises IncompleteProofError if a needed node is neither included,
    provided as a sibling, nor an odd-layer self-pair.

    The walk keeps, per level, the sorted indices the proof's paths reach
    there and their hashes, and pairs each with its neighbour: the next
    path node if that is its pair, else a sibling. A node of the paths
    wins over a sibling given at the same place.
    """
    widths = _layer_widths(p.total_leaves)
    given: list[dict[int, bytes]] = [{} for _ in widths]
    for (level, idx), h in p.siblings.items():
        if level >= len(widths) or not 0 <= idx < widths[level]:
            raise IncompleteProofError(f"sibling ({level}, {idx}) outside the tree")
        given[level][idx] = h

    indices = sorted(p.included)
    hashes = [p.included[i] for i in indices]
    for level, width in enumerate(widths[:-1]):
        siblings = given[level]
        parents: list[int] = []
        parent_hashes: list[bytes] = []
        n, at = len(indices), 0
        while at < n:
            i = indices[at]
            if i & 1:  # a right node whose left is off the paths
                left, right = siblings.get(i - 1), hashes[at]
                at += 1
            elif at + 1 < n and indices[at + 1] == i + 1:
                left, right = hashes[at], hashes[at + 1]
                at += 2
            else:  # a left node: its right is a sibling, or itself at an odd layer's end
                left = hashes[at]
                right = siblings.get(i + 1) if i + 1 < width else left
                at += 1
            if left is None or right is None:
                raise IncompleteProofError(f"missing node at level {level}, pair {i >> 1}")
            parents.append(i >> 1)
            parent_hashes.append(hash256(left + right))
        indices, hashes = parents, parent_hashes
    return hashes[0]


def contains(p: PartialMerkleTree, leaf_hash: bytes) -> bool:
    """Is ``leaf_hash`` one of the included leaves?"""
    return leaf_hash in p.included.values()


def encode_partial(p: PartialMerkleTree) -> bytes:
    parts = [struct.pack("<IH", p.total_leaves, len(p.included))]
    for idx in sorted(p.included):
        parts.append(struct.pack("<I", idx) + p.included[idx])
    parts.append(struct.pack("<H", len(p.siblings)))
    for level, idx in sorted(p.siblings):
        parts.append(struct.pack("<BI", level, idx) + p.siblings[(level, idx)])
    return b"".join(parts)


_INCLUDED = struct.Struct("<I32s")   # index, hash
_SIBLING = struct.Struct("<BI32s")   # level, index, hash


def read_partial(r: Reader) -> PartialMerkleTree:
    """Decode a partial tree from a reader positioned at its first byte.
    Each run of entries is taken whole and unpacked in one pass; entries
    must come in the encoder's strictly increasing order, so only the
    one canonical encoding of a tree decodes."""
    total = r.u32()
    start = r.offset + 2
    run = r.take(_INCLUDED.size * r.u16())
    included = {}
    last = -1
    for n, (idx, h) in enumerate(_INCLUDED.iter_unpack(run)):
        if idx <= last:
            raise DecodeError("included leaves not strictly increasing",
                              start + n * _INCLUDED.size)
        included[idx] = h
        last = idx
    start = r.offset + 2
    run = r.take(_SIBLING.size * r.u16())
    siblings = {}
    last_pos = (-1, -1)
    for n, (level, idx, h) in enumerate(_SIBLING.iter_unpack(run)):
        pos = (level, idx)
        if pos <= last_pos:
            raise DecodeError("siblings not strictly increasing",
                              start + n * _SIBLING.size)
        siblings[pos] = h
        last_pos = pos
    try:
        return PartialMerkleTree(total_leaves=total, included=included, siblings=siblings)
    except ValueError as exc:
        raise DecodeError(str(exc), r.offset) from exc
