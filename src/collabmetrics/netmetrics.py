"""Supply-side and demand-side network metrics.

The supply side is an undirected collaboration graph over creators; the
demand side is a commenter-to-creator bipartite attention graph. Closeness
centrality has one convention, the component-scaled one that networkx's
``wf_improved`` closeness also uses: for a node in a component of size k
within an n-node graph,

    closeness = ((k - 1) / (n - 1)) * ((k - 1) / sum_of_distances)

over unweighted shortest paths within the component, so isolated nodes
score exactly 0 instead of being dropped. The distances come from a
bit-parallel BFS (Akiba, Iwata & Yoshida, SIGMOD 2013, section 4): one
Python int per node carries one bit per source, so all n sources cost
about levels * 2m * n / 64 word operations. The reach counts and distance
sums are exact integers, so the floats equal those of a per-source BFS.

Commenter diversity is Shannon entropy in bits over the commenter's
distribution of comments across channels. It is one fold over the
attention graph's sorted ``(author, channel)`` keys, which visits each
commenter's channels in order without a per-commenter mapping, so its
transient memory is one list of key references.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import compress, groupby
from operator import itemgetter
from statistics import median
from typing import Iterable, Mapping, Sequence

from collabmetrics.collab import CollaborationDyad
from collabmetrics.corpus import CommentTable, VideoRecord, VideoTable

__all__ = [
    "CollabGraph",
    "AttentionGraph",
    "CentralitySummary",
    "AttributeCentrality",
    "build_collab_graph",
    "closeness",
    "build_attention_graph",
    "commenter_entropy",
    "entropy_cdf",
]

logger = logging.getLogger(__name__)

# Sources per bit-parallel BFS pass in closeness. Each node holds up to
# three ints of this many bits, so memory stays near 3 * n * _SOURCE_BLOCK / 8
# bytes on any graph.
_SOURCE_BLOCK = 4096


@dataclass(frozen=True)
class CollabGraph:
    """Undirected creator graph; edge weight counts collaboration videos."""

    nodes: frozenset[str]
    edges: Mapping[tuple[str, str], int]  # keys are sorted pairs

    def adjacency(self) -> dict[str, list[str]]:
        adj: dict[str, list[str]] = {node: [] for node in self.nodes}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj


@dataclass(frozen=True)
class AttentionGraph:
    """Bipartite commenter-to-channel graph weighted by comment count."""

    commenters: frozenset[str]
    weights: Mapping[tuple[str, str], int]  # (author_id, channel_id) -> comments


@dataclass(frozen=True)
class AttributeCentrality:
    median: float
    values: tuple[float, ...]


@dataclass(frozen=True)
class CentralitySummary:
    closeness: Mapping[str, float]
    by_attribute: Mapping[str, AttributeCentrality]


def build_collab_graph(dyads: Sequence[CollaborationDyad], channel_ids: Iterable[str]) -> CollabGraph:
    """Merge ordered dyads into an undirected weighted graph.

    (A, B) and (B, A) collapse into one edge whose weight sums their video
    counts. The registry's channel ids are the node set, so channels
    without dyads stay as isolated nodes.
    """
    nodes = frozenset(channel_ids)
    edges: dict[tuple[str, str], int] = {}
    for dyad in dyads:
        key = (dyad.host, dyad.guest) if dyad.host < dyad.guest else (dyad.guest, dyad.host)
        edges[key] = edges.get(key, 0) + len(dyad.videos)
    return CollabGraph(nodes=nodes, edges=edges)


def _reach(neighbours: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """Per node: how many nodes it reaches, itself included, and their distance sum.

    Bit-parallel BFS over blocks of ``_SOURCE_BLOCK`` sources: bit s of a
    node's ``seen`` int means source s has reached it. A level step ORs the
    neighbours' frontier ints and masks out the bits already seen. Distances
    are symmetric, so the sources that first reach v at level d are exactly
    the nodes at distance d from v, and the new bits count straight into v's
    own totals.
    """
    n = len(neighbours)
    reach = [1] * n
    dist_sum = [0] * n
    linked = [v for v in range(n) if neighbours[v]]
    for first in range(0, n, _SOURCE_BLOCK):
        frontier = [0] * n
        for s in range(first, min(first + _SOURCE_BLOCK, n)):
            frontier[s] = 1 << (s - first)
        seen = frontier[:]
        level = 0
        while any(frontier):
            level += 1
            nxt = [0] * n
            for v in linked:
                acc = 0
                for u in neighbours[v]:
                    acc |= frontier[u]
                acc &= ~seen[v]
                if acc:
                    nxt[v] = acc
                    seen[v] |= acc
                    found = acc.bit_count()
                    reach[v] += found
                    dist_sum[v] += level * found
            frontier = nxt
    return reach, dist_sum


def closeness(graph: CollabGraph, attributes: Mapping[str, str] | None = None) -> CentralitySummary:
    """Closeness per node by the module's component-scaled formula, optionally grouped by attribute.

    Shortest paths are unweighted (edge weights are collaboration counts,
    metadata only). Values lie in [0, 1]; isolated nodes score 0.
    """
    nodes = sorted(graph.nodes)
    n = len(nodes)
    index = {node: i for i, node in enumerate(nodes)}
    neighbours: list[list[int]] = [[] for _ in nodes]
    for a, b in graph.edges:
        neighbours[index[a]].append(index[b])
        neighbours[index[b]].append(index[a])
    reach, dist_sum = _reach(neighbours)
    values: dict[str, float] = {}
    for i, node in enumerate(nodes):
        k, total = reach[i], dist_sum[i]
        if n <= 1 or k <= 1 or total == 0:
            values[node] = 0.0
        else:
            values[node] = ((k - 1) / (n - 1)) * ((k - 1) / total)
    by_attribute: dict[str, AttributeCentrality] = {}
    if attributes:
        grouped: dict[str, list[float]] = {}
        for node, value in values.items():
            attr = attributes.get(node)
            if attr is not None:
                grouped.setdefault(attr, []).append(value)
        by_attribute = {
            attr: AttributeCentrality(float(median(vals)), tuple(sorted(vals)))
            for attr, vals in sorted(grouped.items())
        }
    return CentralitySummary(closeness=values, by_attribute=by_attribute)


def build_attention_graph(
    videos: VideoTable | Iterable[VideoRecord],
    comments: CommentTable,
    min_comments: int = 1,
) -> AttentionGraph:
    """Bipartite graph of direct commenter-to-channel interactions.

    Every comment counts (raw comment frequency, not distinct videos); a
    comment on a video missing from ``videos`` counts nowhere. Each
    comment on a known video is counted as its ``(author, channel)`` pair
    by one ``Counter`` over the zipped columns, in C. ``min_comments``
    optionally drops low-activity commenters; the default keeps everyone.
    """
    videos = VideoTable.of(videos)
    owner = dict(zip(videos.video_ids, videos.channel_ids))
    video_ids, author_ids = comments.video_ids, comments.author_ids
    weights: Mapping[tuple[str, str], int] = Counter(
        compress(zip(author_ids, map(owner.get, video_ids)), map(owner.__contains__, video_ids))
    )
    if min_comments > 1:
        totals = Counter(compress(author_ids, map(owner.__contains__, video_ids)))
        keep = frozenset(a for a, t in totals.items() if t >= min_comments)
        weights = {k: w for k, w in weights.items() if k[0] in keep}
    else:
        keep = frozenset(map(itemgetter(0), weights))
    return AttentionGraph(commenters=keep, weights=weights)


def commenter_entropy(attention: AttentionGraph) -> dict[str, float]:
    """Shannon entropy in bits of each commenter's attention distribution, by ``author_id``.

    p(x) is the commenter's comment share toward channel x; H = -sum p log2 p
    with the 0 log 0 := 0 convention. A commenter loyal to one channel
    scores exactly 0.
    """
    weights = attention.weights
    entropy: dict[str, float] = {}
    for author, keys in groupby(sorted(weights), key=itemgetter(0)):
        counts = [weights[key] for key in keys]
        total = sum(counts)
        if total == 0:
            continue
        h = 0.0
        for w in counts:
            if w == 0:
                continue
            p = w / total
            h -= p * math.log2(p)
        entropy[author] = max(h, 0.0)
    return entropy


def entropy_cdf(
    entropy: Mapping[str, float], grid: Sequence[float] | None = None
) -> list[tuple[float, float]]:
    """Cumulative fraction of commenters with entropy <= each threshold.

    With no grid, the sorted unique entropy values are used (the empirical
    CDF). Fractions are nondecreasing in [0, 1] and reach 1 once the grid
    covers the maximum entropy. An empty distribution yields an empty CDF.
    """
    values = sorted(entropy.values())
    if not values:
        logger.warning("entropy distribution is empty; emitting empty CDF")
        return []
    thresholds = sorted(set(grid)) if grid is not None else sorted(set(values))
    return [(t, bisect_right(values, t) / len(values)) for t in thresholds]
