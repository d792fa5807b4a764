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
distribution of comments across channels. The attention graph's weights
are counted as the comments are folded (:class:`AttentionCounts`), so no
comment is held. Entropy is one fold over the graph's sorted
``(author, channel)`` keys, which visits each commenter's channels in order
and yields one commenter at a time; the CDF keeps only how many commenters
have each entropy value, so a report holds no mapping by commenter.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, groupby
from operator import itemgetter
from statistics import median
from typing import Iterable, Iterator, Mapping, Sequence

from collabmetrics.collab import CollaborationDyad
from collabmetrics.corpus import CommentFold

__all__ = [
    "CollabGraph",
    "AttentionGraph",
    "AttentionCounts",
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


class AttentionCounts(CommentFold):
    """The comments per ``(author, channel)`` pair of the comments it takes, a comment's channel
    being its video's owner in ``owner`` (video id to channel id).

    Every comment counts (raw comment frequency, not distinct videos).
    Every comment it takes must be on a video of ``owner``: a caller whose
    comments are not, as when ``max_videos_per_channel`` drops videos,
    filters them first. Each author id is kept as one string, however many
    channels it comments on. Each step is counted by one ``Counter``
    update over the zipped columns, in C.
    """

    def __init__(self, owner: Mapping[str, str]) -> None:
        super().__init__()
        self.owner = owner
        self.authors: dict[str, str] = {}
        self.weights: Counter = Counter()

    def add(self, lines: Sequence[int], columns: Sequence[Sequence]) -> None:
        super().add(lines, columns)
        _, video_ids, author_ids, _ = columns
        authors = map(self.authors.setdefault, author_ids, author_ids)
        self.weights.update(zip(authors, map(self.owner.__getitem__, video_ids)))


def build_attention_graph(
    weights: Mapping[tuple[str, str], int], min_comments: int = 1
) -> AttentionGraph:
    """Bipartite graph of direct commenter-to-channel interactions, from the comments per
    ``(author, channel)`` pair (:class:`AttentionCounts`).

    ``min_comments`` optionally drops low-activity commenters; the default
    keeps everyone, and ``weights`` themselves.
    """
    if min_comments > 1:
        totals: Counter = Counter()
        for (author, _), w in weights.items():
            totals[author] += w
        keep = frozenset(a for a, t in totals.items() if t >= min_comments)
        weights = {k: w for k, w in weights.items() if k[0] in keep}
    else:
        keep = frozenset(map(itemgetter(0), weights))
    return AttentionGraph(commenters=keep, weights=weights)


def commenter_entropy(attention: AttentionGraph) -> Iterator[tuple[str, float]]:
    """Shannon entropy in bits of each commenter's attention distribution, as ``(author_id, entropy)``
    in ``author_id`` order; ``dict`` of them maps each commenter to its entropy.

    p(x) is the commenter's comment share toward channel x; H = -sum p log2 p
    with the 0 log 0 := 0 convention. A commenter loyal to one channel
    scores exactly 0.
    """
    weights = attention.weights
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
        yield author, max(h, 0.0)


def entropy_cdf(
    entropy: Iterable[tuple[str, float]], grid: Sequence[float] | None = None
) -> list[tuple[float, float]]:
    """Cumulative fraction of commenters with entropy <= each threshold.

    ``entropy`` is the ``(author_id, entropy)`` pairs that
    :func:`commenter_entropy` yields (or a mapping's ``items()``); only how
    many commenters have each value is kept, and the fractions come from
    their cumulative counts. With no grid, the sorted distinct values are
    the thresholds (the empirical CDF). Fractions are nondecreasing in
    [0, 1] and reach 1 once the grid covers the maximum entropy. An empty
    distribution yields an empty CDF.
    """
    counts = Counter(map(itemgetter(1), entropy))
    if not counts:
        logger.warning("entropy distribution is empty; emitting empty CDF")
        return []
    values = sorted(counts)
    at_most = list(accumulate(map(counts.__getitem__, values)))  # commenters at or below each value
    n = at_most[-1]
    thresholds = sorted(set(grid)) if grid is not None else values
    return [(t, (at_most[i - 1] if (i := bisect_right(values, t)) else 0) / n) for t in thresholds]
