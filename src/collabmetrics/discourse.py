"""Comment sentiment scoring and topic tagging, aggregated by dyad type.

Both stages sit behind small interfaces so an external pipeline (a heavier
sentiment model, a neural topic classifier, or labels precomputed
out-of-band) can be plugged in without touching the aggregation. The
bundled defaults are deterministic: a valence-lexicon scorer with
negation/booster rules and a keyword-rule topic classifier over the fixed
five-category schema.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path
from statistics import fmean, pstdev
from typing import Collection, Iterable, Mapping, Protocol, Sequence

from collabmetrics.collab import CollaborationDyad
from collabmetrics.corpus import CommentRecord, Corpus, _text, load_rows
from collabmetrics.errors import ConfigurationError

__all__ = [
    "TOPIC_CATEGORIES",
    "DiscourseReport",
    "DiscourseRow",
    "SentimentScorer",
    "TopicClassifier",
    "LexiconSentimentScorer",
    "KeywordTopicClassifier",
    "score_comments",
    "label_comments",
    "load_sentiment_lexicon",
    "load_topic_keywords",
    "load_precomputed_labels",
    "aggregate_discourse",
]

TOPIC_CATEGORIES = ("gameplay", "environment", "food", "appearance", "other")

# Scoring constants: negation flips-and-damps, boosters step toward the
# valence sign, and the sum is squashed by s / sqrt(s^2 + alpha).
NEGATION_SCALAR = -0.74
BOOSTER_STEP = 0.293
NORMALIZATION_ALPHA = 15.0
CONTEXT_WINDOW = 3

NEGATORS = frozenset(
    {
        "not", "no", "never", "neither", "nor", "none", "nothing", "nobody",
        "cannot", "cant", "can't", "wont", "won't", "dont", "don't",
        "doesnt", "doesn't", "didnt", "didn't", "isnt", "isn't",
        "aint", "ain't", "arent", "aren't", "wasnt", "wasn't",
        "werent", "weren't", "hardly", "barely", "rarely", "without",
    }
)

BOOSTERS = frozenset(
    {
        "very", "really", "extremely", "absolutely", "incredibly", "so",
        "totally", "super", "completely", "utterly", "insanely", "truly",
        "highly", "seriously", "especially", "remarkably", "unbelievably",
    }
)

# A token is a maximal run of letters a-z, digits and apostrophes in the
# lowercased text, with the apostrophes at its ends trimmed; apostrophes
# alone make no token.
_TOKEN_RE = re.compile(r"[a-z0-9]+(?:'+[a-z0-9]+)*")


def _tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


class SentimentScorer(Protocol):
    def score(self, text: str) -> float: ...


class TopicClassifier(Protocol):
    def classify(self, text: str) -> str: ...


def load_sentiment_lexicon(path: str | Path) -> dict[str, float]:
    """Load a (token, valence) CSV lexicon.

    Raises :class:`ValidationError` naming the line of a malformed row.
    """
    return dict(
        load_rows(path, lambda row: (row["token"].strip().lower(), float(row["valence"])), tabular=True)
    )


def load_topic_keywords(path: str | Path) -> dict[str, frozenset[str]]:
    """Load a (category, token) CSV keyword table.

    Raises :class:`ValidationError` naming the line of a malformed row.
    """
    table: dict[str, set[str]] = {}
    pairs = load_rows(path, lambda row: (row["category"].strip(), row["token"].strip().lower()), tabular=True)
    for category, token in pairs:
        table.setdefault(category, set()).add(token)
    return {cat: frozenset(tokens) for cat, tokens in table.items()}


@lru_cache(maxsize=1)
def _bundled_lexicon() -> dict[str, float]:
    with resources.as_file(resources.files("collabmetrics.data") / "sentiment_lexicon.csv") as path:
        return load_sentiment_lexicon(path)


@lru_cache(maxsize=1)
def _bundled_keywords() -> dict[str, frozenset[str]]:
    with resources.as_file(resources.files("collabmetrics.data") / "topic_keywords.csv") as path:
        return load_topic_keywords(path)


class LexiconSentimentScorer:
    """Deterministic valence-lexicon scorer.

    For each lexicon token: boosters within the 3 preceding tokens add
    0.293 toward the token's valence sign (each booster once), then any
    negator within the same window multiplies the result by -0.74. Token
    contributions are summed and squashed to (-1, 1) via
    ``s / sqrt(s^2 + 15)``; text with no lexicon hits scores 0.
    """

    def __init__(self, lexicon: Mapping[str, float] | None = None):
        self.lexicon = dict(lexicon) if lexicon is not None else _bundled_lexicon()

    def score(self, text: str) -> float:
        if not text:
            return 0.0
        tokens = _tokenize(text)
        total = 0.0
        for i, valence in enumerate(map(self.lexicon.get, tokens)):
            if valence is None:
                continue
            window = tokens[max(0, i - CONTEXT_WINDOW):i]
            boosters = sum(map(BOOSTERS.__contains__, window))
            sign = 1.0 if valence > 0 else -1.0
            adjusted = valence + sign * BOOSTER_STEP * boosters
            if not NEGATORS.isdisjoint(window):
                adjusted *= NEGATION_SCALAR
            total += adjusted
        if total == 0.0:
            return 0.0
        normalized = total / (total * total + NORMALIZATION_ALPHA) ** 0.5
        return max(-1.0, min(1.0, normalized))


class KeywordTopicClassifier:
    """Keyword-count topic classifier over the fixed ``TOPIC_CATEGORIES`` schema.

    The highest-scoring category wins; a comment with no keyword hits
    falls to ``other``. Ties break deterministically by schema order
    (gameplay before environment before food before appearance).
    """

    def __init__(self, keywords: Mapping[str, Collection[str]] | None = None):
        table = keywords if keywords is not None else _bundled_keywords()
        unknown = set(table) - set(TOPIC_CATEGORIES)
        if unknown:
            raise ConfigurationError(f"keyword categories outside schema: {sorted(unknown)}")
        self.keywords = {cat: frozenset(t.lower() for t in table.get(cat, ())) for cat in TOPIC_CATEGORIES}
        self._topics = tuple(cat for cat in TOPIC_CATEGORIES if cat != "other")
        # Each keyword -> the positions in ``_topics`` of the categories it counts for.
        positions: dict[str, list[int]] = {}
        for i, cat in enumerate(self._topics):
            for token in self.keywords[cat]:
                positions.setdefault(token, []).append(i)
        self._positions = {token: tuple(ids) for token, ids in positions.items()}

    def classify(self, text: str) -> str:
        hits = [0] * len(self._topics)
        for ids in map(self._positions.get, _tokenize(text)):
            if ids is not None:
                for i in ids:
                    hits[i] += 1
        best, best_score = "other", 0
        for cat, score in zip(self._topics, hits):
            if score > best_score:
                best, best_score = cat, score
        return best


def score_comments(
    comments: Iterable[CommentRecord], scorer: SentimentScorer | None = None
) -> list[float]:
    """Compound sentiment of each comment, in comment order (default: bundled lexicon)."""
    scorer = scorer or LexiconSentimentScorer()
    return [scorer.score(c.text) for c in comments]


def label_comments(
    comments: Iterable[CommentRecord], classifier: TopicClassifier | None = None
) -> list[str]:
    """Topic label of each comment, in comment order (default: bundled keywords)."""
    classifier = classifier or KeywordTopicClassifier()
    return [classifier.classify(c.text) for c in comments]


def load_precomputed_labels(path: str | Path) -> dict[str, str]:
    """Externally computed topic labels by comment id (JSON-lines: comment_id, label).

    Raises :class:`ValidationError` naming the line of a malformed row.
    """
    return dict(
        load_rows(path, lambda row: (_text(row["comment_id"], "comment_id"), _text(row["label"], "label")), tabular=False)
    )


@dataclass(frozen=True)
class DiscourseRow:
    """One dyad-type (or baseline) row of the discourse report."""

    group: str
    comment_count: int
    mean_sentiment: float
    stdev_sentiment: float
    topic_proportions: Mapping[str, float]


@dataclass(frozen=True)
class DiscourseReport:
    community: str
    categories: tuple[str, ...]
    by_dyad_type: Mapping[str, DiscourseRow]
    baseline: DiscourseRow | None


def _make_row(group: str, scores: list[float], labels: list[str], categories: Sequence[str]) -> DiscourseRow:
    counts = {cat: 0 for cat in categories}
    for label in labels:
        counts[label] += 1
    n = len(labels)
    return DiscourseRow(
        group=group,
        comment_count=n,
        mean_sentiment=fmean(scores),
        stdev_sentiment=pstdev(scores) if n > 1 else 0.0,
        topic_proportions={cat: counts[cat] / n for cat in categories},
    )


def aggregate_discourse(
    comments: Sequence[CommentRecord],
    labels: Sequence[str],
    scores: Sequence[float],
    dyads: Sequence[CollaborationDyad],
    corpus: Corpus,
    exclude_videos: Collection[str] = (),
) -> DiscourseReport:
    """Aggregate per-comment sentiment and topics by dyad type.

    ``labels`` and ``scores`` hold one entry per comment, in comment order.
    Comments under a dyad's videos feed that dyad type; comments under
    videos in no dyad (and not in ``exclude_videos``, which callers use
    for multi-party collaboration videos) feed the non-collaboration
    baseline. Aggregation weights each comment equally. Dyad types with
    zero comments are omitted rather than zero-filled.
    """
    dyad_type_of_video: dict[str, str] = {}
    for dyad in dyads:
        for video_id in dyad.videos:
            dyad_type_of_video[video_id] = dyad.dyad_type

    observed = set(labels)
    categories = (
        TOPIC_CATEGORIES
        if observed <= set(TOPIC_CATEGORIES)
        else tuple(sorted(observed | set(TOPIC_CATEGORIES)))
    )

    excluded = set(exclude_videos)
    grouped_scores: dict[str, list[float]] = {}
    grouped_labels: dict[str, list[str]] = {}
    baseline_scores: list[float] = []
    baseline_labels: list[str] = []
    for comment, score, label in zip(comments, scores, labels, strict=True):
        dyad_type = dyad_type_of_video.get(comment.video_id)
        if dyad_type is not None:
            grouped_scores.setdefault(dyad_type, []).append(score)
            grouped_labels.setdefault(dyad_type, []).append(label)
        elif comment.video_id not in excluded:
            baseline_scores.append(score)
            baseline_labels.append(label)

    by_dyad_type = {
        dyad_type: _make_row(dyad_type, grouped_scores[dyad_type], grouped_labels[dyad_type], categories)
        for dyad_type in sorted(grouped_scores)
    }
    baseline = (
        _make_row("baseline", baseline_scores, baseline_labels, categories)
        if baseline_scores
        else None
    )
    return DiscourseReport(
        community=corpus.community,
        categories=categories,
        by_dyad_type=by_dyad_type,
        baseline=baseline,
    )
