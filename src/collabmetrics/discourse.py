"""Comment sentiment scoring and topic tagging, aggregated by dyad type.

The unit of this layer is one comment's token list: the lowercased text's
maximal runs of letters a-z, digits and inner apostrophes. A report
tokenises each comment once, a chunk of ``CHUNK`` comments at a time
(:func:`aggregate_discourse`), hands the same lists to the sentiment
scorer and the topic classifier, and keeps only counts, so no stage holds
every comment's tokens, score or label. Both stages sit behind small
token-level interfaces, so another scorer or classifier over the same
tokens, or labels precomputed out-of-band, can be plugged in without
touching the aggregation. The
bundled defaults are deterministic: a valence-lexicon scorer with
negation/booster rules and a keyword-rule topic classifier over the fixed
five-category schema.
"""

from __future__ import annotations

import math
import re
import sys
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import filterfalse, repeat
from pathlib import Path
from typing import Collection, Iterable, Mapping, Protocol, Sequence

from collabmetrics.collab import CollaborationDyad
from collabmetrics.corpus import CHUNK, CommentTable, Corpus, _text, load_rows
from collabmetrics.errors import ConfigurationError, ValidationError

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
    "tokenize",
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

# A lexicon hit with none of these in its window keeps its valence as it is.
_MODIFIERS = BOOSTERS | NEGATORS

# A token is a maximal run of letters a-z, digits and apostrophes in the
# lowercased text, with the apostrophes at its ends trimmed; apostrophes
# alone make no token.
_TOKEN_RE = re.compile(r"[a-z0-9]+(?:'+[a-z0-9]+)*")


def tokenize(text: str) -> list[str]:
    """One comment's tokens, as the scorer and the classifier take them."""
    return _TOKEN_RE.findall(text.lower())


class SentimentScorer(Protocol):
    def score(self, tokens: Sequence[str]) -> float: ...


class TopicClassifier(Protocol):
    def classify(self, tokens: Sequence[str]) -> str: ...


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
    """Deterministic valence-lexicon scorer over one comment's tokens.

    For each lexicon token: each booster token among the 3 preceding
    tokens adds 0.293 toward the token's valence sign (so "very very good"
    adds two steps), then any negator within the same window multiplies
    the result by -0.74. Token contributions are summed and squashed to
    (-1, 1) via ``s / sqrt(s^2 + 15)``; tokens with no lexicon hits score 0.
    """

    def __init__(self, lexicon: Mapping[str, float] | None = None):
        self.lexicon = dict(lexicon) if lexicon is not None else _bundled_lexicon()

    def score(self, tokens: Sequence[str]) -> float:
        lexicon = self.lexicon
        if lexicon.keys().isdisjoint(tokens):
            return 0.0
        total = 0.0
        if _MODIFIERS.isdisjoint(tokens):
            for valence in map(lexicon.get, tokens):
                if valence is not None:
                    total += valence
        else:
            for i, valence in enumerate(map(lexicon.get, tokens)):
                if valence is None:
                    continue
                window = tokens[max(0, i - CONTEXT_WINDOW):i]
                if not _MODIFIERS.isdisjoint(window):
                    boosters = sum(map(BOOSTERS.__contains__, window))
                    sign = 1.0 if valence > 0 else -1.0
                    valence = valence + sign * BOOSTER_STEP * boosters
                    if not NEGATORS.isdisjoint(window):
                        valence *= NEGATION_SCALAR
                total += valence
        if total == 0.0:
            return 0.0
        normalized = total / (total * total + NORMALIZATION_ALPHA) ** 0.5
        if -1.0 <= normalized <= 1.0:
            return normalized
        # Out of range, or NaN (which ``min`` turns into 1.0).
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

    def classify(self, tokens: Sequence[str]) -> str:
        found = list(filter(None, map(self._positions.get, tokens)))
        if not found:
            return "other"
        if len(found) == 1 and len(found[0]) == 1:  # one keyword, of one category
            return self._topics[found[0][0]]
        hits = [0] * len(self._topics)
        for ids in found:
            for i in ids:
                hits[i] += 1
        # ``max`` keeps the first of equal counts, so ties go by schema order.
        return self._topics[max(range(len(hits)), key=hits.__getitem__)]


def score_comments(
    comments: Iterable[Sequence[str]], scorer: SentimentScorer | None = None
) -> array:
    """Compound sentiment of each comment's tokens, in order (default: bundled lexicon).

    A score that is infinite or NaN raises :class:`ValidationError` naming the scorer.
    """
    scorer = scorer or LexiconSentimentScorer()
    scores = array("d", map(scorer.score, comments))
    bad = next(filterfalse(math.isfinite, scores), None)  # one C-level pass over the chunk
    if bad is not None:
        raise ValidationError(f"sentiment scorer {type(scorer).__name__} returned {bad!r}; scores must be finite")
    return scores


def label_comments(
    comments: Iterable[Sequence[str]], classifier: TopicClassifier | None = None
) -> list[str]:
    """Topic label of each comment's tokens, in order (default: bundled keywords)."""
    return list(map((classifier or KeywordTopicClassifier()).classify, comments))


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


def _sqrt_of_ratio(num: int, den: int) -> float:
    """The square root of ``num / den`` (``num >= 0 < den``, in lowest terms), rounded as ``statistics.pstdev`` rounds it.

    Python 3.10 rounds the ratio to a float and takes ``math.sqrt``. Later
    versions round the exact root once: the integer root of the ratio over
    ``4**q``, about 55 bits, gets its last bit set when inexact (round to
    odd), and only scaling it by ``2**q`` rounds it to a float.
    """
    if sys.version_info < (3, 11):
        return math.sqrt(num / den)
    q = (num.bit_length() - den.bit_length() - 2 * sys.float_info.mant_dig - 3) // 2
    if q >= 0:
        den <<= 2 * q
    else:
        num <<= -2 * q
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return float(root << q) if q >= 0 else root / (1 << -q)


def _make_row(group: str, scores: Mapping[float, int], labels: Mapping[str, int], categories: Sequence[str]) -> DiscourseRow:
    """A group's row from the counts of its distinct scores and of its labels.

    Exact integer sums over one power-of-two denominator give
    ``statistics.pstdev`` and ``statistics.fmean`` bit for bit: the mean
    ``sx / scale / n`` is ``fsum(data) / n``, as an int/int division rounds
    correctly. Only where ``fsum`` overflows on the way to a sum in range
    (``[1e308, 1e308, -1.7e308]``) does ``fmean`` raise and this mean not.
    Every score is finite: :func:`score_comments` refuses any other.
    """
    ratios = [(value.as_integer_ratio(), count) for value, count in scores.items()]
    scale = max(den for (_, den), _ in ratios)  # a power of two that every denominator divides
    n = sx = sxx = 0
    for (num, den), count in ratios:
        x = num * (scale // den)
        n += count
        sx += count * x
        sxx += count * x * x
    # The population variance is (n * sxx - sx**2) / (n * scale)**2.
    num, den = n * sxx - sx * sx, (n * scale) ** 2
    g = math.gcd(num, den)
    return DiscourseRow(
        group=group,
        comment_count=n,
        mean_sentiment=sx / scale / n,
        stdev_sentiment=_sqrt_of_ratio(num // g, den // g),
        topic_proportions={cat: labels.get(cat, 0) / n for cat in categories},
    )


def aggregate_discourse(
    comments: CommentTable,
    dyads: Sequence[CollaborationDyad],
    corpus: Corpus,
    exclude_videos: Collection[str] = (),
    scorer: SentimentScorer | None = None,
    classifier: TopicClassifier | None = None,
    labels: Mapping[str, str] | None = None,
) -> DiscourseReport:
    """Score, label and aggregate the comments' sentiment and topics by dyad type.

    Comments under a dyad's videos feed that dyad type; comments under
    videos in no dyad (and not in ``exclude_videos``, which callers use
    for multi-party collaboration videos) feed the non-collaboration
    baseline. Aggregation weights each comment equally. Dyad types with
    zero comments are omitted rather than zero-filled.

    The comments are read ``CHUNK`` at a time. Each chunk's texts are
    tokenised once, and the token lists go to :func:`score_comments` and
    :func:`label_comments` (default: the bundled scorer and classifier).
    Precomputed ``labels`` (topic label by comment id) replace the
    classifier; a comment they lack raises :class:`ValidationError`. One
    ``Counter`` counts each chunk's (group, score, label) triples in C. An
    empty table still calls each function once.
    """
    # A comment's group is its video's dyad type, None under an excluded
    # video, or "baseline" under any other; a dyad type always holds a hyphen.
    group_of_video: dict[str, str | None] = dict.fromkeys(exclude_videos)
    for dyad in dyads:
        for video_id in dyad.videos:
            group_of_video[video_id] = dyad.dyad_type
    if labels is None:
        classifier = classifier or KeywordTopicClassifier()

    counts: Counter = Counter()
    for start in range(0, len(comments) or 1, CHUNK):
        stop = start + CHUNK
        # ``tokenize`` of each text, without a Python call per text
        tokens = list(map(_TOKEN_RE.findall, map(str.lower, comments.texts[start:stop])))
        scores = score_comments(tokens, scorer)
        if labels is None:
            chunk_labels = label_comments(tokens, classifier)
        else:
            try:
                chunk_labels = list(map(labels.__getitem__, comments.comment_ids[start:stop]))
            except KeyError as exc:
                raise ValidationError(f"comment {exc.args[0]!r} lacks a topic label") from None
        groups = map(group_of_video.get, comments.video_ids[start:stop], repeat("baseline"))
        counts.update(zip(groups, scores, chunk_labels))

    scores_of: defaultdict[str | None, Counter] = defaultdict(Counter)
    labels_of: defaultdict[str | None, Counter] = defaultdict(Counter)
    for (group, score, label), count in counts.items():
        scores_of[group][score] += count
        labels_of[group][label] += count
    observed = set().union(*labels_of.values())

    categories = (
        TOPIC_CATEGORIES
        if observed <= set(TOPIC_CATEGORIES)
        else tuple(sorted(observed | set(TOPIC_CATEGORIES)))
    )

    return DiscourseReport(
        community=corpus.community,
        categories=categories,
        by_dyad_type={
            group: _make_row(group, scores_of[group], labels_of[group], categories)
            for group in sorted(scores_of.keys() - {None, "baseline"})
        },
        baseline=_make_row("baseline", scores_of["baseline"], labels_of["baseline"], categories) if "baseline" in scores_of else None,
    )
