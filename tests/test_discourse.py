"""Sentiment scorer, topic classifier, and dyad-type aggregation."""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import math
import re
import struct
import tracemalloc
from array import array
from collections import Counter
from fractions import Fraction
from itertools import compress
from statistics import fmean, pstdev

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collabmetrics import discourse
from collabmetrics.collab import CollaborationDyad
from collabmetrics.corpus import CommentTable, build_corpus
from collabmetrics.discourse import (
    BOOSTERS,
    BOOSTER_STEP,
    CHUNK,
    CONTEXT_WINDOW,
    NEGATION_SCALAR,
    NEGATORS,
    NORMALIZATION_ALPHA,
    TOPIC_CATEGORIES,
    KeywordTopicClassifier,
    LexiconSentimentScorer,
    tokenize,
    aggregate_discourse,
    label_comments,
    load_precomputed_labels,
    load_sentiment_lexicon,
    load_topic_keywords,
    score_comments,
)
from collabmetrics.errors import ConfigurationError, ValidationError
from collabmetrics.report import CommunityPipeline, RunConfig, RunStageError, run_report

from .conftest import KeyedScorer, make_channel, make_comment, make_video, write_test_corpus


def score_sentiment(text):
    """Compound sentiment of one text under the default scorer of :func:`score_comments`."""
    (score,) = score_comments([tokenize(text)])
    return score


def tag_topic(text):
    """Topic label of one text under the default classifier of :func:`label_comments`."""
    (label,) = label_comments([tokenize(text)])
    return label


class TestScorer:
    def test_empty_text_scores_zero(self):
        assert score_sentiment("") == 0.0

    def test_single_token_normalization(self):
        scorer = LexiconSentimentScorer({"solid": 2.0})
        assert scorer.score(tokenize("solid")) == pytest.approx(2 / math.sqrt(19), abs=1e-12)

    def test_negation_flips_and_damps(self):
        scorer = LexiconSentimentScorer({"good": 1.9})
        expected = (1.9 * -0.74) / math.sqrt((1.9 * 0.74) ** 2 + 15)
        assert scorer.score(tokenize("not good")) == pytest.approx(expected, abs=1e-9)
        assert scorer.score(tokenize("not good")) == pytest.approx(-0.341, abs=5e-4)

    def test_negation_window_is_three_tokens(self):
        scorer = LexiconSentimentScorer({"good": 1.9})
        assert scorer.score(tokenize("not really that good")) < 0  # negator 3 tokens back
        assert scorer.score(tokenize("not a b c good")) > 0  # negator out of window

    def test_booster_steps_toward_sign(self):
        scorer = LexiconSentimentScorer({"good": 1.9, "bad": -1.9})
        plain = scorer.score(tokenize("good"))
        assert scorer.score(tokenize("very good")) > plain
        assert scorer.score(tokenize("very bad")) < scorer.score(tokenize("bad"))

    def test_bounded_open_interval(self):
        scorer = LexiconSentimentScorer({"love": 3.2})
        text = "love " * 60
        assert -1.0 < scorer.score(tokenize(text)) < 1.0

    def test_no_hits_scores_zero(self):
        assert score_sentiment("the quick brown fox") == 0.0

    def test_deterministic(self):
        text = "really not terrible, actually very good"
        assert score_sentiment(text) == score_sentiment(text)

    def test_custom_lexicon_from_file(self, tmp_path):
        path = tmp_path / "lex.csv"
        path.write_text("token,valence\nzork,2.0\n", encoding="utf-8")
        scorer = LexiconSentimentScorer(load_sentiment_lexicon(path))
        assert scorer.score(tokenize("zork")) == pytest.approx(2 / math.sqrt(19))

    def test_bundled_good_value(self):
        # 'good' carries valence 1.9 in the bundled lexicon
        assert score_sentiment("good") == pytest.approx(1.9 / math.sqrt(1.9**2 + 15), abs=1e-12)


class TestClassifier:
    def test_gameplay_keyword(self):
        assert tag_topic("your aim is insane") == "gameplay"

    def test_empty_text_is_other(self):
        assert tag_topic("") == "other"

    def test_no_keywords_is_other(self):
        assert tag_topic("wow amazing stuff friend") == "other"

    def test_tie_breaks_by_schema_order(self):
        classifier = KeywordTopicClassifier(
            {"gameplay": {"alpha"}, "environment": {"beta"}, "food": set(), "appearance": set()}
        )
        assert classifier.classify(tokenize("alpha beta")) == "gameplay"
        classifier = KeywordTopicClassifier(
            {"gameplay": set(), "environment": {"beta"}, "food": {"gamma"}, "appearance": set()}
        )
        assert classifier.classify(tokenize("gamma beta")) == "environment"

    def test_highest_count_wins(self):
        classifier = KeywordTopicClassifier(
            {"gameplay": {"alpha"}, "environment": {"beta"}}
        )
        assert classifier.classify(tokenize("beta beta alpha")) == "environment"

    def test_unknown_keyword_category_rejected(self):
        with pytest.raises(ConfigurationError):
            KeywordTopicClassifier({"memes": {"lol"}})

    def test_custom_keywords_from_file(self, tmp_path):
        path = tmp_path / "kw.csv"
        path.write_text("category,token\nfood,zorp\n", encoding="utf-8")
        classifier = KeywordTopicClassifier(load_topic_keywords(path))
        assert classifier.classify(tokenize("zorp!")) == "food"

    def test_precomputed_labels_round_trip(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        rows = [
            {"comment_id": "c1", "label": "food", "score": 0.9},
            {"comment_id": "c2", "label": "other"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        assert load_precomputed_labels(path) == {"c1": "food", "c2": "other"}

    def test_deeply_nested_label_row_names_its_line(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text('{"comment_id": "c1", "label": "food"}\n{"label": ' + "[" * 100_000 + "]" * 100_000 + "}\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=r"^labels\.jsonl:2: maximum recursion depth exceeded"):
            load_precomputed_labels(path)

    def test_side_files_are_not_hashed(self, tmp_path, monkeypatch):
        # Only corpus files have digests in the manifest; a labels file is as long as the comments.
        labels, lexicon, keywords = tmp_path / "labels.jsonl", tmp_path / "lex.csv", tmp_path / "kw.csv"
        labels.write_text('{"comment_id": "c1", "label": "food"}\n', encoding="utf-8")
        lexicon.write_text("token,valence\nzorp,2.0\n", encoding="utf-8")
        keywords.write_text("category,token\nfood,zorp\n", encoding="utf-8")

        def refuse(*args, **kwargs):
            raise AssertionError("a side file was hashed")

        monkeypatch.setattr(hashlib, "sha256", refuse)
        assert load_precomputed_labels(labels) == {"c1": "food"}
        assert load_sentiment_lexicon(lexicon) == {"zorp": 2.0}
        assert load_topic_keywords(keywords) == {"food": frozenset({"zorp"})}


class TestAggregate:
    def _fixture(self):
        registry = [
            make_channel("A", "hosta", gender="M"),
            make_channel("B", "guestb", gender="M"),
        ]
        videos = [
            make_video("collab", "A", description="with @guestb"),
            make_video("plain", "A", offset_hours=1),
            make_video("multi", "A", offset_hours=2),
        ]
        comments = CommentTable.from_rows([
            make_comment("c1", "collab", "u1", "c1"),
            make_comment("c2", "collab", "u2", "c2"),
            make_comment("c3", "plain", "u3", "c3"),
            make_comment("c4", "multi", "u4", "c4"),
        ])
        corpus = build_corpus(registry, videos, comments)
        dyads = [CollaborationDyad("A", "B", ("collab",), "M-M")]
        return corpus, dyads

    def _run(self, scores_by_id, labels_by_id, exclude=()):
        """The report with each comment's score and label injected; a comment's text is its id."""
        corpus, dyads = self._fixture()
        return aggregate_discourse(
            corpus.comments, dyads, corpus, exclude, scorer=KeyedScorer(scores_by_id), labels=labels_by_id
        )

    def test_hand_computed_means(self):
        report = self._run(
            {"c1": 0.1, "c2": 0.3, "c3": 0.2, "c4": 0.0},
            {"c1": "gameplay", "c2": "other", "c3": "food", "c4": "other"},
        )
        assert report.by_dyad_type["M-M"].mean_sentiment == pytest.approx(0.2)
        assert report.by_dyad_type["M-M"].comment_count == 2
        assert report.baseline.mean_sentiment == pytest.approx(0.1)  # c3 and c4

    def test_all_zero_scores(self):
        report = self._run(
            {"c1": 0.0, "c2": 0.0, "c3": 0.0, "c4": 0.0},
            {cid: "other" for cid in ("c1", "c2", "c3", "c4")},
        )
        assert report.by_dyad_type["M-M"].mean_sentiment == 0.0
        assert report.baseline.mean_sentiment == 0.0

    def test_exclude_videos_leave_both_pools(self):
        report = self._run(
            {"c1": 0.5, "c2": 0.5, "c3": 0.25, "c4": 0.75},
            {cid: "other" for cid in ("c1", "c2", "c3", "c4")},
            exclude={"multi"},
        )
        assert report.baseline.comment_count == 1
        assert report.baseline.mean_sentiment == pytest.approx(0.25)

    def test_topic_proportions_sum_to_one(self):
        report = self._run(
            {"c1": 0.0, "c2": 0.0, "c3": 0.0, "c4": 0.0},
            {"c1": "gameplay", "c2": "appearance", "c3": "food", "c4": "food"},
        )
        for row in [*report.by_dyad_type.values(), report.baseline]:
            assert abs(sum(row.topic_proportions.values()) - 1.0) <= 1e-12
            assert set(row.topic_proportions) == set(TOPIC_CATEGORIES)

    def test_types_with_no_comments_omitted(self):
        corpus, dyads = self._fixture()
        dyads = dyads + [CollaborationDyad("B", "A", ("plain",), "W-M")]
        # no comments under any W-M video? c3 sits on 'plain' which is now W-M
        report = aggregate_discourse(corpus.comments, dyads, corpus)
        assert set(report.by_dyad_type) == {"M-M", "W-M"}
        report2 = aggregate_discourse(corpus.comments.on_videos({"collab", "multi"}), dyads, corpus)
        assert set(report2.by_dyad_type) == {"M-M"}

    def test_report_structure_stable_across_plugins(self):
        corpus, dyads = self._fixture()
        rows = {}
        for scorer, classifier in (
            (LexiconSentimentScorer({"good": 1.9}), KeywordTopicClassifier({"food": {"ramen"}})),
            (LexiconSentimentScorer({"bad": -2.0}), KeywordTopicClassifier()),
        ):
            report = aggregate_discourse(corpus.comments, dyads, corpus, scorer=scorer, classifier=classifier)
            rows[id(scorer)] = {
                group: (set(row.topic_proportions), row.comment_count)
                for group, row in report.by_dyad_type.items()
            }
        first, second = rows.values()
        assert first == second  # structure (groups, categories, counts) is plugin-independent


def _outcome(function, *args):
    """The bits of ``function(*args)``, or ``OverflowError`` if it raises that."""
    try:
        return struct.pack("<d", function(*args))
    except OverflowError as exc:
        return type(exc)


def _row_of(scores, labels=None, categories=()):
    """``_make_row`` of the counts of ``scores`` (and of ``labels``, if given)."""
    return discourse._make_row("g", Counter(scores), Counter(labels or ()), categories)


# Distinct values as a scorer gives them, and odd ones: zeros of either
# sign, subnormals and values near the float limits. ``score_comments``
# lets no other score through.
_score_values = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -1.0, 1.0, 0.1, 5e-324, 2.2250738585072014e-308, 1e308, -1.7e308]),
    st.floats(-1.0, 1.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestExactPstdev:
    """``_make_row`` takes a group's count, mean and standard deviation from the
    counts of its scores: ``len``'s, ``statistics.fmean``'s and
    ``statistics.pstdev``'s, bit for bit, on this Python."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_score_values, min_size=1, max_size=8), st.lists(st.integers(0, 7), min_size=1, max_size=80))
    @example(values=[0.5], picks=[0, 0, 0])
    @example(values=[0.5], picks=[0])
    @example(values=[-0.0, 0.0], picks=[0, 1])
    @example(values=[-0.0], picks=[0, 0])
    @example(values=[0.1, 0.2, 0.7], picks=[0, 1, 2, 2, 1])
    @example(values=[5e-324, 0.0], picks=[0, 1, 1])
    @example(values=[1e308, -1.7e308], picks=[0, 1])
    @example(values=[1e308, -1.7e308], picks=[0, 0, 1])  # ``fsum`` overflows in between; the exact sum does not
    @example(values=[1e308], picks=[0, 0])  # the sum itself overflows
    def test_matches_statistics(self, values, picks):
        scores = array("d", (values[i % len(values)] for i in picks))
        # ``fmean`` is ``fsum(scores) / n``, and ``fsum`` is the exact sum
        # rounded once, unless it overflows on the way to a sum in range.
        mean = _outcome(lambda: float(sum(map(Fraction, scores))) / len(scores))
        assert _outcome(fmean, scores) in (mean, OverflowError)
        stdev = _outcome(pstdev, scores)
        if OverflowError in (mean, stdev):
            with pytest.raises(OverflowError):
                _row_of(scores)
            return
        row = _row_of(scores)
        assert row.comment_count == len(scores)
        assert (_outcome(float, row.mean_sentiment), _outcome(float, row.stdev_sentiment)) == (mean, stdev)

    def test_mean_where_fsum_overflows_in_between(self):
        """The one difference from ``fmean``: its ``fsum`` overflows on the way, the exact sum is in range."""
        scores = [1e308, 1e308, -1.7e308]
        with pytest.raises(OverflowError):
            fmean(scores)
        row = _row_of(scores)
        assert row.mean_sentiment == float(sum(map(Fraction, scores))) / 3
        assert struct.pack("<d", row.stdev_sentiment) == _outcome(pstdev, scores)

    def test_row_of_a_scorer_like_spread(self):
        scores = array("d", [0.3713906763541037] * 1000 + [-0.45374260648651504] * 377 + [0.0] * 2048)
        labels = ["other"] * 3000 + ["food"] * 425
        row = _row_of(scores, labels, TOPIC_CATEGORIES)
        assert row.comment_count == len(scores)
        assert struct.pack("<dd", row.mean_sentiment, row.stdev_sentiment) == struct.pack("<dd", fmean(scores), pstdev(scores))
        assert row.topic_proportions == {cat: labels.count(cat) / len(labels) for cat in TOPIC_CATEGORIES}


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_aggregate_refuses_a_non_finite_score(value):
    """A plug-in score that is not finite stops the aggregation with ``score_comments``' one line."""
    corpus = _chunked_corpus(14, ("good",))
    with pytest.raises(ValidationError) as err:
        aggregate_discourse(corpus.comments, [], corpus, scorer=_ConstantScorer(value))
    assert str(err.value) == f"sentiment scorer _ConstantScorer returned {value!r}; scores must be finite"


# ---------------------------------------------------------------------------
# The per-comment walk that ``aggregate_discourse`` replaced by counting:
# baseline scores copied between the other groups' comments a run at a
# time, a score array per group and baseline topic counts by subtraction.
# The counted form must give exactly its reports.


def reference_aggregate_discourse(comments, labels, scores, dyads, corpus, exclude_videos=()):
    group_of_video = dict.fromkeys(exclude_videos)
    for dyad in dyads:
        for video_id in dyad.videos:
            group_of_video[video_id] = dyad.dyad_type
    video_ids = comments.video_ids
    grouped = {}
    baseline_scores = array("d")
    start = 0
    for i in compress(range(len(video_ids)), map(group_of_video.__contains__, video_ids)):
        baseline_scores.extend(scores[start:i])
        start = i + 1
        group = group_of_video[video_ids[i]]
        if group not in grouped:
            grouped[group] = (array("d"), Counter())
        values, counts = grouped[group]
        values.append(scores[i])
        counts[labels[i]] += 1
    baseline_scores.extend(scores[start:])
    baseline_counts = Counter(labels)
    observed = set(baseline_counts)
    for _, counts in grouped.values():
        baseline_counts.subtract(counts)
    categories = (
        TOPIC_CATEGORIES
        if observed <= set(TOPIC_CATEGORIES)
        else tuple(sorted(observed | set(TOPIC_CATEGORIES)))
    )

    def make_row(group, scores, counts):
        n = len(scores)
        return discourse.DiscourseRow(
            group=group,
            comment_count=n,
            mean_sentiment=fmean(scores),
            stdev_sentiment=pstdev(scores) if n > 1 else 0.0,
            topic_proportions={cat: counts.get(cat, 0) / n for cat in categories},
        )

    return discourse.DiscourseReport(
        community=corpus.community,
        categories=categories,
        by_dyad_type={
            dyad_type: make_row(dyad_type, *grouped[dyad_type])
            for dyad_type in sorted(group for group in grouped if group is not None)
        },
        baseline=make_row("baseline", baseline_scores, baseline_counts) if baseline_scores else None,
    )


def _packed_row(row):
    if row is None:
        return None
    return (
        row.group,
        row.comment_count,
        struct.pack("<dd", row.mean_sentiment, row.stdev_sentiment),
        [(cat, struct.pack("<d", p)) for cat, p in row.topic_proportions.items()],
    )


def _packed_report(report):
    """A report with every float as its bits, and every mapping in its order."""
    return (
        report.community,
        report.categories,
        [(group, _packed_row(row)) for group, row in report.by_dyad_type.items()],
        _packed_row(report.baseline),
    )


_VIDEOS = ("v0", "v1", "v2", "v3", "v4")


@st.composite
def discourse_tables(draw):
    """Comments on five videos and on one video that is not in the corpus
    (``gone``), dyads over some of the videos (a video in two dyads goes to
    the last), excluded multi-way videos, scorer-like scores and labels
    inside and outside the schema."""
    dyads = [
        CollaborationDyad("A", "B", tuple(draw(st.sets(st.sampled_from(_VIDEOS), max_size=3))), dyad_type)
        for dyad_type in draw(st.lists(st.sampled_from(["W-M", "M-W", "M-M"]), max_size=4))
    ]
    exclude = draw(st.sets(st.sampled_from(_VIDEOS), max_size=2))
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_VIDEOS + ("gone",)),
                st.sampled_from([0.0, 0.5, -0.25, 0.3713906763541037, -0.45374260648651504]) | st.floats(-1.0, 1.0),
                st.sampled_from(TOPIC_CATEGORIES + ("meta", "aaa")),
            ),
            max_size=40,
        )
    )
    return dyads, exclude, rows


_TABLE_CORPUS = build_corpus(
    [make_channel("A", "alpha", gender="W"), make_channel("B", "bravo")],
    [make_video(v, "A", offset_hours=i) for i, v in enumerate(_VIDEOS)],
    CommentTable.from_rows([]),
)


class TestCountedAggregation:
    """``aggregate_discourse`` gives the per-comment walk's reports, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(discourse_tables())
    @example(([], set(), []))  # no comments: no rows, and no baseline
    @example(([CollaborationDyad("A", "B", ("v0",), "W-M")], set(), [("v0", 0.25, "food")]))  # a group of one
    @example(([CollaborationDyad("A", "B", ("v0",), "W-M")], {"v0", "v1"}, [("v0", 0.5, "meta"), ("v1", 0.5, "gone"), ("gone", 0.1, "food")]))
    @example((  # three chunks
        [CollaborationDyad("A", "B", ("v0", "v1"), "W-M"), CollaborationDyad("B", "A", ("v3",), "M-W")],
        {"v2"},
        [((("gone",) + _VIDEOS)[i % 6], (i % 9) / 8 - 0.5, (TOPIC_CATEGORIES + ("meta",))[i // 2 % 6]) for i in range(2 * CHUNK + 3)],
    ))
    def test_equals_per_comment_walk(self, table):
        """Each comment's score (its text ``t<i>`` keyed) and label (by its id) injected."""
        dyads, exclude, rows = table
        comments = CommentTable.from_rows(make_comment(f"c{i}", video, "u", f"t{i}") for i, (video, _, _) in enumerate(rows))
        scorer = KeyedScorer({f"t{i}": score for i, (_, score, _) in enumerate(rows)})
        labels = {f"c{i}": label for i, (_, _, label) in enumerate(rows)}
        got = aggregate_discourse(comments, dyads, _TABLE_CORPUS, exclude, scorer=scorer, labels=labels)
        expected = reference_aggregate_discourse(
            comments, list(labels.values()), [score for _, score, _ in rows], dyads, _TABLE_CORPUS, exclude_videos=exclude
        )
        assert _packed_report(got) == _packed_report(expected)
        if not rows:
            assert got.baseline is None and got.by_dyad_type == {}


# ---------------------------------------------------------------------------
# Reference forms of the tokenizer, scorer and classifier: the original
# strip-and-filter tokenizer, the classifier with one pass per category and
# the scorer written with generator expressions, which adds the booster and
# negator terms to every hit, even with neither in its window. The module's
# forms must give exactly their results.

_REFERENCE_TOKEN_RE = re.compile(r"[a-z0-9']+")


def referencetokenize(text):
    return [t for t in (tok.strip("'") for tok in _REFERENCE_TOKEN_RE.findall(text.lower())) if t]


def reference_score(lexicon, text):
    if not text:
        return 0.0
    tokens = referencetokenize(text)
    total = 0.0
    for i, token in enumerate(tokens):
        valence = lexicon.get(token)
        if valence is None:
            continue
        window = tokens[max(0, i - CONTEXT_WINDOW):i]
        boosters = sum(1 for w in window if w in BOOSTERS)
        sign = 1.0 if valence > 0 else -1.0
        adjusted = valence + sign * BOOSTER_STEP * boosters
        if any(w in NEGATORS for w in window):
            adjusted *= NEGATION_SCALAR
        total += adjusted
    if total == 0.0:
        return 0.0
    normalized = total / (total * total + NORMALIZATION_ALPHA) ** 0.5
    return max(-1.0, min(1.0, normalized))


def reference_classify(keywords, text):
    tokens = referencetokenize(text)
    best, best_score = "other", 0
    for cat in TOPIC_CATEGORIES:
        if cat == "other":
            continue
        score = sum(1 for t in tokens if t in keywords[cat])
        if score > best_score:
            best, best_score = cat, score
    return best


_BUNDLED_SCORER = LexiconSentimentScorer()
_BUNDLED_CLASSIFIER = KeywordTopicClassifier()
# One token ("aim") in two categories and one ("desk") in two others, so
# counts tie across categories and the schema order must break the tie.
_SHARED_KEYWORDS = {
    "gameplay": {"aim", "clutch"},
    "environment": {"aim", "desk"},
    "food": {"ramen", "desk"},
    "appearance": {"hair"},
}
_SHARED_CLASSIFIER = KeywordTopicClassifier(_SHARED_KEYWORDS)

_WORDS = sorted(
    NEGATORS
    | BOOSTERS
    | set(_BUNDLED_SCORER.lexicon)
    | {token for tokens in _BUNDLED_CLASSIFIER.keywords.values() for token in tokens}
    | {token for tokens in _SHARED_KEYWORDS.values() for token in tokens}
)
# Apostrophes, letters that change length or leave the ASCII range when
# lowercased, digits, punctuation and whitespace.
_GLUE = ("'", "''", " '", "' ", " ", "  ", "\t", "\n", ",", ".", "!", "?", "-", "_", "İ", "ß", "É", "é", "7", "42")
# Mostly words with a space after each, so negators and boosters often
# fall inside a lexicon word's window, with glue that can join words.
_TEXTS = st.lists(
    st.one_of(
        st.sampled_from(_WORDS).map(lambda word: word + " "),
        st.sampled_from(_WORDS),
        st.sampled_from(_GLUE),
        st.text(alphabet="'aZİß09 .,-\u2019", max_size=4),
    ),
    max_size=30,
).map("".join)


# Valences whose sum a skipped ``+ 0.0`` or ``* 1`` could change, if any did:
# signed zeros, infinities, NaN, and values that round when added.
_SPECIAL_LEXICONS = (
    {"zero": 0.0, "nil": -0.0, "huge": math.inf, "void": -math.inf, "meh": math.nan},
    {"zero": -0.0, "nil": 0.1, "huge": 1e308, "void": -2.5, "meh": 5e-324},
    {"zero": 0.2, "nil": 0.7, "huge": -math.nan, "void": 1e-300, "meh": -0.0},
)
_SPECIAL_TEXTS = st.lists(
    st.sampled_from(sorted({"zero", "nil", "huge", "void", "meh", "and", "but"} | NEGATORS | BOOSTERS)), max_size=12
).map(" ".join)


class TestReferenceEquality:
    @settings(max_examples=400, deadline=None)
    @given(_TEXTS)
    @example("")
    @example("''")
    @example("don't 'not' ''very'' good''s İstanbul ß 'n' rock'n'roll")
    def test_tokens_equal_reference(self, text):
        assert tokenize(text) == referencetokenize(text)

    @settings(max_examples=400, deadline=None)
    @given(_TEXTS)
    @example("not so very 'really' good, can't be bad")
    def test_scores_equal_reference(self, text):
        assert repr(_BUNDLED_SCORER.score(tokenize(text))) == repr(reference_score(_BUNDLED_SCORER.lexicon, text))

    @settings(max_examples=400, deadline=None)
    @given(_TEXTS)
    @example("aim desk")
    @example("desk ramen aim hair hair")
    def test_labels_equal_reference(self, text):
        for classifier in (_BUNDLED_CLASSIFIER, _SHARED_CLASSIFIER):
            expected = reference_classify(classifier.keywords, text)
            assert classifier.classify(tokenize(text)) == expected

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(_SPECIAL_TEXTS)
    @example("meh, not zero")
    @example("very nil and huge but not void")
    def test_special_valences_score_bit_for_bit(self, text):
        for lexicon in _SPECIAL_LEXICONS:
            got = LexiconSentimentScorer(lexicon).score(tokenize(text))
            assert struct.pack("<d", got) == struct.pack("<d", reference_score(lexicon, text))

    def test_shared_token_ties_break_by_schema_order(self):
        # Hits per category, gameplay/environment/food/appearance.
        assert _SHARED_CLASSIFIER.classify(tokenize("aim desk")) == "environment"  # 1, 2, 1, 0
        assert _SHARED_CLASSIFIER.classify(tokenize("aim ramen")) == "gameplay"  # 1, 1, 1, 0
        assert _SHARED_CLASSIFIER.classify(tokenize("desk")) == "environment"  # 0, 1, 1, 0
        assert _SHARED_CLASSIFIER.classify(tokenize("aim")) == "gameplay"  # 1, 1, 0, 0


# ---------------------------------------------------------------------------
# The report path: one tokenisation per comment, a chunk at a time.


def _chunked_corpus(n_comments, texts):
    """Host A (W) with a W-M collab with B, C (M) hosting A, a three-way video
    and solo videos; ``n_comments`` comments cycle over the videos and ``texts``."""
    registry = [
        make_channel("A", "alpha", gender="W"),
        make_channel("B", "bravo", gender="M"),
        make_channel("C", "charlie", gender="M"),
    ]
    videos = [
        make_video("wm", "A", description="duo with @bravo"),
        make_video("mw", "C", description="with @alpha today", offset_hours=1),
        make_video("multi", "B", description="@alpha and @charlie", offset_hours=2),
        make_video("solo-a", "A", offset_hours=3),
        make_video("solo-b", "B", offset_hours=4),
        make_video("solo-c", "C", offset_hours=5),
        make_video("solo-d", "C", offset_hours=6),
    ]
    comments = CommentTable.from_rows(
        make_comment(f"c{i:05d}", videos[(i * 3) % len(videos)].video_id, f"u{i % 97}", texts[i % len(texts)])
        for i in range(n_comments)
    )
    return build_corpus(registry, videos, comments)


def _pipeline(corpus, **plugins):
    return CommunityPipeline(corpus, RunConfig(community_dirs=(), out_dir="unused"), **plugins)


def _reference_report(pipeline, labels):
    """The discourse report from per-text reference scores, grouped in lists."""
    corpus = pipeline.corpus
    scores = [reference_score(_BUNDLED_SCORER.lexicon, text) for text in corpus.comments.texts]
    dyad_type_of_video = {v: d.dyad_type for d in pipeline.dyads for v in d.videos}
    groups = {}
    for video_id, score, label in zip(corpus.comments.video_ids, scores, labels):
        group = dyad_type_of_video.get(video_id)
        if group is None and video_id in pipeline.partition.multi_way:
            continue
        groups.setdefault(group or "baseline", []).append((score, label))
    rows = {}
    for group, pairs in groups.items():
        values = [score for score, _ in pairs]
        rows[group] = discourse.DiscourseRow(
            group=group,
            comment_count=len(pairs),
            mean_sentiment=fmean(values),
            stdev_sentiment=pstdev(values) if len(values) > 1 else 0.0,
            topic_proportions={cat: sum(label == cat for _, label in pairs) / len(pairs) for cat in TOPIC_CATEGORIES},
        )
    baseline = rows.pop("baseline", None)
    return discourse.DiscourseReport(corpus.community, TOPIC_CATEGORIES, dict(sorted(rows.items())), baseline)


# Empty and apostrophe-only texts, letters whose lowercase changes length or
# leaves ASCII, and texts with and without boosters and negators.
_CHUNK_TEXTS = (
    "",
    "'",
    "'' ''",
    "İstanbul ramen is awesome",
    "ßo very good, not bad",
    "honestly that aim is so great",
    "toxic, the stream setup",
    "your hair is lovely",
    "don't 'not' ''very'' good''s",
    "the upload",
    "not so very really terrible",
    "ÉPIC clutch play, wow",
)


def _record_calls(monkeypatch):
    """Wrap ``score_comments`` and ``label_comments``; return the (name, tokens) of each call."""
    calls = []
    for name in ("score_comments", "label_comments"):

        def spy(tokens, plugin=None, original=getattr(discourse, name), name=name):
            calls.append((name, tokens))
            return original(tokens, plugin)

        monkeypatch.setattr(discourse, name, spy)
    return calls


class TestChunkedReport:
    def test_report_equals_per_text_reference(self, monkeypatch):
        corpus = _chunked_corpus(2 * CHUNK + 1, _CHUNK_TEXTS)
        pipeline = _pipeline(corpus)
        calls = _record_calls(monkeypatch)
        got = pipeline.discourse_report
        labels = [reference_classify(_BUNDLED_CLASSIFIER.keywords, text) for text in corpus.comments.texts]
        expected = _reference_report(pipeline, labels)
        assert set(got.by_dyad_type) == {"W-M", "M-W"}
        assert repr(got) == repr(expected)
        # Three chunks, each tokenised once: both functions see the same lists.
        scored = [tokens for name, tokens in calls if name == "score_comments"]
        labelled = [tokens for name, tokens in calls if name == "label_comments"]
        assert [len(tokens) for tokens in scored] == [CHUNK, CHUNK, 1]
        assert all(a is b for a, b in zip(scored, labelled, strict=True))

    def test_labels_given_never_call_the_classifier(self, monkeypatch):
        corpus = _chunked_corpus(2 * CHUNK + 1, _CHUNK_TEXTS)
        given_labels = {cid: TOPIC_CATEGORIES[i % 5] for i, cid in enumerate(corpus.comments.comment_ids)}
        calls = _record_calls(monkeypatch)
        pipeline = _pipeline(corpus, labels=given_labels)
        got = pipeline.discourse_report
        expected = _reference_report(pipeline, [given_labels[cid] for cid in corpus.comments.comment_ids])
        assert repr(got) == repr(expected)
        assert {name for name, _ in calls} == {"score_comments"}

    def test_labels_join_in_comment_order(self):
        """Given labels join their own comments, across chunks: labelled with its
        video, each comment adds to its own group's share of that video."""
        corpus = _chunked_corpus(2 * CHUNK + 1, _CHUNK_TEXTS)
        comments = corpus.comments
        given_labels = dict(zip(comments.comment_ids, comments.video_ids))
        got = _pipeline(corpus, labels=given_labels).discourse_report
        assert got.categories == tuple(sorted({*comments.video_ids, *TOPIC_CATEGORIES}))
        solo = [video_id for video_id in comments.video_ids if video_id.startswith("solo-")]
        expected = {
            "W-M": Counter(wm=comments.video_ids.count("wm")),
            "M-W": Counter(mw=comments.video_ids.count("mw")),
            "baseline": Counter(solo),
        }
        for row in (*got.by_dyad_type.values(), got.baseline):
            counts = expected[row.group]
            assert row.comment_count == counts.total()
            assert row.topic_proportions == {cat: counts[cat] / counts.total() for cat in got.categories}

    def test_label_missing_in_the_last_chunk_raises(self):
        corpus = _chunked_corpus(2 * CHUNK + 1, _CHUNK_TEXTS)
        *labelled, last = corpus.comments.comment_ids
        pipeline = _pipeline(corpus, labels=dict.fromkeys(labelled, "food"))
        with pytest.raises(ValidationError) as err:
            pipeline.discourse_report
        assert str(err.value) == f"comment {last!r} lacks a topic label"

    def test_empty_corpus_still_calls_both_functions(self, monkeypatch):
        calls = _record_calls(monkeypatch)
        report = aggregate_discourse(CommentTable.from_rows([]), [], _TABLE_CORPUS)
        assert (report.by_dyad_type, report.baseline) == ({}, None)
        assert calls == [("score_comments", []), ("label_comments", [])]


def _discourse_peak(n_comments):
    """The report of ``n_comments`` simulator-shaped comments, and the traced peak of ``discourse_report`` above the loaded corpus."""
    texts = (
        "the ranked match is terrible",
        "awesome, your desk",
        "honestly that clutch play is so great",
        "your coffee is bland",
    )
    pipeline = _pipeline(_chunked_corpus(n_comments, texts))
    pipeline.dyads, pipeline.partition  # computed before, so only discourse is measured
    LexiconSentimentScorer(), KeywordTopicClassifier()  # the bundled tables, cached once
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = pipeline.discourse_report
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report.baseline.comment_count > 0
    return peak


def test_discourse_peak_bytes_per_comment():
    """The discourse stage holds one chunk of token lists and the counts of
    distinct (group, score, label) triples, not a score or a label per comment.

    Its traced peak, about 250 KB on Python 3.11, is nearly all fixed: one
    chunk's token lists and the default classifier's tables. So it is about
    63 bytes a comment at 4,000 comments and does not grow with their
    count. With a score ``array`` and a labels list for every comment it
    grew about 17.7 bytes a comment, to 1.34 MB at 64,000 comments, and
    token lists kept for every comment would add about 358 bytes a comment.
    """
    small = _discourse_peak(4_000)
    assert small / 4_000 <= 100
    assert _discourse_peak(64_000) <= 1.1 * small


class _ConstantScorer:
    """A plug-in scorer that gives every comment after the first ``value``."""

    def __init__(self, value):
        self.value, self.calls = value, 0

    def score(self, tokens):
        self.calls += 1
        return 0.5 if self.calls == 1 else self.value


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
class TestNonFiniteScore:
    """A plug-in score that is not finite is refused when scored, with one line naming the scorer."""

    def test_pipeline_refuses_it(self, value):
        pipeline = _pipeline(_chunked_corpus(2 * CHUNK + 1, ("good", "bad")), scorer=_ConstantScorer(value))
        with pytest.raises(ValidationError) as err:
            pipeline.discourse_report
        assert str(err.value) == f"sentiment scorer _ConstantScorer returned {value!r}; scores must be finite"

    def test_report_names_the_discourse_stage(self, value, tmp_path, monkeypatch):
        write_test_corpus(_chunked_corpus(40, ("good", "bad")), tmp_path / "corpus")
        plugged = functools.partial(CommunityPipeline, scorer=_ConstantScorer(value))
        monkeypatch.setattr("collabmetrics.report.CommunityPipeline", plugged)
        with pytest.raises(RunStageError) as err:
            run_report(RunConfig(community_dirs=(str(tmp_path / "corpus"),), out_dir=str(tmp_path / "rep")))
        assert err.value.stage == "discourse" and isinstance(err.value.cause, ValidationError)
        assert str(err.value) == (
            f"stage 'discourse' failed: community 'testgame': "
            f"sentiment scorer _ConstantScorer returned {value!r}; scores must be finite"
        )
