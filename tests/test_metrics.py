import json
import math
import random

import numpy as np
import pytest

from sercap import metrics
from sercap.metrics import (
    EvalItem,
    FluencyLexicons,
    MetricReport,
    cider_d,
    cross_reference,
    evaluate_corpus,
    fense_compose,
    fluency_errors,
    sbert_metric,
    spider,
    unique_words,
)


# ---------------------------------------------------------------------------
# brute-force CIDEr-D oracle: plain dict-and-loop implementation, written
# against the metric definition before the package version
# ---------------------------------------------------------------------------


def oracle_cider_d(cand_tokens, refs_tokens, sigma=6.0):
    n_items = len(cand_tokens)
    df = {}
    for refs in refs_tokens:
        seen = set()
        for r in refs:
            for n in range(1, 5):
                for i in range(len(r) - n + 1):
                    seen.add(tuple(r[i : i + n]))
        for ng in seen:
            df[ng] = df.get(ng, 0) + 1

    def weights(tokens, n):
        tf = {}
        for i in range(len(tokens) - n + 1):
            ng = tuple(tokens[i : i + n])
            tf[ng] = tf.get(ng, 0) + 1
        return {
            ng: c * (math.log(n_items) - math.log(max(1.0, df.get(ng, 0))))
            for ng, c in tf.items()
        }

    scores = []
    for c, refs in zip(cand_tokens, refs_tokens):
        total = 0.0
        for r in refs:
            for n in range(1, 5):
                wc = weights(c, n)
                wr = weights(r, n)
                num = sum(min(wc[g], wr[g]) * wr[g] for g in wc if g in wr)
                nc = math.sqrt(sum(w * w for w in wc.values()))
                nr = math.sqrt(sum(w * w for w in wr.values()))
                sim = num / (nc * nr) if nc > 0 and nr > 0 else 0.0
                sim *= math.exp(-((len(c) - len(r)) ** 2) / (2 * sigma * sigma))
                total += sim / 4.0
        scores.append(10.0 * total / len(refs))
    return sum(scores) / n_items, scores


WORDS = ["dog", "cat", "man", "woman", "barks", "speaks", "rain", "wind", "a", "the"]


def random_item(rng, max_words=8, n_refs=None):
    n_refs = n_refs or rng.randint(1, 5)
    make = lambda: " ".join(rng.choices(WORDS, k=rng.randint(1, max_words)))
    return EvalItem(candidate=make(), references=[make() for _ in range(n_refs)])


class TestCiderD:
    def test_identical_to_single_reference_scores_ten(self):
        items = [
            EvalItem("a dog barks very loudly", ["a dog barks very loudly"]),
            EvalItem("rain falls on the roof", ["rain falls on the roof"]),
            EvalItem("a man speaks to a cat", ["a man speaks to a cat"]),
        ]
        corpus, per_item = cider_d(items)
        np.testing.assert_allclose(per_item, 10.0, atol=1e-9)
        np.testing.assert_allclose(corpus, 10.0, atol=1e-9)

    def test_disjoint_tokens_score_zero(self):
        items = [
            EvalItem("xylophone quartz", ["a dog barks loudly now"]),
            EvalItem("umbrella vortex", ["rain falls on a roof"]),
        ]
        corpus, per_item = cider_d(items)
        assert corpus == 0.0
        assert per_item == [0.0, 0.0]

    def test_three_item_corpus_matches_oracle(self):
        items = [
            EvalItem("a dog barks", ["a dog barks loudly", "the dog is barking"]),
            EvalItem("rain falls", ["rain falls", "the rain is falling down"]),
            EvalItem("a man speaks", ["a woman speaks", "a man speaks softly"]),
        ]
        corpus, per_item = cider_d(items)
        o_corpus, o_items = oracle_cider_d(
            [metrics._metric_tokens(i.candidate) for i in items],
            [[metrics._metric_tokens(r) for r in i.references] for i in items],
        )
        np.testing.assert_allclose(per_item, o_items, atol=1e-9)
        np.testing.assert_allclose(corpus, o_corpus, atol=1e-9)

    def test_fifty_random_mini_corpora_match_oracle(self):
        rng = random.Random(1234)
        for _ in range(50):
            items = [random_item(rng) for _ in range(rng.randint(1, 5))]
            corpus, per_item = cider_d(items)
            o_corpus, o_items = oracle_cider_d(
                [metrics._metric_tokens(i.candidate) for i in items],
                [[metrics._metric_tokens(r) for r in i.references] for i in items],
            )
            np.testing.assert_allclose(per_item, o_items, atol=1e-9)
            np.testing.assert_allclose(corpus, o_corpus, atol=1e-9)

    def test_reference_permutation_invariant(self):
        rng = random.Random(7)
        items = [random_item(rng, n_refs=4) for _ in range(3)]
        base, base_items = cider_d(items)
        shuffled = [
            EvalItem(it.candidate, list(reversed(it.references))) for it in items
        ]
        out, out_items = cider_d(shuffled)
        np.testing.assert_allclose(out_items, base_items, atol=1e-12)

    def test_item_permutation_invariant_corpus_mean(self):
        rng = random.Random(8)
        items = [random_item(rng) for _ in range(4)]
        base, _ = cider_d(items)
        out, _ = cider_d(list(reversed(items)))
        np.testing.assert_allclose(out, base, atol=1e-12)

    def test_scores_within_range(self):
        rng = random.Random(9)
        items = [random_item(rng) for _ in range(6)]
        corpus, per_item = cider_d(items)
        assert all(0.0 <= s <= 10.0 + 1e-9 for s in per_item)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            cider_d([])


class TestSpider:
    def test_simple_mean(self):
        corpus, per_item = spider([0.8], [0.2])
        assert corpus == 0.5 and per_item == [0.5]

    def test_published_anchor_arithmetic(self):
        corpus, _ = spider([0.769], [0.181])
        assert round(corpus, 3) == 0.475

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            spider([0.5, 0.6], [0.5])


class FakeEmbedder:
    """Deterministic bag-of-words hashing embedder for metric tests."""

    def __init__(self, dim=16):
        self.dim = dim

    def __call__(self, text):
        import zlib

        v = np.zeros(self.dim)
        for w in metrics._metric_tokens(text):
            rng = np.random.default_rng(zlib.crc32(w.encode()))
            v += rng.normal(0, 1, self.dim)
        return v

    def vectors(self, texts):
        return [self(t) for t in texts]


class TestSbertMetric:
    def test_identical_pair_scores_one(self):
        items = [EvalItem("a dog barks", ["a dog barks"])]
        corpus, per_item = sbert_metric(items, FakeEmbedder())
        np.testing.assert_allclose(per_item, [1.0], atol=1e-12)

    def test_bounds(self):
        rng = random.Random(11)
        items = [random_item(rng) for _ in range(8)]
        _, per_item = sbert_metric(items, FakeEmbedder())
        assert all(-1.0 - 1e-9 <= s <= 1.0 + 1e-9 for s in per_item)

    def test_mean_vs_max_aggregation(self):
        items = [EvalItem("a dog barks", ["a dog barks", "rain falls"])]
        mean_score, _ = sbert_metric(items, FakeEmbedder(), agg="mean")
        max_score, _ = sbert_metric(items, FakeEmbedder(), agg="max")
        assert max_score >= mean_score
        np.testing.assert_allclose(max_score, 1.0, atol=1e-12)

    def test_orthogonal_embedding_scores_near_zero(self):
        # token-disjoint captions embed as independent sums, so the
        # similarity concentrates near zero
        embedder = FakeEmbedder(dim=64)
        items = [
            EvalItem(
                "xylophone quartz umbrella vortex penguin marble",
                ["cascade thimble lantern obsidian walrus fable"],
            )
        ]
        _, per_item = sbert_metric(items, embedder)
        assert abs(per_item[0]) < 0.35

    def test_bad_agg(self):
        with pytest.raises(ValueError):
            sbert_metric([EvalItem("a", ["a"])], FakeEmbedder(), agg="median")


class TestFluencyErrors:
    def test_trailing_conjunction_incomplete(self):
        flags = fluency_errors("a dog barks and")
        assert flags["incomplete_sentence"]

    def test_too_short_incomplete(self):
        assert fluency_errors("dog barks")["incomplete_sentence"]

    def test_repeated_event(self):
        flags = fluency_errors("a man speaks a man speaks")
        assert flags["repeated_event"]

    def test_clean_caption_unflagged(self):
        flags = fluency_errors("a dog barks")
        assert not any(flags.values())

    def test_missing_verb(self):
        assert fluency_errors("a dog in the yard")["missing_verb"]

    def test_missing_conjunction(self):
        flags = fluency_errors("a dog barks a man speaks")
        assert flags["missing_conjunction"]

    def test_conjunction_joins_clauses(self):
        flags = fluency_errors("a dog barks while a man speaks")
        assert not flags["missing_conjunction"]

    def test_auxiliary_verb_is_one_clause(self):
        flags = fluency_errors("a dog is barking")
        assert not flags["missing_conjunction"]

    def test_repeated_adverb(self):
        assert fluency_errors("a dog barks loudly loudly")["repeated_adverb"]
        assert not fluency_errors("a dog barks loudly")["repeated_adverb"]


class TestFense:
    def test_identity_without_flags(self):
        corpus, per_item = fense_compose([0.6, 0.8], [False, False])
        assert per_item == [0.6, 0.8]

    def test_divided_by_ten_with_flag(self):
        corpus, per_item = fense_compose([0.6], [True])
        np.testing.assert_allclose(per_item, [0.06])

    def test_fense_tracks_sbert_at_low_error_rate(self):
        # 1 flagged item out of 500 at similarity .621 barely moves the mean
        scores = [0.621] * 500
        flags = [False] * 499 + [True]
        corpus, _ = fense_compose(scores, flags)
        assert round(corpus, 3) == 0.620

    def test_fense_leq_sbert_per_item(self):
        rng = random.Random(3)
        scores = [rng.uniform(0, 1) for _ in range(50)]
        flags = [rng.random() < 0.3 for _ in range(50)]
        _, per_item = fense_compose(scores, flags)
        for f, s, flagged in zip(per_item, scores, flags):
            assert f <= s + 1e-12
            assert (f == s) == (not flagged)


class TestUniqueWords:
    def test_union_count(self):
        assert unique_words(["a dog", "a cat"]) == 3

    def test_duplicates_not_double_counted(self):
        assert unique_words(["a dog", "a dog", "a dog barks"]) == 3


class TestEvaluateCorpus:
    def test_report_fields(self):
        items = [
            EvalItem("a dog barks", ["a dog barks", "a dog yaps"]),
            EvalItem("rain falls", ["rain falls loudly"]),
        ]
        report = evaluate_corpus(items, embedder=FakeEmbedder())
        assert report.cider_d is not None
        assert report.sbert is not None and report.fense is not None
        assert report.flu_err is not None and report.n_words == 5
        assert report.spice is None and report.spider is None

    def test_spider_present_with_external_spice(self):
        items = [EvalItem("a dog barks", ["a dog barks"])]
        report = evaluate_corpus(items, spice_per_item=[0.2])
        assert report.spice == pytest.approx(0.2)
        assert report.spider == pytest.approx((report.cider_d + 0.2) / 2)

    def test_json_six_decimals(self, tmp_path):
        items = [EvalItem("a dog barks", ["a dog barks loudly"])]
        report = evaluate_corpus(items, embedder=FakeEmbedder())
        path = tmp_path / "report.json"
        report.save(path)
        loaded = json.loads(path.read_text())
        for key in ("cider_d", "sbert", "fense", "flu_err"):
            val = loaded[key]
            assert val is None or round(val, 6) == val


class TestCrossReference:
    def test_identical_references_score_one(self):
        items = [EvalItem("x", ["a dog barks loudly"] * 5)]
        report = cross_reference(items, embedder=FakeEmbedder())
        np.testing.assert_allclose(report.sbert, 1.0, atol=1e-12)
        np.testing.assert_allclose(report.fense, 1.0, atol=1e-12)

    def test_fold_candidates_absent_from_references(self):
        refs = [f"a dog barks number {i}" for i in ("one", "two", "three", "four", "five")]
        items = [EvalItem("x", refs)]
        # reconstruct the folds the way the protocol does and check exclusion
        for i in range(5):
            fold_refs = [r for j, r in enumerate(refs) if j != i]
            assert refs[i] not in fold_refs

    def test_wrong_ref_count_skipped_with_warning(self):
        items = [
            EvalItem("x", ["a dog barks"] * 5),
            EvalItem("y", ["a cat meows"] * 3),
        ]
        with pytest.warns(UserWarning):
            report = cross_reference(items, embedder=FakeEmbedder())
        assert report.sbert == pytest.approx(1.0)

    def test_all_items_wrong_count_rejected(self):
        with pytest.raises(ValueError):
            with pytest.warns(UserWarning):
                cross_reference([EvalItem("x", ["a"])], embedder=FakeEmbedder())


class TestEvalItem:
    def test_needs_reference(self):
        with pytest.raises(ValueError):
            EvalItem("a dog", [])

    def test_empty_candidate_rejected(self):
        with pytest.raises(ValueError):
            EvalItem("!!!", ["a dog barks"])
