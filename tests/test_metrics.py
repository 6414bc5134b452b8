import numpy as np
import pytest

from krt.metrics import (
    HEADLINE,
    MetricsRecord,
    UndefinedAPError,
    aggregate,
    average_precision,
    evaluate,
)

from oracles import average_precision_oracle, multilabel_metrics_oracle


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_single_positive_ranked_last(self):
        n = 7
        scores = np.linspace(1.0, 0.1, n)
        truths = np.zeros(n)
        truths[-1] = 1
        assert average_precision(scores, truths) == pytest.approx(1.0 / n, abs=1e-15)

    def test_worked_example(self):
        got = average_precision([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
        assert got == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-15)
        assert round(got, 4) == 0.8333

    def test_zero_positives_signalled(self):
        with pytest.raises(UndefinedAPError):
            average_precision([0.5, 0.5], [0, 0])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            scores = rng.uniform(size=12)
            truths = (rng.uniform(size=12) < 0.4).astype(int)
            if truths.sum() == 0:
                truths[0] = 1
            base = average_precision(scores, truths)
            for f in (lambda s: 2 * s + 3, lambda s: s**3, np.exp):
                assert average_precision(f(scores), truths) == pytest.approx(base, abs=1e-12)

    def test_all_ties_degenerate_case(self):
        # equal scores keep input order, so AP equals the oracle's and
        # stays in [0, 1]; with all positives first it is exactly P/ranks
        scores = np.full(6, 0.5)
        truths = np.array([0, 1, 0, 1, 0, 0])
        got = average_precision(scores, truths)
        want = average_precision_oracle(scores, truths)
        assert got == pytest.approx(want, abs=1e-15)
        assert 0.0 <= got <= 1.0

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            scores = rng.choice([0.1, 0.25, 0.5, 0.75, 0.9], size=n)  # force ties
            truths = (rng.uniform(size=n) < 0.5).astype(int)
            if truths.sum() == 0:
                truths[rng.integers(0, n)] = 1
            got = average_precision(scores, truths)
            assert got == pytest.approx(average_precision_oracle(scores, truths), abs=1e-12)


class TestEvaluate:
    def test_perfect_predictor(self):
        truths = np.array([[1, 0, 1], [0, 1, 0], [1, 1, 0]])
        rec = evaluate(truths.astype(float), truths)
        assert rec.map == 100.0
        assert rec.cf1 == 100.0
        assert rec.of1 == 100.0

    def test_all_zero_scores_gives_zero_of1(self):
        truths = np.array([[1, 0], [0, 1]])
        rec = evaluate(np.zeros((2, 2)), truths)
        assert rec.of1 == 0.0
        assert rec.cf1 == 0.0

    def test_random_instance_vs_counting_oracle(self):
        rng = np.random.default_rng(2)
        scores = rng.uniform(size=(6, 3))
        truths = (rng.uniform(size=(6, 3)) < 0.5).astype(int)
        truths[0] = [1, 1, 1]
        rec = evaluate(scores, truths)
        m, c, o = multilabel_metrics_oracle(scores, truths)
        assert abs(rec.map - m) < 1e-9
        assert abs(rec.cf1 - c) < 1e-9
        assert abs(rec.of1 - o) < 1e-9

    def test_matches_oracle_exhaustively(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, 5))
            scores = rng.choice([0.0, 0.3, 0.5, 0.7, 1.0], size=(n, k))
            truths = (rng.uniform(size=(n, k)) < 0.45).astype(int)
            if truths.sum() == 0:
                truths[0, 0] = 1
            rec = evaluate(scores, truths)
            m, c, o = multilabel_metrics_oracle(scores, truths)
            assert abs(rec.map - m) < 1e-9
            assert abs(rec.cf1 - c) < 1e-9
            assert abs(rec.of1 - o) < 1e-9

    def test_zero_positive_classes_excluded_from_means(self):
        scores = np.array([[0.9, 0.9], [0.1, 0.8]])
        truths = np.array([[1, 0], [0, 0]])  # class 1 has no positives
        rec = evaluate(scores, truths)
        assert rec.per_class_ap[1] is None
        assert rec.map == 100.0 * average_precision(scores[:, 0], truths[:, 0])

    def test_map_equals_mean_of_defined_per_class_ap(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(size=(10, 4))
        truths = (rng.uniform(size=(10, 4)) < 0.3).astype(int)
        truths[:, 2] = 0
        truths[0, 0] = 1
        rec = evaluate(scores, truths)
        defined = [ap for ap in rec.per_class_ap if ap is not None]
        assert rec.map == pytest.approx(float(np.mean(defined)), abs=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        scores = rng.uniform(size=(8, 3))
        truths = (rng.uniform(size=(8, 3)) < 0.5).astype(int)
        truths[0] = 1
        a = evaluate(scores, truths)
        b = evaluate(scores, truths)
        assert a == b

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="no class has a positive example"):
            evaluate(np.zeros((0, 3)), np.zeros((0, 3)))

    @pytest.mark.parametrize(
        "scores, truths, message",
        [
            (np.zeros((2, 3)), np.zeros((3, 2)), r"shape mismatch \(2, 3\) vs \(3, 2\)"),
            (np.zeros(3), np.ones(3), r"scores must be \[n_examples, n_classes\]"),
            (np.zeros((1, 2, 2)), np.ones((1, 2, 2)), r"scores must be \[n_examples, n_classes\]"),
            (np.array([[0.5, np.nan]]), np.ones((1, 2)), "non-finite scores"),
            (np.array([[0.5], [np.inf]]), np.ones((2, 1)), "non-finite scores"),
            (np.full((2, 2), 0.5), np.zeros((2, 2)), "no class has a positive example"),
        ],
        ids=["shape_mismatch", "one_d", "three_d", "nan_score", "infinite_score", "no_positive"],
    )
    def test_bad_inputs_are_rejected_with_their_own_message(self, scores, truths, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            evaluate(scores, truths)

    def test_record_dict_holds_every_field(self):
        rec = evaluate(np.array([[0.9, 0.2], [0.4, 0.1]]), np.array([[1, 0], [0, 0]]), session=3)
        want = {"session": 3, "map": 100.0, "cf1": 100.0, "of1": 100.0, "per_class_ap": [100.0, None]}
        assert rec.to_dict() == want


class TestAggregate:
    def test_five_session_run(self):
        records = [
            MetricsRecord(session=i + 1, map=m, cf1=0.0, of1=0.0)
            for i, m in enumerate([82.37, 79.54, 78.27, 75.95, 75.18])
        ]
        agg = aggregate(records)
        assert agg["avg_map"] == pytest.approx(78.26, abs=0.01)
        assert agg["last_map"] == 75.18

    def test_eight_session_run(self):
        maps = [92.25, 81.30, 77.26, 74.69, 73.22, 72.80, 70.61, 70.17]
        records = [MetricsRecord(session=i + 1, map=m, cf1=1.0, of1=2.0) for i, m in enumerate(maps)]
        agg = aggregate(records)
        assert agg["avg_map"] == pytest.approx(76.54, abs=0.01)
        assert agg["last_map"] == 70.17
        assert agg["last_cf1"] == 1.0
        assert agg["last_of1"] == 2.0

    def test_singleton(self):
        rec = MetricsRecord(session=1, map=50.0, cf1=40.0, of1=45.0)
        assert aggregate([rec]) == {"avg_map": 50.0, "last_map": 50.0, "last_cf1": 40.0, "last_of1": 45.0}

    def test_keys_are_the_headline_figures_in_order(self):
        rec = MetricsRecord(session=1, map=50.0, cf1=40.0, of1=45.0)
        assert tuple(aggregate([rec])) == HEADLINE

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])
