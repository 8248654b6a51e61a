import json
import math

import numpy as np
import pytest

from conftest import make_dataset
from mopr.bounds import (
    KnownPopulation,
    gap_experiment,
    generalization_bound,
    query_budget,
    rademacher_mc,
    vc_rademacher_bound,
)
from mopr.datamodel import Dataset, DatasetSchema
from mopr.statclasses import RepStatistic, all_cell_indicators, cell_indicator


def four_cell_population(probs):
    # row i is cell (x, y) = divmod(i, 2), one-hot at 2x + y = i
    support = Dataset([f"p{i}" for i in range(4)], np.eye(4), [[0, 0], [0, 1], [1, 0], [1, 1]],
                      DatasetSchema(d=4, label_cards={"x": 2, "y": 2}), "curated")
    return KnownPopulation(support, np.asarray(probs, dtype=float))


class TestKnownPopulation:
    def test_expectation_weighted_sum(self):
        pop = four_cell_population([0.4, 0.3, 0.2, 0.1])
        stat = cell_indicator({"x": 0, "y": 0})
        # +1 with prob 0.4, -1 with prob 0.6
        assert pop.expectation(stat) == pytest.approx(-0.2)

    def test_probabilities_validated(self):
        with pytest.raises(ValueError, match="sum to 1"):
            four_cell_population([0.5, 0.5, 0.5, 0.5])
        with pytest.raises(ValueError, match="non-negative"):
            four_cell_population([1.5, -0.5, 0.0, 0.0])

    def test_sampling_deterministic(self):
        pop = four_cell_population([0.25, 0.25, 0.25, 0.25])
        d1 = pop.sample(20, np.random.default_rng(3))
        d2 = pop.sample(20, np.random.default_rng(3))
        assert np.array_equal(d1.labels, d2.labels)


class TestRademacherMc:
    def test_singleton_constant_concentrates(self):
        m, trials = 100, 400
        ds = make_dataset(np.zeros((m, 1)), [{"g": 0} for _ in range(m)],
                          cards={"g": 1})
        const = cell_indicator({"g": 0})  # +1 on every item
        est = rademacher_mc([const], ds, trials, seed=0)
        assert abs(est) <= 3.0 / math.sqrt(trials * m)

    def test_shattering_class_is_one(self):
        # all 8 sign patterns on 3 one-hot points: sup matches sigma exactly
        ds = make_dataset(np.eye(3))
        stats = [
            RepStatistic("linear", {"w": np.array(p, dtype=float)}, "embedding")
            for p in [(a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)]
        ]
        assert rademacher_mc(stats, ds, trials=20, seed=1) == pytest.approx(1.0)

    def test_deterministic_and_validated(self):
        ds = make_dataset(np.eye(2))
        stats = [RepStatistic("linear", {"w": np.ones(2)}, "embedding")]
        assert rademacher_mc(stats, ds, 50, seed=5) == rademacher_mc(
            stats, ds, 50, seed=5
        )
        with pytest.raises(ValueError, match="nonempty"):
            rademacher_mc([], ds, 10)
        with pytest.raises(ValueError, match="trials"):
            rademacher_mc(stats, ds, 0)

    def test_bounded_by_one_for_finite_sign_class(self, rng):
        ds = make_dataset(rng.standard_normal((30, 1)),
                          [{"g": int(rng.integers(2))} for _ in range(30)],
                          cards={"g": 2})
        assert rademacher_mc(all_cell_indicators({"g": 2}), ds, 100) <= 1.0


class TestFormulas:
    def test_vc_bound_fixtures(self):
        assert vc_rademacher_bound(1, 3) == pytest.approx(
            math.sqrt(2 * math.log(3 * math.e) / 3), abs=1e-12
        )
        assert vc_rademacher_bound(1, 3) == pytest.approx(1.18282, abs=1e-4)
        assert vc_rademacher_bound(3, 9600) == pytest.approx(0.07529, abs=5e-4)

    def test_vc_bound_monotone_decreasing(self):
        values = [vc_rademacher_bound(3, m) for m in (10, 100, 1000, 10000)]
        assert values == sorted(values, reverse=True)

    def test_vc_bound_domain(self):
        with pytest.raises(ValueError):
            vc_rademacher_bound(10, 1)

    def test_generalization_bound_fixture(self):
        val = generalization_bound(0.1, 200, 0.05)
        assert val == pytest.approx(0.1 + math.sqrt(math.log(40) / 1600), abs=1e-12)
        assert val == pytest.approx(0.14803, abs=1e-4)

    def test_generalization_bound_scaling(self):
        assert generalization_bound(0.0, 400, 0.05) == pytest.approx(
            generalization_bound(0.0, 100, 0.05) / 2
        )

    def test_generalization_bound_delta_range(self):
        with pytest.raises(ValueError, match="delta"):
            generalization_bound(0.1, 100, 1.5)

    def test_query_budget_headline_value(self):
        assert query_budget(3, 0.1, 0.05, 10) == 10200

    def test_query_budget_tight_variant_smaller(self):
        loose = query_budget(3, 0.1, 0.05, 10, conservative=True)
        tight = query_budget(3, 0.1, 0.05, 10, conservative=False)
        assert tight < loose
        assert tight == math.ceil(9600 + math.log(400) / 0.02)

    def test_query_budget_epsilon_scaling(self):
        # halving epsilon exactly quadruples the leading term
        m1 = query_budget(2, 0.2, 0.1, 1)
        m2 = query_budget(2, 0.1, 0.1, 1)
        lead1, lead2 = 32 * 2 / 0.04, 32 * 2 / 0.01
        assert lead2 == 4 * lead1
        assert m2 > m1

    def test_query_budget_validation(self):
        with pytest.raises(ValueError):
            query_budget(3, 1.5, 0.05, 10)
        with pytest.raises(ValueError):
            query_budget(3, 0.1, 0.05, 0)


class TestGapExperiment:
    def test_constant_class_zero_gap(self):
        pop = four_cell_population([0.25, 0.25, 0.25, 0.25])
        retrieved = pop.support
        const = cell_indicator({})  # matches every item: identically +1
        rep = gap_experiment(pop, [const], retrieved, m=50, trials=60, delta=0.05)
        assert rep.diagnostics["gap_max"] == pytest.approx(0.0)
        assert rep.coverage == 1.0

    def test_coverage_and_report_fields(self):
        pop = four_cell_population([0.7, 0.15, 0.1, 0.05])
        support = pop.support
        retrieved = Dataset([f"r{i}" for i in range(20)], support.embeddings[[3] * 20],
                            support.labels[[3] * 20], support.schema)
        cls = all_cell_indicators({"x": 2, "y": 2})
        rep = gap_experiment(pop, cls, retrieved, m=200, trials=60, delta=0.05,
                             seed=2)
        assert rep.coverage >= 0.95
        doc = json.loads(rep.to_json())
        assert set(doc) == {"rademacher", "bound_value", "parameters", "coverage",
                            "diagnostics"}
        assert doc["parameters"]["m"] == 200

    def test_minimum_trials_enforced(self):
        pop = four_cell_population([0.25, 0.25, 0.25, 0.25])
        with pytest.raises(ValueError, match="50"):
            gap_experiment(pop, all_cell_indicators({"x": 2, "y": 2}),
                           pop.support, m=10, trials=10, delta=0.05)
