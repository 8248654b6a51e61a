"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line on success so the run log doubles as a
checklist.  Instances are synthetic but sized to exercise the same regimes as
the library's headline claims: oracle/closed-form equivalence, LP/IP rounding
gaps, exact equal representation, Pareto dominance over the greedy baseline,
statistical bound coverage, kernel identities, agreement of the closed-form
and least-squares separators of the linear class, and byte-level determinism
of the CLI.
"""

import time
from itertools import product

import numpy as np
import pytest

from conftest import make_dataset
from mopr.algorithm import (
    MoprConfig,
    _cutting_plane,
    _SweepCarry,
    mmr_retrieve,
    mopr_qp_linear,
    mopr_retrieve,
    pareto_sweep,
)
from mopr.bounds import (
    KnownPopulation,
    gap_experiment,
    generalization_bound,
    query_budget,
    vc_rademacher_bound,
)
from mopr.cli import main
from mopr.datamodel import (
    Dataset,
    DatasetSchema,
    Query,
    build_balanced_curation,
)
from mopr.metric import (
    OracleClass,
    mpr_closed_form_linear,
    mpr_exact_finite,
    mpr_rkhs,
    mpr_via_oracle,
)
from mopr.similarity import Selection, top_k
from mopr.solver import Cut, round_top_k, solve_ip_exact, solve_lp
from mopr.statclasses import all_cell_indicators


def biased_2x5_instance(seed=11, d=4):
    """200-item pool with strong gender/race similarity bias, all cells >= 6."""
    rng = np.random.default_rng(seed)
    counts = {
        (0, 0): 55, (0, 1): 35, (0, 2): 20, (0, 3): 10, (0, 4): 8,
        (1, 0): 30, (1, 1): 18, (1, 2): 10, (1, 3): 8, (1, 4): 6,
    }
    g_off = {0: 0.8, 1: -0.8}
    r_off = {0: 0.6, 1: 0.3, 2: 0.0, 3: -0.3, 4: -0.6}
    embeddings, labels = [], []
    for (g, r), c in sorted(counts.items()):
        for _ in range(c):
            e = rng.standard_normal(d) * 0.7
            e[0] += 1.0 + g_off[g] + r_off[r]
            embeddings.append(e)
            labels.append((g, r))
    schema = DatasetSchema(d=d, label_cards={"gender": 2, "race": 5})
    d_r = Dataset([f"r{i}" for i in range(len(labels))], embeddings, labels, schema, "retrieval")
    d_c = build_balanced_curation({"gender": 2, "race": 5}, 100)
    q = Query("q0", np.eye(d)[0])
    return d_r, d_c, q


def binary_quantized_instance(rng, n):
    """Binary-group pool where a zero-gap integer selection always exists
    for k=8 (curated proportions are exact multiples of 1/8)."""
    groups = [0] * 4 + [1] * 4 + [int(rng.integers(2)) for _ in range(n - 8)]
    rng.shuffle(groups)
    emb = rng.standard_normal((n, 3)) * 0.3
    emb[:, 0] = rng.uniform(1.5, 2.0, size=n)
    emb[:, 0] += np.where(np.array(groups) == 0, 0.3, -0.3)
    d_r = make_dataset(emb, [{"g": g} for g in groups], cards={"g": 2}, prefix="r")
    d_c = make_dataset(
        rng.standard_normal((40, 3)),
        [{"g": 0 if i < 15 else 1} for i in range(40)],
        role="curated",
        prefix="c",
    )
    return d_r, d_c, Query("q", np.eye(3)[0])


def cell_counts(d_r, sel):
    counts = {}
    for row in d_r.labels[sel.indices]:
        counts[tuple(row)] = counts.get(tuple(row), 0) + 1
    return counts


def test_acceptance_1_oracle_matches_closed_form():
    """30+ random instances: |oracle(linear) - closed form| <= 1e-6, < 30 s."""
    start = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(20, 201))
        m = int(rng.integers(20, 201))
        p = int(rng.integers(1, 9))
        k = min(5 if rng.random() < 0.5 else 20, n)
        d_r = make_dataset(rng.standard_normal((n, p)),
                           [{"g": int(rng.integers(2))} for _ in range(n)],
                           cards={"g": 2}, prefix="r")
        d_c = make_dataset(rng.standard_normal((m, p)),
                           [{"g": int(rng.integers(2))} for _ in range(m)],
                           cards={"g": 2}, role="curated", prefix="c")
        ind = np.zeros(n, dtype=int)
        ind[rng.choice(n, size=k, replace=False)] = 1
        sel = Selection(ind, k)
        a = mpr_via_oracle(sel, d_r, d_c, oracle="linear", feature_view="embedding").value
        b = mpr_closed_form_linear(sel, d_r, d_c, "embedding").value
        worst = max(worst, abs(a - b))
    elapsed = time.time() - start
    assert worst <= 1e-6
    assert elapsed < 30
    print(f"\nPASS acceptance 1: oracle==closed-form, worst gap {worst:.2e}, {elapsed:.1f}s")


def test_acceptance_2_lp_rounding_near_ip():
    """50+ small instances: rounded LP within 2% of exact IP, LP >= IP, < 2 min."""
    start = time.time()
    rng = np.random.default_rng(1)
    k = 8
    compared = 0
    worst_rel = 0.0
    for _ in range(50):
        n = int(rng.integers(14, 21))
        d_r, d_c, q = binary_quantized_instance(rng, n)
        sel0, s = top_k(d_r, q, k)
        indicators = all_cell_indicators({"g": 2})
        mpr0 = mpr_exact_finite(sel0, d_r, d_c, indicators).value
        if mpr0 == 0.0:
            continue
        for frac in (0.5, 0.75, 1.0):
            rho = frac * mpr0
            cuts = [
                Cut(st.values(d_r) / k, float(np.mean(st.values(d_c))), rho)
                for st in indicators
            ]
            lp = solve_lp(s, cuts, k)
            assert lp.status == "optimal"
            rounded = round_top_k(lp.a, k)
            ip = solve_ip_exact(s, cuts, k)  # asserts LP >= IP internally
            r_obj = float(s @ rounded.indicator)
            ip_obj = float(s @ ip.indicator)
            rel = abs(r_obj - ip_obj) / abs(ip_obj)
            worst_rel = max(worst_rel, rel)
            assert rel <= 0.02, f"rounding gap {rel:.3%} at rho={rho}"
            compared += 1
    elapsed = time.time() - start
    assert compared >= 100
    assert elapsed < 120
    print(f"\nPASS acceptance 2: {compared} LP/IP comparisons, worst gap "
          f"{worst_rel:.3%}, {elapsed:.1f}s")


def test_acceptance_3_equal_representation():
    """2x5 instance, rho=0, k=50: exactly 5 per cell; top-k is skewed. < 30 s."""
    start = time.time()
    d_r, d_c, q = biased_2x5_instance()
    k = 50
    # precondition of the instance: every cell holds at least k/10 items
    pool_counts = cell_counts(d_r, Selection(np.ones(len(d_r), dtype=int), len(d_r)))
    assert all(pool_counts[cell] >= k // 10
               for cell in product(range(2), range(5)))
    cfg = MoprConfig(rho=0.0, T=50, oracle_kind="finite")
    sel, trace = mopr_retrieve(d_r, d_c, q, k, cfg)
    counts = cell_counts(d_r, sel)
    assert all(counts.get(cell, 0) == 5 for cell in product(range(2), range(5)))
    assert trace.achieved_mpr <= 1e-9
    # marginals: 20% per race, 50% per gender
    race = np.bincount(d_r.labels[sel.indices, 1], minlength=5)
    gender = np.bincount(d_r.labels[sel.indices, 0], minlength=2)
    assert race.tolist() == [10] * 5
    assert gender.tolist() == [25, 25]
    sel0, _ = top_k(d_r, q, k)
    topk_counts = cell_counts(d_r, sel0)
    assert any(abs(topk_counts.get(cell, 0) - 5) >= 2
               for cell in product(range(2), range(5)))
    elapsed = time.time() - start
    assert elapsed < 30
    print(f"\nPASS acceptance 3: 5 items in all 10 cells (top-k skewed), {elapsed:.1f}s")


def test_acceptance_4_pareto_dominates_mmr():
    """MOPR sweep reaches lower MPR than MMR and dominates its best point. < 2 min."""
    start = time.time()
    d_r, d_c, q = biased_2x5_instance()
    k = 50
    indicators = all_cell_indicators({"gender": 2, "race": 5})
    sel0, scores = top_k(d_r, q, k)
    mpr0 = mpr_exact_finite(sel0, d_r, d_c, indicators).value
    cfg = MoprConfig(T=50, oracle_kind="finite")
    grid = list(np.linspace(mpr0, 0.0, 10))
    points = pareto_sweep(d_r, d_c, q, k, cfg, grid)
    mmr_points = []
    for lam in np.linspace(0.0, 1.0, 11):
        sel = mmr_retrieve(d_r, q, k, float(lam))
        mmr_points.append((
            mpr_exact_finite(sel, d_r, d_c, indicators).value,
            float(np.mean(scores[sel.indices])),
        ))
    mopr_min = min(p.mpr_achieved for p in points)
    mmr_min_mpr, mmr_sim_at_min = min(mmr_points)
    assert mopr_min <= mmr_min_mpr
    dominated = any(
        p.mpr_achieved <= mmr_min_mpr + 1e-6
        and p.mean_similarity >= mmr_sim_at_min - 1e-6
        for p in points
    )
    assert dominated
    elapsed = time.time() - start
    assert elapsed < 120
    print(f"\nPASS acceptance 4: MOPR min MPR {mopr_min:.3g} <= MMR min "
          f"{mmr_min_mpr:.3g}, dominating point exists, {elapsed:.1f}s")


def test_acceptance_5_generalization_bound_coverage():
    """4-indicator class, m=500, delta=0.05, 200 trials: coverage >= 0.95. < 1 min."""
    start = time.time()
    # row i is cell (x, y) = divmod(i, 2), one-hot at 2x + y = i
    cells = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    schema = DatasetSchema(d=4, label_cards={"x": 2, "y": 2})
    pop = KnownPopulation(Dataset([f"p{i}" for i in range(4)], np.eye(4), cells, schema, "curated"),
                          np.array([0.7, 0.15, 0.1, 0.05]))
    retrieved = Dataset([f"r{i}" for i in range(20)], np.tile(np.eye(4)[3], (20, 1)),
                        np.tile(cells[3], (20, 1)), schema)
    cls = all_cell_indicators({"x": 2, "y": 2})
    report = gap_experiment(pop, cls, retrieved, m=500, trials=200, delta=0.05, seed=0)
    assert report.coverage >= 0.95
    elapsed = time.time() - start
    assert elapsed < 60
    print(f"\nPASS acceptance 5: coverage {report.coverage:.3f} >= 0.95 "
          f"(bound {report.bound_value:.3f}, max gap "
          f"{report.diagnostics['gap_max']:.3f}), {elapsed:.1f}s")


def test_acceptance_6_query_budget_self_consistency():
    """Budget formula returns 10200 and plugging it back stays under epsilon."""
    vc, eps, delta, M = 3, 0.1, 0.05, 10
    m = query_budget(vc, eps, delta, M)
    assert m == 10200
    plugged = vc_rademacher_bound(vc, m) + np.sqrt(np.log(2 * M / delta) / (8 * m))
    assert plugged <= eps
    print(f"\nPASS acceptance 6: budget {m}, plug-back value {plugged:.4f} <= {eps}")


def test_acceptance_7_rkhs_identities():
    """Linear kernel equals the mean-gap norm; matched multisets give zero."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10):
        n, m, p = 12, 9, 4
        d_r = make_dataset(rng.standard_normal((n, p)),
                           [{"g": int(rng.integers(2))} for _ in range(n)],
                           cards={"g": 2}, prefix="r")
        d_c = make_dataset(rng.standard_normal((m, p)),
                           [{"g": int(rng.integers(2))} for _ in range(m)],
                           cards={"g": 2}, role="curated", prefix="c")
        ind = np.zeros(n, dtype=int)
        ind[rng.choice(n, 5, replace=False)] = 1
        sel = Selection(ind, 5)
        value = mpr_rkhs(sel, d_r, d_c, "linear", None, "embedding").value
        ref = float(np.linalg.norm(
            d_r.embeddings[sel.indices].mean(axis=0) - d_c.embeddings.mean(axis=0)
        ))
        worst = max(worst, abs(value - ref))
        assert abs(value - ref) <= 1e-9
    emb = rng.standard_normal((6, 3))
    perm = [3, 1, 5, 0, 4, 2]
    d_r = make_dataset(emb, prefix="r")
    d_c = make_dataset(emb[perm], role="curated", prefix="c")
    sel = Selection(np.ones(6, dtype=int), 6)
    for kernel, sigma in (("linear", None), ("gaussian", 1.0)):
        value = mpr_rkhs(sel, d_r, d_c, kernel, sigma, "embedding").value
        assert value <= 1e-9
    print(f"\nPASS acceptance 7: linear-kernel identity worst gap {worst:.2e}, "
          f"matched multisets give 0")


def test_acceptance_8_qp_variant_agrees():
    """The QP variant, which separates the linear class by the supporting
    hyperplane of its closed-form norm, matches within 2% a cutting-plane loop
    whose separator fits the least-squares oracle. < 1 min."""
    start = time.time()
    d_r, d_c, q = biased_2x5_instance()
    k = 50
    sel0, _ = top_k(d_r, q, k)
    mpr0 = mpr_closed_form_linear(sel0, d_r, d_c, "labels").value
    cfg = MoprConfig(oracle_kind="linear", feature_view="labels")
    sim0 = None
    for frac in (0.9, 0.7, 0.5, 0.3):
        rho = frac * mpr0
        # the linear retrieval's state with oracle_gap(..., "linear") over
        # feature_groups(d_r, d_c, "labels") as its separator; both separators
        # have the label cells as classes, so the LP keeps the same columns
        carry = _SweepCarry(d_r, d_c, q, k, cfg)
        carry.separator = OracleClass.build(d_r, d_c, k, cfg.oracle_kind, cfg.feature_view)
        _, t_ls = _cutting_plane(carry, 50, rho)
        _, t_qp = mopr_qp_linear(d_r, d_c, q, k, rho, T=50, feature_view="labels")
        if sim0 is None:
            sim0 = max(t_ls.mean_similarity, t_qp.mean_similarity)
        assert abs(t_ls.achieved_mpr - t_qp.achieved_mpr) <= 0.02 * mpr0
        assert abs(t_ls.mean_similarity - t_qp.mean_similarity) <= 0.02 * sim0
    elapsed = time.time() - start
    assert elapsed < 60
    print(f"\nPASS acceptance 8: QP and least-squares-oracle curves agree within 2%, "
          f"{elapsed:.1f}s")


def test_acceptance_9_cli_determinism(tmp_path):
    """Every CLI command re-run with the same config produces identical bytes."""
    spec = {
        "n": 60, "m": 40, "d": 3,
        "group_axes": [{"name": "g", "cardinality": 2,
                        "retrieval_probs": [0.7, 0.3],
                        "curated_probs": [0.5, 0.5]}],
        "similarity_bias": {"g": [0.5, -0.5]},
        "seed": 3,
    }
    import json

    (tmp_path / "spec.json").write_text(json.dumps(spec))
    runs = [tmp_path / "run1", tmp_path / "run2"]
    for run in runs:
        run.mkdir()
        data = run / "data"
        assert main(["gen", "--spec", str(tmp_path / "spec.json"),
                     "--out", str(data)]) == 0
        io = ["--retrieval", str(data / "retrieval.csv"),
              "--curated", str(data / "curated.csv"),
              "--query", str(data / "query.csv")]
        assert main(["mpr"] + io + ["--k", "10", "--out", str(run / "mpr.json")]) == 0
        assert main(["retrieve"] + io + ["--k", "10", "--algo", "mopr",
                     "--rho", "0.2", "--oracle", "finite",
                     "--out", str(run / "sel.csv")]) == 0
        assert main(["sweep"] + io + ["--k", "10", "--rho-grid", "0.4,0.2,0.1",
                     "--oracle", "finite", "--out", str(run / "sweep.csv")]) == 0
        assert main(["bounds", "--vc", "3", "--epsilon", "0.1", "--queries", "10",
                     "--m", "10200", "--out", str(run / "bounds.json")]) == 0
        small = run / "small"
        spec_small = dict(spec, n=12, m=24, seed=4)
        (run / "spec_small.json").write_text(json.dumps(spec_small))
        assert main(["gen", "--spec", str(run / "spec_small.json"),
                     "--out", str(small)]) == 0
        assert main(["compare-ip",
                     "--retrieval", str(small / "retrieval.csv"),
                     "--curated", str(small / "curated.csv"),
                     "--query", str(small / "query.csv"),
                     "--k", "4", "--rho-grid", "0.8,0.5",
                     "--out", str(run / "cmp.csv")]) == 0
    artifacts = [
        "data/retrieval.csv", "data/curated.csv", "data/query.csv",
        "mpr.json", "sel.csv", "sweep.csv", "bounds.json", "cmp.csv",
    ]
    for rel in artifacts:
        b1 = (runs[0] / rel).read_bytes()
        b2 = (runs[1] / rel).read_bytes()
        assert b1 == b2, f"nondeterministic artifact: {rel}"
    # sidecars embed the resolved output paths, which necessarily differ
    # between run directories; normalize those before comparing
    t1 = (runs[0] / "sel.csv.config.json").read_text().replace(str(runs[0]), "<R>")
    t2 = (runs[1] / "sel.csv.config.json").read_text().replace(str(runs[1]), "<R>")
    assert t1 == t2
    artifacts.append("sel.csv.config.json")
    print(f"\nPASS acceptance 9: {len(artifacts)} CLI artifacts byte-identical "
          f"across re-runs")
