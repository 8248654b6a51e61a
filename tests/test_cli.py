import argparse
import csv
import json

import numpy as np
import pytest

from conftest import make_dataset
from mopr import algorithm, cli, statclasses
from mopr.algorithm import ORACLE_KINDS
from mopr.cli import build_parser, main
from mopr.datamodel import (
    FLOAT_FMT,
    Dataset,
    GroupAxis,
    Query,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
    save_query,
)
from mopr.metric import (
    CellCounts,
    mpr_closed_form_linear,
    mpr_exact_finite,
    mpr_rkhs,
    mpr_via_oracle,
)
from mopr.similarity import Selection, similarity_vector, top_k
from mopr.solver import solve_ip_exact, solve_lp
from mopr.statclasses import FEATURE_VIEWS, all_cell_indicators


def write_fixture(tmp_path, seed=3, n=60, m=40):
    spec = SyntheticSpec(
        n=n,
        m=m,
        d=3,
        group_axes=(GroupAxis("g", 2, (0.7, 0.3), (0.5, 0.5)),),
        similarity_bias={"g": (0.5, -0.5)},
        seed=seed,
    )
    d_r, d_c, q = generate_synthetic(spec)
    save_dataset(d_r, tmp_path / "retrieval.csv")
    save_dataset(d_c, tmp_path / "curated.csv")
    save_query(q, tmp_path / "query.csv")
    (tmp_path / "spec.json").write_text(spec.to_json())
    return d_r, d_c, q


def io_args(tmp_path):
    return [
        "--retrieval", str(tmp_path / "retrieval.csv"),
        "--curated", str(tmp_path / "curated.csv"),
        "--query", str(tmp_path / "query.csv"),
    ]


class TestGen:
    def test_writes_datasets_and_sidecar(self, tmp_path):
        write_fixture(tmp_path)
        out = tmp_path / "out"
        code = main(["gen", "--spec", str(tmp_path / "spec.json"), "--out", str(out)])
        assert code == 0
        assert (out / "retrieval.csv").exists()
        assert (out / "curated.csv").exists()
        assert (out / "query.csv").exists()
        sidecar = json.loads((out / "datasets.config.json").read_text())
        assert sidecar["spec"]["seed"] == 3

    def test_matches_library_output(self, tmp_path):
        write_fixture(tmp_path)
        out = tmp_path / "out"
        main(["gen", "--spec", str(tmp_path / "spec.json"), "--out", str(out)])
        assert (out / "retrieval.csv").read_bytes() == (
            tmp_path / "retrieval.csv"
        ).read_bytes()


class TestMprCommand:
    def test_oracle_equals_closed_form_end_to_end(self, tmp_path):
        write_fixture(tmp_path)
        args = io_args(tmp_path) + ["--k", "10"]
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["mpr"] + args + ["--out", str(out1)]) == 0
        assert main(["mpr"] + args + ["--method", "closed-form", "--out", str(out2)]) == 0
        v1 = json.loads(out1.read_text())["value"]
        v2 = json.loads(out2.read_text())["value"]
        assert v1 == pytest.approx(v2, abs=1e-6)

    def test_finite_method_matches_library(self, tmp_path):
        d_r, d_c, q = write_fixture(tmp_path)
        out = tmp_path / "rep.json"
        main(["mpr"] + io_args(tmp_path) + ["--k", "10", "--method", "finite",
                                            "--out", str(out)])
        sel, _ = top_k(d_r, q, 10)
        ref = mpr_exact_finite(sel, d_r, d_c, all_cell_indicators({"g": 2})).value
        assert json.loads(out.read_text())["value"] == pytest.approx(ref)

    def test_selection_file(self, tmp_path):
        d_r, _, _ = write_fixture(tmp_path)
        sel_file = tmp_path / "sel.csv"
        sel_file.write_text("id\n" + "\n".join(d_r.ids[:10]) + "\n")
        out = tmp_path / "rep.json"
        code = main(["mpr"] + io_args(tmp_path) + [
            "--k", "10", "--selection", str(sel_file), "--out", str(out)])
        assert code == 0
        assert out.exists()

    @pytest.mark.parametrize("k_args", [[], ["--k", "3"]], ids=["no-k", "other-k"])
    def test_selection_sets_k_and_the_sidecar_records_it(self, tmp_path, k_args):
        d_r, _, _ = write_fixture(tmp_path)
        sel_file = tmp_path / "sel.csv"
        sel_file.write_text("id\n" + "\n".join(d_r.ids[:10]) + "\n")
        out, ref = tmp_path / "rep.json", tmp_path / "ref.json"
        assert main(["mpr"] + io_args(tmp_path) + k_args + [
            "--selection", str(sel_file), "--out", str(out)]) == 0
        assert main(["mpr"] + io_args(tmp_path) + [
            "--k", "10", "--selection", str(sel_file), "--out", str(ref)]) == 0
        assert out.read_text() == ref.read_text()
        assert json.loads((tmp_path / "rep.json.config.json").read_text())["k"] == 10

    def test_neither_k_nor_selection_fails(self, tmp_path, capsys):
        write_fixture(tmp_path)
        assert main(["mpr"] + io_args(tmp_path)) == 1
        assert "mpr needs --k, or a --selection file" in capsys.readouterr().err

    @pytest.mark.parametrize("method, read", [
        ("oracle", {"oracle"}), ("closed-form", set()), ("rkhs", {"kernel"}),
        ("finite", set())])
    def test_sidecar_records_only_what_the_method_reads(self, tmp_path, method, read):
        write_fixture(tmp_path)
        out = tmp_path / "rep.json"
        assert main(["mpr"] + io_args(tmp_path) + [
            "--k", "10", "--method", method, "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "rep.json.config.json").read_text())
        common = {"command", "retrieval", "curated", "query", "k", "selection", "method",
                  "feature_view", "seed", "out"}
        assert set(sidecar) == common | read
        assert sidecar["k"] == 10 and sidecar["seed"] == 0

    def test_bad_selection_id_fails(self, tmp_path, capsys):
        write_fixture(tmp_path)
        sel_file = tmp_path / "sel.csv"
        sel_file.write_text("id\nnot-an-id\n")
        code = main(["mpr"] + io_args(tmp_path) + [
            "--k", "1", "--selection", str(sel_file)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["oracle", "closed-form", "rkhs", "finite"])
    def test_empty_selection_fails(self, tmp_path, capsys, method):
        write_fixture(tmp_path)
        sel_file = tmp_path / "sel.csv"
        sel_file.write_text("id\n")
        code = main(["mpr"] + io_args(tmp_path) + [
            "--k", "1", "--selection", str(sel_file), "--method", method])
        assert code == 1
        assert "at least one item" in capsys.readouterr().err

    def test_duplicate_selection_id_fails(self, tmp_path, capsys):
        write_fixture(tmp_path)
        sel_file = tmp_path / "sel.csv"
        sel_file.write_text("id\nr0\nr1\nr0\n")
        code = main(["mpr"] + io_args(tmp_path) + [
            "--k", "3", "--selection", str(sel_file)])
        assert code == 1
        assert "'r0' appears more than once" in capsys.readouterr().err


class TestIdsFile:
    """The ids ``retrieve --out`` writes are the ids ``mpr --selection`` reads."""

    IDS = ["item,7", 'say "hi"', " lead", "trail ", "two\nlines", "id", "plain"]

    def write_pool(self, tmp_path):
        d_r, _, _ = write_fixture(tmp_path, n=12, m=24)
        ids = self.IDS + [f"r{i}" for i in range(len(self.IDS), len(d_r))]
        save_dataset(Dataset(ids, d_r.embeddings, d_r.labels, d_r.schema), tmp_path / "retrieval.csv")
        return ids

    @pytest.mark.parametrize("algo", ["topk", "mmr"])
    def test_quoted_ids_round_trip_from_retrieve_to_mpr(self, tmp_path, algo):
        ids = self.write_pool(tmp_path)
        sel = tmp_path / "sel.csv"
        assert main(["retrieve"] + io_args(tmp_path) + [
            "--k", "9", "--algo", algo, "--out", str(sel)]) == 0
        with open(sel, newline="", encoding="utf-8") as fh:
            picked = [row[0] for row in csv.reader(fh)][1:]
        assert len(picked) == 9 and set(picked) <= set(ids) and set(self.IDS) & set(picked)
        by_file, by_k = tmp_path / "by-file.json", tmp_path / "by-k.json"
        assert main(["mpr"] + io_args(tmp_path) + [
            "--selection", str(sel), "--method", "closed-form", "--out", str(by_file)]) == 0
        if algo == "topk":
            assert main(["mpr"] + io_args(tmp_path) + [
                "--k", "9", "--method", "closed-form", "--out", str(by_k)]) == 0
            assert by_file.read_bytes() == by_k.read_bytes()

    def test_hand_written_id_with_spaces_is_not_stripped(self, tmp_path, capsys):
        self.write_pool(tmp_path)
        sel = tmp_path / "sel.csv"
        sel.write_text("id\n r8\n")
        assert main(["mpr"] + io_args(tmp_path) + ["--selection", str(sel)]) == 1
        assert "selection id ' r8' not in retrieval dataset" in capsys.readouterr().err


def write_label_pair(tmp_path, retrieval_codes, curated_codes, curated_axis="g"):
    """Retrieval and curated CSVs whose label codes are given; returns both
    datasets as they should be read, with 3 categories on axis g.  A CSV
    holds codes only, so each file alone implies its largest code plus one."""
    rng = np.random.default_rng(5)
    pools = []
    for codes, axis, role, prefix in ((retrieval_codes, "g", "retrieval", "r"),
                                      (curated_codes, curated_axis, "curated", "c")):
        pools.append(make_dataset(rng.standard_normal((len(codes), 3)),
                                  [{axis: c} for c in codes], cards={axis: 3},
                                  role=role, prefix=prefix))
        save_dataset(pools[-1], tmp_path / f"{role}.csv")
    save_query(Query("q", np.array([1.0, 0.0, 0.0])), tmp_path / "query.csv")
    sel_file = tmp_path / "sel.csv"
    sel_file.write_text("id\n" + "\n".join(f"r{i}" for i in range(10)) + "\n")
    sel = Selection(np.array([1] * 10 + [0] * (len(retrieval_codes) - 10)), 10)
    return pools[0], pools[1], sel


class TestLabelReconciliation:
    """Each CSV implies its label cardinalities from the codes it holds, so a
    category present in only one of the two files must still be counted."""

    @pytest.mark.parametrize("method", ["oracle", "closed-form", "rkhs", "finite"])
    def test_retrieval_category_missing_from_curated(self, tmp_path, method):
        d_r, d_c, sel = write_label_pair(tmp_path, [i % 3 for i in range(30)],
                                         [i % 2 for i in range(20)])
        out = tmp_path / "rep.json"
        code = main(["mpr"] + io_args(tmp_path) + [
            "--k", "10", "--selection", str(tmp_path / "sel.csv"), "--method", method,
            "--out", str(out)])
        assert code == 0
        ref = {
            "oracle": lambda: mpr_via_oracle(sel, d_r, d_c),
            "closed-form": lambda: mpr_closed_form_linear(sel, d_r, d_c),
            "rkhs": lambda: mpr_rkhs(sel, d_r, d_c),
            "finite": lambda: mpr_exact_finite(sel, d_r, d_c, all_cell_indicators({"g": 3})),
        }[method]().value
        assert json.loads(out.read_text())["value"] == pytest.approx(ref, abs=1e-12)

    def test_retrieve_with_category_missing_from_curated(self, tmp_path):
        write_label_pair(tmp_path, [i % 3 for i in range(30)], [i % 2 for i in range(20)])
        out = tmp_path / "ids.csv"
        code = main(["retrieve"] + io_args(tmp_path) + [
            "--k", "10", "--algo", "mopr", "--rho", "0.3", "--oracle", "linear",
            "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 11

    def test_curated_category_missing_from_pool_is_checked(self, tmp_path):
        # the selection holds five items of g=0 and five of g=1; a quarter of
        # the curated items are g=0, a quarter g=1 and half g=2, which the pool
        # lacks, so the g=2 cell has the largest gap, 1.0, against 0.5 for the others
        d_r, d_c, sel = write_label_pair(tmp_path, [i % 2 for i in range(30)],
                                         [0] * 5 + [1] * 5 + [2] * 10)
        out = tmp_path / "rep.json"
        main(["mpr"] + io_args(tmp_path) + [
            "--k", "10", "--selection", str(tmp_path / "sel.csv"), "--method", "finite",
            "--out", str(out)])
        report = json.loads(out.read_text())
        assert report["value"] == pytest.approx(1.0)
        assert report["witness"]["params"]["cell"] == {"g": 2}
        assert report["value"] == mpr_exact_finite(
            sel, d_r, d_c, all_cell_indicators({"g": 3})).value

    @pytest.mark.parametrize("retrieval, curated", [
        ([i % 2 for i in range(30)], [0] * 5 + [1] * 5 + [2] * 10),
        ([1, 2] * 15, [1, 2] * 10),  # gap 0: the witness is the absent cell g = 0
    ])
    def test_finite_report_builds_no_indicator_list(self, tmp_path, monkeypatch, retrieval,
                                                    curated):
        # the report reads the cells present, not one indicator per cell of the schema
        d_r, d_c, sel = write_label_pair(tmp_path, retrieval, curated)
        expected = mpr_exact_finite(sel, d_r, d_c, all_cell_indicators({"g": 3})).to_json()

        def every_cell(cards):
            raise AssertionError("built an indicator for every cell")

        monkeypatch.setattr(statclasses, "all_cell_indicators", every_cell)
        monkeypatch.setattr(cli, "all_cell_indicators", every_cell, raising=False)
        for flags in (["--method", "finite"], ["--oracle", "finite"]):
            out = tmp_path / "rep.json"
            assert main(["mpr"] + io_args(tmp_path) + [
                "--k", "10", "--selection", str(tmp_path / "sel.csv"), *flags,
                "--out", str(out)]) == 0
            assert out.read_text() == expected + "\n"

    def test_label_names_must_match(self, tmp_path, capsys):
        write_label_pair(tmp_path, [i % 2 for i in range(30)], [i % 2 for i in range(20)],
                         curated_axis="h")
        code = main(["mpr"] + io_args(tmp_path) + ["--k", "10"])
        assert code == 1
        assert "retrieval labels ['g'] and curated labels ['h'] differ" in capsys.readouterr().err


class TestLoadInputs:
    def test_pools_that_agree_are_not_rebuilt(self, tmp_path, monkeypatch):
        # both files hold both categories, so the loaded datasets are kept
        d_r, d_c, _ = write_fixture(tmp_path)
        assert len(set(d_r.labels[:, 0])) == len(set(d_c.labels[:, 0])) == 2
        built = []
        init = Dataset.__init__
        monkeypatch.setattr(Dataset, "__init__",
                            lambda self, *args, **kw: built.append(self) or init(self, *args, **kw))
        assert main(["retrieve"] + io_args(tmp_path) + [
            "--k", "10", "--algo", "topk", "--out", str(tmp_path / "sel.csv")]) == 0
        assert len(built) == 2  # one per file, from load_dataset


class TestRetrieve:
    @pytest.mark.parametrize("algo", ["topk", "mmr", "mopr"])
    def test_all_algorithms_write_k_ids(self, tmp_path, algo):
        d_r, _, _ = write_fixture(tmp_path)
        out = tmp_path / f"{algo}.csv"
        code = main(["retrieve"] + io_args(tmp_path) + [
            "--k", "10", "--algo", algo, "--rho", "0.3", "--oracle", "finite",
            "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "id"
        assert len(rows) == 11
        assert set(rows[1:]) <= set(d_r.ids)
        sidecar = json.loads((tmp_path / f"{algo}.csv.config.json").read_text())
        assert sidecar["algo"] == algo
        assert sidecar["seed"] == 0

    @pytest.mark.parametrize("algo, read", [
        ("topk", set()), ("mmr", {"lam"}),
        ("mopr", {"rho", "oracle", "feature_view", "curation_pool", "trace"})],
        ids=["topk", "mmr", "mopr"])
    def test_sidecar_records_only_what_shaped_the_selection(self, tmp_path, algo, read):
        write_fixture(tmp_path)
        out = tmp_path / "sel.csv"
        assert main(["retrieve"] + io_args(tmp_path) + [
            "--k", "10", "--algo", algo, "--rho", "0.3", "--oracle", "finite",
            "--curation-pool", "4", "--lambda", "0.7", "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "sel.csv.config.json").read_text())
        common = {"command", "retrieval", "curated", "query", "k", "algo", "seed", "out"}
        assert set(sidecar) == common | read

    @pytest.mark.parametrize("oracle", ["finite", "linear"])
    @pytest.mark.parametrize("command", ["retrieve", "sweep"])
    def test_sidecar_records_iterations_only_for_a_loop(self, tmp_path, command, oracle):
        # the finite class's exact retrieval runs no loop, so reads no --iterations
        write_fixture(tmp_path)
        out = tmp_path / "out.csv"
        rho = ["--rho", "0.2"] if command == "retrieve" else ["--rho-grid", "0.2"]
        assert main([command] + io_args(tmp_path) + [
            "--k", "10", *rho, "--oracle", oracle, "--iterations", "7",
            "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "out.csv.config.json").read_text())
        assert sidecar.get("iterations") == (None if oracle == "finite" else 7)
        assert sidecar["oracle"] == oracle

    def test_mopr_qp_is_not_an_algorithm(self, tmp_path, capsys):
        write_fixture(tmp_path)
        with pytest.raises(SystemExit) as exited:
            main(["retrieve"] + io_args(tmp_path) + [
                "--k", "5", "--algo", "mopr-qp", "--out", str(tmp_path / "sel.csv")])
        assert exited.value.code == 2
        assert "invalid choice: 'mopr-qp'" in capsys.readouterr().err
        assert not (tmp_path / "sel.csv").exists()

    def test_trace_embedded_for_mopr(self, tmp_path):
        write_fixture(tmp_path)
        out = tmp_path / "sel.csv"
        main(["retrieve"] + io_args(tmp_path) + [
            "--k", "10", "--algo", "mopr", "--rho", "0.2", "--oracle", "finite",
            "--out", str(out)])
        sidecar = json.loads((out.parent / "sel.csv.config.json").read_text())
        assert "trace" in sidecar
        assert sidecar["trace"]["halted_by"] in ("constraint-satisfied", "stalled", "iteration-cap")


class TestSweep:
    def test_anchor_row(self, tmp_path):
        d_r, d_c, q = write_fixture(tmp_path)
        sel, _ = top_k(d_r, q, 10)
        mpr0 = mpr_exact_finite(sel, d_r, d_c, all_cell_indicators({"g": 2})).value
        out = tmp_path / "sweep.csv"
        code = main(["sweep"] + io_args(tmp_path) + [
            "--k", "10", "--rho-grid", repr(mpr0), "--oracle", "finite",
            "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["sim_frac_topk"]) == pytest.approx(1.0, abs=1e-9)
        assert float(rows[0]["mpr_frac_topk"]) == pytest.approx(1.0, abs=1e-9)


class TestBoundsCommand:
    def test_budget_and_vc(self, tmp_path):
        out = tmp_path / "bounds.json"
        code = main(["bounds", "--vc", "3", "--epsilon", "0.1", "--queries", "10",
                     "--m", "9600", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["query_budget"] == 10200
        assert doc["vc_rademacher_bound"] == pytest.approx(0.07529, abs=5e-4)

    def test_error_exit_code(self, capsys):
        assert main(["bounds", "--vc", "3", "--m", "1"]) == 1
        assert "error" in capsys.readouterr().err


class TestCompareIp:
    def test_one_finite_state_for_every_rho(self, tmp_path, monkeypatch):
        # the similarity vector, cell counts and ranked items are built once
        # per command and handed to the exact retrieval of each rho
        write_fixture(tmp_path, n=12, m=24)
        built, inner = [], algorithm._SweepCarry

        def counting(*args):
            built.append(inner(*args))
            return built[-1]

        monkeypatch.setattr(algorithm, "_SweepCarry", counting)
        assert main(["compare-ip"] + io_args(tmp_path) + [
            "--k", "4", "--rho-grid", "0.8,0.5,0.2", "--out", str(tmp_path / "cmp.csv")]) == 0
        assert len(built) == 1

    def test_dominance_rows(self, tmp_path):
        write_fixture(tmp_path, n=12, m=24)
        out = tmp_path / "cmp.csv"
        code = main(["compare-ip"] + io_args(tmp_path) + [
            "--k", "4", "--rho-grid", "0.8,0.5", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            if row["status"] != "optimal":
                continue
            assert float(row["ip_objective"]) <= float(row["lp_objective"]) + 1e-9

    def test_rounded_mpr_shows_a_broken_cut(self, tmp_path):
        # the top 5 of the LP point beat the LP bound only by breaking a cell cut
        write_fixture(tmp_path, seed=3, n=20, m=40)
        out = tmp_path / "cmp.csv"
        assert main(["compare-ip"] + io_args(tmp_path) + [
            "--k", "5", "--rho-grid", "0.3", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["rho", "status", "lp_objective", "rounded_objective",
                                 "rounded_mpr", "ip_objective"]
        row = rows[0]
        assert float(row["lp_objective"]) == pytest.approx(3.0501, abs=5e-5)
        assert float(row["rounded_objective"]) == pytest.approx(3.2200, abs=5e-5)
        assert float(row["rounded_mpr"]) == pytest.approx(0.35, abs=1e-12)  # above rho = 0.3
        assert float(row["ip_objective"]) <= float(row["lp_objective"]) + 1e-9

    def test_infeasible_row_leaves_figures_empty(self, tmp_path):
        write_fixture(tmp_path, n=12, m=24)
        out = tmp_path / "cmp.csv"
        assert main(["compare-ip"] + io_args(tmp_path) + [
            "--k", "4", "--rho-grid", "0", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1] == "0.0,infeasible,,,,"

    def test_infeasible_integer_program_keeps_the_lp_figures(self, tmp_path):
        # at rho = 0.1 the LP relaxation is feasible but no selection of 4 is:
        # the finite retrieval raises rho, and the row says so
        write_fixture(tmp_path, seed=4, n=22, m=40)
        out = tmp_path / "cmp.csv"
        assert main(["compare-ip"] + io_args(tmp_path) + [
            "--k", "4", "--rho-grid", "0.3,0.1", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["status"] for row in rows] == ["optimal", "ip-infeasible"]
        row = rows[1]
        assert row["ip_objective"] == ""
        for name in ("lp_objective", "rounded_objective", "rounded_mpr"):
            assert np.isfinite(float(row[name]))
        assert float(row["rounded_mpr"]) > 0.1  # no selection meets rho, the rounded one included

    def test_large_pool(self, tmp_path):
        # no pool size limit: the IP column is the exact finite retrieval, and
        # a row is ip-infeasible exactly when no selection reaches its rho,
        # which a scan of each cell's admitted counts tells
        d_r, d_c, _ = write_fixture(tmp_path, seed=5, n=240, m=40)
        out = tmp_path / "cmp.csv"
        grid = [0.5, 0.3, 0.2, 0.15, 0.1, 0.05, 0.02, 0.0]
        k = 7
        assert main(["compare-ip"] + io_args(tmp_path) + [
            "--k", str(k), "--rho-grid", ",".join(map(str, grid)), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        pool = [tuple(r) for r in d_r.labels.tolist()]
        curated = [tuple(r) for r in d_c.labels.tolist()]
        m = len(curated)

        def reachable(rho):
            low = high = 0
            for cell in set(pool) | set(curated):
                share = (2 * curated.count(cell) - m) / m
                admitted = [c for c in range(min(k, pool.count(cell)) + 1)
                            if abs((2 * c - k) / k - share) <= rho + 1e-9]
                if not admitted:
                    return False
                low, high = low + min(admitted), high + max(admitted)
            return low <= k <= high

        statuses = [row["status"] for row in rows]
        assert "optimal" in statuses and "ip-infeasible" in statuses
        for rho, row in zip(grid, rows):
            assert float(row["rho"]) == rho
            assert (row["status"] == "optimal") == reachable(rho), row
            if row["status"] == "optimal":
                assert float(row["ip_objective"]) <= float(row["lp_objective"]) + 1e-9

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_enumeration(self, tmp_path, seed):
        # on pools of at most 20 items each row's status and IP objective are
        # those of exhaustive enumeration under every cell cut
        rng = np.random.default_rng(seed)
        axes = tuple(GroupAxis(f"a{j}", card, tuple(rng.dirichlet(np.ones(card))),
                               tuple(rng.dirichlet(np.ones(card))))
                     for j, card in enumerate(rng.integers(2, 4, size=rng.integers(1, 3))))
        spec = SyntheticSpec(n=int(rng.integers(6, 21)), m=int(rng.integers(10, 50)), d=3,
                             group_axes=axes, seed=seed)
        d_r, d_c, q = generate_synthetic(spec)
        save_dataset(d_r, tmp_path / "retrieval.csv")
        save_dataset(d_c, tmp_path / "curated.csv")
        save_query(q, tmp_path / "query.csv")
        k = int(rng.integers(1, len(d_r)))
        grid = sorted(set(np.round(rng.uniform(0.0, 1.2, size=4), 2).tolist()), reverse=True)
        out = tmp_path / "cmp.csv"
        assert main(["compare-ip"] + io_args(tmp_path) + [
            "--k", str(k), "--rho-grid", ",".join(map(str, grid)), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        s = similarity_vector(d_r, q)
        counts = CellCounts.build(d_r, d_c, k)
        for rho, row in zip(grid, rows):
            cuts = [counts.cut(cell, rho) for cell in range(counts.curated.size)]
            if solve_lp(s, cuts, k).status != "optimal":
                assert (row["status"], row["ip_objective"]) == ("infeasible", "")
                continue
            try:
                ip = solve_ip_exact(s, cuts, k)
            except ValueError:
                assert (row["status"], row["ip_objective"]) == ("ip-infeasible", "")
                continue
            assert row["status"] == "optimal"
            assert row["ip_objective"] == FLOAT_FMT % float(s @ ip.indicator)


class TestEdgeValues:
    """NaN and negative values of rho and sigma fail with a message; +inf is
    no constraint."""

    @pytest.mark.parametrize("algo", ["mopr"])
    def test_retrieve_nan_rho(self, tmp_path, capsys, algo):
        write_fixture(tmp_path)
        code = main(["retrieve"] + io_args(tmp_path) + [
            "--k", "5", "--algo", algo, "--rho", "nan", "--out", str(tmp_path / "sel.csv")])
        assert code == 1
        assert "rho must be non-negative, got nan" in capsys.readouterr().err

    def test_sweep_nan_in_grid(self, tmp_path, capsys):
        write_fixture(tmp_path)
        out = tmp_path / "sweep.csv"
        code = main(["sweep"] + io_args(tmp_path) + [
            "--k", "5", "--rho-grid", "0.2,nan", "--out", str(out)])
        assert code == 1
        assert "rho must be non-negative, got nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid, message", [("nan", "got nan"), ("-0.1", "got -0.1")])
    def test_compare_ip_bad_rho(self, tmp_path, capsys, grid, message):
        write_fixture(tmp_path, n=12, m=24)
        code = main(["compare-ip"] + io_args(tmp_path) + [
            "--k", "4", "--rho-grid", grid, "--out", str(tmp_path / "cmp.csv")])
        assert code == 1
        assert f"cut bound must be non-negative, {message}" in capsys.readouterr().err

    def test_mpr_nan_sigma(self, tmp_path, capsys):
        write_fixture(tmp_path)
        code = main(["mpr"] + io_args(tmp_path) + [
            "--k", "5", "--method", "rkhs", "--kernel", "gaussian:nan"])
        assert code == 1
        assert "sigma > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("sweep", "--rho-grid", "0.2,x"),
        ("compare-ip", "--rho-grid", "0.5,"),
        ("mpr", "--kernel", "gaussian:x"),
    ])
    def test_not_a_number_names_the_flag(self, tmp_path, capsys, command, flag, value):
        write_fixture(tmp_path, n=12, m=24)
        bad = value.split(":")[-1].split(",")[-1]
        extra = ["--method", "rkhs"] if command == "mpr" else ["--out", str(tmp_path / "o.csv")]
        code = main([command] + io_args(tmp_path) + ["--k", "4", flag, value] + extra)
        assert code == 1
        assert f"mopr: error: {flag}: {bad!r} is not a number" in capsys.readouterr().err

    def test_infinite_rho_is_no_constraint(self, tmp_path):
        write_fixture(tmp_path, n=12, m=24)
        assert main(["retrieve"] + io_args(tmp_path) + [
            "--k", "4", "--rho", "inf", "--out", str(tmp_path / "sel.csv")]) == 0
        assert main(["retrieve"] + io_args(tmp_path) + [
            "--k", "4", "--algo", "topk", "--out", str(tmp_path / "top.csv")]) == 0
        assert (tmp_path / "sel.csv").read_bytes() == (tmp_path / "top.csv").read_bytes()
        out = tmp_path / "cmp.csv"
        assert main(["compare-ip"] + io_args(tmp_path) + [
            "--k", "4", "--rho-grid", "inf", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["status"] == "optimal" and row["ip_objective"] == row["lp_objective"]


class TestErrors:
    def test_query_dimension_mismatch(self, tmp_path, capsys):
        write_fixture(tmp_path)
        save_query(Query("q", np.ones(5)), tmp_path / "query.csv")
        code = main(["retrieve"] + io_args(tmp_path) + [
            "--k", "5", "--algo", "topk", "--out", str(tmp_path / "sel.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "query has dimension 5, but the dataset's embeddings have dimension 3" in err
        assert "matmul" not in err

    @pytest.mark.parametrize("algo, value", [("topk", "nan"), ("mopr", "inf")])
    def test_non_finite_query_cell(self, tmp_path, capsys, algo, value):
        write_fixture(tmp_path)
        (tmp_path / "query.csv").write_text(f"id,e0,e1,e2\nq0,{value},1,0\n")
        out = tmp_path / "sel.csv"
        code = main(["retrieve"] + io_args(tmp_path) + [
            "--k", "3", "--algo", algo, "--rho", "0.3", "--out", str(out)])
        assert code == 1
        assert f"query 'q0': embedding e0={value} is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_curated_cell(self, tmp_path, capsys):
        write_fixture(tmp_path)
        path = tmp_path / "curated.csv"
        rows = path.read_text().splitlines()
        cells = rows[2].split(",")
        cells[2] = "nan"  # e1 of the second data row
        rows[2] = ",".join(cells)
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "rep.json"
        code = main(["mpr"] + io_args(tmp_path) + [
            "--k", "3", "--method", "closed-form", "--feature-view", "embedding",
            "--out", str(out)])
        assert code == 1
        assert "row 2: embedding e1=nan is not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["retrieve", "--algo", "mopr", "--oracle", "finite", "--rho", "0.2"],
        ["sweep", "--oracle", "finite", "--rho-grid", "0.2"],
        ["mpr", "--method", "finite"],
        ["mpr", "--oracle", "finite"],
    ])
    @pytest.mark.parametrize("view", ["embedding", "concat"])
    def test_finite_class_rejects_other_views(self, tmp_path, capsys, argv, view):
        # the finite class is the label cells: a sidecar naming another view
        # would name a view the run did not use
        write_fixture(tmp_path)
        out = tmp_path / "out"
        code = main(argv[:1] + io_args(tmp_path) + ["--k", "10", *argv[1:], "--feature-view", view,
                                                    "--out", str(out)])
        assert code == 1
        assert f"the finite class needs the labels view, not '{view}'" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "out.config.json").exists()

    @pytest.mark.parametrize("text", ["id,e0,e1,e2,g_g\nq0,1,0,0,1\n",
                                      "id,e0,e1,e2\nq0,1,0,0\nq1,0,1,0\n",
                                      "query,e0,e1,e2\nq0,1,0,0\n"],
                             ids=["label-column", "two-rows", "bad-header"])
    def test_malformed_query_file_is_named(self, tmp_path, capsys, text):
        write_fixture(tmp_path)
        (tmp_path / "query.csv").write_text(text)
        code = main(["retrieve"] + io_args(tmp_path) + [
            "--k", "3", "--algo", "topk", "--out", str(tmp_path / "sel.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"mopr: error: {tmp_path / 'query.csv'}: ")

    def test_pool_passed_as_the_query_is_named(self, tmp_path, capsys):
        write_fixture(tmp_path)
        pool = str(tmp_path / "retrieval.csv")
        code = main(["mpr", "--retrieval", pool, "--curated", str(tmp_path / "curated.csv"),
                     "--query", pool, "--k", "5"])
        assert code == 1
        assert f"mopr: error: {pool}: expected 1 row, 0 label columns; got 60, 1" in (
            capsys.readouterr().err)

    def test_missing_file(self, tmp_path, capsys):
        code = main(["mpr", "--retrieval", str(tmp_path / "nope.csv"),
                     "--curated", str(tmp_path / "nope.csv"),
                     "--query", str(tmp_path / "nope.csv"), "--k", "5"])
        assert code == 1
        assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["mpr", "retrieve", "sweep"])
def test_oracle_and_view_choices_are_the_library_lists(command):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    choices = {a.dest: a.choices for a in sub.choices[command]._actions}
    assert tuple(choices["oracle"]) == ORACLE_KINDS
    assert tuple(choices["feature_view"]) == FEATURE_VIEWS
