import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mopr.algorithm import MoprConfig, mopr_retrieve
from mopr.statclasses import all_cell_indicators
from mopr.metric import feature_groups, mpr_exact_finite

from mopr.datamodel import (
    DataFormatError,
    Dataset,
    DatasetSchema,
    GroupAxis,
    Query,
    SyntheticSpec,
    build_balanced_curation,
    generate_synthetic,
    load_dataset,
    load_ids,
    load_query,
    reconcile,
    save_dataset,
    save_ids,
    save_query,
    write_csv,
)

# Python 3.10's csv reader rejects a NUL character, which 3.11 reads back
ID_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                                blacklist_characters="\x00" if sys.version_info < (3, 11) else ""))


def small_spec(seed=0, n=50, m=40):
    return SyntheticSpec(
        n=n,
        m=m,
        d=3,
        group_axes=(GroupAxis("g", 2, (0.7, 0.3), (0.5, 0.5)),),
        similarity_bias={"g": (0.5, -0.5)},
        seed=seed,
    )


class TestDatasetValidation:
    def test_basic_construction(self):
        ds = Dataset(["a"], [[1.0, 2.0]], [[0]], DatasetSchema(d=2, label_cards={"g": 2}))
        assert len(ds) == 1
        assert ds.ids == ["a"]

    def test_duplicate_id_rejected(self):
        with pytest.raises(DataFormatError, match="duplicate id"):
            Dataset(["a", "a"], [[0.0, 0.0], [1.0, 1.0]], [[0], [1]],
                    DatasetSchema(d=2, label_cards={"g": 2}))

    def test_duplicate_id_names_second_row(self):
        with pytest.raises(DataFormatError, match=r"duplicate id 'b' at row 4$"):
            Dataset(["b", "a", "c", "b", "a"], np.zeros((5, 1)), np.zeros((5, 1)),
                    DatasetSchema(d=1, label_cards={"g": 1}))

    def test_wrong_embedding_shape_rejected(self):
        with pytest.raises(DataFormatError, match=r"shape \(2, 3\), expected \(2, 2\)"):
            Dataset(["a", "b"], np.zeros((2, 3)), [[0], [0]],
                    DatasetSchema(d=2, label_cards={"g": 2}))

    def test_label_code_out_of_range(self):
        with pytest.raises(DataFormatError):
            Dataset(["a"], np.zeros((1, 2)), [[5]], DatasetSchema(d=2, label_cards={"g": 2}))

    def test_range_check_names_first_bad_row_and_axis(self):
        labels = [[0, 1], [1, 0], [0, 2], [5, 0], [-1, 0]]
        with pytest.raises(DataFormatError, match=r"^row 3: label h=2 outside cardinality 2$"):
            Dataset([f"i{j}" for j in range(5)], np.zeros((5, 1)), labels,
                    DatasetSchema(d=1, label_cards={"h": 2, "g": 2}))
        with pytest.raises(DataFormatError, match=r"^row 3: label g=5 outside cardinality 2$"):
            Dataset([f"i{j}" for j in range(4)], np.zeros((4, 1)), labels[1:],
                    DatasetSchema(d=1, label_cards={"h": 3, "g": 2}))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_embedding_names_row_and_column(self, value):
        embeddings = np.ones((3, 2))
        embeddings[1, 1] = value
        with pytest.raises(DataFormatError, match=rf"^row 2: embedding e1={value} is not finite$"):
            Dataset(["a", "b", "c"], embeddings, [[0], [1], [0]],
                    DatasetSchema(d=2, label_cards={"g": 2}))

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataFormatError, match="empty"):
            Dataset([], np.zeros((0, 2)), np.zeros((0, 0)), DatasetSchema(d=2, label_cards={}))

    def test_matrices_are_readonly(self):
        ds = Dataset(["a"], np.zeros((1, 2)), [[0]], DatasetSchema(d=2, label_cards={"g": 2}))
        with pytest.raises(ValueError):
            ds.embeddings[0, 0] = 1.0

    def test_caller_arrays_are_copied(self):
        embeddings, labels, ids = np.zeros((2, 2)), np.array([[0], [1]]), ["a", "b"]
        ds = Dataset(ids, embeddings, labels, DatasetSchema(d=2, label_cards={"g": 2}))
        embeddings[0, 0], labels[0, 0], ids[0] = 7.0, 1, "z"
        assert ds.embeddings.tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert ds.labels.tolist() == [[0], [1]]
        assert ds.ids == ["a", "b"]
        assert ds.embeddings.dtype == np.float64 and ds.labels.dtype == np.int64

    def test_ids_differing_by_a_trailing_nul_are_distinct(self):
        # a numpy string array pads with NULs, so it would take these for one id
        ds = Dataset(["a", "a\x00"], np.zeros((2, 1)), np.zeros((2, 0)), DatasetSchema(1, {}))
        assert ds.ids == ["a", "a\x00"]

    def test_schema_and_role_cannot_change_once_the_pair_memo_holds_the_dataset(self, rng):
        cards = {"g": 2}
        d_r = Dataset(["a", "b"], rng.standard_normal((2, 2)), [[0], [1]], DatasetSchema(2, cards))
        d_c = Dataset(["c", "d"], rng.standard_normal((2, 2)), [[1], [0]], DatasetSchema(2, cards),
                      "curated")
        feature_groups(d_r, d_c, "labels")
        cards["g"] = 3  # the schema keeps a copy of the caller's dict
        assert d_r.schema.label_cards == {"g": 2}
        with pytest.raises(TypeError):
            d_r.schema.label_cards["g"] = 3
        with pytest.raises(AttributeError):
            d_r.schema = DatasetSchema(2, {"g": 3})
        with pytest.raises(AttributeError):
            d_r.role = "curated"
        assert d_r.schema == DatasetSchema(2, {"g": 2}) and d_r.role == "retrieval"

    def test_label_columns_sorted(self):
        ds = Dataset(["a"], np.zeros((1, 1)), [[0, 1]], DatasetSchema(d=1, label_cards={"b": 2, "a": 2}))
        assert ds.schema.label_names == ["a", "b"]
        assert ds.labels.tolist() == [[0, 1]]


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path, rng):
        ds = Dataset(
            [f"i{j}" for j in range(7)],
            rng.standard_normal((7, 3)),
            np.column_stack([np.arange(7) % 2, np.zeros(7, dtype=int)]),
            DatasetSchema(d=3, label_cards={"g": 2, "h": 1}),
        )
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.ids == ds.ids
        assert np.array_equal(back.embeddings, ds.embeddings)
        assert np.array_equal(back.labels, ds.labels)

    def test_save_is_byte_stable(self, tmp_path, rng):
        ds = Dataset(
            [f"i{j}" for j in range(4)],
            rng.standard_normal((4, 2)),
            np.zeros((4, 1), dtype=int),
            DatasetSchema(d=2, label_cards={"g": 1}),
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset(ds, p1)
        save_dataset(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_parse_fixture(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("id,e0,e1,g_gender\na,1.0,2.0,1\nb,0.5,0.25,0\nc,0,0,1\n")
        ds = load_dataset(path)
        assert len(ds) == 3
        assert ds.schema.d == 2
        assert ds.schema.label_cards == {"gender": 2}

    def test_empty_data_section(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("id,e0,g_g\n")
        with pytest.raises(DataFormatError, match="empty dataset"):
            load_dataset(path)

    def test_short_row_names_row_number(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("id,e0,e1\na,1.0,2.0\nb,1.0\n")
        with pytest.raises(DataFormatError, match="row 2"):
            load_dataset(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("id,e0\na,oops\n")
        with pytest.raises(DataFormatError, match="row 1"):
            load_dataset(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("name,e0\na,1.0\n")
        with pytest.raises(DataFormatError, match="header"):
            load_dataset(path)

    def test_query_round_trip(self, tmp_path):
        q = Query("q0", np.array([0.1, -2.5]))
        path = tmp_path / "q.csv"
        save_query(q, path)
        back = load_query(path)
        assert back.id == "q0"
        assert np.array_equal(back.embedding, q.embedding)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                    min_size=2, max_size=2))
    def test_float_serialization_round_trips(self, tmp_path_factory, values):
        ds = Dataset(["a"], [values], np.zeros((1, 0)), DatasetSchema(d=2, label_cards={}))
        path = tmp_path_factory.mktemp("rt") / "ds.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert np.array_equal(back.embeddings, ds.embeddings)


class TestFiles:
    """One writer and one reader per file; a read error names its file."""

    @staticmethod
    def dataset(ids):
        n = len(ids)
        return Dataset(ids, np.arange(2.0 * n).reshape(n, 2), np.arange(n)[:, None] % 2,
                       DatasetSchema(2, {"g": 2}))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(ID_TEXT, min_size=1, max_size=6, unique=True))
    @example(["item,7", 'say "hi"', " lead", "two\nlines", "bare\rcr", "", "id", "é✓"])
    def test_any_ids_round_trip_through_the_dataset_file(self, tmp_path_factory, ids):
        path = tmp_path_factory.mktemp("ids") / "ds.csv"
        save_dataset(self.dataset(ids), path)
        assert load_dataset(path).ids == ids

    @settings(max_examples=60, deadline=None)
    @given(st.lists(ID_TEXT, max_size=6))
    @example(["id", "item,7", 'say "hi"', " lead ", "two\nlines", "bare\rcr", ""])
    def test_any_ids_round_trip_through_the_ids_file(self, tmp_path_factory, ids):
        path = tmp_path_factory.mktemp("ids") / "ids.csv"
        save_ids(ids, path)
        assert load_ids(path) == ids

    def test_ids_file_header_is_skipped_only_when_exactly_id(self, tmp_path):
        path = tmp_path / "ids.csv"
        path.write_text("id\nr1\n\nid\n")
        assert load_ids(path) == ["r1", "id"]  # a blank line holds no id
        path.write_text(" id\nr1\n")
        assert load_ids(path) == [" id", "r1"]  # ids are read verbatim

    def test_ids_file_row_of_two_cells_names_the_file_and_row(self, tmp_path):
        path = tmp_path / "ids.csv"
        path.write_text("id\nr1,r2\n")
        with pytest.raises(DataFormatError, match=r"ids\.csv: row 2: expected 1 cell, got 2$"):
            load_ids(path)

    def test_a_row_with_a_bare_cr_is_quoted_whole(self, tmp_path):
        path = tmp_path / "f.csv"
        write_csv(path, ["id", "x"], [["a\rb", "1.5"], ["c", 2.5]])
        assert path.read_bytes() == b'id,x\n"a\rb","1.5"\nc,2.5\n'

    @pytest.mark.parametrize("text, message", [
        ("", "empty dataset"),
        ("id,e0\n", "empty dataset"),
        ("name,e0\na,1\n", "malformed header"),
        ("id,e0\na,1\na,2\n", "duplicate id 'a' at row 2"),
        ("id,e0\na,nan\n", "row 1: embedding e0=nan is not finite"),
        ("id,e0,g_g\na,1,1.5\n", "row 1: invalid literal for int() with base 10: '1.5'"),
        ("id,e0\n" + "a" * 200_000 + ",1\n", "field larger than field limit"),  # a csv.Error
    ])
    def test_dataset_read_error_starts_with_the_path(self, tmp_path, text, message):
        path = tmp_path / "pool.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError) as info:
            load_dataset(path)
        assert str(info.value).startswith(f"{path}: ")
        assert message in str(info.value)

    def test_file_that_is_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "pool.csv"
        path.write_bytes(b"id,e0\n\xff,1\n")
        with pytest.raises(DataFormatError, match=r"pool\.csv: .*utf-8"):
            load_dataset(path)

    @pytest.mark.parametrize("text, got", [
        ("id,e0,g_g\nq,1,0\n", "got 1, 1"),
        ("id,e0\nq,1\nr,2\n", "got 2, 0"),
        ("id,e0\n", "empty dataset"),
        ("id,x0\nq,1\n", "malformed header"),
        ("id,e0,e1\nq,1\n", "row 1: expected 3 cells, got 2"),
    ])
    def test_malformed_query_file_names_the_file(self, tmp_path, text, got):
        path = tmp_path / "query.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError) as info:
            load_query(path)
        assert str(info.value).startswith(f"{path}: ") and got in str(info.value)

    def test_query_file_reads_back_as_written(self, tmp_path):
        q = Query("q,0", np.array([0.1, -2.5, 1e-300]))
        path = tmp_path / "q.csv"
        save_query(q, path)
        again = tmp_path / "again.csv"
        save_query(load_query(path), again)
        assert again.read_bytes() == path.read_bytes() == (
            b'id,e0,e1,e2\n"q,0",0.10000000000000001,-2.5,1e-300\n')


class TestSyntheticGeneration:
    def test_deterministic(self, tmp_path):
        d_r1, d_c1, q1 = generate_synthetic(small_spec())
        d_r2, d_c2, q2 = generate_synthetic(small_spec())
        assert np.array_equal(d_r1.embeddings, d_r2.embeddings)
        assert np.array_equal(d_c1.labels, d_c2.labels)
        assert np.array_equal(q1.embedding, q2.embedding)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset(d_r1, p1)
        save_dataset(d_r2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sizes_and_roles(self):
        d_r, d_c, q = generate_synthetic(small_spec())
        assert len(d_r) == 50 and d_r.role == "retrieval"
        assert len(d_c) == 40 and d_c.role == "curated"
        assert q.embedding.shape == (3,)

    def test_curated_counts_near_uniform(self):
        spec = SyntheticSpec(
            n=10,
            m=1000,
            d=2,
            group_axes=(GroupAxis("g", 2, (0.5, 0.5), (0.5, 0.5)),),
            seed=1,
        )
        _, d_c, _ = generate_synthetic(spec)
        count0 = int(np.sum(d_c.labels[:, 0] == 0))
        # binomial(1000, 0.5): 3 sigma is about 47
        assert abs(count0 - 500) < 48

    def test_bias_skews_topk(self):
        from mopr.similarity import top_k

        spec = SyntheticSpec(
            n=300,
            m=50,
            d=3,
            group_axes=(GroupAxis("g", 2, (0.9, 0.1), (0.5, 0.5)),),
            similarity_bias={"g": (1.0, -1.0)},
            seed=2,
        )
        d_r, _, q = generate_synthetic(spec)
        sel, _ = top_k(d_r, q, 30)
        frac0 = float(np.mean(d_r.labels[sel.indices, 0] == 0))
        assert frac0 > 0.9

    def test_spec_json_round_trip(self):
        spec = small_spec(seed=9)
        assert SyntheticSpec.from_json(spec.to_json()) == spec

    def test_spec_json_bytes(self):
        axis = GroupAxis("g", 2, (0.5, 0.5), (1.0, 0.0))
        spec = SyntheticSpec(n=4, m=3, d=2, group_axes=(axis,), similarity_bias={"g": (0.5, -0.5)},
                             seed=1)
        assert spec.to_json() == (
            '{\n  "d": 2,\n  "group_axes": [\n    {\n      "cardinality": 2,\n'
            '      "curated_probs": [\n        1.0,\n        0.0\n      ],\n'
            '      "name": "g",\n      "retrieval_probs": [\n        0.5,\n        0.5\n'
            '      ]\n    }\n  ],\n  "m": 3,\n  "n": 4,\n  "seed": 1,\n'
            '  "similarity_bias": {\n    "g": [\n      0.5,\n      -0.5\n    ]\n  }\n}'
        )
        assert SyntheticSpec.from_json(spec.to_json()) == spec

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError, match="sum to 1"):
            GroupAxis("g", 2, (0.7, 0.4), (0.5, 0.5))

    def test_unknown_bias_axis(self):
        with pytest.raises(ValueError, match="unknown axis"):
            SyntheticSpec(
                n=5, m=5, d=2,
                group_axes=(GroupAxis("g", 2, (0.5, 0.5), (0.5, 0.5)),),
                similarity_bias={"nope": (0.0, 0.0)},
            )


class TestBalancedCuration:
    def test_2x5_counts(self):
        ds = build_balanced_curation({"gender": 2, "race": 5}, 100)
        assert len(ds) == 100
        cells, counts = np.unique(ds.labels, axis=0, return_counts=True)
        assert len(cells) == 10
        assert np.all(counts == 10)

    def test_minimal_case(self):
        ds = build_balanced_curation({"g": 2}, 2)
        assert len(ds) == 2
        assert sorted(ds.labels[:, 0].tolist()) == [0, 1]

    def test_divisibility_error(self):
        with pytest.raises(ValueError, match="divisible"):
            build_balanced_curation({"gender": 2, "race": 5}, 99)

    def test_one_hot_embeddings(self):
        ds = build_balanced_curation({"a": 2, "b": 3}, 6)
        assert ds.schema.d == 5
        assert np.all(ds.embeddings.sum(axis=1) == 2)
        assert set(np.unique(ds.embeddings)) == {0.0, 1.0}

    def test_marginals_factorize(self):
        # exact balance: each marginal cell frequency is the product of marginals
        ds = build_balanced_curation({"a": 2, "b": 3}, 12)
        hot_a = (ds.labels[:, 0] == 0).astype(float)
        hot_b = (ds.labels[:, 1] == 0).astype(float)
        assert np.mean(hot_a * hot_b) == pytest.approx(np.mean(hot_a) * np.mean(hot_b))


class TestReconcile:
    """Each CSV implies its label cardinalities from the codes it holds."""

    @staticmethod
    def write_pair(tmp_path, curated_codes, curated_axis="g"):
        rng = np.random.default_rng(5)
        codes = [i % 3 for i in range(24)]
        d_r = Dataset([f"r{i}" for i in range(24)], rng.standard_normal((24, 3)),
                      [[c] for c in codes], DatasetSchema(d=3, label_cards={"g": 3}))
        d_c = Dataset([f"c{i}" for i in range(len(curated_codes))],
                      rng.standard_normal((len(curated_codes), 3)), [[c] for c in curated_codes],
                      DatasetSchema(d=3, label_cards={curated_axis: 3}), "curated")
        save_dataset(d_r, tmp_path / "retrieval.csv")
        save_dataset(d_c, tmp_path / "curated.csv")
        return (load_dataset(tmp_path / "retrieval.csv", "retrieval"),
                load_dataset(tmp_path / "curated.csv", "curated"))

    def test_curated_file_without_a_category_retrieves_under_the_finite_class(self, tmp_path):
        d_r, d_c = self.write_pair(tmp_path, [i % 2 for i in range(16)])
        assert d_c.schema.label_cards == {"g": 2}  # the file holds no g = 2
        r_r, r_c = reconcile(d_r, d_c)
        assert r_r is d_r
        assert r_c.schema.label_cards == {"g": 3}
        assert r_c.ids == d_c.ids and np.array_equal(r_c.labels, d_c.labels)
        assert np.array_equal(r_c.embeddings, d_c.embeddings) and r_c.role == "curated"
        cfg = MoprConfig(rho=0.4, T=20, oracle_kind="finite")
        sel, trace = mopr_retrieve(r_r, r_c, Query("q", np.eye(3)[0]), 6, cfg)
        indicators = all_cell_indicators({"g": 3})
        assert trace.achieved_mpr == mpr_exact_finite(sel, r_r, r_c, indicators).value

    def test_without_it_the_finite_class_rejects_the_pair(self, tmp_path):
        d_r, d_c = self.write_pair(tmp_path, [i % 2 for i in range(16)])
        with pytest.raises(ValueError, match="disagree on label cardinalities"):
            mopr_retrieve(d_r, d_c, Query("q", np.eye(3)[0]), 6,
                          MoprConfig(rho=0.4, T=20, oracle_kind="finite"))

    def test_pair_that_agrees_is_returned_as_it_is(self, tmp_path):
        d_r, d_c = self.write_pair(tmp_path, [i % 3 for i in range(16)])
        pair = reconcile(d_r, d_c)
        assert pair[0] is d_r and pair[1] is d_c

    def test_axis_names_must_match(self, tmp_path):
        d_r, d_c = self.write_pair(tmp_path, [i % 3 for i in range(16)], curated_axis="h")
        with pytest.raises(ValueError, match=r"retrieval labels \['g'\] and curated labels \['h'\] differ"):
            reconcile(d_r, d_c)
