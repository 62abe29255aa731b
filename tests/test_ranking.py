import itertools
from importlib import resources

import pytest

from xfersel import fixtures
from xfersel.errors import (
    DuplicateTaskIdError,
    IdSetMismatchError,
    InvalidSpecError,
    IoFailureError,
    KOutOfRangeError,
    NonFiniteScoreError,
    UnknownTaskError,
)
from xfersel.ranking import (
    build_ranking,
    footrule_full,
    footrule_topk,
    ranking_to_csv,
    read_ranking_csv,
    write_ranking_csv,
)

from oracles import footrule_reference


def ranking_of(order):
    """Ranking whose positions follow the given id order."""
    n = len(order)
    return build_ranking([(t, float(n - i)) for i, t in enumerate(order)])


class TestBuildRanking:
    def test_simple_descending(self):
        r = build_ranking([("a", 0.9), ("b", 0.5)])
        assert r.position == {"a": 1, "b": 2}

    def test_tie_breaks_by_input_order(self):
        r = build_ranking([("a", 0.5), ("b", 0.5)])
        assert r.position == {"a": 1, "b": 2}
        r2 = build_ranking([("b", 0.5), ("a", 0.5)])
        assert r2.position == {"b": 1, "a": 2}

    def test_reference_dice_column(self):
        r = build_ranking(fixtures.reference_scores("ET-20-T1", "dice"))
        assert r.task_at(1) == "ED-17-T1"
        assert r.entries[0][1] == pytest.approx(0.680)
        assert r.task_at(16) == "NCR-13-T1"
        assert r.entries[15][1] == pytest.approx(0.498)

    def test_duplicate_and_nonfinite_rejected(self):
        with pytest.raises(DuplicateTaskIdError):
            build_ranking([("a", 1.0), ("a", 0.5)])
        with pytest.raises(NonFiniteScoreError):
            build_ranking([("a", float("nan"))])
        with pytest.raises(InvalidSpecError):
            build_ranking([])


class TestFootruleFull:
    def test_swap_of_two(self):
        # rank vectors [1,2,3] vs [2,1,3]
        assert footrule_full(ranking_of("abc"),
                             ranking_of("bac")).distance == 2

    def test_identical_is_zero(self):
        r = ranking_of("abcd")
        assert footrule_full(r, r).distance == 0

    def test_full_reversal(self):
        assert footrule_full(ranking_of("abcd"),
                             ranking_of("dcba")).distance == 8

    def test_symmetry(self):
        a = ranking_of("abcde")
        b = ranking_of("caebd")
        assert footrule_full(a, b).distance == footrule_full(b, a).distance

    def test_exhaustive_against_position_lookup(self):
        items = list("abcde")
        truth = ranking_of(items)
        for perm in itertools.permutations(items):
            got = footrule_full(ranking_of(perm), truth).distance
            assert got == footrule_reference(list(perm), items)

    def test_id_set_mismatch(self):
        with pytest.raises(IdSetMismatchError):
            footrule_full(ranking_of("ab"), ranking_of("ac"))


class TestFootruleTopk:
    def test_full_pool_topk_equals_full(self):
        pred = ranking_of("cadb")
        truth = ranking_of("abcd")
        assert footrule_topk(pred, truth, 4).distance == \
            footrule_full(pred, truth).distance

    def test_monotone_in_k(self):
        pred = ranking_of("cadb")
        truth = ranking_of("abcd")
        distances = [footrule_topk(pred, truth, k).distance
                     for k in range(1, 5)]
        assert distances == sorted(distances)

    def test_filtered_pool_against_full_truth(self):
        truth = ranking_of(["s1", "s2", "s3", "s4", "s5"])
        pred = ranking_of(["s4", "s2"])
        # s4 sits at truth rank 4, charged |1 - 4|
        assert footrule_topk(pred, truth, 1).distance == 3
        # s2 at truth rank 2, charged |2 - 2|
        assert footrule_topk(pred, truth, 2).distance == 3

    def test_k_out_of_range(self):
        pred = ranking_of("ab")
        truth = ranking_of("ab")
        for k in (0, 3):
            with pytest.raises(KOutOfRangeError):
                footrule_topk(pred, truth, k)

    def test_unknown_task(self):
        with pytest.raises(UnknownTaskError):
            footrule_topk(ranking_of("ax"), ranking_of("ab"), 2)

    def test_benchmark_hscore_baseline_top1(self):
        truth = build_ranking(fixtures.reference_scores("ET-20-T1", "dice"))
        pred = build_ranking(fixtures.reference_scores("ET-20-T1", "hscore"))
        report = footrule_topk(pred, truth, 1)
        assert pred.task_at(1) == "NCR-17-T2"
        assert truth.position["NCR-17-T2"] == 15
        assert report.distance == 14

    def test_benchmark_subset_hscore_top2(self):
        truth = build_ranking(fixtures.reference_scores("ET-22-T2", "dice"))
        subset = [s for s in fixtures.reference_scores("ET-22-T2", "hscore")
                  if s[0].startswith("ED-") and s[0].endswith("-T2")]
        pred = build_ranking(subset)
        assert footrule_topk(pred, truth, 2).distance == 5


class TestCsvRoundTrip:
    def test_roundtrip(self, tmp_path):
        r = build_ranking([("a", 1.25), ("b", 0.5), ("c", 0.5)])
        path = tmp_path / "r.csv"
        write_ranking_csv(r, path)
        text = path.read_text()
        assert text.startswith("task_id,score,rank\n")
        assert "\r" not in text
        loaded = read_ranking_csv(path)
        assert loaded.position == r.position

    def test_write_under_missing_directory(self, tmp_path):
        r = build_ranking([("a", 1.0)])
        path = tmp_path / "missing" / "r.csv"
        with pytest.raises(IoFailureError) as info:
            write_ranking_csv(r, path)
        assert str(path) in info.value.detail
        assert not path.parent.exists()

    def test_six_decimal_scores(self):
        text = ranking_to_csv(build_ranking([("a", 1 / 3)]))
        assert "0.333333" in text

    def test_rank_column_is_authoritative(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("task_id,score,rank\nb,0.100000,2\na,0.900000,1\n")
        loaded = read_ranking_csv(path)
        assert loaded.task_at(1) == "a"

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("wrong,header\n")
        with pytest.raises(InvalidSpecError):
            read_ranking_csv(path)
        path.write_text("task_id,score,rank\na,0.5,1\nb,0.4,3\n")
        with pytest.raises(InvalidSpecError):
            read_ranking_csv(path)

    def test_rank_written_as_float(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("task_id,score,rank\na,0.9,1.0\nb,0.1,2\n")
        assert read_ranking_csv(path).task_ids == ("a", "b")

    @pytest.mark.parametrize("text, read, expected", [
        ('task_id,score,rank\n"a\nb",0.5,1\n',
         lambda path: read_ranking_csv(path).task_ids, ("a\nb",)),
        ('task_id,dice\n"a\nb",0.5\n', fixtures.read_scores_csv,
         {"a\nb": {"dice": 0.5}}),
    ], ids=["ranking", "scores"])
    def test_quoted_newline_in_task_id(self, tmp_path, text, read, expected):
        # both readers parse the whole text, so a quoted field keeps its
        # newline
        path = tmp_path / "r.csv"
        path.write_text(text)
        assert read(path) == expected

    @pytest.mark.parametrize("rows, error, task", [
        ("dup-id,0.5,1\ndup-id,0.4,2\n", DuplicateTaskIdError, "dup-id"),
        ("ok-id,0.5,1\nnan-id,nan,2\n", NonFiniteScoreError, "nan-id"),
        # a repeated id is named before the gap in the ranks it leaves
        ("dup-id,0.5,1\ndup-id,0.4,3\n", DuplicateTaskIdError, "dup-id"),
    ])
    def test_bad_entry_names_file_and_task(self, tmp_path, rows, error, task):
        path = tmp_path / "r.csv"
        path.write_text("task_id,score,rank\n" + rows)
        with pytest.raises(error) as info:
            read_ranking_csv(path)
        assert str(path) in str(info.value)
        assert task in str(info.value)


@pytest.mark.parametrize("target", fixtures.TARGETS)
def test_reference_table_is_the_scores_reader(target):
    """The packaged tables go through the ``--scores-file`` reader."""
    path = resources.files("xfersel.data").joinpath(fixtures._FILES[target])
    rows = fixtures.reference_table(target)
    file_order = [line.split(",")[0]
                  for line in path.read_text().splitlines()[1:]]
    assert rows == [{"task_id": t, **r}
                    for t, r in fixtures.read_scores_csv(path).items()]
    assert [r["task_id"] for r in rows] == file_order
    assert len(rows) == len(set(file_order)) == 16
