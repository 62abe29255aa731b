"""The CLI error contract as a property over corrupted inputs.

Every run exits 0, 2 or 3.  A run that exits 0 writes nothing to stderr; any
other run writes exactly one ``ERROR <code>: <detail>`` line.  An exception
escaping ``main`` fails the property, so no input may end in a traceback.

Each example starts from a valid input (a bundle manifest or binary, a
ranking or scores CSV, a synth spec, a command line) and applies up to two
edits to it, so that runs reach every stage of the commands, not only the
first parser.  Inputs stay tiny: a pool of 4x8x8x2 bundles, at most 256
pixels per metric, at most two threads, and synth specs whose largest valid
draw is the default 6x16x32x32x4 one (about 0.5 MB of features per task).
"""

import contextlib
import io
import json
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xfersel.bundle import write_bundle
from xfersel.cli import main
from xfersel.ranking import build_ranking, ranking_to_csv
from xfersel.synth import SynthSpec, generate_tasks

POOL_SPEC = SynthSpec(n_tasks=3, n_samples=4, height=8, width=8, channels=2,
                      signal_strengths=(0.0, 0.5, 1.0))
POOL_IDS = [f"synth-{t:02d}-s{s:.2f}"
            for t, s in enumerate(POOL_SPEC.signal_strengths)]
TRUTH_CSV = ranking_to_csv(build_ranking([("a", 3.0), ("b", 2.0), ("c", 1.0)]))
SCORES_CSV = "task_id,hscore,otce\n" + "".join(
    f"{t},{0.1 * i},{-0.1 * i}\n" for i, t in enumerate(POOL_IDS))
SMALL_SPEC = {"n_tasks": 2, "n_samples": 4, "height": 8, "width": 8,
              "channels": 2, "signal_strengths": [0.0, 1.0], "seed": 1}
ERROR_LINE = re.compile(r"ERROR [A-Za-z]+: [^\n]*\n")
DELETE = object()

CONTRACT = settings(derandomize=True, database=None, deadline=None,
                    max_examples=40)


@pytest.fixture(scope="module")
def pool(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract") / "pool"
    for b in generate_tasks(POOL_SPEC):
        write_bundle(b, root / b.task_id)
    return root


@contextlib.contextmanager
def case(pool):
    """A fresh directory holding a copy of the pool; removed afterwards."""
    with tempfile.TemporaryDirectory(dir=pool.parent) as tmp:
        tmp = Path(tmp)
        shutil.copytree(pool, tmp / "pool")
        (tmp / "truth.csv").write_text(TRUTH_CSV)
        yield tmp


def assert_contract(tmp, argv):
    """Run the CLI in ``tmp``, where ``pool/...`` and ``*.csv`` arguments
    live, and check the exit status and stderr."""
    argv = [str(tmp / a) if a.startswith("pool") or a.endswith(".csv")
            else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = main(argv)
    err = stderr.getvalue()
    assert code in (0, 2, 3), (argv, code, err)
    if code == 0:
        assert err == "", (argv, err)
    else:
        assert ERROR_LINE.fullmatch(err), (argv, err)


# ---------------------------------------------------------------------------
# edits
# ---------------------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70)
    | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


def often(strategy, otherwise):
    """``strategy`` three times in four, else ``otherwise``."""
    return st.integers(0, 3).flatmap(
        lambda i: strategy if i < 3 else otherwise)


# (offset, byte): overwrite the byte at offset, or truncate there for None;
# offsets wrap around the data, small ones land in headers
byte_edit = st.tuples(st.integers(0, 40) | st.integers(0, 2**16),
                      st.none() | st.integers(0, 255))
byte_edits = often(st.just([]), st.lists(byte_edit, min_size=1, max_size=2))


def damaged(data: bytes, edits) -> bytes:
    data = bytearray(data)
    for offset, byte in edits:
        if not data:
            break
        if byte is None:
            del data[offset % len(data):]
        else:
            data[offset % len(data)] = byte
    return bytes(data)


def json_edits(typed: dict):
    """Edits to a JSON object: up to two key edits (a value of the key's own
    type, any JSON value, or deletion; "a.b" is key b of object a) or a
    replacement by any JSON value, then up to two byte edits."""
    key_edit = st.sampled_from(sorted(typed)).flatmap(
        lambda key: st.tuples(st.just(key), often(
            typed[key], json_values | st.just(DELETE))))
    return st.tuples(often(st.lists(key_edit, max_size=2)
                           .map(lambda e: (e, None)),
                           json_values.map(lambda v: ([], v))), byte_edits)


def edited_json(doc: dict, drawn) -> bytes:
    (edits, replacement), raw = drawn
    doc = json.loads(json.dumps(doc)) if replacement is None else replacement
    for key, value in edits:
        parent, _, name = key.rpartition(".")
        target = doc.get(parent) if parent else doc
        if not isinstance(target, dict):
            continue
        if value is DELETE:
            target.pop(name, None)
        else:
            target[name] = value
    return damaged(json.dumps(doc).encode(), raw)


cells = st.sampled_from(["a", "b", "c", POOL_IDS[0], "1", "2", "3", "0",
                         "-1", "0.5", "nan", "inf", "1e999", "x", "",
                         '"q,r"']) | st.text(max_size=4)


def edited_csv(text: str):
    """``text`` after up to two row edits (a cell replaced or appended, a
    row dropped or repeated), then up to two byte edits."""
    row_edit = st.tuples(st.sampled_from(["set", "append", "drop", "repeat"]),
                         st.integers(0, 99), st.integers(0, 9), cells)

    def apply(edits):
        grid = [line.split(",") for line in text.splitlines()]
        for op, i, j, cell in edits:
            if not grid:
                break
            i %= len(grid)
            if op == "set":
                grid[i][j % len(grid[i])] = cell
            elif op == "append":
                grid[i].append(cell)
            elif op == "drop":
                del grid[i]
            else:
                grid.insert(i, list(grid[i]))
        return ("\n".join(",".join(row) for row in grid) + "\n").encode()

    return st.tuples(st.lists(row_edit, max_size=2).map(apply),
                     byte_edits).map(lambda t: damaged(*t))


# ---------------------------------------------------------------------------
# bundles
# ---------------------------------------------------------------------------

file_names = st.sampled_from(["labels.bin", "features.bin", "missing.bin",
                              "", "."])
text_or_null = st.none() | st.text(max_size=4)
MANIFEST_TYPED = {
    "task_id": st.sampled_from(POOL_IDS) | st.text(max_size=4),
    "roi_class": st.sampled_from(["SYN", "ED"]),
    "modality": st.sampled_from(["SIM", "sim ", "CT"]),
    "dataset": text_or_null, "partition": text_or_null,
    "extractor": text_or_null,
    "n_samples": st.integers(0, 9), "height": st.integers(0, 9),
    "width": st.integers(0, 9), "channels": st.none() | st.integers(0, 3),
    "positive_class": st.integers(-1, 300),
    "files": st.fixed_dictionaries(
        {}, optional={"labels": file_names, "features": file_names}),
    "files.labels": file_names, "files.features": file_names,
}

# commands that read the bundle pool/<POOL_IDS[0]>, which examples corrupt
BUNDLE_COMMANDS = [
    ["roi-sim", "--source", "pool/" + POOL_IDS[0],
     "--target", "pool/" + POOL_IDS[1]],
    ["score", "--metric", "hscore", "--source", "pool/" + POOL_IDS[1],
     "--target", "pool/" + POOL_IDS[0]],
    ["score", "--metric", "otce", "--source", "pool/" + POOL_IDS[0],
     "--target", "pool/" + POOL_IDS[1], "--max-pixels", "64"],
    ["select", "--metric", "otce", "--target", "pool/" + POOL_IDS[2],
     "--sources", "pool", "--max-pixels", "64", "--top-k", "2"],
    ["select", "--path", "baseline", "--metric", "hscore",
     "--target", "pool/" + POOL_IDS[0], "--sources", "pool"],
    ["synth-eval", "--dir", "pool", "--target", POOL_IDS[1],
     "--metric", "hscore", "--max-pixels", "64"],
]


@CONTRACT
@given(drawn=json_edits(MANIFEST_TYPED), argv=st.sampled_from(BUNDLE_COMMANDS))
def test_edited_manifest(pool, drawn, argv):
    with case(pool) as tmp:
        path = tmp / "pool" / POOL_IDS[0] / "manifest.json"
        path.write_bytes(edited_json(json.loads(path.read_text()), drawn))
        assert_contract(tmp, argv)


@CONTRACT
@given(name=st.sampled_from(["labels.bin", "features.bin"]),
       edits=st.lists(byte_edit, min_size=1, max_size=2),
       argv=st.sampled_from(BUNDLE_COMMANDS))
def test_damaged_binary(pool, name, edits, argv):
    with case(pool) as tmp:
        path = tmp / "pool" / POOL_IDS[0] / name
        path.write_bytes(damaged(path.read_bytes(), edits))
        assert_contract(tmp, argv)


# ---------------------------------------------------------------------------
# CSV files and synth specs
# ---------------------------------------------------------------------------

@CONTRACT
@given(data=edited_csv(TRUTH_CSV), pred_side=st.booleans(),
       top_k=st.none() | st.integers(-1, 4))
def test_edited_ranking_csv(pool, data, pred_side, top_k):
    with case(pool) as tmp:
        (tmp / "bad.csv").write_bytes(data)
        pred, truth = ("bad.csv", "truth.csv") if pred_side \
            else ("truth.csv", "bad.csv")
        top = [] if top_k is None else ["--top-k", str(top_k)]
        assert_contract(tmp, ["footrule", "--pred", pred, "--truth", truth,
                              *top])


@CONTRACT
@given(data=edited_csv(SCORES_CSV), metric=st.sampled_from(["hscore", "otce"]),
       path=st.sampled_from(["guided", "baseline"]))
def test_edited_scores_csv(pool, data, metric, path):
    with case(pool) as tmp:
        (tmp / "scores.csv").write_bytes(data)
        assert_contract(tmp, ["select", "--path", path, "--metric", metric,
                              "--target", "pool/" + POOL_IDS[2],
                              "--sources", "pool", "--top-k", "2",
                              "--scores-file", "scores.csv"])


strengths = st.floats(-0.5, 1.5) | st.integers(-1, 2)
SPEC_TYPED = {
    "n_tasks": st.integers(-1, 3), "n_samples": st.integers(-1, 4),
    "height": st.integers(0, 9), "width": st.integers(0, 9),
    "channels": st.integers(-1, 3), "seed": st.integers(-2**70, 2**70),
    "signal_strengths": st.lists(strengths, max_size=3),
    "unknown": st.integers(0, 1),
}


@CONTRACT
@given(drawn=json_edits(SPEC_TYPED))
def test_edited_synth_spec(pool, drawn):
    with case(pool) as tmp:
        (tmp / "spec.json").write_bytes(edited_json(SMALL_SPEC, drawn))
        assert_contract(tmp, ["synth", "--spec", str(tmp / "spec.json"),
                              "--out", str(tmp / "tasks")])


# ---------------------------------------------------------------------------
# numeric flags
# ---------------------------------------------------------------------------

def flag(valid, invalid):
    """A flag's value, valid three times in four."""
    return often(st.sampled_from(valid), st.sampled_from(invalid))


COUNT = flag(["1", "2", "3", "5"], ["0", "-1", "x", "1.5", ""])
MAX_PIXELS = flag(["1", "7", "64", "256"], ["0", "-1", "x"])
EPSILON = flag(["0.1", "0.05", "1", "1e308"],
               ["0", "-1", "nan", "inf", "1e-300", "x"])
RIDGE = flag(["1e-8", "0.1", "1"], ["0", "-1", "nan", "inf", "x"])


def command(argv, required=None, **optional):
    return st.tuples(st.just(argv),
                     st.fixed_dictionaries(required or {}, optional=optional))


flag_commands = st.one_of(
    command(["roi-sim", "--source", "pool/" + POOL_IDS[0],
             "--target", "pool/" + POOL_IDS[1]],
            pairs=COUNT, mode=flag(["paired", "mean"], ["x"])),
    *[command(["score", "--metric", m, "--source", "pool/" + POOL_IDS[0],
               "--target", "pool/" + POOL_IDS[2]],
              max_pixels=MAX_PIXELS, epsilon=EPSILON, ridge=RIDGE)
      for m in ("hscore", "otce")],
    *[command(["select", "--metric", m, "--path", p,
               "--target", "pool/" + POOL_IDS[2], "--sources", "pool"],
              {"max_pixels": MAX_PIXELS}, top_k=COUNT, roi_keep=COUNT,
              epsilon=EPSILON, ridge=RIDGE, fallback_all=st.none())
      for m in ("hscore", "otce") for p in ("guided", "baseline")],
    *[command(["synth-eval", "--dir", "pool", "--target", t, "--metric", m],
              {"max_pixels": MAX_PIXELS})
      for t in (POOL_IDS[1], "x") for m in ("hscore", "otce")],
    command(["footrule", "--pred", "truth.csv", "--truth", "truth.csv"],
            top_k=COUNT),
)


@CONTRACT
@given(drawn=flag_commands,
       seed=st.none() | st.integers(-2**70, 2**70).map(str) | st.just("x"),
       threads=flag(["1", "2"], ["0", "-1", "x"]))
def test_numeric_flags(pool, drawn, seed, threads):
    argv, flags = drawn
    head = ["--threads", threads] + ([] if seed is None else ["--seed", seed])
    for name, value in flags.items():
        argv = argv + ["--" + name.replace("_", "-")] \
            + ([] if value is None else [value])
    with case(pool) as tmp:
        assert_contract(tmp, head + argv)
