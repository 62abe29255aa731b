"""Names in xfersel that the benchmark's per-layer tracer depends on.

``bench/layers.py`` wraps functions by module and attribute name and reads
fields of the reports they return.  A trim of the library that drops one of
them breaks the benchmark without failing any other test, so these tests pin
them.  The tracer's table is read from its source, not imported.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

from xfersel.bundle import load_bundle, write_bundle
from xfersel.hscore import HScoreReport
from xfersel.otce import SinkhornParams, TransportPlan
from xfersel.pipeline import SelectionReport
from xfersel.roisim import RoiSimReport

from conftest import make_bundle

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _traced() -> list[tuple]:
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {LAYERS}")


@pytest.mark.parametrize("module, attr",
                         sorted({(m, a) for m, a, *_ in _traced()}))
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("report, field", [
    (TransportPlan, "iterations_used"),
    (TransportPlan, "final_marginal_error"),
    (SinkhornParams, "marginal_tol"),
    (RoiSimReport, "n_pairs"),
    (HScoreReport, "skipped_pixels"),
    (SelectionReport, "subset2"),
], ids=lambda v: getattr(v, "__name__", v))
def test_traced_report_field_exists(report, field):
    assert field in {f.name for f in dataclasses.fields(report)}


@pytest.mark.parametrize("read, value, want", [
    ("bundle.features.features.nbytes", lambda b: b.features.features.nbytes,
     3 * 8 * 8 * 4 * 4),
    ("fs.features.shape", lambda b: b.features.features.shape, (3, 8, 8, 4)),
], ids=["load-mb", "hscore-grid"])
def test_tracer_reads_on_loaded_bundles(tmp_path, read, value, want):
    # the tracer reads these on bundles load_bundle returns, whose payload
    # stays on disk until the whole array is asked for
    assert read in LAYERS.read_text()
    write_bundle(make_bundle(n=3, h=8, w=8, c=4), tmp_path / "b")
    assert value(load_bundle(tmp_path / "b")) == want
