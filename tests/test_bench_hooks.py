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

from xfersel import cli
from xfersel.bundle import load_bundle, write_bundle
from xfersel.hscore import HScoreReport
from xfersel.otce import SinkhornParams, TransportPlan
from xfersel.pipeline import SelectionReport
from xfersel.roisim import RoiSimReport
from xfersel.synth import SynthSpec, generate_tasks

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


def test_synth_eval_hscore_calls_the_traced_name(tmp_path, monkeypatch,
                                                 capsys):
    # the tracer bills xfersel.cli.hscore_segmentation to the H-score layer,
    # so synth-eval must reach the H-score through that name, once a source
    spec = SynthSpec(n_tasks=4, n_samples=4, height=8, width=8, channels=2,
                     signal_strengths=(0.2, 1.0, 0.8, 0.5))
    for b in generate_tasks(spec):
        write_bundle(b, tmp_path / "pool" / b.task_id)
    scored = []
    original = cli.hscore_segmentation

    def counted(fs, params):
        scored.append(fs.task_id)
        return original(fs, params)

    monkeypatch.setattr(cli, "hscore_segmentation", counted)
    code = cli.main(["--threads", "1", "synth-eval", "--dir",
                     str(tmp_path / "pool"), "--target", "synth-00-s0.20",
                     "--metric", "hscore"])
    assert (code, capsys.readouterr().err) == (0, "")
    assert scored == ["synth-01-s1.00", "synth-02-s0.80", "synth-03-s0.50"]
