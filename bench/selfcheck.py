"""Checks of the checks: ``python3 bench/run.py --self-check``.

Runs one operation of every workload on a tiny pool, shows that all checks
pass on the program's output, then corrupts that output in one way at a
time and shows that the check meant to catch it reports a problem.
Exits 0 when every clean output passes and every corruption is caught.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil

import harness
from layers import LAYER_METRICS

END_TO_END = ("op_s", "cpu_per_op_s", "peak_rss_mb", "setup_s")

TINY = {
    "otce-guided": dict(grid=16, n_samples=8, max_pixels=128, pools=1),
    "otce-budget": dict(grid=16, n_samples=8, max_pixels=64),
    "hscore-eval": dict(grid=8, n_samples=32, channels=4),
}


def _swap_top_two(doc):
    rows = doc["result"].get("top_k") or doc["result"]["comparison"]
    rows[0]["task_id"], rows[1]["task_id"] = rows[1]["task_id"], rows[0]["task_id"]


def _nudge_median_otce(step):
    def corrupt(doc):
        ranked = doc["result"]["top_k"]
        ranked[len(ranked) // 2]["score"] += step
    return corrupt


def _otce_above_zero(doc):
    doc["result"]["top_k"][-1]["score"] = 0.01


def _drop_from_subset1(doc):
    doc["result"]["subset1"].pop()


def _other_class_as_subset2(doc):
    kept = set(doc["result"]["subset2"])
    doc["result"]["subset2"] = [t for t in doc["result"]["subset1"] if t not in kept]


def _nudge_hscore(doc):
    doc["result"]["comparison"][-1]["metric_score"] += 1e-4


def _footrule_full_plus_one(doc):
    doc["result"]["footrule_full"] += 1


def _footrule_top1_plus_one(doc):
    doc["result"]["footrule_top1"] += 1


# workload -> [(corruption, function, text the catching check prints)]
CORRUPTIONS = {
    "otce-guided": [
        ("two ranks swapped", _swap_top_two, "does not follow signal strengths"),
        ("median-ranked OTCE +2e-4", _nudge_median_otce(2e-4),
         "vs converged Sinkhorn"),
        ("an OTCE above 0", _otce_above_zero, "outside [-log"),
        ("subset1 missing a source", _drop_from_subset1, "subset1"),
        ("subset2 from the other class", _other_class_as_subset2, "subset2"),
    ],
    "otce-budget": [
        ("two ranks swapped", _swap_top_two, "does not follow signal strengths"),
        ("median-ranked OTCE +2e-3 (tolerance 5e-4)", _nudge_median_otce(2e-3),
         "vs converged Sinkhorn"),
        ("an OTCE above 0", _otce_above_zero, "outside [-log"),
        ("subset1 missing a source", _drop_from_subset1, "subset1"),
    ],
    "hscore-eval": [
        ("two ranks swapped", _swap_top_two, "does not follow signal strengths"),
        ("an H-score +1e-4", _nudge_hscore, "hscore"),
        ("footrule_full +1", _footrule_full_plus_one, "footrule_full"),
        ("footrule_top1 +1", _footrule_top1_plus_one, "footrule_top1"),
    ],
}


def _all_checks(w, pool, seed, doc) -> list:
    problems = harness.check_output(w, pool, seed, doc)
    if w.metric == "otce":
        problems += harness.check_sinkhorn(w, pool, seed, doc)
    return problems


def _declared_metrics_match() -> bool:
    """BENCHMARK.json names the metrics, units and directions the runs print."""
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    e2e = tuple(m["name"] for m in spec["end_to_end"])
    ok = layer == LAYER_METRICS and sorted(e2e) == sorted(END_TO_END) \
        and {w["name"] for w in spec["workloads"]} == set(harness.WORKLOADS)
    print(f"BENCHMARK.json metrics and workloads {'match' if ok else 'DIFFER'}")
    return ok


def main() -> int:
    seed = 3
    ok = _declared_metrics_match()
    for name, sizes in TINY.items():
        w = dataclasses.replace(harness.WORKLOADS[name], **sizes)
        root = harness.WORK / f"selfcheck-{name}"
        shutil.rmtree(root, ignore_errors=True)
        try:
            pool = harness.build_pool(w, seed, root)
            op = harness.run_op(harness.cli_argv(w, pool, seed))
        finally:
            shutil.rmtree(root, ignore_errors=True)
        if not op.ok:
            print(f"{name}: operation failed: {op.stderr.strip()}")
            ok = False
            continue
        doc = json.loads(op.stdout)
        clean = _all_checks(w, pool, seed, doc)
        print(f"{name}: clean output {'passes' if not clean else 'FAILS'}")
        for problem in clean:
            print(f"    {problem}")
        ok &= not clean
        for label, corrupt, expect in CORRUPTIONS[name]:
            bad = copy.deepcopy(doc)
            corrupt(bad)
            caught = [p for p in _all_checks(w, pool, seed, bad) if expect in p]
            print(f"  {label:42s} {'caught' if caught else 'MISSED'}"
                  + (f": {caught[0]}" if caught else ""))
            ok &= bool(caught)
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1
