"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src"), str(ROOT)]

import run  # noqa: E402
import worker  # noqa: E402
from probdd import parse_dimacs  # noqa: E402
from tests.helpers import compile_heavy_formula  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Same workloads, shrunk. The tiny bulk_draw formula has more than 64
# variables, so the benchmark's multi-word mask handling is exercised too.
TINY = {
    "cold_compile": {**run.PLANS["cold_compile"], "num_vars": 12, "num_clauses": 30, "k": 50, "rounds": 3},
    "bulk_draw": {**run.PLANS["bulk_draw"], "num_vars": 70, "num_clauses": 20, "k": 300, "rounds": 3},
}


def test_workloads_match_the_plans():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.PLANS) == list(TINY)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(TINY))
def test_every_metric_is_printed_with_its_unit(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)], plans=TINY)
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    report = lines[:-1]
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.split()[:1] == [metric["name"]] and metric["unit"] in line.split() for line in report)
    printed = {line.split()[0] for line in report if line.strip()}
    assert "failed_frac" in printed
    if not trace:
        assert set(run.END_TO_END_UNITS) <= printed


def test_default_seed_is_the_roadmap_instance():
    text = run.generate(run.PLANS["cold_compile"], run.DEFAULT_SEED)["dimacs"]
    assert parse_dimacs(text) == compile_heavy_formula()


def plant_unsound(sample, clause):
    """Wrap sample so that the first mask of every batch falsifies every literal of clause."""
    def planted(prob, k, seed):
        batch = sample(prob, k, seed)
        for lit in clause:
            word, bit = divmod(abs(lit) - 1, 64)
            mask = np.uint64(1 << bit)
            batch.masks[0, word] = batch.masks[0, word] & ~mask if lit > 0 else batch.masks[0, word] | mask
        return batch
    return planted


def test_a_planted_unsound_mask_makes_failed_frac_nonzero(monkeypatch):
    plan = TINY["cold_compile"]
    job = {"plan": plan, "seed": 3, "expect": None, "mode": "rep", "trace": False, **run.generate(plan, 3)}
    clause = parse_dimacs(job["dimacs"]).clauses[0]
    monkeypatch.setattr(worker, "sample", plant_unsound(worker.sample, clause))
    child = worker.rep(job)
    attempted, failed, problems = run.failures(None, [child])
    assert child["samples_failed"] == plan["rounds"]
    assert 0 < failed / attempted
    assert any("do not satisfy" in p for p in problems)


def test_the_referee_catches_a_model_line_that_does_not_match_its_mask():
    plan = TINY["bulk_draw"]
    formula = parse_dimacs(run.generate(plan, 3)["dimacs"])
    prob = worker.compile_cnf(formula, worker.choose_ordering(formula), formula.num_vars)
    worker.smooth(prob)
    worker.update_weights(prob, worker.parse_weights("", formula))
    batch = worker.sample(prob, 5, 7)
    text = batch.model_lines()
    assert worker.referee(formula, batch, 5, text) == (0, [])
    lines = text.splitlines()
    *head, last, end = lines[-1].split()
    lines[-1] = " ".join([*head, str(-int(last)), end])
    assert worker.referee(formula, batch, 5, "\n".join(lines) + "\n")[1] == ["model line 5 does not match its mask"]


def test_a_failed_set_up_under_trace_is_reported_not_raised(monkeypatch):
    plan = TINY["cold_compile"]
    job = {"plan": plan, "seed": 3, "expect": None, "mode": "rep", **run.generate(plan, 3)}
    children = [worker.rep({**job, "trace": False}), worker.rep({**job, "trace": True})]

    def broken(prob):
        raise RuntimeError("planted set-up failure")
    monkeypatch.setattr(worker, "smooth", broken)
    children.append(worker.rep({**job, "trace": True}))
    metrics, _ = run.per_layer(plan, None, children)
    attempted, failed, problems = run.failures(None, children)
    assert {m["name"] for m in SPEC["per_layer"]} <= set(metrics)
    assert failed == plan["rounds"] * (plan["k"] + 1) and 0 < failed / attempted < 1
    assert any("planted set-up failure" in p for p in problems)
