"""One repetition of a benchmark workload, run in a process of its own.

Reads a job as JSON on stdin and writes one JSON result line to stdout.
Set-up and rounds are timed with perf_counter. The referee (oracle
checks and digests) runs between rounds, outside every timed interval.
With "trace" set, spans are recorded around each call into probdd, and
the counters, standalone annotate calls, the round trip through the text
format and the tracemalloc peaks are taken outside the timed intervals.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from probdd import (  # noqa: E402
    DEFAULT_MAX_VARS,
    annotate,
    choose_ordering,
    compile_cnf,
    default_update_rule,
    export_prob,
    import_prob,
    parameterize,
    parse_dimacs,
    parse_weights,
    sample,
    smooth,
    update_weights,
    weighted_model_count,
)
from probdd.oracle import satisfies_masks  # noqa: E402
from probdd.sampler import round_seed  # noqa: E402

WMC_REL_TOL = 1e-9


class Spans:
    """Spans around calls into probdd, kept in memory; disabled, it only makes the calls."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: list[list] = []  # name, start, end, index of the enclosing span
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.records)
        self.records.append([name, perf_counter(), None, self._open[-1] if self._open else None])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.records[index][2] = perf_counter()

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        with self.span(name):
            return fn(*args)

    def self_times(self) -> dict[str, list[float]]:
        """Each span's duration minus the time its direct children cover, by name."""
        covered = [0.0] * len(self.records)
        for _, start, end, parent in self.records:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, list[float]] = {}
        for (name, start, end, _), inner in zip(self.records, covered):
            out.setdefault(name, []).append(end - start - inner)
        return out


def build_from_cnf(job: dict, spans: Spans):
    """Parse, order and compile: the set-up of the cnf workloads before smoothing."""
    with spans.span("cnf.parse_s"):
        formula = parse_dimacs(job["dimacs"])
        weights = parse_weights(job["weights"], formula)
    ordering = spans.call("compiler.order_s", choose_ordering, formula)
    max_vars = max(DEFAULT_MAX_VARS, formula.num_vars)
    prob = spans.call("compiler.compile_s", compile_cnf, formula, ordering, max_vars)
    return prob, weights


def node_problem(job: dict, prob) -> list[str]:
    """The full-size instances must keep their recorded node counts."""
    expect = job["expect"]
    if expect is None:
        return []
    kinds = prob.count_kinds()
    got = {"D": kinds["D"], "A": kinds["A"]}
    if got != expect:
        return [f"instance has nodes {got} after smoothing, expected {expect}"]
    return []


def decision_split(prob, phi) -> tuple[int, int]:
    """(coin, forced): reachable decisions with both branches positive, against one."""
    coin = forced = 0
    for nid in prob.topo_order():
        node = prob.nodes[nid]
        if node.kind != "D" or nid not in phi:
            continue
        lo = node.theta_lo > 0 and node.lo in phi
        hi = node.theta_hi > 0 and node.hi in phi
        if lo and hi:
            coin += 1
        else:
            forced += 1
    return coin, forced


def model_line(row, num_vars: int) -> str:
    """The DIMACS-style line of one packed assignment, written independently of model_lines."""
    lits = (v if (int(row[(v - 1) // 64]) >> ((v - 1) % 64)) & 1 else -v for v in range(1, num_vars + 1))
    return " ".join(map(str, lits)) + " 0"


def referee(formula, batch, k: int, text: str) -> tuple[int, list[str]]:
    """Samples of one round that fail the oracle's clause check, and problems with the round."""
    ok = satisfies_masks(formula, batch.masks)
    unsound = int(ok.size - ok.sum()) + max(0, k - ok.size)
    lines = text.count("\n")
    problems = []
    if ok.size != k:
        problems.append(f"batch holds {ok.size} samples, expected {k}")
    elif lines != k:
        problems.append(f"model_lines wrote {lines} lines, expected {k}")
    else:
        written = text.splitlines()
        for i in sorted({0, k - 1}):
            if written[i] != model_line(batch.masks[i], batch.num_vars):
                problems.append(f"model line {i + 1} does not match its mask")
    if unsound:
        problems.append(f"{unsound} samples do not satisfy the formula")
    return unsound, problems


def count_agreement(prob, weights) -> list[str]:
    """weighted_model_count must agree between log and rational arithmetic."""
    log_count = weighted_model_count(prob, weights, "log")
    exact = float(weighted_model_count(prob, weights, "rational"))
    if not math.isclose(log_count, exact, rel_tol=WMC_REL_TOL):
        return [f"weighted model count {log_count!r} in log mode, {exact!r} in rational mode"]
    return []


def peak_mb(fn, *args) -> tuple[object, float]:
    """Call fn under tracemalloc and return its result and peak of new allocations in MB."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 1e6


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def prep(job: dict) -> dict:
    """Compile, smooth and parameterize once, and export the diagram the rep children import."""
    spans = Spans(job["trace"])
    prob, weights = build_from_cnf(job, spans)
    compiled = prob.node_count
    spans.call("prob.smooth_s", smooth, prob)
    spans.call("prob.parameterize_s", parameterize, prob, weights)
    return {
        "prob": export_prob(prob),
        "errors": node_problem(job, prob),
        "self_s": spans.self_times(),
        "counts": {"compiler.nodes": compiled},
    }


def setup(job: dict, spans: Spans):
    """The timed one-time cost before the first round; returns (prob, weights, compiled node count)."""
    with spans.span("setup"):
        if job["plan"]["source"] == "prob":
            prob = spans.call("compiler.import_s", import_prob, job["prob"])
            weights = compiled = None
        else:
            prob, weights = build_from_cnf(job, spans)
            compiled = prob.node_count if spans.enabled else None
        spans.call("prob.smooth_s", smooth, prob)
    return prob, weights, compiled


def rep(job: dict) -> dict:
    plan, seed, traced = job["plan"], job["seed"], job["trace"]
    k, rounds, reweight = plan["k"], plan["rounds"], plan["source"] == "cnf"
    spans = Spans(traced)
    formula = parse_dimacs(job["dimacs"])  # the referee's own copy, parsed outside all timing
    initial = parse_weights(job["weights"], formula)
    out = {"trace": traced, "k": k, "rounds": rounds, "setup_s": [], "round_s": [],
           "rounds_failed": 0, "samples_failed": 0, "errors": [], "counts": {}}
    counts = out["counts"]

    try:
        t0 = perf_counter()
        prob, weights, compiled = setup(job, spans)
        out["setup_s"].append(perf_counter() - t0)
        out["errors"] += node_problem(job, prob)
    except Exception as exc:  # a set-up that raises fails every round: report it, never skip it
        out["errors"].append(f"set-up: {exc!r}")
    if out["errors"]:
        out.update(rounds_failed=rounds, samples_failed=rounds * k, digest="", lines_digest="",
                   peak_rss_mb=peak_rss_mb(), self_s=spans.self_times())
        return out
    if weights is None:
        weights = initial
    if traced:
        kinds = prob.count_kinds()
        counts.update({"prob.nodes_D": kinds["D"], "prob.nodes_A": kinds["A"]})
        if compiled is not None:
            counts["compiler.nodes"] = compiled

    masks_digest, lines_digest = hashlib.sha256(), hashlib.sha256()
    coins_drawn = output_bytes = 0
    batch = None
    for rnd in range(1, rounds + 1):
        try:
            t0 = perf_counter()
            with spans.span("round"):
                if reweight:
                    if rnd > 1:
                        weights = spans.call("sampler.update_rule_s", default_update_rule, batch, weights)
                    spans.call("prob.parameterize_s", update_weights, prob, weights)
                batch = spans.call("sampler.sample_s", sample, prob, k, round_seed(seed, rnd))
                text = spans.call("sampler.model_lines_s", batch.model_lines)
            out["round_s"].append(perf_counter() - t0)
            with spans.span("oracle.check_s"):
                unsound, problems = referee(formula, batch, k, text)
                if rnd == 1:
                    problems += count_agreement(prob, weights)
        except Exception as exc:  # a round or check that raises fails the rest: report it, never skip it
            out["errors"].append(f"round {rnd}: {exc!r}")
            out["rounds_failed"] += rounds - rnd + 1
            out["samples_failed"] += (rounds - rnd + 1) * k
            break
        masks_digest.update(batch.masks.tobytes())
        lines_digest.update(text.encode())
        output_bytes += len(text)
        del text
        out["samples_failed"] += unsound
        if problems:
            out["rounds_failed"] += 1
            out["errors"] += [f"round {rnd}: {p}" for p in problems]
        if traced:
            phi = spans.call("prob.annotate_s", annotate, prob)
            coin, forced = decision_split(prob, phi)
            coins_drawn += coin * k
            counts.update({"sampler.coin_nodes": coin, "sampler.forced_nodes": forced})
            if not reweight:  # what the update rule would cost at this k
                spans.call("sampler.update_rule_s", default_update_rule, batch, weights)
        for _ in range(plan["setups_per_round"]):  # repeated set-ups, spread over the child's life
            t0 = perf_counter()
            setup(job, spans)
            out["setup_s"].append(perf_counter() - t0)

    out["digest"], out["lines_digest"] = masks_digest.hexdigest(), lines_digest.hexdigest()
    out["peak_rss_mb"] = peak_rss_mb()

    if traced and batch is not None:
        if reweight:  # the import layer, timed on this workload's own diagram
            spans.call("compiler.import_s", import_prob, export_prob(prob))
        seed_last = round_seed(seed, rounds)
        extra, counts["sampler.sample_peak_mb"] = peak_mb(sample, prob, k, seed_last)
        _, counts["sampler.model_lines_peak_mb"] = peak_mb(extra.model_lines)
        counts.update({"sampler.coins_drawn": coins_drawn, "sampler.mask_words": batch.words,
                       "sampler.output_bytes": output_bytes})
    out["self_s"] = spans.self_times()
    return out


def main() -> None:
    job = json.load(sys.stdin)
    result = prep(job) if job["mode"] == "prep" else rep(job)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
