"""Top-down weighted sampling and the incremental multi-round driver.

A batch of k samples is drawn in two steps: annotate once, then draw.
The annotation (in log or exact rational arithmetic) gives each node's
joint probability and each decision node's conditional probability of
its hi branch. The drawing pass then routes the k sample indices from
the root down, visiting nodes parents first: the root holds every index,
a conjunction hands its indices to each child (their variables are
disjoint by decomposability), and a decision flips one coin per index it
holds with its hi-branch probability, sets its variable's bit for the
indices that go hi and hands each branch its share. A decision whose
other branch has probability zero is forced and flips no coins.
Smoothness guarantees every sample meets a decision on each variable,
so its mask is a complete assignment. The work is proportional to the
nodes each sample meets, not to k times the diagram's size, and a node
no sample meets draws nothing.

Randomness is counter-based: every decision node owns a Philox stream
keyed by (seed, its position in the traversal order), and sample index i
always consumes draw i of that stream. Batches are therefore
reproducible and independent of evaluation order, and a batch may be
split across worker threads without changing its result.

The paper states the pass bottom-up: every node of positive probability
builds the k partial samples of its sub-diagram, a conjunction ORs its
children's and a decision picks its hi or lo child's per coin, and a
node shared by several parents is drawn once per sample index for all
of them. Both orders give the same masks. Decomposability means a
sample reaches each decision at most once, through one parent, and
there it reads the same draw of the same stream; the bottom-up partials
a sample does not reach are computed and thrown away. The tests keep the
bottom-up pass as the reference the router must match bit for bit.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .cnf import Assignment, CnfFormula, WeightFunction
from .compiler import VariableOrdering, compile_cnf, DEFAULT_MAX_VARS
from .errors import StructureError, ZeroProbabilityError
from .prob import ARITHMETICS, FALSE_ID, TRUE_ID, Prob, annotate_branches, parameterize, smooth

MASK64 = (1 << 64) - 1
# Samples unpacked and formatted at a time by SampleBatch; bounds the temporaries.
_BLOCK_ROWS = 8192


@dataclass
class SampleBatch:
    """k complete assignments packed as bitmasks, bit v-1 = variable v.

    masks has shape (k, words) with words = ceil(num_vars / 64).
    """

    masks: np.ndarray
    num_vars: int
    seed: int
    root_log_prob: float = 0.0

    def __len__(self) -> int:
        return int(self.masks.shape[0])

    @property
    def words(self) -> int:
        return int(self.masks.shape[1])

    def int_masks(self) -> np.ndarray | list[int]:
        """Masks as plain integers; a numpy array when one word suffices."""
        if self.words == 1:
            return self.masks[:, 0]
        return [sum(int(w) << (64 * i) for i, w in enumerate(row)) for row in self.masks]

    def assignments(self) -> list[Assignment]:
        return [Assignment.from_mask(int(m), self.num_vars) for m in self.int_masks()]

    def _bits(self, start: int, stop: int) -> np.ndarray:
        """Rows [start, stop) unpacked to a (rows, num_vars) uint8 matrix; column v-1 = variable v."""
        raw = np.ascontiguousarray(self.masks[start:stop], dtype="<u8").view(np.uint8)
        return np.unpackbits(raw, axis=1, bitorder="little")[:, : self.num_vars]

    def frequencies(self) -> np.ndarray:
        """Empirical probability of each positive literal; index v-1 = variable v."""
        k = len(self)
        counts = np.zeros(self.num_vars, dtype=np.int64)
        for start in range(0, k, _BLOCK_ROWS):
            counts += self._bits(start, start + _BLOCK_ROWS).sum(axis=0, dtype=np.int64)
        return counts / k

    def model_line_blocks(self) -> Iterator[str]:
        """One DIMACS-style model line per sample, yielded _BLOCK_ROWS lines at a time.

        Each line is the literals "v" or "-v" for v = 1..num_vars, each
        followed by a space, then "0" and a newline. Per block, numpy
        picks each variable's token by the unpacked mask bits from a
        zero-padded byte table, drops the padding and decodes one string.
        """
        n = self.num_vars
        width = len(str(n)) + 2
        tokens = "".join(f"{sign}{v} ".ljust(width, "\0") for sign in ("-", "") for v in range(1, n + 1))
        table = np.frombuffer(tokens.encode("ascii"), dtype=np.uint8).reshape(2, n, width)
        columns = np.arange(n)
        for start in range(0, len(self), _BLOCK_ROWS):
            picked = table[self._bits(start, start + _BLOCK_ROWS), columns]
            rows = np.empty((len(picked), n * width + 2), dtype=np.uint8)
            rows[:, : n * width] = picked.reshape(len(picked), n * width)
            del picked  # each temporary goes once the next exists, to keep the block's peak low
            rows[:, n * width :] = np.frombuffer(b"0\n", dtype=np.uint8)
            text = rows[rows != 0]
            del rows
            yield str(text, "ascii")

    def model_lines(self) -> str:
        """All model lines as one string; see model_line_blocks."""
        return "".join(self.model_line_blocks())


UpdateRule = Callable[[SampleBatch, WeightFunction], WeightFunction]


def _node_uniforms(seed: int, stream: int, start: int, stop: int) -> np.ndarray:
    """Doubles [start, stop) of the node's dedicated counter-based stream.

    The generator emits four 64-bit words per counter step and one double
    consumes one word, so starting the counter at start // 4 and
    trimming the remainder lands exactly on draw `start`.
    """
    key = np.array([seed & MASK64, stream], dtype=np.uint64)
    skip, offset = divmod(start, 4)
    bitgen = np.random.Philox(key=key, counter=skip)
    return np.random.Generator(bitgen).random(stop - 4 * skip)[offset:]


def _route(prob: Prob, order: list[int], p_hi: dict[int, float], seed: int, start: int, out: np.ndarray) -> None:
    """Draw samples [start, start + len(out)) top-down, setting each one's true variables in out.

    Each node receives the indices of the samples that reach it: the
    root all of them, a conjunction hands its indices to every child,
    and a node with several parents joins what they hand it. A decision
    sets its variable's bit for the samples that take its hi branch and
    splits the rest off to its lo branch. p_hi 1.0 or 0.0 forces a
    branch without drawing, exactly as the coins u < 1.0 and u < 0.0
    would; otherwise sample j compares draw j of the node's stream, and
    stream i belongs to the node at position i of `order`.
    """
    nodes = prob.nodes
    count = len(out)
    columns = [out[:, word] for word in range(out.shape[1])]
    reach: dict[int, list[np.ndarray]] = {}
    if prob.root != TRUE_ID:  # a diagram over no variables sets no bits
        reach[prob.root] = [np.arange(count)]
    for stream in range(len(order) - 1, -1, -1):  # parents before children
        nid = order[stream]
        parts = reach.pop(nid, None)
        if parts is None:
            continue
        idx = parts[0] if len(parts) == 1 else np.concatenate(parts)
        if len(idx) > count:  # only a conjunction mentioning no variable meets a sample twice
            idx = np.unique(idx)
        node = nodes[nid]
        if node.kind == "A":
            handed = [(child, idx) for child in node.children]
        else:
            p = p_hi[nid]
            if p == 1.0:
                hi_idx, lo_idx = idx, idx[:0]
            elif p == 0.0:
                hi_idx, lo_idx = idx[:0], idx
            else:
                take = _node_uniforms(seed, stream, start, start + count)[idx] < p
                hi_idx, lo_idx = idx[take], idx[~take]
            word, bit = divmod(node.var - 1, 64)
            columns[word][hi_idx] |= np.uint64(1 << bit)
            handed = [(node.hi, hi_idx), (node.lo, lo_idx)]
        for child, child_idx in handed:
            if child != TRUE_ID and len(child_idx):
                reach.setdefault(child, []).append(child_idx)


def sample(prob: Prob, k: int, seed: int, *, mode: str = "log", threads: int = 1) -> SampleBatch:
    """Draw k satisfying assignments with replacement, weighted per the parameters.

    Each sample is distributed with probability W(assignment) / N where N
    is the weighted model count. The diagram is annotated once per call;
    mode 'rational' does so in exact rational arithmetic instead of log
    space, and the drawn bits use the same per-node streams either way.
    threads > 1 splits the drawing pass across worker threads, at most
    one per CPU and one per sample, without changing the result.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    arith = ARITHMETICS.get(mode)
    if arith is None:
        raise ValueError(f"unknown mode {mode!r}")
    if not prob.smooth:
        raise StructureError("sampling requires a smoothed diagram", property_name="smoothness")
    if prob.root == FALSE_ID:
        raise ZeroProbabilityError("the diagram is unsatisfiable")

    order = prob.topo_order()
    phi, p_hi = annotate_branches(prob, arith, order)
    if prob.root not in phi:
        raise ZeroProbabilityError("no satisfying assignment has positive probability under these weights")
    masks = np.zeros((k, max(1, (prob.num_vars + 63) // 64)), dtype=np.uint64)
    workers = min(threads, k, os.cpu_count() or 1)
    if workers <= 1:  # in the calling thread: a pool would add its own memory
        _route(prob, order, p_hi, seed, 0, masks)
    else:
        bounds = [k * i // workers for i in range(workers + 1)]  # none empty, as workers <= k
        ranges = zip(bounds, bounds[1:])
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda r: _route(prob, order, p_hi, seed, r[0], masks[r[0] : r[1]]), ranges))
    return SampleBatch(masks=masks, num_vars=prob.num_vars, seed=seed, root_log_prob=arith.log(phi[prob.root]))


def update_weights(prob: Prob, new_weights: WeightFunction) -> None:
    """Apply new weights to an already compiled diagram, in place.

    Only the branch parameters change; the structure and therefore the
    compilation cost are reused across rounds.
    """
    if not prob.smooth:
        raise StructureError("update_weights expects a smoothed diagram", property_name="smoothness")
    parameterize(prob, new_weights)


def default_update_rule(batch: SampleBatch, previous: WeightFunction) -> WeightFunction:
    """Diversity-driven default: push weight toward the rarely sampled polarity.

    For each variable with empirical positive-literal frequency f, the
    new weights are W(x) = max(1 - f, eps) and W(-x) = max(f, eps) with
    eps = 1 / (2k), so no variable ever reaches a zero-sum weight pair.
    """
    if len(batch) == 0:
        raise ValueError("empty sample batch")
    freqs = batch.frequencies()
    eps = 1.0 / (2 * len(batch))
    weights: dict[int, float] = {}
    for var in range(1, batch.num_vars + 1):
        f = float(freqs[var - 1])
        weights[var] = max(1.0 - f, eps)
        weights[-var] = max(f, eps)
    return WeightFunction(weights)


@dataclass
class RoundReport:
    """Timing and output of one sampling round.

    param_s is the re-parameterization and sample_s the sampling
    (annotation and the drawing pass); compile_s and smooth_s are nonzero
    only in the round that built the diagram.
    """

    round: int
    samples: SampleBatch
    weights: WeightFunction
    compile_s: float = 0.0
    smooth_s: float = 0.0
    param_s: float = 0.0
    sample_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.compile_s + self.smooth_s + self.param_s + self.sample_s


def round_seed(seed: int, round_index: int) -> int:
    """Deterministic per-round sampling seed derived from the base seed."""
    ss = np.random.SeedSequence(entropy=(seed & MASK64, round_index))
    return int(ss.generate_state(1, np.uint64)[0])


def run_incremental(
    formula: CnfFormula,
    initial_weights: WeightFunction,
    rounds: int,
    k: int,
    rule: UpdateRule = default_update_rule,
    seed: int = 1,
    ordering: VariableOrdering | None = None,
    mode: str = "log",
    threads: int = 1,
    max_vars: int = DEFAULT_MAX_VARS,
) -> list[RoundReport]:
    """Compile once, then sample over multiple rounds with evolving weights.

    Round 1 compiles, smooths, parameterizes with the initial weights
    and samples. Every later round derives new weights from the previous
    round's samples via `rule`, re-parameterizes the persisted diagram
    and samples again, so compilation cost is paid exactly once.
    """
    if rounds < 1 or k < 1:
        raise ValueError("rounds and k must be at least 1")

    t0 = time.perf_counter()
    prob = compile_cnf(formula, ordering, max_vars=max_vars)
    compile_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    smooth(prob)
    smooth_s = time.perf_counter() - t0

    reports: list[RoundReport] = []
    weights = initial_weights
    for rnd in range(1, rounds + 1):
        if rnd > 1:
            weights = rule(reports[-1].samples, reports[-1].weights)
        t0 = time.perf_counter()
        update_weights(prob, weights)
        param_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        batch = sample(prob, k, round_seed(seed, rnd), mode=mode, threads=threads)
        sample_s = time.perf_counter() - t0
        reports.append(
            RoundReport(
                round=rnd,
                samples=batch,
                weights=weights,
                compile_s=compile_s if rnd == 1 else 0.0,
                smooth_s=smooth_s if rnd == 1 else 0.0,
                param_s=param_s,
                sample_s=sample_s,
            )
        )
    return reports


def round_reports_csv(reports: list[RoundReport]) -> str:
    """CSV with one row per round: timings in seconds plus the root log probability."""
    lines = ["round,compile_s,smooth_s,param_s,sample_s,total_s,root_log_prob"]
    for rep in reports:
        lines.append(
            f"{rep.round},{rep.compile_s:.6f},{rep.smooth_s:.6f},{rep.param_s:.6f},"
            f"{rep.sample_s:.6f},{rep.total_s:.6f},{rep.samples.root_log_prob:.12g}"
        )
    return "\n".join(lines) + "\n"
