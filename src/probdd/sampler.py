"""Bottom-up weighted sampling and the incremental multi-round driver.

A batch of k samples is drawn in two steps: annotate once, then draw.
The annotation (in log or exact rational arithmetic) gives each node's
joint probability and each decision node's conditional probability of
its hi branch. The drawing pass then walks the nodes in topological
order and builds the k partial samples of every node of positive
probability: the true terminal contributes empty partials, a
conjunction node bitwise-ORs its children's partials (their assigned
variables are disjoint by decomposability), and a decision node flips k
independent coins with its hi-branch probability and extends the chosen
child's partials with the decided literal. A decision whose other branch
has probability zero is forced and flips no coins. Smoothness guarantees
the root's partials are complete assignments.

Randomness is counter-based: every decision node owns a Philox stream
keyed by (seed, its position in the traversal order), and sample index i
always consumes draw i of that stream. Batches are therefore
reproducible and independent of evaluation order, and a batch may be
split across worker threads without changing its result. A node shared
by several parents is sampled once per batch index and all parents reuse
those partials; any fixed convention is distributionally correct here,
and this one makes results reproducible.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cnf import Assignment, CnfFormula, WeightFunction
from .compiler import VariableOrdering, choose_ordering, compile_cnf, DEFAULT_MAX_VARS
from .errors import StructureError, ZeroProbabilityError
from .prob import ARITHMETICS, FALSE_ID, Prob, annotate_branches, parameterize, smooth

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
    round: int = 1
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
        if self.words == 1:
            return [Assignment.from_mask(int(m), self.num_vars) for m in self.masks[:, 0]]
        return [Assignment.from_mask(m, self.num_vars) for m in self.int_masks()]

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

    def model_lines(self) -> str:
        """One DIMACS-style model line per sample: signed literals then 0.

        Each line is the literals "v" or "-v" for v = 1..num_vars, each
        followed by a space, then "0" and a newline. numpy writes them a
        block of _BLOCK_ROWS samples at a time: the unpacked mask bits
        pick each variable's token from a zero-padded byte table, the
        padding is dropped and the block is decoded to one string.
        """
        n = self.num_vars
        width = len(str(n)) + 2
        tokens = "".join(f"{sign}{v} ".ljust(width, "\0") for sign in ("-", "") for v in range(1, n + 1))
        table = np.frombuffer(tokens.encode("ascii"), dtype=np.uint8).reshape(2, n, width)
        columns = np.arange(n)
        blocks = []
        for start in range(0, len(self), _BLOCK_ROWS):
            picked = table[self._bits(start, start + _BLOCK_ROWS), columns]
            rows = np.empty((len(picked), n * width + 2), dtype=np.uint8)
            rows[:, : n * width] = picked.reshape(len(picked), n * width)
            del picked  # each temporary goes once the next exists, to keep the block's peak low
            rows[:, n * width :] = np.frombuffer(b"0\n", dtype=np.uint8)
            text = rows[rows != 0]
            del rows
            blocks.append(str(text, "ascii"))
        return "".join(blocks)


UpdateRule = Callable[[SampleBatch, WeightFunction], WeightFunction]


def _node_uniforms(seed: int, stream: int, start: int, stop: int) -> np.ndarray:
    """Doubles [start, stop) of the node's dedicated counter-based stream.

    The generator emits four 64-bit words per counter step and one double
    consumes one word, so advancing the counter by start // 4 and
    trimming the remainder lands exactly on draw `start`.
    """
    key = np.array([seed & MASK64, stream], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    skip, offset = divmod(start, 4)
    if skip:
        bitgen.advance(skip)
    uniforms = np.random.Generator(bitgen).random(stop - 4 * skip)
    return uniforms[offset:] if offset else uniforms


def _pass(prob: Prob, order: list[int], phi: dict, p_hi: dict[int, float], start: int, stop: int, seed: int):
    """The drawing sweep for sample indices [start, stop); returns the root's masks.

    phi holds the nodes of positive probability and p_hi the hi-branch
    probability of each of their decisions; p_hi 1.0 or 0.0 forces a
    branch without drawing, exactly as the coins u < 1.0 and u < 0.0
    would. Coin stream i belongs to the node at position i of `order`.
    """
    nodes = prob.nodes
    words = max(1, (prob.num_vars + 63) // 64)
    count = stop - start
    store: dict[int, np.ndarray] = {}

    remaining: dict[int, int] = {}
    for nid in order:
        for child in prob.children_of(nid):
            remaining[child] = remaining.get(child, 0) + 1

    for stream, nid in enumerate(order):
        if nid in phi:
            node = nodes[nid]
            if node.kind == "T":
                store[nid] = np.zeros((count, words), dtype=np.uint64)
            elif node.kind == "A":
                vals = store[node.children[0]] | store[node.children[1]]
                for child in node.children[2:]:
                    vals |= store[child]
                store[nid] = vals
            else:
                p_cond = p_hi[nid]
                word, bit = divmod(node.var - 1, 64)
                bitval = np.uint64(1 << bit)
                if p_cond == 1.0:
                    vals = store[node.hi].copy()
                    vals[:, word] |= bitval
                elif p_cond == 0.0:
                    vals = store[node.lo].copy()
                else:
                    take = _node_uniforms(seed, stream, start, stop) < p_cond
                    vals = np.where(take[:, None], store[node.hi], store[node.lo])
                    setbits = np.zeros(count, dtype=np.uint64)
                    setbits[take] = bitval
                    vals[:, word] |= setbits
                store[nid] = vals
        for child in prob.children_of(nid):
            remaining[child] -= 1
            if remaining[child] == 0 and child != prob.root:
                store.pop(child, None)
    return store[prob.root]


def _chunk_ranges(k: int, parts: int) -> list[tuple[int, int]]:
    size, extra = divmod(k, parts)
    ranges = []
    lo = 0
    for i in range(parts):
        hi = lo + size + (1 if i < extra else 0)
        if hi > lo:
            ranges.append((lo, hi))
        lo = hi
    return ranges


def sample(prob: Prob, k: int, seed: int, *, mode: str = "log", threads: int = 1) -> SampleBatch:
    """Draw k satisfying assignments with replacement, weighted per the parameters.

    Each sample is distributed with probability W(assignment) / N where N
    is the weighted model count. The diagram is annotated once per call;
    mode 'rational' does so in exact rational arithmetic instead of log
    space, and the drawn bits use the same per-node streams either way.
    threads > 1 splits the drawing pass across worker threads without
    changing the result.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    arith = ARITHMETICS.get(mode)
    if arith is None:
        raise ValueError(f"unknown mode {mode!r}")
    if not prob.smooth:
        raise StructureError("sampling requires a smoothed diagram", property_name="smoothness")
    if not prob.parameterized:
        raise StructureError("sampling requires a parameterized diagram", property_name="parameters")
    if prob.root == FALSE_ID:
        raise ZeroProbabilityError("the diagram is unsatisfiable")

    order = prob.topo_order()
    phi, p_hi = annotate_branches(prob, arith, order)
    if prob.root not in phi:
        raise ZeroProbabilityError("no satisfying assignment has positive probability under these weights")
    if threads <= 1:  # in the calling thread: a pool would add its own memory
        masks = _pass(prob, order, phi, p_hi, 0, k, seed)
    else:
        ranges = _chunk_ranges(k, threads)
        with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
            parts = list(pool.map(lambda r: _pass(prob, order, phi, p_hi, r[0], r[1], seed), ranges))
        masks = np.concatenate(parts, axis=0)
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

    wall_time covers re-parameterization plus sampling (annotation and
    the drawing pass); compile_s and smooth_s are nonzero only in the
    round that built the diagram.
    """

    round: int
    wall_time: float
    samples: SampleBatch
    weights: WeightFunction
    root_log_prob: float
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
    if ordering is None:
        ordering = choose_ordering(formula)

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
        batch.round = rnd
        reports.append(
            RoundReport(
                round=rnd,
                wall_time=param_s + sample_s,
                samples=batch,
                weights=weights,
                root_log_prob=batch.root_log_prob,
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
            f"{rep.sample_s:.6f},{rep.total_s:.6f},{rep.root_log_prob:.12g}"
        )
    return "\n".join(lines) + "\n"
