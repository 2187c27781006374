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

Randomness is counter-based: every variable owns a Philox stream keyed
by (seed, variable), and sample index i consumes draw i of it at
whichever decision on that variable it reaches, the only one it meets in
a deterministic, decomposable diagram. Batches are therefore
reproducible and independent of evaluation order, of the arena's layout
and of the thread split sample sizes from its k * num_vars decision
visits. Each worker draws a variable's coins for all its samples as one
row, through one re-keyed generator.

All that sample reads of the structure is one list, Prob.plan(): each
reachable node with its kind, children and variable, children first
with each variable's decisions together. Annotation reads it forwards
and the drawing pass backwards, parents first, so a worker holds one
variable's row at a time. The diagram keeps the list while it is smooth,
so reweighting between rounds reuses it; smooth() forgets it whenever
it walks the diagram.

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

from .cnf import CnfFormula, WeightFunction
from .compiler import VariableOrdering, compile_cnf, DEFAULT_MAX_VARS
from .errors import GuardError, StructureError, ZeroProbabilityError
from .prob import ARITHMETICS, FALSE_ID, TRUE_ID, Prob, Structure, annotate_branches, parameterize, smooth

MASK64 = (1 << 64) - 1
# Line bytes SampleBatch writes per block of model lines; bounds a block's temporaries.
_BLOCK_BYTES = 1 << 19
# Row b of _BYTE_BITS holds the bits of byte value b, least significant first, as masks store variables.
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
VISITS_PER_WORKER = 2_000_000  # decision visits (k * num_vars) per worker thread of a drawing pass


@dataclass
class SampleBatch:
    """k models, each a complete bitmask, bit v-1 = variable v.

    masks has shape (k, words) with words = ceil(num_vars / 64).
    """

    masks: np.ndarray
    num_vars: int
    root_log_prob: float = 0.0

    def __len__(self) -> int:
        return int(self.masks.shape[0])

    @property
    def words(self) -> int:
        return int(self.masks.shape[1])

    def _bytes(self) -> np.ndarray:
        """The masks as a (k, max(1, ceil(num_vars / 8))) uint8 matrix; bit b of column j = variable 8j+b+1."""
        raw = np.ascontiguousarray(self.masks, dtype="<u8").view(np.uint8)[:, : (self.num_vars + 7) // 8]
        return raw if raw.shape[1] else np.zeros((len(self), 1), dtype=np.uint8)  # a line over no variables still ends

    def frequencies(self) -> np.ndarray:
        """Empirical probability of each positive literal; index v-1 = variable v, counted exactly per byte value."""
        counts = np.array([np.bincount(column, minlength=256) for column in self._bytes().T])
        return (counts @ _BYTE_BITS).ravel()[: self.num_vars] / len(self)

    def model_line_blocks(self) -> Iterator[str]:
        """One DIMACS-style model line per sample, yielded about _BLOCK_BYTES of line bytes at a time.

        Each line is the literals "v" or "-v" for v = 1..num_vars, each
        followed by a space, then "0" and a newline. One template line
        holds each variable's token as a sign slot, its digits and a
        space, zero-padded to one width, then "0\n"; it is tiled once into
        a block of rows. A block writes "-" or zero into each row's sign
        slots from its unpacked mask bits and drops the padding before one
        decode.
        """
        n, raw = self.num_vars, self._bytes()
        width = len(str(n)) + 2
        template = "".join(f"\0{v} ".ljust(width, "\0") for v in range(1, n + 1)) + "0\n"
        rows = max(1, _BLOCK_BYTES // len(template))
        lines = np.tile(np.frombuffer(template.encode("ascii"), dtype=np.uint8), (min(rows, len(self)), 1))
        signs = lines[:, : n * width : width]
        for start in range(0, len(self), rows):
            bits = np.unpackbits(raw[start : start + rows], axis=1, count=n, bitorder="little")
            np.multiply(bits ^ 1, ord("-"), out=signs[: len(bits)])  # "-" for a false variable, else padding
            yield lines[: len(bits)].tobytes().translate(None, b"\0").decode("ascii")

    def model_lines(self) -> str:
        """All model lines as one string; see model_line_blocks."""
        return "".join(self.model_line_blocks())


UpdateRule = Callable[[SampleBatch, WeightFunction], WeightFunction]


class _Coins:
    """One worker's coins, one variable's row of its Philox stream at a time.

    Variable v's stream is Philox keyed (seed mod 2**64, v), and draw j is
    word j % 4 of counter block j // 4, as a freshly built
    np.random.Philox(key=..., counter=j // 4) yields it. A worker drawing
    samples [start, start + count) re-keys one generator, its buffer
    empty, to draw a variable's draws start .. start + count - 1 as one
    row when a decision first needs them, and drops the row when another
    variable's decision does. One instance serves one drawing pass, so
    threads share none.
    """

    def __init__(self, seed: int, start: int, count: int):
        skip, self._offset = divmod(start, 4)
        self._count = count
        self._key = np.array([seed & MASK64, 0], dtype=np.uint64)
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": np.array([skip, 0, 0, 0], dtype=np.uint64), "key": self._key},
                       "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        self._bitgen = np.random.Philox(0)  # its seed is never used: _seek sets the whole state
        self._random = np.random.Generator(self._bitgen).random
        self._var = 0
        self._row = np.empty(0)

    def _seek(self, var: int) -> None:
        self._key[1] = var
        self._bitgen.state = self._state

    def uniforms(self, var: int, idx: np.ndarray) -> np.ndarray:
        """Draw start + i of var's stream for each i in idx, all below count."""
        if var != self._var:
            self._row = np.empty(0)  # free the old row before drawing the next
            self._seek(var)
            self._row = self._random(self._count + self._offset)[self._offset :]
            self._var = var
        return self._row[idx]


# A decision on variable v sets bit _BITS[(v - 1) % 64] of mask word (v - 1) // 64.
_BITS = [np.uint64(1 << bit) for bit in range(64)]


def _route(plan: Structure, p_hi: dict[int, float], seed: int, start: int, out: np.ndarray) -> None:
    """Draw samples [start, start + len(out)) top-down, setting each one's true variables in out.

    plan is prob.plan(), read backwards so parents come before
    their children and a variable's decisions one after another. Each
    node receives the indices of the samples that reach it: the root all
    of them, a conjunction hands its indices to every child, and a node
    with several parents joins what they hand it. A decision sets its
    variable's bit for the samples that take its hi branch and splits
    the rest off to its lo branch. p_hi 1.0 or 0.0 forces a branch
    without drawing, exactly as the coins u < 1.0 and u < 0.0 would;
    otherwise sample j compares draw j of its variable's stream.
    """
    count = len(out)
    columns = [out[:, word] for word in range(out.shape[1])]
    coins = _Coins(seed, start, count)
    root = plan[-1][0]
    reach: dict[int, list[np.ndarray]] = {}
    if root != TRUE_ID:  # a diagram over no variables sets no bits
        reach[root] = [np.arange(count)]
    for entry in reversed(plan):
        parts = reach.pop(entry[0], None)
        if parts is None:  # most nodes at small k: unpack only the reached
            continue
        nid, kind, children, var = entry
        idx = parts[0] if len(parts) == 1 else np.concatenate(parts)
        if len(idx) > count:  # only a conjunction mentioning no variable meets a sample twice
            idx = np.unique(idx)
        if kind == "A":
            handed = [(child, idx) for child in children]
        else:
            p = p_hi[nid]
            if p == 1.0:
                hi_idx, lo_idx = idx, idx[:0]
            elif p == 0.0:
                hi_idx, lo_idx = idx[:0], idx
            else:
                take = coins.uniforms(var, idx) < p
                hi_idx, lo_idx = idx[take], idx[~take]
            word, bit = divmod(var - 1, 64)
            columns[word][hi_idx] |= _BITS[bit]
            lo, hi = children
            handed = [(hi, hi_idx), (lo, lo_idx)]
        for child, child_idx in handed:
            if child != TRUE_ID and len(child_idx):
                reach.setdefault(child, []).append(child_idx)


def sample(prob: Prob, k: int, seed: int, *, mode: str = "log") -> SampleBatch:
    """Draw k models with replacement, weighted per the parameters.

    Each sample is distributed with probability W(assignment) / N where N
    is the weighted model count. The diagram is annotated once per call,
    over prob.plan(); mode 'rational' does so in exact rational
    arithmetic instead of log space, and the coins are the same either
    way: sample i's at a decision is draw i of its variable's stream,
    which relies on the determinism and decomposability that compile_cnf
    and import_prob guarantee (a sample meets at most one decision per
    variable). The drawing pass runs inline below 2 * VISITS_PER_WORKER
    decision visits (k * num_vars), else on a thread per VISITS_PER_WORKER
    visits, at most one per CPU and one per sample; no split changes the
    result. A k whose masks cannot be allocated raises GuardError.
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

    phi, p_hi = annotate_branches(prob, arith)
    if prob.root not in phi:
        raise ZeroProbabilityError("no satisfying assignment has positive probability under these weights")
    plan = prob.plan()  # the list annotation read: prob is smooth
    words = max(1, (prob.num_vars + 63) // 64)
    try:
        masks = np.zeros((k, words), dtype=np.uint64)
    except (MemoryError, ValueError) as exc:  # numpy raises ValueError for "array is too big"
        raise GuardError(f"k={k} samples of {words} mask words cannot be allocated") from exc
    workers = min(os.cpu_count() or 1, k, k * prob.num_vars // VISITS_PER_WORKER)
    if workers <= 1:  # in the calling thread: a pool would add its start-up and its own memory
        _route(plan, p_hi, seed, 0, masks)
    else:
        bounds = [k * i // workers for i in range(workers + 1)]  # none empty, as workers <= k
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda start, stop: _route(plan, p_hi, seed, start, masks[start:stop]), bounds, bounds[1:]))
    return SampleBatch(masks=masks, num_vars=prob.num_vars, root_log_prob=arith.log(phi[prob.root]))


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
    (annotation and the drawing pass, and in the first round also
    Prob.plan()'s list, which later rounds reuse); compile_s and
    smooth_s are nonzero only in the round that built the diagram.
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
    max_vars: int = DEFAULT_MAX_VARS,
) -> list[RoundReport]:
    """Compile once, then sample over multiple rounds with evolving weights.

    Round 1 compiles, smooths, parameterizes with the initial weights
    and samples. Every later round derives new weights from the previous
    round's samples via `rule`, re-parameterizes the persisted diagram
    and samples again, so compilation cost is paid exactly once. Each
    round's pass is split as sample splits it.
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
        batch = sample(prob, k, round_seed(seed, rnd), mode=mode)
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
