"""The three user-facing jobs of csiqa, each as a closed-loop workload.

A workload builds its inputs from a seed (``setup``), then runs ops back to
back (``run``) and checks what they produced (``check``). Training and
pretraining make one public call per phase; an op is one optimizer step,
so op boundaries are the returns of ``numerics.adam_step`` (``OpMarks``)
and the call's step count is sized from the warm-up to fill the phase.
Scoring calls ``pipeline.predict_image`` once per op.

``setup`` ends with a warm-up whose output is also the workload's
``result_mse``: a value that depends only on the code when the setup seed
is fixed.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from csiqa import pipeline as pl
from csiqa import sampling
from csiqa.data import generate_toy_dataset, load_images, make_clean_pattern, read_manifest
from csiqa.errors import ContractError, NumericalDivergenceError

from tracer import rebind

# Failures a single op can report; anything else is a defect in the
# benchmark and is allowed to end the run.
OP_ERRORS = (ContractError, NumericalDivergenceError, FloatingPointError)


@dataclass
class Phase:
    """Durations of the ops one phase ran, in seconds, and its wall time."""

    op_s: list[float] = field(default_factory=list)
    failed: int = 0
    wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.op_s) + self.failed


class OpMarks:
    """Timestamps of every ``numerics.adam_step`` return while installed."""

    def __init__(self):
        self.times: list[float] = []
        self._undo = None

    def __enter__(self) -> "OpMarks":
        times = self.times

        def make(fn):
            def marked(*args, **kwargs):
                out = fn(*args, **kwargs)
                times.append(time.perf_counter())
                return out
            return marked

        self._undo = rebind("csiqa.numerics", "adam_step", make)
        return self

    def __exit__(self, *exc) -> None:
        self._undo()

    def durations(self, since: int, started: float) -> list[float]:
        """Op durations for marks from index ``since``, the first from ``started``."""
        stamps = [started] + self.times[since:]
        return [b - a for a, b in zip(stamps[:-1], stamps[1:])]


def _steps_for(seconds: float, step_s: float) -> int:
    return max(1, int(math.ceil(seconds / step_s)))


def _steady_step_s(marks: OpMarks, since: int, started: float) -> float:
    """Median of the last half of a warm-up's step times."""
    steps = marks.durations(since, started)
    return float(np.median(steps[len(steps) // 2:]))


# ---------------------------------------------------------------------------
# train-desk: pipeline.train on the desk configuration
# ---------------------------------------------------------------------------

class TrainDesk:
    """Desk ModelConfig (cl-iqa, fixed ratio 0.1, batch 8, 32x32 crops).

    Learning rate and warm-up follow acceptance criterion 6, so the loss
    falls within the run. Validation is off: every step is a training step.
    """

    name = "train-desk"
    warm_steps = 16
    settings = dict(batch=8, lr=7e-4, weight_decay=1e-5, val_every=0)

    def setup(self, seed: int, workdir: str, marks: OpMarks) -> dict:
        manifest = generate_toy_dataset(workdir, n_images=32, size=40, seed=seed)
        records = read_manifest(manifest)
        cfg = pl.ModelConfig(variant="cl-iqa", ratio_mode="fixed", ratio=0.1, seed=seed)
        since, started = len(marks.times), time.perf_counter()
        warm = pl.train(records, cfg, pl.TrainSettings(steps=self.warm_steps, **self.settings))
        losses = warm.history["loss"]
        return {
            "records": records,
            "cfg": cfg,
            "run": warm,
            "step_s": _steady_step_s(marks, since, started),
            "result_mse": float(np.mean(losses[-4:])),
        }

    def run(self, ctx: dict, marks: OpMarks, seconds: float, ops: int | None) -> Phase:
        prev = ctx["run"]
        done = len(prev.history["loss"])
        steps = ops if ops is not None else _steps_for(seconds, ctx["step_s"])
        resume = pl.LoadedCheckpoint(prev.state, prev.optimizer, prev.rng, prev.history)
        settings = pl.TrainSettings(steps=done + steps, **self.settings)
        phase = Phase()
        since, started = len(marks.times), time.perf_counter()
        try:
            ctx["run"] = pl.train(ctx["records"], ctx["cfg"], settings, resume=resume)
        except OP_ERRORS:
            # train raises on the first non-finite loss, before that step's update
            phase.failed = 1
        phase.wall_s = time.perf_counter() - started
        phase.op_s = marks.durations(since, started)
        return phase

    def check(self, ctx: dict) -> list[str]:
        losses = ctx["run"].history["loss"]
        if not all(math.isfinite(v) for v in losses):
            return ["train-desk: non-finite loss"]
        early, late = np.mean(losses[:8]), np.mean(losses[-8:])
        if not late < early:
            return [f"train-desk: late loss {late:.4f} not below early loss {early:.4f}"]
        return []


# ---------------------------------------------------------------------------
# pretrain-corpus: sampling.pretrain_csm on the criterion-9 recipe
# ---------------------------------------------------------------------------

class PretrainCorpus:
    """8 textured 24x24 images, ratio 0.25, width 16, lr 3e-3 (criterion 9).

    Each call continues the sampling matrix of the call before it; the
    reconstructor starts afresh, as ``pretrain_csm`` always does.
    """

    name = "pretrain-corpus"
    warm_epochs = 8
    recipe = dict(ratio=0.25, lr=3e-3, block_size=4, width=16)

    def _pretrain(self, ctx: dict, epochs: int):
        r = self.recipe
        return sampling.pretrain_csm(
            ctx["corpus"], r["ratio"], epochs=epochs, lr=r["lr"],
            block_size=r["block_size"], width=r["width"], seed=ctx["seed"],
            matrix=ctx.get("matrix"))

    def setup(self, seed: int, workdir: str, marks: OpMarks) -> dict:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
        corpus = [make_clean_pattern(24, rng, max_frequency=6.0) for _ in range(8)]
        ctx = {"seed": seed, "corpus": corpus}
        since, started = len(marks.times), time.perf_counter()
        ctx["matrix"], rec, _ = self._pretrain(ctx, self.warm_epochs)
        ctx["step_s"] = _steady_step_s(marks, since, started)
        ctx["result_mse"] = sampling.reconstruction_mse(
            ctx["matrix"], rec, corpus, self.recipe["ratio"])
        return ctx

    def run(self, ctx: dict, marks: OpMarks, seconds: float, ops: int | None) -> Phase:
        epochs = ops if ops is not None else _steps_for(seconds, ctx["step_s"])
        phase = Phase()
        since, started = len(marks.times), time.perf_counter()
        try:
            ctx["matrix"], rec, losses = self._pretrain(ctx, epochs)
        except OP_ERRORS:
            phase.failed = 1
            losses, rec = [], None
        phase.wall_s = time.perf_counter() - started
        durations = marks.durations(since, started)
        phase.op_s = [d for d, v in zip(durations, losses) if math.isfinite(v)]
        phase.failed += len(losses) - len(phase.op_s)
        ctx["rec"], ctx["losses"] = rec, losses
        return phase

    def check(self, ctx: dict) -> list[str]:
        if ctx["rec"] is None:
            return ["pretrain-corpus: pretraining raised"]
        first = ctx["losses"][0]
        final = sampling.reconstruction_mse(
            ctx["matrix"], ctx["rec"], ctx["corpus"], self.recipe["ratio"])
        if not (math.isfinite(final) and final < first):
            return [f"pretrain-corpus: final MSE {final} not below first-epoch loss {first}"]
        return []


# ---------------------------------------------------------------------------
# score-fivecrop: pipeline.predict_image after a checkpoint round trip
# ---------------------------------------------------------------------------

class ScoreFivecrop:
    """Arbitrary-ratio model, loaded from a checkpoint, scoring 48x48 images.

    The ratio is drawn per image from the paper's set, so the measurement
    length (2 to 16 per 4x4 block) and the embedding truncation vary.
    """

    name = "score-fivecrop"
    n_images = 32
    ratios = pl.DEFAULT_RATIO_SET
    recheck = 4

    @staticmethod
    def _crop_rng(seed: int, op: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([seed, 3, op]))

    def _score(self, ctx: dict, state: pl.ModelState, op: int) -> float:
        j = op % self.n_images
        return pl.predict_image(ctx["images"][j], state, ctx["ratio"][j], 5,
                                self._crop_rng(ctx["seed"], op))

    def setup(self, seed: int, workdir: str, marks: OpMarks) -> dict:
        memory = pl.init_model(pl.ModelConfig(variant="cl-iqa", ratio_mode="arbitrary", seed=seed))
        path = os.path.join(workdir, "model.ckpt")
        pl.save_model(path, memory)
        loaded = pl.load_model(path).state
        manifest = generate_toy_dataset(workdir, n_images=self.n_images, size=48, seed=seed)
        records = read_manifest(manifest)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 6]))
        ctx = {
            "seed": seed,
            "memory": memory,
            "state": loaded,
            "images": load_images(records),
            "mos": np.array([r.mos for r in records]),
            "ratio": [self.ratios[int(i)] for i in rng.integers(len(self.ratios), size=self.n_images)],
        }
        warm = np.array([self._score(ctx, loaded, j) for j in range(self.n_images)])
        ctx["result_mse"] = float(np.mean((warm - ctx["mos"]) ** 2))
        return ctx

    def run(self, ctx: dict, marks: OpMarks, seconds: float, ops: int | None) -> Phase:
        phase = Phase()
        scores = ctx.setdefault("scores", {})
        op = len(scores) + self.n_images
        started = time.perf_counter()
        while (phase.attempted < ops if ops is not None
               else time.perf_counter() - started < seconds):
            t0 = time.perf_counter()
            try:
                value = self._score(ctx, ctx["state"], op)
            except OP_ERRORS:
                value = math.nan
            elapsed = time.perf_counter() - t0
            scores[op] = value
            if math.isfinite(value):
                phase.op_s.append(elapsed)
            else:
                phase.failed += 1
            op += 1
        phase.wall_s = time.perf_counter() - started
        return phase

    def check(self, ctx: dict) -> list[str]:
        scores = ctx.get("scores", {})
        problems = []
        if not all(math.isfinite(v) for v in scores.values()):
            problems.append("score-fivecrop: non-finite score")
        for op in list(scores)[: self.recheck]:
            if self._score(ctx, ctx["memory"], op) != scores[op]:
                problems.append(f"score-fivecrop: op {op} differs between the loaded "
                                "checkpoint and the in-memory model")
            if self._score(ctx, ctx["state"], op) != scores[op]:
                problems.append(f"score-fivecrop: op {op} is not repeatable")
        return problems


WORKLOADS = {w.name: w for w in (TrainDesk(), PretrainCorpus(), ScoreFivecrop())}
