"""Per-layer spans around samt's functions, installed from the benchmark.

samt's modules import their collaborators by name (``from .model import
block_loss_and_gradients``), so a span replaces the name in the module that
makes the call.  Wrapping ``samt.optim``'s and ``samt.etamodel``'s reference to
the same function apart is what splits the main pass from the meta pass.
Engine ``step`` methods are wrapped on their classes.

A span's self time is its duration minus the durations of the spans opened
inside it.  Every value is accumulated per iteration (one set-up plus one
round) in seconds, counts or bytes; ``perfbench/run.py`` converts units.
"""

from __future__ import annotations

import time
import tracemalloc

from samt import data, etamodel, harness, optim, trainer

ENGINE_NAMES = {
    optim.SgdEngine: "sgd",
    optim.AdamEngine: "adam",
    optim.HdEngine: "hd",
    optim.OagdEngine: "oagd",
}


class Tracer:
    """Collects spans, counts and peaks for one traced iteration."""

    def __init__(self):
        self.totals: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.stack: list[list[float]] = []  # child seconds of each open span
        self.top_level_s = 0.0  # summed durations of spans with no parent
        self.engine = "none"  # engine class of the innermost open step
        self.block = 0  # first layer index of the block that step serves
        # Allocation peaks depend only on the block and its psi's size, so
        # tracemalloc runs for the first step of each such pair only.
        self.alloc_seen: set[tuple[int, int]] = set()
        self.alloc_key: tuple[int, int] | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def add(self, name: str, value: float) -> None:
        self.totals[name] = self.totals.get(name, 0.0) + value

    def record_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def values(self) -> dict[str, float]:
        return {**self.totals, **self.maxima}

    def timed(self, fn, name, self_only=False):
        """Wrap `fn` in a span; `name` is a string or a no-argument callable."""
        stack = self.stack

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name()
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                else:
                    self.top_level_s += dur
                self.add(label, dur - frame[0] if self_only else dur)

        return wrapper

    def engine_step(self, cls, fn):
        """Span on an engine's `step`: self time, step count, block context."""
        engine = ENGINE_NAMES[cls]
        timed = self.timed(fn, f"optim.step_self_ms.{engine}", self_only=True)

        def step(engine_self, net, block, *args, **kwargs):
            outer = self.engine, self.block
            self.engine, self.block = engine, min(block)
            self.add(f"optim.steps.{engine}", 1)
            self.alloc_key = None
            if engine == "oagd":
                psi = engine_self.state.psi
                size = sum(w.size for w in psi.weights)
                self.record_max(f"etamodel.psi_params.block{self.block}", size)
                if (self.block, size) not in self.alloc_seen:
                    self.alloc_key = (self.block, size)
            try:
                return timed(engine_self, net, block, *args, **kwargs)
            finally:
                self.engine, self.block = outer

        return step

    def meta_with_alloc(self, fn):
        """meta_gradients: self time; may start the allocation peak psi_step ends."""
        timed = self.timed(fn, lambda: f"etamodel.meta_self_ms.block{self.block}", self_only=True)

        def meta_gradients(*args, **kwargs):
            if self.alloc_key is not None:
                tracemalloc.start()
            return timed(*args, **kwargs)

        return meta_gradients

    def psi_step_with_alloc(self, fn):
        timed = self.timed(fn, lambda: f"etamodel.psi_step_ms.block{self.block}")

        def psi_step(*args, **kwargs):
            try:
                return timed(*args, **kwargs)
            finally:
                if tracemalloc.is_tracing():
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.record_max(f"etamodel.alloc_peak_mb.block{self.block}", peak)
                    self.alloc_seen.add(self.alloc_key)
                    self.alloc_key = None

        return psi_step

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, make) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        t = self
        main = lambda: f"model.main_pass_ms.{t.engine}.block{t.block}"  # noqa: E731
        for owner, attr, make in (
            (data, "synth_classification", lambda f: t.timed(f, "data.synth_s")),
            (harness, "synth_classification", lambda f: t.timed(f, "data.synth_s")),
            (harness, "synth_regression", lambda f: t.timed(f, "data.synth_s")),
            (data, "write_idx", lambda f: t.timed(f, "data.idx_s")),
            (harness, "load_idx", lambda f: t.timed(f, "data.idx_s")),
            (harness, "build_state", lambda f: t.timed(f, "harness.build_state_s")),
            (trainer, "train_epoch", lambda f: t.timed(f, "trainer.loop_self_ms", self_only=True)),
            (trainer, "sample_minibatch", lambda f: t.timed(f, "data.sample_ms")),
            (trainer, "evaluate", lambda f: t.timed(f, "trainer.evaluate_ms")),
            (optim, "block_loss_and_gradients", lambda f: t.timed(f, main)),
            (optim, "grad_features", lambda f: t.timed(f, lambda: f"stepsize.features_ms.block{t.block}")),
            (optim, "compose_step", lambda f: t.timed(f, "stepsize.compose_ms")),
            (optim, "meta_gradients", t.meta_with_alloc),
            (optim, "psi_step", t.psi_step_with_alloc),
            (etamodel, "block_loss_and_gradients", lambda f: t.timed(f, lambda: f"model.meta_pass_ms.block{t.block}")),
            (etamodel, "compose_step", lambda f: t.timed(f, "stepsize.compose_ms")),
            (etamodel, "reduce_to_kind", lambda f: t.timed(f, lambda: f"stepsize.reduce_ms.block{t.block}")),
        ):
            self._patch(owner, attr, make)
        for cls in ENGINE_NAMES:
            self._patch(cls, "step", lambda f, cls=cls: t.engine_step(cls, f))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
