"""Paired in-process timing of this tree against a git revision.

Run as ``python tests/pairbench.py REV [--pairs N] [--out PATH]``,
where N is a positive multiple of 12 (24 by default).
``REV`` (a commit, tag or branch of this repository) is exported by
``fingerprint_diff.export`` into a temporary directory; nothing is
fetched.  One process imports three copies of the package under distinct
names: ``samt_base`` and ``samt_twin`` from REV's ``src/samt``,
``samt_head`` from this tree's.  Each copy builds its own run from the same config and
seed, so the copies do the same work with their own code.

Two comparisons are taken from each round: A/A (base against twin, the
same code, whose ratios show the bias of the measurement itself) and A/B
(base against head).  A round times one sample of each of the three runs
back to back, so base, twin and head are sampled equally often, and the
order rotates from round to round through all six orders of the three
(the rotations of base, twin, head and then of base, head, twin).  Over
six rounds each run takes each place twice and each comparison times
its base first in three.  The first half of the rounds uses runs built in
the order base, twin, head and the second half runs built in the reverse
order, since which run allocates first can bias a ratio by several
percent.  So each comparison runs in both timing orders and both build
orders.  With N a multiple of 12, each half runs each of the six timing
orders equally often.  The host's speed drifts in phases of seconds to
minutes, so the samples of a round see the same phase.

Workloads, each sample after two warm-up samples per run, on the desk
net (784-100-10, 1,024 synthetic 28x28 glyphs, batch 64) unless named
``tiny/``:

- ``epoch``: one samt_e ``train_epoch`` (16 outer iterations, the round
  of perfbench's desk_element without its evaluation), in s;
- ``step``: samt_e's layer-0 engine step, in ms per step.  A sample is
  8 consecutive steps, so every tree folds psi's pending output-layer
  columns a whole number of times (every 4th or 8th step);
- ``mix/<engine>``: one ``train_epoch`` of each engine of perfbench's
  desk_mix (sgd, adam, hd, samt_s, samt_r and samt_c), in s;
- ``desk/samt_s/block0`` and ``desk/samt_s/block1``: samt_s's engine
  step on each desk layer, in ms per step, 8 steps a sample;
- ``tiny/<engine>``: 8 layer-0 engine steps of each of the seven engines
  on tiny_mix's 64-32-32-10 net (512 synthetic 8x8 glyphs, batch 32,
  eta0 0.5, adam rate 0.01), in ms per step.

The output (``BENCH_pairs.json`` unless ``--out`` names another file)
holds, per workload and comparison, every round's pair of times and its
ratio (other / base: below 1 means the twin or the head was faster), the
median ratio per timing order, per build order and over all pairs, and
the share of pairs the other side won.  Every run uses seed 0.  The
exit code is 0, or 2 when N is not a positive multiple of 12 or ``REV``
cannot be exported.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import statistics
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

import numpy as np

from fingerprint_diff import ExportError, export

ROOT = Path(__file__).resolve().parents[1]
BASE, TWIN, HEAD = "samt_base", "samt_twin", "samt_head"
COMPARISONS = {"A/A": TWIN, "A/B": HEAD}
# the timing order of round i is ORDERS[i % 6]
ORDERS = tuple(order[r:] + order[:r] for order in ((BASE, TWIN, HEAD), (BASE, HEAD, TWIN)) for r in range(3))
MIX = ("sgd", "adam", "hd", "samt_s", "samt_r", "samt_c")
ENGINES = ("sgd", "adam", "hd", "samt_s", "samt_e", "samt_r", "samt_c")
WARMUP = 2
STEPS_PER_SAMPLE = 8
SEED = 0
# the runs' sizes by net; tiny is perfbench's tiny_mix glyph net with its rates
NETS = {
    "desk": dict(widths=(784, 100, 10), img_side=28, n_train=1024, train_batch=64),
    "tiny": dict(widths=(64, 32, 32, 10), img_side=8, n_train=512, train_batch=32, eta0=0.5, adam_rate=0.01),
}


def import_tree(src: Path, name: str):
    """The package under `src/samt`, imported as `name`; a stale import of that name is dropped first."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    spec = importlib.util.spec_from_file_location(
        name, src / "samt" / "__init__.py", submodule_search_locations=[str(src / "samt")]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


class Run:
    """One copy's run of one optimizer and its two timed samples."""

    def __init__(self, package: str, optimizer: str, sizes: dict):
        harness = importlib.import_module(f"{package}.harness")
        self.trainer = importlib.import_module(f"{package}.trainer")
        data = importlib.import_module(f"{package}.data")
        self.config = harness.TrainConfig(
            dataset="synthetic_images", optimizer=optimizer, n_test=64, epochs=1, seed=SEED, **sizes
        )
        self.train, _ = harness.load_datasets(self.config)
        self.state = harness.build_state(self.config, self.train)
        rng = np.random.default_rng(SEED)
        self.batches = [
            (data.sample_minibatch(self.train, sizes["train_batch"], rng),) * 2 for _ in range(STEPS_PER_SAMPLE)
        ]

    def epoch(self) -> float:
        start = time.perf_counter()
        self.state, _ = self.trainer.train_epoch(self.state, self.train, self.config.train_batch)
        return time.perf_counter() - start

    def step(self, block_index: int = 0) -> float:
        engine, block = self.state.engines[block_index], self.state.plan.blocks[block_index]
        start = time.perf_counter()
        for main_batch, meta_batch in self.batches:
            self.state.net, _ = engine.step(self.state.net, block, main_batch, meta_batch)
        return (time.perf_counter() - start) / STEPS_PER_SAMPLE * 1e3


# workload: (optimizer, sample, unit, net)
WORKLOADS = {
    "epoch": ("samt_e", Run.epoch, "s", "desk"),
    "step": ("samt_e", Run.step, "ms per step", "desk"),
    **{f"mix/{optimizer}": (optimizer, Run.epoch, "s", "desk") for optimizer in MIX},
    **{f"desk/samt_s/block{b}": ("samt_s", partial(Run.step, block_index=b), "ms per step", "desk") for b in (0, 1)},
    **{f"tiny/{optimizer}": (optimizer, Run.step, "ms per step", "tiny") for optimizer in ENGINES},
}


def summary(pairs: list[dict]) -> dict:
    """Median ratio per timing order, per build order and overall, and the share of pairs the other side won."""
    groups = {
        f"{side} {what} first": [p["ratio"] for p in pairs if p[key] == side]
        for key, what in (("first", "timed"), ("built", "built"))
        for side in ("base", "other")
    }
    return {
        "median_ratio": {
            **{name: statistics.median(ratios) for name, ratios in groups.items() if ratios},
            "all": statistics.median(p["ratio"] for p in pairs),
        },
        "other_won": sum(p["other"] < p["base"] for p in pairs) / len(pairs),
    }


def compare(optimizer: str, sample, sizes: dict, pairs: int) -> dict:
    """One workload's rounds, each giving an A/A and an A/B pair, with their summaries.

    The first half of the rounds times runs built in the order base, twin,
    head, the second half runs built in the reverse order, so neither side
    always holds the memory allocated first."""
    results = {comparison: [] for comparison in COMPARISONS}
    for half, build_order in enumerate(((BASE, TWIN, HEAD), (HEAD, TWIN, BASE))):
        runs = {name: Run(name, optimizer, sizes) for name in build_order}
        for run in runs.values():
            for _ in range(WARMUP):
                sample(run)
        for i in range(half * ((pairs + 1) // 2), (pairs + 1) // 2 if half == 0 else pairs):
            order = ORDERS[i % len(ORDERS)]
            times = {name: sample(runs[name]) for name in order}
            for comparison, other in COMPARISONS.items():
                results[comparison].append({
                    "first": "base" if order.index(BASE) < order.index(other) else "other",
                    "built": "base" if build_order.index(BASE) < build_order.index(other) else "other",
                    "base": times[BASE],
                    "other": times[other],
                    "ratio": times[other] / times[BASE],
                })
        del runs
    return {comparison: {"pairs": p, **summary(p)} for comparison, p in results.items()}


def measure(base_src: Path, head_src: Path, pairs: int, nets: dict = NETS) -> dict:
    """Every workload's comparisons, each on the sizes `nets` gives its net; one
    workload's runs are freed before the next is built."""
    for name, src in ((BASE, base_src), (TWIN, base_src), (HEAD, head_src)):
        import_tree(src, name)
    return {
        workload: {"unit": unit, **compare(optimizer, sample, nets[net], pairs)}
        for workload, (optimizer, sample, unit, net) in WORKLOADS.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="pairbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("rev")
    parser.add_argument("--pairs", type=int, default=24)
    parser.add_argument("--out", default=str(ROOT / "BENCH_pairs.json"))
    args = parser.parse_args(argv)
    if args.pairs < 12 or args.pairs % 12:  # each build half runs all six timing orders equally often
        parser.error(f"--pairs must be a positive multiple of 12, got {args.pairs}")
    with tempfile.TemporaryDirectory() as tmp:
        try:
            export(args.rev, Path(tmp))
        except ExportError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        result = measure(Path(tmp) / "src", ROOT / "src", args.pairs)
    report = {"rev": args.rev, "pairs": args.pairs, "seed": SEED, "workloads": result}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for workload, comparisons in result.items():
        for comparison in COMPARISONS:
            s = comparisons[comparison]
            medians = ", ".join(f"{k} {v:.3f}" for k, v in s["median_ratio"].items())
            print(f"{workload} {comparison}: median ratio {medians}; other won {s['other_won']:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
