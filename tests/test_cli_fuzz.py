"""Every `samt train` run ends with exit code 0, 1 or 3 and names its cause.

Hypothesis drives `cli.main` over run configurations on tiny data: the
synthetic regression source with at most 64 samples, glyphs of side at
most 6, and a CSV written to a temporary directory.  Each example draws
every key from a range where runs mostly train, then replaces up to two
keys with values from anywhere in their type, so that single faults and
clean runs both occur often.

- Exit 0: the CSV rows are finite and no RuntimeWarning was raised.
- Exit 1: one `error:` line that names a config key or a path.
- Exit 3: one `error:` line naming the epoch, the iteration and the block.
- Every exit: the CSV holds its header and a train and a test row for
  each completed epoch: all of them at exit 0, those before the
  diverging epoch at exit 3, and no file at exit 1, whose causes are all
  found before the first epoch.
"""

import contextlib
import dataclasses
import io
import math
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from samt.cli import main as cli_main
from samt.harness import CSV_HEADER, OPTIMIZERS, TrainConfig
from samt.stepsize import ABLATION_ARMS, PROJECTION_STYLES

KEYS = [f.name for f in dataclasses.fields(TrainConfig)]
KEY_PATTERN = re.compile(r"\b(" + "|".join(KEYS) + r")\b")
DIVERGED = re.compile(r"^error: training diverged at epoch (\d+), iteration \d+, block \(")

EDGE_FLOATS = [0.0, -0.0, 1.0, -1.0, 5e-324, sys.float_info.min, 1e-300, 1e300, sys.float_info.max,
               math.nan, math.inf, -math.inf]
ANY_FLOAT = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
# counts that size arrays or loops stay small: the data is tiny and every run must be quick
SMALL_INT = st.integers(-3, 80)
ANY_INT = st.one_of(st.sampled_from([-1, 0, 1, 2, 10**9]), SMALL_INT)

# keys a wild value may replace, with the strategy it is drawn from
WILD = {
    "eta0": ANY_FLOAT, "meta_learning_rate": ANY_FLOAT, "activation_slope": ANY_FLOAT,
    "sgd_rate": st.one_of(st.none(), ANY_FLOAT), "adam_rate": ANY_FLOAT, "hd_hyper_rate": ANY_FLOAT,
    "synth_noise_sd": ANY_FLOAT, "img_noise_sd": ANY_FLOAT, "csv_test_fraction": ANY_FLOAT,
    "inner_steps": st.integers(-1, 3), "meta_lag": ANY_INT, "psi_hidden": SMALL_INT, "train_batch": ANY_INT,
    "eval_batch": ANY_INT, "epochs": st.integers(-1, 2), "seed": ANY_INT, "n_train": st.integers(-3, 64),
    "n_test": st.integers(-3, 64), "synth_d": st.integers(-1, 8), "img_side": st.integers(-1, 6),
    "img_classes": st.integers(-1, 6), "widths": st.lists(st.integers(-1, 8), max_size=4).map(tuple),
    "grouping": st.lists(st.lists(st.integers(-1, 4), max_size=3).map(tuple), max_size=3).map(tuple),
    "csv_target": st.sampled_from(["y", "a", "nope"]), "out_csv": st.just("missing/m.csv"),
}


@st.composite
def runs(draw):
    """(config values by key, CSV table or None); every value's text is what the CLI gets."""
    dataset = draw(st.sampled_from(["synthetic", "synthetic_images", "csv"]))
    values = dict(
        dataset=dataset,
        optimizer=draw(st.sampled_from(OPTIMIZERS)),
        projection_style=draw(st.sampled_from(PROJECTION_STYLES)),
        ablation=draw(st.sampled_from(ABLATION_ARMS)),
        psi_bypass=draw(st.booleans()),
        eta0=draw(st.floats(1e-3, 0.99)),
        meta_learning_rate=draw(st.sampled_from([0.0, 1e-3, 0.1])),
        activation_slope=draw(st.floats(0.001, 0.5)),
        sgd_rate=draw(st.one_of(st.none(), st.floats(1e-3, 3.0))),
        adam_rate=draw(st.floats(1e-4, 1.0)),
        hd_hyper_rate=draw(st.sampled_from([0.0, 1e-4, 0.1])),
        inner_steps=draw(st.integers(1, 2)),
        meta_lag=draw(st.integers(0, 1)),
        psi_hidden=draw(st.integers(1, 6)),
        epochs=draw(st.integers(1, 2)),
        seed=draw(st.integers(0, 2**32)),
        n_train=draw(st.integers(4, 48)),
        n_test=draw(st.integers(1, 16)),
        eval_batch=draw(st.integers(1, 40)),
        out_csv="m.csv",
    )
    values["train_batch"] = draw(st.integers(4, 16).map(lambda b: min(b, values["n_train"])))
    table = None
    if dataset == "synthetic":
        values.update(synth_d=draw(st.integers(1, 6)), synth_noise_sd=draw(st.floats(0.0, 2.0)))
        dims = (values["synth_d"], 1)
    elif dataset == "synthetic_images":
        values.update(img_side=draw(st.integers(2, 6)), img_classes=draw(st.integers(1, 5)),
                      img_noise_sd=draw(st.floats(0.0, 2.0)))
        dims = (values["img_side"] ** 2, values["img_classes"])
    else:
        rows, cols = draw(st.integers(1, 24)), draw(st.integers(1, 4))
        cells = st.one_of(st.floats(-10, 10), st.sampled_from(EDGE_FLOATS)) if draw(st.booleans()) else st.floats(-10, 10)
        table = np.array(draw(st.lists(st.lists(cells, min_size=cols + 1, max_size=cols + 1),
                                       min_size=rows, max_size=rows)))
        values.update(csv_target="y", csv_standardize=draw(st.booleans()),
                      csv_test_fraction=draw(st.floats(0.05, 0.5)))
        dims = (cols, 1)
    hidden = draw(st.lists(st.integers(1, 6), max_size=2))
    values["widths"] = (dims[0], *hidden, dims[1])
    layers = len(values["widths"]) - 1
    if draw(st.booleans()):  # a valid partition: layers that share a label share a block
        labels = draw(st.lists(st.integers(0, 2), min_size=layers, max_size=layers))
        values["grouping"] = tuple(tuple(l for l in range(layers) if labels[l] == g) for g in sorted(set(labels)))
    for key in draw(st.lists(st.sampled_from(sorted(WILD)), max_size=2, unique=True)):
        values[key] = draw(WILD[key])
    return values, table


def text(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):
            return ";".join(",".join(map(str, group)) for group in value)
        return ",".join(map(str, value))
    return str(value)


def completed_epochs(path: Path):
    """Epochs whose rows the CSV holds, after checking its layout; None with no file."""
    if not path.exists():
        return None
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) % 2 == 0
    assert [r[:2] for r in rows] == [[str(i // 2 + 1), ("train", "test")[i % 2]] for i in range(len(rows))]
    return len(rows) // 2


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@example(run=(dict(dataset="synthetic", n_train=40, n_test=10, train_batch=8, epochs=2, optimizer="samt_s",
                   ablation="left_only", eta0=5e-324, out_csv="m.csv"), None))
@given(run=runs())
def test_every_run_exits_0_1_or_3_and_names_its_cause(run):
    values, table = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        values = {**values, "out_csv": str(tmp / values["out_csv"])}
        if table is not None:
            header = [chr(ord("a") + j) for j in range(table.shape[1] - 1)] + ["y"]
            body = "".join(",".join(map(repr, map(float, row))) + "\n" for row in table)
            (tmp / "d.csv").write_text(",".join(header) + "\n" + body, encoding="utf-8")
            values["csv_path"] = str(tmp / "d.csv")
        argv = ["train"] + [f"{key}={text(value)}" for key, value in values.items()]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli_main(argv)
        event(f"exit {code}")
        lines = err.getvalue().splitlines()
        completed = completed_epochs(Path(values["out_csv"]))
        if code == 0:
            assert lines == []
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
            assert completed == values["epochs"]
            rows = Path(values["out_csv"]).read_text(encoding="utf-8").splitlines()[1:]
            assert all(math.isfinite(float(cell)) for row in rows for cell in row.split(",")[2:]), argv
        elif code == 1:
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            paths = [values["out_csv"], values.get("csv_path")]
            assert KEY_PATTERN.search(lines[0]) or any(p and p in lines[0] for p in paths), (lines, argv)
            assert completed is None, argv
        else:
            assert code == 3, (code, argv)
            assert len(lines) == 1, lines
            diverged = DIVERGED.match(lines[0])
            assert diverged, lines
            assert completed == int(diverged.group(1)) - 1
