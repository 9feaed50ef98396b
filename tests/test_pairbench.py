"""`pairbench.py` reports every pair in both timing and build orders, on a tiny net.

Format only: the timings of so small a run say nothing about speed.
"""

import json
from pathlib import Path

import pytest

import pairbench

SRC = Path(pairbench.__file__).resolve().parents[1] / "src"
# an 8x8-glyph 64-16-10 net in place of the desk and tiny_mix nets
TINY = dict(widths=(64, 16, 10), img_side=8, n_train=128, train_batch=32)
ENGINES = ("sgd", "adam", "hd", "samt_s", "samt_e", "samt_r", "samt_c")


def test_tiny_pairs_report_both_orders_and_their_summaries():
    # six rounds: three built base first, three head first, one in each timing order
    result = pairbench.measure(SRC, SRC, pairs=6, nets=dict.fromkeys(pairbench.NETS, TINY))
    assert json.loads(json.dumps(result)) == result
    assert set(result) == {
        "epoch", "step", *(f"mix/{o}" for o in ENGINES if o != "samt_e"), "desk/samt_s/block0",
        "desk/samt_s/block1", *(f"tiny/{o}" for o in ENGINES),
    }
    firsts = {
        "A/A": ["base", "other", "base", "base", "other", "other"],
        "A/B": ["base", "other", "other", "base", "other", "base"],
    }
    for workload in result.values():
        assert set(workload) == {"unit", "A/A", "A/B"}
        for comparison in ("A/A", "A/B"):
            c = workload[comparison]
            assert [p["first"] for p in c["pairs"]] == firsts[comparison]
            assert [p["built"] for p in c["pairs"]] == ["base"] * 3 + ["other"] * 3
            for p in c["pairs"]:
                assert p["base"] > 0 and p["other"] > 0 and p["ratio"] == p["other"] / p["base"]
            assert set(c["median_ratio"]) == {
                "base timed first", "other timed first", "base built first", "other built first", "all"
            }
            assert c["other_won"] in {i / 6 for i in range(7)}
        # both comparisons of a round share the base's sample
        assert [p["base"] for p in workload["A/A"]["pairs"]] == [p["base"] for p in workload["A/B"]["pairs"]]


@pytest.mark.parametrize("pairs", ["0", "20", "30"])
def test_pairs_that_are_not_a_positive_multiple_of_12_exit_2(pairs, capsys):
    # so that each build half runs each of the six timing orders equally often
    with pytest.raises(SystemExit) as exit:
        pairbench.main(["HEAD", "--pairs", pairs])
    assert exit.value.code == 2 and "multiple of 12" in capsys.readouterr().err
