"""Tests for genforms' own random stream: numpy's `default_rng` is the
reference it must equal, draw for draw."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import genforms
from genforms import draws

SEEDS = (0, 1, 41, 700, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 7)
# 1431655777 = floor(2^32 / 3) + 12 rejects about one word in three
BOUNDS = (2, 3, 101, 1048573, 2**31 - 1, 1431655777)
COUNTS = (0, 1, 2, 3, 7, 36, 4321)


def reference(seed, p, count):
    return np.random.default_rng(seed).integers(0, p, size=count, dtype=np.int64)


@pytest.mark.parametrize("p", BOUNDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_the_stream_is_numpys_default_rng(seed, p):
    for count in COUNTS:
        got = draws.integers(seed, p, count)
        assert got.dtype == np.int64
        assert got.tolist() == reference(seed, p, count).tolist(), count


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**128 - 1), p=st.integers(2, 2**31), count=st.integers(0, 300))
def test_the_stream_is_numpys_at_any_seed_below_2_128(seed, p, count):
    assert draws.integers(seed, p, count).tolist() == reference(seed, p, count).tolist()


@pytest.mark.parametrize(
    "seed, p, count, message",
    [(-1, 101, 3, "seed must be nonnegative"),
     (0, 101, -1, "count must be nonnegative"),
     (0, 1, 3, "outside"),
     (0, 2**31 + 1, 3, "outside")],
    ids=["negative-seed", "negative-count", "bound-1", "bound-above-2^31"],
)
def test_a_bad_seed_count_or_bound_is_refused(seed, p, count, message):
    with pytest.raises(ValueError, match=message):
        draws.integers(seed, p, count)


# A sweep whose pure-power points draw forms (k > n) and a NotAttained
# case (Alexander-Hirschowitz: five double points in P^2) whose three
# random trials each draw at seed + t, all in one fresh process.
_NO_NUMPY_RANDOM = """
import io, json, sys
from contextlib import redirect_stdout
from genforms import cli

out = io.StringIO()
with redirect_stdout(out):
    codes = [cli.main(["sweep", "--n", "3", "--d", "7", "--m", "2", "--k-range", "4..20"]),
             cli.main(["verify", "--n", "3", "--d", "1", "--m", "3", "--k", "5"])]
records = [json.loads(line) for line in out.getvalue().splitlines() if line.startswith("{")]
print(json.dumps({"codes": codes, "last": records[-1],
                  "numpy.random": "numpy.random" in sys.modules}))
"""


def test_no_genforms_process_imports_numpys_random_module():
    src = str(Path(genforms.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY_RANDOM], env={"PYTHONPATH": src},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 2]
    last = result["last"]
    assert (last["verdict"], last["method"], last["seeds_tried"]) == ("NotAttained", "random",
                                                                      [0, 1, 2])
    assert result["numpy.random"] is False
