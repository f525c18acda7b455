"""The fit and report outputs of the CLI, pinned to captured files.

`data/rendering/events.csv` holds a zero-truncated cohort (2008), a
promotion-time cohort (2011) and an all-censored cohort (late) that cannot be
fit. The other files in that directory are captured outputs of `pwsurv fit`,
`pwsurv fit --format json` and `pwsurv report` for it, with and without
`--max-iter 1`, so any change to what these commands print shows here. Text
must match byte for byte; JSON must have the same keys in the same order and
values equal to 1e-9 relative.
"""

import json
import math
from pathlib import Path

import pytest

from pwsurv.cli import main

DATA = Path(__file__).parent / "data" / "rendering"
MAX_ITER = {"": [], "-max-iter-1": ["--max-iter", "1"]}


def run(tmp_path, args, suffix):
    out = tmp_path / "out"
    code = main(args + ["--input", str(DATA / "events.csv"), "--out", str(out)] + MAX_ITER[suffix])
    # the all-censored cohort fails in every run
    assert code == 1
    return out.read_text(encoding="utf-8")


def assert_same_document(got, expected, path="$"):
    assert type(got) is type(expected), path
    if isinstance(expected, dict):
        assert list(got) == list(expected), path
        for key in expected:
            assert_same_document(got[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert len(got) == len(expected), path
        for i, (g, e) in enumerate(zip(got, expected)):
            assert_same_document(g, e, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert math.isclose(got, expected, rel_tol=1e-9, abs_tol=0.0), f"{path}: {got!r} != {expected!r}"
    else:
        assert got == expected, path


@pytest.mark.parametrize("suffix", list(MAX_ITER))
@pytest.mark.parametrize("command", ["fit", "report"])
def test_text_matches_capture(tmp_path, command, suffix):
    expected = (DATA / f"{command}{suffix}.txt").read_text(encoding="utf-8")
    assert run(tmp_path, [command], suffix) == expected


@pytest.mark.parametrize("suffix", list(MAX_ITER))
def test_json_matches_capture(tmp_path, suffix):
    expected = json.loads((DATA / f"fit{suffix}.json").read_text(encoding="utf-8"))
    assert_same_document(json.loads(run(tmp_path, ["fit", "--format", "json"], suffix)), expected)
