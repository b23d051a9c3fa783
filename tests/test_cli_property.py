"""Every input the CLI accepts ends in exit 0, 2, 3 or 4 and strict JSON.

Tiny systems (3-week seasons, a 5-unit fleet) are drawn with edge settings:
too few seasons for the Lowess fit or the bootstrap, spans down to 0.01, and
wind capacities that are negative, zero or not finite. The model list is any
non-empty subset of the three kinds, in any order, and a traces file may miss
five hours of its last season, with or without ``--allow-gaps``.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from adequacy.cli import main
from adequacy.ingest import SeasonWindow
from helpers import make_trace, write_fleet_csv, write_trace_csv

WEEKS = 3
SEASONS = ("2010-11", "2011-12", "2012-13", "2013-14")
HISTORY = ("2007-08", "2008-09", "2009-10", *SEASONS)


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def _strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


@pytest.fixture(scope="module")
def system(tmp_path_factory):
    """The files of a system of the first n seasons, with or without a quantile history."""
    root = tmp_path_factory.mktemp("tiny")
    window = SeasonWindow(weeks=WEEKS)
    rng = np.random.default_rng(5)
    hod = np.arange(window.expected_hours) % 24
    traces = [
        make_trace(label,
                   900.0 + 120.0 * np.sin(hod / 24.0 * 2.0 * np.pi) + rng.normal(0.0, 40.0, hod.size),
                   rng.uniform(0.0, 300.0, hod.size), window)
        for label in SEASONS
    ]
    fleet = write_fleet_csv(root / "fleet.csv", [(f"u{i}", 250, 0.9) for i in range(5)])
    history = root / "history.csv"
    history.write_text("season,quantile_mw\n"
                       + "".join(f"{s},{1000.0 + 10.0 * i}\n" for i, s in enumerate(HISTORY)))
    files = {}
    for n in range(1, len(SEASONS) + 1):
        path = write_trace_csv(root / f"traces_{n}.csv", traces[:n])
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        del rows[-100:-95]  # 5 hours of the last season; --allow-gaps drops their day
        gapped = root / f"gapped_{n}.csv"
        gapped.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        for has_gap, traces_path in ((False, path), (True, gapped)):
            files[n, has_gap] = {"traces": traces_path, "fleet": fleet, "quantiles": history}
    return files


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    # a warning is reported on stderr and the run goes on; here it is recorded instead
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n_seasons=st.integers(1, len(SEASONS)),
    with_history=st.booleans(),
    span=st.one_of(st.sampled_from([0.01, 2.0 / 3.0, 1.0]), st.floats(0.01, 1.0)),
    wind=st.one_of(st.none(), st.sampled_from(["-5", "0", "nan", "inf", "400"])),
    # 3-week seasons have 25 hours above their 95% quantile, too few for a GPD fit (exit 4)
    threshold_quantile=st.sampled_from(["0.9", "0.95"]),
    seed=st.integers(0, 3),
    models=st.lists(st.sampled_from(["evt", "hindcast", "ind"]), min_size=1, max_size=3, unique=True),
    has_gap=st.booleans(),
    allow_gaps=st.booleans(),
    command=st.sampled_from([
        ["study", "--quiet"],
        ["risk", "--pooled", "--quiet"],
        ["uncertainty", "--metric", "lole", "--mode", "season"],
        ["uncertainty", "--metric", "eeu", "--mode", "block"],
        ["ingest"],
    ]),
)
def test_exit_code_and_strict_json(system, n_seasons, with_history, span, wind,
                                   threshold_quantile, seed, models, has_gap, allow_gaps, command):
    files = system[n_seasons, has_gap]
    name = command[0]
    argv = [*command, "--traces", str(files["traces"]), "--window-weeks", str(WEEKS)]
    if allow_gaps:
        argv += ["--allow-gaps"]
    if with_history:
        argv += ["--quantiles", str(files["quantiles"])]
    if wind is not None:
        argv += [f"--installed-wind-mw={wind}"]
    if name in ("study", "ingest"):  # the commands that take a Lowess span
        argv += ["--span", repr(span)]
    if name != "ingest":
        argv += ["--fleet", str(files["fleet"]), "--reps", "100", "--seed", str(seed),
                 "--threshold-quantiles" if name == "study" else "--threshold-quantile",
                 threshold_quantile]
        # uncertainty takes one model, the others a list
        argv += ["--models" if name == "study" else "--model",
                 *(models[:1] if name == "uncertainty" else models)]
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        if name != "uncertainty":
            argv += ["--out", str(out_dir)]
        code, out, err = _run(argv)
        event(f"{name} exit {code}")  # shown by --hypothesis-show-statistics
        assert code in (0, 2, 3, 4), (argv, code, err)
        assert "Traceback" not in err
        if code:
            assert err.strip(), argv  # a failure says what failed
        for path in sorted(out_dir.glob("*.json")):
            _strict_json(path.read_text(encoding="utf-8"))
        if name == "uncertainty" and code == 0:
            _strict_json(out)
