"""Every input the CLI accepts ends in exit 0, 2, 3 or 4 and strict JSON.

Tiny systems (3-week seasons, a 5-unit fleet) are drawn with edge settings:
too few seasons for the Lowess fit or the bootstrap, spans down to 0.01, and
wind capacities that are negative, zero or not finite. The model list is any
non-empty subset of the three kinds, in any order, and a traces file may miss
five hours of its last season, with or without ``--allow-gaps``. Anchor rules
are valid, of other windows, or unreadable, and ``study`` reads any of its
settings from a ``--config`` file, one of them perhaps of the wrong JSON type.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
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


# anchor rules: the traces' own (the first two), another window's, and two that
# do not parse
ANCHOR_RULES = ("last Sunday in October", "LAST sunday in october", "first Monday in November",
                "last Funday in October", "Sunday")
# a value of the wrong JSON type for each key a study config file may give
WRONG_TYPES = {"traces": 1, "fleet": None, "out": ["out"], "quantiles": 2.0, "seed": "1",
               "reps": 100.0, "span": "2/3", "threshold_quantiles": 0.9, "models": "evt",
               "anchor_rule": 7, "window_weeks": 3.0, "allow_gaps": "yes"}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n_seasons=st.integers(1, len(SEASONS)),
    with_history=st.booleans(),
    span=st.one_of(st.sampled_from([0.01, 2.0 / 3.0, 1.0]), st.floats(0.01, 1.0)),
    wind=st.one_of(st.none(), st.sampled_from(["-5", "0", "nan", "inf", "400"])),
    anchor_rule=st.one_of(st.none(), st.sampled_from(ANCHOR_RULES)),
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
    # study reads these settings from a --config file instead of flags
    config_keys=st.sets(st.sampled_from(sorted(WRONG_TYPES))),
    wrong_key=st.one_of(st.none(), st.sampled_from(sorted(WRONG_TYPES))),
)
@example(  # a study that reads every setting from its config file, and completes
    n_seasons=4, with_history=True, span=2.0 / 3.0, wind=None, anchor_rule="LAST sunday in october",
    threshold_quantile="0.9", seed=0, models=["hindcast", "evt"], has_gap=True, allow_gaps=True,
    command=["study", "--quiet"], config_keys=set(WRONG_TYPES), wrong_key=None,
)
def test_exit_code_and_strict_json(system, n_seasons, with_history, span, wind, anchor_rule,
                                   threshold_quantile, seed, models, has_gap, allow_gaps, command,
                                   config_keys, wrong_key):
    files = system[n_seasons, has_gap]
    name = command[0]
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        # (config file key or None, flag tokens, JSON value) per setting
        settings = [("traces", ["--traces", str(files["traces"])], str(files["traces"])),
                    ("window_weeks", ["--window-weeks", str(WEEKS)], WEEKS)]
        if allow_gaps:
            settings.append(("allow_gaps", ["--allow-gaps"], True))
        if with_history:
            settings.append(("quantiles", ["--quantiles", str(files["quantiles"])], str(files["quantiles"])))
        if anchor_rule is not None:
            settings.append(("anchor_rule", ["--anchor-rule", anchor_rule], anchor_rule))
        if wind is not None:  # nan and inf are not JSON: a flag only
            settings.append((None, [f"--installed-wind-mw={wind}"], None))
        if name in ("study", "ingest"):  # the commands that take a Lowess span
            settings.append(("span", ["--span", repr(span)], span))
        if name != "ingest":
            # uncertainty takes one model, the others a list
            chosen = models[:1] if name == "uncertainty" else models
            settings += [
                ("fleet", ["--fleet", str(files["fleet"])], str(files["fleet"])),
                ("reps", ["--reps", "100"], 100),
                ("seed", ["--seed", str(seed)], seed),
                ("threshold_quantiles", ["--threshold-quantiles" if name == "study" else "--threshold-quantile",
                                         threshold_quantile], [float(threshold_quantile)]),
                ("models", ["--models" if name == "study" else "--model", *chosen], chosen),
            ]
        if name != "uncertainty":
            settings.append(("out", ["--out", str(out_dir)], str(out_dir)))
        config = {}
        if name == "study":
            config = {key: value for key, _, value in settings if key in config_keys}
            if wrong_key is not None:
                config[wrong_key] = WRONG_TYPES[wrong_key]
        argv = [*command, *(token for key, flag, _ in settings if key not in config for token in flag)]
        if config:
            config_path = Path(tmp) / "study.json"
            config_path.write_text(json.dumps(config), encoding="utf-8")
            argv += ["--config", str(config_path)]
        code, out, err = _run(argv)
        event(f"{name} exit {code}")  # shown by --hypothesis-show-statistics
        assert code in (0, 2, 3, 4), (argv, code, err)
        assert "Traceback" not in err
        if code:
            assert err.strip(), argv  # a failure says what failed
        if name == "study" and wrong_key is not None:
            assert code == 2 and f"{wrong_key} must be a JSON" in err, (config, err)
        for path in sorted(out_dir.glob("*.json")):
            _strict_json(path.read_text(encoding="utf-8"))
        if name == "uncertainty" and code == 0:
            _strict_json(out)
