"""Fuzz of the three input surfaces: config text, curve CSV rows and the
command line.  Each input either succeeds or is refused with a message that
says what to fix: a config error names a config key (or the config line it
cannot split), a CSV error names its line or the header, and a refused
command leaves no output directory."""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_cli import SAMPLE_A_DEVICE

from rbaddr.cli import (
    MODEL_KEYS,
    MODEL_PRESETS,
    MODELS,
    RUN_KEYS,
    ConfigError,
    _gateset,
    _rb_config,
    build_model,
    main,
    parse_config_file,
)
from rbaddr.noise import DEVICE_PRESETS
from rbaddr.protocol import CSV_HEADER, read_curves_csv

KEYS = sorted(MODEL_KEYS | RUN_KEYS)
# a config error names one of the keys, as a word (the message says K for
# k; model with its value, as "model" also names what a model needs), or
# the line of the file it cannot read as a known key = value
NAMES_A_KEY = re.compile(
    r"\b(" + "|".join(sorted(set(KEYS) - {"model"})) + r")\b|\bmodel '|\.cfg:\d+: ", re.IGNORECASE
)

HUGE = ["9" * 400, str(2**63), str(2**32), str(2**32 - 1), "1" + "0" * 30, "-" + "9" * 40]
NON_FINITE = ["nan", "inf", "-inf", "1e400", "-1e400", "1e-400"]
NUMBERS = ["0", "1", "2", "-1", "0.5", "0.99", "-0.07", "1.5", "3", "16", "24", "4.9895",
           "9.7", "20", "1e-320", "abc", ""]
WORDS = [*MODELS, *MODEL_PRESETS, *DEVICE_PRESETS, "generator", "clifford", "true", "ture"]
LENGTHS = ["1,2,4", "4,2", "1,,2", "1,2,", ",", "1, 2, 8", "1,100000000", "0,1", "2.5"]

values = st.sampled_from(HUGE + NON_FINITE + NUMBERS + WORDS + LENGTHS)
lines = st.one_of(
    st.tuples(st.sampled_from(KEYS + ["K", "bogus"]), values).map(" = ".join),
    st.sampled_from(["# comment", "", "no equals sign", "=", "model = ideal # trailing"]),
)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(text=st.lists(lines, max_size=8).map("\n".join))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_config_text_runs_or_names_a_key(scratch, text):
    path = scratch / "run.cfg"
    path.write_text(text)
    values = configured(parse_config_file, path)
    if values is not None:
        # the run settings on their own too, not only after a model builds
        configured(_rb_config, values)  # which estimates the run's size
        model = configured(build_model, values)
        if model is not None:
            configured(_gateset, values, model[0])


def configured(build, *args):
    """``build(*args)``, or None for a config error that names a key."""
    try:
        return build(*args)
    except ConfigError as exc:
        assert NAMES_A_KEY.search(str(exc)), str(exc)


cells = st.sampled_from(
    ["exp1", "exp3", "Q1", "CORR", "", "1", "2", "8", "0", "-1", "0.5", "0.01", "1e-200",
     "1e-150", "nan", "inf", "abc", "1.5", '"', "x\x00", *HUGE, "9" * 140_000]
)
rows = st.one_of(
    st.tuples(st.sampled_from(["exp1", "exp2", "exp3", ""]), st.sampled_from(["Q1", "Q2", "CORR"]),
              st.sampled_from(["1", "2", "8", "0", str(2**32), "1.5", ""]),
              st.sampled_from(["0.5", "0.9", "nan", "inf", "abc"]),
              st.sampled_from(["0.01", "0", "-0.01", "1e-200", "1e-150"]),
              st.sampled_from(["10", "2", "1", "0", "x"])).map(list),
    st.lists(cells, max_size=8),
)


@given(
    header=st.sampled_from([CSV_HEADER, CSV_HEADER[:-1], ["m", "mean"], []]),
    body=st.lists(rows, max_size=6),
)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_curve_rows_read_or_name_their_line(scratch, header, body):
    path = scratch / "curves.csv"
    path.write_text("\n".join(",".join(row) for row in [header, *body]) + "\n")
    try:
        curves = read_curves_csv(path)
    except ValueError as exc:
        assert re.search(r"\bline \d+\b|\bheader\b", str(exc)), str(exc)
        return
    for curve in curves:
        assert curve.K >= 2 and len(curve.m) == len(set(curve.m.tolist())) >= 1
        assert curve.m.min() >= 1 and (curve.stderr > 0).all()


SIMULATE = ("simulate", "--config")
FIT = ("fit",)
PREDICT = ("predict", "--preset", "sample_a", "--config")


@pytest.mark.parametrize(
    "command, text, code",
    [
        (SIMULATE, "model = depolarizing\nalpha1 = 0.99\nlengths = 1,2\nk = 3\n", 0),
        (SIMULATE, "model = depolarizing\nalpha1 = 0.99\nk = " + "9" * 400 + "\n", 1),
        (SIMULATE, "model = ideal\nlengths = 1,2\nk = 2\nshots = 1e400\n", 1),
        (SIMULATE, "model = crosstalk\nomega1_ghz = 5\n", 1),
        (SIMULATE, SAMPLE_A_DEVICE.replace("zeta_mhz", "# zeta_mhz") + "model = crosstalk\n", 1),
        (SIMULATE, "preset = sample_a_full\ngranularity = clifford\n", 1),
        (PREDICT, "gate_time_ns = nan\n", 1),
        (FIT, ",".join(CSV_HEADER) + "\nexp1,Q1,1,0.5,0.01,10\n", 0),
        (FIT, ",".join(CSV_HEADER) + "\nexp1,Q1," + "9" * 140_000 + ",0.5,0.01,10\n", 2),
        (FIT, "m,mean\n1,0.5\n", 2),
    ],
    ids=["simulate_runs", "k_huge", "shots_not_finite", "crosstalk_missing_device_keys",
         "crosstalk_missing_zeta",
         "clifford_crosstalk", "predict_gate_time_nan", "fit_runs", "fit_field_too_long",
         "fit_wrong_header"],
)
def test_tiny_runs_exit_as_documented(tmp_path, capsys, command, text, code):
    source = tmp_path / ("curves.csv" if command == FIT else "run.cfg")
    source.write_text(text)
    out = tmp_path / "out"
    assert main([*command, str(source), "--out", str(out)]) == code
    assert out.exists() == (code == 0)
    if code:
        err = capsys.readouterr().err
        assert err.startswith(("config error", "analysis error"))
        assert command == FIT or NAMES_A_KEY.search(err), err
