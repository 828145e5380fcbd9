"""``repro run``'s scenario overrides: ``--xs``, ``--pool`` and ``--param``.

These three overrides replaced the per-experiment flags (``--fractions``,
``--max-senders``, ``--windows``, ``--workload``, ``--max-vms``,
``--max-applications``, ``--cohort``, ``--load-profile`` and Table 1's
own ``--bmax``).  Each spelling must build exactly the scenario the
retired flag built — down to the trial fingerprints, where an int and a
float x-point differ.
"""

from __future__ import annotations

import argparse

import pytest

from repro.cli import add_override_arguments, main, resolve_scenario
from repro.engine import TrialResult, registry


def _resolve(argv):
    parser = argparse.ArgumentParser()
    add_override_arguments(parser)
    _, scenario = resolve_scenario(parser.parse_args(argv))
    return scenario


def _with_param(name, key, value):
    scenario = registry.get(name).scenario
    params = tuple((k, value if k == key else v) for k, v in scenario.params)
    return scenario.override(params=params)


def _trial_fingerprints(scenario):
    return [
        TrialResult(trial, None, 0.0).fingerprint() for trial in scenario.expand()
    ]


# (retired spelling, repro run spelling, the scenario the retired flag built)
RETIRED_FLAGS = [
    (
        "failure --fractions 0.05,0.1",
        ["failure", "--xs", "0.05,0.1"],
        lambda: registry.get("failure").scenario.override(xs=(0.05, 0.1)),
    ),
    (
        "fig13 --max-senders 3",
        ["fig13", "--xs", "0,1,2,3"],
        lambda: registry.get("fig13").scenario.override(xs=tuple(range(4))),
    ),
    (
        "temporal --windows 4,12",
        ["temporal", "--xs", "4,12"],
        lambda: registry.get("temporal").scenario.override(xs=(4, 12)),
    ),
    (
        "table1 --workload hpcloud",
        ["table1", "--pool", "hpcloud"],
        lambda: registry.get("table1").scenario.override(pool="hpcloud"),
    ),
    (
        "table1 --bmax 400",
        ["table1", "--bmax", "400"],
        lambda: registry.get("table1").scenario.override(bmaxes=(400.0,)),
    ),
    (
        "inference --max-vms 40",
        ["inference", "--param", "max_vms=40"],
        lambda: _with_param("inference", "max_vms", 40),
    ),
    (
        "inference --max-applications 6",
        ["inference", "--param", "max_applications=6"],
        lambda: _with_param("inference", "max_applications", 6),
    ),
    (
        "service --cohort 1",
        ["service", "--param", "cohort=1"],
        lambda: _with_param("service", "cohort", 1),
    ),
    (
        "service --load-profile diurnal",
        ["service", "--param", "load_profile=diurnal"],
        lambda: _with_param("service", "load_profile", "diurnal"),
    ),
]


@pytest.mark.parametrize(
    "argv, expected",
    [case[1:] for case in RETIRED_FLAGS],
    ids=[case[0] for case in RETIRED_FLAGS],
)
def test_retired_flag_has_a_run_spelling(argv, expected):
    scenario = _resolve(argv)
    assert scenario == expected()
    assert _trial_fingerprints(scenario) == _trial_fingerprints(expected())


def test_params_combine_and_keep_declared_order():
    scenario = _resolve(
        ["service", "--param", "load_profile=diurnal", "--param", "cohort=8"]
    )
    assert scenario.params == (
        ("cohort", 8),
        ("heartbeat", 4096),
        ("load_profile", "diurnal"),
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "service", "--param", "nope=1"], "declares params"),
        (["run", "service", "--param", "cohort"], "declares params"),
        (["run", "table1", "--param", "max_vms=4"], "declares params: none"),
        (["run", "service", "--param", "cohort=big"], "expected int"),
        (["run", "temporal", "--xs", "4.5"], "expected int"),
        (["run", "fig08", "--xs", "1,2"], "--xs would have no effect"),
        (["run", "fig13", "--pool", "bing"], "--pool would have no effect"),
        (["fig13", "--pool", "bing"], "--pool would have no effect"),
        (["run", "runtime", "--pool", "hpcloud"], "--pool would have no effect"),
    ],
)
def test_bad_override_exits_2_without_traceback(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.out
    assert "Traceback" not in captured.out + captured.err


# table1's --pool is pinned above as the retired --workload spelling.
@pytest.mark.parametrize("name", ["fig08", "inference", "service"])
def test_pool_override_on_kinds_that_read_it(name):
    scenario = _resolve([name, "--pool", "hpcloud"])
    expected = registry.get(name).scenario.override(pool="hpcloud")
    assert scenario == expected
    assert _trial_fingerprints(scenario) == _trial_fingerprints(expected)


def test_unknown_pool_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "table1", "--pool", "nope"])
    assert exit_info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
