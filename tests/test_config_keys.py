"""Every config key, walked through every command that reads it.

``driver._REFUSALS`` lists, row by row, the commands that check a key
(``classical_midpoint`` is ``equiv-check --variant classical_midpoint``);
the command line checks ``out`` for every command.  ``BAD`` gives, for
every key, values that no command reading it can take.  Each one must be
refused before any time step: exit status 2, one stderr line naming the
key, no output file.
"""

import dataclasses

import pytest

from afdg import cli, driver, timeint

COMMANDS = ("run", "convergence", "superconvergence", "bench", "equiv-check",
            "dof-table", "classical_midpoint")
ARGV = {"classical_midpoint": ["equiv-check", "--variant",
                               "classical_midpoint"]}

# a config each command accepts; a bad value overrides its key
BASE = {
    "run": ["grids=8"],
    "convergence": ["grids=8,16"],
    "superconvergence": ["grids=8,16"],
    "bench": ["grids=8,16,32"],
    "equiv-check": ["grids=8"],
    "dof-table": [],
    "classical_midpoint": ["grids=8", "problem=advection2d", "order=2"],
}

NUMBER = ["abc", "nan", "inf", "-inf", "true", "none"]
BAD = {
    "method": ["xx", "none", "5"],
    "order": ["abc", "3.0", "none", "0", "-1", "true"],
    "k": ["abc", "0", "-1", "1.5", "true"],
    "rk": ["rk4", "none", "3"],
    "problem": ["bogus", "none", "3"],
    "u": NUMBER,
    "ux": NUMBER,
    "uy": NUMBER,
    "c_sound": NUMBER,
    "init": ["foo", "none", "const"],       # every base is 2-d
    "flux": ["bogus", "none", "3"],
    "alpha_plus": NUMBER,
    "beta_plus": NUMBER,
    "grids": ["", "0", "-4", "1.5", "abc", "none"],
    "t_final": ["0", "-1", "inf", "nan", "abc", "none", "1e-30"],
    "cfl_override": ["0", "-0.1", "inf", "nan", "abc"],
    "boundary": ["bogus", "none", "3"],
    "seed": ["abc", "-1", "1.5", "true", "none"],
    "tolerance": ["abc", "0", "-1e-11", "inf", "nan", "none"],
    "out": ["{tmp}/missing/out.csv", "{tmp}", "5"],
}

READERS = {"out": set(COMMANDS)}
for key, commands, *_ in driver._REFUSALS:
    READERS.setdefault(key, set()).update(commands)

FIELDS = {f.name for f in dataclasses.fields(driver.RunConfig)}


def test_every_key_has_bad_values_and_a_reader():
    assert set(BAD) == FIELDS
    assert set(READERS) == FIELDS
    assert all(READERS[key] <= set(COMMANDS) for key in READERS)


@pytest.mark.parametrize("command", COMMANDS)
def test_every_base_config_is_accepted(command):
    overrides = dict(item.split("=", 1) for item in BASE[command])
    driver.parse_config("", overrides).validate(command)


@pytest.mark.parametrize("key,command", sorted(
    (key, command) for key, commands in READERS.items() for command in commands))
def test_bad_value_is_refused_by_key_before_any_step(key, command, tmp_path,
                                                     capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a time step was taken")

    monkeypatch.setattr(timeint, "rk_step", refuse)
    out = [] if key == "out" else ["--out", str(tmp_path / "out.csv")]
    for value in BAD[key]:
        argv = list(ARGV.get(command, [command]))
        for item in BASE[command] + [f"{key}={value.format(tmp=tmp_path)}"]:
            argv += ["--set", item]
        code = cli.main(argv + out)
        err = capsys.readouterr().err
        assert code == 2, (value, err)
        assert err.count("\n") == 1 and f"config key '{key}'" in err, value
        assert list(tmp_path.iterdir()) == [], value
