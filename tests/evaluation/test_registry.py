"""The experiment registry is the one list of the paper's figures:
``results/``, EXPERIMENTS.md and ``repro evaluate`` all agree with it."""

import glob
import os

import pytest

import repro
from repro.cli import EXIT_FAIL, build_parser, main
from repro.evaluation.registry import EXPERIMENTS, Experiment

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(repro.__file__)))

#: The one ``results/*.txt`` file that is not a paper figure: the
#: full-scale service soak's rendering (it waits on the ROADMAP's
#: ``benchmark`` PR).
NOT_FIGURES = {"service_async_soak"}


def committed(name):
    path = os.path.join(ROOT, "results", f"{name}.txt")
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def test_registry_names_are_the_committed_figures():
    stems = {
        os.path.splitext(os.path.basename(path))[0]
        for path in glob.glob(os.path.join(ROOT, "results", "*.txt"))
    }
    assert set(EXPERIMENTS) == stems - NOT_FIGURES


def test_every_committed_figure_is_quoted_verbatim_in_experiments_md():
    with open(os.path.join(ROOT, "EXPERIMENTS.md"),
              encoding="utf-8") as handle:
        document = handle.read()
    stale = [name for name in EXPERIMENTS
             if committed(name).rstrip("\n") not in document]
    assert not stale, stale


def test_evaluate_choices_are_the_registry_keys(capsys):
    parser = build_parser()
    for name in EXPERIMENTS:
        assert parser.parse_args(["evaluate", name]).experiment == name
    # ``hansel`` was the CLI's own spelling before the registry.
    with pytest.raises(SystemExit):
        parser.parse_args(["evaluate", "hansel"])
    refused = capsys.readouterr().err
    assert all(repr(name) in refused for name in EXPERIMENTS)


def test_failed_shape_check_is_exit_fail(monkeypatch, full_character,
                                         capsys):
    def check(result):
        assert result > 1, "one is not more than one"

    monkeypatch.setitem(EXPERIMENTS, "fake", Experiment(
        "a fake figure", run=lambda character: 1,
        render="rendered {}".format, check=check,
    ))
    assert main(["evaluate", "fake"]) == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out == "rendered 1\n"
    assert "fake" in captured.err and "one is not more" in captured.err
