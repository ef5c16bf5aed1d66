"""Every gamma table, operator, commutator and fusion job of the
benchmark's job lists against its frozen reference values
(benchmarks/refs.json; gamma and operator entries to 1e-12 relative), and
every oracle-compare job against the same references and its oracle.

The jobs run in process through the CLI, exactly as configured in
benchmarks/jobs.py, so a change to any gamma path (factored, coupled,
ball or single-sphere) that moves a value shows here as well as in the
benchmark's own output check; likewise a change to the operator algebra
or to the oracles.
"""

import json
import runpy
from pathlib import Path

import pytest

from bergtoep.cli import main

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
# run_path compiles from source, so nothing is written under benchmarks/
JOBS = runpy.run_path(str(BENCH / "jobs.py"))
REFS = json.loads((BENCH / "refs.json").read_text())
CHECKED = JOBS["TABLES"] + JOBS["VERIFY"]
GAMMA_JOBS = {j["name"]: j for j in CHECKED if j["check"] in ("gamma", "beta")}
ALGEBRA_JOBS = {j["name"]: j for j in CHECKED
                if j["command"] in ("operator", "commutator", "fusion")}
ORACLE_JOBS = {j["name"]: j for j in CHECKED
               if j["command"] == "oracle-compare"}


def run_job(j, tmp_path) -> list[str]:
    cfg, out = tmp_path / "config.json", tmp_path / "out.csv"
    cfg.write_text(json.dumps(JOBS["config_for"](j, 0)))
    assert main([j["command"], "--config", str(cfg), "--out", str(out)]) == 0
    return JOBS["check_output"](j, out.read_text(), REFS.get(j["name"]))


@pytest.mark.parametrize("name", sorted(GAMMA_JOBS))
def test_gamma_job_matches_reference(name, tmp_path):
    assert run_job(GAMMA_JOBS[name], tmp_path) == []


@pytest.mark.parametrize("name", sorted(ALGEBRA_JOBS))
def test_algebra_job_matches_reference(name, tmp_path):
    """Operator entries to 1e-12, fusion verdicts exactly, commutators at
    or below 1e-10."""
    assert run_job(ALGEBRA_JOBS[name], tmp_path) == []


@pytest.mark.parametrize("name", sorted(ORACLE_JOBS))
def test_oracle_job_matches_reference(name, tmp_path):
    """The formula column to 1e-12, polar-grid abs_diff at or below 1e-8,
    Monte Carlo rows within 6 stderr of the formula."""
    assert run_job(ORACLE_JOBS[name], tmp_path) == []
