"""The benchmark's traced run of one job, in a fresh interpreter as the
benchmark runs it (benchmarks/child.py with tracing on), so that an API
change the tracer relies on fails here and not only in the benchmark."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bergtoep

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
SRC = Path(bergtoep.__file__).resolve().parent.parent
CONFIG = {
    "space": {"type": "projective", "n": 2, "m": 3},
    "partition": [2],
    "symbols": [{"kind": "quasi-radial", "a": "r1^2/(1+r1^2)"},
                {"kind": "multi-sphere", "block": 1, "b": "s1^2",
                 "p": [1, -1]}],
    "quadrature": {"method": "gauss-jacobi-tensor", "order": 40, "seed": 0},
}


def _traced(tmp_path, config: dict, command: str, out) -> dict:
    """The record of one traced job, run as the benchmark runs it."""
    cfg, record = tmp_path / "config.json", tmp_path / "record.json"
    cfg.write_text(json.dumps(config))
    env = {**os.environ, "PYTHONPATH": str(SRC),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(record), "smoke", "1",
         "--", command, "--config", str(cfg), "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(record.read_text())


@pytest.mark.parametrize("command", ["gamma", "operator", "fusion"])
def test_traced_job_records_its_layers(command, tmp_path):
    rec = _traced(tmp_path, CONFIG, command, tmp_path / "out")
    dim = math.comb(2 + 3, 2)
    # the fusion job builds the product's table and each factor's
    tables = {"gamma": 1, "operator": 1, "fusion": 3}[command]
    assert rec["counts"]["gamma.build_gamma_table.entries"] == tables * dim
    if command != "gamma":
        assert rec["counts"]["operators.assemble.bytes"] > 0
    assert "indexing.enumerate_basis" in {span[2] for span in rec["spans"]}


def test_traced_gamma_records_the_quadrature_kernels(tmp_path):
    """A table whose integrals take rules, unlike CONFIG's, which close: the
    radial factor r1^2/(2+r1^2) and the block factor 1/(1+s2) are no
    monomials in their barycentric coordinates."""
    rec = _traced(tmp_path, {
        **CONFIG,
        "symbols": [{"kind": "quasi-radial", "a": "r1^2/(2+r1^2)"},
                    {"kind": "multi-sphere", "block": 1, "b": "1/(1+s2)",
                     "p": [1, -1]}]}, "gamma", tmp_path / "out")
    spans = {span[2] for span in rec["spans"]}
    assert {"quadrature.simplex_integrate",
            "quadrature.jacobi_rule_01"} <= spans
    # the radial rest integrates on the space's roots, as the block does
    assert "quadrature.radial_integrate_projective" not in spans


def test_traced_single_sphere_table_takes_only_block_rules(tmp_path):
    """A lone single-sphere factor is one block of the engine: its 1/(1+sig2),
    no monomial, takes block rules, and its radial mean, which is 1, builds
    no radial rule."""
    rec = _traced(tmp_path, {
        **CONFIG,
        "space": {"type": "projective", "n": 3, "m": 3},
        "partition": [2, 1],
        "symbols": [{"kind": "single-sphere", "block": 1, "b": "1/(1+sig2)",
                     "p": [1, -1]}]}, "gamma", tmp_path / "out")
    spans = {span[2] for span in rec["spans"]}
    assert {"quadrature.simplex_integrate",
            "quadrature.jacobi_rule_01"} <= spans
    assert "quadrature.radial_integrate_projective" not in spans


def test_traced_l3_table_takes_no_radial_grid(tmp_path):
    """The l=3 quasi-radial table of the benchmark, at m=4: its symbol is
    one Dirichlet monomial with half-integer exponents, taken axis by
    axis, so no radial grid is integrated and the symbol is evaluated on
    fewer points than one q^3 grid holds (the pre-check's probes)."""
    q = CONFIG["quadrature"]["order"]
    rec = _traced(tmp_path, {
        **CONFIG,
        "space": {"type": "projective", "n": 3, "m": 4},
        "partition": [1, 1, 1],
        "symbols": [{"kind": "quasi-radial",
                     "a": "r1^2*r2/(1+r1^2+r2^2+r3^2)"}]},
        "gamma", tmp_path / "out")
    spans = [span[2] for span in rec["spans"]]
    assert spans.count("quadrature.radial_integrate_projective") == 0
    assert "quadrature.jacobi_rule_01" in spans
    assert rec["counts"]["gamma.build_gamma_table.entries"] == 35
    assert rec["counts"].get("expr.evaluate.points", 0) < q ** 3


def test_traced_monte_carlo_oracle_counts_its_draws(tmp_path):
    """A Monte Carlo oracle-compare run: the tracer counts every sample
    drawn, in the table's one draw, and psi is evaluated on each once (in
    chunks, so over more calls than draws), plus the domain pre-check's
    1000 probe points."""
    samples, m = 20_000, 3
    out = tmp_path / "out.csv"
    rec = _traced(tmp_path, {
        "space": {"type": "projective", "n": 3, "m": m},
        "partition": [2, 1],
        "symbols": [{"kind": "single-sphere", "block": 1, "b": "sig1^2",
                     "p": [1, -1]}],
        "oracle": {"method": "monte-carlo", "samples": samples, "seed": 0}},
        "oracle-compare", out)
    counts = rec["counts"]
    # one draw, from the weight-0 measure, serves the whole table
    assert counts["quadrature.mc_integrate.samples"] == samples
    assert counts["symbols.evaluate_symbol_batch.points"] == samples + 1000
    assert "oracle.gamma_from_oracle" in {span[2] for span in rec["spans"]}


def test_traced_polar_grid_oracle_evaluates_the_symbol(tmp_path):
    """A polar-grid oracle-compare run: the tracer sees psi evaluated on
    the polar grid, well past the pre-check's 1000 probe points."""
    rec = _traced(tmp_path, {**CONFIG, "oracle": {"method": "polar-grid",
                                                  "grid": 8}},
                  "oracle-compare", tmp_path / "out.csv")
    assert {"symbols.evaluate_symbol_batch",
            "oracle.gamma_from_oracle"} <= {span[2] for span in rec["spans"]}
    assert rec["counts"]["symbols.evaluate_symbol_batch.points"] > 1000
