"""CLI surface: configs, formats, reproducibility, exit codes."""

import json
import math
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bergtoep import gamma as gamma_module
from bergtoep import quadrature as quadrature_module
from bergtoep.cli import build_parser, load_config, main
from bergtoep.indexing import Partition, monomial_norm_sq_projective
from bergtoep.quadrature import QuadratureSpec
from bergtoep.symbols import SingleSphereFactor, evaluate_symbol_batch

BASE_CONFIG = {
    "space": {"type": "projective", "n": 2, "m": 3},
    "partition": [2],
    "symbols": [
        {"kind": "quasi-radial", "a": "r1^2/(1+r1^2)"},
        {"kind": "multi-sphere", "block": 1, "b": "s1^2", "p": [1, -1]},
    ],
    "quadrature": {"method": "gauss-jacobi-tensor", "order": 40, "seed": 0},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return str(path)


def run(args):
    return main(args)


def test_gamma_csv_output(config_path, tmp_path):
    out = tmp_path / "gamma.csv"
    assert run(["gamma", "--config", config_path, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    assert len(header) >= 2  # provenance block
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "alpha,re,im"
    assert len(data) == 1 + 10  # |J_2(3)| = 10 rows


def test_gamma_json_output(config_path, tmp_path):
    out = tmp_path / "gamma.json"
    assert run(["gamma", "--config", config_path, "--out", str(out),
                "--format", "json"]) == 0
    doc = json.loads(out.read_text())
    assert doc["columns"] == ["alpha", "re", "im"]
    assert doc["meta"]["quadrature"]["order"] == 40
    assert len(doc["rows"]) == 10


def test_quadrature_section_defaults_to_the_spec(tmp_path):
    """A config without a quadrature section runs on QuadratureSpec's own
    defaults, and writes them to the JSON meta."""
    cfg = {key: val for key, val in BASE_CONFIG.items()
           if key != "quadrature"}
    path, out = tmp_path / "c.json", tmp_path / "g.json"
    path.write_text(json.dumps(cfg))
    args = build_parser().parse_args(["gamma", "--config", str(path)])
    assert load_config(str(path), args)["quadrature"] == QuadratureSpec()
    assert run(["gamma", "--config", str(path), "--out", str(out),
                "--format", "json"]) == 0
    assert json.loads(out.read_text())["meta"]["quadrature"] == {
        "method": "gauss-jacobi-tensor", "order": 40, "seed": 0}


def test_rerun_byte_identical(config_path, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["gamma", "--config", config_path, "--out", str(a)])
    run(["gamma", "--config", config_path, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_operator_coordinate_format(config_path, tmp_path):
    out = tmp_path / "op.txt"
    assert run(["operator", "--config", config_path, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# 2 3 10 shift=1,-1")
    for ln in lines[1:]:
        r, c, re_, im_ = ln.split()
        int(r), int(c), float(re_), float(im_)


def test_operator_json_entries_match_text_export(config_path, tmp_path):
    text, doc = tmp_path / "op.txt", tmp_path / "op.json"
    assert run(["operator", "--config", config_path, "--out", str(text)]) == 0
    assert run(["operator", "--config", config_path, "--out", str(doc),
                "--format", "json"]) == 0
    lines = [ln.split() for ln in text.read_text().splitlines()[1:]]
    entries = json.loads(doc.read_text())["entries"]
    assert len(entries) == len(lines) > 0
    for (r, c, re_, im_), entry in zip(lines, entries):
        assert entry == [int(r), int(c), float(re_), float(im_)]


def test_large_weight_rule_table_matches_scipy_beta_mean(tmp_path):
    # r1^2/(2+r1^2) is U_1/(2 - U_1) on P^1, no polynomial in the
    # barycentric coordinates, so it takes the Jacobi rule; at m = 1100 the
    # rule's Beta mass underflows, but its probability weights do not
    stats = pytest.importorskip("scipy.stats")
    integrate = pytest.importorskip("scipy.integrate")
    m = 1100
    cfg = {"space": {"type": "projective", "n": 1, "m": m},
           "partition": [1],
           "symbols": [{"kind": "quasi-radial", "a": "r1^2/(2+r1^2)"}]}
    path, out = tmp_path / "c.json", tmp_path / "g.csv"
    path.write_text(json.dumps(cfg))
    assert run(["gamma", "--config", str(path), "--out", str(out)]) == 0
    rows = {int(r[0]): float(r[1]) for r in [
        ln.split(",") for ln in out.read_text().splitlines()
        if not ln.startswith("#")][1:]}
    for alpha in (0, 1, 100, 550, 1099, 1100):
        # gamma is the mean of u/(2-u) under Beta(alpha+1, m-alpha+1)
        density = stats.beta(alpha + 1, m - alpha + 1).pdf
        want, _ = integrate.quad(lambda u: u / (2 - u) * density(u), 0, 1,
                                 epsabs=0, epsrel=1e-13, limit=200)
        assert rows[alpha] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n, partition, symbols", [
    (4, [1] * 4, [{"kind": "quasi-radial", "a": "r1^2/(1+r1^2+r2^2)"}]),
    (4, [2, 2], [{"kind": "extended", "block": j,
                  "b": f"s1^2*r{j}^2/(1+r{j}^2*s1^2)", "p": [0, 0]}
                 for j in (1, 2)]),
])
def test_grid_over_node_budget_is_numerical_error(tmp_path, n, partition,
                                                  symbols):
    # a 46^4-node radial or coupled grid is refused before it is allocated;
    # the divisor reads a radius and a cosine, so the blocks cannot split
    # into radial x angular terms and keep the coupled grid
    cfg = {"space": {"type": "projective", "n": n, "m": 1},
           "partition": partition, "symbols": symbols,
           "quadrature": {"method": "gauss-jacobi-tensor", "order": 46}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert run(["gamma", "--config", str(path), "--out",
                str(tmp_path / "g.csv")]) == 3


def _extended_config(tmp_path, n, partition, b, order):
    cfg = {"space": {"type": "projective", "n": n, "m": 1},
           "partition": partition,
           "symbols": [{"kind": "extended", "block": j + 1,
                        "b": b.format(j=j + 1), "p": [0] * kj}
                       for j, kj in enumerate(partition)],
           "quadrature": {"method": "gauss-jacobi-tensor", "order": order}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _refuse(*args):
    raise AssertionError("not to be called")


def test_split_blocks_take_the_radial_grid(tmp_path, monkeypatch):
    # s1^2 * r_j^2/(1+r_j^2) is one radial x angular term per block: the
    # table runs on the 46^2 radial grid, not the refused 46^4 coupled grid
    monkeypatch.setattr(gamma_module, "_block_rule", _refuse)
    path = _extended_config(tmp_path, 4, [2, 2], "s1^2*r{j}^2/(1+r{j}^2)", 46)
    assert run(["gamma", "--config", path, "--out",
                str(tmp_path / "g.csv")]) == 0


def test_split_products_over_node_budget_are_numerical_error(
        tmp_path, monkeypatch, capsys):
    # (1/(1+r1)+s1)^6 is 7 terms per block, fewer than the 40 nodes a
    # coupled block adds, but its 7^3 term products are no monomials, and
    # on the 40^3 radial grid they exceed the budget too: refused before
    # any Jacobi rule is built
    monkeypatch.setattr(gamma_module, "build_jacobi_rules", _refuse)
    path = _extended_config(tmp_path, 6, [2, 2, 2], "(1/(1+r1)+s1)^6", 40)
    assert run(["gamma", "--config", path, "--out",
                str(tmp_path / "g.csv")]) == 3
    assert "times 343 integrands exceeds the budget" in capsys.readouterr().err


def test_ruled_table_over_rule_budget_is_numerical_error(tmp_path,
                                                         monkeypatch, capsys):
    # r1^2 r2/(1+r1^2+r2^2+r3^2) is a monomial taken axis by axis, so no
    # grid is built, but each of its 2049-point rules has a Jacobi matrix
    # over the node budget: refused before any rule is built
    monkeypatch.setattr(quadrature_module, "_golub_welsch", _refuse)
    cfg = {"space": {"type": "projective", "n": 3, "m": 2},
           "partition": [1, 1, 1],
           "symbols": [{"kind": "quasi-radial",
                        "a": "r1^2*r2/(1+r1^2+r2^2+r3^2)"}]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert run(["gamma", "--config", str(path), "--quad-order", "2049",
                "--out", str(tmp_path / "g.csv")]) == 3
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("m", [1020, 1050, 1100, 5000])
def test_large_weight_never_writes_nonfinite_rows(tmp_path, m):
    # gamma = (1+alpha)/(m+2) on P^1: a = r1^2/(1+r1^2) is the coordinate
    # U_1, whose Dirichlet moment needs no Jacobi rule at any weight
    cfg = {"space": {"type": "projective", "n": 1, "m": m},
           "partition": [1],
           "symbols": [{"kind": "quasi-radial", "a": "r1^2/(1+r1^2)"}]}
    path, out = tmp_path / "c.json", tmp_path / "g.csv"
    path.write_text(json.dumps(cfg))
    assert run(["gamma", "--config", str(path), "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()
            if not ln.startswith("#")][1:]
    assert len(rows) == m + 1
    for alpha, re_, im_ in rows:
        assert math.isfinite(float(re_)) and float(im_) == 0.0
        want = (1 + int(alpha)) / (m + 2)
        assert abs(float(re_) - want) <= 1e-14 * want


def test_fusion_verdict_equal(config_path, tmp_path):
    out = tmp_path / "fusion.csv"
    assert run(["fusion", "--config", config_path, "--out", str(out)]) == 0
    assert out.read_text().strip().endswith("EQUAL")


def test_fusion_verdict_unequal(tmp_path):
    cfg = {
        "space": {"type": "projective", "n": 3, "m": 3},
        "partition": [2, 1],
        "symbols": [
            {"kind": "quasi-radial", "a": "r1^2/(r1^2 + r2^2)"},
            {"kind": "single-sphere", "block": 1, "b": "sig1^2",
             "p": [1, -1]},
        ],
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "fusion.csv"
    assert run(["fusion", "--config", str(path), "--out", str(out)]) == 0
    assert out.read_text().strip().endswith("UNEQUAL")


def test_fusion_verdict_degenerate(tmp_path):
    # shift leaves the basis everywhere: zero operator, zero scale
    cfg = {
        "space": {"type": "projective", "n": 2, "m": 1},
        "partition": [2],
        "symbols": [
            {"kind": "multi-sphere", "block": 1, "b": "1", "p": [2, -2]},
        ],
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "fusion.csv"
    assert run(["fusion", "--config", str(path), "--out", str(out)]) == 0
    assert out.read_text().strip().endswith("DEGENERATE")


def test_commutator_command(config_path, tmp_path):
    out = tmp_path / "comm.csv"
    assert run(["commutator", "--config", config_path, "--out",
                str(out)]) == 0
    last = out.read_text().strip().splitlines()[-1]
    assert float(last) < 1e-10


def test_oracle_compare_small_diff(config_path, tmp_path):
    out = tmp_path / "oc.csv"
    assert run(["oracle-compare", "--config", config_path, "--out",
                str(out)]) == 0
    rows = [ln for ln in out.read_text().splitlines()
            if not ln.startswith("#") and not ln.startswith("alpha")]
    assert rows
    for row in rows:
        assert float(row.split(",")[3]) < 1e-8


def test_oracle_compare_memory_is_bounded(config_path, tmp_path):
    """The polar oracle at grid 64 evaluates psi in chunks sized in points
    and stops at the first theta grid pair that agrees."""
    tracemalloc.start()
    try:
        assert run(["oracle-compare", "--config", config_path, "--out",
                    str(tmp_path / "oc.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


MC_P3_CONFIG = dict(
    BASE_CONFIG, space={"type": "projective", "n": 3, "m": 3},
    partition=[2, 1],
    symbols=[{"kind": "single-sphere", "block": 1, "b": "sig1^2",
              "p": [1, -1]}],
    oracle={"method": "monte-carlo", "samples": 2**17, "seed": 0})


def test_monte_carlo_oracle_compare_memory_is_bounded(tmp_path):
    """The Monte Carlo draw streams: it holds the moduli R of every point
    (3 MiB on P^3 with 2^17 samples) and one chunk, whatever the number of
    alpha.  The traced peak is about 5.2 MiB, against about 15 MiB with
    the whole draw and each alpha's arrays held at full length."""
    path = tmp_path / "mc.json"
    path.write_text(json.dumps(MC_P3_CONFIG))
    tracemalloc.start()
    try:
        assert run(["oracle-compare", "--config", str(path), "--out",
                    str(tmp_path / "oc.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2**20


def test_monte_carlo_oracle_compare_is_chunk_independent(tmp_path,
                                                         monkeypatch):
    """With the draw streamed in chunks of 1000 points (which does not
    divide the sample count), each row's gamma_oracle and stderr are
    bitwise those of mc_integrate on the row's integrand over the norm,
    under the one weight-0 draw of the table, and agree to 1e-13 with the
    draw taken in one chunk."""
    samples, seed, m, p = 20_500, 3, 3, (1, -1, 0)
    cfg = dict(MC_P3_CONFIG, oracle={"method": "monte-carlo",
                                     "samples": samples, "seed": seed})
    path = tmp_path / "mc.json"
    path.write_text(json.dumps(cfg))
    outputs = []
    for chunk in (2**15, 1000):
        monkeypatch.setattr(quadrature_module, "_MC_CHUNK_POINTS", chunk)
        out = tmp_path / f"oc{chunk}.csv"
        assert run(["oracle-compare", "--config", str(path), "--out",
                    str(out)]) == 0
        outputs.append([line.split(",") for line in
                        out.read_text().splitlines()[4:]])
    psi, k = SingleSphereFactor(0, "sig1^2", (1, -1)), Partition((2, 1))
    for row in outputs[1]:
        alpha = tuple(map(int, row[0].split()))
        beta = tuple(a + q for a, q in zip(alpha, p))

        def f(R, theta):
            c = evaluate_symbol_batch(psi, R, theta, k)
            cos, sin = np.cos(-theta[:, 0] + theta[:, 1]), np.sin(
                -theta[:, 0] + theta[:, 1])
            c = (c.real * cos - c.imag * sin) + 1j * (c.real * sin
                                                      + c.imag * cos)
            # the density of the weight-m measure against the weight-0
            # draw, times R^(alpha+beta), in logs
            log_R = np.log(R)
            log_f = (math.log(math.comb(3 + m, 3))
                     - m * np.log1p(np.sum(R ** 2, axis=1)))
            for j, e in enumerate(a + b for a, b in zip(alpha, beta)):
                if e:
                    log_f = log_f + e * log_R[:, j]
            return c * np.exp(log_f)

        value, stderr = quadrature_module.mc_integrate(
            f, ("nu_m", 3, 0), samples, seed)
        nsq = float(monomial_norm_sq_projective(beta, m))
        assert row[2:5:2] == [repr((value / nsq).real), repr(stderr / nsq)]
    for whole, row in zip(*outputs):
        assert row[:2] == whole[:2]
        for got, want in zip(row[2:5:2], whole[2:5:2]):
            assert float(got) == pytest.approx(float(want), rel=1e-13)
    assert len(outputs[0]) > 5


@pytest.mark.parametrize("m, code", [(3, 0), (4, 3)])
def test_oracle_compare_grid_exactness_guard(tmp_path, m, code):
    """A 2-point radial axis integrates degree <= 3 exactly: at m = 3 the
    shared rule is exact, at m = 4 the grid is refused, not answered
    wrongly."""
    cfg = dict(BASE_CONFIG, space={"type": "projective", "n": 2, "m": m},
               oracle={"method": "polar-grid", "grid": 2})
    path, out = tmp_path / "c.json", tmp_path / "oc.csv"
    path.write_text(json.dumps(cfg))
    assert run(["oracle-compare", "--config", str(path), "--out",
                str(out)]) == code
    if code == 0:
        rows = [ln for ln in out.read_text().splitlines()
                if not ln.startswith(("#", "alpha"))]
        assert rows
        for row in rows:
            assert float(row.split(",")[3]) < 1e-12


def test_geometry_command(config_path, tmp_path):
    out = tmp_path / "geo.csv"
    assert run(["geometry", "--config", config_path, "--out", str(out)]) == 0
    rows = [ln for ln in out.read_text().splitlines()
            if not ln.startswith(("#", "symbol"))]
    assert len(rows) == 2


def test_missing_config_is_io_error(tmp_path):
    assert run(["gamma", "--config", str(tmp_path / "absent.json")]) == 4


def test_invalid_config_is_validation_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"space": {"type": "projective", "n": 2,
                                          "m": 2},
                                "partition": [3],  # does not sum to n
                                "symbols": []}))
    assert run(["gamma", "--config", str(path)]) == 2


@pytest.mark.parametrize("command, section, settings", [
    ("gamma", "quadrature", {"order": 7.9}),
    ("gamma", "quadrature", {"seed": 2.5}),
    ("gamma", "space", {"m": 3.5}),
    ("oracle-compare", "oracle", {"grid": 20.5}),
    ("oracle-compare", "oracle", {"method": "monte-carlo",
                                  "samples": 1000.5}),
    ("geometry", "geometry", {"trials": 10.5}),
    ("geometry", "geometry", {"seed": 1.5}),
    # a whole section: its integers are parts or shifts
    ("gamma", "partition", [1.5, 1]),
    ("gamma", "symbols", [{"kind": "multi-sphere", "block": 1, "b": "s1^2",
                           "p": [0.5, -0.5]}]),
    ("gamma", "symbols", [{"kind": "phase", "p": [0.5, -0.5]}]),
])
def test_fractional_config_integer_is_validation_error(tmp_path, capsys,
                                                       command, section,
                                                       settings):
    """A count, seed, partition part or shift with a fractional part is
    refused, naming its key, not truncated."""
    cfg = json.loads(json.dumps(BASE_CONFIG))
    if isinstance(settings, dict):
        cfg.setdefault(section, {}).update(settings)
        [key] = [k for k, v in settings.items() if isinstance(v, float)]
    else:
        cfg[section] = settings
        key = "partition" if section == "partition" else "p"
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert run([command, "--config", str(path), "--out",
                str(tmp_path / "o.csv")]) == 2
    assert f"{key} must be an integer" in capsys.readouterr().err


BALL_SPACE = {"type": "ball", "n": 2, "lambda": 1.0, "cap": 3}


NON_NUMERIC = [
    ("gamma", "quadrature", "order", "abc"),
    ("gamma", "quadrature", "seed", "abc"),
    ("oracle-compare", "oracle", "grid", "abc"),
    ("oracle-compare", "oracle", "samples", "abc"),
    ("geometry", "geometry", "trials", "abc"),
    ("gamma", "space", "n", "abc"),
    ("gamma", "space", "m", "abc"),
    ("gamma", "ball", "cap", "abc"),
    ("gamma", "ball", "lambda", "abc"),
    ("gamma", "symbol", "block", "abc"),
    # a list of the wrong items, or a section of the wrong shape
    ("gamma", "config", "partition", ["a"]),
    ("gamma", "symbol", "p", ["x", 1]),
    ("gamma", "config", "config", []),
    ("gamma", "config", "space", "P2"),
    ("gamma", "config", "partition", 3),
    ("gamma", "config", "symbols", "abc"),
]


@pytest.mark.parametrize(
    "command, section, key, value", NON_NUMERIC,
    ids=["-".join(case[:3]) + ("" if case[3] == "abc"
                               else f"-{type(case[3]).__name__}")
         for case in NON_NUMERIC])
def test_non_numeric_config_string_is_validation_error(tmp_path, capsys,
                                                       command, section,
                                                       key, value):
    """A count, seed or lambda given as a non-numeric string, a list of
    non-numeric parts or shifts, and a config or section that is not the
    object or list it must be, are refused with the key's name, not a
    traceback."""
    cfg = json.loads(json.dumps(BASE_CONFIG))
    if section == "ball":
        cfg["space"] = dict(BALL_SPACE)
    target = (cfg["symbols"][1] if section == "symbol"
              else cfg["space"] if section == "ball"
              else cfg if section == "config"
              else cfg.setdefault(section, {}))
    target[key] = value
    if key == "samples":
        target["method"] = "monte-carlo"
    path = tmp_path / "c.json"
    path.write_text(json.dumps(value if key == "config" else cfg))
    assert run([command, "--config", str(path), "--out",
                str(tmp_path / "o.csv")]) == 2
    assert f"{key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("settings", [
    {"method": "polar-grid"},
    {"method": "monte-carlo", "samples": 200_000, "seed": 1},
], ids=["polar-grid", "monte-carlo"])
def test_oracle_compare_takes_the_ball(tmp_path, settings):
    """Criterion 04's extended symbol on the weight-1 ball (n = 2, cap 3):
    the polar grid agrees to 1e-8, Monte Carlo within 6 stderr."""
    cfg = dict(BASE_CONFIG, space=BALL_SPACE, oracle=settings, symbols=[
        {"kind": "extended", "block": 1, "b": "r1^2/(1+r1^2)*s1^2",
         "p": [1, -1]}])
    path, out = tmp_path / "ball.json", tmp_path / "oc.csv"
    path.write_text(json.dumps(cfg))
    assert run(["oracle-compare", "--config", str(path), "--out",
                str(out)]) == 0
    rows = [list(map(float, line.split(",")[1:]))
            for line in out.read_text().splitlines()[4:]]
    assert len(rows) == 6
    for formula, value, diff, stderr in rows:
        if settings["method"] == "polar-grid":
            assert diff <= 1e-8 and stderr == 0
        else:
            assert 0 < diff <= 6 * stderr


def test_too_few_monte_carlo_samples_is_numerical_error(tmp_path):
    path = tmp_path / "mc.json"
    cfg = dict(BASE_CONFIG)
    cfg["symbols"] = [{"kind": "extended", "block": 1,
                       "b": "s1^2 + r1^2/(1+r1^2)", "p": [1, -1]}]
    cfg["quadrature"] = {"method": "monte-carlo", "order": 40, "seed": 0}
    path.write_text(json.dumps(cfg))
    assert run(["gamma", "--config", str(path)]) == 3


def test_full_block_single_sphere_table_is_not_covered(tmp_path, capsys):
    path = tmp_path / "single.json"
    cfg = dict(BASE_CONFIG)
    cfg["symbols"] = [{"kind": "single-sphere", "block": 1, "b": "sig1",
                       "p": [1, -1]}]
    path.write_text(json.dumps(cfg))
    assert run(["gamma", "--config", str(path)]) == 3
    assert "not covered" in capsys.readouterr().err


def test_bad_expression_is_validation_error(tmp_path):
    path = tmp_path / "bad.json"
    cfg = dict(BASE_CONFIG)
    cfg["symbols"] = [{"kind": "quasi-radial", "a": "r1 +* 2"}]
    path.write_text(json.dumps(cfg))
    assert run(["gamma", "--config", str(path)]) == 2


def test_domain_precheck_warns(tmp_path, capsys):
    cfg = dict(BASE_CONFIG)
    cfg["symbols"] = [{"kind": "quasi-radial", "a": "log(r1 - 100)"}]
    path = tmp_path / "warn.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "g.csv"
    main(["gamma", "--config", str(path), "--out", str(out)])
    assert "domain pre-check" in capsys.readouterr().err


def test_console_script_entry_point(config_path, tmp_path):
    out = tmp_path / "g.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "bergtoep.cli", "gamma", "--config",
         config_path, "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.exists()


def test_cli_import_loads_no_scipy():
    """Nor mpmath or hypothesis: NumPy is the one runtime dependency, and
    every CLI run pays for what the import loads."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, bergtoep.cli; print(sorted(m for m in sys.modules "
         "if m.split('.')[0] in ('scipy', 'mpmath', 'hypothesis')))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_importlib_metadata():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, bergtoep.cli; "
         "print('importlib.metadata' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_generates_no_class_code_or_fractions():
    """A structural start-up guard, not a timing: the value classes build no
    code per class (no dataclasses), and exact fractions (fractions, which
    imports decimal) load only where the oracle asks for one."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, bergtoep.cli; print(sorted(m for m in sys.modules "
         "if m in ('dataclasses', 'fractions', 'decimal')))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_csv_header_names_the_project_version(config_path, tmp_path):
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    version = re.search(r'^version = "([^"]+)"$', pyproject.read_text(),
                        re.MULTILINE).group(1)
    out = tmp_path / "g.csv"
    assert run(["gamma", "--config", config_path, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == f"# bergtoep {version}"


@pytest.mark.parametrize("command, section, settings, flags", [
    ("gamma", "quadrature", {"method": "monte-carlo", "order": 10**12}, []),
    ("oracle-compare", "oracle", {"method": "monte-carlo"},
     ["--mc-samples", "1000000000000"]),
], ids=["gamma", "oracle-compare"])
def test_over_budget_sample_count_is_numerical_error(tmp_path, command,
                                                     section, settings,
                                                     flags):
    """A sample count over MAX_SAMPLES is refused before anything is
    drawn: 10^12 samples would need tens of TB."""
    cfg = dict(BASE_CONFIG)
    cfg[section] = settings
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg))
    start = time.perf_counter()
    code = run([command, "--config", str(path), "--out",
                str(tmp_path / "o.csv")] + flags)
    assert code == 3
    assert time.perf_counter() - start < 1.0


def test_gamma_command_loads_no_numpy_random(config_path, tmp_path):
    """The domain pre-check probes fixed points, so a deterministic command
    never imports numpy.random."""
    code = ("import sys; from bergtoep.cli import main; "
            f"code = main(['gamma', '--config', {config_path!r}, '--out', "
            f"{str(tmp_path / 'g.csv')!r}]); "
            "print(code, 'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False"


@pytest.mark.parametrize("a", ["exp(r1^2)", "exp(r1^2)-exp(r1^2)"],
                         ids=["inf", "nan"])
def test_nonfinite_table_is_numerical_error(tmp_path, a):
    # the radial integral of exp(r^2) overflows, to inf and, as a
    # difference, to nan, first at alpha = (3,), where a0 = 0 puts a node
    # nearest r = oo; the table used to be written with those rows.  The
    # pre-check and the gamma check each report it in their own line, and
    # NumPy's overflow warnings stay off stderr.  A subprocess keeps the
    # warning filters of this process out of it.
    cfg = {"space": {"type": "projective", "n": 1, "m": 3},
           "partition": [1], "symbols": [{"kind": "quasi-radial", "a": a}]}
    path, out = tmp_path / "c.json", tmp_path / "g.csv"
    path.write_text(json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, "-m", "bergtoep.cli", "gamma", "--config",
         str(path), "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 3, proc.stderr
    value = "inf" if a == "exp(r1^2)" else "nan"
    assert f"error: gamma(3,) = {value} is not finite" in proc.stderr
    assert "warning: symbol evaluates non-finite" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert not out.exists()
