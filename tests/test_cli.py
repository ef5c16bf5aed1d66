"""CLI surface: configs, formats, reproducibility, exit codes."""

import json
import math
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from bergtoep import gamma as gamma_module
from bergtoep.cli import main

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


def test_unrepresentable_jacobi_rule_is_numerical_error(tmp_path):
    # the Jacobi rule of the radial integral overflows at m = 1100; it
    # used to write NaN and 0.0 rows against gamma = (1+alpha)/(m+2)
    cfg = {"space": {"type": "projective", "n": 1, "m": 1100},
           "partition": [1],
           "symbols": [{"kind": "quasi-radial", "a": "r1^2/(1+r1^2)"}]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert run(["gamma", "--config", str(path), "--out",
                str(tmp_path / "g.csv")]) == 3


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
    # (r1+s1)^6 is 7 terms per block, fewer than the 40 nodes a coupled
    # block adds, but 7^3 term products on the 40^3 radial grid exceed the
    # budget too: refused before any Jacobi rule is built
    monkeypatch.setattr(gamma_module, "build_jacobi_rules", _refuse)
    path = _extended_config(tmp_path, 6, [2, 2, 2], "(r1+s1)^6", 40)
    assert run(["gamma", "--config", path, "--out",
                str(tmp_path / "g.csv")]) == 3
    assert "times 343 integrands exceeds the budget" in capsys.readouterr().err


@pytest.mark.parametrize("m", [1020, 1050])
def test_large_weight_never_writes_nonfinite_rows(tmp_path, m):
    # gamma = (1+alpha)/(m+2) on P^1; past the double range of the radial
    # rule the command either fails as a numerical error or stays exact
    cfg = {"space": {"type": "projective", "n": 1, "m": m},
           "partition": [1],
           "symbols": [{"kind": "quasi-radial", "a": "r1^2/(1+r1^2)"}]}
    path, out = tmp_path / "c.json", tmp_path / "g.csv"
    path.write_text(json.dumps(cfg))
    code = run(["gamma", "--config", str(path), "--out", str(out)])
    assert code in (0, 3)
    if code == 0:
        rows = [ln.split(",") for ln in out.read_text().splitlines()
                if not ln.startswith("#")][1:]
        assert len(rows) == m + 1
        for alpha, re_, im_ in rows:
            assert math.isfinite(float(re_)) and float(im_) == 0.0
            assert abs(float(re_) - (1 + int(alpha)) / (m + 2)) < 1e-11


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


def test_monte_carlo_oracle_compare_memory_is_bounded(tmp_path):
    """The Monte Carlo oracle evaluates psi once the draw's temporaries are
    freed, and each alpha costs a real monomial, not complex powers: on P^3
    with 2^17 samples the traced peak is about 31 MB, against about 41 MB
    with psi evaluated beside the draw's temporaries and complex powers per
    alpha."""
    cfg = dict(BASE_CONFIG, space={"type": "projective", "n": 3, "m": 3},
               partition=[2, 1],
               symbols=[{"kind": "single-sphere", "block": 1, "b": "sig1^2",
                         "p": [1, -1]}],
               oracle={"method": "monte-carlo", "samples": 2**17, "seed": 0})
    path = tmp_path / "mc.json"
    path.write_text(json.dumps(cfg))
    tracemalloc.start()
    try:
        assert run(["oracle-compare", "--config", str(path), "--out",
                    str(tmp_path / "oc.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 36 * 2**20


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


def test_too_few_monte_carlo_samples_is_numerical_error(tmp_path):
    path = tmp_path / "mc.json"
    cfg = dict(BASE_CONFIG)
    cfg["symbols"] = [{"kind": "extended", "block": 1,
                       "b": "s1^2 + r1^2/(1+r1^2)", "p": [1, -1]}]
    cfg["quadrature"] = {"method": "monte-carlo", "order": 40, "seed": 0}
    path.write_text(json.dumps(cfg))
    assert run(["gamma", "--config", str(path)]) == 3


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
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, bergtoep.cli; print(sorted(m for m in sys.modules "
         "if m == 'scipy' or m.startswith('scipy.')))"],
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
