"""Command-line surface: reproducible gamma tables, operator matrices, and
structure reports driven by a single JSON config.

Exit codes: 0 success, 2 validation error, 3 numerical error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

import numpy as np

from . import __version__, operators, oracle
from .expr import EvalError, ParseError
from .gamma import BallSpace, ProjectiveSpace, build_gamma_table
from .geometry import factorization_check, invariance_check
from .indexing import DomainError, Partition, as_integer
from .quadrature import QuadratureSpec
from .symbols import (
    ExtendedFactor,
    MultiSphereFactor,
    PhaseMonomial,
    Product,
    QuasiRadial,
    SingleSphereFactor,
    ValidationError,
    evaluate_symbol_batch,
)

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class ConfigError(ValueError):
    pass


def _shaped(section: dict, key: str, kind: type, *default):
    """section[key], or the default where given and the key is absent,
    refused unless it is a kind: dict (a JSON object), list or object."""
    value = section.get(key, *default) if default else section[key]
    if not isinstance(value, kind):
        what = "an object" if kind is dict else "a list"
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return value


def _integer(section: dict, key: str, *default) -> int:
    """`_shaped` of any kind, as an integer by `indexing.as_integer`."""
    return as_integer(_shaped(section, key, object, *default), key,
                      ConfigError)


_ANGULAR = {"multi-sphere": MultiSphereFactor,
            "single-sphere": SingleSphereFactor, "extended": ExtendedFactor}


def parse_symbol(desc: dict):
    kind = _shaped({"symbol": desc}, "symbol", dict).get("kind")
    try:
        if kind == "quasi-radial":
            return QuasiRadial(desc["a"])
        if kind in _ANGULAR:
            return _ANGULAR[kind](_integer(desc, "block") - 1,
                                  desc.get("b", "1"), _shaped(desc, "p", list))
        if kind == "phase":
            return PhaseMonomial(_shaped(desc, "p", list))
        if kind == "product":
            return Product(tuple(
                parse_symbol(f) for f in _shaped(desc, "factors", list)))
    except KeyError as exc:
        raise ConfigError(f"symbol descriptor missing field {exc}") from None
    raise ConfigError(f"unknown symbol kind {kind!r}")


def parse_space(desc: dict):
    t = desc.get("type")
    if t == "projective":
        return ProjectiveSpace(_integer(desc, "n"), _integer(desc, "m"))
    if t == "ball":
        try:
            lam = float(desc["lambda"])
        except (TypeError, ValueError):
            raise ConfigError(f"lambda must be a number, got "
                              f"{desc['lambda']!r}") from None
        return BallSpace(_integer(desc, "n"), lam, _integer(desc, "cap"))
    raise ConfigError(f"unknown space type {t!r}")


def load_config(path: str, args) -> dict:
    with open(path) as fh:
        cfg = _shaped({"config": json.load(fh)}, "config", dict)
    space = parse_space(_shaped(cfg, "space", dict))
    k = Partition(tuple(_shaped(cfg, "partition", list)))
    if k.n != space.n:
        raise ConfigError(f"partition {k.parts} does not sum to n={space.n}")
    symbols = [parse_symbol(d) for d in _shaped(cfg, "symbols", list, [])]
    qcfg = dict(_shaped(cfg, "quadrature", dict, {}))
    if args.quad_order is not None:
        qcfg["order"] = args.quad_order
    if args.seed is not None:
        qcfg["seed"] = args.seed
    spec = QuadratureSpec(**{key: qcfg[key] if key == "method"
                             else _integer(qcfg, key)
                             for key in ("method", "order", "seed")
                             if key in qcfg})
    ocfg = dict(_shaped(cfg, "oracle", dict, {}))
    if args.mc_samples is not None:
        ocfg["samples"] = args.mc_samples
    return {"space": space, "partition": k, "symbols": symbols,
            "quadrature": spec, "oracle": ocfg, "raw": cfg}


def _probe_points(n: int):
    """The moduli and angles, each (1000, n), of a fixed low-discrepancy
    set of points in C^n: the generalized golden-ratio (Kronecker) sequence
    in [0, 1)^(2n) sets each coordinate's modulus, log-uniform on
    [1e-3, 1e3], and its angle, uniform on [0, 2 pi)."""
    phi = 2.0
    for _ in range(60):  # phi^(2n+1) = phi + 1
        phi = (1.0 + phi) ** (1.0 / (2 * n + 1))
    steps = phi ** -np.arange(1.0, 2 * n + 1)
    u = (0.5 + np.arange(1, 1001)[:, None] * steps) % 1.0
    return 10.0 ** (6.0 * u[:, :n] - 3.0), 2 * np.pi * u[:, n:]


def domain_precheck(symbols, k: Partition) -> None:
    """Probe symbol expressions on 1000 fixed chart points and flag
    evaluation failures (division by zero, log out of domain)."""
    R, theta = _probe_points(k.n)
    for s in symbols:
        try:
            # a non-finite probe value is reported below in one line, not
            # as NumPy's warnings
            with np.errstate(all="ignore"):
                vals = evaluate_symbol_batch(s, R, theta, k)
            if not np.all(np.isfinite(vals)):
                print("warning: symbol evaluates non-finite on probe points",
                      file=sys.stderr)
        except EvalError as exc:
            print(f"warning: symbol domain pre-check failed: {exc}",
                  file=sys.stderr)


def meta_block(cfg, extra=None) -> dict:
    spec = cfg["quadrature"]
    return {
        "version": __version__,
        "basis_order": "graded-lexicographic",
        "config": cfg["raw"],
        "quadrature": {"method": spec.method, "order": spec.order,
                       "seed": spec.seed},
        **(extra or {}),
    }


def _open_out(args):
    if args.out:
        try:
            return open(args.out, "w"), True
        except OSError as exc:
            print(f"error: cannot open output: {exc}", file=sys.stderr)
            sys.exit(EXIT_IO)
    return sys.stdout, False


def write_rows(args, cfg, rows, columns, extra_meta=None) -> None:
    fh, close = _open_out(args)
    meta = meta_block(cfg, extra_meta)
    try:
        if args.format == "json":
            json.dump({"meta": meta, "columns": columns, "rows": rows}, fh,
                      sort_keys=True)
            fh.write("\n")
        else:
            fh.write(f"# bergtoep {meta['version']}\n")
            fh.write(f"# basis-order {meta['basis_order']}\n")
            fh.write("# config " + json.dumps(meta["config"], sort_keys=True)
                     + "\n")
            for key in sorted(extra_meta or {}):
                fh.write(f"# {key} {json.dumps(extra_meta[key])}\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(str(x) for x in row) + "\n")
    finally:
        if close:
            fh.close()


def _table(cfg):
    """The product psi of the config's symbols, and its gamma table."""
    symbols = cfg["symbols"]
    if not symbols:
        raise ConfigError("config lists no symbols")
    psi = symbols[0] if len(symbols) == 1 else Product(tuple(symbols))
    return psi, operators.product_table([psi], cfg["space"],
                                        cfg["partition"], cfg["quadrature"])


def cmd_gamma(args, cfg) -> None:
    _, table = _table(cfg)
    basis = operators.space_basis(cfg["space"])
    # Python scalars, so that repr prints plain floats
    rows = [[" ".join(map(str, alpha)), repr(g.real), repr(g.imag)]
            for alpha, g in zip(basis.tolist(), table.values.tolist())]
    write_rows(args, cfg, rows, ["alpha", "re", "im"],
               {"theorem": table.annotation,
                "shift": list(table.shift)})


def cmd_operator(args, cfg) -> None:
    mat = operators.assemble(_table(cfg)[1])
    fh, close = _open_out(args)
    if args.format == "json":
        entries = [[int(r), int(c), float(v.real), float(v.imag)]
                   for r, c, v in zip(*mat.entries())]
        doc = {"meta": meta_block(cfg, {"dim": mat.dim,
                                        "shift": list(mat.shift)}),
               "entries": entries}
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
    else:
        operators.export_matrix(mat, fh)
    if close:
        fh.close()


def cmd_commutator(args, cfg) -> None:
    if len(cfg["symbols"]) < 2:
        raise ConfigError("commutator needs at least two symbols")
    worst = operators.commutation_suite(cfg["symbols"], cfg["space"],
                                        cfg["partition"], cfg["quadrature"])
    write_rows(args, cfg, [[repr(worst)]], ["max_relative_commutator"])


def cmd_fusion(args, cfg) -> None:
    factors = list(cfg["symbols"])
    if not factors:
        raise ConfigError("fusion needs symbols")
    a = factors.pop(0) if isinstance(factors[0], QuasiRadial) else None
    defect, scale = operators.fusion_defect(a, factors, cfg["space"],
                                            cfg["partition"],
                                            cfg["quadrature"])
    verdict = ("DEGENERATE" if scale == 0
               else "EQUAL" if defect / scale <= 1e-10 else "UNEQUAL")
    write_rows(args, cfg, [[repr(defect), repr(scale), verdict]],
               ["defect", "scale", "verdict"])


def cmd_oracle_compare(args, cfg) -> None:
    space, k = cfg["space"], cfg["partition"]
    psi, table = _table(cfg)
    ocfg = cfg["oracle"]
    method = ocfg.get("method", "polar-grid")
    if method == "monte-carlo":
        kwargs = {"samples": _integer(ocfg, "samples", oracle.DEFAULT_SAMPLES),
                  "seed": _integer(ocfg, "seed", cfg["quadrature"].seed)}
    else:
        grid = _integer(ocfg, "grid", oracle.DEFAULT_GRID)
        kwargs = {"q_r": grid, "q_theta": grid}
    live = operators.shift_targets(space, table.shift) >= 0
    alphas = operators.space_basis(space)[live]
    # one call: the table's rows share the oracle's rules and draws
    gamma = (oracle.gamma_from_oracle if isinstance(space, ProjectiveSpace)
             else oracle.gamma_from_oracle_ball)
    res = gamma(psi, alphas, table.shift, space.weight, space.n, k, method,
                **kwargs)
    rows = [[" ".join(map(str, alpha)), repr(g.real), repr(o.real),
             repr(abs(g - o)), repr(e)]
            for alpha, g, o, e in zip(alphas.tolist(),
                                      table.values[live].tolist(),
                                      res.value.tolist(), res.stderr.tolist())]
    write_rows(args, cfg, rows,
               ["alpha", "gamma_formula", "gamma_oracle", "abs_diff",
                "stderr"])


def cmd_geometry(args, cfg) -> None:
    k = cfg["partition"]
    gcfg = _shaped(cfg["raw"], "geometry", dict, {})
    check = gcfg.get("check", "invariance")
    trials = _integer(gcfg, "trials", 1000)
    seed = _integer(gcfg, "seed", cfg["quadrature"].seed)
    # one draw of the trials serves every symbol
    if check == "factorization":
        label = "factorization"
        devs = factorization_check(cfg["symbols"], k, pairs=trials,
                                   seed=seed)
    else:
        label = gcfg.get("action", "full-torus")
        devs = invariance_check(cfg["symbols"], k, label, trials=trials,
                                seed=seed)
    rows = [[i, label, repr(dev)] for i, dev in enumerate(devs)]
    write_rows(args, cfg, rows, ["symbol", "check", "max_deviation"])


COMMANDS = {
    "gamma": cmd_gamma,
    "operator": cmd_operator,
    "commutator": cmd_commutator,
    "fusion": cmd_fusion,
    "oracle-compare": cmd_oracle_compare,
    "geometry": cmd_geometry,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bergtoep",
        description="Toeplitz operators with pseudo-homogeneous symbols on "
                    "weighted Bergman spaces")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--quad-order", type=int)
    parser.add_argument("--mc-samples", type=int)
    return parser


def main(argv=None) -> int:
    # the import-time heap lives until exit: keep the collector off it
    if gc.get_freeze_count() == 0:
        gc.freeze()
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, ValidationError, ParseError, DomainError,
            KeyError, json.JSONDecodeError) as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        domain_precheck(cfg["symbols"], cfg["partition"])
        COMMANDS[args.command](args, cfg)
    except (ConfigError, ValidationError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DomainError, EvalError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return 0


if __name__ == "__main__":
    sys.exit(main())
