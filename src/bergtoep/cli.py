"""Command-line surface: reproducible gamma tables, operator matrices, and
structure reports driven by a single JSON config.

Exit codes: 0 success, 2 validation error, 3 numerical error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__, operators, oracle
from .expr import EvalError, ParseError
from .gamma import BallSpace, ProjectiveSpace, build_gamma_table
from .geometry import factorization_check, invariance_check
from .indexing import DomainError, Partition
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


def parse_symbol(desc: dict):
    kind = desc.get("kind")
    try:
        if kind == "quasi-radial":
            return QuasiRadial(desc["a"])
        if kind == "multi-sphere":
            return MultiSphereFactor(int(desc["block"]) - 1,
                                     desc.get("b", "1"), tuple(desc["p"]))
        if kind == "single-sphere":
            return SingleSphereFactor(int(desc["block"]) - 1,
                                      desc.get("b", "1"), tuple(desc["p"]))
        if kind == "extended":
            return ExtendedFactor(int(desc["block"]) - 1,
                                  desc.get("b", "1"), tuple(desc["p"]))
        if kind == "phase":
            return PhaseMonomial(tuple(desc["p"]))
        if kind == "product":
            return Product(tuple(parse_symbol(f) for f in desc["factors"]))
    except KeyError as exc:
        raise ConfigError(f"symbol descriptor missing field {exc}") from None
    raise ConfigError(f"unknown symbol kind {kind!r}")


def parse_space(desc: dict):
    t = desc.get("type")
    if t == "projective":
        return ProjectiveSpace(int(desc["n"]), int(desc["m"]))
    if t == "ball":
        return BallSpace(int(desc["n"]), float(desc["lambda"]),
                         int(desc["cap"]))
    raise ConfigError(f"unknown space type {t!r}")


def load_config(path: str, args) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    space = parse_space(cfg["space"])
    k = Partition(tuple(cfg["partition"]))
    if k.n != space.n:
        raise ConfigError(f"partition {k.parts} does not sum to n={space.n}")
    symbols = [parse_symbol(d) for d in cfg.get("symbols", [])]
    qcfg = dict(cfg.get("quadrature", {}))
    if args.quad_order is not None:
        qcfg["order"] = args.quad_order
    if args.seed is not None:
        qcfg["seed"] = args.seed
    spec = QuadratureSpec(
        method=qcfg.get("method", "gauss-jacobi-tensor"),
        order=int(qcfg.get("order", 40)),
        seed=int(qcfg.get("seed", 0)),
    )
    ocfg = dict(cfg.get("oracle", {}))
    if args.mc_samples is not None:
        ocfg["samples"] = args.mc_samples
    return {"space": space, "partition": k, "symbols": symbols,
            "quadrature": spec, "oracle": ocfg, "raw": cfg}


def _probe_points(n: int) -> np.ndarray:
    """A fixed low-discrepancy set of 1000 points in C^n: the generalized
    golden-ratio (Kronecker) sequence in [0, 1)^(2n) sets each coordinate's
    modulus, log-uniform on [1e-3, 1e3], and its phase."""
    phi = 2.0
    for _ in range(60):  # phi^(2n+1) = phi + 1
        phi = (1.0 + phi) ** (1.0 / (2 * n + 1))
    steps = phi ** -np.arange(1.0, 2 * n + 1)
    u = (0.5 + np.arange(1, 1001)[:, None] * steps) % 1.0
    return 10.0 ** (6.0 * u[:, :n] - 3.0) * np.exp(2j * np.pi * u[:, n:])


def domain_precheck(symbols, k: Partition) -> None:
    """Probe symbol expressions on 1000 fixed chart points and flag
    evaluation failures (division by zero, log out of domain)."""
    Z = _probe_points(k.n)
    for s in symbols:
        try:
            # a non-finite probe value is reported below in one line, not
            # as NumPy's warnings
            with np.errstate(all="ignore"):
                vals = evaluate_symbol_batch(s, Z, k)
            if not np.all(np.isfinite(vals)):
                print("warning: symbol evaluates non-finite on probe points",
                      file=sys.stderr)
        except EvalError as exc:
            print(f"warning: symbol domain pre-check failed: {exc}",
                  file=sys.stderr)


def meta_block(cfg, extra=None) -> dict:
    spec = cfg["quadrature"]
    meta = {
        "version": __version__,
        "basis_order": "graded-lexicographic",
        "config": cfg["raw"],
        "quadrature": {"method": spec.method, "order": spec.order,
                       "seed": spec.seed},
    }
    if extra:
        meta.update(extra)
    return meta


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
    try:
        if args.format == "json":
            doc = {"meta": meta_block(cfg, extra_meta),
                   "columns": columns,
                   "rows": rows}
            json.dump(doc, fh, sort_keys=True)
            fh.write("\n")
        else:
            meta = meta_block(cfg, extra_meta)
            fh.write(f"# bergtoep {meta['version']}\n")
            fh.write(f"# basis-order {meta['basis_order']}\n")
            fh.write("# config " + json.dumps(meta["config"], sort_keys=True)
                     + "\n")
            if extra_meta:
                for key in sorted(extra_meta):
                    fh.write(f"# {key} {json.dumps(extra_meta[key])}\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(str(x) for x in row) + "\n")
    finally:
        if close:
            fh.close()


def _combined_symbol(cfg):
    symbols = cfg["symbols"]
    if not symbols:
        raise ConfigError("config lists no symbols")
    return symbols[0] if len(symbols) == 1 else Product(tuple(symbols))


def cmd_gamma(args, cfg) -> None:
    psi = _combined_symbol(cfg)
    table = operators.product_table([psi], cfg["space"], cfg["partition"],
                                    cfg["quadrature"])
    rows = []
    for alpha in operators.space_basis(cfg["space"]):
        g = table.entries[alpha]
        rows.append([" ".join(str(a) for a in alpha), repr(g.real),
                     repr(g.imag)])
    write_rows(args, cfg, rows, ["alpha", "re", "im"],
               {"theorem": table.annotation,
                "shift": list(table.shift)})


def cmd_operator(args, cfg) -> None:
    psi = _combined_symbol(cfg)
    table = operators.product_table([psi], cfg["space"], cfg["partition"],
                                    cfg["quadrature"])
    mat = operators.assemble(table)
    if args.format == "json":
        entries = [[int(r), int(c), float(v.real), float(v.imag)]
                   for r, c, v in zip(*mat.entries())]
        doc = {"meta": meta_block(cfg, {"dim": mat.dim,
                                        "shift": list(mat.shift)}),
               "entries": entries}
        fh, close = _open_out(args)
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
        if close:
            fh.close()
    else:
        fh, close = _open_out(args)
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
    symbols = cfg["symbols"]
    if not symbols:
        raise ConfigError("fusion needs symbols")
    a = None
    factors = list(symbols)
    if isinstance(factors[0], QuasiRadial):
        a = factors.pop(0)
    defect, scale = operators.fusion_defect(a, factors, cfg["space"],
                                            cfg["partition"],
                                            cfg["quadrature"])
    if scale == 0:
        verdict = "DEGENERATE"
    elif defect / scale <= 1e-10:
        verdict = "EQUAL"
    else:
        verdict = "UNEQUAL"
    write_rows(args, cfg, [[repr(defect), repr(scale), verdict]],
               ["defect", "scale", "verdict"])


def cmd_oracle_compare(args, cfg) -> None:
    space = cfg["space"]
    if not isinstance(space, ProjectiveSpace):
        raise ConfigError("oracle-compare covers the projective space")
    psi = _combined_symbol(cfg)
    k = cfg["partition"]
    table = operators.product_table([psi], space, k, cfg["quadrature"])
    ocfg = cfg["oracle"]
    method = ocfg.get("method", "polar-grid")
    # one memo: every alpha of the table shares the oracle's rules and draws
    kwargs = {"memo": {}}
    if method == "monte-carlo":
        kwargs["samples"] = int(ocfg.get("samples", oracle.DEFAULT_SAMPLES))
        kwargs["seed"] = int(ocfg.get("seed", cfg["quadrature"].seed))
    else:
        kwargs["q_r"] = kwargs["q_theta"] = int(
            ocfg.get("grid", oracle.DEFAULT_GRID))
    rows = []
    for alpha in operators.space_basis(space):
        g = table.entries[alpha]
        beta = tuple(a + q for a, q in zip(alpha, table.shift))
        if any(b < 0 for b in beta):
            continue
        res = oracle.gamma_from_oracle(psi, alpha, table.shift, space.m,
                                       space.n, k, method, **kwargs)
        rows.append([" ".join(str(a) for a in alpha), repr(g.real),
                     repr(res.value.real), repr(abs(g - res.value)),
                     repr(res.stderr)])
    write_rows(args, cfg, rows,
               ["alpha", "gamma_formula", "gamma_oracle", "abs_diff",
                "stderr"])


def cmd_geometry(args, cfg) -> None:
    k = cfg["partition"]
    gcfg = cfg["raw"].get("geometry", {})
    check = gcfg.get("check", "invariance")
    trials = int(gcfg.get("trials", 1000))
    seed = int(gcfg.get("seed", cfg["quadrature"].seed))
    rows = []
    for i, s in enumerate(cfg["symbols"]):
        if check == "factorization":
            dev = factorization_check(s, k, pairs=trials, seed=seed)
            rows.append([i, "factorization", repr(dev)])
        else:
            action = gcfg.get("action", "full-torus")
            dev = invariance_check(s, k, action, trials=trials, seed=seed)
            rows.append([i, action, repr(dev)])
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
