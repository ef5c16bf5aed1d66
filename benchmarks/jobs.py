"""Job lists of the two workloads and the check of each job's output.

A job is one bergtoep CLI invocation on one generated config.  Every
workload runs at least one job of each command that has an end-to-end
metric (gamma, operator, commutator, fusion, oracle-compare) and one of each
geometry check, so that every metric and every traced function is live on
every workload.  The jobs that carry a workload's purpose are its main jobs;
the others ("c_" jobs) are controls whose metrics should not move when the
main jobs' layer is optimised.  README.md gives the reasons.
"""

from __future__ import annotations

import math

GAMMA_RTOL = 1e-12
COMMUTATOR_CEILING = 1e-10
POLAR_ABS_DIFF = 1e-8
MC_STDERRS = 6.0  # a Monte Carlo row may miss the formula by this many stderrs
GEOMETRY_CEILING = 1e-12

GJ = "gauss-jacobi-tensor"


def proj(n, m):
    return {"type": "projective", "n": n, "m": m}


def qr(a):
    return {"kind": "quasi-radial", "a": a}


def ms(block, b, p):
    return {"kind": "multi-sphere", "block": block, "b": b, "p": list(p)}


def ss(block, b, p):
    return {"kind": "single-sphere", "block": block, "b": b, "p": list(p)}


def ext(block, b, p):
    return {"kind": "extended", "block": block, "b": b, "p": list(p)}


def job(name, command, space, partition, syms, check, **extra):
    cfg = {"space": space, "partition": list(partition), "symbols": syms,
           "quadrature": {"method": GJ, "order": 40}}
    cfg.update(extra)
    return {"name": name, "command": command, "config": cfg, "check": check}


# symbols on k = (2, 1): two commuting quasi-radials and a block-1 factor
A21 = qr("r1^2/(r1^2+r2^2+1)")
A21_2 = qr("r2^2/(1+r1^2+r2^2)")
B21 = ms(1, "s1^2 + s2", (1, -1))
# symbols on k = (2,)
A2 = qr("r1^2/(1+r1^2)")
B2 = ms(1, "s1^2", (1, -1))

TABLES = [
    job("t_multisphere_n3", "gamma", proj(3, 16), [2, 1], [A21, B21],
        "gamma"),
    job("t_multisphere_n2", "gamma", proj(2, 40), [2], [A2, B2], "gamma"),
    job("t_multisphere_n5", "gamma", proj(5, 4), [2, 2, 1],
        [qr("r1^2/(1+r1^2+r2^2+r3^2)"), ms(1, "s1^2", (1, -1))],
        "gamma"),
    job("t_quasiradial_l3", "gamma", proj(3, 7), [1, 1, 1],
        [qr("r1^2*r2/(1+r1^2+r2^2+r3^2)")], "gamma"),
    job("t_extended", "gamma", proj(3, 10), [2, 1],
        [A2, ext(1, "s1^2 + r1^2/(1+r1^2)", (1, -1))], "gamma"),
    job("t_extended_ball", "gamma",
        {"type": "ball", "n": 3, "lambda": 1.0, "cap": 10}, [2, 1],
        [A2, ext(1, "s1^2 + r1^2/(1+r1^2)", (1, -1))], "gamma"),
    job("t_single_sphere", "gamma", proj(3, 14), [2, 1],
        [ss(1, "sig1^2", (1, -1))], "gamma"),
    job("t_beta", "gamma", proj(3, 12), [3], [A2], "beta"),
    # controls
    job("c_operator", "operator", proj(3, 16), [2, 1], [A21, B21],
        "operator"),
    job("c_commutator", "commutator", proj(3, 14), [2, 1],
        [A21, A21_2, B21], "commutator"),
    job("c_fusion", "fusion", proj(3, 14), [2, 1], [A21, B21], "fusion"),
    job("c_oracle_mc", "oracle-compare", proj(2, 3), [2], [A2, B2],
        "oracle-mc", oracle={"method": "monte-carlo", "samples": 100000}),
    job("c_invariance", "geometry", proj(3, 1), [2, 1],
        [ms(1, "s1^2", (0, 0)), A21], "geometry",
        geometry={"check": "invariance", "action": "full-torus",
                  "trials": 100}),
    job("c_factorization", "geometry", proj(3, 1), [2, 1],
        [qr("r1^2/(r1^2 + r2^2)")], "geometry",
        geometry={"check": "factorization", "trials": 100}),
]

ALGEBRA_SPACE = proj(3, 16)
VERIFY = [
    job("v_commutator", "commutator", ALGEBRA_SPACE, [2, 1],
        [A21, A21_2, B21], "commutator"),
    job("v_fusion_equal", "fusion", ALGEBRA_SPACE, [2, 1], [A21, B21],
        "fusion"),
    job("v_fusion_witness", "fusion", ALGEBRA_SPACE, [2, 1],
        [qr("r1^2/(r1^2 + r2^2)"), ss(1, "sig1^2", (1, -1))], "fusion"),
    job("v_operator", "operator", proj(3, 20), [2, 1], [A21, B21],
        "operator"),
    job("v_oracle_polar", "oracle-compare", proj(2, 2), [2], [A2, B2],
        "oracle-polar", oracle={"method": "polar-grid", "grid": 40}),
    job("v_oracle_mc", "oracle-compare", proj(3, 3), [2, 1],
        [ss(1, "sig1^2", (1, -1))], "oracle-mc",
        oracle={"method": "monte-carlo", "samples": 100000}),
    job("v_invariance", "geometry", proj(3, 2), [2, 1],
        [ms(1, "s1^2", (0, 0)), A21, qr("r2^2/(1+r2^2)")], "geometry",
        geometry={"check": "invariance", "action": "full-torus",
                  "trials": 500}),
    job("v_factorization", "geometry", proj(3, 2), [2, 1],
        [qr("r1^2/(r1^2 + r2^2)"), A21], "geometry",
        geometry={"check": "factorization", "trials": 500}),
    # control
    job("c_gamma", "gamma", proj(3, 20), [2, 1], [A21, B21], "gamma"),
]

WORKLOADS = {"tables": TABLES, "verify": VERIFY}


def config_for(j, seed: int) -> dict:
    """The job's config with the workload seed as every seed it uses."""
    cfg = {key: (dict(val) if isinstance(val, dict) else val)
           for key, val in j["config"].items()}
    cfg["quadrature"]["seed"] = seed
    for section in ("oracle", "geometry"):
        if section in cfg:
            cfg[section]["seed"] = seed
    return cfg


# ----------------------------------------------------------------- parsing

def parse_csv(text: str):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("no header line")
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def parse_operator(text: str) -> dict:
    entries = {}
    for ln in text.splitlines():
        if ln.startswith("#") or not ln:
            continue
        r, c, re_, im_ = ln.split()
        entries[f"{r} {c}"] = [float(re_), float(im_)]
    return entries


def reference_of(j, text: str):
    """The values of an output that later commits must reproduce."""
    check = j["check"]
    if check in ("gamma", "beta"):
        _, rows = parse_csv(text)
        return {r[0]: [float(r[1]), float(r[2])] for r in rows}
    if check == "operator":
        return parse_operator(text)
    if check == "fusion":
        _, rows = parse_csv(text)
        return {"verdict": rows[0][2]}
    if check in ("oracle-polar", "oracle-mc"):
        _, rows = parse_csv(text)
        return {r[0]: [float(r[1]), 0.0] for r in rows}
    return None


# ----------------------------------------------------------------- checking

def _compare(got: dict, ref: dict, what: str) -> list[str]:
    """Entrywise relative agreement to GAMMA_RTOL; an entry absent on one
    side reads as zero, and a zero reference entry must stay within
    GAMMA_RTOL of the largest entry."""
    if not ref:
        return [f"{what}: empty reference"]
    floor = GAMMA_RTOL * max(math.hypot(*v) for v in ref.values())
    errors = []
    for key in ref.keys() | got.keys():
        r = ref.get(key, (0.0, 0.0))
        g = got.get(key, (0.0, 0.0))
        diff = math.hypot(g[0] - r[0], g[1] - r[1])
        if not diff <= max(GAMMA_RTOL * math.hypot(*r), floor):
            errors.append(f"{what} {key}: got {g}, reference {r}")
    return errors[:5]


def check_output(j, text: str, ref) -> list[str]:
    """Return the reasons the job's output is wrong (empty when right)."""
    check = j["check"]
    try:
        if check in ("gamma", "beta", "operator", "oracle-polar",
                     "oracle-mc"):
            got = reference_of(j, text)
            errors = _compare(got, ref, j["name"])
            if check == "beta":
                errors += _check_beta(j, got)
            if check.startswith("oracle"):
                errors += _check_oracle(j, text)
            return errors
        header, rows = parse_csv(text)
        if check == "commutator":
            value = float(rows[0][0])
            return [] if value <= COMMUTATOR_CEILING else [
                f"{j['name']}: commutator {value} above {COMMUTATOR_CEILING}"]
        if check == "fusion":
            verdict = rows[0][2]
            return [] if verdict == ref["verdict"] else [
                f"{j['name']}: verdict {verdict}, expected {ref['verdict']}"]
        if check == "geometry":
            n_symbols = len(j["config"]["symbols"])
            bad = [r for r in rows if not float(r[2]) <= GEOMETRY_CEILING]
            if len(rows) != n_symbols or bad:
                return [f"{j['name']}: deviations {rows}"]
            return []
    except (ValueError, IndexError, KeyError, TypeError) as exc:
        return [f"{j['name']}: unreadable output ({exc!r})"]
    return [f"{j['name']}: unknown check {check!r}"]


def _check_beta(j, got) -> list[str]:
    """gamma = (n+|alpha|)/(n+m+1) for a = r^2/(1+r^2) on one block."""
    n, m = j["config"]["space"]["n"], j["config"]["space"]["m"]
    errors = []
    for key, (re_, im_) in got.items():
        exact = (n + sum(int(a) for a in key.split())) / (n + m + 1)
        if not abs(complex(re_, im_) - exact) <= GAMMA_RTOL * exact:
            errors.append(f"{j['name']} {key}: {re_} vs closed form {exact}")
    return errors[:5] + ([] if len(got) == math.comb(n + m, n) else
                         [f"{j['name']}: {len(got)} rows"])


def _check_oracle(j, text: str) -> list[str]:
    _, rows = parse_csv(text)
    if not rows:
        return [f"{j['name']}: no rows"]
    errors = []
    for alpha, formula, value, abs_diff, stderr in rows:
        if j["check"] == "oracle-polar":
            ok = float(abs_diff) <= POLAR_ABS_DIFF
        else:
            ok = (abs(float(formula) - float(value))
                  <= MC_STDERRS * float(stderr))
        if not ok:
            errors.append(f"{j['name']} {alpha}: formula {formula}, oracle "
                          f"{value}, abs_diff {abs_diff}, stderr {stderr}")
    return errors[:5]
