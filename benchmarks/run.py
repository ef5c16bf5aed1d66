"""bergtoep benchmark: fresh-process CLI jobs, checked, timed and traced.

    python3 benchmarks/run.py --workload tables --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The package under `src/` is copied
into a temporary directory inside the checkout and byte-compiled there; each
job then runs `bergtoep.cli.main` in a fresh interpreter (benchmarks/child.py)
on a config generated from the seed, one job at a time, exactly as a user
starts one CLI command per question.  Passes over the workload's job list
repeat until --seconds would be exceeded.  Every output is checked against
benchmarks/refs.json and the checks in jobs.py.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 untraced and traced passes alternate and it reports the per-layer
metrics of the traced passes and the tracing overhead.  The line before it
records the machine, the thread setting and per-job times.  The run leaves
the checkout as it found it.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True

import jobs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs.json"
BLAS_THREADS = 1  # fixed; never more than nproc
JOB_TIMEOUT_S = 60.0
HARD_LIMIT_S = 150.0  # no job starts or runs past this point of a run

COMMAND_METRICS = {"gamma": "gamma_s", "operator": "operator_s",
                   "commutator": "commutator_s", "fusion": "fusion_s",
                   "oracle-compare": "oracle_compare_s"}
LAYERS = ("cli", "expr", "symbols", "indexing", "quadrature", "gamma",
          "operators", "oracle", "geometry")
TIMED_SPANS = (
    "quadrature.simplex_rule", "quadrature.jacobi_rule_01",
    "quadrature.simplex_integrate", "quadrature.radial_integrate_projective",
    "quadrature.mc_integrate", "gamma.build_gamma_table", "expr.evaluate",
    "symbols.evaluate_symbol_batch", "indexing.enumerate_basis",
    "indexing.monomial_norm_sq", "operators.assemble",
    "operators.export_matrix", "oracle.gamma_from_oracle",
    "geometry.invariance_check", "geometry.factorization_check",
    "cli.load_config", "cli.domain_precheck", "cli.write_rows")
CALL_COUNTS = (
    "quadrature.simplex_rule", "quadrature.jacobi_rule_01",
    "quadrature.simplex_integrate", "quadrature.radial_integrate_projective",
    "gamma.build_gamma_table", "expr.evaluate",
    "symbols.evaluate_symbol_batch", "indexing.monomial_norm_sq",
    "operators.assemble", "oracle.gamma_from_oracle")
SELF_TIMES = ("gamma.build_gamma_table", "operators.commutation_suite",
              "operators.fusion_defect")
COUNTS = {
    "quadrature.simplex_rule.builds": "count",
    "quadrature.simplex_rule.nodes": "count",
    "quadrature.mc_integrate.samples": "count",
    "gamma.build_gamma_table.entries": "count",
    "gamma.hard_zeros": "count",
    "expr.evaluate.points": "count",
    "symbols.evaluate_symbol_batch.points": "count",
    "operators.assemble.bytes": "bytes",
    "operators.matmul.flops": "flop",
    "oracle.gamma_from_oracle.points": "count",
    "geometry.invariance_check.trials": "count",
    "geometry.factorization_check.trials": "count",
}


class SetupError(RuntimeError):
    pass


def machine() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": importlib.metadata.version("scipy"),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS}


def build(tmp: Path) -> Path:
    """Copy the package out of src/ and byte-compile the copy."""
    src = ROOT / "src" / "bergtoep"
    if not (src / "__init__.py").is_file():
        raise SetupError(f"no bergtoep package under {ROOT / 'src'}")
    site = tmp / "site"
    shutil.copytree(src, site / "bergtoep",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if not compileall.compile_dir(site, quiet=1):
        raise SetupError("bergtoep does not byte-compile")
    return site


def child_env(site: Path) -> dict:
    env = dict(os.environ)
    env.update({"PYTHONPATH": str(site), "PYTHONDONTWRITEBYTECODE": "1"})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_job(j, seed: int, trace: bool, tmp: Path, env: dict, tag: str,
            timeout: float) -> dict:
    """Run one job in its own process; return its times, record and output."""
    cfg_path = tmp / f"{tag}.json"
    out_path = tmp / f"{tag}.out"
    rec_path = tmp / f"{tag}.rec"
    cfg_path.write_text(json.dumps(jobs.config_for(j, seed)))
    argv = [sys.executable, str(HERE / "child.py"), str(rec_path), tag,
            "1" if trace else "0", "--", j["command"], "--config",
            str(cfg_path), "--out", str(out_path)]
    res = {"job": j, "name": j["name"], "command": j["command"],
           "error": None}
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        res["error"] = f"{j['name']}: timed out after {timeout:.0f} s"
        return res
    res["wall_s"] = time.monotonic() - t0
    if proc.returncode != 0:
        res["error"] = (f"{j['name']}: exit code {proc.returncode}: "
                        f"{err.strip()[-300:]}")
        return res
    try:
        rec = json.loads(rec_path.read_text())
        res["output"] = out_path.read_text()
    except (OSError, ValueError) as exc:
        res["error"] = f"{j['name']}: no record or output ({exc})"
        return res
    site = Path(env["PYTHONPATH"]).resolve()
    if not Path(rec["bergtoep_file"]).resolve().is_relative_to(site):
        res["error"] = f"{j['name']}: imported {rec['bergtoep_file']}"
        return res
    res["setup_s"] = rec["setup_end"] - t0
    res["maxrss_mb"] = rec["maxrss_kb"] / 1024.0
    res["out_bytes"] = len(res["output"].encode())
    res["record"] = rec
    for path in (cfg_path, out_path, rec_path):
        path.unlink()
    return res


def run_pass(job_list, seed, trace, tmp, env, index, hard_deadline):
    results = []
    t0 = time.monotonic()
    for i, j in enumerate(job_list):
        left = hard_deadline - time.monotonic()
        if left <= 0:
            break
        results.append(run_job(j, seed, trace, tmp, env, f"p{index}j{i}",
                               min(JOB_TIMEOUT_S, left)))
    return {"pass_s": time.monotonic() - t0, "trace": trace,
            "jobs": results, "complete": len(results) == len(job_list)}


def check_pass(p, refs) -> None:
    for r in p["jobs"]:
        if r["error"] is None:
            j = r["job"]
            errors = jobs.check_output(j, r.pop("output"), refs.get(j["name"]))
            if errors:
                r["error"] = "; ".join(errors)


def end_to_end(passes) -> dict:
    ok = [p for p in passes if p["complete"]]
    if not ok:
        return {}
    setups = [r["setup_s"] for p in ok for r in p["jobs"] if "setup_s" in r]
    values = {"setup_s": (statistics.median(setups), "s"),
              "pass_s": (statistics.median(p["pass_s"] for p in ok), "s"),
              "peak_rss_mb": (statistics.median(
                  max(r.get("maxrss_mb", 0.0) for r in p["jobs"])
                  for p in ok), "MB")}
    for command, metric in COMMAND_METRICS.items():
        values[metric] = (statistics.median(
            sum(r.get("wall_s", 0.0) for r in p["jobs"]
                if r["command"] == command) for p in ok), "s")
    return values


def _span_stats(records):
    """Inclusive time, self time and calls per span name, self time per
    layer, over the jobs of one pass."""
    incl, self_s, calls = defaultdict(float), defaultdict(float), \
        defaultdict(int)
    layer_self, root = defaultdict(float), 0.0
    for rec in records:
        spans = rec["spans"]
        child_time = [0.0] * len(spans)
        for sid, parent, name, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for sid, parent, name, start, end in spans:
            dur = end - start
            own = dur - child_time[sid]
            self_s[name] += own
            layer_self[name.split(".")[0]] += own
            if parent < 0:
                root += dur
            # a name's inclusive time counts its outermost spans only
            p = parent
            while p >= 0 and spans[p][2] != name:
                p = spans[p][1]
            if p < 0:
                incl[name] += dur
                calls[name] += 1
    return incl, self_s, calls, layer_self, root


def per_layer(passes) -> dict:
    traced = [p for p in passes if p["trace"] and p["complete"]]
    plain = [p for p in passes if not p["trace"] and p["complete"]]
    if not traced or not plain:
        return {}
    samples = defaultdict(list)
    for p in traced:
        records = [r["record"] for r in p["jobs"] if "record" in r]
        incl, self_s, calls, layer_self, root = _span_stats(records)
        counts = defaultdict(float)
        for rec in records:
            for key, val in rec["counts"].items():
                counts[key] += val
        m = samples
        for name in TIMED_SPANS:
            m[f"{name}.s"].append((incl[name], "s"))
        for name in CALL_COUNTS:
            m[f"{name}.calls"].append((calls[name], "count"))
        for name in SELF_TIMES:
            m[f"{name}.self_s"].append((self_s[name], "s"))
        for key, unit in COUNTS.items():
            m[key].append((counts[key], unit))
        m["gamma.entries_per_s"].append(
            (counts["gamma.build_gamma_table.entries"]
             / incl["gamma.build_gamma_table"], "1/s"))
        m["cli.out_bytes"].append(
            (sum(r.get("out_bytes", 0) for r in p["jobs"]), "bytes"))
        m["bergtoep.import.s"].append(
            (sum(rec["import_s"] for rec in records), "s"))
        for layer in LAYERS:
            m[f"{layer}.self_share"].append((layer_self[layer] / root, "share"))
    out = {name: (statistics.median(v for v, _ in vals), vals[0][1])
           for name, vals in samples.items()}
    out["trace.overhead_s"] = (
        statistics.median(p["pass_s"] for p in traced)
        - statistics.median(p["pass_s"] for p in plain), "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    hard_deadline = started + HARD_LIMIT_S
    job_list = jobs.WORKLOADS[args.workload]
    tmp = Path(tempfile.mkdtemp(prefix=".benchtmp-", dir=ROOT))
    try:
        try:
            refs = json.loads(REFS.read_text())
            site = build(tmp)
        except (OSError, ValueError, SetupError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        env = child_env(site)
        # warm the page cache and the interpreter's own byte-code caches
        subprocess.run([sys.executable, "-c", "import bergtoep.cli"],
                       cwd=tmp, env=env, check=True, timeout=JOB_TIMEOUT_S)
        setup_done = time.monotonic()

        passes = []
        while True:
            trace = bool(args.trace) and len(passes) % 2 == 1
            p = run_pass(job_list, args.seed, trace, tmp, env, len(passes),
                         hard_deadline)
            check_pass(p, refs)
            passes.append(p)
            if not p["complete"]:
                break
            elapsed = time.monotonic() - setup_done
            longest = max(q["pass_s"] for q in passes)
            if args.trace and not any(q["trace"] for q in passes):
                continue
            if elapsed + longest > args.seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    results = [r for p in passes for r in p["jobs"]]
    failures = [r["error"] for r in results if r["error"] is not None]
    for msg in failures[:20]:
        print(f"failed: {msg}", file=sys.stderr)
    values = per_layer(passes) if args.trace else end_to_end(
        [p for p in passes if not p["trace"]])
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine(),
        "passes": [{"pass_s": round(p["pass_s"], 4), "trace": p["trace"],
                    "job_wall_s": [round(r.get("wall_s", -1.0), 4)
                                   for r in p["jobs"]],
                    "job_setup_s": [round(r.get("setup_s", -1.0), 4)
                                    for r in p["jobs"]]}
                   for p in passes],
        "fail_frac": len(failures) / max(len(results), 1),
        "jobs": [j["name"] for j in job_list],
        "setup_and_build_s": round(setup_done - started, 3),
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failures and bool(values),
        "attempted": max(len(results), 1),
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": unit}
                    for name, (v, unit) in sorted(values.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
