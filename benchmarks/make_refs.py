"""Regenerate benchmarks/refs.json from the package under src/.

    python3 benchmarks/make_refs.py

Runs every job of every workload once, untraced, at seed 0, and stores the
values its output check compares against: gamma and matrix entries, the
formula column of oracle comparisons and fusion verdicts.  None of these
depends on the seed.  Run it only at a commit whose values are the ones
later commits must reproduce.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True

import jobs  # noqa: E402
import run  # noqa: E402


def main() -> int:
    unique = {j["name"]: j for name in jobs.WORKLOADS
              for j in jobs.WORKLOADS[name]}
    tmp = Path(tempfile.mkdtemp(prefix=".benchtmp-", dir=run.ROOT))
    refs = {}
    try:
        env = run.child_env(run.build(tmp))
        for i, (name, j) in enumerate(sorted(unique.items())):
            res = run.run_job(j, 0, False, tmp, env, f"ref{i}",
                              run.JOB_TIMEOUT_S)
            if res["error"]:
                print(res["error"], file=sys.stderr)
                return 1
            ref = jobs.reference_of(j, res["output"])
            if ref is not None:
                refs[name] = ref
            print(f"{name}: {res['wall_s']:.2f} s", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    run.REFS.write_text(json.dumps(refs, sort_keys=True, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
