"""Run one bergtoep CLI job in this fresh process and record what it cost.

Usage: python3 child.py RECORD JOB_ID TRACE -- CLI_ARGS...

The package is imported exactly as the console script imports it, then
`cli.main(CLI_ARGS)` runs.  The JSON written to RECORD holds the exit code,
the monotonic-clock time at which set-up ended (after `cli.domain_precheck`
returned, just before the command body), the peak RSS of this process, and,
when TRACE is 1, the spans and counts of the traced layers.
"""

import json
import resource
import sys
import time

sys.dont_write_bytecode = True


def main(argv):
    record_path, job_id, trace = argv[0], argv[1], argv[2] == "1"
    cli_args = argv[argv.index("--") + 1:]
    t_import = time.perf_counter()
    from bergtoep import cli
    import_s = time.perf_counter() - t_import

    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    # wraps the traced `cli.domain_precheck`, if any, so that the set-up
    # stamp is taken outside its span
    stamps = {}
    precheck = cli.domain_precheck

    def domain_precheck(*args, **kwargs):
        try:
            return precheck(*args, **kwargs)
        finally:
            stamps["setup_end"] = time.monotonic()

    cli.domain_precheck = domain_precheck

    try:
        rc = tracer.run_main(cli.main, cli_args) if tracer else cli.main(cli_args)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    stamps["cmd_end"] = time.monotonic()
    rec = {
        "job": job_id,
        "rc": rc,
        "setup_end": stamps.get("setup_end"),
        "cmd_end": stamps["cmd_end"],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "bergtoep_file": cli.__file__,
        "import_s": import_s,
    }
    if tracer:
        rec.update(tracer.dump(job_id))
    with open(record_path, "w") as fh:
        json.dump(rec, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
