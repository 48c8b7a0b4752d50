"""One fresh interpreter: time `import uclt`, then optionally one `uclt` command.

    python3 bench/child.py RESULT.json [--trace] [-- UCLT ARGS...]

Without UCLT ARGS it only imports.  The result file receives the import
time, the number of modules the import loaded and, for a command, its exit
code, wall and CPU time of the `uclt.cli.main` call, the peak resident set
of this process and, with --trace, the per-layer metrics.
"""
import json
import resource
import sys
import time


def main() -> None:
    result_path, rest = sys.argv[1], sys.argv[2:]
    traced = bool(rest) and rest[0] == "--trace"
    if traced:
        rest = rest[1:]
    command = rest[1:] if rest and rest[0] == "--" else []

    before = len(sys.modules)
    t0 = time.perf_counter()
    import uclt
    import uclt.cli
    import_s = time.perf_counter() - t0
    out = {"import_s": import_s, "modules_loaded": len(sys.modules) - before,
           "uclt_file": uclt.__file__}

    if command:
        tracer = None
        if traced:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        w0, c0 = time.perf_counter(), time.process_time()
        code = uclt.cli.main(command)
        out["wall_s"] = time.perf_counter() - w0
        out["cpu_s"] = time.process_time() - c0
        out["exit_code"] = code
        # ru_maxrss is in KiB on Linux
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if tracer is not None:
            out["layers"] = tracer.metrics()

    with open(result_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
