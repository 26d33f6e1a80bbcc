"""Run ``meanforge`` once, traced or under cProfile.

Usage: ``python3 perfbench/cli_child.py ARGS...`` with ``PYTHONPATH`` naming
the program's ``src``.  With ``PERFBENCH_TRACE_OUT`` set, the boundary
functions are traced and one JSON line of span totals, with the wall time
of ``main``, is appended to that file; with ``PERFBENCH_PROFILE_OUT`` set, import and command run under
cProfile and the stats are written into that directory.  Standard output and
the exit code are those of the ``meanforge`` command.
"""

import cProfile
import json
import os
import sys
import time

import spans


def traced(argv, out_file):
    from meanforge.cli import main

    recorder = spans.Recorder()
    recorder.install()
    recorder.op_id = 0
    t0 = time.perf_counter_ns()
    try:
        return main(argv)
    finally:
        main_ns = time.perf_counter_ns() - t0
        recorder.restore()
        with open(out_file, "a", encoding="utf-8") as out:
            out.write(json.dumps(dict(recorder.summary(), main_ns=main_ns)) + "\n")


def profiled(argv, out_dir):
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        from meanforge.cli import main

        return main(argv)
    finally:
        profiler.disable()
        profiler.dump_stats(os.path.join(out_dir, f"{os.getpid()}.prof"))


if __name__ == "__main__":
    if "PERFBENCH_TRACE_OUT" in os.environ:
        sys.exit(traced(sys.argv[1:], os.environ["PERFBENCH_TRACE_OUT"]))
    sys.exit(profiled(sys.argv[1:], os.environ["PERFBENCH_PROFILE_OUT"]))
