"""Run one spatial-firewalls CLI command in this (fresh) interpreter.

Usage: python3 harness.py RECORD_JSON TRACE CLI_ARGS...

Writes RECORD_JSON with the exit status, the CLOCK_MONOTONIC time of the
first layer call (entry to `cli.run`, after the spec is assembled) and of the
end of `cli.main`, the CPU seconds between the two, children included, and
the peak RSS.
With TRACE = 1 it also records the spans of every call between layers. The
exit status is the command's.
"""
import json
import resource
import sys
import time


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)  # reaped pool workers
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak RSS of this process or any pool worker it reaped.

    VmHWM counts this process since its exec. ru_maxrss of RUSAGE_SELF would
    also count the parent that spawned it, as it was just before the exec.
    """
    own = None
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1])
    except OSError:
        pass
    if own is None:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def main() -> int:
    record_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]

    from spatial_firewalls import cli

    marks = {}
    dispatch = cli.run

    def first_layer_call(*args, **kwargs):
        if "t_first" not in marks:
            marks["t_first"] = time.monotonic()
            marks["cpu_first"] = _cpu_seconds()
        return dispatch(*args, **kwargs)

    cli.run = first_layer_call
    entry = cli.main
    tracer = None
    if trace:
        from tracer import Tracer, instrument
        tracer = Tracer()
        instrument(tracer)
        entry = tracer.wrap(cli.main, "cli.main")

    rc = entry(argv)
    t_end = time.monotonic()
    cpu_end = _cpu_seconds()
    record = {"rc": rc, "t_first": marks.get("t_first"), "t_end": t_end,
              "cpu_s": cpu_end - marks["cpu_first"] if marks else None,
              "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        record["trace"] = tracer.dump()
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
