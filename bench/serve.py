"""One benchmark server process: a workload's service behind HTTP.

Usage (``run.py`` launches it; the ``repro`` sources must be importable)::

    python3 bench/serve.py --workload scan_diag --input bench/out/scan_diag.qcs \
        [--trace-out bench/out/scan_diag.jsonl]

Prints ``{"port": N}`` once the server accepts connections, then serves
until a ``stop`` line (or end of file) arrives on standard input.  On
stop it reads the peak resident set size (``VmHWM``) of itself and every
child process (the shard workers), then their resident set (``VmRSS``)
once free heap pages are released, shuts the server and service down,
writes every recorded trace as JSONL when ``--trace-out`` is given, and
prints ``{"peak_rss_kb": N, "rss_kb": M}``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import sys
from pathlib import Path


def _status_kb(pid: int, field: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(f"{field}:"):
                return int(line.split()[1])
    return 0


def _child_pids(parent: int) -> list:
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as stat:
                # The command name may hold spaces; ppid follows its ")".
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:  # the process exited while we listed /proc
            continue
        if int(fields[1]) == parent:
            children.append(int(entry))
    return children


def memory_kb(field: str) -> int:
    """``field`` of ``/proc/<pid>/status`` summed over this process and its live children."""
    total = _status_kb(os.getpid(), field)
    for child in _child_pids(os.getpid()):
        try:
            total += _status_kb(child, field)
        except OSError:
            continue
    return total


def release_free_heap() -> None:
    """Collect garbage and hand free heap pages back to the kernel.

    Without this, ``VmRSS`` also counts pages glibc keeps after large
    temporaries are freed, which depends on allocation history.
    """
    gc.collect()
    ctypes.CDLL("libc.so.6").malloc_trim(0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--input", required=True, type=Path)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)

    from repro import Tracer
    from repro.service import RetrievalServer
    from repro.obs.export import trace_to_jsonl_lines
    from workloads import WORKLOADS, build_service

    workload = WORKLOADS[args.workload]
    # The ring must hold every request of the traced pass: dropped
    # traces would silently bias the per-layer means.
    tracer = Tracer(max_traces=1_000_000) if args.trace_out else None
    service = build_service(workload, args.input, tracer=tracer)
    server = RetrievalServer(service, host="127.0.0.1", port=0)
    _, port = server.start_in_background()
    print(json.dumps({"port": port}), flush=True)
    try:
        for line in sys.stdin:
            if line.strip() == "stop":
                break
        peak = memory_kb("VmHWM")
        release_free_heap()
        resident = memory_kb("VmRSS")
    finally:
        server.stop_background()
        service.shutdown()
    if tracer is not None:
        with open(args.trace_out, "w", encoding="utf-8") as sink:
            for trace in tracer.traces():
                for line in trace_to_jsonl_lines(trace):
                    sink.write(line + "\n")
    print(json.dumps({"peak_rss_kb": peak, "rss_kb": resident}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
