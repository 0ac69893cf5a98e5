"""One alphaenergy command, with the memory it adds above its set-up.

Used by the untimed memory pass of ``cli`` runs:

    python perfbench/mem_child.py <alphaenergy arguments>

It imports ``alphaenergy.cli``, reads the process's resident memory
(VmRSS), runs ``alphaenergy.cli.main`` and writes one line
``PERFBENCH_RSS <VmRSS after import> <VmHWM at the end>`` (kB) to stderr.
Both come from ``/proc/self/status`` and belong to this process alone; the
``ru_maxrss`` that ``wait4`` reports for a child is at least its parent's
peak at spawn time, so it cannot be used.  An exception still ends in a
traceback and exit code 1, as under ``python -m``.
"""

import sys

MARK = "PERFBENCH_RSS "


def status_kb(field: str) -> int:
    """A field of /proc/self/status in kB, such as VmRSS or VmHWM."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"no {field} in /proc/self/status")


if __name__ == "__main__":
    from alphaenergy import cli

    setup_kb = status_kb("VmRSS")
    try:
        code = cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        sys.stderr.write(f"{MARK}{setup_kb} {status_kb('VmHWM')}\n")
    sys.exit(code)
