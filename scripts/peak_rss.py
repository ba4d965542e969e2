#!/usr/bin/env python3
"""Runs a command and fails if its peak resident set size exceeds a limit.

Usage: scripts/peak_rss.py LIMIT_MB COMMAND [ARGS...]

The command's stdout is discarded; its stderr passes through. Peak RSS is
the child's ru_maxrss as reported by os.wait4. Prints one line
"peak_rss: <MB> MB (limit <LIMIT_MB> MB): <command>" and exits 1 when the
limit is exceeded, with the command's own status when it fails, and 0
otherwise.
"""

import os
import sys


def main(argv):
    if len(argv) < 3:
        sys.stderr.write(__doc__)
        return 2
    limit_mb = float(argv[1])
    command = argv[2:]
    pid = os.fork()
    if pid == 0:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        try:
            os.execvp(command[0], command)
        except OSError as err:
            sys.stderr.write(f"peak_rss: cannot run {command[0]}: {err}\n")
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    peak_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    print(f"peak_rss: {peak_mb:.1f} MB (limit {limit_mb:g} MB): "
          f"{' '.join(command)}")
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.stderr.write(f"peak_rss: command exited with status {code}\n")
        return code if code > 0 else 1
    if peak_mb > limit_mb:
        sys.stderr.write(f"peak_rss: {peak_mb:.1f} MB exceeds the "
                         f"{limit_mb:g} MB limit\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
