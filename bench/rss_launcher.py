"""Run one command and report the peak RSS of that command alone.

    python3 -I -S bench/rss_launcher.py OUT_FILE PROGRAM ARG...

On Linux a child's ru_maxrss also counts the memory of the process that
spawned it, and the benchmark process is about as large as a short pathcast
command.  So commands whose memory is measured are spawned through this
small launcher.  It writes the command's peak RSS in KiB to OUT_FILE and
exits with the command's exit code.
"""

import os
import sys

out, cmd = sys.argv[1], sys.argv[2:]
pid = os.posix_spawn(cmd[0], cmd, os.environ)
_, status, usage = os.wait4(pid, 0)
with open(out, "w", encoding="utf-8") as f:
    f.write(str(usage.ru_maxrss))
sys.exit(os.waitstatus_to_exitcode(status))
