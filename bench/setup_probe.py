"""One set-up sample: start Python, import ``diagramalg.cli``, run a no-work command.

    PYTHONPATH=src python3 bench/setup_probe.py ARG...

Runs ``diagramalg.cli.main([ARG...])`` as ``python -m diagramalg.cli ARG...``
would and passes its stdout and exit code through.  Then it times the
benchmark's reference work five times and writes one JSON object to
stderr: the five reference times, and ``tail_s``, the time from the end of the
command to the end of the reference work, which the caller subtracts from
the process's wall time.
"""
import sys
import time

from diagramalg import cli

rc = cli.main(sys.argv[1:])
sys.stdout.flush()
tail_start = time.perf_counter()

import json  # noqa: E402  (after the measured part on purpose)

from inproc import reference_work  # noqa: E402

reference = [reference_work() for _ in range(5)]
sys.stderr.write(json.dumps({"reference_s": reference,
                             "tail_s": time.perf_counter() - tail_start}) + "\n")
sys.exit(rc)
