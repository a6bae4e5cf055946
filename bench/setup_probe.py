"""Fresh-process set-up probe: what every ``qpurify`` command pays first.

Run as ``python3 bench/setup_probe.py <qpurify argv...>`` with ``src`` on
``PYTHONPATH``.  It imports the CLI, parses the argv and, for a command
that takes a configuration, loads it the way the CLI does
(``cli._load_config``), then prints its own phase times as JSON.  The
caller times the whole process from outside.
"""

import sys
import time

start = time.perf_counter()
from qpurify import cli  # noqa: E402

imported = time.perf_counter()
args = cli.build_parser().parse_args(sys.argv[1:])
parsed = time.perf_counter()
if hasattr(args, "preset"):
    cli._load_config(args)
loaded = time.perf_counter()

import json  # noqa: E402

print(json.dumps({
    "import_s": imported - start,
    "parse_s": parsed - imported,
    "config_load_s": loaded - parsed,
}))
