"""Cold-start attribution for the processes that serve the lock core.

For each entrypoint, in a fresh interpreter: the ``repro`` modules and
source lines it loads, and ``python -X importtime`` self time summed by
package (``repro.service``, ..., ``asyncio``, the rest of the stdlib).
Then the median spawn-to-listening time of ``repro serve --port 0`` over
7 launches, each killed after its line.  Standard library only; run from
the repository root as ``PYTHONPATH=src python tools/startup.py``.
Bytecode caching follows the environment (``PYTHONDONTWRITEBYTECODE``;
``PYTHONPYCACHEPREFIX`` keeps cached files out of the tree).
"""

import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

ENTRYPOINTS = {
    "repro.service.server": "import repro.service.server",
    "tcp-wide-c2 child": "import sys; sys.path.insert(0, 'benchmarks/suite')"
                         "\nimport tcp_server",
    "repro shard-host": "from repro.cli import build_parser; build_parser()"
                        "\nimport repro.service.sharding.procs.host",
}
LIST_MODULES = (
    "\nimport json, sys\nprint(json.dumps({m: getattr(sys.modules[m], "
    "'__file__', None) for m in sys.modules if m.split('.')[0] == 'repro'}))"
)
ENV = dict(os.environ, PYTHONPATH="src")


def group(module: str) -> str:
    """The row an ``-X importtime`` line is summed into."""
    parts = module.split(".")
    if parts[0] == "repro":
        return ".".join(parts[:2])
    return "asyncio" if parts[0] == "asyncio" else "(rest of stdlib)"


def footprint(code: str) -> None:
    """Print the modules, lines and grouped import self time of ``code``."""
    run = [sys.executable, "-X", "importtime", "-c", code + LIST_MODULES]
    out = subprocess.run(run, capture_output=True, text=True, env=ENV,
                         check=True)
    files = [f for f in json.loads(out.stdout).values() if f]
    lines = sum(sum(1 for _ in open(f, "rb")) for f in files)
    print(f"  {len(files)} repro modules, {lines} source lines")
    self_us = Counter()
    for row in out.stderr.splitlines():
        if row.startswith("import time:") and "|" in row and "self" not in row:
            us, _, name = row[len("import time:"):].split("|")
            self_us[group(name.strip())] += int(us)
    for name, us in self_us.most_common():
        print(f"  {name:<22} {us / 1000:7.1f} ms self")


def serve_ready_ms() -> float:
    """Spawn ``repro serve --port 0``; ms until its listening line."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=ENV,
    )
    child.stdout.readline()
    elapsed = (time.perf_counter() - start) * 1000
    child.kill()
    child.wait()
    return elapsed


if __name__ == "__main__":
    for title, code in ENTRYPOINTS.items():
        print(title)
        footprint(code)
    samples = [serve_ready_ms() for _ in range(7)]
    print(f"repro serve ready: median {statistics.median(samples):.0f} ms "
          f"over 7 launches ({', '.join(f'{s:.0f}' for s in samples)})")
