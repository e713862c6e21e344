"""Fresh-interpreter probe started by run.py.

    python3 bench/probe.py setup '<config json>'
        imports macdet.cli and parses the figure config, nothing else
    python3 bench/probe.py run '<config json>'
        also runs the preset and prints, as one JSON line, the exit code,
        the sha256 of the CSV output and this process's peak RSS in KiB
"""

import hashlib
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from macdet import cli  # noqa: E402

mode, raw = sys.argv[1], json.loads(sys.argv[2])
cfg = cli.parse_config(raw, "figure")
if mode == "run":
    rows, code = cli.run(cfg)
    text = cli.rows_to_csv(rows)
    print(
        json.dumps(
            {
                "code": code,
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
                "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            }
        )
    )
