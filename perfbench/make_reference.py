#!/usr/bin/env python3
"""Store the CSVs of every workload as the reference for given seeds.

    python3 perfbench/make_reference.py 212 1017

Each workload runs once per seed at its own replicate count; its CSVs
must first agree with the independent reference of ``reference.py``.
They are written gzipped to ``reference/seed<S>_r<R>/<workload>/``.
"""

from __future__ import annotations

import gzip
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from reference import EXPECTED, STORED, mismatched_rows  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(seeds) -> int:
    tmp_root = HERE.parent / ".perfbench"
    tmp_root.mkdir(exist_ok=True)
    for seed in seeds:
        for name, workload in WORKLOADS.items():
            cfg = workload.resolved(seed)
            out = Path(tempfile.mkdtemp(prefix="reference-", dir=tmp_root))
            try:
                subprocess.run([sys.executable, str(HERE / "job.py"),
                                "--workload", name, "--seed", str(seed),
                                "--out", str(out),
                                "--spawned-at", repr(time.time())],
                               check=True, stdout=subprocess.DEVNULL)
                expected = EXPECTED[workload.command](cfg)
                dest = STORED / f"seed{seed}_r{cfg['replicates']}" / name
                dest.mkdir(parents=True, exist_ok=True)
                for csv, rows in expected.items():
                    data = (out / csv).read_bytes()
                    bad = mismatched_rows(data.decode("utf-8"), rows)
                    if bad:
                        print(f"{name} seed {seed}: {csv} has {bad} rows "
                              "that disagree with the reference",
                              file=sys.stderr)
                        return 1
                    (dest / f"{csv}.gz").write_bytes(
                        gzip.compress(data, mtime=0))
                print(f"stored {dest}")
            finally:
                shutil.rmtree(out, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
