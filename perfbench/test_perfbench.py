"""The benchmark's own tests: python3 -m pytest perfbench -q

They run the benchmark at tiny replicate counts in scratch directories
under ``.perfbench/`` of the checkout.
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = "20"


@pytest.fixture
def scratch(request):
    path = ROOT / ".perfbench" / f"test-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def bench(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_emits_every_metric(workload, trace):
    code, result = bench("--workload", workload, "--seed", "3",
                         "--seconds", "0", "--trace", trace,
                         "--replicates", TINY)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_outputs_are_byte_identical(workload, scratch):
    outputs = {}
    for mode in ("plain", "traced"):
        out = scratch / mode
        cmd = [sys.executable, str(HERE / "job.py"), "--workload", workload,
               "--seed", "5", "--out", str(out), "--replicates", TINY,
               "--spawned-at", repr(time.time())]
        subprocess.run(cmd + (["--trace"] if mode == "traced" else []),
                       check=True, capture_output=True, timeout=120)
        outputs[mode] = {csv: (out / csv).read_bytes()
                         for csv in WORKLOADS[workload].outputs}
    assert outputs["plain"] == outputs["traced"]
    assert (scratch / "traced" / "spans.json").exists()


def _copy_checkout(dest, with_sources=True):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))


def test_perturbed_reference_fails(scratch):
    _copy_checkout(scratch)
    stored = (scratch / "perfbench" / "reference" / "seed212_r1000" /
              "oracle_suite" / "oracle.csv.gz")
    lines = gzip.decompress(stored.read_bytes()).decode().splitlines()
    row = next(i for i, ln in enumerate(lines)
               if ln.startswith("exponential_N10,"))
    fields = lines[row].split(",")
    fields[2] = repr(float(fields[2]) * (1 + 1e-6))    # the "got" column
    lines[row] = ",".join(fields)
    stored.write_bytes(gzip.compress(("\n".join(lines) + "\n").encode()))
    code, result = bench("--workload", "oracle_suite", "--seed", "212",
                         "--seconds", "0", root=scratch)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] >= 1


def test_checkout_without_sources_fails(scratch):
    _copy_checkout(scratch, with_sources=False)
    code, result = bench("--workload", "oracle_suite", "--seed", "1",
                         "--seconds", "1", root=scratch)
    assert code != 0
    assert result is None


def test_yardstick_samples_during_a_call_and_restores_the_timer():
    import signal
    from job import SAMPLE_PERIOD_S, Yardstick

    def busy():
        end = time.perf_counter() + 5 * SAMPLE_PERIOD_S
        while time.perf_counter() < end:
            pass

    yardstick = Yardstick()
    t0 = time.perf_counter()
    wall = yardstick.run_sampled(busy)
    elapsed = time.perf_counter() - t0
    assert len(yardstick.times) >= 3
    assert wall == pytest.approx(elapsed - sum(yardstick.times), abs=0.01)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
