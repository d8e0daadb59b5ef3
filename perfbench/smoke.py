"""Smoke run of the benchmark: every workload, untraced and traced, briefly.

    python3 perfbench/smoke.py

Checks that each run exits 0, that its last line is the result object with
exactly the keys `correct`, `attempted`, `failed`, `metrics`, and that the
metrics are exactly the names and units BENCHMARK.json declares. It also
checks that the benchmark refuses to run, printing no result, in a directory
holding only BENCHMARK.json and perfbench/.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = [sys.executable if spec["command"][0] == "python3" else spec["command"][0],
           *spec["command"][1:], "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def check_result(proc: subprocess.CompletedProcess, declared: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return ["last line is not a JSON object"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("correctness checks failed")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append("attempted must be a whole number >= 1")
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != declared:
        problems.append(f"metrics differ from BENCHMARK.json: missing "
                        f"{sorted(set(declared) - set(got))}, extra {sorted(set(got) - set(declared))}, "
                        f"units {[k for k in got if k in declared and got[k] != declared[k]]}")
    for name, value in result.get("metrics", {}).items():
        if not isinstance(value.get("value"), (int, float)):
            problems.append(f"{name}: value is not a number")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_result(run(ROOT, workload, trace), declared[trace])
            failed |= bool(problems)
            print(f"{workload} trace={trace}: {'ok' if not problems else '; '.join(problems)}")

    bare = ROOT / ".bench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    refused = proc.returncode != 0 and '"metrics"' not in proc.stdout
    failed |= not refused
    print(f"bare directory: {'refused' if refused else 'ran without sources'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
