"""lexner benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload {features,train,tag} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source tree; the benchmark imports lexner from
`src/` of that tree and refuses to run without it. Workloads:

* features: distant corpus -> build_dual_corpus -> train_skipgram ->
  build_ls_table -> save_ls_table, repeated on the seed's corpus.
* train:    lexner.tagger.train for a fixed number of epochs, repeated
  with tagger seeds 0, 1, ...
* tag:      one closed-loop caller sends tag_batch requests of 1 to 64
  fresh sentences, each tagged once.

With --trace 0 the last line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced unit of work (spans are written
to .bench/traces/). The line before it is a full record: environment,
input properties, per-workload metric names, failures. The exit code is 0
only when every correctness check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("features", "train", "tag"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_lexner():
    """Import lexner from this tree's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "lexner" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lexner sources under {src}")
    sys.path.insert(0, str(src))
    import lexner

    if src.resolve() not in Path(lexner.__file__).resolve().parents:
        raise SystemExit(f"perfbench: lexner was imported from {lexner.__file__}, not {src}")
    return lexner


def git_commit() -> str | None:
    """HEAD of the tree's git repository, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, source_key: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k, "unset (library default)") for k in BLAS_THREAD_VARS},
        "load_generator": "this process, one thread",
        "seed": seed,
        "git_commit": git_commit(),
        "source_key": source_key,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    # One BLAS thread unless the caller chose otherwise: on a small shared
    # machine a second BLAS thread mostly adds run-to-run spread.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    import_lexner()
    import inputs
    import workloads
    from speed import SpeedProbe
    from tracing import Tracer

    work = ROOT / ".bench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tally = workloads.Tally()
    tracer = Tracer() if args.trace else None
    probe = SpeedProbe()
    try:
        outcome = workloads.WORKLOADS[args.workload](
            ROOT, work, args.seed, args.seconds, tracer, tally, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer is not None:
        tally.op(workloads.split_failures(args.workload, outcome.layers))
        trace_path = ROOT / ".bench" / "traces" / f"{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_path)
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in outcome.layers.items()}
    else:
        trace_path = None
        metrics = {k: {"value": outcome.e2e[k], "unit": u} for k, u in workloads.E2E.items()}

    correct = tally.failed == 0
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed, inputs.source_key(ROOT, {})),
        "inputs": outcome.props,
        "workload_metrics": {k: {"value": v, "raw": r, "unit": u}
                             for k, (v, r, u) in outcome.named.items()},
        "speed_probe": probe.summary(),
        "failed_frac": tally.failed / max(1, tally.attempted),
        "failures": tally.messages,
        "absent_trace_targets": tracer.absent if tracer else [],
        "trace_file": str(trace_path.relative_to(ROOT)) if trace_path else None,
    }
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    for msg in tally.messages:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    return 0 if correct else 1


def _layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("_frac", "_efficiency")):
        return "frac"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
