"""Record each workload's reference bundle digest and corpus size per seed.

    python3 perfbench/record_references.py --seeds 0-49

Run from the root of a checkout whose report bundles are known to be
right; it rewrites ``references.json`` next to this file. ``run.py``
fails a sample whose bundle differs from the digest recorded for its
workload and seed. Re-record only for a change that is meant to alter
report bytes or generated corpora, and say so in the change.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys

import run

CHILD_TIMEOUT_S = 300.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-49")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    run.import_program()
    from workloads import WORKLOADS

    references = {}
    work = run.WORK / f"record-{os.getpid()}"
    try:
        for workload in WORKLOADS.values():
            seeds = {}
            for seed in range(first, last + 1):
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                corpora = run.Corpora(workload, seed, work, trace=False)
                corpora.build(keep_generated=True)
                out = work / "out"
                cmd = run.cli_report_cmd(workload, corpora.dirs, out)
                code, _, _ = run.run_child(cmd, work / "child.log", timeout_s=CHILD_TIMEOUT_S)
                if code != 0:
                    sys.exit(f"{workload.name} seed {seed}: report exited {code}")
                rows, size = corpora.input_size()
                seeds[str(seed)] = {
                    "input_rows": rows,
                    "input_bytes": size,
                    "bundle_sha256": run.tree_digest(out, normalize_manifest=True),
                }
                print(workload.name, seed, seeds[str(seed)], flush=True)
            references[workload.name] = {
                "specs_at_seed_0": [dataclasses.asdict(s) for s in workload.specs(0)],
                "report_args": run.cli_report_cmd(workload, ["<corpus>"], "<out>")[3:],
                "seeds": seeds,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:  # another run is using it
            pass
    run.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
