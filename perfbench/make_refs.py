"""Regenerate the committed references in perfbench/refs/ from the current code.

    OPENBLAS_NUM_THREADS=1 python3 perfbench/make_refs.py [WORKLOAD ...]

Runs each command that is checked against a reference once and stores a
digest of what it wrote and printed.  Regenerate only on purpose, when a
change is meant to alter these outputs, and say so in CHANGES.md.
"""
from __future__ import annotations

import json
import os
import re
import sys
import tempfile

import gate
import worker
import workloads


def main(argv) -> int:
    names = argv or [w for w, cmds in workloads.WORKLOADS.items()
                     if any(c.refs or c.stdout for c in cmds)]
    with tempfile.TemporaryDirectory(dir=worker.ROOT, prefix=".perfbench_tmp") as tmp:
        for name in names:
            refs = {}
            for i, cmd in enumerate(workloads.WORKLOADS[name]):
                if not (cmd.refs or cmd.stdout):
                    continue
                out_dir = os.path.join(tmp, f"{name}-{i}")
                code, stdout, _, _ = worker.execute(cmd, out_dir)
                if code != 0:
                    print(f"{cmd.label}: exit code {code}", file=sys.stderr)
                    return 1
                refs[cmd.label] = gate.make_ref(cmd, out_dir, stdout)
            os.makedirs(workloads.REFS_DIR, exist_ok=True)
            text = json.dumps(refs, indent=1, sort_keys=True)
            # one line per stored row instead of one line per number
            text = re.sub(r"\[([-+.\deE,\s]+)\]",
                          lambda m: "[" + ",".join(x.strip() for x in m.group(1).split(",")) + "]", text)
            with open(os.path.join(workloads.REFS_DIR, f"{name}.json"), "w") as fh:
                fh.write(text + "\n")
            print(f"wrote refs/{name}.json ({len(refs)} commands)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
