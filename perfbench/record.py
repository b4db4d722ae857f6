#!/usr/bin/env python3
"""Write perfbench/expected.json: what every non-seeded command must give.

For each command of the workloads other than the seeded identities (and for
every candidate of the pool the seed draws from) it records the exit code,
the output's size and SHA-256, and the traced work counts.  Run it only on
the commit whose outputs define correct, from the repository root:

    python3 perfbench/record.py
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    os.chdir(run.ROOT)
    import spans
    import workloads
    import zinbielkit.cli

    work = run.ROOT / workloads.WORK_DIR
    if work.exists():
        shutil.rmtree(work)
    work.mkdir()
    try:
        commands, inputs = workloads.fixed_commands()
        for path, text in inputs.items():
            (run.ROOT / path).write_text(text, encoding="utf-8")
        env = run.child_env()
        recorded = {}
        for cmd in commands:
            _, rc, stdout, _ = run.run_child(run.child_argv(cmd.argv), work, env)
            output = run.output_of(cmd, stdout)
            recorded[cmd.key] = {"rc": rc, "sha256": hashlib.sha256(output).hexdigest(),
                                 "bytes": len(output)}
            print(f"exit {rc} {len(output):>8} B  {cmd.key}", file=sys.stderr)

        script = run._load_script()
        entries = {"cli": zinbielkit.cli.main, "script": script.main}
        _, results, span_list, incomplete = run.traced_pass(commands, entries, run.zinbielkit_modules(script))
        if incomplete:
            raise SystemExit(f"error: layers not fully patched: {sorted(incomplete)}")
        counts = spans.command_counts(span_list)
        for i, (cmd, (rc, output)) in enumerate(zip(commands, results)):
            entry = recorded[cmd.key]
            if (rc, hashlib.sha256(output).hexdigest()) != (entry["rc"], entry["sha256"]):
                raise SystemExit(f"error: in-process output differs from the CLI: {cmd.key}")
            entry["counts"] = counts.get(i, {})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    text = json.dumps(recorded, indent=1, sort_keys=True) + "\n"
    (run.HERE / "expected.json").write_text(text, encoding="utf-8")
    print(f"recorded {len(recorded)} commands", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
