#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The benchmark is a Cargo package of its
own (perfbench/Cargo.toml) that depends on the workspace crates by path;
it is built in release mode into $CARGO_TARGET_DIR (default:
perfbench/target). Build output goes to standard error, so the last line
of standard output is the benchmark's JSON result. The exit code is the
benchmark's; a failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build() -> Path:
    """Builds the benchmark binary and returns its path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or HERE / "target")
    if not target.is_absolute():
        target = Path.cwd() / target
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
        "--target-dir", str(target),
    ]
    built = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        sys.exit(f"perfbench: build failed ({' '.join(cmd)})")
    return target / "release" / "ddc-perfbench"


def main() -> int:
    binary = build()
    return subprocess.run([str(binary), *sys.argv[1:]], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
