"""Write golden.json: SHA-256 digests of every persisted file of the builtin
desk_a, desk_b, demod_single and demod_two_tone loopback runs, and their
config hashes. Every benchmark run checks the current code against it.

    python3 perfbench/make_golden.py

Regenerate only in a change that alters artifact bytes on purpose and
says so.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    golden = {}
    tmp = Path(tempfile.mkdtemp(prefix=".golden-", dir=HERE.parent))
    try:
        for name in workloads.GOLDEN_SCENARIOS:
            chash = workloads.persist_builtin(name, tmp / name)
            golden[name] = {"config_hash": chash, "files": workloads.tree_digest(tmp / name)}
    finally:
        shutil.rmtree(tmp)
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
