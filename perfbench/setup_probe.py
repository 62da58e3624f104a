"""Time one cold start of dhseq in a fresh interpreter.

    python3 -I perfbench/setup_probe.py SRC_DIR

Imports dhseq from SRC_DIR and builds the CLI parser, the work every CLI
call does before its first operation, and prints the seconds it took.
"""

import sys
import time
from pathlib import Path


def main() -> int:
    src = Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import dhseq
    from dhseq import cli

    cli.build_parser()
    elapsed = time.perf_counter() - start
    if src not in Path(dhseq.__file__).resolve().parents:
        print(f"dhseq was imported from {dhseq.__file__}, not {src}", file=sys.stderr)
        return 2
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
