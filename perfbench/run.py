"""Run one bosewit benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload scan_fixed --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: the benchmark imports bosewit from
`src/` of that checkout. With `--trace 0` the result carries the end-to-end
metrics; with `--trace 1` the per-layer metrics of a traced run. A JSON line
with the environment, the per-kind breakdown and (traced) the layer table
and scaling sweep precedes the result and is also written under
`perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv=None) -> int:
    from bosebench.env import pin_blas_threads

    pin_blas_threads()  # before anything imports numpy
    from bosebench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "bosewit" / "cli.py").is_file():
        print(f"error: no bosewit sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from bosebench.runner import run

    result, detail = run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    text = json.dumps(detail, sort_keys=True)
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(text + "\n", encoding="utf-8")
    print(text)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
