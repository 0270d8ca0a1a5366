"""One benchmark job in a fresh process: import, parse a config, execute.

    python3 bench/child.py --src SRC --config CFG --out DIR --seed N \
        --result RESULT.json [--trace] [--setup-only]

Writes RESULT.json with the job's times, exit code and peak RSS.
``setup_s`` covers importing ``commonfix`` and ``parse_config``; ``wall_s``
covers ``execute``, from the parsed config to the written artifacts.
With ``--trace`` the job runs under the tracer, and the result also
carries the self time, call count and counters of each traced function.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = Path(args.src).resolve()
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    from commonfix import cli, mappings

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"commonfix was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    cfg = cli.parse_config(args.config)
    t1 = time.perf_counter()
    result = {"setup_s": t1 - t0}
    if not args.setup_only:
        rc = cli.execute(cfg, args.out, args.seed, quiet=True)
        t2 = time.perf_counter()
        result.update(exit_code=rc, wall_s=t2 - t1)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["numpy"] = sys.modules["numpy"].__version__
    if tracer is not None:
        info = mappings.oscillator_defect.cache_info()
        layers = tracer.self_times()
        layers.update(tracer.counts)
        layers["mappings.oscillator_defect.hits"] = info.hits
        layers["mappings.oscillator_defect.misses"] = info.misses
        result["layers"] = layers
        result["untraced_functions"] = tracer.missing
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
