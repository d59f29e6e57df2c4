"""Child interpreter for one benchmark operation.

    child.py walk OUT_DIR OP TRACE -- <walk arguments>
        Runs the `walk` command line in this fresh interpreter, as a user pays
        for it.  The last state handed to `stats.sample_measurement` is saved
        to OUT_DIR/state-OP.npy so the parent can check the p_marked it was
        measured from; with TRACE=1 the spans go to OUT_DIR/spans-OP.json.

    child.py setup WORKLOAD SEED SIZE
        Imports what the workload's operation needs, builds its first input,
        prints "ready" and exits.  The parent times this as the set-up cost.

`scatterwalk` is found through PYTHONPATH, which the parent points at the
checkout's `src`.
"""

from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path


@contextlib.contextmanager
def measured_states():
    """Keep the last state handed to `stats.sample_measurement`, so the p_marked
    a search measured from can be checked after it returns."""
    from scatterwalk import stats

    kept = []
    sample = stats.sample_measurement

    def capture(state, seed=None):
        kept[:] = [state]
        return sample(state, seed)

    stats.sample_measurement = capture
    try:
        yield kept
    finally:
        stats.sample_measurement = sample


def _walk(out_dir: Path, op: int, trace: bool, argv: list[str]) -> int:
    import numpy as np
    from scatterwalk import cli

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.op = op
        tracer.install()
    with measured_states() as kept:
        try:
            return cli.main(argv)
        finally:
            if kept:
                np.save(out_dir / f"state-{op}.npy", np.asarray(kept[0]))
            if tracer is not None:
                with open(out_dir / f"spans-{op}.json", "w", encoding="utf-8") as handle:
                    json.dump({"spans": tracer.spans, "counts": tracer.counts}, handle)


def _setup(name: str, seed: int, size: str) -> int:
    import importlib

    import workloads

    workload = workloads.WORKLOADS[name]
    importlib.import_module(workload.module)
    workload(seed, size).make_input()
    print("ready", flush=True)
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["walk"] and len(argv) >= 5 and argv[4] == "--":
        return _walk(Path(argv[1]), int(argv[2]), argv[3] == "1", argv[5:])
    if argv[:1] == ["setup"] and len(argv) == 4:
        return _setup(argv[1], int(argv[2]), argv[3])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
