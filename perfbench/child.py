"""One measured run of one workload, in a fresh interpreter.

``python3 -m perfbench.child --workload W --seed N --size full
--trace 0|1 --out result.json [--spans spans.json]``

The parent (:mod:`perfbench.run`) spawns this module once per measured
run, so every run pays the cold import, the bootstrap and the lazily
generated node keys that a user pays: nothing is warm from an earlier
run in the same process.  Timestamps are taken on the system-wide
monotonic clock so the parent can subtract its own spawn time.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import sys
import time

#: program modules each workload imports first (the timed cold import)
IMPORTS = {
    "paper-figures": ("repro.experiments",),
    "million-routing": ("repro.perf.compact", "repro.perf.packet"),
    "tap-retrieval": ("repro.core.system",),
}


class Phase:
    """Marks the end of set-up and brackets verification work."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.t_ready: float | None = None
        self.check_s = 0.0

    def ready(self) -> None:
        if self.t_ready is None:
            self.t_ready = time.monotonic()

    @contextlib.contextmanager
    def check(self):
        start = time.perf_counter()
        region = self.tracer.region("check") if self.tracer else contextlib.nullcontext()
        with region:
            yield
        self.check_s += time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(IMPORTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from perfbench.tracing import ROOT, Tracer

        tracer = Tracer()
        root = tracer.open(ROOT)
    modules_before = len(sys.modules)
    import_start = time.perf_counter()
    region = tracer.region("import") if tracer else contextlib.nullcontext()
    with region:
        for name in IMPORTS[args.workload]:
            importlib.import_module(name)
    import_s = time.perf_counter() - import_start
    import_modules = len(sys.modules) - modules_before

    from perfbench import workloads

    originals = None
    if tracer is not None:
        from perfbench.tracing import install

        originals = install(tracer)
    phase = Phase(tracer)
    result = workloads.WORKLOADS[args.workload](args.seed, args.size, phase)
    if tracer is not None:
        from perfbench.tracing import assert_covered

        tracer.close(root)
        assert_covered(originals)
        tracer.dump(args.spans)
    result.update(
        t_ready=phase.t_ready,
        import_s=import_s,
        import_modules=import_modules,
        check_s=phase.check_s,
    )
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
