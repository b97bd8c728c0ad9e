"""One pass of the `ladder` workload, in a fresh interpreter.

    python3 bench/ladder_pass.py MANIFEST [--spans SPANS_OUT]

MANIFEST lists the ladder documents in order, each with its beta and
whether to run the full verified pipeline.  Prints one JSON line: per
step its time, verdicts and generator determinant; the pass's scale to
reference speed (see calibrate.py); and with --spans the tracer summary
(the spans themselves go to SPANS_OUT).  Checking the verdicts is left
to the caller.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

# called through their modules, so that the tracer's patches apply
from hopforder import action, documents, freeness, order  # noqa: E402

import calibrate  # noqa: E402
from tracer import Tracer  # noqa: E402


class Clock:
    """Times each call and samples the reference kernel after it."""

    def __init__(self):
        self.reference = calibrate.Reference()
        self.seconds = 0.0

    def call(self, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - start
        self.reference.after_call(seconds)
        self.seconds += seconds
        return result


def run_step(step, clock: Clock) -> dict:
    """Document to verdict for one degree; the time is the sum of the
    timed calls."""
    clock.seconds = 0.0
    doc = clock.call(documents.load_document, step["path"])
    verdicts = {}
    if step["full"]:
        clock.call(doc.field.validate)
        verdicts["field_axioms"] = True
    bundle = clock.call(action.build_bundle, doc.hopf, doc.ring)
    if step["full"]:
        rep = clock.call(action.verify_action, bundle)
        verdicts["rank_ok"] = rep.rank_ok
        verdicts["j_bijective"] = rep.j_bijective
    ob = clock.call(order.associated_order, bundle)
    if step["full"]:
        orep = clock.call(order.verify_order, ob)
        verdicts["integral_action"] = orep.integral_action
        verdicts["contains_one"] = orep.contains_one
        verdicts["ring_closed"] = orep.ring_closed
    cand = clock.call(freeness.generator_matrix, ob, step["beta"])
    return {
        "degree": step["degree"],
        "seconds": clock.seconds,
        "verdicts": verdicts,
        "det": str(cand.det),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("manifest")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    with open(args.manifest, encoding="utf-8") as fh:
        steps = json.load(fh)["steps"]
    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()
    results = []
    clock = Clock()
    for k, step in enumerate(steps):
        if tracer:
            tracer.task = k
        try:
            results.append(run_step(step, clock))
        except Exception as exc:  # reported per step, checked by the caller
            results.append({"degree": step["degree"], "error": f"{type(exc).__name__}: {exc}"})
    out = {"steps": results, "scale": clock.reference.scale()}
    if tracer:
        tracer.uninstall()
        out["layers"] = tracer.summary()
        tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
