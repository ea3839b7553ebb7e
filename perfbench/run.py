"""specrig benchmark: one workload, timed, with every report checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives the calls the CLI makes (parsing.parse_problem, then
pipeline.run_analysis, then report.serialize) in this process, one thread,
after a warm-up analysis.  Passes over the workload's operations repeat
until --seconds have elapsed.

The time of one pass is estimated from medians: each input's median
operation time over the run, times its operations per pass, summed.  The
machine's speed drifts by +-20% over seconds, so the median of each
input's samples, spread over the run, is much steadier than any single
pass.

--trace 0 prints the end-to-end metrics: setup_s (median cold start of a
fresh interpreter, measured in child processes that run one after another
before the workload), corpus_s (the pass estimate), peak_rss_mb and
ok_share (operations that ended with their expected outcome, over those
attempted).  --trace 1 adds as many traced passes as untraced ones and
prints the per-layer metrics of perfbench/tracing.py, per traced pass, and
trace.overhead_s (traced pass estimate minus untraced pass estimate).

Every report is checked against perfbench/expected.json.  A wrong number
aborts the run with exit code 1 and no result line.  An operation fails
when it is refused without refusal being its expected outcome, raises
anything but a SpecrigError, or runs past OP_LIMIT_S.  Per-operation
times and outcomes go to perfbench/results/, spans of a traced run too.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import check, corpus  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

RESULTS = ROOT / "perfbench" / "results"
# touches the Puiseux route, a regular-semisimple pole (and so the lazily
# imported splitting module) and sympy factoring before anything is timed
WARMUP = ["example_fuchsian", "example_airy"]
SETUP_INPUT = "example_fuchsian"
SETUP_RUNS = 5
OP_LIMIT_S = 60


class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException so no handler in specrig
    swallows it."""


class WrongAnswer(Exception):
    pass


class SetupFailed(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout()


class Runner:
    """Runs operations, checks their outcomes and keeps the records."""

    def __init__(self, expected, modules):
        self.expected = expected
        self.parsing, self.pipeline, self.report, self.errors = modules
        self.tracer = None
        self.records = []
        signal.signal(signal.SIGALRM, _on_alarm)

    def analyse(self, op):
        # module attributes, not imported names, so that installed
        # tracing wrappers are the ones called
        spec = self.parsing.parse_problem(op.text)
        doc, code = self.pipeline.run_analysis(
            spec, check_reduction=op.check_reduction)
        return self.report.serialize(doc), code

    def run_op(self, op, label):
        status, detail, error_class = "ok", None, None
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        t0 = perf_counter()
        try:
            out, code = self.analyse(op)
        except OpTimeout:
            status, detail = "timeout", f"over {OP_LIMIT_S} s"
        except self.errors.SpecrigError as exc:
            error_class = type(exc).__name__
            status, detail = "refused", f"{error_class}: {exc}"
        except Exception as exc:  # counted as a failed operation
            status, detail = "error", f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        if status == "timeout" and self.tracer is not None:
            self.tracer.reset_stack()
        exp = self.expected[op.name]
        problems = []
        if status == "ok":
            problems = check.check_report(exp, json.loads(out), code)
            outcome = "wrong" if problems else "expected"
        elif status == "refused" and exp.get("refused") == error_class:
            outcome = "expected"
        else:
            outcome = "failed"
        self.records.append({"pass": label, "op": op.op_id,
                             "input": op.name, "seconds": elapsed,
                             "status": status, "detail": detail,
                             "outcome": outcome})
        if problems:
            raise WrongAnswer(f"{op.name} (pass {label}, op {op.op_id}): "
                              + "; ".join(problems))

    def run_pass(self, ops, label):
        for op in ops:
            if self.tracer is not None:
                self.tracer.op_id = f"{label}/{op.op_id}"
            self.run_op(op, label)


def timed_passes(runner, ops, label, seconds=None, count=None):
    """Runs passes until `seconds` elapsed or `count` ran; returns the
    records of these passes."""
    first = len(runner.records)
    start = perf_counter()
    passes = 0
    while True:
        runner.run_pass(ops, f"{label}{passes}")
        passes += 1
        if count is not None and passes >= count:
            break
        if count is None and perf_counter() - start >= seconds:
            break
    return runner.records[first:], passes


def pass_estimate(records, ops):
    """Seconds of one pass over `ops`, from each input's median time."""
    by_input = summary(records)
    return sum(n * by_input[name]["median_s"]
               for name, n in Counter(op.name for op in ops).items())


def measure_setup(expected):
    """Median wall time of SETUP_RUNS fresh interpreters, one at a time,
    each importing everything and finishing one analysis."""
    text = corpus.generate(SETUP_INPUT)
    times = []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "coldstart.py")],
            input=text, capture_output=True, text=True, cwd=ROOT,
            timeout=120)
        times.append(perf_counter() - t0)
        if proc.returncode not in (0, 1):
            raise SetupFailed(proc.stderr.strip())
        problems = check.check_report(expected[SETUP_INPUT],
                                      json.loads(proc.stdout),
                                      proc.returncode)
        if problems:
            raise WrongAnswer(f"{SETUP_INPUT} (cold start): "
                              + "; ".join(problems))
    return statistics.median(times)


def import_specrig():
    import specrig
    from specrig import errors, parsing, pipeline, report
    if Path(specrig.__file__).resolve().parent != SRC / "specrig":
        raise SetupFailed(f"specrig imported from {specrig.__file__}, "
                          f"not from {SRC}")
    return parsing, pipeline, report, errors


def summary(records):
    """Per input: operations, median seconds and outcome counts."""
    by_input = {}
    for rec in records:
        by_input.setdefault(rec["input"], []).append(rec)
    out = {}
    for name, recs in by_input.items():
        outcomes = {}
        for rec in recs:
            key = rec["outcome"] if rec["outcome"] != "failed" \
                else f"failed ({rec['detail']})"
            outcomes[key] = outcomes.get(key, 0) + 1
        out[name] = {"ops": len(recs),
                     "median_s": statistics.median(r["seconds"]
                                                   for r in recs),
                     "outcomes": outcomes}
    return out


def run(args):
    expected = check.load_expected()
    ops = corpus.workload_ops(args.workload, args.seed)
    metrics = {}
    if not args.trace:
        metrics["setup_s"] = (measure_setup(expected), "s")
    runner = Runner(expected, import_specrig())
    check_reduction = corpus.WORKLOADS[args.workload]["check_reduction"]
    for name in WARMUP:
        runner.run_op(corpus.Operation(name, name, corpus.generate(name),
                                       check_reduction), "warmup")
    runner.records.clear()
    untraced, passes = timed_passes(runner, ops, "u", seconds=args.seconds)
    corpus_s = pass_estimate(untraced, ops)
    if args.trace:
        tracer = Tracer()
        runner.tracer = tracer
        with tracer:
            traced, _ = timed_passes(runner, ops, "t", count=passes)
        runner.tracer = None
        metrics.update(tracer.layer_metrics(passes))
        metrics["trace.overhead_s"] = (pass_estimate(traced, ops) - corpus_s,
                                       "s")
    attempted = len(runner.records)
    failed = sum(r["outcome"] == "failed" for r in runner.records)
    if not args.trace:
        metrics["corpus_s"] = (corpus_s, "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics["ok_share"] = ((attempted - failed) / attempted, "ratio")
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write_spans(RESULTS / f"{stem}-spans.jsonl")
    by_input = summary(untraced)
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "python": platform.python_version(),
                   "untraced_passes": passes,
                   "failed_share": failed / attempted,
                   "by_input": by_input, "operations": runner.records,
                   "metrics": {k: v for k, (v, _) in metrics.items()}},
                  fh, indent=1)
    for name, info in by_input.items():
        print(f"{name:20s} {info['ops']:4d} ops  median "
              f"{info['median_s']:9.4f} s  {info['outcomes']}")
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "specrig" / "__init__.py").is_file():
        print(f"error: no specrig sources under {SRC}", file=sys.stderr)
        return 2
    try:
        run(args)
    except WrongAnswer as exc:
        print(f"error: wrong answer: {exc}", file=sys.stderr)
        return 1
    except SetupFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
