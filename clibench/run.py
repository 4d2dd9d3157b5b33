"""CLI benchmark for cone-audit: one process, one thread, drift-corrected.

    python3 clibench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's problem files from the seed, drives them through the
CLI entry point ``cone_audit.cli.main`` in-process, checks every output
(see checks.py), and prints each metric by name and unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, timed with no tracing; with ``--trace 1`` they are the
per-layer ones of traced passes, each traced pass paired with an untraced
one to measure the tracing overhead.  Generated files, reports and the span
log go to ``clibench/out/<workload>-s<seed>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import tracing
from timing import NOMINAL_REFERENCE_S, DriftClock, percentile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")
GENERATION_REPEATS = 3


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def _import_cli():
    """Import the CLI from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, SRC)
    import cone_audit
    import cone_audit.cli

    if not os.path.abspath(cone_audit.__file__).startswith(SRC + os.sep):
        raise ImportError(f"cone_audit was imported from {cone_audit.__file__}, not {SRC}")
    return cone_audit.cli


def _normalized(text: str) -> str:
    """Output with the report's timestamp line removed (reports are
    otherwise byte-identical between runs)."""
    return "\n".join(line for line in text.splitlines() if '"timestamp":' not in line)


class Runner:
    def __init__(self, cli, ops):
        self.cli, self.ops = cli, ops
        self.reference: list[tuple] = []     # (code, normalized output) of the warm-up
        self.records: list[tuple] = []       # (pass, op index, code, start, end)
        self.errors: list[str] = []
        self.tracer: tracing.Tracer | None = None

    def run_pass(self, index: int) -> list[tuple]:
        """Run every op once; return (code, stdout) per op."""
        outputs = []
        for k, op in enumerate(self.ops):
            if self.tracer is not None:
                self.tracer.command = len(self.records)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = self.cli.main(op.argv)
                except Exception:  # a traceback is a failed operation, not a crash
                    code = None
                    traceback.print_exc()
                end = time.perf_counter()
            self.records.append((index, k, code, start, end))
            text = out.getvalue()
            if op.save_to:
                with open(op.save_to, "w", encoding="utf-8") as handle:
                    handle.write(text)
            if code is None or (code == 3 and not op.known_fault):
                self.errors.append(f"{op.label}: unexpected failure, exit {code}: "
                                   f"{err.getvalue().strip()[-300:]}")
            outputs.append((code, text))
        return outputs

    def check_warmup(self, outputs) -> bool:
        correct = True
        for op, (code, text) in zip(self.ops, outputs):
            self.reference.append((code, _normalized(text)))
            if code is None or code == 3:
                continue
            try:
                op.check(code, text)
            except Exception as exc:  # any check crash is a wrong output
                correct = False
                self.errors.append(f"{op.label}: check failed: {type(exc).__name__}: {exc}")
        return correct

    def check_repeat(self, outputs) -> bool:
        """Later passes must reproduce the checked warm-up outputs exactly."""
        correct = True
        for op, (code, text), ref in zip(self.ops, outputs, self.reference):
            if (code, _normalized(text)) != ref:
                correct = False
                self.errors.append(f"{op.label}: output differs from the checked warm-up")
        return correct


def _passes(runner: Runner, seconds: float, trace: bool) -> tuple[list, list, bool]:
    """Whole timed passes until `seconds` have gone by; with tracing, each is
    followed by a traced pass.  Returns the pass numbers and correctness."""
    timed, traced, correct = [], [], True
    begin = time.perf_counter()
    while not timed or time.perf_counter() - begin < seconds:
        timed.append(2 * len(timed))
        correct &= runner.check_repeat(runner.run_pass(timed[-1]))
        if trace:
            runner.tracer = runner.tracer or tracing.Tracer()
            runner.tracer.install()
            try:
                traced.append(timed[-1] + 1)
                correct &= runner.check_repeat(runner.run_pass(traced[-1]))
            finally:
                runner.tracer.uninstall()
                runner.tracer.stack.clear()
    return timed, traced, correct


def _typical(times: dict[int, list[float]]) -> list[float]:
    """Each op's median time over the passes, so that a burst of interference
    in one pass moves no figure."""
    return [statistics.median(v) for v in times.values()]


def main(argv=None) -> int:
    args = _parse_args(argv)
    workdir = os.path.join(HERE, "out", f"{os.path.basename(args.workload)}-s{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    with DriftClock() as clock:
        start = time.perf_counter()
        try:
            cli = _import_cli()
        except ImportError as exc:
            print(f"cannot import cone_audit from {SRC}: {exc}", file=sys.stderr)
            return 2
        import_span = (start, time.perf_counter())
        import workloads  # after cone_audit, so that numpy counts as cone_audit's import
        if args.workload not in workloads.BUILDERS:
            print(f"unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        generation_spans = []
        for _ in range(GENERATION_REPEATS):
            start = time.perf_counter()
            ops = workloads.BUILDERS[args.workload](args.seed, workdir)
            generation_spans.append((start, time.perf_counter()))
        runner = Runner(cli, ops)
        correct = runner.check_warmup(runner.run_pass(-1))
        timed_passes, traced_passes, repeat_ok = _passes(runner, args.seconds, bool(args.trace))
        correct &= repeat_ok

    setup_s = (clock.measure(*import_span)[1]
               + statistics.median(clock.measure(*s)[1] for s in generation_spans)
               + sum(clock.measure(r[3], r[4])[1] for r in runner.records if r[0] == -1))
    runs = [r for r in runner.records if r[0] >= 0]
    measured = {i: clock.measure(r[3], r[4]) for i, r in enumerate(runner.records) if r[0] >= 0}
    attempted = len(runs)
    failed = sum(r[2] is None or r[2] == 3 for r in runs)
    for line in runner.errors[:20]:
        print(line, file=sys.stderr)

    raw_by_op: dict[int, list[float]] = {}
    corrected_by_op: dict[int, list[float]] = {}
    for i, (raw, corrected) in measured.items():
        index, op = runner.records[i][0], runner.records[i][1]
        if index in timed_passes:
            raw_by_op.setdefault(op, []).append(raw)
            corrected_by_op.setdefault(op, []).append(corrected)
    corrected, raw = _typical(corrected_by_op), _typical(raw_by_op)
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "commands_per_s": (len(corrected) / sum(corrected), "operations/s"),
        "command_p50_ms": (statistics.median(corrected) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    every = [t for v in corrected_by_op.values() for t in v]
    print(f"workload {args.workload}, seed {args.seed}: {len(timed_passes)} timed passes "
          f"of {len(ops)} commands; reference loop median "
          f"{clock.reference_median() * 1e6:.1f} us over {len(clock.starts)} loops "
          f"(nominal {NOMINAL_REFERENCE_S * 1e6:.1f} us)")
    for name, (value, unit) in end_to_end.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  raw_commands_per_s = {len(raw) / sum(raw):.6g} operations/s (not gated)")
    print(f"  raw_command_p50_ms = {statistics.median(raw) * 1e3:.6g} ms (not gated)")
    if len(every) >= 100:
        print(f"  command_p90_ms = {percentile(every, 0.9) * 1e3:.6g} ms "
              f"over {len(every)} commands (not gated)")

    metrics = end_to_end
    if args.trace:
        pass_time: dict[int, float] = {}
        for i, (_, corr) in measured.items():
            pass_time[runner.records[i][0]] = pass_time.get(runner.records[i][0], 0.0) + corr
        overhead = statistics.median(pass_time[p] / pass_time[p - 1] - 1 for p in traced_passes)
        factors = {i: corr / raw if raw > 0 else 1.0 for i, (raw, corr) in measured.items()}
        layers = runner.tracer.layer_metrics(factors, len(traced_passes), len(ops))
        layers["tracing.overhead_pct"] = overhead * 100
        runner.tracer.write(os.path.join(workdir, "spans.jsonl"))
        metrics = {name: (layers[name], unit) for name, unit in tracing.METRICS}
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")

    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(workdir, f"result-trace{args.trace}.json"), "w", encoding="utf-8") as h:
        json.dump(result, h, indent=1)
    with open(os.path.join(workdir, f"timings-trace{args.trace}.json"), "w", encoding="utf-8") as h:
        json.dump({"records": runner.records, "loops": list(zip(clock.starts, clock.ends))}, h)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
