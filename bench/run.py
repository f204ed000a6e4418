"""dgkit benchmark: time to a verdict on three generated workloads.

    python3 bench/run.py --workload dga-epi --seed 0 --seconds 30 --trace 0

Run from the repository root.  The benchmark writes the workload's seeded
``.dg`` input under ``bench/_work/``, checks it with ``dgkit validate`` and
``dgkit roundtrip``, then drives ``dgkit.cli.main(argv)`` in this process with
stdout captured: one client, closed loop, each command starting when the
previous one returned.  It repeats the workload's commands ("a pass") until
``--seconds`` would be exceeded, always at least once.  Every command's output
is checked against a theorem-derived oracle and against the digest of earlier
runs of the same source tree.  The last line of stdout is one JSON object:

- ``--trace 0``: ``wall_s`` (median pass time, first command start to last
  verdict), ``setup_s`` (median of fresh interpreters that import dgkit and
  parse the input), both at a reference host speed (``HostSpeed``), and
  ``peak_rss_mb`` of this process.
- ``--trace 1``: per-layer self times and exact work counters from
  ``tracer.Tracer``; spans go to ``bench/_work/*.jsonl``.

Metric names and units are those of ``BENCHMARK.json``.

A command fails on a nonzero exit, a traceback, a wrong verdict, or stdout
that differs from an earlier run of the same source tree; failures are counted
in ``failed`` and do not stop the run.  Exit status 1 means the benchmark could
not run at all (no dgkit source, or an input that does not validate).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
SETUP_PROBES = 21
# Median time of reference_loop() on the 2-vCPU host of bench/baseline.json;
# wall_s and setup_s are given at that host's speed (see HostSpeed).
REFERENCE_LOOP_S = 0.004
SAMPLE_EVERY_S = 0.2
LOOPS_PER_PROBE = 15
PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import dgkit.cli; "
    "from dgkit.parser import parse; parse(open(sys.argv[2]).read())"
)

def die(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(1)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dgkit").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def save_json(path: Path, data: dict):
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True))
    os.replace(tmp, path)


def call(dgkit_main, argv: list) -> tuple:
    """Run one dgkit command in-process: (exit code or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = dgkit_main(argv)
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def prevalidate(dgkit_main, path: Path, text: str):
    rc, out, err = call(dgkit_main, ["validate", str(path)])
    if rc != 0 or "result: valid" not in out:
        die(f"generated input {path} does not validate:\n{out}{err}")
    rc, out, err = call(dgkit_main, ["roundtrip", str(path)])
    if rc != 0 or out != text:
        die(f"generated input {path} is not a roundtrip fixed point:\n{err}")


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop that does not touch dgkit."""
    t0 = time.perf_counter()
    s = 0
    for i in range(40_000):
        s += i * i % 7
    return time.perf_counter() - t0


class HostSpeed:
    """Scales measured times to the host speed at which REFERENCE_LOOP_S was taken.

    On the shared 2-vCPU host of bench/baseline.json the speed swings by up
    to 40% within minutes, and a process's CPU time swings with its wall
    time, so neither is steady.  reference_loop() slows down with the host,
    so a time multiplied by REFERENCE_LOOP_S / median(loop times taken
    alongside it) is steadier: there, over six runs of one command the range
    fell from 0.15 to 0.08 of the median, and over 14 batches of set-up
    probes the spread from 0.13 to 0.05.
    While a command runs, SIGALRM takes a sample every SAMPLE_EVERY_S seconds,
    which costs about 2% of the command's time.
    """

    def __init__(self, tracer=None):
        self.samples: list[float] = []
        self.tracer = tracer
        signal.signal(signal.SIGALRM, self.sample)

    def sample(self, signum=None, frame=None):
        dt = reference_loop()
        self.samples.append(dt)
        if self.tracer:
            # covered time of the span on top, so no layer's self time has it
            self.tracer.stack[-1][3] += dt

    def start(self):
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self) -> float:
        """REFERENCE_LOOP_S over the median sample since the last call."""
        factor = REFERENCE_LOOP_S / statistics.median(self.samples)
        self.samples = []
        return factor


def setup_time(path: Path, speed: HostSpeed) -> float:
    """Median set-up time of fresh interpreters that import dgkit and parse the
    input, at the reference host speed; the loops run after each probe."""
    probes = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", PROBE, str(SRC), str(path)],
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
        )
        probes.append(time.perf_counter() - t0)
        if done.returncode != 0:
            die(f"set-up probe failed:\n{done.stderr}")
        for _ in range(LOOPS_PER_PROBE):
            speed.sample()
    return statistics.median(probes) * speed.scale()


def judge(cmd, rc, out: str, err: str, digests: dict, key: str) -> str | None:
    """Why the command failed, or None."""
    if rc != 0:
        return f"exit code {rc}: {err.strip()[-400:]}"
    if "Traceback" in err:
        return f"traceback: {err.strip()[-400:]}"
    sha = hashlib.sha256(out.encode()).hexdigest()
    if digests.setdefault(key, sha) != sha:
        return "stdout differs from an earlier run of the same source tree"
    try:
        report = json.loads(out)
    except ValueError:
        return "stdout is not json"
    return cmd.check(report)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dgkit" / "cli.py").is_file():
        die(f"no dgkit source under {SRC}")
    sys.path.insert(0, str(SRC))
    import dgkit.cli
    from tracer import LAYERS, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    WORK.mkdir(exist_ok=True)
    text, commands = WORKLOADS[args.workload](args.seed)
    path = WORK / f"{args.workload}-s{args.seed}.dg"
    path.write_text(text)
    prevalidate(dgkit.cli.main, path, text)

    tree = source_digest()
    digest_file = WORK / "digests.json"
    digests = load_json(digest_file)
    argvs = [[str(path) if a == "{file}" else a for a in c.argv] for c in commands]
    keys = [hashlib.sha256("\0".join([tree, text, *a]).encode()).hexdigest() for a in argvs]

    tracer = None
    if args.trace:
        window = argvs[0][argvs[0].index("--window") + 1]
        lo, hi = (int(x) for x in window.split(".."))
        tracer = Tracer((lo, hi))
        tracer.install()
    speed = HostSpeed(tracer)
    setup_s = None if tracer else setup_time(path, speed)

    dgkit_main = dgkit.cli.main  # looked up after install, so a traced run gets the wrapper
    attempted = failed = 0
    walls, scaled, cpus, layers, counts = [], [], [], [], []
    start = time.perf_counter()
    while True:
        wall = cpu = 0.0
        for cmd, argv, key in zip(commands, argvs, keys):
            if tracer:
                tracer.begin_command(attempted)
            speed.start()
            t0, c0 = time.perf_counter(), time.process_time()
            rc, out, err = call(dgkit_main, argv)
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
            speed.stop()
            attempted += 1
            why = judge(cmd, rc, out, err, digests, key)
            if why:
                failed += 1
                print(f"bench: FAILED dgkit {' '.join(argv)}: {why}", file=sys.stderr)
        walls.append(wall)
        scaled.append(wall * speed.scale())
        cpus.append(cpu)
        if tracer:
            self_s, c = tracer.take()
            layers.append(self_s)
            counts.append(c)
        if time.perf_counter() - start + statistics.median(walls) > args.seconds:
            break
    save_json(digest_file, digests)

    exact = True
    if tracer:
        exact = all(c == counts[0] for c in counts)
        counter_file = WORK / "counters.json"
        seen = load_json(counter_file)
        ckey = f"{tree}:{args.workload}:{args.seed}"
        exact = exact and seen.setdefault(ckey, counts[0]) == counts[0]
        save_json(counter_file, seen)
        if not exact:
            print("bench: FAILED per-layer counters differ between passes or runs", file=sys.stderr)
        tracer.write_spans(WORK / f"trace-{args.workload}-s{args.seed}.jsonl")
        med = lambda layer: statistics.median(s[layer] for s in layers)  # noqa: E731
        values = dict(counts[0])
        values.update({f"{layer}.self_s": med(layer) for layer in LAYERS if layer != "parser"})
        values["parser.parse_s"] = med("parser")
        values["cli.cpu_s"] = statistics.median(cpus)
        values["trace.wall_s"] = statistics.median(scaled)
    else:
        values = {
            "wall_s": statistics.median(scaled),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if tracer else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}

    print(f"{args.workload} seed {args.seed}: {attempted} command(s), {failed} failed")
    print("  pass walls: " + " ".join(f"{w:.3f}" for w in walls) + " s measured, "
          + " ".join(f"{w:.3f}" for w in scaled) + " s at reference speed")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    result = {"correct": failed == 0 and exact, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
