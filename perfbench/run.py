"""Closed-loop CLI benchmark of ``isomers``.

    python3 perfbench/run.py --workload {enumerate,order,groups} --seed N --seconds S --trace {0,1}

One client sends the workload's seeded request mix (see ``workloads.py``)
as fresh ``python -m isomers.cli`` processes, one after another, so one
child runs at a time.  A *pass* sends the whole mix once.  Passes repeat
until ``--seconds`` have gone by; the first MIN_PASSES are whole, and
after them the run ends at the first request boundary past
``--seconds``.  Each child is accounted for alone with ``os.wait4``
(wall time from spawn to reap, user+sys CPU, ``ru_maxrss``) and its
output is checked.

On a shared host the whole machine runs up to 1.6x slower for minutes at
a time, so times in seconds spread too far from run to run to bound.
Between requests the client therefore also times ``reference.py``, a
fixed workload the program cannot change, and reports times in
*reference units*: divided by the reference's median time over the run.
With ``--trace 0`` the last stdout line holds the end-to-end metrics:

- ``mix_wall_ref``, ``mix_cpu_ref``: the whole mix, one request after
  another: the sum over its requests of each one's mean wall time (mean
  user+sys CPU), in reference units;
- ``latency_p50_ref``: the nearest-rank median of every request's wall
  time, in reference units;
- ``latency_tail_mean_ref``: the mean wall time of the requests beyond
  the tail percentile, in reference units.  The tail percentile is the
  highest one with at least 10 requests beyond it in MIN_PASSES passes
  (``tail_percentile``).  Every pass holds the same requests, so it does
  not drift with the number of passes a run fits in;
- ``peak_rss_mb``: the largest ``ru_maxrss`` of any one child;
- ``setup_s``: median of five set-ups, each generating the inputs from
  the seed and importing ``isomers.cli`` once in a fresh interpreter, so
  that bytecode compilation never lands in a timed request.

The line before it records the run's details: seed, passes, request
counts, the mix time and the latency percentiles in seconds, the requests
beyond the tail, the reference's runs and median time, failures, CPU count,
Python version and git sha.

With ``--trace 1`` one untraced pass runs first, then traced passes (each
request under ``trace_child.py``) until the time is up; the last line
holds the per-layer metrics of ``spans.PER_LAYER``, medians over the
traced passes, and ``trace.overhead_ratio``, traced over untraced pass
wall time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import signal
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from statistics import mean, median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORK = Path(".bench_work")  # relative to ROOT, the working directory of every child
SETUPS = 5
END_TO_END_UNITS = {
    "mix_wall_ref": "ref",
    "mix_cpu_ref": "ref",
    "latency_p50_ref": "ref",
    "latency_tail_mean_ref": "ref",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
MIN_PASSES = 2
REFERENCE_EVERY_S = 0.25  # of request time between two reference runs
REQUEST_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 170.0  # no request starts or runs past this, so a run ends within 180 s


@dataclass
class Response:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    returncode: int | None  # None: killed at the timeout


def spawn(cmd: list[str], env: dict, timeout: float) -> tuple[Response, bytes]:
    """Run one child to completion; account for it alone with ``os.wait4``.

    Returns the accounting and the child's stdout.
    """
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    start = perf_counter()
    pid = os.posix_spawn(sys.executable, cmd, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    status = rusage = None
    timed_out = False
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        if not poller.poll(max(timeout, 0.0) * 1000):
            timed_out = True
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, rusage = os.wait4(pid, 0)
    finally:
        if status is None:  # interrupted: leave no child behind
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            os.wait4(pid, 0)
        os.close(pidfd)
    wall = perf_counter() - start
    stderr = err_path.read_bytes()
    if stderr.strip():
        sys.stderr.write(stderr.decode(errors="replace"))
    resp = Response(
        wall_s=wall,
        cpu_s=rusage.ru_utime + rusage.ru_stime,
        maxrss_kb=rusage.ru_maxrss,
        returncode=None if timed_out else os.waitstatus_to_exitcode(status),
    )
    return resp, out_path.read_bytes()


class Client:
    """The closed-loop client: sends requests, checks responses, keeps tallies."""

    def __init__(self, t0: float, env: dict, digests: dict[str, str], kauffmann):
        self.t0 = t0
        self.env = env
        self.digests = digests
        self.kauffmann = kauffmann
        self.attempted = 0
        self.failures: list[str] = []
        self.references: list[Response] = []  # reference runs between untraced requests

    def time_left(self) -> float:
        return RUN_DEADLINE_S - (perf_counter() - self.t0)

    def request(self, argv: tuple[str, ...], trace_out: Path | None = None) -> tuple[Response, int]:
        """Send one request and check the response; returns it with its stdout size."""
        if trace_out is None:
            cmd = [sys.executable, "-m", "isomers.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "trace_child.py"), str(trace_out), *argv]
        resp, stdout = spawn(cmd, self.env, min(REQUEST_TIMEOUT_S, self.time_left()))
        self.attempted += 1
        if resp.returncode is None:
            reason = "timed out"
        else:
            reason = checks.check(argv, resp.returncode, stdout, self.digests, self.kauffmann)
        if reason is not None:
            self.failures.append(f"{' '.join(argv)}: {reason}")
            print(f"FAILED {' '.join(argv)}: {reason}", file=sys.stderr)
        return resp, len(stdout)

    def reference(self) -> None:
        """Time one run of the fixed reference workload (``reference.py``)."""
        cmd = [sys.executable, "-I", str(HERE / "reference.py")]
        resp, stdout = spawn(cmd, self.env, min(REQUEST_TIMEOUT_S, self.time_left()))
        if resp.returncode != 0 or stdout.strip() != str(reference.CHECKSUM).encode():
            raise SystemExit(f"the reference workload failed (exit {resp.returncode}, stdout {stdout[:80]!r})")
        self.references.append(resp)

    def run_pass(self, mix: workloads.Mix, index: int, traced: bool = False, stop_at: float | None = None):
        """One pass over the mix: (wall s, {argv: response}, layer totals or None).

        An untraced pass also runs the reference workload between requests,
        once every REFERENCE_EVERY_S of request time; the wall s is the
        requests' alone.  No request starts after ``stop_at``.
        """
        totals = spans.LayerTotals() if traced else None
        trace_out = WORK / "trace.json"
        responses = {}
        since_reference = REFERENCE_EVERY_S
        for argv in mix.pass_order(index):
            if stop_at is not None and perf_counter() >= stop_at:
                break
            if self.time_left() <= 0:
                raise SystemExit(f"run deadline of {RUN_DEADLINE_S} s reached inside pass {index}")
            if not traced and since_reference >= REFERENCE_EVERY_S:
                self.reference()
                since_reference = 0.0
            resp, stdout_bytes = self.request(argv, trace_out if traced else None)
            responses[argv] = resp
            since_reference += resp.wall_s
            if traced and trace_out.exists():
                totals.add(json.loads(trace_out.read_text()), stdout_bytes)
                trace_out.unlink()
        return sum(r.wall_s for r in responses.values()), responses, totals


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(pct / 100 * len(ordered)) - 1, 0)]


def tail_mean(values: list[float], pct: float) -> float:
    """Mean of the values beyond the nearest-rank ``pct`` percentile."""
    ordered = sorted(values)
    beyond = len(ordered) - max(math.ceil(pct / 100 * len(ordered)), 1)
    return mean(ordered[-beyond:]) if beyond else ordered[-1]


def tail_percentile(requests_per_pass: int) -> int:
    """The highest whole percentile with at least 10 requests beyond it in MIN_PASSES passes.

    It is fixed per workload, not taken from the run's own request count,
    so that a faster program fitting more passes into a run reports the
    same percentile.
    """
    return math.floor(100 * (1 - 10 / (MIN_PASSES * requests_per_pass)))


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup(workload: str, seed: int, env: dict) -> tuple[workloads.Mix, float]:
    """Generate the inputs and import the CLI once in a fresh interpreter."""
    start = perf_counter()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    mix = workloads.build(workload, seed, WORK)
    # writes the bytecode even where PYTHONDONTWRITEBYTECODE is set
    warm = "import sys; sys.dont_write_bytecode = False; import isomers.cli"
    resp, _ = spawn([sys.executable, "-c", warm], env, REQUEST_TIMEOUT_S)
    if resp.returncode != 0:
        raise SystemExit(f"cannot import isomers.cli from {ROOT / 'src'} (exit {resp.returncode})")
    return mix, perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t0 = perf_counter()
    os.chdir(ROOT)
    if not (ROOT / "src" / "isomers" / "cli.py").is_file():
        raise SystemExit(f"no isomers sources under {ROOT / 'src'}")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    setup_times = []
    for _ in range(SETUPS):
        mix, elapsed = setup(args.workload, args.seed, env)
        setup_times.append(elapsed)

    sys.path.insert(0, str(ROOT / "src"))
    from isomers.catalog import kauffmann_count
    from isomers.partitions import parse_partition

    client = Client(t0, env, checks.load_digests(), lambda text: kauffmann_count(parse_partition(text, 8)))
    passes = []  # (wall s, responses) of untraced passes
    traced = []  # (wall s, layer totals) of traced passes
    measure_start = perf_counter()
    index = 0
    while True:
        # after MIN_PASSES whole passes, the run ends on the first request
        # boundary past --seconds, inside a pass if need be
        stop_at = measure_start + args.seconds if not args.trace and index >= MIN_PASSES else None
        wall, responses, totals = client.run_pass(mix, index, bool(args.trace) and index > 0, stop_at)
        if totals is None:
            if responses:
                passes.append((wall, responses))
        else:
            traced.append((wall, totals))
        index += 1
        enough = traced if args.trace else index >= MIN_PASSES
        # a program too slow for two passes before the deadline still gets a result
        if enough and perf_counter() - measure_start >= args.seconds or client.time_left() < 2 * wall:
            break

    responses = [r for _, rs in passes for r in rs.values()]
    by_request = defaultdict(list)
    for _, rs in passes:
        for argv, r in rs.items():
            by_request[argv].append(r)
    latencies = [r.wall_s for r in responses]
    ref_wall = median(r.wall_s for r in client.references)
    ref_cpu = median(r.cpu_s for r in client.references)
    tail_pct = tail_percentile(len(mix.requests))
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "traced_passes": len(traced),
        "requests_per_pass": len(mix.requests),
        "requests_timed": len(latencies),
        "run_wall_s": sum(mean(r.wall_s for r in rs) for rs in by_request.values()),
        "latency_p50_s": nearest_rank(latencies, 50),
        "tail_percentile": tail_pct,
        "latency_tail_s": nearest_rank(latencies, tail_pct),
        "requests_beyond_tail": sum(v > nearest_rank(latencies, tail_pct) for v in latencies),
        "reference_runs": len(client.references),
        "reference_wall_s": ref_wall,
        "failed_ratio": len(client.failures) / client.attempted,
        "failures": client.failures[:20],
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }
    if args.trace:
        per_pass = [t.metrics() for _, t in traced]
        metrics = {name: median(m[name] for m in per_pass) for name, _ in spans.PER_LAYER[:-1]}
        metrics["trace.overhead_ratio"] = median(w for w, _ in traced) / median(w for w, _ in passes)
        units = dict(spans.PER_LAYER)
    else:
        metrics = {
            "mix_wall_ref": info["run_wall_s"] / ref_wall,
            "mix_cpu_ref": sum(mean(r.cpu_s for r in rs) for rs in by_request.values()) / ref_cpu,
            "latency_p50_ref": info["latency_p50_s"] / ref_wall,
            "latency_tail_mean_ref": tail_mean(latencies, tail_pct) / ref_wall,
            "peak_rss_mb": max(r.maxrss_kb for r in responses) / 1024,
            "setup_s": median(setup_times),
        }
        units = END_TO_END_UNITS
    shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"info": info}))
    result = {
        "correct": not client.failures,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
