"""Out-of-process benchmark of the groundcap CLI.

    python3 perfbench/run.py --workload build-shared --seed 1 --seconds 25 --trace 0

Generates the workload's inputs from the seed, then runs the real CLI as
child processes: ``python -m groundcap.cli build`` against a
``python -m groundcap.cli mock-llm`` server, or ``python -m groundcap.cli
eval``. Each child starts with a fixed, minimal environment, and its CPU time
and peak RSS are read with ``os.wait4`` on its own pid. After one discarded
warm-up, runs repeat until ``--seconds`` have passed; every run's outputs are
checked (the first one against the generator's expectations or the
evaluation reference, the rest byte for byte against the first).

With ``--trace 0`` the last line of stdout is a JSON object holding every
end-to-end metric (medians over the timed runs), with the times scaled to a
reference host by the gauge in ``perfbench/hostspeed.py``, which runs before
and after the set-up and after every timed process. With ``--trace 1`` half of
the time goes to untraced runs and half to runs under ``perfbench/tracing.py``,
and the object holds the per-layer metrics. ``--out FILE`` also appends the
result, with every sample, to a JSON-lines file that ``compare.py`` reads.
The exit code is non-zero when any output is wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from urllib.parse import urlparse

from hostspeed import BURST, REFERENCE_CPU_MS, REFERENCE_MS, HostSpeed, HostSpeedError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("build-shared", "build-unique-long", "eval-noisy")
# Every time metric is scaled to the reference host by the host-speed gauge
# (hostspeed.py): by the gauge's CPU time, which follows the speed of the cores,
# except videos_per_s on these workloads. Their wall time is round trips between
# processes, like the gauge's own, so it also follows the hypervisor's steal,
# and the gauge's wall time is what tracks it.
WALL_GAUGED = ("build-shared",)
WORKERS = 2  # --max-in-flight: one closed-loop worker per core of a 2-core box
SETUP_REPEATS = 5
MIN_TIMED_RUNS = 3
CHILD_TIMEOUT_S = 60
# No proxy variables: requests scans them on every call, which would put the
# caller's shell into the transport numbers.
CHILD_ENV = {
    "PATH": os.defpath,
    "PYTHONPATH": str(SRC),
    "PYTHONHASHSEED": "0",
    "LC_ALL": "C.UTF-8",
    "LANG": "C.UTF-8",
}


class BenchError(Exception):
    """The benchmark could not run the program at all."""


# ---------------------------------------------------------------------------
# Child processes


def spawn(argv: list[str], cwd: Path, stdout=subprocess.DEVNULL) -> subprocess.Popen:
    stderr = open(cwd / "stderr.log", "ab")
    try:
        return subprocess.Popen(argv, cwd=cwd, env=CHILD_ENV, stdout=stdout, stderr=stderr)
    finally:
        stderr.close()


def reap(proc: subprocess.Popen, timeout: float = CHILD_TIMEOUT_S):
    """Wait for ``proc`` with ``os.wait4``; returns (exit code, rusage)."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_child(argv: list[str], cwd: Path) -> dict:
    """Run one CLI process to completion: wall time (spawn to exit) and rusage."""
    start = time.perf_counter()
    proc = spawn(argv, cwd)
    code, usage = reap(proc)
    wall = time.perf_counter() - start
    return {"code": code, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024}


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "groundcap.cli", *args]


class MockServer:
    """``groundcap mock-llm`` in its own process, on a port it picks itself."""

    def __init__(self, work: Path, probe: list[dict]):
        start = time.perf_counter()
        self.proc = spawn(cli("mock-llm", "--fixtures", "fixtures.json", "--port", "0"),
                          work, stdout=subprocess.PIPE)
        try:
            self.url = self._read_url()
            self._probe(probe)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _read_url(self) -> str:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=60):
                raise BenchError("mock server printed no address within 60 s")
        line = self.proc.stdout.readline().decode()
        words = [w for w in line.split() if w.startswith("http://")]
        if not words:
            raise BenchError(f"mock server did not start: {line!r}")
        return words[0]

    def _probe(self, messages: list[dict]) -> None:
        """Readiness: the first answered request, through a fresh connection."""
        url = urlparse(self.url)
        body = json.dumps({"model": "mock", "messages": messages, "temperature": 0.0})
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=30)
        try:
            conn.request("POST", url.path, body, {"Content-Type": "application/json"})
            response = conn.getresponse()
            response.read()
        finally:
            conn.close()
        if response.status != 200:
            raise BenchError(f"mock server answered the probe with HTTP {response.status}")

    def stop(self) -> float:
        """Stop the server; returns its total CPU seconds."""
        if self.proc.returncode is not None:
            return 0.0
        self.proc.send_signal(signal.SIGINT)
        _code, usage = reap(self.proc, timeout=15)
        self.proc.stdout.close()
        return usage.ru_utime + usage.ru_stime


# ---------------------------------------------------------------------------
# Workloads


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class BuildWorkload:
    kind = "build"
    outputs = ("dataset.jsonl", "rejected.jsonl", "dataset.jsonl.manifest.json")

    def __init__(self, work: Path):
        self.work = work
        self.expected = _jsonl(work / "expected.jsonl")
        self.probe = json.loads((work / "probe.json").read_text())
        self.server: MockServer | None = None
        self.setup_cpu: list[float] = []

    def setup(self) -> list[float]:
        """Launch the mock ``SETUP_REPEATS`` times; the last one stays up."""
        times = []
        for i in range(SETUP_REPEATS):
            server = MockServer(self.work, self.probe)
            times.append(server.setup_s)
            if i + 1 < SETUP_REPEATS:
                self.setup_cpu.append(server.stop())
            else:
                self.server = server
        return times

    def argv(self) -> list[str]:
        return ["build", "--input", "frames.jsonl", "--out", "dataset.jsonl",
                "--rejected", "rejected.jsonl", "--endpoint", self.server.url,
                "--model", "mock", "--max-in-flight", str(WORKERS)]

    def check(self) -> list[str]:
        """Videos whose outcome differs from the generator's expectation."""
        dataset = {r["video_id"]: r for r in _jsonl(self.work / "dataset.jsonl")}
        rejected = {r["video_id"]: [c["code"] for c in r["reasons"]]
                    for r in _jsonl(self.work / "rejected.jsonl")}
        failed = set(dataset) | set(rejected)
        for exp in self.expected:
            vid = exp["video_id"]
            if exp["status"] == "accepted":
                ok = vid not in rejected and dataset.get(vid) == exp["record"]
            else:
                ok = vid not in dataset and rejected.get(vid) == exp["codes"]
            if ok:
                failed.discard(vid)
            else:
                failed.add(vid)
        manifest = json.loads((self.work / "dataset.jsonl.manifest.json").read_text())
        accepted = sum(1 for e in self.expected if e["status"] == "accepted")
        counts = {"videos": len(self.expected), "accepted": accepted,
                  "rejected": len(self.expected) - accepted}
        if manifest.get("counts") != counts:
            failed.update(e["video_id"] for e in self.expected)
        return sorted(failed)

    def check_trace(self, layer: dict) -> list[str]:
        """Model calls and outcome counts the traced run must reproduce."""
        want = {
            "llm.stage2_calls": sum(e["stage2_calls"] for e in self.expected),
            "llm.stage3_calls": sum(e["stage3_calls"] for e in self.expected),
            "llm.none_demotions": sum(e["demotions"] for e in self.expected),
            "llm.rejected_videos": sum(1 for e in self.expected if e["status"] == "rejected"),
            "transport.failed": 0,
        }
        return [f"{k}: traced {layer[k]} != expected {v}" for k, v in want.items() if layer[k] != v]

    def close(self) -> float:
        return self.server.stop() if self.server is not None else 0.0


class EvalWorkload:
    kind = "eval"
    outputs = ("report.json", "report.json.manifest.json")

    def __init__(self, work: Path):
        self.work = work
        # One-video inputs for timing a fresh process's set-up.
        gt = (work / "gt.jsonl").read_text().splitlines()[0]
        vid = json.loads(gt)["video_id"]
        pred = [line for line in (work / "pred.jsonl").read_text().splitlines()
                if json.loads(line)["video_id"] == vid]
        (work / "setup_gt.jsonl").write_text(gt + "\n")
        (work / "setup_pred.jsonl").write_text("".join(line + "\n" for line in pred))

    def setup(self) -> list[float]:
        """Fresh interpreter: import, build first-use state, score one video."""
        argv = cli("eval", "--pred", "setup_pred.jsonl", "--gt", "setup_gt.jsonl",
                   "--out", "setup_report.json")
        runs = [run_child(argv, self.work) for _ in range(SETUP_REPEATS)]
        if any(r["code"] != 0 for r in runs):
            raise BenchError("eval set-up probe failed; see stderr.log")
        return [r["wall_s"] for r in runs]

    def argv(self) -> list[str]:
        return ["eval", "--pred", "pred.jsonl", "--gt", "gt.jsonl", "--out", "report.json"]

    def check(self) -> list[str]:
        """Videos whose scores differ from the reference; all of them if a corpus score does."""
        from reference import mismatches, reference_report

        reference = reference_report((self.work / "pred.jsonl").read_bytes(),
                                     (self.work / "gt.jsonl").read_bytes())
        report = json.loads((self.work / "report.json").read_text())
        videos, corpus = mismatches(report, reference)
        return sorted(reference["per_video"]) if corpus else videos

    def check_trace(self, layer: dict) -> list[str]:
        return []

    def close(self) -> float:
        return 0.0


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# One benchmark run


def percentile_tail(values: list[float], better: str):
    """The highest percentile with at least ten samples beyond it, toward worse."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values, reverse=(better == "higher"))
    k = n - 10
    return 100.0 * k / n, ordered[k - 1]


def describe(name: str, values: list[float], unit: str, better: str) -> str:
    """Median, the worse-side tail percentile and the sample count."""
    tail = percentile_tail(values, better)
    tail_text = f"p{tail[0]:.0f}(10 worse) {tail[1]:.4g}" if tail else "tail n/a (<11 samples)"
    return (f"  {name:<28} {statistics.median(values):>12.4f} {unit:<11} {tail_text:<22} "
            f"n={len(values)}")


class Runner:
    def __init__(self, workload_name: str, seed: int, seconds: float, work: Path):
        sys.path.insert(0, str(SRC))
        sys.path.insert(0, str(HERE))
        from generate import generate

        self.name = workload_name
        self.seed = seed
        self.seconds = seconds
        self.work = work
        info = generate(workload_name, seed, work)
        self.videos = info["videos"]
        self.input_digest = info["digest"]
        self.workload = (EvalWorkload if workload_name == "eval-noisy" else BuildWorkload)(work)
        self.host: HostSpeed | None = None  # the gauge, on untraced runs
        self.bursts: list[tuple[float, float]] = []  # its (wall, CPU) ms per round trip
        self.first_outputs: dict[str, str] | None = None
        self.bad_videos: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def verify_digest(self) -> None:
        table = json.loads((HERE / "digests.json").read_text()).get(self.name, {})
        recorded = table.get(str(self.seed))
        if recorded is not None and recorded != self.input_digest:
            raise BenchError(f"generated inputs for {self.name} seed {self.seed} do not match "
                             f"perfbench/digests.json ({self.input_digest})")

    def one(self, traced: bool = False) -> dict:
        """One build/eval process; checks its outputs and counts failures."""
        for name in self.workload.outputs:
            (self.work / name).unlink(missing_ok=True)
        if traced:
            argv = [sys.executable, str(HERE / "tracing.py"), "spans.json",
                    self.workload.kind, "--", *self.workload.argv()]
        else:
            argv = cli(*self.workload.argv())
        result = run_child(argv, self.work)
        self.attempted += self.videos
        if result["code"] != 0:
            self.failed += self.videos
            self.problems.append(f"{self.workload.kind} exited {result['code']}; see stderr.log")
            return result
        digests = {name: _digest(self.work / name) for name in self.workload.outputs}
        if self.first_outputs is None:
            self.first_outputs = digests
            self.bad_videos = self.workload.check()
            if self.bad_videos:
                self.problems.append(f"{len(self.bad_videos)} videos differ from the expected "
                                     f"outcome, e.g. {self.bad_videos[:3]}")
        if digests != self.first_outputs:
            self.failed += self.videos
            self.problems.append("outputs are not byte-identical across runs of one seed")
        else:
            self.failed += len(self.bad_videos)
        return result

    def e2e(self, runs: list[dict]) -> dict[str, list[float]]:
        """End-to-end samples, one per process, scaled to the reference host."""
        wall = self.name in WALL_GAUGED
        return {
            "videos_per_s": [slowness(r.get("speed"), wall) * self.videos / r["wall_s"]
                             for r in runs],
            "peak_rss_mb": [r["rss_mb"] for r in runs],
            "client_cpu_ms_per_video": [1000 * r["cpu_s"] / self.videos
                                        / slowness(r.get("speed"), False) for r in runs],
        }

    def burst(self) -> None:
        if self.host is not None:
            self.bursts.append(self.host.measure())

    def speed(self) -> dict | None:
        """Host speed over what ran between the last two bursts: their mean."""
        if self.host is None:
            return None
        (wall_a, cpu_a), (wall_b, cpu_b) = self.bursts[-2:]
        return {"host_ms": (wall_a + wall_b) / 2, "host_cpu_ms": (cpu_a + cpu_b) / 2}

    def timed(self, seconds: float, traced: bool) -> tuple[list[dict], list[dict]]:
        runs, traces = [], []
        minimum = 1 if traced else MIN_TIMED_RUNS
        deadline = time.perf_counter() + seconds
        self.burst()
        # Start no run expected to end more than half a run past the deadline.
        while len(runs) < minimum or time.perf_counter() + runs[-1]["wall_s"] / 2 < deadline:
            runs.append(self.one(traced=traced))
            self.burst()
            runs[-1]["speed"] = self.speed()
            if traced and runs[-1]["code"] == 0:
                traces.append(json.loads((self.work / "spans.json").read_text()))
        return runs, traces

    def run(self, trace: bool) -> dict[str, list[float]]:
        """Samples of every end-to-end (or, traced, per-layer) metric."""
        self.verify_digest()
        try:
            if not trace:
                self.host = HostSpeed(WORKERS, CHILD_ENV, self.work)
            self.burst()
            setup = self.workload.setup()
            self.burst()
            setup_slowness = slowness(self.speed(), False)
            self.one()  # warm-up, checked but not timed
            if not trace:
                runs, _ = self.timed(self.seconds, traced=False)
                samples = {**self.e2e(runs), "setup_s": [s / setup_slowness for s in setup]}
                print(f"{self.name} seed {self.seed}: {self.videos} videos per run, "
                      f"{len(runs)} timed runs")
                self.print_host_speed(runs, setup)
                samples["host_ms"] = [r["speed"]["host_ms"] for r in runs]
                samples["host_cpu_ms"] = [r["speed"]["host_cpu_ms"] for r in runs]
                return samples
            plain, _ = self.timed(self.seconds / 2, traced=False)
            traced_runs, traces = self.timed(self.seconds / 2, traced=True)
        finally:
            try:
                mock_cpu = self.workload.close()
            finally:
                if self.host is not None:
                    self.host.close()
        return self.summarise_trace(plain, traced_runs, traces, mock_cpu)

    def print_host_speed(self, runs: list[dict], setup: list[float]) -> None:
        wall = statistics.median(b[0] for b in self.bursts)
        cpu = statistics.median(b[1] for b in self.bursts)
        print(f"  host-speed gauge: {wall:.4f} ms wall, {cpu:.4f} ms CPU per round trip, median "
              f"of {len(self.bursts)} bursts of {BURST} (reference host: {REFERENCE_MS} ms, "
              f"{REFERENCE_CPU_MS} ms); metrics below are scaled to the reference host")
        raw = {
            "videos_per_s": statistics.median(self.videos / r["wall_s"] for r in runs),
            "client_cpu_ms_per_video": statistics.median(1000 * r["cpu_s"] / self.videos
                                                         for r in runs),
            "setup_s": statistics.median(setup),
        }
        print("  unscaled: " + ", ".join(f"{k} {v:.4f}" for k, v in raw.items()))

    def summarise_trace(self, plain, traced_runs, traces, mock_cpu):
        from tracing import layer_metrics

        if not traces:
            raise BenchError("no traced run completed; see stderr.log")
        per_run, self_by_run = [], []
        for run, trace in zip(traced_runs, traces):
            layer, self_s = layer_metrics(trace, run["wall_s"], WORKERS)
            per_run.append(layer)
            self_by_run.append(self_s)
        samples = {key: [r[key] for r in per_run] for key in per_run[0]}
        plain_vps = statistics.median(self.e2e(plain)["videos_per_s"])
        traced_vps = statistics.median(self.e2e(traced_runs)["videos_per_s"])
        samples["trace.overhead_share"] = [1 - traced_vps / plain_vps]
        if isinstance(self.workload, BuildWorkload):
            requests = (1 + len(plain) + len(traced_runs)) * per_run[0]["llm.calls"]
            startup = statistics.median(self.workload.setup_cpu)
            samples["mockllm.cpu_ms_per_request"] = [1000 * (mock_cpu - startup) / requests]
        else:
            samples["mockllm.cpu_ms_per_request"] = [0.0]
        self.problems += self.workload.check_trace(per_run[0])

        print(f"{self.name} seed {self.seed}: traced {len(traced_runs)} runs, untraced "
              f"{len(plain)}; videos/s untraced {plain_vps:.3f}, traced {traced_vps:.3f}")
        totals = {}
        for self_s in self_by_run:
            for layer, value in self_s.items():
                totals[layer] = totals.get(layer, 0.0) + value / len(self_by_run)
        busy = sum(totals.values())
        print("  self time by layer (mean per traced run, share of all self time):")
        for layer, value in sorted(totals.items(), key=lambda kv: -kv[1]):
            print(f"    {layer:<10} {value:9.4f} s  {100 * value / busy:5.1f}%")
        for claim in isolation_claims(self.name, totals, samples):
            print(f"  isolation: {claim}")
        call_n = int(statistics.median(samples["llm.calls"]))
        print(f"  transport.call_ms p50/p99 over n={call_n} calls per run; below, n counts runs")
        return samples


def slowness(speed: dict | None, wall: bool) -> float:
    """How many times slower than the reference host the gauge ran; 1 without one."""
    if speed is None:
        return 1.0
    return speed["host_ms"] / REFERENCE_MS if wall else speed["host_cpu_ms"] / REFERENCE_CPU_MS


def isolation_claims(workload: str, self_s: dict, samples: dict) -> list[str]:
    """Whether each workload still isolates the layer it was built for."""
    top = max(self_s, key=self_s.get)
    busy = sum(self_s.values())
    if workload == "build-shared":
        return [f"largest self time is {top} (want transport)"]
    if workload == "build-unique-long":
        ratio = statistics.median(samples["llm.unique_request_ratio"])
        return [f"largest self time is {top} (want ingest)",
                f"llm.unique_request_ratio {ratio:.3f} (want >= 0.9)"]
    share = (self_s.get("metrics", 0) + self_s.get("ingest", 0)) / busy
    return [f"metrics + ingest hold {100 * share:.1f}% of self time (want > 50%)"]


# ---------------------------------------------------------------------------


def bench(workload: str, seed: int, seconds: float, trace: bool, out: str | None) -> bool:
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=base))
    try:
        runner = Runner(workload, seed, seconds, work)
        samples = runner.run(trace)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
        missing = [m["name"] for m in spec if m["name"] not in samples]
        if missing:
            raise BenchError(f"no samples for {missing}")
        for m in spec:
            print(describe(m["name"], samples[m["name"]], m["unit"], m["better"]))
        metrics = {m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
                   for m in spec}
        correct = runner.failed == 0 and not runner.problems
        for problem in runner.problems:
            print(f"  INCORRECT: {problem}")
        share = runner.failed / runner.attempted
        print(f"  {'failed_share':<28} {share:>12.4f} {'ratio':<11} "
              f"{runner.failed} of {runner.attempted} videos attempted")
        result = {"correct": correct, "attempted": runner.attempted,
                  "failed": runner.failed, "metrics": metrics}
        if out:
            with open(out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, "trace": int(trace),
                                     **result, "samples": samples}) + "\n")
        print(json.dumps(result), flush=True)
        return correct
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="append each result, with its samples, to this JSON-lines file")
    args = parser.parse_args(argv)
    if not (SRC / "groundcap" / "cli.py").is_file():
        print(f"error: no groundcap sources under {SRC}", file=sys.stderr)
        return 2
    ok = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            ok = bench(workload, args.seed, args.seconds, bool(args.trace), args.out) and ok
        except (BenchError, HostSpeedError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
