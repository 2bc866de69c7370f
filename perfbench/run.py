#!/usr/bin/env python3
"""Repository benchmark: build the simulator from source, run one
workload, check its outputs and print the result as the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sim-hits, sim-coherence, study-sweep, serve-mix (see
perfbench/README.md). With --trace 0 the result carries every
end-to-end metric of BENCHMARK.json; with --trace 1 every per-layer
metric. The last stdout line is one JSON object with exactly the keys
correct, attempted, failed and metrics. A copy of the result, stamped
with the host fingerprint, is written under .bench_build/perfbench/results
for perfbench/compare.py. The exit code is 0 only when every output
checked correct.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = Path(".bench_build") / "perfbench"
WORKLOADS = ("sim-hits", "sim-coherence", "study-sweep", "serve-mix")
DEADLINE_S = 170  # the whole run, build excluded, must end before 180 s

# serve-mix: daemon shape and the number of daemon starts timed for
# setup_s (the median is reported).
SERVE_WORKERS = 2
SERVE_JOBS = 2
SERVE_SETUPS = 15

# Every process under test (perfbench and the daemon) runs with malloc
# pinned to the recycled regime: one arena, a fixed mmap threshold above
# the 512 KB cache arrays of a Machine, and no trimming, so every Machine
# after the warm-up reuses heap that calloc must zero. With glibc's
# defaults (an arena per thread, thresholds that move with the history of
# frees) the regime of a multi-threaded process changed at random between
# starts: on the reference host a cold fft [1,32,128] study in the daemon
# took 12-15 ms in one regime and 56-76 ms in another, and study-sweep's
# setup_s spread 0.29 over ten seeds (0.05 pinned).
MALLOC_ENV = {"GLIBC_TUNABLES": "glibc.malloc.arena_max=1:"
                                "glibc.malloc.mmap_threshold=33554432:"
                                "glibc.malloc.trim_threshold=1099511627776"}

# study-sweep frees ~270 MB from four threads when it exits. On the
# reference KVM host every process in the following ~15 s saw 5-8x
# slower thread wake-ups (serve-mix p50 0.36 ms instead of 0.06 ms), so
# the sweep waits that out before returning instead of handing it to
# whichever run comes next.
SETTLE_AFTER_SWEEP_S = 20


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(f"perfbench: {msg}")
    sys.exit(code)


def build():
    """Configure once, then (re)build perfbench and ccnuma_serve."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no simulator sources next to perfbench/ (src/ is missing)")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE.relative_to(ROOT)), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 3)
    cmd = ["cmake", "--build", str(BUILD), "--target", "perfbench",
           "ccnuma_serve_bin", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed", 3)


def cmake_cache():
    out = {}
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        m = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line)
        if m:
            out[m.group(1)] = m.group(2)
    return out


def fingerprint(load_at_start):
    """What a result depends on besides the code: results are only
    comparable when the host and build keys agree (compare.py)."""
    cache = cmake_cache()
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([cxx, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    try:
        describe = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
            capture_output=True, text=True).stdout.strip() or "unknown"
    except OSError:
        describe = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")) + sorted(HERE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "machine": platform.machine(),
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "CCNUMA_TRACING": cache.get("CCNUMA_TRACING", ""),
        "CCNUMA_CHECK_MUTATE": cache.get("CCNUMA_CHECK_MUTATE", ""),
        "loadavg_at_start": load_at_start,
        "git_describe": describe,
        "source_sha256": digest.hexdigest()[:16],
    }


def run_perfbench(args, timeout):
    """Run the perfbench binary; returns its JSON report."""
    proc = subprocess.run([str(BUILD / "perfbench")] + args,
                          env=dict(os.environ, **MALLOC_ENV),
                          stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"perfbench exited {proc.returncode}", 4)
    return json.loads(lines[-1])


def status_mb(pid, field):
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def roundtrip(sock_path, line, timeout=5.0):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(sock_path)
        s.sendall(line.encode() + b"\n")
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                break
            buf += chunk
        return buf.decode()


class Daemon:
    """One ccnuma_serve on a Unix socket; start() times daemon start to
    the first answered ping."""

    def __init__(self, sock_path):
        self.sock = sock_path
        self.proc = None
        self.stats = ""

    def start(self):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(BUILD / "ccnuma" / "serve" / "ccnuma_serve"),
             f"--unix={self.sock}", f"--workers={SERVE_WORKERS}",
             f"--jobs={SERVE_JOBS}"],
            env=dict(os.environ, **MALLOC_ENV),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        while True:
            try:
                if '"pong"' in roundtrip(self.sock, '{"id":"p","type":"ping"}'):
                    return time.perf_counter() - t0
            except OSError:
                pass
            if self.proc.poll() is not None or time.perf_counter() - t0 > 20:
                raise RuntimeError("ccnuma_serve did not answer a ping")
            time.sleep(0.0005)

    def stop(self):
        if self.proc is None:
            return
        try:
            roundtrip(self.sock, '{"id":"s","type":"shutdown"}')
            _, self.stats = self.proc.communicate(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            _, self.stats = self.proc.communicate()
        self.proc = None
        if os.path.exists(self.sock):
            os.unlink(self.sock)


def serve_mix(args, spans):
    sock = str(BUILD / f"serve-{os.getpid()}.sock")
    setups, daemon = [], None
    try:
        for _ in range(SERVE_SETUPS):
            if daemon:
                daemon.stop()
            daemon = Daemon(sock)
            setups.append(daemon.start())
        rss0 = status_mb(daemon.proc.pid, "VmRSS")
        report = run_perfbench(
            ["serve", "--socket", sock, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)] + spans,
            timeout=DEADLINE_S - 40)
        hwm = status_mb(daemon.proc.pid, "VmHWM")
        pid = daemon.proc.pid
        daemon.stop()
    finally:
        if daemon:
            daemon.stop()
    m = report["metrics"]
    m["setup_s"] = statistics.median(setups)
    m["peak_rss_mb"] = hwm
    stats = re.search(r"served (\d+) \(cache hits (\d+), sims (\d+)\), "
                      r"rejected (\d+), expired (\d+), failed (\d+)",
                      daemon.stats)
    if not stats:
        report["failed"] += 1
        report["failures"].append(f"daemon {pid} printed no stats line")
    else:
        served, hits, sims, rejected, expired, failed = map(int, stats.groups())
        m["serve.sims_run"] = sims
        m["serve.rejected"] = rejected + expired + failed
    m["sim.rss_per_machine_mb"] = (hwm - rss0) / SERVE_JOBS
    return report


def main():
    load_at_start = os.getloadavg()[0]
    started_unix = time.time()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.chdir(ROOT)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    build()
    started = time.monotonic()  # the deadline covers the run, not the build
    fp = fingerprint(load_at_start)

    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = ["--spans", str(results / f"{stem}.spans.json")] if args.trace else []
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace)]
    left = DEADLINE_S - (time.monotonic() - started)
    if args.workload in ("sim-hits", "sim-coherence"):
        report = run_perfbench(["sim", "--workload", args.workload] + common +
                            ["--expected", str(HERE / "expected.json")] + spans,
                            timeout=left)
    elif args.workload == "study-sweep":
        report = run_perfbench(["sweep"] + common +
                            ["--expected", str(HERE / "expected.json")] + spans,
                            timeout=left)
        time.sleep(SETTLE_AFTER_SWEEP_S)
    else:
        report = serve_mix(args, spans)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    raw = report["metrics"]
    metrics = {}
    for spec in wanted:
        # A layer this workload does not exercise reads 0 (README.md).
        metrics[spec["name"]] = {"value": float(raw.get(spec["name"], 0.0)),
                                 "unit": spec["unit"]}
    attempted, failed = int(report["attempted"]), int(report["failed"])
    result = {"correct": failed == 0, "attempted": max(attempted, 1),
              "failed": failed, "metrics": metrics}

    for line in report.get("failures", []):
        log("FAILED:", line)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"error_frac={failed / max(attempted, 1):.6g} "
          f"samples={int(raw.get('samples', 0))} "
          f"light_samples={int(raw.get('light_samples', 0))} "
          f"saturate_samples={int(raw.get('saturate_samples', 0))}")
    print("# fingerprint " + json.dumps(fp, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    (results / f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "seconds": args.seconds, "started_unix": started_unix,
         "ended_unix": time.time(), "fingerprint": fp, "raw": raw,
         "result": result}, indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
