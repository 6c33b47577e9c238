#!/usr/bin/env python3
"""Exactness-gated k-means fit benchmark.

Builds the repo's main sources together with the benchmark (perfbench/build.sbt,
once per source change) and runs one workload in a fresh JVM:

    python3 perfbench/run.py --workload local-k1000-d57 --seed 42 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
traced run; the last stdout line is the result JSON. `--workload all` runs every
workload untraced and traced and prints one summary. Results (and, for traced
runs, the spans) go to --out, by default under .bench_build/results/ in the
working directory. Workloads, metrics and bounds are listed in BENCHMARK.json.
"""
import argparse
import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
SOURCES = [ROOT / "src" / "main" / "scala", BENCH / "src",
           BENCH / "build.sbt", BENCH / "project" / "build.properties"]
WORKLOADS = ["local-k1000-d57", "spark-k100"]
DEFAULT_SEED = 42
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Two GC threads, like the two Spark executor threads: on a shared 4-vCPU host
# the run stays steadier when it keeps half the vCPUs free.
JVM_OPTS = ["-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:ParallelGCThreads=2", "-XX:-UsePerfData"]
# The module opens spark-submit normally adds; Spark needs them on JDK 17.
ADD_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "sun.nio.ch",
    "sun.nio.cs", "sun.security.action", "sun.util.calendar"]]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_child(cmd, cwd, timeout, log, env=None):
    """Runs cmd in its own process group, stderr to `log`; returns (code, stdout).
    On timeout the whole group is killed and waited for."""
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "w") as err:
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err,
                                stdin=subprocess.DEVNULL, text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            fail(f"{cmd[0]} timed out after {timeout} s (log: {log})")
    return proc.returncode, out


def source_digest():
    h = hashlib.sha256()
    for base in SOURCES:
        if not base.exists():
            fail(f"missing {base.relative_to(ROOT)}: run from a full checkout of the repo")
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def build(digest):
    """Compiles with sbt unless the sources are unchanged since the last build;
    returns the runtime classpath."""
    stamp, cp_file = BUILD / "build.stamp", BUILD / "classpath.txt"
    if stamp.exists() and cp_file.exists() and stamp.read_text() == digest:
        return cp_file.read_text().strip()
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.offline=true"]
    repos = pathlib.Path.home() / ".sbt" / "repositories"
    if repos.exists():
        cmd += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
    cmd += ["compile", "export Runtime/fullClasspath"]
    env = dict(os.environ, COURSIER_MODE="offline")
    code, out = run_child(cmd, BENCH, BUILD_TIMEOUT_S, BUILD / "logs" / "build.log", env)
    lines = [l for l in out.splitlines() if "classes" in l and not l.startswith("[")]
    if code != 0 or not lines:
        sys.stderr.write(out[-4000:])
        fail(f"build failed (exit {code}); see {BUILD / 'logs' / 'build.log'}")
    cp_file.write_text(lines[-1])
    stamp.write_text(digest)
    return lines[-1]


def llc_size():
    caches = pathlib.Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(caches.glob("index*")):
        try:
            if (idx / "level").read_text().strip() == "3":
                return (idx / "size").read_text().strip()
        except OSError:
            pass
    return "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def expected_metrics(trace):
    spec = ROOT / "BENCHMARK.json"
    if not spec.exists():
        return None
    return {m["name"] for m in json.loads(spec.read_text())["per_layer" if trace else "end_to_end"]}


def run_workload(classpath, digest, workload, seed, seconds, trace, out):
    tag = f"{workload}-seed{seed}-trace{trace}"
    out = pathlib.Path(out) if out else pathlib.Path.cwd() / ".bench_build" / "results" / f"{tag}.json"
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in ("REPRO_SCALE", "SPARK_MASTER")}
    cmd = ["java", *JVM_OPTS, f"-Djava.io.tmpdir={tmp}", f"-Dperfbench.work={BUILD}",
           f"-Dperfbench.llc={llc_size()}", f"-Dperfbench.commit={git_commit()}",
           f"-Dperfbench.source={digest}", *ADD_OPENS, "-cp", classpath, "perfbench.Main",
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(out)]
    log = BUILD / "logs" / f"{tag}.log"
    code, stdout = run_child(cmd, ROOT, RUN_TIMEOUT_S, log, env)
    lines = stdout.rstrip("\n").splitlines()
    if code != 0 or not lines:
        sys.stderr.write(stdout + "".join(open(log).readlines()[-40:]))
        fail(f"{workload} exited with {code}; see {log}")
    result = json.loads(lines[-1])
    want = expected_metrics(trace)
    if want is not None and set(result["metrics"]) != want:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ want)}", 3)
    return lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="result JSON path (default: .bench_build/results/ in the working directory)")
    a = ap.parse_args()

    digest = source_digest()
    classpath = build(digest)
    if a.workload != "all":
        lines, _ = run_workload(classpath, digest, a.workload, a.seed, a.seconds, a.trace, a.out)
        print("\n".join(lines))
        return

    summary, all_ok = {}, True
    for w in WORKLOADS:
        for trace in (0, 1):
            out = a.out and f"{a.out.removesuffix('.json')}-{w}-trace{trace}.json"
            lines, result = run_workload(classpath, digest, w, a.seed, a.seconds, trace, out)
            print("\n".join(lines[:-1]))
            all_ok &= result["correct"]
            summary.setdefault(w, {})["per_layer" if trace else "end_to_end"] = result["metrics"]
    print(json.dumps({"correct": all_ok, "workloads": summary}))


if __name__ == "__main__":
    main()
