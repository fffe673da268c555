#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run builds the repository's
sources together with the benchmark (perfbench/build.sbt) into the build
directory ($CARGO_TARGET_DIR, default .bench_build); later runs reuse that
build while the sources are unchanged. Each run is one JVM with a fixed heap.
With --trace 1 the spans are written to <build>/traces/<workload>-seed<n>.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = [
    "sssp-patents-probdrop-mixed",
    "wcc-patents-probdrop-mixed",
    "khop-sk-dd",
    "landmark-sk-mixed",
]
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 840


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def source_stamp():
    """Hash of everything the build compiles, so an edit forces a rebuild."""
    h = hashlib.sha256()
    files = [HERE / "build.sbt", HERE / "project" / "build.properties"]
    for base in (ROOT / "src" / "main", HERE / "src" / "main"):
        files += sorted(p for p in base.rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def sbt_env():
    env = dict(os.environ)
    env["COURSIER_MODE"] = "offline"
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = Path.home() / ".sbt" / "repositories"
        if repos.is_file():
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    return env


def classpath(build):
    """Builds when the sources changed; returns the run classpath."""
    stamp_file, cp_file = build / "perfbench.stamp", build / "perfbench.classpath"
    stamp = source_stamp()
    if stamp_file.is_file() and cp_file.is_file() and stamp_file.read_text() == stamp:
        return cp_file.read_text().strip()
    tmp = build / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Everything sbt writes stays in the build directory.
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           f"-J-Djava.io.tmpdir={tmp}", f"-J-Djna.tmpdir={tmp}", "-J-XX:-UsePerfData",
           f"-Dsbt.global.base={build / 'sbt-global'}",
           f"-Dperfbench.target={build / 'perfbench'}",
           "compile", "export Runtime/fullClasspath"]
    print("perfbench: building (sbt compile)", file=sys.stderr)
    try:
        out = subprocess.run(cmd, cwd=HERE, env=sbt_env(), stdin=subprocess.DEVNULL,
                             capture_output=True, text=True, timeout=BUILD_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    lines = [l.strip() for l in out.stdout.splitlines() if l.strip()]
    if out.returncode != 0 or not lines or os.pathsep not in lines[-1]:
        sys.stderr.write(out.stdout[-4000:] + out.stderr[-4000:])
        fail("build failed")
    cp_file.write_text(lines[-1])
    stamp_file.write_text(stamp)
    return lines[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)
    if not (ROOT / "src" / "main" / "scala" / "repro").is_dir() or not (ROOT / "build.sbt").is_file():
        fail(f"no repository sources under {ROOT}; run from the root of a checkout", 2)

    build = build_dir()
    cp = classpath(build)
    start = time.monotonic()
    java = Path(os.environ["JAVA_HOME"]) / "bin" / "java" if "JAVA_HOME" in os.environ else "java"
    jvm_opts = [l.strip() for l in (HERE / "jvm.opts").read_text().splitlines() if l.strip()]
    (build / "tmp").mkdir(parents=True, exist_ok=True)
    cmd = [str(java), *jvm_opts, "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={build / 'tmp'}", f"-Dperfbench.spark.dir={build / 'spark'}",
           "-cp", cp, "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out", str(build / "traces" / f"{args.workload}-seed{args.seed}.json")]
    try:
        out = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_LIMIT_S - (time.monotonic() - start))
    except subprocess.TimeoutExpired:
        fail("run timed out")
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout[-4000:])
        fail(f"benchmark exited with {out.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result: {lines[-1]}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
