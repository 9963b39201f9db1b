"""The ``serve`` workload: the compile fabric under a closed loop.

The benchmark starts ``python -m repro serve --role fabric`` with one
worker and a fresh cache directory, then drives it over TCP from
``CLIENTS`` :class:`repro.server.client.ServerClient` connections.  Each
client sends its next request only once the previous reply arrived, as a
build tool waiting on its compile would.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.lang import ast_nodes as ast
from repro.lang.errors import SourceLocation
from repro.lang.generator import random_program
from repro.lang.unparse import unparse
from repro.liw.machine import MachineConfig
from repro.passes.artifacts import PipelineOptions
from repro.pipeline import run_pipeline
from repro.server.client import ServerClient, TransportError

from calibrate import Sampler
from inprocess import summarize
from spans import Tracer

#: Closed-loop clients, one per core of the 2-core host it was sized on.
CLIENTS = 2
#: Requests per second of ``--seconds``: the stream has a fixed length,
#: so every count it yields repeats exactly.
REQUESTS_PER_SECOND = 30
#: Share of malformed requests; every other request belongs to one
#: program of the stream: its fresh compile, one exact repeat and one
#: near-duplicate.
MALFORMED = 0.05
#: The paper-config job every request asks for.
JOB = {
    "strategy": "STOR1", "unroll": 4, "constants_in_memory": True, "k": 8,
    "machine": {"num_fus": 4, "num_modules": 8},
}
RESPONSE_TIMEOUT_S = 60.0
_LOC = SourceLocation(0, 0)


@dataclass(frozen=True)
class Request:
    kind: str  # "fresh", "repeat", "near" or "malformed"
    source: str


def _near_duplicate(program_seed: int, constant: int) -> str:
    """A generated program with one statement inserted after the first
    initialisation, shifting every later value id."""
    tree = random_program(program_seed)
    v0 = ast.VarRef(_LOC, "v0")
    tree.body.body.insert(1, ast.Assign(
        _LOC, v0, ast.BinaryOp(_LOC, "+", v0, ast.IntLit(_LOC, constant))
    ))
    return unparse(tree)


def serve_requests(seed: int, count: int) -> list[Request]:
    """A seeded stream of ``count`` requests.

    The programs are the generated programs ``0 .. programs - 1`` in a
    seeded order: with freely drawn programs the stream's code size
    moved by a third from seed to seed, and with a draw from a pool a
    few larger, ``extra_copies`` still moved by 7 %.  Each program is
    sent fresh, then -- at seeded later points -- once repeated exactly
    and once with one statement inserted; the malformed sources are
    truncated programs of the stream."""
    rng = random.Random(seed)
    programs = round(count * (1 - MALFORMED) / 3)
    keyed: list[tuple[float, Request]] = []
    sources = []
    for program_seed in rng.sample(range(programs), programs):
        source = unparse(random_program(program_seed))
        sources.append(source)
        at = rng.random()
        keyed.append((at, Request("fresh", source)))
        keyed.append((rng.uniform(at, 1.0), Request("repeat", source)))
        keyed.append((rng.uniform(at, 1.0), Request("near", _near_duplicate(
            program_seed, rng.randint(1, 99)
        ))))
    for _ in range(count - 3 * programs):
        source = rng.choice(sources)
        keyed.append((rng.random(),
                      Request("malformed", source[: len(source) // 2])))
    keyed.sort(key=lambda pair: pair[0])
    return [request for _, request in keyed]


# -- the fabric process -------------------------------------------------------


class Fabric:
    """One ``serve --role fabric`` process tree with its cache dir."""

    def __init__(self, root: Path, scratch: Path):
        self.cache_dir = scratch / f"cache-{os.getpid()}-{time.monotonic_ns()}"
        self.cache_dir.mkdir(parents=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--role", "fabric",
             "--fabric-workers", "1", "--port", "0", "--announce",
             "--cache-dir", str(self.cache_dir)],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        )
        self.worker_pids: list[int] = []
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
            line = self.proc.stdout.readline() if ready else ""
            if not line:
                raise RuntimeError("the fabric did not announce itself")
            announce = json.loads(line)
            self.host, self.port = announce["host"], announce["port"]
            self.worker_pids = [w["pid"] for w in announce["workers"]]
            reply = asyncio.run(_call(self.host, self.port, "health"))
            if reply.get("status") != "ok":
                raise RuntimeError(f"fabric health check failed: {reply}")
        except BaseException:
            self.stop()
            raise

    def worker_peak_rss_mb(self) -> float:
        """VmHWM of the (single) worker process, the compiling one."""
        status = Path(f"/proc/{self.worker_pids[0]}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the worker's /proc status")

    def stop(self) -> None:
        """SIGTERM (the fabric drains its workers), then reap all."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        for pid in self.worker_pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        shutil.rmtree(self.cache_dir, ignore_errors=True)


async def _call(host: str, port: int, op: str) -> dict[str, object]:
    client = ServerClient(host, port, rng=random.Random(0))
    try:
        return await client.request(op)
    finally:
        await client.close()


# -- the closed loop ---------------------------------------------------------


@dataclass
class ServeRun:
    #: per request: (reply, client-observed seconds)
    replies: list[tuple[dict[str, object], float] | None] = field(
        default_factory=list
    )
    elapsed: float = 0.0
    retries: int = 0
    stats: dict[str, object] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    #: host speed over the closed loop (see calibrate.py)
    speed: float = 1.0


async def _closed_loop(
    fabric: Fabric, stream: list[Request], tracer: Tracer | None
) -> ServeRun:
    run = ServeRun()
    results: list[tuple[dict[str, object], float] | None] = [None] * len(
        stream
    )
    pending = iter(enumerate(stream))

    async def client_loop(cid: int) -> int:
        client = ServerClient(
            fabric.host, fabric.port, rng=random.Random(cid),
            response_timeout=RESPONSE_TIMEOUT_S,
        )
        try:
            for index, request in pending:
                t0 = time.perf_counter()
                try:
                    reply = await client.compile(
                        request.source, name=f"r{index}", **JOB
                    )
                except (TransportError, asyncio.TimeoutError) as exc:
                    reply = {"status": "transport-failure",
                             "error": repr(exc)}
                t1 = time.perf_counter()
                results[index] = (reply, t1 - t0)
                if tracer is not None:
                    # the two clients interleave, so each request is
                    # recorded whole, as a root span of its own
                    tracer.jobs.append([["server.request", -1, t0, t1]])
            return client.overload_retries + client.transport_retries
        finally:
            await client.close()

    sampler = Sampler()
    sampling = asyncio.ensure_future(sampler.sample_forever())
    t0 = time.perf_counter()
    try:
        retries = await asyncio.gather(
            *(client_loop(cid) for cid in range(CLIENTS))
        )
        run.elapsed = time.perf_counter() - t0
    finally:
        sampling.cancel()
    run.speed = sampler.speed()
    run.retries = sum(retries)
    run.replies = results
    run.stats = (await _call(fabric.host, fabric.port, "stats"))["stats"]
    return run


def drive(
    fabric: Fabric, stream: list[Request], tracer: Tracer | None = None
) -> ServeRun:
    """Send the whole stream through ``fabric``; read its stats and the
    worker's peak RSS afterwards."""
    run = asyncio.run(_closed_loop(fabric, stream, tracer))
    run.peak_rss_mb = fabric.worker_peak_rss_mb()
    return run


# -- the oracle --------------------------------------------------------------


def _cold(source: str) -> dict[str, object] | str:
    """The same job compiled and simulated in this process, cold."""
    options = PipelineOptions(
        machine=MachineConfig(**JOB["machine"]), unroll=JOB["unroll"],
        constants_in_memory=JOB["constants_in_memory"],
        strategy=JOB["strategy"], k=JOB["k"],
    )
    try:
        return summarize(run_pipeline(source, options, inputs=[]))
    except Exception as exc:
        return f"in-process compile raised {exc!r}"


def check(
    stream: list[Request], run: ServeRun, corrupt: bool = False
) -> tuple[dict[str, str], list[dict[str, object]]]:
    """Check every reply; return the failures (request -> reason) and,
    per ``ok`` reply, the in-process summary it was checked against.

    ``corrupt`` feeds a deliberately wrong expectation for the first
    ``ok`` reply (the harness self-test)."""
    failures: dict[str, str] = {}
    cold: dict[str, dict[str, object] | str] = {}
    served: list[dict[str, object]] = []
    for index, (request, answer) in enumerate(zip(stream, run.replies)):
        name = f"r{index}:{request.kind}"
        if answer is None:
            failures[name] = "no reply"
            continue
        reply = answer[0]
        status = reply.get("status")
        if request.kind == "malformed":
            if status != "error":
                failures[name] = f"malformed source answered {status!r}"
            continue
        if status != "ok":
            failures[name] = f"answered {status!r}: {reply.get('error')}"
            continue
        want = cold.get(request.source)
        if want is None:
            want = cold[request.source] = _cold(request.source)
        if isinstance(want, str):
            failures[name] = want
            continue
        got = reply["result"]
        expected = {
            "singles": want["singles"] + (1 if corrupt and not served else 0),
            "multiples": want["multiples"],
            "total_copies": want["total_copies"],
            "residual": want["residual_conflicts"],
        }
        wrong = {f: (got[f], v) for f, v in expected.items() if got[f] != v}
        if wrong:
            failures[name] = f"(served, in-process) differ: {wrong}"
        served.append(want)
    return failures, served
