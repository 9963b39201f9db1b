"""ServerClient retry policy: backoff schedule, overload and transport
retries, give-up behavior — against scripted fake servers."""

import asyncio
import json
import random

import pytest

from repro.liw.machine import MachineConfig
from repro.passes.artifacts import WIRE_OPTIONS, PipelineOptions
from repro.server.client import ServerClient, TransportError
from repro.server.protocol import encode_message, parse_request


def test_backoff_is_exponential_capped_and_jittered():
    client = ServerClient(rng=random.Random(42), backoff_base=0.1,
                          backoff_cap=1.0)
    for attempt in range(8):
        base = min(1.0, 0.1 * 2 ** attempt)
        for _ in range(20):
            delay = client.backoff_delay(attempt)
            assert base * 0.5 <= delay < base * 1.5
    # The server's retry_after hint is a floor.
    assert client.backoff_delay(0, floor=5.0) == 5.0


def test_backoff_deterministic_with_seeded_rng():
    a = ServerClient(rng=random.Random(7))
    b = ServerClient(rng=random.Random(7))
    assert [a.backoff_delay(i) for i in range(5)] == [
        b.backoff_delay(i) for i in range(5)
    ]


class ScriptedServer:
    """A raw TCP server answering from a per-connection script."""

    def __init__(self, replies, *, close_after=None):
        self.replies = list(replies)
        self.close_after = close_after
        self.requests_seen = []
        self.connections = 0
        self._server = None

    async def __aenter__(self):
        self._server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        return self

    async def __aexit__(self, *exc):
        self._server.close()
        await self._server.wait_closed()

    @property
    def port(self):
        return self._server.sockets[0].getsockname()[1]

    async def _handle(self, reader, writer):
        self.connections += 1
        answered = 0
        while True:
            line = await reader.readline()
            if not line:
                break
            request = json.loads(line)
            self.requests_seen.append(request)
            if not self.replies:
                break
            reply = dict(self.replies.pop(0))
            reply.setdefault("id", request.get("id"))
            writer.write(encode_message(reply))
            await writer.drain()
            answered += 1
            if self.close_after is not None and answered >= self.close_after:
                break
        writer.close()


def test_overloaded_responses_are_retried_until_ok():
    async def main():
        replies = [
            {"status": "overloaded", "retry_after_ms": 1.0},
            {"status": "overloaded", "retry_after_ms": 1.0},
            {"status": "ok", "result": {"singles": 1}},
        ]
        async with ScriptedServer(replies) as fake:
            client = ServerClient(
                "127.0.0.1", fake.port, retries=4,
                backoff_base=0.001, rng=random.Random(0),
            )
            reply = await client.request("compile", source="program x...")
            await client.close()
        assert reply["status"] == "ok"
        assert client.overload_retries == 2
        assert len(fake.requests_seen) == 3
        # All three attempts reused one connection (overload retries do
        # not reconnect).
        assert fake.connections == 1

    asyncio.run(main())


def test_overload_retry_budget_exhausted_returns_last_reply():
    async def main():
        replies = [{"status": "overloaded", "retry_after_ms": 1.0}] * 3
        async with ScriptedServer(replies) as fake:
            client = ServerClient(
                "127.0.0.1", fake.port, retries=2,
                backoff_base=0.001, rng=random.Random(0),
            )
            reply = await client.request("compile", source="s")
            await client.close()
        assert reply["status"] == "overloaded"  # surfaced, not raised
        assert client.overload_retries == 2

    asyncio.run(main())


def test_transport_retry_reconnects_after_server_hangup():
    async def main():
        # First connection: served one health reply, then hangs up;
        # the second request hits EOF and must retry on a new one.
        replies = [
            {"status": "ok", "state": "serving"},
            {"status": "ok", "state": "serving"},
        ]
        async with ScriptedServer(replies, close_after=1) as fake:
            client = ServerClient(
                "127.0.0.1", fake.port, retries=2,
                backoff_base=0.001, rng=random.Random(0),
            )
            first = await client.health()
            second = await client.health()
            await client.close()
        assert first["status"] == second["status"] == "ok"
        assert client.transport_retries == 1
        assert fake.connections == 2

    asyncio.run(main())


def test_no_retry_on_error_timeout_or_shutdown():
    async def main():
        for status in ("error", "timeout", "shutting-down"):
            async with ScriptedServer([{"status": status}]) as fake:
                client = ServerClient(
                    "127.0.0.1", fake.port, retries=3,
                    backoff_base=0.001, rng=random.Random(0),
                )
                reply = await client.request("compile", source="s")
                await client.close()
            assert reply["status"] == status
            assert len(fake.requests_seen) == 1  # exactly one attempt
            assert client.overload_retries == 0

    asyncio.run(main())


def test_transport_error_after_retry_budget():
    async def main():
        # A server that never answers: accepts and instantly hangs up.
        async with ScriptedServer([]) as fake:
            client = ServerClient(
                "127.0.0.1", fake.port, retries=2,
                backoff_base=0.001, rng=random.Random(0),
            )
            with pytest.raises(TransportError) as err:
                await client.request("health")
            await client.close()
        assert "3 attempts" in str(err.value)
        assert client.transport_retries == 2

    asyncio.run(main())


def test_connection_refused_is_a_transport_error():
    async def main():
        client = ServerClient(
            "127.0.0.1", 1, retries=1,  # port 1: nothing listens
            backoff_base=0.001, rng=random.Random(0),
        )
        with pytest.raises(TransportError):
            await client.request("health")

    asyncio.run(main())


def test_request_ids_increment():
    async def main():
        replies = [{"status": "ok"}, {"status": "ok"}]
        async with ScriptedServer(replies) as fake:
            client = ServerClient("127.0.0.1", fake.port)
            await client.request("health")
            await client.request("health")
            await client.close()
        ids = [r["id"] for r in fake.requests_seen]
        assert ids == [1, 2]

    asyncio.run(main())


# A non-default value for every wire option; the assertion on the keys
# makes a new wire option fail here until it is given a sample.
WIRE_SAMPLES = {
    "frontend": "python",
    "entry": "f",
    "unroll": 3,
    "constants_in_memory": True,
    "strategy": "STOR2",
    "method": "backtrack",
    "k": 4,
    "seed": 7,
    "max_atom_nodes": 6,
    "runner": "threads",
    "array_layout": "optimize",
}


def test_every_wire_option_round_trips_through_client_and_protocol():
    assert set(WIRE_SAMPLES) == set(WIRE_OPTIONS)
    for spec in WIRE_OPTIONS.values():
        assert WIRE_SAMPLES[spec.wire] != spec.default, spec.wire
    sent = {}

    async def capture(op, **fields):
        sent.update(op=op, **fields)
        return {"status": "ok"}

    client = ServerClient()
    client.request = capture
    machine = {"num_fus": 2, "num_modules": 4}
    asyncio.run(client.compile(
        "def f():\n    write(1)\n", name="rt", machine=machine,
        **WIRE_SAMPLES,
    ))
    job = parse_request(json.loads(json.dumps(sent))).job
    assert job is not None and job.name == "rt"
    assert job.options == PipelineOptions.build(
        machine=MachineConfig(**machine),
        **{WIRE_OPTIONS[w].name: v for w, v in WIRE_SAMPLES.items()},
    )


def test_client_rejects_unknown_compile_options():
    with pytest.raises(TypeError, match="fibers"):
        asyncio.run(ServerClient().compile("program p; begin end.",
                                           fibers=2))
