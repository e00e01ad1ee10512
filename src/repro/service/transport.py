"""Deterministic in-process transport: the wire without the sockets.

:class:`LoopbackConnection` is a :class:`~repro.service.client.ServiceClient`
whose wire is in-process.  It round-trips every request through the real
byte protocol — encode, (optionally faulty) delivery, incremental decode,
dispatch, response encode, client decode — with no threads and no event
loop.  That makes it the crashtest's client: a
:class:`~repro.faults.failpoints.SimulatedCrash` fired at any
``service.*`` crossing propagates synchronously out of ``request()``, and
a :class:`~repro.faults.models.FaultyWire` armed with one network fault
perturbs exactly one exchange, deterministically.

Only the wire is replaced.  ``request`` — resend *with the same request id*
on a fresh session after the seeded backoff schedule, never retry inside an
open BEGIN...COMMIT bracket — is the production client's own loop, so the
server's idempotency cache, not client caution, is what makes retries
exactly-once.
"""

from __future__ import annotations

from repro.errors import ConnectionLostError, TornFrameError
from repro.faults.failpoints import fire
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.core import ServiceCore
from repro.storage.disk import RetryPolicy


class LoopbackConnection(ServiceClient):
    """A client and its server-side session, joined by an in-process wire."""

    def __init__(
        self,
        core: ServiceCore,
        *,
        wire=None,
        retry_policy: RetryPolicy | None = None,
        retry_step_ms: float = 0.0,
        client_key: str = "loopback",
    ) -> None:
        super().__init__(
            "loopback", 0, retry_policy=retry_policy,
            retry_step_ms=retry_step_ms,
        )
        self.core = core
        self.wire = wire
        # Deterministic ids: the crashtest replays the same id sequence at
        # every crash point; distinct connections need distinct keys (the
        # idempotency cache is keyed by request id alone).
        self._client_key = client_key
        self._session = None

    # -- connection management ------------------------------------------------

    @property
    def session(self):
        if self._session is None or self._session.closed:
            self._session = self.core.open_session()
        return self._session

    def drop_connection(self, reason: str = "disconnect") -> None:
        """Simulate the client vanishing (mid-bracket disconnects)."""
        if self._session is not None and not self._session.closed:
            self.core.on_disconnect(self._session, reason)
        self._session = None
        self._bracket_open = False

    def _disconnect(self) -> None:
        self.drop_connection()

    def close(self) -> None:
        if self._session is not None and not self._session.closed:
            self.core.close_session(self._session, "client close")
        self._session = None

    # -- the wire ---------------------------------------------------------------

    def _exchange(self, message: dict) -> dict:
        session = self.session
        frame = protocol.encode_message(message)
        fault = self.wire.next_fault() if self.wire is not None else None

        if fault == "torn_frame":
            frame = self.wire.corrupt(frame)
        deliveries = [frame, frame] if fault == "dup_deliver" else [frame]

        decoder = protocol.FrameDecoder()
        payloads: list[bytes] = []
        try:
            for delivered in deliveries:
                if fault == "slow_loris":
                    for i in range(len(delivered)):
                        payloads.extend(decoder.feed(delivered[i:i + 1]))
                else:
                    payloads.extend(decoder.feed(delivered))
        except TornFrameError:
            # Framing sync is lost: both sides hang up.  The server never
            # saw the request, so the retry is trivially safe.
            self.core.stats.torn_frames += 1
            self.drop_connection("torn frame")
            raise ConnectionLostError("frame torn in flight") from None
        if not payloads:
            # The tear landed in the length header: the server just waits
            # for bytes that never come.  Its idle timeout would reap the
            # session; the client gives up and redials.
            self.drop_connection("stalled frame")
            raise ConnectionLostError("request frame never completed")

        responses = []
        for payload in payloads:
            fire("service.read_frame")
            response = self.core.handle_payload(session, payload)
            fire("service.write_frame")
            responses.append(self._roundtrip(response))

        if fault == "drop_response":
            # The response(s) were computed and sent, but the connection
            # died first — the ambiguous-ack case.  The retry (same id)
            # must hit the idempotency cache, not execute again.
            self.drop_connection("response lost")
            raise ConnectionLostError("connection died before the response")
        return responses[0]

    @staticmethod
    def _roundtrip(response: dict) -> dict:
        """Encode + decode the response, exercising the real codec."""
        decoder = protocol.FrameDecoder()
        payloads = decoder.feed(protocol.encode_message(response))
        assert len(payloads) == 1
        return protocol.decode_message(payloads[0])
