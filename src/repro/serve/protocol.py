"""Wire protocol of the compile service: JSON bodies in, JSON bodies out.

Requests decode through :func:`repro.api.serialize.request_from_payload`
(the same codec the cache round-trip battery pins as exact) with eager
validation of the router and backend names, so a malformed or unroutable
request is rejected with ``400`` *before* it is admitted to the queue.
Results encode through :func:`repro.api.serialize.result_to_payload` -- the
served bytes are the same payload a direct :func:`repro.api.compile` call
would serialize, which is what lets the loopback tests assert bit-for-bit
parity between the service and the library.

Failures map onto the PR-6 structured-error contract:
:class:`~repro.api.result.CompileError` records travel as their
``summary()`` dict inside an ``{"error": ...}`` envelope, with the HTTP
status derived from the failing phase -- client-side mistakes (``request``,
``load``, ``protocol``) are ``400``; everything that died *inside* the
pipeline (including worker crashes and timeouts) is ``500``.  A failing
compile therefore answers with a structured body, never with a connection
drop.
"""

from __future__ import annotations

from repro.api.pipeline import resolve_backend
from repro.api.registry import UnknownRouterError, resolve_router
from repro.api.request import CompileRequest
from repro.api.result import CompileError
from repro.api.serialize import SerializationError, request_from_payload

#: Failing phases attributable to the caller (HTTP 400); every other phase
#: is a server-side execution failure (HTTP 500).
CLIENT_ERROR_PHASES = ("protocol", "request", "load")


class ProtocolError(ValueError):
    """A malformed wire request (always a client error: HTTP 400)."""


def error_body(message: str, *, kind: str = "ProtocolError", phase: str = "protocol") -> dict:
    """The error envelope for a failure that never became a ``CompileError``."""
    return {
        "ok": False,
        "error": {
            "ok": False,
            "error": kind,
            "phase": phase,
            "message": str(message),
            "traceback_digest": None,
            "attempts": 0,
        },
    }


def compile_error_body(error: CompileError) -> tuple[int, dict]:
    """Map a structured compile failure to ``(HTTP status, error envelope)``."""
    status = 400 if error.phase in CLIENT_ERROR_PHASES else 500
    return status, {"ok": False, "error": error.summary()}


def decode_compile_body(body) -> tuple[CompileRequest, int]:
    """Decode a ``POST /v1/compile`` body into ``(request, priority)``.

    Raises :class:`ProtocolError` (HTTP 400) on anything malformed: bad JSON
    shape, unknown payload keys, a missing circuit source, an unknown router
    or backend name, or a structurally invalid request.  Validation happens
    here, at admission, so the queue only ever holds compilable work.
    """
    if not isinstance(body, dict):
        raise ProtocolError("request body must be a JSON object")
    priority = body.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise ProtocolError(f"priority must be an integer, got {priority!r}")
    payload = {key: value for key, value in body.items() if key != "priority"}
    try:
        request = request_from_payload(payload)
    except SerializationError as exc:
        raise ProtocolError(str(exc)) from exc
    try:
        request.check()
        resolve_router(request.router)
        resolve_backend(request.backend)
    except (ValueError, UnknownRouterError, CompileError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        raise ProtocolError(str(message)) from exc
    return request, priority


def decode_batch_body(body) -> tuple[list[CompileRequest], int]:
    """Decode a ``POST /v1/batch`` body into ``(requests, priority)``.

    The body is ``{"requests": [<request payload>, ...]}`` with an optional
    batch-wide ``priority``; each element validates exactly like a single
    compile body, and the failing index is named in the error message.
    """
    if not isinstance(body, dict):
        raise ProtocolError("batch body must be a JSON object")
    entries = body.get("requests")
    if not isinstance(entries, list) or not entries:
        raise ProtocolError("batch body must carry a non-empty 'requests' list")
    priority = body.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise ProtocolError(f"priority must be an integer, got {priority!r}")
    requests = []
    for index, entry in enumerate(entries):
        try:
            request, _ = decode_compile_body(entry)
        except ProtocolError as exc:
            raise ProtocolError(f"batch request {index}: {exc}") from exc
        requests.append(request)
    return requests, priority
