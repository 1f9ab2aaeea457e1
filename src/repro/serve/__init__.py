"""``repro.serve`` -- the long-running async compile service (``repro-serve``).

Wraps the pure-function :mod:`repro.api` pipeline in a JSON-over-HTTP daemon
with a shared warm compile cache, request coalescing, bounded-queue
backpressure, metrics and graceful drain.  Start it with ``repro-map serve``
or drive the socket-free core directly:

    from repro.serve import CompileService, ServeConfig

    service = CompileService(ServeConfig(workers=2, queue_size=128))
    # inside an event loop:
    #   await service.start()
    #   response = await service.handle("POST", "/v1/compile", {}, payload)
    #   await service.stop()  # stops the forked compile children too

Stdlib-only by design (asyncio + json); see :mod:`repro.serve.server` for
the endpoint list and architecture notes.
"""

from repro.serve.jobs import JOB_STATES, Job, JobTable
from repro.serve.protocol import (
    ProtocolError,
    compile_error_body,
    decode_batch_body,
    decode_compile_body,
    error_body,
)
from repro.serve.server import (
    CompileService,
    Response,
    ServeConfig,
    run_server,
    serve_forever,
)

__all__ = [
    "CompileService",
    "ServeConfig",
    "Response",
    "run_server",
    "serve_forever",
    "Job",
    "JobTable",
    "JOB_STATES",
    "ProtocolError",
    "decode_compile_body",
    "decode_batch_body",
    "compile_error_body",
    "error_body",
]
