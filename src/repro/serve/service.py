"""The ``repro serve`` daemon: concurrent query answering over HTTP.

The service is a thin concurrency shell around :mod:`repro.api` — every
answer a client receives is computed by the same facade call (and the same
benchmark workers) the batch CLI uses, so serving changes *when* answers
are computed, never *what* they are.

Architecture: an :mod:`asyncio` accept loop parses requests and routes
them; answer work (synthesis → sandbox → evaluate) is synchronous, so it
is pushed onto a bounded thread pool while the event loop keeps accepting
clients.  The fabric policy the answer threads dispatch under runs each
batch serially on its thread and keeps worker contexts alive
(``keep_contexts=True``):
replayed scenarios, rebuilt applications, and golden selectors are memoized
once per process and shared — concurrently and safely, because
:func:`repro.exec.workers.worker_context` is thread-safe and every
memoized value is treated as immutable.

Endpoints (all JSON):

* ``GET /healthz``   — liveness + uptime + request counters;
* ``GET /scenarios`` — the servable scenario corpus with its query ids;
* ``GET /metrics``   — the full metrics snapshot (the ``span.serve.request.
  seconds`` histogram is what ``repro loadtest`` reads its server-side
  percentiles from);
* ``POST /query``    — answer one ``{"scenario", "query", ...}`` request or
  a ``{"requests": [...]}`` batch.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro import __version__
from repro.api import DEFAULT_MODEL, QuerySpec, answer_queries, list_scenarios
from repro.benchmark.runner import BenchmarkConfig
from repro.exec import ExecutorPolicy, ResultCache
from repro.obs import metrics_document, span
from repro.obs.metrics import default_registry
from repro.serve.http import (
    HttpProtocolError,
    HttpRequest,
    error_document,
    read_request,
    render_response,
)
from repro.utils.validation import ValidationError, require

logger = logging.getLogger(__name__)

#: method routing table; a known path with the wrong method answers 405
ROUTES: Dict[str, str] = {
    "/healthz": "GET",
    "/scenarios": "GET",
    "/metrics": "GET",
    "/query": "POST",
}


@dataclass
class ServiceConfig:
    """Knobs of one service instance."""

    host: str = "127.0.0.1"
    #: 0 lets the OS pick a free port (tests); the bound port is reported
    #: by :attr:`ReproService.port` once started
    port: int = 8642
    #: default model when a request names none
    model: str = DEFAULT_MODEL
    #: concurrent answer threads (clients beyond this queue, not fail)
    workers: int = 4
    #: result cache threaded into the fabric policy (None = no caching)
    cache: Optional[ResultCache] = None
    benchmark: BenchmarkConfig = field(default_factory=BenchmarkConfig)

    def policy(self) -> ExecutorPolicy:
        """The fabric policy answer threads dispatch under.

        A batch answers serially on its answer thread: every cell is local
        computation, so a pool inside one request only adds hand-off cost;
        the service's concurrency is its :attr:`workers` answer threads.
        ``keep_contexts=True`` is the serving difference: batch runs drop
        their memoized scenario state after each sweep, a daemon reuses it
        across requests — that reuse is the service's warm path.
        """
        return ExecutorPolicy.serial(cache=self.cache, keep_contexts=True)


class ReproService:
    """The asyncio HTTP service; one instance per process."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        require(self.config.workers >= 1,
                f"workers must be at least 1, got {self.config.workers}")
        self._server: Optional[asyncio.base_events.Server] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._started_monotonic: Optional[float] = None
        self._policy = self.config.policy()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The actually-bound port (meaningful once started)."""
        require(self._server is not None, "service is not running")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="serve-answer")
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host,
            port=self.config.port)
        self._started_monotonic = time.monotonic()
        logger.info("repro serve listening on %s:%d (workers=%d)",
                    self.config.host, self.port, self.config.workers)

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    async def serve_forever(self) -> None:
        require(self._server is not None, "call start() before serve_forever()")
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await read_request(reader)
            except HttpProtocolError as error:
                writer.write(render_response(
                    error.status, error_document(error.status, str(error))))
                await writer.drain()
                return
            if request is None:
                return
            status, document = await self._dispatch(request)
            writer.write(render_response(status, document))
            await writer.drain()
        except (ConnectionError, OSError):
            # the peer vanished mid-response; nothing to answer
            logger.debug("client connection dropped", exc_info=True)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: HttpRequest):
        registry = default_registry()
        registry.counter("serve.requests").inc()
        with span("serve.request", attrs={"method": request.method,
                                          "path": request.path}):
            try:
                status, document = await self._route(request)
            except HttpProtocolError as error:
                status, document = error.status, error_document(
                    error.status, str(error))
            except ValidationError as error:
                status, document = 400, error_document(400, str(error))
            except Exception as error:  # noqa: BLE001 - a request must never kill the loop
                logger.exception("unhandled error answering %s %s",
                                 request.method, request.path)
                status, document = 500, error_document(
                    500, f"{type(error).__name__}: {error}")
        if status >= 400:
            registry.counter("serve.errors").inc()
        return status, document

    async def _route(self, request: HttpRequest):
        allowed = ROUTES.get(request.path)
        if allowed is None:
            return 404, error_document(
                404, f"no such endpoint: {request.path} "
                     f"(endpoints: {', '.join(sorted(ROUTES))})")
        if request.method != allowed:
            return 405, error_document(
                405, f"{request.path} only supports {allowed}")
        if request.path == "/healthz":
            return 200, self._health_document()
        if request.path == "/scenarios":
            return 200, {"scenarios": list_scenarios()}
        if request.path == "/metrics":
            return 200, metrics_document()
        return await self._handle_query(request)

    # ------------------------------------------------------------------
    def _health_document(self) -> Dict[str, Any]:
        registry = default_registry()
        uptime = (time.monotonic() - self._started_monotonic
                  if self._started_monotonic is not None else 0.0)
        return {
            "status": "ok",
            "version": __version__,
            "uptime_s": round(uptime, 3),
            "requests": registry.counter("serve.requests").value,
            "errors": registry.counter("serve.errors").value,
            "answers": registry.counter("serve.answers").value,
            "workers": self.config.workers,
        }

    def _parse_query_specs(self, document: Any) -> List[QuerySpec]:
        if not isinstance(document, dict):
            raise HttpProtocolError(400, "request body must be a JSON object")
        if "requests" in document:
            items = document["requests"]
            if not isinstance(items, list) or not items:
                raise HttpProtocolError(
                    400, "'requests' must be a non-empty list of query objects")
        else:
            items = [document]
        specs: List[QuerySpec] = []
        for item in items:
            if not isinstance(item, dict) or "scenario" not in item \
                    or "query" not in item:
                raise HttpProtocolError(
                    400, "each query needs 'scenario' and 'query' fields "
                         "(optional: 'model', 'backend')")
            unknown = set(item) - {"scenario", "query", "model", "backend"}
            if unknown:
                raise HttpProtocolError(
                    400, f"unknown query fields: {', '.join(sorted(unknown))}")
            specs.append(QuerySpec(
                scenario=item["scenario"], query=item["query"],
                model=item.get("model", self.config.model),
                backend=item.get("backend")))
        return specs

    def _answer_documents(self, specs: List[QuerySpec]) -> List[Dict[str, Any]]:
        """Answer a batch on an answer thread (synchronous, blocking)."""
        answers = answer_queries(specs, policy=self._policy,
                                 config=self.config.benchmark)
        default_registry().counter("serve.answers").inc(len(answers))
        return [answer.to_document() for answer in answers]

    async def _handle_query(self, request: HttpRequest):
        document = request.json()
        specs = self._parse_query_specs(document)
        batch = isinstance(document, dict) and "requests" in document
        loop = asyncio.get_running_loop()
        documents = await loop.run_in_executor(
            self._pool, self._answer_documents, specs)
        if batch:
            return 200, {"answers": documents}
        return 200, documents[0]


# ---------------------------------------------------------------------------
# in-process spawning (tests, `repro loadtest --spawn`)
# ---------------------------------------------------------------------------
class ServerThread:
    """Run a :class:`ReproService` on a background thread with its own loop.

    The test suite and the load generator's ``--spawn`` mode need a live
    server inside the current process; this wraps the start/stop dance so
    callers get a bound port synchronously and a clean shutdown.
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.service = ReproService(config)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None

    # ------------------------------------------------------------------
    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.service.start())
        except BaseException as error:  # noqa: BLE001 - surfaced to start()
            self._failure = error
            self._ready.set()
            return
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self.service.stop())
            self._loop.close()

    def start(self, timeout: float = 10.0) -> "ServerThread":
        self._thread = threading.Thread(target=self._run, name="repro-serve",
                                        daemon=True)
        self._thread.start()
        require(self._ready.wait(timeout), "server failed to start in time")
        if self._failure is not None:
            raise self._failure
        return self

    @property
    def port(self) -> int:
        return self.service.port

    @property
    def host(self) -> str:
        return self.service.config.host

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
