"""A stdlib HTTP load driver: closed loop, one connection per request."""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

TIMEOUT_S = 60.0


def free_port(host: str = "127.0.0.1") -> int:
    """A port nothing listens on right now, picked before the server spawns."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]


def call(host: str, port: int, method: str, path: str,
         body: Optional[Dict[str, Any]] = None) -> Tuple[int, Any]:
    """One request on a fresh connection: ``(status, decoded JSON body)``."""
    connection = http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)
    try:
        payload = None if body is None else json.dumps(body).encode()
        headers = {} if payload is None else {"Content-Type": "application/json"}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        status = response.status
    finally:
        connection.close()
    try:
        return status, json.loads(raw)
    except ValueError:
        return status, raw.decode("utf-8", "replace")


def closed_loop(host: str, port: int, stream: Iterator[Dict[str, str]],
                clients: int, seconds: float, min_requests: int,
                check: Callable[[Dict[str, str], Optional[int], Any], Optional[Dict[str, Any]]],
                ) -> Tuple[List[float], List[Dict[str, Any]], int, float]:
    """Run *clients* closed-loop callers until *seconds* have passed and at
    least *min_requests* were sent.

    Every answer goes to *check* as it arrives, outside the timed round
    trip, and is dropped, so the driver's heap (and its garbage collector)
    does not grow with the run.  Returns the round trips in completion
    order, the failure records, the number of requests that got a response,
    and the wall time of the phase.
    """
    lock = threading.Lock()
    latencies: List[float] = []
    failures: List[Dict[str, Any]] = []
    issued = answered = 0
    started = time.perf_counter()
    deadline = started + seconds
    finished = started

    def client() -> None:
        nonlocal issued, answered, finished
        while True:
            with lock:
                if issued >= min_requests and time.perf_counter() >= deadline:
                    return
                issued += 1
                request = next(stream)
            sent = time.perf_counter()
            try:
                status, document = call(host, port, "POST", "/query", request)
            except (OSError, http.client.HTTPException) as error:
                status, document = None, f"{type(error).__name__}: {error}"
            done = time.perf_counter()
            failure = check(request, status, document)
            with lock:
                latencies.append(done - sent)
                answered += status is not None
                finished = max(finished, done)
                if failure:
                    failures.append(failure)

    threads = [threading.Thread(target=client, name=f"bench-client-{index}")
               for index in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies, failures, answered, finished - started
