"""Offline stand-in for the chat endpoint: replays fixtures by request hash.

A fixtures document maps the SHA-256 of a request's messages (computed with
:func:`request_hash`, which both this server and fixture builders must use)
to the text the endpoint should answer with.  Unknown requests get the
optional default response or a 404, which the client surfaces as a
transport error.

The server speaks HTTP/1.1 and keeps each client's connection alive, like a
real chat endpoint, so a client pays one TCP handshake and the server one
thread per connection, not per request.  Each answer leaves in one write
with Nagle's algorithm off, so no answer waits on a delayed ACK.  An
HTTP/1.0 request is answered and its connection closed.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from .jsonio import canonical_json
from .llm import ChatMessage

MessageLike = Union[ChatMessage, Mapping[str, str]]


def request_hash(messages: Sequence[MessageLike]) -> str:
    """Stable hash of a chat request's messages (roles and contents only)."""
    normalized = []
    for message in messages:
        if isinstance(message, ChatMessage):
            normalized.append(message.as_dict())
        else:
            normalized.append({"role": message["role"], "content": message["content"]})
    return hashlib.sha256(canonical_json(normalized).encode("utf-8")).hexdigest()


def load_fixtures(path: str | Path) -> tuple[dict[str, str], Optional[str]]:
    """Read a fixtures file: ``{"responses": {hash: text}, "default": text?}``.

    Anything else is a ``ValueError`` naming the key, raised before a server
    could answer with it.
    """
    obj = json.loads(Path(path).read_text("utf-8"))
    if not isinstance(obj, dict):
        raise ValueError(f"fixtures must be a JSON object, got {type(obj).__name__}")
    responses = obj.get("responses", {})
    if not isinstance(responses, dict) or not all(isinstance(t, str) for t in responses.values()):
        raise ValueError("fixtures 'responses' must map strings to strings")
    default = obj.get("default")
    if "default" in obj and not isinstance(default, str):
        raise ValueError(f"fixtures 'default' must be a string, got {default!r}")
    return responses, default


class MockLlmServer:
    """Threaded HTTP server answering chat-completion POSTs from fixtures.

    Use as a context manager in tests; ``url`` is the endpoint to point the
    client at.  ``request_count`` counts the requests it answered, which
    helps assert memoization behavior.  :meth:`stop` ends the connections
    clients still hold open, and their handler threads with them.
    """

    def __init__(
        self,
        responses: Mapping[str, str],
        default: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        # loaded here so that importing groundcap does not load a server stack
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        self.responses = dict(responses)
        self.default = default
        self.request_count = 0
        self._lock = threading.Lock()
        self._connections: set = set()  # accepted, and their handler not yet ended
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # headers and body are buffered into one write, sent at once
            wbufsize = -1
            disable_nagle_algorithm = True

            def do_POST(self) -> None:  # noqa: N802 - http.server API
                try:
                    length = int(self.headers.get("Content-Length", "0"))
                    body = json.loads(self.rfile.read(length).decode("utf-8"))
                    key = request_hash(body["messages"])
                except (ValueError, KeyError, TypeError):
                    # the body may be unread, so the connection cannot go on
                    self.close_connection = True
                    self._reply(400, {"error": "malformed request"})
                    return
                with outer._lock:
                    outer.request_count += 1
                content = outer.responses.get(key, outer.default)
                if content is None:
                    self._reply(404, {"error": f"no fixture for request {key}"})
                    return
                self._reply(200, {"choices": [{"message": {"content": content}}]})

            def _reply(self, status: int, payload: dict) -> None:
                data = json.dumps(payload).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                if self.close_connection:  # HTTP/1.0, asked for, or a malformed request
                    self.send_header("Connection", "close")
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args) -> None:  # silence per-request noise
                pass

        class Server(ThreadingHTTPServer):
            # server_close() joins the handler threads, once stop() has
            # ended the connections they serve
            daemon_threads = False

            def process_request(self, request, client_address) -> None:
                # registered before serve_forever() can return, so that
                # stop() sees every accepted connection
                with outer._lock:
                    outer._connections.add(request)
                super().process_request(request, client_address)

            def shutdown_request(self, request) -> None:
                with outer._lock:
                    outer._connections.discard(request)
                super().shutdown_request(request)

        self._server = Server((host, port), Handler)
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1/chat/completions"

    def start(self) -> "MockLlmServer":
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        import socket

        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout=2)
            self._thread = None
        with self._lock:
            held = list(self._connections)
        for connection in held:
            try:  # the handler sees the end of its stream and returns
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:  # its handler closed it meanwhile
                pass
        self._server.server_close()

    def __enter__(self) -> "MockLlmServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_fixtures(path: str | Path, host: str, port: int) -> MockLlmServer:
    """Start a fixture server for the CLI; caller is responsible for stop()."""
    responses, default = load_fixtures(path)
    return MockLlmServer(responses, default=default, host=host, port=port).start()
