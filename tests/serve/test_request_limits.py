"""The HTTP request reader's limits, driven over raw sockets.

A hostile or slow client must get a 4xx or a closed connection: never
a 500, an unbounded read or a connection the server keeps open.
"""

import socket
import time
from urllib.parse import urlsplit

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import server as server_module
from repro.serve.testing import ServerThread


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    with ServerThread(run_dir=tmp_path_factory.mktemp("serve")) as running:
        yield running


def _exchange(server, data: bytes, timeout: float = 10.0) -> bytes:
    """Send ``data``, half-close, and read until the server closes.

    Fails if the server keeps the connection open past ``timeout``; a
    reset after the server hung up counts as closed.
    """
    url = urlsplit(server.url)
    with socket.create_connection((url.hostname, url.port), timeout=timeout) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        deadline = time.monotonic() + timeout
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            except socket.timeout:
                pytest.fail(f"server kept the connection open for {data[:80]!r}")
            if not chunk:
                break
            chunks.append(chunk)
            assert time.monotonic() < deadline
    return b"".join(chunks)


def _status(response: bytes) -> int | None:
    if not response:
        return None
    return int(response.split(b" ", 2)[1])


def _head(*headers: str, request_line: str = "POST /jobs HTTP/1.1") -> bytes:
    return ("\r\n".join([request_line, "Host: x", *headers]) + "\r\n\r\n").encode(
        "latin-1"
    )


class TestRequestLimits:
    def test_well_formed_request_is_served(self, server):
        response = _exchange(server, _head(request_line="GET /healthz HTTP/1.1"))
        assert _status(response) == 200
        assert b'"status": "ok"' in response

    @pytest.mark.parametrize(
        "value", ["-5", "abc", "", "+5", "5_0", "1e3", " 5 5", "\xb2", "0x10"]
    )
    def test_bad_content_length_is_a_400(self, server, value):
        response = _exchange(server, _head(f"Content-Length: {value}"))
        assert _status(response) == 400
        assert b"Content-Length" in response

    def test_conflicting_content_lengths_are_a_400(self, server):
        response = _exchange(
            server, _head("Content-Length: 2", "Content-Length: 3") + b"{}"
        )
        assert _status(response) == 400

    def test_body_above_the_cap_is_a_413(self, server):
        length = server_module._MAX_BODY_BYTES + 1
        response = _exchange(server, _head(f"Content-Length: {length}"))
        assert _status(response) == 413

    def test_body_at_the_cap_is_read(self, server):
        length = server_module._MAX_BODY_BYTES
        response = _exchange(
            server, _head(f"Content-Length: {length}") + b" " * length
        )
        assert _status(response) == 400  # read in full, then not a JSON object
        assert b"invalid JSON body" in response

    def test_too_many_header_lines_are_a_431(self, server):
        headers = [f"X-{i}: {i}" for i in range(server_module._MAX_HEADERS)]
        response = _exchange(server, _head(*headers))  # plus Host: one too many
        assert _status(response) == 431

    def test_overlong_header_line_is_a_431(self, server):
        value = "v" * server_module._MAX_LINE_BYTES
        response = _exchange(server, _head(f"X-Long: {value}"))
        assert _status(response) == 431

    def test_overlong_request_line_is_a_400(self, server):
        target = "/" + "a" * server_module._MAX_LINE_BYTES
        response = _exchange(server, _head(request_line=f"GET {target} HTTP/1.1"))
        assert _status(response) == 400

    def test_header_line_without_colon_is_a_400(self, server):
        response = _exchange(server, _head("no colon here"))
        assert _status(response) == 400

    def test_silent_client_is_disconnected(self, server, monkeypatch):
        monkeypatch.setattr(server_module, "_READ_TIMEOUT_S", 0.3)
        url = urlsplit(server.url)
        for partial in (
            b"GET /healthz HTTP/1.1\r\n",  # head never finished
            _head("Content-Length: 10") + b"{",  # body never finished
        ):
            with socket.create_connection((url.hostname, url.port), timeout=10) as sock:
                sock.sendall(partial)
                start = time.monotonic()
                assert sock.recv(1024) == b""  # closed, without a response
                assert time.monotonic() - start < 5.0


_TOKEN = st.sampled_from(
    ["GET", "POST", "PUT", "/jobs", "/healthz", "/jobs/job-000001/events",
     "HTTP/1.1", "HTTP/1.0", "", " ", "\t", "*"]
)
_HEADER_NAME = st.sampled_from(
    ["Content-Length", "content-length", "Accept", "Host", "Transfer-Encoding",
     "X", ""]
)
_HEADER_VALUE = st.one_of(
    st.sampled_from(["0", "-1", "2", "99999999999999999999", "1.5", " ", "",
                     "text/event-stream", "chunked", "\xb9"]),
    st.text(st.characters(min_codepoint=0, max_codepoint=255), max_size=12),
)


@st.composite
def _request_heads(draw):
    request_line = " ".join(draw(st.lists(_TOKEN, max_size=4)))
    lines = [request_line]
    for _ in range(draw(st.integers(0, 6))):
        separator = draw(st.sampled_from([":", ": ", "", " : "]))
        lines.append(draw(_HEADER_NAME) + separator + draw(_HEADER_VALUE))
    ending = draw(st.sampled_from(["\r\n", "\n"]))
    head = ending.join(line.replace("\r", "").replace("\n", "") for line in lines)
    head += ending * draw(st.integers(0, 2))
    return head.encode("latin-1") + draw(st.binary(max_size=16))


class TestMalformedHeadsFuzz:
    @given(data=_request_heads())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_no_500_and_no_hang(self, server, data):
        status = _status(_exchange(server, data))
        assert status is None or 400 <= status < 500 or status in (200, 202)
