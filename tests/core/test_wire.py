"""repro.wire/v1 codec tests + malformed-input hardening (live server).

The hardening half feeds a running :class:`KnowledgeServer` raw bytes —
truncated length prefixes, oversized frames, unknown ops, wrong version
bytes, mid-frame disconnects — and asserts the contract from the
architecture doc: a typed error frame or a clean close, never a dead
worker, and the very next well-formed request succeeds.
"""

import json
import socket
import struct
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.metrics import MetricsRegistry
from repro.core.service.client import ServiceClient
from repro.core.service.ops import ServiceDispatcher, encode_args
from repro.core.service.server import KnowledgeServer
from repro.core.service.service import KnowledgeService
from repro.core.service.shard import (
    KnowledgeShardMap,
    decode_knowledge_id,
    encode_knowledge_id,
)
from repro.core.service.wire import (
    HEADER,
    MAGIC,
    MAX_FRAME_BYTES,
    PROTOCOL,
    WIRE_VERSION,
    TruncatedFrameError,
    WireVersionError,
    decode_body,
    encode_body,
    encode_frame,
    error_body,
    error_code,
    fragment_result,
    join_fragments,
    ok_reply,
    ok_result,
    raise_wire_error,
    read_body,
    read_frame,
    split_fragments,
    write_frame,
)
from repro.core.service.worker import serve_channel
from repro.util.errors import (
    DeadlineError,
    PersistenceError,
    PersistenceUnavailableError,
    ServiceError,
    ServiceOverloadError,
    ServiceTransportError,
    WireProtocolError,
)
from tests.core.test_tcp_service import make_knowledge


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
class TestFraming:
    def test_round_trip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            body = {"id": 7, "op": "ping", "args": {"deep": [1, {"k": "v"}]}}
            sent = write_frame(a, body)
            assert sent == len(encode_frame(body))
            seen = []
            got = read_frame(b, on_bytes=seen.append)
            assert got == body
            assert seen == [sent]  # the byte hook sees header + body
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none_mid_frame_is_truncated(self):
        a, b = socket.socketpair()
        a.close()
        assert read_frame(b) is None  # EOF at a frame boundary
        b.close()

        a, b = socket.socketpair()
        a.sendall(encode_frame({"id": 1, "op": "ping"})[:5])  # header cut short
        a.close()
        with pytest.raises(TruncatedFrameError, match="mid-frame"):
            read_frame(b)
        b.close()

    def test_bad_magic_and_wrong_version(self):
        a, b = socket.socketpair()
        a.sendall(HEADER.pack(b"HTTP", WIRE_VERSION, 2) + b"{}")
        with pytest.raises(WireProtocolError, match="magic"):
            read_frame(b)
        a.close()
        b.close()

        a, b = socket.socketpair()
        a.sendall(HEADER.pack(MAGIC, 9, 2) + b"{}")
        with pytest.raises(WireVersionError) as excinfo:
            read_frame(b)
        assert excinfo.value.version == 9
        a.close()
        b.close()

    def test_length_cap_both_directions(self):
        with pytest.raises(WireProtocolError, match="cap"):
            encode_frame({"blob": "x" * 64}, max_frame=16)
        a, b = socket.socketpair()
        a.sendall(HEADER.pack(MAGIC, WIRE_VERSION, 1 << 30))  # hostile prefix
        with pytest.raises(WireProtocolError, match="refusing to allocate"):
            read_frame(b, max_frame=1024)
        a.close()
        b.close()

    def test_non_json_and_non_object_bodies(self):
        for payload in (b"not json!!", b"[1,2,3]"):
            a, b = socket.socketpair()
            a.sendall(HEADER.pack(MAGIC, WIRE_VERSION, len(payload)) + payload)
            with pytest.raises(WireProtocolError):
                read_frame(b)
            a.close()
            b.close()


# ----------------------------------------------------------------------
# typed error registry
# ----------------------------------------------------------------------
class TestErrorRegistry:
    def test_codes_most_specific_first(self):
        assert error_code(ServiceOverloadError("full")) == "overload"
        assert error_code(ServiceTransportError("reset")) == "unavailable"
        assert error_code(WireProtocolError("junk")) == "bad-request"
        assert error_code(PersistenceError("no row")) == "persistence"
        assert error_code(DeadlineError("late")) == "deadline"
        assert error_code(ServiceError("generic")) == "service"
        assert error_code(RuntimeError("boom")) == "internal"

    def test_explicit_wire_code_wins(self):
        exc = ServiceTransportError("drain", retryable=True)
        exc.wire_code = "draining"
        assert error_code(exc) == "draining"
        exc.wire_code = "made-up"  # unknown codes fall back to the class
        assert error_code(exc) == "unavailable"

    def test_error_body_carries_transient_flag(self):
        assert error_body(ServiceOverloadError("shed"))["retryable"] is True
        assert error_body(ServiceTransportError("x", retryable=False))[
            "retryable"
        ] is False
        assert error_body(PersistenceUnavailableError("wedged", retry_after_s=0.5)) == {
            "code": "persistence", "message": "wedged",
            "retryable": True, "retry_after": 0.5,
        }

    def test_raise_wire_error_reconstructs_class_and_flags(self):
        with pytest.raises(ServiceOverloadError) as excinfo:
            raise_wire_error({"code": "overload", "message": "shed", "retryable": True})
        assert excinfo.value.transient and excinfo.value.wire_code == "overload"

        with pytest.raises(ServiceTransportError) as excinfo:
            raise_wire_error({"code": "quarantine", "message": "w0", "retryable": True})
        assert excinfo.value.transient and excinfo.value.wire_code == "quarantine"

        with pytest.raises(PersistenceError) as excinfo:
            raise_wire_error({"code": "persistence", "message": "gone"})
        assert not excinfo.value.transient

        # A wedged knowledge database travels as a retryable persistence
        # error with the breaker's remaining window as the hint.
        body = error_body(PersistenceUnavailableError("wedged", retry_after_s=0.5))
        with pytest.raises(PersistenceError) as excinfo:
            raise_wire_error(body)
        assert excinfo.value.transient and excinfo.value.retry_after_s == 0.5
        assert excinfo.value.wire_code == "persistence"

        with pytest.raises(ServiceError):  # unknown code -> base class
            raise_wire_error({"code": "from-the-future", "message": "?"})


# ----------------------------------------------------------------------
# ok-reply and fetch_many fragment byte layouts
# ----------------------------------------------------------------------
def _compact(body) -> bytes:
    return json.dumps(body, separators=(",", ":")).encode("utf-8")


#: Strings built from the pieces most likely to confuse a byte-level
#: splitter: the fragment separator, newlines, the object prefix,
#: quotes, backslashes and non-ASCII text.
_tricky_text = st.lists(
    st.sampled_from(
        ["\n", ",\n", ",", '{"data":', '"', "\\", "]}", "é", "ß", "日本", "\u2028", "x"]
    )
    | st.text(max_size=4),
    max_size=6,
).map("".join)

_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _tricky_text
    | st.floats(allow_nan=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_tricky_text, inner, max_size=3),
    max_leaves=8,
)

_knowledge_dicts = st.builds(
    lambda data, gid: {"data": data, "id": gid},
    st.dictionaries(_tricky_text, _values, max_size=5),
    st.integers(min_value=0, max_value=2**62),
)


class TestReplyLayout:
    @given(st.lists(_knowledge_dicts, max_size=6))
    def test_fragments_split_and_join_to_compact_json(self, objects):
        result = fragment_result(objects)
        assert decode_body(result) == {"objects": objects}
        fragments = split_fragments(result)
        assert fragments == [_compact(obj) for obj in objects]
        assert join_fragments(fragments) == _compact({"objects": objects})

    @given(st.lists(_knowledge_dicts, min_size=1, max_size=4), st.data())
    def test_reordered_fragments_equal_compact_json(self, objects, data):
        order = data.draw(
            st.lists(st.integers(0, len(objects) - 1), max_size=8)
        )  # duplicates included, as fetch_many allows
        fragments = split_fragments(fragment_result(objects))
        assert join_fragments([fragments[i] for i in order]) == _compact(
            {"objects": [objects[i] for i in order]}
        )

    @given(st.integers() | _tricky_text | st.none(), _values)
    def test_ok_reply_is_the_compact_response(self, request_id, result):
        encoded = _compact(result)
        body = ok_reply(request_id, encoded)
        assert body == _compact({"id": request_id, "ok": True, "result": result})
        assert ok_result(body, request_id) == encoded

    def test_other_replies_do_not_match_the_ok_layout(self):
        assert ok_result(_compact({"id": 7, "ok": True, "result": {}}), 8) is None
        error = {"id": 7, "ok": False, "error": {"code": "service"}}
        assert ok_result(_compact(error), 7) is None
        assert ok_result(encode_body({"ok": True, "id": 7, "result": {}}), 7) is None

    def test_split_rejects_another_layout(self):
        with pytest.raises(WireProtocolError):
            split_fragments(_compact({"ids": [1, 2]}))
        assert split_fragments(fragment_result([])) == []


# ----------------------------------------------------------------------
# malformed input against a live server (S2 hardening)
# ----------------------------------------------------------------------
@pytest.fixture()
def server(tmp_path):
    srv = KnowledgeServer(
        tmp_path / "store", shards=2, worker_processes=2,
        metrics=MetricsRegistry(), request_timeout_s=10.0,
    )
    srv.start()
    yield srv
    srv.close()


def _connect(server):
    sock = socket.create_connection((server.host, server.port), timeout=10.0)
    sock.settimeout(10.0)
    return sock


def _roundtrip(sock, body):
    write_frame(sock, body)
    return read_frame(sock)


def _expect_close(sock):
    """The server hung up: clean FIN or RST (unread bytes pending) both
    count — the contract is the typed frame *then* a close, not which
    TCP teardown the kernel picks."""
    try:
        assert read_frame(sock) is None
    except (ConnectionResetError, TruncatedFrameError):
        pass


def _assert_server_healthy(server):
    """Every worker still runs and a fresh connection serves requests."""
    assert all(worker.alive for worker in server.workers)
    with _connect(server) as sock:
        response = _roundtrip(sock, {"id": 99, "op": "ping", "args": {}})
        assert response == {"id": 99, "ok": True, "result": {}}


class TestMalformedInputHardening:
    def test_truncated_length_prefix(self, server):
        with _connect(server) as sock:
            sock.sendall(HEADER.pack(MAGIC, WIRE_VERSION, 64)[:6])
        _assert_server_healthy(server)

    def test_mid_frame_disconnect(self, server):
        with _connect(server) as sock:
            sock.sendall(HEADER.pack(MAGIC, WIRE_VERSION, 400) + b'{"id"')
        _assert_server_healthy(server)

    def test_oversized_frame_gets_typed_error_then_close(self, server):
        with _connect(server) as sock:
            sock.sendall(HEADER.pack(MAGIC, WIRE_VERSION, MAX_FRAME_BYTES + 1))
            response = read_frame(sock)
            assert response["ok"] is False
            assert response["error"]["code"] == "frame-too-large"
            _expect_close(sock)
        _assert_server_healthy(server)

    def test_wrong_version_byte_gets_version_mismatch(self, server):
        with _connect(server) as sock:
            sock.sendall(HEADER.pack(MAGIC, 42, 2) + b"{}")
            response = read_frame(sock)
            assert response["ok"] is False
            assert response["error"]["code"] == "version-mismatch"
            _expect_close(sock)
        _assert_server_healthy(server)

    def test_invalid_json_escape_gets_bad_frame(self, server):
        """A body whose JSON error message happens to contain "cap"
        (``Invalid \\escape``) is a bad frame, not an over-cap one."""
        body = rb'{"id":1,"op":"ping","args":{"a":"\q"}}'
        with _connect(server) as sock:
            sock.sendall(HEADER.pack(MAGIC, WIRE_VERSION, len(body)) + body)
            response = read_frame(sock)
            assert response["ok"] is False
            assert response["error"]["code"] == "bad-frame"
            _expect_close(sock)
        _assert_server_healthy(server)

    def test_garbage_bytes_get_bad_frame(self, server):
        with _connect(server) as sock:
            sock.sendall(b"GET / HTTP/1.1\r\n\r\n" + b"\x00" * 16)
            response = read_frame(sock)
            assert response["ok"] is False
            assert response["error"]["code"] == "bad-frame"
        _assert_server_healthy(server)

    def test_unknown_op_is_typed_and_keeps_connection(self, server):
        with _connect(server) as sock:
            response = _roundtrip(sock, {"id": 1, "op": "explode", "args": {}})
            assert response["ok"] is False
            assert response["error"]["code"] == "unknown-op"
            # same connection keeps serving after the typed error
            assert _roundtrip(sock, {"id": 2, "op": "ping", "args": {}})["ok"]
        _assert_server_healthy(server)

    def test_malformed_args_are_bad_request(self, server):
        with _connect(server) as sock:
            response = _roundtrip(
                sock, {"id": 3, "op": "load", "args": {"wrong": "shape"}}
            )
            assert response["ok"] is False
            assert response["error"]["code"] == "bad-request"
            # Well-formed JSON whose knowledge lost a summary field (a
            # frame corrupted in flight can look like this) is one too.
            args = encode_args("save", [make_knowledge(1)])
            del args["knowledge"]["data"]["summaries"][0]["bw_mean"]
            response = _roundtrip(sock, {"id": 4, "op": "save", "args": args})
            assert response["ok"] is False
            assert response["error"]["code"] == "bad-request"
        _assert_server_healthy(server)

    def test_hello_negotiation_rejects_alien_protocol(self, server):
        with _connect(server) as sock:
            response = _roundtrip(
                sock,
                {"id": 4, "op": "hello", "args": {"protocols": ["sprockets/v9"]}},
            )
            assert response["ok"] is False
            assert response["error"]["code"] == "version-mismatch"
        with _connect(server) as sock:
            response = _roundtrip(
                sock, {"id": 5, "op": "hello", "args": {"protocols": [PROTOCOL]}}
            )
            assert response["ok"] is True
            assert response["result"]["protocol"] == PROTOCOL
            assert response["result"]["shards"] == 2

    def test_abuse_volley_never_kills_a_worker(self, server):
        """The whole rogues' gallery in sequence against one server."""
        volleys = [
            HEADER.pack(MAGIC, WIRE_VERSION, 64)[:3],
            HEADER.pack(MAGIC, 7, 2) + b"{}",
            HEADER.pack(MAGIC, WIRE_VERSION, 12) + b"half a body",
            b"\xff" * 32,
            struct.pack("!4sBI", MAGIC, WIRE_VERSION, 4) + b"null",
        ]
        for volley in volleys:
            with _connect(server) as sock:
                sock.sendall(volley)
                try:
                    read_frame(sock)
                except (WireProtocolError, OSError):
                    pass
        _assert_server_healthy(server)


@pytest.fixture()
def worker_channel(tmp_path):
    """The front end's end of one channel served by a worker's loop."""
    service = KnowledgeService(KnowledgeShardMap(tmp_path / "store", 2), queue_size=1)
    parent, child = socket.socketpair()
    parent.settimeout(10.0)
    thread = threading.Thread(
        target=serve_channel, args=(child, ServiceDispatcher(service)), daemon=True
    )
    thread.start()
    yield parent
    parent.close()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    service.close()


class TestWorkerChannelHardening:
    """The worker hop answers framing faults like the front end does."""

    @pytest.mark.parametrize("frame, code", [
        (HEADER.pack(MAGIC, 42, 2) + b"{}", "version-mismatch"),
        (HEADER.pack(MAGIC, WIRE_VERSION, MAX_FRAME_BYTES + 1), "frame-too-large"),
        (b"GET / HTTP/1.1\r\n\r\n" + b"\x00" * 16, "bad-frame"),
    ], ids=["wrong-version", "over-cap", "garbage"])
    def test_framing_fault_gets_typed_error_then_close(self, worker_channel, frame, code):
        worker_channel.sendall(frame)
        response = read_frame(worker_channel)
        assert response["ok"] is False
        assert response["error"]["code"] == code
        _expect_close(worker_channel)

    def test_unknown_op_is_typed_and_keeps_channel(self, worker_channel):
        response = _roundtrip(worker_channel, {"id": 1, "op": "explode", "args": {}})
        assert response["ok"] is False
        assert response["error"]["code"] == "unknown-op"
        assert "unknown service operation" in response["error"]["message"]
        assert _roundtrip(worker_channel, {"id": 2, "op": "ping", "args": {}}) == {
            "id": 2, "ok": True, "result": {},
        }


class TestRelayedClientFrames:
    def test_client_frames_equal_the_compact_encoding(self, server):
        """Relayed and reassembled replies are byte-for-byte what
        encoding the decoded response gives: no whitespace from the
        fragment layout leaks to a client."""
        objs = [make_knowledge(m, host=f"n{m}") for m in range(6)]
        for k in objs:
            k.parameters["note"] = 'a,\nb "q" {"data": 日本'
        with ServiceClient.open(
            f"knowledge+tcp://{server.host}:{server.port}/"
        ) as client:
            ids = client.save_many(objs)
        by_shard: dict[int, list[int]] = {}
        for gid in ids:
            by_shard.setdefault(decode_knowledge_id(gid)[1], []).append(gid)
        assert set(by_shard) == {0, 1}  # two shards, one per worker
        missing = encode_knowledge_id(999_999, 0)
        requests = [
            ("load", {"id": ids[0]}, True),
            ("fetch_many", {"ids": [ids[3], ids[0], ids[3], ids[1]]}, True),
            ("fetch_many", {"ids": by_shard[1] + by_shard[1][:1]}, True),
            ("fetch_many", {"ids": []}, True),
            ("exists", {"id": ids[2]}, True),
            ("load", {"id": missing}, False),
            ("fetch_many", {"ids": [ids[0], missing]}, False),
        ]
        with _connect(server) as sock:
            for request_id, (op, args, ok) in enumerate(requests, start=1):
                write_frame(sock, {"id": request_id, "op": op, "args": args})
                body = read_body(sock)
                frame = HEADER.pack(MAGIC, WIRE_VERSION, len(body)) + body
                response = decode_body(body)
                assert encode_frame(response) == frame, op
                assert response["id"] == request_id
                assert response["ok"] is ok, response
                if ok and op == "fetch_many":
                    got = [obj["id"] for obj in response["result"]["objects"]]
                    assert got == args["ids"]
                    notes = {
                        obj["data"]["parameters"]["note"]
                        for obj in response["result"]["objects"]
                    }
                    assert notes <= {'a,\nb "q" {"data": 日本'}
