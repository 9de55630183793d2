import http.client
import json
import random
import re
import socket
import socketserver
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from urllib.parse import urlsplit

import pytest
from hypothesis import given, strategies as st

import groundcap.llm as llm
from groundcap import (
    BoundingBox,
    HttpChatClient,
    MockLlmServer,
    PipelineConfig,
    ResponseRejection,
    SvoFrame,
    SvoRelation,
    aggregate_video,
    build_stage2_prompt,
    build_stage3_prompt,
    parse_stage2_response,
    parse_stage3_response,
    request_hash,
    track_by_language,
)
from groundcap import prompts
from groundcap.llm import TransportError
from groundcap.mockllm import POLL_INTERVAL
from conftest import ScriptedClient, caption_response, category_response

GOLD = __import__("pathlib").Path(__file__).parent / "golden"

FIG_RESPONSE_1 = prompts.AGGREGATION_EXAMPLE_RESPONSE_1


class TestStage2Prompt:
    def test_structure(self):
        messages = build_stage2_prompt("[[`a', `b']]")
        assert [m.role for m in messages] == [
            "system",
            "user",
            "assistant",
            "user",
            "assistant",
            "user",
        ]
        assert messages[-1].content == "SVO:\n[[`a', `b']]"

    def test_empty_block(self):
        messages = build_stage2_prompt("[]")
        assert len(messages) == 6
        assert messages[-1].content.endswith("[]")

    def test_full_prompt_matches_golden_transcription(self):
        messages = build_stage2_prompt("{input_svo}")
        rendered = "\n\n".join(f"[{m.role}]\n{m.content}" for m in messages)
        assert rendered == (GOLD / "stage2_prompt.txt").read_text("utf-8")


class TestStage2Parse:
    def test_fig_response(self):
        result = parse_stage2_response(FIG_RESPONSE_1)
        assert result.plain == "A person is stirring food in a bowl using a spoon"
        assert result.phrase_texts == ["A person", "food in a bowl"]

    def test_no_dictionary(self):
        with pytest.raises(ResponseRejection) as excinfo:
            parse_stage2_response("I cannot answer.")
        assert excinfo.value.code == "no-dictionary"

    def test_no_caption_key(self):
        with pytest.raises(ResponseRejection) as excinfo:
            parse_stage2_response("{`WRONG': `value'}")
        assert excinfo.value.code == "no-caption-key"

    def test_zero_phrases(self):
        with pytest.raises(ResponseRejection) as excinfo:
            parse_stage2_response("{`CAPTION': `A woman dances'}")
        assert excinfo.value.code == "no-phrases"

    def test_malformed_tags(self):
        with pytest.raises(ResponseRejection) as excinfo:
            parse_stage2_response("{`CAPTION': `<p>a <p>cup</p></p>'}")
        assert excinfo.value.code == "malformed-tags"

    def test_tolerates_prose_and_double_quotes(self):
        text = 'Sure! Here you go: {"CAPTION": "<p>A cat</p> sits"} Hope that helps.'
        assert parse_stage2_response(text).phrase_texts == ["A cat"]

    def test_value_with_apostrophe(self):
        text = "{`CAPTION': `<p>a person's hand</p> moves'}"
        assert parse_stage2_response(text).phrase_texts == ["a person's hand"]

    def test_second_key_does_not_leak_into_caption(self):
        text = "{`CAPTION': `<p>a cat</p> sits', `NOTE': `done'}"
        assert parse_stage2_response(text).plain == "a cat sits"

    def test_trailing_comma_tolerated(self):
        assert parse_stage2_response("{`CAPTION': `<p>a cat</p> sits',}").plain == (
            "a cat sits"
        )

    @pytest.mark.parametrize(
        "text",
        [
            "{`SUBCAPTION': `x', `CAPTION': `<p>a cat</p> sits'}",
            "{`NOTE': `see CAPTION: below', `CAPTION': `<p>a cat</p> sits'}",
            '{"score": 0.5, "CAPTION": "<p>a cat</p> sits"}',
            "Sure {here}: {`CAPTION': `<p>a cat</p> sits'}",
            "{`NOTE': {`a': 1}, `CAPTION': `<p>a cat</p> sits'}",
        ],
    )
    def test_key_is_read_only_where_a_key_starts(self, text):
        assert parse_stage2_response(text).plain == "a cat sits"


QUOTINGS = [("`", "'"), ("'", "'"), ('"', '"')]
# a value holding `', `k': ...` reads as its end and a second key, so none does
FAKE_END = re.compile(r"[`'\"]\s*,\s*[`'\"][^`'\"]*[`'\"]\s*:")
DICT_TEXT = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",))),
    st.lists(st.sampled_from(["CAPTION", ": ", "'", "`", ", ", "a"])).map("".join),
).filter(lambda value: not FAKE_END.search(value))
EXTRA_KEYS = st.lists(
    st.tuples(
        st.sampled_from(["NOTE", "REASON", "score", "SUBCAPTION", "CAPTION2"]),
        DICT_TEXT,
        st.sampled_from(QUOTINGS),
    ),
    max_size=2,
)


def quoted_entry(key: str, value: str, quoting: tuple[str, str]) -> str:
    opening, closing = quoting
    return f"{opening}{key}{closing}: {opening}{value}{closing}"


@given(
    value=DICT_TEXT,
    quoting=st.sampled_from(QUOTINGS),
    before=EXTRA_KEYS,
    after=EXTRA_KEYS,
    separator=st.sampled_from([", ", ",", ",\n  "]),
)
def test_dict_value_round_trips_among_other_keys(value, quoting, before, after, separator):
    entries = [quoted_entry(*entry) for entry in before]
    entries.append(quoted_entry("CAPTION", value, quoting))
    entries += [quoted_entry(*entry) for entry in after]
    text = "{" + separator.join(entries) + "}"
    assert llm._extract_dict_value(text, "CAPTION") == value


class TestStage3Prompt:
    def test_matches_first_example(self):
        messages = build_stage3_prompt("person", ["a woman", "her hair"])
        assert len(messages) == 12
        assert messages[-1].content == messages[1].content
        assert messages[-1].content == "Input: `person'\nCategories: [`a woman', `her hair']"

    def test_single_category(self):
        messages = build_stage3_prompt("a cup", ["a mug"])
        assert messages[-1].content == "Input: `a cup'\nCategories: [`a mug']"

    def test_empty_categories_rejected(self):
        with pytest.raises(ValueError):
            build_stage3_prompt("a cup", [])

    def test_full_prompt_matches_golden_transcription(self):
        messages = build_stage3_prompt("{input_object}", ["{input_categories}"])
        rendered = "\n\n".join(f"[{m.role}]\n{m.content}" for m in messages)
        assert rendered == (GOLD / "stage3_prompt.txt").read_text("utf-8")


class TestStage3Parse:
    CATEGORIES = ["a woman", "her hair"]

    def test_valid_category(self):
        assert parse_stage3_response("{`CATEGORY': `a woman'}", self.CATEGORIES) == "a woman"

    def test_none_class(self):
        assert parse_stage3_response("{`CATEGORY': `None'}", self.CATEGORIES) is None

    def test_unknown_category(self):
        with pytest.raises(ResponseRejection) as excinfo:
            parse_stage3_response("{`CATEGORY': `a wom'}", self.CATEGORIES)
        assert excinfo.value.code == "unknown-category"

    def test_whitespace_trimmed(self):
        assert parse_stage3_response("{`CATEGORY': ` a woman '}", self.CATEGORIES) == "a woman"


FRAMES = [SvoFrame(0, (SvoRelation("person", "holding", "spoon"),))]


class TestAggregateVideo:
    def test_success(self):
        client = ScriptedClient([FIG_RESPONSE_1])
        result = aggregate_video(FRAMES, client)
        assert result.phrase_texts == ["A person", "food in a bowl"]
        assert len(client.calls) == 1

    def test_garbage_thrice_with_two_retries_rejects(self):
        client = ScriptedClient(["nope", "nope", "nope"])
        with pytest.raises(ResponseRejection) as excinfo:
            aggregate_video(FRAMES, client, PipelineConfig(retries=2, backoff=0.0))
        assert excinfo.value.code == "no-dictionary"
        assert len(client.calls) == 3

    def test_fail_once_then_succeed(self):
        client = ScriptedClient(["garbage", FIG_RESPONSE_1])
        result = aggregate_video(FRAMES, client, PipelineConfig(retries=2, backoff=0.0))
        assert result.phrase_texts == ["A person", "food in a bowl"]
        assert len(client.calls) == 2

    def test_transport_exhaustion_rejects_with_transport_code(self):
        client = ScriptedClient([TransportError("down")] * 3)
        with pytest.raises(ResponseRejection) as excinfo:
            aggregate_video(FRAMES, client, PipelineConfig(retries=2, backoff=0.0))
        assert excinfo.value.code == "transport"


def obj(frame, phrase):
    return (frame, phrase, BoundingBox(0, 0, 10, 10))


class TestTrackByLanguage:
    def test_beverage_example_maps_three_phrases_to_one_class(self):
        categories = ["a woman", "a beverage"]
        responses = [category_response("a beverage")] * 3
        client = ScriptedClient(responses)
        events = []
        assignments = track_by_language(
            [obj(0, "a green beverage"), obj(1, "a glass"), obj(2, "a glass of green liquid")],
            categories,
            client,
            events=events,
        )
        assert [a.assigned for a in assignments] == ["a beverage"] * 3
        assert events == []

    def test_exact_match_short_circuits(self):
        client = ScriptedClient([])  # any call would fail
        assignments = track_by_language(
            [obj(0, "a woman")], ["a woman", "a cup"], client, events=[]
        )
        assert assignments[0].assigned == "a woman"
        assert client.calls == []

    def test_none_class_for_unrelated_phrase(self):
        client = ScriptedClient([category_response(None)])
        events = []
        assignments = track_by_language(
            [obj(4, "table")], ["a person", "a bowl"], client, events=events
        )
        assert assignments[0].assigned is None
        assert events == []  # the model's own choice demotes nothing

    def test_memoized_per_distinct_phrase(self):
        client = ScriptedClient([category_response("a bowl")])
        objects = [obj(0, "the bowl"), obj(1, "the bowl"), obj(2, "the bowl")]
        assignments = track_by_language(objects, ["a person", "a bowl"], client, events=[])
        assert len(client.calls) == 1
        assert [a.assigned for a in assignments] == ["a bowl"] * 3
        assert [a.frame_index for a in assignments] == [0, 1, 2]

    def test_rejection_downgrades_phrase_with_warning(self):
        client = ScriptedClient(["eh?"] * 3)
        events = []
        config = PipelineConfig(retries=2, backoff=0.0)
        objects = [obj(0, "a thing"), obj(1, "a thing")]  # one phrase, one demotion
        assignments = track_by_language(objects, ["a person"], client, config, events=events)
        assert [a.assigned for a in assignments] == [None, None]
        assert [(e.code, e.source, e.message) for e in events] == [(
            "none-class",
            "groundcap.llm",
            "phrase 'a thing' dropped to None-class: response contains no dictionary "
            "(no-dictionary)",
        )]


class TestRetryPolicy:
    @pytest.fixture
    def sleeps(self, monkeypatch):
        slept = []
        monkeypatch.setattr(llm.time, "sleep", slept.append)
        return slept

    @pytest.mark.parametrize(
        "status, retryable",
        [(400, False), (401, False), (403, False), (404, False), (408, True), (429, True),
         (500, True), (503, True)],
    )
    def test_http_status_decides_retry(self, status, retryable, sleeps):
        with StubServer(lambda n, request: (status, b"{}", {})) as server:
            with closing(HttpChatClient(endpoint=server.url, model="m")) as client:
                with pytest.raises(ResponseRejection) as excinfo:
                    aggregate_video(FRAMES, client, PipelineConfig(retries=2, backoff=0.5))
        assert excinfo.value.code == "transport"
        assert excinfo.value.message == f"HTTP {status} from {server.url}"
        assert len(server.lines) == (3 if retryable else 1)
        assert sleeps == ([0.5, 1.0] if retryable else [])

    def test_redirect_is_not_followed(self, sleeps):
        elsewhere = "http://127.0.0.1:1/v1/chat/completions"
        with StubServer(lambda n, request: (307, b"", {"Location": elsewhere})) as server:
            with closing(HttpChatClient(endpoint=server.url, model="m")) as client:
                with pytest.raises(ResponseRejection) as excinfo:
                    aggregate_video(FRAMES, client, PipelineConfig(retries=2, backoff=0.5))
        assert excinfo.value.code == "transport"
        assert elsewhere in excinfo.value.message
        assert len(server.lines) == 1
        assert sleeps == []

    def test_missing_fixture_fails_after_one_request_without_sleeping(self, sleeps):
        with MockLlmServer({}) as server:
            with closing(HttpChatClient(endpoint=server.url, model="test-model")) as client:
                events = []
                objects = [obj(0, "a thing")]
                assignments = track_by_language(objects, ["a person"], client, events=events)
            assert server.request_count == 1
        assert assignments[0].assigned is None
        assert [(e.code, e.message) for e in events] == [(
            "none-class",
            f"phrase 'a thing' dropped to None-class: HTTP 404 from {server.url} (transport)",
        )]
        assert sleeps == []

    def test_connection_error_is_retried(self, sleeps):
        client = HttpChatClient(
            endpoint="http://127.0.0.1:1/v1/chat/completions", model="m", timeout=0.2
        )
        with pytest.raises(ResponseRejection) as excinfo:
            aggregate_video(FRAMES, client, PipelineConfig(retries=2, backoff=0.5))
        assert excinfo.value.code == "transport"
        assert sleeps == [0.5, 1.0]

    @pytest.mark.parametrize(
        "body, message",
        [
            (
                b"not json",
                "answer from <url> is not JSON: Expecting value: line 1 column 1 (char 0)",
            ),
            (b"[]", "malformed completion envelope: []"),
            (b'{"choices": []}', "malformed completion envelope: {'choices': []}"),
            (
                b'{"choices": [{"message": {}}]}',
                "malformed completion envelope: {'choices': [{'message': {}}]}",
            ),
            (b'{"choices": [{"message": {"content": 5}}]}', "completion content is not text: 5"),
            (
                b'{"choices": [{"message": {"content": null}}]}',
                "completion content is not text: None",
            ),
        ],
    )
    def test_unusable_answer_is_a_transport_failure(self, body, message, sleeps):
        with StubServer(lambda n, request: (200, body, {})) as server:
            with closing(HttpChatClient(endpoint=server.url, model="m")) as client:
                with pytest.raises(ResponseRejection) as excinfo:
                    aggregate_video(FRAMES, client, PipelineConfig(retries=2, backoff=0.5))
        assert excinfo.value.code == "transport"
        assert excinfo.value.message == message.replace("<url>", server.url)
        assert len(server.lines) == 3  # a failed call is not remembered, so each one is sent
        assert sleeps == [0.5, 1.0]

    @pytest.mark.parametrize(
        "answer, message",
        [
            ("{`CAPTION': 5}", "CAPTION value is not a quoted string"),
            ("{`CAPTION': `<p>a cat</p> sits}", "CAPTION value is not closed"),
        ],
    )
    def test_bare_or_unclosed_caption_is_refused(self, answer, message, sleeps):
        # above temperature 0 each attempt is sent, not answered from the memo
        with StubServer(lambda n, request: (200, envelope(answer), {})) as server:
            with closing(HttpChatClient(endpoint=server.url, model="m", temperature=0.5)) as client:
                with pytest.raises(ResponseRejection) as excinfo:
                    aggregate_video(FRAMES, client, PipelineConfig(retries=2, backoff=0.5))
        assert (excinfo.value.code, excinfo.value.message) == ("no-caption-key", message)
        assert len(server.lines) == 3
        assert sleeps == []  # a refused answer is asked again at once

    @pytest.mark.parametrize(
        "answer, message",
        [
            ("{`CATEGORY': None}", "CATEGORY value is not a quoted string"),
            ("{`CATEGORY': `a person}", "CATEGORY value is not closed"),
        ],
    )
    def test_bare_or_unclosed_category_demotes_the_phrase(self, answer, message, sleeps):
        with StubServer(lambda n, request: (200, envelope(answer), {})) as server:
            with closing(HttpChatClient(endpoint=server.url, model="m", temperature=0.5)) as client:
                events = []
                config = PipelineConfig(retries=1)
                objects = [obj(0, "a thing"), obj(1, "a thing")]
                assignments = track_by_language(
                    objects, ["a person"], client, config, events=events
                )
        assert [a.assigned for a in assignments] == [None, None]
        assert [(e.code, e.message) for e in events] == [(
            "none-class",
            f"phrase 'a thing' dropped to None-class: {message} (no-category-key)",
        )]
        assert len(server.lines) == 2

    def test_reset_on_a_fresh_connection_is_not_sent_again(self, sleeps):
        with StubServer(lambda n, request: None) as server:
            with closing(HttpChatClient(endpoint=server.url, model="m")) as client:
                with pytest.raises(ResponseRejection) as excinfo:
                    aggregate_video(FRAMES, client, PipelineConfig(retries=0))
        assert excinfo.value.code == "transport"
        assert excinfo.value.message == (
            f"POST to {server.url} failed: Remote end closed connection without response"
        )
        assert len(server.lines) == 1

    def test_backoff_is_capped(self, sleeps):
        retries = 1100  # 0.5 * 2**1100 s does not fit a float
        client = ScriptedClient([TransportError("down")] * (retries + 1))
        with pytest.raises(ResponseRejection):
            aggregate_video(FRAMES, client, PipelineConfig(retries=retries, backoff=0.5))
        assert sleeps[:9] == [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 60.0, 60.0]
        assert sleeps[9:] == [llm.MAX_BACKOFF_S] * (retries - 9)


def envelope(content: str) -> bytes:
    return json.dumps({"choices": [{"message": {"content": content}}]}).encode()


def echo(n: int, request: dict) -> tuple[int, bytes, dict]:
    """Answers each chat request with the content of its last message."""
    return 200, envelope(request["messages"][-1]["content"]), {}


class StubServer:
    """An HTTP/1.1 server on 127.0.0.1 answering POST number ``n`` with
    ``answer(n, request) -> (status, body, headers)``, or closing the
    connection without an answer when that gives None.

    It keeps connections alive unless ``drop`` is set, in which case it
    closes each one after its first answer without saying so.  ``lines``,
    ``ports`` and ``headers`` hold each request's request line, client port
    and headers, in arrival order.
    """

    def __init__(self, answer, drop: bool = False, delay: float = 0.0):
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        self.lines: list[str] = []
        self.ports: list[int] = []
        self.headers: list[dict] = []
        lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):  # noqa: N802 - http.server API
                request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                with lock:
                    n = len(outer.lines)
                    outer.lines.append(self.requestline)
                    outer.ports.append(self.client_address[1])
                    outer.headers.append(dict(self.headers))
                reply = answer(n, request)
                if reply is None:  # the connection is closed without an answer
                    self.close_connection = True
                    return
                status, body, headers = reply
                threading.Event().wait(delay)  # not time.sleep, which tests count
                self.send_response(status)
                for name, value in headers.items():
                    self.send_header(name, value)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
                self.close_connection = drop

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(
            target=self._server.serve_forever, args=(POLL_INTERVAL,), daemon=True
        )

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1/chat/completions"

    def __enter__(self) -> "StubServer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()


class TestConnection:
    CALLS = [build_stage3_prompt(f"thing {i}", ["a person"]) for i in range(5)]

    def answers(self, client: HttpChatClient) -> list[str]:
        return [client.complete(messages) for messages in self.CALLS]

    def expected(self) -> list[str]:
        return [messages[-1].content for messages in self.CALLS]

    def test_kept_alive_connection_is_reused(self):
        with StubServer(echo) as server:
            with closing(HttpChatClient(endpoint=server.url, model="m")) as client:
                assert self.answers(client) == self.expected()
        assert len(server.lines) == 5
        assert len(set(server.ports)) == 1

    def test_dropped_connection_is_reopened_without_a_retry(self, monkeypatch):
        slept = []
        monkeypatch.setattr(llm.time, "sleep", slept.append)
        with StubServer(echo, drop=True) as server:
            with closing(HttpChatClient(endpoint=server.url, model="m")) as client:
                assert self.answers(client) == self.expected()
        assert len(server.lines) == 5
        assert len(set(server.ports)) == 5
        assert slept == []

    def test_proxy_from_the_environment(self, monkeypatch):
        for name in ("http_proxy", "HTTP_PROXY", "no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        with StubServer(echo) as proxy, StubServer(echo) as target:
            address = proxy.url.split("/")[2]
            monkeypatch.setenv("HTTP_PROXY", f"http://us%3Aer:pw@{address}")
            with closing(HttpChatClient(endpoint=target.url, model="m")) as client:
                assert client.complete(self.CALLS[0]) == self.expected()[0]
            assert proxy.lines == [f"POST {target.url} HTTP/1.1"]
            assert proxy.headers[0]["Proxy-Authorization"] == "Basic dXM6ZXI6cHc="
            assert target.lines == []

            monkeypatch.setenv("NO_PROXY", "127.0.0.1")
            with closing(HttpChatClient(endpoint=target.url, model="m")) as client:
                assert client.complete(self.CALLS[0]) == self.expected()[0]
            assert len(proxy.lines) == 1
            assert target.lines == ["POST /v1/chat/completions HTTP/1.1"]
            assert "Proxy-Authorization" not in target.headers[0]

    def test_https_goes_through_a_tunnel_from_the_proxy_environment(self, monkeypatch):
        for name in ("https_proxy", "HTTPS_PROXY", "no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        heads = []

        def read_head_and_close(listener):  # a proxy that refuses every tunnel by hanging up
            conn, _address = listener.accept()
            with conn:
                head = b""
                while b"\r\n\r\n" not in head and (chunk := conn.recv(4096)):
                    head += chunk
            heads.append(head.decode("ascii").split("\r\n"))

        with socket.create_server(("127.0.0.1", 0)) as listener:
            proxy = threading.Thread(target=read_head_and_close, args=(listener,), daemon=True)
            proxy.start()
            port = listener.getsockname()[1]
            monkeypatch.setenv("https_proxy", f"http://u:p@127.0.0.1:{port}")
            endpoint = llm.JsonEndpoint("https://example.invalid/v1/chat", timeout=5)
            with pytest.raises(TransportError, match="POST to https://example.invalid/v1/chat"):
                endpoint.post(b"{}")
            proxy.join(timeout=5)
            assert not proxy.is_alive()
        assert heads[0][0] == "CONNECT example.invalid:443 HTTP/1.0"
        assert "Proxy-Authorization: Basic dTpw" in heads[0]  # base64 of "u:p"

    def test_proxy_without_a_host_is_named(self, monkeypatch):
        for name in ("https_proxy", "HTTPS_PROXY", "no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("https_proxy", "http://:8080")
        with pytest.raises(ValueError) as excinfo:
            llm.JsonEndpoint("https://example.invalid/v1/chat", timeout=5)
        assert str(excinfo.value) == "https proxy must be a URL, got 'http://:8080'"

    def test_endpoint_must_be_an_http_url(self):
        for endpoint in ("", "127.0.0.1:8080/v1", "ftp://host/v1", "http:///v1"):
            with pytest.raises(ValueError, match="must be an http or https URL"):
                HttpChatClient(endpoint=endpoint, model="m")


class TestResponseMemo:
    MESSAGES = build_stage3_prompt("person", ["a woman"])

    def test_repeat_is_answered_from_memory(self):
        fixtures = {request_hash(self.MESSAGES): category_response("a woman")}
        with MockLlmServer(fixtures) as server:
            with closing(HttpChatClient(endpoint=server.url, model="test-model")) as client:
                answers = [client.complete(self.MESSAGES) for _ in range(3)]
            assert server.request_count == 1
        assert answers == [category_response("a woman")] * 3

    def test_request_body_is_part_of_the_key(self):
        with MockLlmServer({}, default=category_response(None)) as server:
            memo = llm.ResponseMemo()
            for model in ("m1", "m2"):
                with closing(HttpChatClient(endpoint=server.url, model=model, memo=memo)) as client:
                    client.complete(self.MESSAGES)
            assert server.request_count == 2

    def test_nonzero_temperature_always_reaches_the_endpoint(self):
        with MockLlmServer({}, default=category_response(None)) as server:
            with closing(HttpChatClient(endpoint=server.url, model="m", temperature=0.7)) as client:
                for _ in range(3):
                    client.complete(self.MESSAGES)
            assert server.request_count == 3

    def test_failed_call_is_not_remembered(self):
        with MockLlmServer({}) as server:
            with closing(HttpChatClient(endpoint=server.url, model="m")) as client:
                with pytest.raises(TransportError):
                    client.complete(self.MESSAGES)
                server.responses[request_hash(self.MESSAGES)] = category_response("a woman")
                assert client.complete(self.MESSAGES) == category_response("a woman")
            assert server.request_count == 2

    def test_least_recently_used_answer_is_dropped(self, monkeypatch):
        monkeypatch.setattr(llm, "MEMO_CAPACITY", 2)
        a, b, c = (build_stage3_prompt(p, ["a woman"]) for p in ("a", "b", "c"))
        with MockLlmServer({}, default=category_response(None)) as server:
            with closing(HttpChatClient(endpoint=server.url, model="m")) as client:
                for messages in (a, b, a, c):  # c evicts b, used less recently than a
                    client.complete(messages)
                assert server.request_count == 3
                client.complete(a)
                assert server.request_count == 3
                client.complete(b)
                assert server.request_count == 4

    def test_threads_share_one_memo_safely(self, monkeypatch):
        monkeypatch.setattr(llm, "MEMO_CAPACITY", 16)
        memo = llm.ResponseMemo()
        keys = [bytes([k]) for k in range(50)]

        def hammer(seed):
            rng = random.Random(seed)
            for _ in range(2000):
                key = rng.choice(keys)
                text = memo.claim(key)
                if text is None:  # this thread fetches; half of the fetches fail
                    memo.settle(key, key.hex() if rng.random() < 0.5 else None)
                else:
                    assert text == key.hex()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                list(pool.map(hammer, range(8), timeout=30))
        finally:
            sys.setswitchinterval(interval)
        assert len(memo._texts) <= 16
        assert memo._fetching == {}

    def race(self, server: "StubServer") -> list:
        """Two clients of one memo, released together, each complete MESSAGES once."""
        memo = llm.ResponseMemo()
        barrier = threading.Barrier(2)

        def call(_):
            with closing(HttpChatClient(endpoint=server.url, model="m", memo=memo)) as client:
                barrier.wait(timeout=10)
                try:
                    return client.complete(self.MESSAGES)
                except TransportError as exc:
                    return exc

        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(call, range(2), timeout=30))

    def test_concurrent_misses_send_one_request(self):
        # the answer is held back so that the second client misses while
        # the first is still waiting for it
        with StubServer(echo, delay=0.3) as server:
            outcomes = self.race(server)
        assert outcomes == [self.MESSAGES[-1].content] * 2
        assert len(server.lines) == 1

    def test_waiter_sends_its_own_request_when_the_fetch_fails(self):
        def fail_first(n, request):
            return (500, b"{}", {}) if n == 0 else echo(n, request)

        with StubServer(fail_first, delay=0.3) as server:
            outcomes = self.race(server)
        failed = [o for o in outcomes if isinstance(o, TransportError)]
        assert len(failed) == 1 and "HTTP 500" in str(failed[0])
        assert [o for o in outcomes if o not in failed] == [self.MESSAGES[-1].content]
        assert len(server.lines) == 2


class TestHttpClientWithMockServer:
    def test_round_trip(self):
        messages = build_stage3_prompt("person", ["a woman", "her hair"])
        fixtures = {request_hash(messages): category_response("a woman")}
        with MockLlmServer(fixtures) as server:
            with closing(HttpChatClient(endpoint=server.url, model="test-model")) as client:
                assert client.complete(messages) == category_response("a woman")
            assert server.request_count == 1

    def test_unknown_request_is_transport_error(self):
        with MockLlmServer({}) as server:
            with closing(HttpChatClient(endpoint=server.url, model="test-model")) as client:
                with pytest.raises(TransportError):
                    client.complete(build_stage3_prompt("person", ["a woman"]))

    def test_default_response_served(self):
        with MockLlmServer({}, default="{`CATEGORY': `None'}") as server:
            with closing(HttpChatClient(endpoint=server.url, model="test-model")) as client:
                assert client.complete(build_stage3_prompt("x", ["y"])) == "{`CATEGORY': `None'}"

    def test_unreachable_endpoint_is_transport_error(self):
        client = HttpChatClient(
            endpoint="http://127.0.0.1:1/v1/chat/completions", model="m", timeout=0.2
        )
        with pytest.raises(TransportError):
            client.complete(build_stage3_prompt("x", ["y"]))


# model names and contents that JSON must escape: quotes, backslashes, control
# characters, and text outside ASCII
ESCAPED_TEXT = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\u2028é漢'), st.characters()))


class TestRequestBody:
    """The body is built from cached parts, and must equal the plain ``json.dumps`` form."""

    @staticmethod
    def sent_bodies(client: HttpChatClient, messages, calls: int) -> list[bytes]:
        """What ``calls`` completions of ``messages`` send, each failing so none is remembered."""
        sent = []

        def request(body: bytes) -> str:
            sent.append(body)
            raise TransportError("not sent")

        client._request = request
        for _ in range(calls):
            with pytest.raises(TransportError):
                client.complete(messages)
        return sent

    @given(
        model=ESCAPED_TEXT,
        temperature=st.one_of(
            st.sampled_from([0.0, -0.0, 1e-300, 0.7, 0, 2]),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        seed=st.one_of(st.none(), st.integers(), st.sampled_from([2**64, -(2**63), 0])),
        head=st.sampled_from(
            [[], build_stage2_prompt("[]")[:-1], build_stage3_prompt("a cup", ["a mug"])[:-1]]
        ),
        tail=st.lists(
            st.builds(
                llm.ChatMessage, st.sampled_from(llm.ROLES), ESCAPED_TEXT.filter(bool)
            ),
            max_size=3,
        ),
    )
    def test_body_is_the_json_of_the_payload(self, model, temperature, seed, head, tail):
        messages = head + tail
        payload = {
            "model": model,
            "messages": [m.as_dict() for m in messages],
            "temperature": temperature,
        }
        if seed is not None:
            payload["seed"] = seed
        expected = json.dumps(payload, allow_nan=False).encode("utf-8")
        client = HttpChatClient(
            endpoint="http://127.0.0.1:1/x", model=model, temperature=temperature, seed=seed
        )
        with closing(client):
            assert self.sent_bodies(client, messages, 2) == [expected, expected]

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_temperature_is_refused_at_each_request(self, temperature):
        messages = build_stage3_prompt("a cup", ["a mug"])
        client = HttpChatClient(endpoint="http://127.0.0.1:1/x", model="m", temperature=temperature)
        with closing(client):
            for _ in range(2):
                with pytest.raises(ValueError, match="Out of range float values"):
                    client.complete(messages)


class TestMockServerConnections:
    CALLS = TestConnection.CALLS

    @pytest.fixture
    def accepted(self, monkeypatch) -> list[int]:
        """Client port of each connection a server accepts, in order."""
        ports = []
        accept = socketserver.ThreadingMixIn.process_request

        def process_request(server, request, client_address):
            ports.append(client_address[1])
            accept(server, request, client_address)

        monkeypatch.setattr(socketserver.ThreadingMixIn, "process_request", process_request)
        return ports

    @staticmethod
    def exchange(sock: socket.socket, version: str, body: bytes):
        """One POST written by hand on ``sock``: its response and answer body."""
        head = f"POST /v1/chat/completions {version}\r\nContent-Length: {len(body)}\r\n\r\n"
        sock.sendall(head.encode("ascii") + body)
        response = http.client.HTTPResponse(sock)
        response.begin()
        return response, response.read()

    def test_one_connection_serves_a_client(self, accepted):
        fixtures = {request_hash(m): f"answer {i}" for i, m in enumerate(self.CALLS)}
        with MockLlmServer(fixtures) as server:
            with closing(HttpChatClient(endpoint=server.url, model="m")) as client:
                answers = [client.complete(messages) for messages in self.CALLS]
            assert server.request_count == 5
        assert answers == [f"answer {i}" for i in range(5)]
        assert len(accepted) == 1

    def test_http_1_0_request_is_answered_then_closed(self, accepted):
        body = json.dumps({"messages": [m.as_dict() for m in self.CALLS[0]]}).encode()
        with MockLlmServer({request_hash(self.CALLS[0]): "yes"}) as server:
            address = urlsplit(server.url)
            with socket.create_connection((address.hostname, address.port), timeout=10) as sock:
                for version in ("HTTP/1.1", "HTTP/1.0"):  # the first leaves it open
                    response, answer = self.exchange(sock, version, body)
                    assert (response.status, answer) == (200, envelope("yes"))
                    assert response.will_close == (version == "HTTP/1.0")
                assert sock.recv(1) == b""
            assert server.request_count == 2
        assert len(accepted) == 1

    def test_malformed_request_closes_its_connection(self):
        with MockLlmServer({}, default="yes") as server:
            address = urlsplit(server.url)
            with socket.create_connection((address.hostname, address.port), timeout=10) as sock:
                response, answer = self.exchange(sock, "HTTP/1.1", b"{not json")
                assert (response.status, response.will_close) == (400, True)
                assert json.loads(answer) == {"error": "malformed request"}
                assert sock.recv(1) == b""
            with closing(HttpChatClient(endpoint=server.url, model="m")) as client:
                assert client.complete(self.CALLS[0]) == "yes"
            assert server.request_count == 1

    @pytest.mark.parametrize("length", ["-1", "abc"])
    def test_bad_content_length_is_refused_at_once(self, length):
        with MockLlmServer({}, default="yes") as server:
            address = urlsplit(server.url)
            with socket.create_connection((address.hostname, address.port), timeout=2) as sock:
                head = f"POST /v1/chat/completions HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
                sock.sendall(head.encode("ascii") + b'{"messages": []}')
                response = http.client.HTTPResponse(sock)
                response.begin()  # a timeout here: the server waits for the end of the stream
                assert (response.status, response.will_close) == (400, True)
                assert json.loads(response.read()) == {"error": "malformed request"}
                assert sock.recv(1) == b""
            assert server.request_count == 0

    def test_stop_ends_the_connections_clients_still_hold(self):
        before = set(threading.enumerate())
        server = MockLlmServer({}, default="yes").start()
        with closing(HttpChatClient(endpoint=server.url, model="m")) as client:
            assert client.complete(self.CALLS[0]) == "yes"
            server.stop()
            assert not set(threading.enumerate()) - before
            with pytest.raises(TransportError):
                client.complete(self.CALLS[1])


def test_request_hash_ignores_message_object_type():
    messages = build_stage3_prompt("person", ["a woman"])
    dicts = [m.as_dict() for m in messages]
    assert request_hash(messages) == request_hash(dicts)


def test_caption_response_helper_round_trips():
    parsed = parse_stage2_response(caption_response("<p>a cat</p> sits"))
    assert parsed.phrase_texts == ["a cat"]
