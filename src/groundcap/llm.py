"""Caption aggregation and tracking-by-language over a chat-completion API.

The two model-facing steps share one client contract (``ChatClient``): a
single ``complete`` call over role/content messages.  Responses are parsed
strictly; anything that does not carry the expected dictionary-shaped answer
becomes a rejection with a machine-readable reason code rather than a crash,
so a batch run can count and log failed videos the same way it counts
accepted ones.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Optional, Protocol, Sequence

from . import prompts
from .boxes import BoundingBox
from .captions import MalformedCaptionError, TaggedCaption, parse_tagged_caption
from .config import PipelineConfig
from .records import SvoFrame
from .svo import render_svo_block

logger = logging.getLogger(__name__)

ROLES = ("system", "user", "assistant")

# Rejection reason codes.
REJECT_NO_DICTIONARY = "no-dictionary"
REJECT_NO_CAPTION_KEY = "no-caption-key"
REJECT_MALFORMED_TAGS = "malformed-tags"
REJECT_NO_PHRASES = "no-phrases"
REJECT_NO_CATEGORY_KEY = "no-category-key"
REJECT_UNKNOWN_CATEGORY = "unknown-category"
REJECT_TRANSPORT = "transport"

NONE_CLASS = "None"


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}, got {self.role!r}")
        if not self.content:
            raise ValueError("message content must be non-empty")

    def as_dict(self) -> dict[str, str]:
        return {"role": self.role, "content": self.content}


class ChatClient(Protocol):
    """Anything that can answer a chat prompt with plain text."""

    def complete(self, messages: Sequence[ChatMessage]) -> str: ...


class TransportError(Exception):
    """The endpoint could not be reached or returned an unusable envelope.

    ``retryable`` is false when sending the same request again cannot help:
    an HTTP 4xx answer other than 408 (timeout) and 429 (rate limit).
    """

    def __init__(self, message: str, retryable: bool = True):
        super().__init__(message)
        self.retryable = retryable


_RETRYABLE_4XX = (408, 429)


class ResponseRejection(Exception):
    """A model answer (or the transport) failed; carries the reason code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass(frozen=True)
class AggregatedCaption:
    """A parsed video-level caption plus the raw model text it came from."""

    caption: TaggedCaption
    raw_response: str

    def __post_init__(self) -> None:
        if not self.caption.phrases:
            raise ValueError("aggregated caption must tag at least one phrase")


@dataclass(frozen=True)
class PhraseAssignment:
    """A frame-level phrase mapped to a video-level phrase, or dropped."""

    frame_index: int
    frame_phrase: str
    assigned: Optional[str]  # None is the None-class


# Most answers a :class:`ResponseMemo` keeps; a corpus-sized run is mostly
# distinct requests, so memory must not grow with the corpus.
MEMO_CAPACITY = 4096


class ResponseMemo:
    """Completion texts by request digest, least recently used dropped first.

    Safe to share between threads; one memo serves every client of a run.
    A miss is fetched once: a client that claims a key another client is
    already fetching waits for that fetch, and fetches itself only if it
    failed, because failures are never stored.
    """

    def __init__(self) -> None:
        self._texts: OrderedDict[bytes, str] = OrderedDict()
        self._fetching: dict[bytes, threading.Event] = {}
        self._lock = threading.Lock()

    def claim(self, key: bytes) -> Optional[str]:
        """The text under ``key``, or ``None`` when the caller must fetch it.

        A caller that gets ``None`` must call :meth:`settle` for ``key``
        whatever happens, or every later claim of ``key`` waits forever.
        """
        while True:
            with self._lock:
                text = self._texts.get(key)
                if text is not None:
                    self._texts.move_to_end(key)
                    return text
                fetch = self._fetching.get(key)
                if fetch is None:
                    self._fetching[key] = threading.Event()
                    return None
            fetch.wait()

    def settle(self, key: bytes, text: Optional[str]) -> None:
        """End a claimed fetch: store ``text``, or nothing when it failed."""
        with self._lock:
            if text is not None:
                self._texts[key] = text
                self._texts.move_to_end(key)
                while len(self._texts) > MEMO_CAPACITY:
                    self._texts.popitem(last=False)
            fetch = self._fetching.pop(key, None)
        if fetch is not None:
            fetch.set()


class JsonEndpoint:
    """One HTTP(S) URL that takes JSON POSTs, over one reused connection.

    The connection is kept while the server keeps it alive and opened again
    when the server closes it.  A request that fails on a reused connection
    before any answer arrives (the server dropped an idle keep-alive
    connection) is sent once more, at once, on a fresh one.  The proxy
    environment is read here, once; an HTTP proxy gets the absolute URL as
    the request target and HTTPS is tunnelled through it.  HTTPS is checked
    against the default ``ssl`` context.  Redirects are not followed.
    """

    def __init__(self, url: str, timeout: float, headers: Optional[dict[str, str]] = None):
        # loaded with the first client: http.client costs a process ~35 ms
        # that commands which never reach an endpoint should not pay
        import base64
        import http.client
        import urllib.request
        from urllib.parse import unquote, urlsplit

        parts = urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"endpoint must be an http or https URL, got {url!r}")
        self.url = url
        self._headers = {"Content-Type": "application/json", **(headers or {})}
        self._target = parts.path or "/"
        if parts.query:
            self._target += "?" + parts.query
        host, port = parts.hostname, parts.port
        proxy = urllib.request.getproxies().get(parts.scheme)
        proxied = bool(proxy) and not urllib.request.proxy_bypass(host)
        proxy_headers = {}
        if proxied:
            proxy_parts = urlsplit(proxy if "://" in proxy else "http://" + proxy)
            if not proxy_parts.hostname:
                raise ValueError(f"{parts.scheme} proxy must be a URL, got {proxy!r}")
            if proxy_parts.username:
                login = f"{unquote(proxy_parts.username)}:{unquote(proxy_parts.password or '')}"
                proxy_headers["Proxy-Authorization"] = (
                    "Basic " + base64.b64encode(login.encode("utf-8")).decode("ascii")
                )
            host, port = proxy_parts.hostname, proxy_parts.port or 80
        if parts.scheme == "https":
            import ssl

            self._conn = http.client.HTTPSConnection(
                host, port, timeout=timeout, context=ssl.create_default_context()
            )
            if proxied:
                self._conn.set_tunnel(parts.hostname, parts.port, headers=proxy_headers)
        else:
            self._conn = http.client.HTTPConnection(host, port, timeout=timeout)
            if proxied:
                self._target = url
                self._headers.update(proxy_headers)
        self._errors = (OSError, http.client.HTTPException)

    def post(self, body: bytes) -> object:
        """The decoded JSON answer to ``body``.

        Raises:
            TransportError: on a status outside 2xx (retryable unless a 3xx
                or a 4xx other than 408 and 429), a connection or protocol
                failure, or an answer that is not JSON.
        """
        reused = self._conn.sock is not None
        try:
            try:
                response = self._exchange(body)
            except (ConnectionResetError, BrokenPipeError):  # RemoteDisconnected too
                if not reused:
                    raise
                self._conn.close()
                response = self._exchange(body)
            data = response.read()
        except self._errors as exc:
            self._conn.close()
            raise TransportError(f"POST to {self.url} failed: {exc}") from exc
        status = response.status
        if not 200 <= status < 300:
            message = f"HTTP {status} from {self.url}"
            if 300 <= status < 400:
                location = response.getheader("Location")
                raise TransportError(
                    f"{message}, redirect to {location} not followed", retryable=False
                )
            retryable = not 400 <= status < 500 or status in _RETRYABLE_4XX
            raise TransportError(message, retryable=retryable)
        try:
            return json.loads(data)
        except ValueError as exc:  # UnicodeDecodeError too
            raise TransportError(f"answer from {self.url} is not JSON: {exc}") from exc

    def _exchange(self, body: bytes):
        self._conn.request("POST", self._target, body, self._headers)
        return self._conn.getresponse()

    def close(self) -> None:
        self._conn.close()


@dataclass
class HttpChatClient:
    """Chat-completions client: JSON over HTTP POST.

    Request body is ``{model, messages, temperature}`` (plus ``seed`` when
    configured); the response must contain a first choice with
    ``message.content``.  Instances are cheap; each worker thread should own
    one, because each holds one :class:`JsonEndpoint` connection.

    At temperature 0 decoding is deterministic, so an answer is kept in
    ``memo`` under the digest of its request body and a byte-identical
    request is answered from there without a round trip.  Clients that share
    a memo share those answers, and a request one of them is already sending
    is not sent twice.
    """

    endpoint: str
    model: str
    temperature: float = 0.0
    seed: Optional[int] = 0
    api_key: Optional[str] = None
    timeout: float = 60.0
    memo: ResponseMemo = field(default_factory=ResponseMemo, repr=False)

    def __post_init__(self) -> None:
        headers = {"Authorization": f"Bearer {self.api_key}"} if self.api_key else None
        self._endpoint = JsonEndpoint(self.endpoint, self.timeout, headers)

    def complete(self, messages: Sequence[ChatMessage]) -> str:
        payload: dict = {
            "model": self.model,
            "messages": [m.as_dict() for m in messages],
            "temperature": self.temperature,
        }
        if self.seed is not None:
            payload["seed"] = self.seed
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        if self.temperature != 0:
            return self._request(body)
        key = hashlib.sha256(body).digest()
        text = self.memo.claim(key)
        if text is not None:
            return text
        try:
            text = self._request(body)
        finally:
            self.memo.settle(key, text)
        return text

    def _request(self, body: bytes) -> str:
        envelope = self._endpoint.post(body)
        try:
            content = envelope["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed completion envelope: {envelope!r}") from exc
        if not isinstance(content, str):
            raise TransportError(f"completion content is not text: {content!r}")
        return content

    def close(self) -> None:
        self._endpoint.close()


# ---------------------------------------------------------------------------
# Response parsing

_QUOTE_PAIRS = {"`": "'", "'": "'", '"': '"'}
# A value ends where the dictionary ends (a trailing comma allowed) or another
# quoted key follows, so apostrophes inside it survive and a second key does
# not leak into it.
_AFTER_VALUE = r"(?=\s*(?:,?\s*\Z|,\s*[`'\"][^`'\"]*[`'\"]\s*:))"
_VALUE_END = {quote: re.compile(re.escape(quote) + _AFTER_VALUE) for quote in ("'", '"')}
_BARE_VALUE = re.compile(r"[^`'\",]*" + _AFTER_VALUE)  # a number, true or null
# A key, quoted or not, where one can start: at the start of the dictionary
# body or after the comma that follows a closed value.
_KEY = re.compile(r"\s*[`'\"]?([^`'\":,]*?)[`'\"]?\s*:\s*")
_COMMA = re.compile(r"\s*,")


def _extract_dict_value(text: str, key: str) -> str:
    """Pull the quoted value of ``key`` out of a dictionary-shaped response.

    Tolerates prose around the dictionary, other keys before or after
    ``key``, and either backtick or standard quoting.  The dictionary is read
    key by key from its start, so ``key`` inside a longer key or inside an
    earlier value is not taken for it; when that fails, each later ``{`` is
    tried as the start, which passes over braces in prose and nested values.
    """
    start = text.find("{")
    end = text.rfind("}")
    if start < 0 or end <= start:
        raise ResponseRejection(REJECT_NO_DICTIONARY, "response contains no dictionary")
    first_failure = None
    while 0 <= start < end:
        try:
            return _dict_body_value(text[start + 1 : end], key)
        except ResponseRejection as exc:
            first_failure = first_failure or exc
        start = text.find("{", start + 1)
    raise first_failure


def _dict_body_value(body: str, key: str) -> str:
    code = f"no-{key.lower()}-key"
    pos = 0
    while (found := _KEY.match(body, pos)) is not None:
        value_start = found.end()
        opening = body[value_start : value_start + 1]
        quoted = opening in _QUOTE_PAIRS
        if quoted:
            value_end = _VALUE_END[_QUOTE_PAIRS[opening]].search(body, value_start + 1)
        else:
            value_end = _BARE_VALUE.match(body, value_start)
        if found.group(1) == key:
            if not quoted:
                raise ResponseRejection(code, f"{key} value is not a quoted string")
            if value_end is None:
                raise ResponseRejection(code, f"{key} value is not closed")
            return body[value_start + 1 : value_end.start()]
        comma = value_end and _COMMA.match(body, value_end.end())
        if not comma:
            break
        pos = comma.end()
    raise ResponseRejection(code, f"response dictionary has no {key} key")


def build_stage2_prompt(svo_block: str) -> list[ChatMessage]:
    """System instructions, two in-context pairs, then the video's SVO block."""
    return [
        ChatMessage("system", prompts.AGGREGATION_SYSTEM),
        ChatMessage("user", prompts.svo_user_message(prompts.AGGREGATION_EXAMPLE_INPUT_1)),
        ChatMessage("assistant", prompts.AGGREGATION_EXAMPLE_RESPONSE_1),
        ChatMessage("user", prompts.svo_user_message(prompts.AGGREGATION_EXAMPLE_INPUT_2)),
        ChatMessage("assistant", prompts.AGGREGATION_EXAMPLE_RESPONSE_2),
        ChatMessage("user", prompts.svo_user_message(svo_block)),
    ]


def parse_stage2_response(text: str) -> AggregatedCaption:
    """Extract and parse the CAPTION value; at least one phrase is required.

    Raises:
        ResponseRejection: ``no-dictionary``, ``no-caption-key``,
            ``malformed-tags``, or ``no-phrases``.
    """
    value = _extract_dict_value(text, "CAPTION")
    try:
        caption = parse_tagged_caption(value)
    except MalformedCaptionError as exc:
        raise ResponseRejection(REJECT_MALFORMED_TAGS, str(exc)) from exc
    if not caption.phrases:
        raise ResponseRejection(REJECT_NO_PHRASES, "caption tags no phrases")
    return AggregatedCaption(caption=caption, raw_response=text)


def build_stage3_prompt(frame_phrase: str, categories: Sequence[str]) -> list[ChatMessage]:
    """System instructions, five in-context pairs, then the phrase to classify."""
    if not categories:
        raise ValueError("categories must be non-empty")
    messages = [ChatMessage("system", prompts.CLASSIFICATION_SYSTEM)]
    for phrase, cats, response in prompts.CLASSIFICATION_EXAMPLES:
        messages.append(ChatMessage("user", prompts.classification_user_message(phrase, cats)))
        messages.append(ChatMessage("assistant", response))
    messages.append(
        ChatMessage("user", prompts.classification_user_message(frame_phrase, list(categories)))
    )
    return messages


def parse_stage3_response(text: str, categories: Sequence[str]) -> Optional[str]:
    """Extract the CATEGORY value; ``None`` (the None-class) maps to ``None``.

    The value must equal one category exactly after whitespace trimming.

    Raises:
        ResponseRejection: ``no-dictionary``, ``no-category-key``, or
            ``unknown-category``.
    """
    value = _extract_dict_value(text, "CATEGORY").strip()
    if value == NONE_CLASS:
        return None
    if value in categories:
        return value
    raise ResponseRejection(
        REJECT_UNKNOWN_CATEGORY, f"category {value!r} is not one of {list(categories)}"
    )


# ---------------------------------------------------------------------------
# Stage drivers with retries


def _call_with_retries(
    client: ChatClient,
    messages: Sequence[ChatMessage],
    parse,
    config: PipelineConfig,
):
    """Run request+parse up to ``config.retries`` extra times before giving up.

    Transport failures back off exponentially, and one that cannot be
    retried is raised at once; parse failures re-prompt immediately.  The
    final failure's reason code is raised.
    """
    last: ResponseRejection | None = None
    for attempt in range(config.retries + 1):
        try:
            return parse(client.complete(messages))
        except TransportError as exc:
            last = ResponseRejection(REJECT_TRANSPORT, str(exc))
            if not exc.retryable:
                raise last from exc
            if attempt < config.retries and config.backoff > 0:
                time.sleep(config.backoff * (2**attempt))
        except ResponseRejection as exc:
            last = exc
    assert last is not None
    raise last


def aggregate_video(
    frames: Iterable[SvoFrame],
    client: ChatClient,
    config: PipelineConfig = PipelineConfig(),
) -> AggregatedCaption:
    """Stage 2: one round trip turning a video's SVO frames into a caption.

    Raises:
        ResponseRejection: when every attempt fails; the code reflects the
            last failure (``transport`` after network exhaustion).
    """
    messages = build_stage2_prompt(render_svo_block(frames))
    return _call_with_retries(client, messages, parse_stage2_response, config)


def track_by_language(
    frame_objects: Sequence[tuple[int, str, BoundingBox]],
    video_phrases: Sequence[str],
    client: ChatClient,
    config: PipelineConfig = PipelineConfig(),
) -> list[PhraseAssignment]:
    """Stage 3: classify every frame-level phrase into a video-level phrase.

    Each distinct phrase string is classified once per video; a phrase that
    already equals a video phrase is assigned without a model call.  A
    rejection on one phrase demotes it to the None-class with a warning
    instead of failing the video.
    """
    if not video_phrases:
        raise ValueError("video_phrases must be non-empty")
    memo: dict[str, Optional[str]] = {}
    assignments = []
    for frame_index, phrase, _box in frame_objects:
        if phrase not in memo:
            memo[phrase] = _classify_phrase(phrase, video_phrases, client, config)
        assignments.append(PhraseAssignment(frame_index, phrase, memo[phrase]))
    return assignments


def _classify_phrase(
    phrase: str,
    video_phrases: Sequence[str],
    client: ChatClient,
    config: PipelineConfig,
) -> Optional[str]:
    if phrase in video_phrases:
        return phrase
    messages = build_stage3_prompt(phrase, video_phrases)
    try:
        return _call_with_retries(
            client,
            messages,
            lambda text: parse_stage3_response(text, video_phrases),
            config,
        )
    except ResponseRejection as exc:
        logger.warning("phrase %r dropped to None-class: %s (%s)", phrase, exc.message, exc.code)
        return None
