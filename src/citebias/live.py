"""Live services: the HTTP clients of the two indexes and of the chat gateway.

``HttpPreprintClient``, ``HttpScholarClient`` (the wire formats of
``clients``) and ``OpenAIChatProvider`` (OpenAI-compatible chat
completions) are ``HttpService``s over ``requests``.
``pipeline.PipelineContext`` imports this module only for a config with
service URLs or a non-mock provider, so an offline run never loads it.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

import requests

from .errors import IndexParseError, TransportError
from .llmgate import Message


class TokenBucket:
    """Token-bucket rate limiter shared by all calls to one service.

    ``rate`` is tokens per second, ``capacity`` the burst size. ``acquire``
    blocks until a token is available. Clock and sleep are injectable for
    tests.
    """

    def __init__(
        self,
        rate: float,
        capacity: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self.capacity = capacity if capacity is not None else max(1.0, rate)
        self._tokens = self.capacity
        self._clock = clock
        self._sleep = sleep
        self._last = clock()
        self._lock = threading.Lock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(self.capacity, self._tokens + (now - self._last) * self.rate)
        self._last = now

    def acquire(self) -> None:
        while True:
            with self._lock:
                self._refill()
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return
                wait = (1.0 - self._tokens) / self.rate
            self._sleep(wait)


@dataclass
class RetryPolicy:
    """Bounded retry with deterministic exponential backoff (no jitter)."""

    max_attempts: int = 4
    backoff_base: float = 0.5

    def delays(self):
        for attempt in range(self.max_attempts - 1):
            yield self.backoff_base * (2**attempt)



class HttpService:
    """One HTTP service: base URL, session, rate limiter and retry policy.

    ``request`` retries connection errors, 429 and 5xx with backoff and
    returns the first other response; ``get_json`` reads that response
    as JSON, with 404 meaning not found (None) and any other 4xx fatal.
    The key in the environment variable ``api_key_env`` is sent as the
    ``key_header`` header, after ``key_prefix``; a service without a
    ``key_header`` sends no credential.
    """

    key_header = ""
    key_prefix = ""
    timeout = 30

    def __init__(
        self,
        base_url: str,
        session: requests.Session | None = None,
        limiter: TokenBucket | None = None,
        retry: RetryPolicy | None = None,
        api_key_env: str = "",
    ):
        self.base_url = base_url.rstrip("/")
        self.session = session or requests.Session()
        self.limiter = limiter
        self.retry = retry or RetryPolicy()
        key = os.environ.get(api_key_env, "")
        if self.key_header and key:
            self.session.headers[self.key_header] = self.key_prefix + key

    def request(self, method: str, path: str, **kwargs: Any) -> requests.Response:
        """Send under the rate limiter; TransportError once the attempts run out."""
        url = self.base_url + path
        send = getattr(self.session, method.lower())
        last: Exception | None = None
        for delay in [*self.retry.delays(), None]:
            if self.limiter is not None:
                self.limiter.acquire()
            try:
                resp = send(url, timeout=self.timeout, **kwargs)
            except requests.RequestException as exc:
                last = exc
            else:
                if resp.status_code != 429 and resp.status_code < 500:
                    return resp
                last = TransportError(f"{url} -> HTTP {resp.status_code}")
            if delay is not None:
                time.sleep(delay)
        raise TransportError(f"{url} failed after {self.retry.max_attempts} attempts: {last}")

    def get_json(self, path: str, params: dict | None = None) -> Any:
        """The JSON body of a GET, or None on 404."""
        resp = self.request("GET", path, params=params or {})
        url = self.base_url + path
        if resp.status_code == 404:
            return None
        if resp.status_code >= 400:
            raise TransportError(f"{url} -> HTTP {resp.status_code}", retryable=False)
        try:
            return resp.json()
        except ValueError as exc:
            raise IndexParseError(f"non-JSON response from {url}") from exc


class HttpPreprintClient(HttpService):
    """Preprint index over HTTP, same wire format as the fixture client."""

    def list_records(self, start: str, end: str, category: str) -> list[dict]:
        payload = self.get_json("/records", {"start": start, "end": end, "category": category})
        if payload is None:
            raise TransportError(f"{self.base_url}/records -> HTTP 404", retryable=False)
        if not isinstance(payload, list):
            raise IndexParseError("preprint index returned a non-list payload", payload)
        return payload


class HttpScholarClient(HttpService):
    """Scholarly index over HTTP."""

    key_header = "x-api-key"

    def search_title(self, query: str, limit: int = 10) -> list[dict]:
        payload = self.get_json("/papers/search", {"query": query, "limit": limit})
        if payload is None:
            return []
        if not isinstance(payload, list):
            raise IndexParseError("scholar search returned a non-list payload", payload)
        return payload

    def get_paper(self, index_id: str) -> dict | None:
        return self.get_json(f"/papers/{index_id}")



class OpenAIChatProvider(HttpService):
    """Chat-completions provider for OpenAI-compatible HTTP gateways.

    Credentials come from the environment only (``api_key_env``), never
    from config files.
    """

    key_header = "Authorization"
    key_prefix = "Bearer "
    timeout = 120

    def __init__(self, base_url: str, model: str, api_key_env: str = "OPENAI_API_KEY", **kwargs):
        super().__init__(base_url, api_key_env=api_key_env, **kwargs)
        self.model = model

    def send(self, messages: list[Message], params: dict) -> str:
        body = {
            "model": self.model,
            "messages": [{"role": role, "content": content} for role, content in messages],
            **params,
        }
        resp = self.request("POST", "/chat/completions", json=body)
        if resp.status_code >= 400:
            raise TransportError(
                f"provider HTTP {resp.status_code}: {resp.text[:200]}", retryable=False
            )
        try:
            content = resp.json()["choices"][0]["message"]["content"] or ""
            # JSON admits a lone surrogate, which no file can hold: the
            # UnicodeEncodeError is a ValueError, and content that is no
            # string a TypeError
            str.encode(content, "utf-8")
            return content
        except (ValueError, LookupError, TypeError) as exc:
            raise TransportError(
                f"{self.base_url}/chat/completions -> malformed response body ({exc!r})",
                retryable=False,
            ) from exc
