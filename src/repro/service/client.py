"""A thin stdlib client for the verification service.

:class:`ServiceClient` wraps :mod:`http.client` — one connection per
request, matching the daemon's ``Connection: close`` discipline — and
returns the parsed JSON payloads as plain dicts.  Error responses
(any 4xx/5xx with the daemon's ``{"error": {code, message}}`` shape)
raise :class:`ServiceClientError` carrying the stable error code, so
callers branch on ``exc.code`` rather than string-matching messages.

The CLI's ``repro client`` subcommand is a veneer over this class; it
is equally usable from tests and scripts.
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Dict, Optional

__all__ = ["ServiceClient", "ServiceClientError"]


class ServiceClientError(RuntimeError):
    """An error response from the daemon."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(f"[{status}] {code}: {message}")
        self.status = status
        self.code = code
        self.message = message


class ServiceClient:
    """Talk to a running :class:`~repro.service.http.ReproService`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8321,
                 timeout: Optional[float] = None,
                 tenant: Optional[str] = None) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.tenant = tenant

    # -- transport ------------------------------------------------------

    def request(self, method: str, path: str,
                payload: Optional[Dict[str, Any]] = None,
                raw: bool = False) -> Any:
        """One request/response cycle; JSON in, JSON (or text) out."""
        conn = http.client.HTTPConnection(
            self.host, self.port,
            timeout=self.timeout if self.timeout is not None else 600)
        try:
            body = None
            headers = {"Connection": "close"}
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            if self.tenant is not None:
                headers["X-Tenant"] = self.tenant
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            text = response.read().decode("utf-8")
        finally:
            conn.close()
        if raw and response.status < 400:
            return text
        try:
            decoded = json.loads(text) if text else {}
        except json.JSONDecodeError:
            decoded = {}
        if response.status >= 400 or "error" in decoded:
            error = decoded.get("error") or {}
            raise ServiceClientError(
                response.status,
                str(error.get("code", "http-error")),
                str(error.get("message", text.strip() or "no body")))
        return decoded

    # -- introspection --------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self.request("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        return self.request("GET", "/metrics")

    def sessions(self) -> Dict[str, Any]:
        return self.request("GET", "/sessions")

    def jobs(self) -> Dict[str, Any]:
        return self.request("GET", "/jobs")

    # -- sessions -------------------------------------------------------

    def open_session(self, config_text: str) -> Dict[str, Any]:
        return self.request("POST", "/sessions", {"config": config_text})

    def invalidate(self, session_id: str) -> Dict[str, Any]:
        return self.request("DELETE", f"/sessions/{session_id}")

    # -- solves ---------------------------------------------------------

    def _solve(self, endpoint: str,
               payload: Dict[str, Any]) -> Dict[str, Any]:
        cleaned = {name: value for name, value in payload.items()
                   if value is not None}
        return self.request("POST", endpoint, cleaned)

    def verify(self, *, config: Optional[str] = None,
               session: Optional[str] = None,
               spec: Optional[Dict[str, Any]] = None,
               limits: Optional[Dict[str, Any]] = None,
               minimize: bool = True,
               wait: bool = True) -> Dict[str, Any]:
        return self._solve("/verify", {
            "config": config, "session": session, "spec": spec,
            "limits": limits, "minimize": minimize, "wait": wait,
        })

    def enumerate_vectors(self, *, config: Optional[str] = None,
                          session: Optional[str] = None,
                          spec: Optional[Dict[str, Any]] = None,
                          limits: Optional[Dict[str, Any]] = None,
                          limit: Optional[int] = None,
                          minimal: bool = True,
                          wait: bool = True) -> Dict[str, Any]:
        return self._solve("/enumerate", {
            "config": config, "session": session, "spec": spec,
            "limits": limits, "limit": limit, "minimal": minimal,
            "wait": wait,
        })

    def max_resiliency(self, *, config: Optional[str] = None,
                       session: Optional[str] = None,
                       prop: Optional[str] = None,
                       limits: Optional[Dict[str, Any]] = None,
                       screen: bool = True,
                       wait: bool = True) -> Dict[str, Any]:
        return self._solve("/max-resiliency", {
            "config": config, "session": session, "property": prop,
            "limits": limits, "screen": screen, "wait": wait,
        })

    # -- watches --------------------------------------------------------

    def watchers(self) -> Dict[str, Any]:
        return self.request("GET", "/watch")

    def open_watch(self, *, config: Optional[str] = None,
                   session: Optional[str] = None,
                   floors: Optional[list] = None,
                   limits: Optional[Dict[str, Any]] = None
                   ) -> Dict[str, Any]:
        payload = {name: value for name, value in {
            "config": config, "session": session, "floors": floors,
            "limits": limits,
        }.items() if value is not None}
        return self.request("POST", "/watch", payload)

    def watch_status(self, watch_id: str) -> Dict[str, Any]:
        return self.request("GET", f"/watch/{watch_id}")

    def send_events(self, watch_id: str,
                    events: list) -> Dict[str, Any]:
        """Apply a batch of event records (``StreamEvent.to_json``)."""
        return self.request("POST", f"/watch/{watch_id}/events",
                            {"events": events})

    def alarms(self, watch_id: str, since: int = 0,
               wait: bool = False,
               timeout: Optional[float] = None) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"since": since, "wait": wait}
        if timeout is not None:
            payload["timeout"] = timeout
        return self.request("GET", f"/watch/{watch_id}/alarms",
                            payload)

    def watch_trace(self, watch_id: str) -> str:
        """The watch's JSONL trace so far (one record per line)."""
        text = self.request("GET", f"/watch/{watch_id}/trace",
                            raw=True)
        assert isinstance(text, str)
        return text

    def close_watch(self, watch_id: str) -> Dict[str, Any]:
        return self.request("DELETE", f"/watch/{watch_id}")

    # -- jobs -----------------------------------------------------------

    def job(self, job_id: str) -> Dict[str, Any]:
        return self.request("GET", f"/jobs/{job_id}")

    def wait(self, job_id: str) -> Dict[str, Any]:
        return self.request("GET", f"/jobs/{job_id}/wait")

    def cancel(self, job_id: str,
               reason: str = "client-cancel") -> Dict[str, Any]:
        return self.request("POST", f"/jobs/{job_id}/cancel",
                            {"reason": reason})

    def trace(self, job_id: str) -> str:
        """The job's JSONL trace, verbatim (one record per line)."""
        text = self.request("GET", f"/jobs/{job_id}/trace", raw=True)
        assert isinstance(text, str)
        return text
