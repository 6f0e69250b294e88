"""JSON wire format of the serving layer.

One module owns every byte that crosses the HTTP boundary: submission
parsing/validation (:func:`parse_submission`), job status payloads
(:func:`job_payload`), and the newline-delimited event encoding the
``/jobs/<id>/events`` endpoint streams (:func:`encode_event_line`).

Job *results* intentionally bypass this module: the server returns
:meth:`BatchReport.to_json` / ``to_csv`` bytes verbatim, so a served
report is byte-identical to what ``bdsmaj batch`` writes for the same
circuits.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

from .jobs import Job, JobRequest

#: Schema tag of every status/list/health payload.
SCHEMA = "bdsmaj-serve/v1"

#: Submission fields a client may set (anything else is a hard error —
#: a typoed knob silently ignored would change what gets synthesized).
#: Derived from the request dataclass so the two can never disagree.
_SUBMISSION_FIELDS = frozenset(
    field.name for field in dataclasses.fields(JobRequest)
)


class WireError(ValueError):
    """A client-side protocol error, carrying the HTTP status to answer
    with (400 unless stated otherwise) plus any extra response headers
    (``Retry-After`` on 429, ``WWW-Authenticate`` on 401, ...)."""

    def __init__(
        self,
        message: str,
        status: int = 400,
        headers: dict[str, str] | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.headers = dict(headers or {})


def _int_field(payload: dict[str, Any], key: str, default: int) -> int:
    value = payload.get(key, default)
    # bool is an int subclass; accepting it would make {"workers": true}
    # mean one worker, which is never what the client meant.
    if isinstance(value, bool) or not isinstance(value, int):
        raise WireError(f"{key!r} must be an integer, got {value!r}")
    return value


def parse_submission(raw: bytes) -> JobRequest:
    """Validate a ``POST /jobs`` body into a :class:`JobRequest`.

    The wire layer owns the *structural* checks (JSON shape, unknown
    fields, types); the value checks — known flow, positive
    worker count — are delegated to
    :class:`~repro.flows.BatchConfig`, the single owner of those rules,
    by building the equivalent config once.
    """
    try:
        payload = json.loads(raw.decode("utf-8")) if raw else {}
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise WireError("body must be a JSON object")
    unknown = sorted(set(payload) - _SUBMISSION_FIELDS)
    if unknown:
        raise WireError(
            f"unknown submission fields: {', '.join(unknown)} "
            f"(known: {', '.join(sorted(_SUBMISSION_FIELDS))})"
        )

    circuits = payload.get("circuits")
    if isinstance(circuits, str):
        circuits = [circuits]
    if (
        not isinstance(circuits, list)
        or not circuits
        or not all(isinstance(spec, str) and spec for spec in circuits)
    ):
        raise WireError(
            "'circuits' must be a non-empty list of circuit specs "
            "(registry keys, BLIF paths or globs)"
        )

    flow = payload.get("flow", "bds-maj")
    if not isinstance(flow, str):
        raise WireError(f"'flow' must be a string, got {flow!r}")
    verify = payload.get("verify", False)
    if not isinstance(verify, bool):
        raise WireError(f"'verify' must be a boolean, got {verify!r}")

    request = JobRequest(
        circuits=tuple(circuits),
        flow=flow,
        workers=_int_field(payload, "workers", 1),
        verify=verify,
        priority=_int_field(payload, "priority", 0),
    )
    try:
        request.batch_config()
    except ValueError as exc:
        raise WireError(str(exc)) from None
    return request


def job_payload(job: Job) -> dict[str, Any]:
    """The status dict for one job (``GET /jobs/<id>`` and the entries
    of ``GET /jobs``)."""
    return {
        "id": job.id,
        "status": job.state,
        "flow": job.request.flow,
        "circuits": [item.name for item in job.items],
        "priority": job.request.priority,
        "workers": job.request.workers,
        "cancel_requested": job.cancel_requested(),
        "attempts": job.attempts,
        "events": job.total_events,
        "events_dropped": job.events_dropped,
        "error": job.error,
        "result_ready": job.report is not None,
        "cached": job.cache_hit,
    }


def encode_json(payload: dict[str, Any]) -> bytes:
    """Serialize one response body with the schema tag attached (stable
    key order, trailing newline)."""
    payload = dict(payload, schema=SCHEMA)
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


def encode_event_line(payload: dict[str, Any]) -> bytes:
    """One NDJSON progress line as streamed by ``/jobs/<id>/events``."""
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
