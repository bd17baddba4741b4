"""The shape of the ``plan`` command's JSON report, and the one way the
tests read a report: strict JSON, checked against ``PLAN_REPORT_SCHEMA``.
``cmd_plan`` fixes the shape when it builds the report; the suite checks
every report it makes the command write."""

import json

import jsonschema

PLAN_REPORT_SCHEMA = {
    "type": "object",
    "required": [
        "schema",
        "a",
        "mode",
        "alpha_th",
        "utilization",
        "quality",
        "cost",
        "plan",
        "candidates_evaluated",
        "benchmark",
        "startup_slot",
        "arrived_frames",
        "watched_frames",
        "bits_used_per_slot",
        "metadata",
    ],
    "properties": {
        "schema": {"const": "abrplan.plan/1"},
        "a": {"type": "number", "minimum": 0},
        "mode": {"enum": ["optimal", "invest"]},
        "alpha_th": {"type": "number", "minimum": 0},
        "utilization": {"type": "number", "minimum": 0},
        "quality": {"type": "number", "minimum": 0},
        "cost": {"type": "number"},
        "plan": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "candidates_evaluated": {"type": "integer", "minimum": 1},
        "benchmark": {
            "type": "object",
            "required": ["alpha", "utilization", "quality", "cost"],
        },
        "startup_slot": {"type": "integer", "minimum": 0},
        "arrived_frames": {"type": "array", "items": {"type": "number"}},
        "watched_frames": {"type": "array", "items": {"type": "number"}},
        "bits_used_per_slot": {"type": "array", "items": {"type": "number"}},
        "metadata": {"type": "object"},
    },
}

_VALIDATOR = jsonschema.Draft202012Validator(PLAN_REPORT_SCHEMA)


def _reject(constant):
    raise ValueError(f"plan report holds {constant}, which is not strict JSON")


def read_plan_report(path) -> dict:
    """The report at ``path``, after checking that it is strict JSON (no
    NaN or Infinity) and matches ``PLAN_REPORT_SCHEMA``."""
    with open(path) as f:
        report = json.load(f, parse_constant=_reject)
    _VALIDATOR.validate(report)
    return report
