"""Seeded LNT105 violations: execution settings read from the environment.

Never imported — parsed by the lint checkers in tests and by the CI gate.
"""

import os


def resolve_settings(name):
    kind = os.environ.get("REPRO_EXECUTOR")  # LNT105
    tier = os.environ["REPRO_CODEGEN"]  # LNT105
    trace = os.getenv("REPRO_TRACE", "")  # LNT105
    dynamic = os.environ.get(name)  # LNT105
    snapshot = dict(os.environ)  # LNT105
    # negatives the checker must NOT flag: deployment settings
    cc = os.environ.get("REPRO_NATIVE_CC") or "cc"
    cache = os.environ["REPRO_NATIVE_CACHE"]
    context = os.getenv("REPRO_MP_CONTEXT")
    disabled = os.environ.get("REPRO_NATIVE_DISABLE", "")
    return kind, tier, trace, dynamic, snapshot, cc, cache, context, disabled
