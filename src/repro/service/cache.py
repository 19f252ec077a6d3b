"""Self-verifying content-addressed certificate store.

Entries live at ``<root>/<key[:2]>/<key>.json`` where ``key`` is the
sha256 of the request's canonical manifest
(:func:`repro.service.request.request_key`).  Writes are atomic
(tmp+rename).  Every cached answer is a *safety claim*, so a hit is
never served on trust — reads re-establish integrity in three layers,
cheapest first:

1. **Envelope**: kind/schema/key fields must match the request (a file
   renamed or cross-wired between keys is rejected);
2. **Digest**: the payload's canonical-JSON sha256 must equal the
   recorded ``payload_sha256`` (bit rot, torn writes, truncation);
3. **Exact recheck**: when the payload carries a
   :class:`CertificateBundle`, it is deserialized and re-proven over ℚ
   with :func:`repro.soundness.check_certificate` against the problem
   rebuilt from the request manifest — a corrupted-but-self-consistent
   bundle (flipped Gram bits *and* a recomputed digest, i.e. a bug or
   an adversarial write, not just rot) still cannot get out.

Any layer failing **evicts** the entry and reports a miss, so the
caller recomputes; a corrupt result is never returned.  Counters land
in the active telemetry session as ``service.cache.hits`` /
``.misses`` / ``.evictions``.

The ``service.cache_corrupt_bundle`` fault site corrupts the
deserialized bundle in memory between layers 2 and 3, deterministically
exercising the recheck-eviction path end to end.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Optional

from repro.resilience.faults import fired
from repro.service.request import CertificationRequest, canonical_json, request_key
from repro.telemetry import get_telemetry
from repro.utils.fileio import atomic_write_text

CACHE_KIND = "repro_certificate_cache_entry"
CACHE_SCHEMA_VERSION = 1


class CacheEntryError(Exception):
    """An entry failed an integrity layer (recorded on the eviction)."""


def payload_digest(payload: Dict[str, Any]) -> str:
    """sha256 over the canonical JSON of a payload."""
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")
    ).hexdigest()


class CertificateCache:
    """Content-addressed result store for one service root."""

    def __init__(
        self,
        root: str,
        verify_on_read: bool = True,
        max_denominator: Optional[int] = None,
    ) -> None:
        self.root = str(root)
        self.verify_on_read = bool(verify_on_read)
        self.max_denominator = max_denominator
        os.makedirs(self.root, exist_ok=True)
        #: integrity failures seen by this handle, newest last:
        #: ``(key, layer, message)`` — surfaced in service results
        self.eviction_log: list = []

    # -- layout ---------------------------------------------------------
    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    def _count(self, name: str) -> None:
        get_telemetry().metrics.inc(f"service.cache.{name}")

    # -- writes ---------------------------------------------------------
    def put(
        self,
        request: "CertificationRequest | Dict[str, Any]",
        payload: Dict[str, Any],
    ) -> str:
        """Atomically store ``payload`` under the request's key."""
        if not isinstance(request, CertificationRequest):
            request = CertificationRequest.from_dict(dict(request))
        key = request_key(request)
        entry = {
            "kind": CACHE_KIND,
            "schema_version": CACHE_SCHEMA_VERSION,
            "key": key,
            "request": request.manifest(),
            "payload": payload,
            "payload_sha256": payload_digest(payload),
        }
        atomic_write_text(
            self.path_for(key), json.dumps(entry, separators=(",", ":"))
        )
        return key

    def evict(self, key: str, layer: str = "", message: str = "") -> None:
        """Delete an entry (idempotent) and record why."""
        try:
            os.unlink(self.path_for(key))
        except OSError:
            pass
        self.eviction_log.append((key, layer, message))
        self._count("evictions")

    # -- reads ----------------------------------------------------------
    def get(
        self, request: "CertificationRequest | Dict[str, Any]"
    ) -> Optional[Dict[str, Any]]:
        """The verified payload for ``request``, or ``None`` (miss).

        A failed integrity layer evicts and returns ``None`` — the
        caller's only move on a bad entry is to recompute.
        """
        if not isinstance(request, CertificationRequest):
            request = CertificationRequest.from_dict(dict(request))
        key = request_key(request)
        try:
            payload = self._read_verified(request, key)
        except CacheEntryError:
            self._count("misses")
            return None
        if payload is None:
            self._count("misses")
            return None
        self._count("hits")
        return payload

    def _read_verified(
        self, request: CertificationRequest, key: str
    ) -> Optional[Dict[str, Any]]:
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except OSError:
            return None  # plain miss: no entry
        except ValueError as exc:
            self.evict(key, "decode", f"undecodable entry: {exc}")
            raise CacheEntryError(str(exc))
        # layer 1: envelope
        if (
            not isinstance(entry, dict)
            or entry.get("kind") != CACHE_KIND
            or entry.get("schema_version") != CACHE_SCHEMA_VERSION
            or entry.get("key") != key
        ):
            self.evict(key, "envelope", "kind/schema/key mismatch")
            raise CacheEntryError("envelope mismatch")
        payload = entry.get("payload")
        if not isinstance(payload, dict):
            self.evict(key, "envelope", "payload missing")
            raise CacheEntryError("payload missing")
        # layer 2: content digest
        digest = payload_digest(payload)
        if digest != entry.get("payload_sha256"):
            self.evict(
                key, "digest",
                f"payload digest {digest[:12]} != recorded "
                f"{str(entry.get('payload_sha256'))[:12]}",
            )
            raise CacheEntryError("digest mismatch")
        # layer 3: exact recheck of the stored certificate
        if self.verify_on_read and payload.get("bundle") is not None:
            self._recheck_bundle(request, key, payload)
        return payload

    def _recheck_bundle(
        self, request: CertificationRequest, key: str, payload: Dict[str, Any]
    ) -> None:
        from repro.service.jobs import problem_for
        from repro.soundness import (
            SoundnessConfig,
            bundle_from_dict,
            check_certificate,
        )

        problem = problem_for(request)
        if problem is None:
            return  # no reconstructible problem: digest layer is the gate
        try:
            bundle = bundle_from_dict(payload["bundle"])
        except Exception as exc:
            self.evict(key, "bundle", f"bundle deserialization: {exc}")
            raise CacheEntryError(str(exc))
        if fired("service.cache_corrupt_bundle") and bundle.conditions:
            # deterministic chaos: inflate the first condition's claimed
            # strictness margin.  Gram-entry bit flips are *repaired* by
            # the checker's residual absorption (the Gram is only a
            # witness), but a stronger claim than the barrier supports
            # forces absorption to push the slack Gram off PSD — a
            # corruption the digest cannot see and only the exact
            # recheck can reject
            bundle.conditions[0].margin = (
                float(bundle.conditions[0].margin) + 10.0
            )
        config = (
            SoundnessConfig(max_denominator=self.max_denominator)
            if self.max_denominator is not None
            else None
        )
        try:
            report = check_certificate(problem, bundle, config)
        except Exception as exc:
            self.evict(key, "recheck", f"recheck raised: {exc}")
            raise CacheEntryError(str(exc))
        if not report.ok:
            self.evict(
                key, "recheck",
                "exact recheck rejected cached certificate "
                f"(failed: {report.failed_conditions()})",
            )
            raise CacheEntryError("exact recheck failed")

    # -- introspection --------------------------------------------------
    def keys(self) -> list:
        out = []
        for dirpath, dirnames, filenames in os.walk(self.root):
            dirnames.sort()
            for filename in sorted(filenames):
                if filename.endswith(".json"):
                    out.append(filename[: -len(".json")])
        return out

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self.path_for(key))
