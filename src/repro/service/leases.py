"""Advisory leases over artifact-store keys.

A lease is a JSON sidecar next to a key's object slot
(``objects/<k[:2]>/<key>.json.gz.lease``, see
:meth:`~repro.store.ArtifactStore.lease_path_for`) holding the owner id
and a TTL'd heartbeat.  Workers claim the lease on a job's ``final_key``
before computing it, so multiple hosts' fleets carve up a sweep with no
coordinator beyond the shared filesystem:

* **claim** — the complete sidecar is hard-linked into place, which
  fails when it exists (like ``O_CREAT | O_EXCL``): the filesystem picks
  exactly one winner per slot, and no claimant ever sees a half-written
  sidecar; losers back off to other keys;
* **heartbeat** — the owner periodically rewrites the sidecar
  (atomic temp + rename) with a fresh timestamp, first re-reading it to
  detect that someone took the lease over (heartbeat returns ``False``
  and the deposed owner must abandon the job);
* **takeover** — a lease whose heartbeat is older than its TTL is
  *stale*: any worker may remove it and re-race the exclusive claim —
  again exactly one winner.  Combined with the phase graph's
  checkpoint/resume, the successor continues the dead worker's job
  from its deepest checkpoint.

Leases are advisory: nothing in :class:`~repro.store.ArtifactStore`
enforces them, and because store writes are content-addressed and
idempotent, a double execution during a pathological race costs wasted
work, never a wrong or torn artifact.  ``ArtifactStore.verify``/``gc``
collect stale sidecars so a crashed fleet self-heals.
"""

from __future__ import annotations

import errno
import json
import os
import socket
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Union

from ..store import ArtifactStore

#: Default heartbeat-expiry window, seconds.  Heartbeats are expected
#: every few seconds, so an order of magnitude of slack keeps takeover
#: prompt without false-positive steals under load.
DEFAULT_TTL = 30.0


def default_owner() -> str:
    """Hostname+pid owner id, unique per worker process per host."""
    return f"{socket.gethostname()}:{os.getpid()}"


@dataclass
class Lease:
    """A successfully claimed lease on one store key."""

    key: str
    owner: str
    path: Path
    acquired: float
    ttl: float
    #: Set when the claim displaced a stale previous owner.
    taken_over_from: Optional[str] = None


class LeaseManager:
    """Claim, heartbeat and release leases against one artifact store."""

    def __init__(self, store: Union[ArtifactStore, str, Path], *,
                 owner: Optional[str] = None,
                 ttl: float = DEFAULT_TTL) -> None:
        self.store = (store if isinstance(store, ArtifactStore)
                      else ArtifactStore(store))
        self.owner = owner if owner is not None else default_owner()
        self.ttl = float(ttl)

    # ------------------------------------------------------------------
    def _payload(self, acquired: float, heartbeat: float) -> Dict:
        return {"owner": self.owner, "acquired": acquired,
                "heartbeat": heartbeat, "ttl": self.ttl}

    def _write_exclusive(self, path: Path, payload: Dict) -> bool:
        """Create ``path`` with ``payload`` iff it does not exist.

        The payload goes to a private temp file that is then hard-linked
        into place (``link`` fails when the target exists, like
        ``O_EXCL``), so the sidecar appears complete: a racing claimant
        can never read it half-written, take it for corrupt (hence stale)
        and steal it.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        descriptor, temp = tempfile.mkstemp(dir=path.parent,
                                            prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as stream:
                stream.write(json.dumps(payload, sort_keys=True))
            os.link(temp, path)
        except FileExistsError:
            return False
        finally:
            os.unlink(temp)
        return True

    def _overwrite(self, path: Path, payload: Dict) -> None:
        """Atomically replace ``path`` (temp + rename, heartbeat path)."""
        temp = path.with_name(path.name + f".tmp-{self.owner.rsplit(':', 1)[-1]}")
        with open(temp, "w", encoding="utf-8") as stream:
            stream.write(json.dumps(payload, sort_keys=True))
        os.replace(temp, path)

    # ------------------------------------------------------------------
    def claim(self, key: str) -> Optional[Lease]:
        """Try to acquire the lease on ``key``; ``None`` when held.

        Fresh claims race on exclusive creation — exactly one caller
        wins.  A stale lease (heartbeat older than its TTL, or an
        unreadable sidecar) is removed and the claim retried once; the
        unlink/recreate window re-races through the exclusive create, so
        concurrent takeovers still elect a single winner.
        """
        path = self.store.lease_path_for(key)
        now = time.time()
        if self._write_exclusive(path, self._payload(now, now)):
            return Lease(key=key, owner=self.owner, path=path,
                         acquired=now, ttl=self.ttl)

        current = self.store.read_lease(key)
        if not self.store.lease_is_stale(current, now=now):
            return None
        # Stale (or corrupt): take it over.  Ignore a concurrent unlink.
        previous = (current or {}).get("owner")
        try:
            os.unlink(path)
        except OSError as error:  # pragma: no cover - takeover race
            if error.errno != errno.ENOENT:
                raise
        now = time.time()
        if self._write_exclusive(path, self._payload(now, now)):
            return Lease(key=key, owner=self.owner, path=path,
                         acquired=now, ttl=self.ttl,
                         taken_over_from=(previous if isinstance(previous, str)
                                          else None))
        return None

    def heartbeat(self, lease: Lease) -> bool:
        """Refresh ``lease``; ``False`` when ownership was lost.

        Re-reads the sidecar first: if another worker took the lease
        over (or collected it), the deposed owner must stop working the
        key — its artifacts stay valid (content-addressed), but the
        terminal job state belongs to the new owner.
        """
        current = self.store.read_lease(lease.key)
        if current is None or current.get("owner") != self.owner:
            return False
        self._overwrite(lease.path,
                        self._payload(lease.acquired, time.time()))
        return True

    def release(self, lease: Lease) -> None:
        """Drop the lease (only if still ours); idempotent."""
        current = self.store.read_lease(lease.key)
        if current is not None and current.get("owner") != self.owner:
            return
        try:
            os.unlink(lease.path)
        except OSError as error:
            if error.errno != errno.ENOENT:  # pragma: no cover
                raise
