"""Named deterministic random streams.

Every stochastic decision in the reproduction (latency jitter, workload
mix, fault timing, ...) draws from a named stream derived from a single
root seed.  Two properties matter:

* **Reproducibility** — the same root seed always yields the same run.
* **Isolation** — adding draws to one subsystem does not perturb the
  sequence seen by another, because each name owns an independent
  :class:`random.Random` instance seeded from ``(root_seed, name)``.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RandomStreams:
    """A factory for isolated, deterministic :class:`random.Random`
    streams."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            digest = hashlib.sha256(
                f"{self.seed}:{name}".encode("utf-8")).digest()
            stream = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = stream
        return stream

    def fork(self, name: str) -> "RandomStreams":
        """Derive an independent family of streams, e.g. per test run."""
        digest = hashlib.sha256(
            f"{self.seed}/{name}".encode("utf-8")).digest()
        return RandomStreams(int.from_bytes(digest[:8], "big"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<RandomStreams seed={self.seed} "
                f"streams={sorted(self._streams)}>")
