"""Named deterministic random substreams with block-prefetched draw planes.

Every stochastic element of the simulation (device arrival processes,
critical-section lengths, memory-bus noise, ...) draws from its own
named stream derived from a single master seed.  This keeps experiments
reproducible while decoupling the streams: adding one more draw to the
NIC model does not perturb the disk model.

Streams are ``numpy.random.Generator`` instances seeded through
``numpy.random.SeedSequence.spawn``-style child derivation keyed on the
stream name, so the mapping name -> stream is stable across runs and
insensitive to creation order.

Draw planes
-----------

Scalar ``Generator`` draws dominate the cost model's profile: one
``rng.integers(lo, hi)`` call is ~30x the per-draw cost of a block
draw, and figure runs make hundreds of thousands of them.
:meth:`RngStreams.stream` therefore returns a :class:`PlanedGenerator`
-- a facade that serves the same scalar-draw API but, once a call site
shows a streak of identical draws (same method, same parameters),
pre-generates a whole *plane* of values in one vectorised call and
serves them one by one.

The bit-stream contract is absolute: a planed stream must consume the
underlying ``BitGenerator`` exactly as the equivalent sequence of
scalar draws would (NumPy fills arrays element-by-element with the
same per-element algorithm, so a size-``n`` block draw advances the
state identically to ``n`` scalar draws -- property-tested in
``tests/sim/test_rng_planes.py``).  When the draw pattern changes
mid-plane, the wrapper rewinds the generator to the state saved before
the block and replays only the draws actually consumed, leaving the
stream bit-for-bit where a scalar-only consumer would have left it.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional, Tuple

import numpy as np

#: The repo-wide default master seed.  Every layer that needs a seed
#: (``Simulator``, ``build_bench``, ``ScenarioSpec``) defaults to this
#: one value, so a run's seed is stated in exactly one place.
DEFAULT_SEED = 1

#: Consecutive same-signature scalar draws before the first prefetch.
PLANE_THRESHOLD = 4
#: First plane size; planes double on exhaustion within one streak.
PLANE_START = 8
#: Planes never exceed this many draws.
PLANE_MAX = 4096


class PlanedGenerator:
    """Scalar-draw facade over a ``Generator`` with block prefetching.

    The wrapper watches the *signature* of each scalar draw (method
    name plus parameters).  A streak of identical signatures -- a
    device drawing inter-arrival gaps, the cost model sampling one
    ``Uniform`` -- is served from a pre-generated plane; heterogeneous
    patterns (e.g. ``Choice``'s ``random()`` / sub-dist interleave)
    stay on direct scalar draws and pay only a tuple compare.

    Per-signature run lengths are remembered, so a stream that
    alternates between a long homogeneous phase and a short noisy one
    sizes its planes to the phase and does not thrash the
    rewind-and-replay path.
    """

    __slots__ = ("_gen", "_sig", "_buf", "_pos", "_len", "_run",
                 "_predict", "_saved_state", "_block", "_direct",
                 "_hits", "_misses")

    def __init__(self, gen: np.random.Generator) -> None:
        self._gen = gen
        self._sig: Optional[Tuple] = None   # signature of the current streak
        self._buf: Optional[list] = None    # active plane (Python scalars)
        self._pos = 0                       # next unserved index in _buf
        self._len = 0                       # len(_buf)
        self._run = 0                       # draws served in this streak
        self._predict: Dict[Tuple, int] = {}  # sig -> last full streak length
        self._saved_state = None            # bitgen state before the plane
        self._block = 0                     # plane size for this streak
        #: Streams whose draw pattern never settles (the kernel cost
        #: model interleaves per-key distributions on one stream, so
        #: signatures alternate nearly every call) drop to permanent
        #: passthrough once the plane hit rate proves hopeless -- one
        #: flag test per draw instead of streak bookkeeping.
        self._direct = False
        self._hits = 0                      # draws served from planes
        self._misses = 0                    # signature switches seen

    # ------------------------------------------------------------------
    # The planed scalar-draw API (everything the simulation uses hot)
    # ------------------------------------------------------------------
    def integers(self, low, high=None, size=None):
        if self._direct:
            return self._gen.integers(low, high, size)
        if size is not None or high is None:
            return self._bulk("integers", (low,) if high is None else
                              (low, high), size)
        sig = ("integers", low, high)
        if sig == self._sig and self._pos < self._len:
            pos = self._pos
            self._pos = pos + 1
            return self._buf[pos]
        return self._slow(sig)

    def random(self, size=None):
        if self._direct:
            return self._gen.random(size)
        if size is not None:
            return self._bulk("random", (), size)
        sig = ("random",)
        if sig == self._sig and self._pos < self._len:
            pos = self._pos
            self._pos = pos + 1
            return self._buf[pos]
        return self._slow(sig)

    def uniform(self, low=0.0, high=1.0, size=None):
        if self._direct:
            return self._gen.uniform(low, high, size)
        if size is not None:
            return self._bulk("uniform", (low, high), size)
        sig = ("uniform", low, high)
        if sig == self._sig and self._pos < self._len:
            pos = self._pos
            self._pos = pos + 1
            return self._buf[pos]
        return self._slow(sig)

    def exponential(self, scale=1.0, size=None):
        if self._direct:
            return self._gen.exponential(scale, size)
        if size is not None:
            return self._bulk("exponential", (scale,), size)
        sig = ("exponential", scale)
        if sig == self._sig and self._pos < self._len:
            pos = self._pos
            self._pos = pos + 1
            return self._buf[pos]
        return self._slow(sig)

    def lognormal(self, mean=0.0, sigma=1.0, size=None):
        if self._direct:
            return self._gen.lognormal(mean, sigma, size)
        if size is not None:
            return self._bulk("lognormal", (mean, sigma), size)
        sig = ("lognormal", mean, sigma)
        if sig == self._sig and self._pos < self._len:
            pos = self._pos
            self._pos = pos + 1
            return self._buf[pos]
        return self._slow(sig)

    def normal(self, loc=0.0, scale=1.0, size=None):
        if self._direct:
            return self._gen.normal(loc, scale, size)
        if size is not None:
            return self._bulk("normal", (loc, scale), size)
        sig = ("normal", loc, scale)
        if sig == self._sig and self._pos < self._len:
            pos = self._pos
            self._pos = pos + 1
            return self._buf[pos]
        return self._slow(sig)

    def poisson(self, lam=1.0, size=None):
        if self._direct:
            return self._gen.poisson(lam, size)
        if size is not None:
            return self._bulk("poisson", (lam,), size)
        sig = ("poisson", lam)
        if sig == self._sig and self._pos < self._len:
            pos = self._pos
            self._pos = pos + 1
            return self._buf[pos]
        return self._slow(sig)

    # ------------------------------------------------------------------
    # Streak machinery
    # ------------------------------------------------------------------
    def _slow(self, sig: Tuple):
        """Cache miss: streak continues past the plane, or a new sig."""
        if sig == self._sig:
            return self._extend(sig)
        return self._switch(sig)

    def _extend(self, sig: Tuple):
        """Same signature, no plane value left: prefetch or draw direct.

        ``_run`` counts the draws served in this streak *before* the
        currently active plane; plane serves are implicit in ``_pos``
        and folded in when the plane closes.
        """
        if self._buf is not None:
            # A plane was exhausted mid-streak: the streak is longer
            # than predicted, so absorb it and double the next plane.
            self._run += self._len
            self._hits += self._len
            self._buf = None
            self._len = 0
            block = self._block * 2
            if block > PLANE_MAX:
                block = PLANE_MAX
            return self._prefetch(sig, block)
        run = self._run
        if run >= PLANE_THRESHOLD:
            expected = self._predict.get(sig)
            if expected is None or expected <= run:
                # Unknown pattern, or the streak outgrew its last
                # length: start small and double on demand.
                return self._prefetch(sig, PLANE_START)
            remaining = expected - run
            if remaining >= PLANE_START:
                block = remaining if remaining <= PLANE_MAX else PLANE_MAX
                return self._prefetch(sig, block)
            # Predicted tail too short to amortise a plane.
        self._run = run + 1
        return getattr(self._gen, sig[0])(*sig[1:])

    def _prefetch(self, sig: Tuple, block: int):
        gen = self._gen
        self._saved_state = gen.bit_generator.state
        values = getattr(gen, sig[0])(*sig[1:], size=block)
        buf = values.tolist()
        self._buf = buf
        self._len = block
        self._pos = 1
        self._block = block
        return buf[0]

    def _switch(self, sig: Tuple):
        """The draw pattern changed: close out the old streak.

        Prediction entries are only worth storing for streaks that
        reached :data:`PLANE_THRESHOLD` (shorter ones never prefetch),
        which keeps this path to a couple of slot writes for streams
        that alternate signatures on every draw.  If such a stream
        racks up switches without ever amortising them through plane
        hits, it is declared hopeless and dropped to direct
        passthrough for the rest of its life.
        """
        old = self._sig
        if old is not None:
            if self._buf is not None:
                self._hits += self._pos
                self._predict[old] = self._run + self._pos
                self._resync(old)
            elif self._run >= PLANE_THRESHOLD:
                self._predict[old] = self._run
            misses = self._misses + 1
            self._misses = misses
            if misses >= 512 and self._hits < (misses >> 2):
                self._direct = True
                self._sig = None
                self._run = 0
                self._block = 0
                return getattr(self._gen, sig[0])(*sig[1:])
        self._sig = sig
        self._run = 1
        self._block = 0
        return getattr(self._gen, sig[0])(*sig[1:])

    def _resync(self, sig: Tuple) -> None:
        """Discard unserved plane values, leaving the underlying stream
        exactly where the equivalent scalar-only draws would have.

        The plane consumed bits for every element when it was
        generated; rewinding to the saved pre-plane state and redrawing
        only the served prefix (one vectorised call) re-lands the
        ``BitGenerator`` on the scalar-equivalent state.
        """
        buf = self._buf
        if buf is None:
            return
        pos = self._pos
        self._buf = None
        self._len = 0
        if pos < len(buf):
            gen = self._gen
            gen.bit_generator.state = self._saved_state
            if pos:
                getattr(gen, sig[0])(*sig[1:], size=pos)
        self._saved_state = None

    def _bulk(self, name: str, args: Tuple, size):
        """An explicitly sized (array) draw: sync, then delegate."""
        self.sync()
        method = getattr(self._gen, name)
        if size is None:
            return method(*args)
        return method(*args, size=size)

    # ------------------------------------------------------------------
    # Escape hatches
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Flush plane state so ``generator`` is scalar-equivalent."""
        sig = self._sig
        if sig is not None:
            total = self._run
            if self._buf is not None:
                total += self._pos
            self._predict[sig] = total
            self._resync(sig)
            self._sig = None
            self._run = 0
            self._block = 0

    @property
    def generator(self) -> np.random.Generator:
        """The underlying ``Generator``, synced to the scalar-equivalent
        state.  Draws made directly on it interleave correctly with
        later planed draws."""
        self.sync()
        return self._gen

    def __getattr__(self, name: str):
        # Any Generator API the facade does not accelerate (choice,
        # shuffle, bit_generator, ...) falls through to the synced
        # generator, so mixed usage stays bit-identical.
        self.sync()
        return getattr(self._gen, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PlanedGenerator sig={self._sig} run={self._run}>"


class RngStreams:
    """Factory and registry for named random substreams."""

    def __init__(self, master_seed: Optional[int] = None, *,
                 planes: bool = True) -> None:
        if master_seed is None:
            master_seed = DEFAULT_SEED
        self._master_seed = int(master_seed)
        self._streams: Dict[str, object] = {}
        self._planes = bool(planes)

    @property
    def master_seed(self) -> int:
        return self._master_seed

    @property
    def planes_enabled(self) -> bool:
        return self._planes

    def _derive(self, name: str) -> np.random.Generator:
        # Derive a child seed from the master seed and a stable hash
        # of the name.  crc32 is stable across processes and Python
        # versions (unlike hash()).
        child = np.random.SeedSequence(
            entropy=self._master_seed,
            spawn_key=(zlib.crc32(name.encode("utf-8")),),
        )
        return np.random.Generator(np.random.PCG64(child))

    def stream(self, name: str):
        """Return the generator for *name*, creating it on first use.

        The same name always maps to the same stream object (and, for a
        given master seed, the same sequence) regardless of when or in
        what order streams are requested.  With planes enabled (the
        default) the returned object is a :class:`PlanedGenerator`
        serving the bit-identical sequence with block prefetching.
        """
        gen = self._streams.get(name)
        if gen is None:
            gen = self._derive(name)
            if self._planes:
                gen = PlanedGenerator(gen)
            self._streams[name] = gen
        return gen

    def raw_stream(self, name: str) -> np.random.Generator:
        """The underlying ``Generator`` for *name* (synced if planed)."""
        stream = self.stream(name)
        if isinstance(stream, PlanedGenerator):
            return stream.generator
        return stream

    def names(self) -> list:
        """Names of all streams created so far (sorted)."""
        return sorted(self._streams)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RngStreams seed={self._master_seed} streams={len(self._streams)}>"
