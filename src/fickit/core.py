"""Domain types and information/entropy primitives.

All information quantities are measured in nats. Every Monte Carlo
operation is a pure function of its inputs and a 64-bit seed: replicate
``r`` draws from an RNG stream derived from ``(seed, r)``, so results do
not depend on evaluation order or on how replicates are grouped.

A Dataset holds one sample (shape (N,)) or a block of R samples (shape
(R, N), one per row). The Monte Carlo engine draws, fits and scores the
replicates a block at a time; see ``replicate_values``.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

# Byte budget of one (rows x N) float64 array of the Monte Carlo engine.
# Replicates are drawn, fit and scored in chunks of at most this many
# bytes per array, so memory stays flat in the replicate count; a
# complexity call holds about a dozen such arrays at once.
BLOCK_BYTES = 128 * 1024

LOG_2PI = math.log(2.0 * math.pi)


def _chunk_rows(n: int, budget: int) -> int:
    return max(1, budget // (8 * n))        # rows of n floats, at least one


class FickitError(Exception):
    """Base class for errors raised by this package."""


class DensityError(FickitError):
    """A log density evaluated to a non-finite value (underflow or
    invalid parameters). Never silently propagated as +/-inf."""


class FitError(FickitError):
    """A fitting procedure failed or produced a degenerate density."""


class StructuredDataError(FickitError):
    """Resampling-style validation was requested for a family whose
    observations are not exchangeable (e.g. time series)."""


def row_error(cls, bad, message: str) -> Exception:
    """``cls(message)`` for a failure flagged in ``bad``: a scalar flag
    for one dataset, or one flag per block row. A block error names its
    first flagged row in the message and in its ``row`` attribute."""
    bad = np.asarray(bad)
    if bad.ndim == 0:
        return cls(message)
    row = int(np.argmax(bad))
    exc = cls(f"row {row}: {message}")
    exc.row = row
    return exc


def replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    """Independent RNG stream for one Monte Carlo replicate. The
    reference for ``replicate_values``, which seeds the same streams
    bit for bit, a window of replicates at a time."""
    return np.random.default_rng([int(seed) % 2**63, int(replicate)])


# numpy's SeedSequence hash, pool size 4. Its i-th hash of mix_entropy
# (A) or generate_state (B) xors a uint32 word by INIT * MULT**i and
# multiplies it by INIT * MULT**(i + 1) mod 2**32: constants of no data.
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_HASH_A, _HASH_B = ([init * pow(mult, i, 2**32) % 2**32 for i in range(17)]
                    for init, mult in ((_INIT_A, _MULT_A), (_INIT_B, _MULT_B)))


def _hashmix(v: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` of uint32 words, constants given."""
    v = (v ^ xor) * mult
    return v ^ (v >> 16)


def _stream_words(seed: int, start: int, stop: int) -> np.ndarray:
    """``SeedSequence([seed % 2**63, r]).generate_state(4, np.uint64)``
    for r in start..stop-1, one row each, hashed as one uint32 column
    per replicate. The entropy words are the seed's one or two, then
    r's low and high word: a zero word hashes as a missing one, so any
    r below 2**64 fits the pool (``np.arange`` refuses a larger one).
    """
    s = int(seed) % 2**63
    r = np.arange(start, stop, dtype=np.uint64)
    pool = np.zeros((4, r.size), np.uint32)
    k = 1 if s < 2**32 else 2
    pool[:k] = np.array([s % 2**32, s >> 32][:k], np.uint32)[:, None]
    pool[k], pool[k + 1] = r % 2**32, r >> 32
    # Made per call, not at import: numpy's uint32 code pages (about
    # 64 KB resident) are then paid only by a run that seeds streams.
    a, b = (np.array(h, np.uint32)[:, None] for h in (_HASH_A, _HASH_B))
    pool = _hashmix(pool, a[:4], a[1:5])
    for i, (src, dst) in enumerate(itertools.permutations(range(4), 2), 4):
        mixed = (_MIX_MULT_L * pool[dst]
                 - _MIX_MULT_R * _hashmix(pool[src], a[i], a[i + 1]))
        pool[dst] = mixed ^ (mixed >> 16)
    state = _hashmix(pool[[0, 1, 2, 3] * 2], b[:8], b[1:9])
    return np.ascontiguousarray(state.T, "<u4").view("<u8").astype(np.uint64)


@functools.cache
def _stream_from_words() -> Callable:
    """``words -> Generator(PCG64(seq))`` for a minimal ISeedSequence
    ``seq`` whose state is those words (PCG64 asks for 4 uint64). Built
    on first use, so importing fickit does not load ``numpy.random``."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return lambda words: Generator(PCG64(Words(words)))


def derive_seed(seed: int, *tags: int) -> int:
    """Derive a stable sub-seed for a named stream of a larger run."""
    ss = np.random.SeedSequence([int(seed) % 2**63, *[int(t) for t in tags]])
    return int(ss.generate_state(1, np.uint64)[0])


class _Deferred:
    """A dataclass whose ``_defer(build, **fields)`` instance holds
    ``fields`` and ``build``, which returns a dict of the others. The
    first read of one of those builds them all, once: ``build`` and all
    it holds are then dropped. Any other missing name, private and
    dunder ones too, raises ``AttributeError`` and builds nothing."""

    @classmethod
    def _defer(cls, build: Callable[[], dict], **fields):
        obj = object.__new__(cls)
        obj.__dict__.update(fields, _build=build)
        return obj

    def __getattr__(self, name: str):
        if ("_build" not in self.__dict__ or name.startswith("_")
                or name not in self.__dataclass_fields__):
            raise AttributeError(f"{type(self).__name__!r} object has no "
                                 f"attribute {name!r}")
        self.__dict__.update(self._build())
        del self.__dict__["_build"]
        return self.__dict__[name]


@dataclass(frozen=True)
class Dataset(_Deferred):
    """An ordered sample of real-valued observations, or a block of
    samples of equal size, one per row.

    The observations of a sample are treated as one structured unit: no
    operation in this package permutes or subsets them implicitly.
    ``sample_size`` is the length of the last axis.
    """

    values: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self, copy: bool = True):
        vals = np.array(self.values, dtype=float, copy=copy or None)
        if vals.ndim not in (1, 2) or 0 in vals.shape:
            raise ValueError("Dataset requires a non-empty 1-D sequence "
                             "or 2-D block")
        if not np.isfinite(vals).all():
            raise row_error(ValueError, ~np.isfinite(vals).all(axis=-1),
                            "Dataset values must all be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def _own(cls, values: np.ndarray) -> "Dataset":
        """A Dataset of ``values``, a float array its caller has just
        made: checked and made read-only as any, but not copied."""
        data = object.__new__(cls)
        data.__dict__.update(_memo={}, values=values)
        data.__post_init__(copy=False)
        return data

    @classmethod
    def _deferred(cls, build: Callable[[], np.ndarray], transform: Callable,
                  known: np.ndarray) -> "Dataset":
        """A Dataset whose ``memo(transform)`` is ``known`` (shaped as
        the values, and checked for finite rows as they are) from the
        start, and whose fresh values ``build()`` makes only when read."""
        if not np.isfinite(known).all():
            raise row_error(ValueError, ~np.isfinite(known).all(axis=-1),
                            "Dataset values must all be finite")
        known.setflags(write=False)
        return cls._defer(lambda: {"values": Dataset._own(build()).values},
                          _memo={transform: known})

    @property
    def sample_size(self) -> int:
        if "values" not in self.__dict__:       # deferred, not yet read
            return int(next(iter(self._memo.values())).shape[-1])
        return int(self.values.shape[-1])

    def memo(self, transform: Callable) -> np.ndarray:
        """``transform(values)``, computed once per Dataset, read-only."""
        if transform not in self._memo:
            self._memo[transform] = out = transform(self.values)
            out.setflags(write=False)
        return self._memo[transform]


def draw_rows(rng, law: str, n: int, *args) -> np.ndarray:
    """``getattr(rng, law)(*args, size=n)`` for one Generator; for a
    sequence of Generators, one (rows, n) block with row i drawn from
    the i-th, in order.

    A law without arguments (a standard distribution) draws each row
    straight into the block; one with arguments (``"choice"`` from an
    array of values) copies each row in.
    """
    if isinstance(rng, np.random.Generator):
        return getattr(rng, law)(*args, size=n)
    block = np.empty((len(rng), n))
    for g, row in zip(rng, block):
        if args:
            row[:] = getattr(g, law)(*args, size=n)
        else:
            getattr(g, law)(out=row)
    return block


@dataclass(frozen=True)
class ParameterVector(_Deferred):
    """Continuous parameter coordinates plus optional discrete tags
    (e.g. selected frequency indices of a greedy fit). Both are stored
    as read-only copies: the coordinates as a float array, the tags as
    an int array of distinct values.

    The parameters of a fit to a block carry a leading axis: one row of
    coordinates, and one row of tags, per dataset.
    """

    coordinates: np.ndarray
    # A factory default leaves no class attribute ``tags``, so a
    # deferred vector's first read of it reaches ``__getattr__``.
    tags: Optional[np.ndarray] = field(default_factory=lambda: None)

    def __post_init__(self):
        coords = np.atleast_1d(np.array(self.coordinates, dtype=float))
        coords.setflags(write=False)
        object.__setattr__(self, "coordinates", coords)
        if self.tags is not None:
            tags = np.array(self.tags, dtype=int)
            ordered = np.sort(tags, axis=-1)
            if (ordered[..., 1:] == ordered[..., :-1]).any():
                raise ValueError("discrete tags must be distinct")
            tags.setflags(write=False)
            object.__setattr__(self, "tags", tags)

    @classmethod
    def _deferred(cls, build: Callable[[], tuple]) -> "ParameterVector":
        """A ParameterVector of the (coordinates, tags) ``build()`` makes,
        checked as any, only when its fields or dimension are first read."""
        return cls._defer(lambda: vars(ParameterVector(*build())))

    @property
    def dimension(self) -> int:
        """Number of continuous coordinates (discrete tags excluded)."""
        return int(self.coordinates.shape[-1])


@dataclass(frozen=True)
class FittedModel:
    """A concrete distribution over datasets, or one per block row.

    ``log_density`` maps a Dataset to its log density in nats, one
    value per row. A model fit to a block scores row r under the fit to
    row r; a model fit to one dataset scores every row under that fit.

    ``noise`` names the Generator method that draws the model's
    standard noise, and ``from_noise`` maps an (N,) noise array, or an
    (R, N) block of them, or a Dataset holding either, to data.
    ``from_noise`` never writes into its argument, so models with one
    noise law can share one draw, and what a noise Dataset memoises.

    A Gaussian model (independent normal observations) also carries
    its ``mean``, a function of the sample size n giving the (n,) mean
    (or (R, n) for a fit to a block), and its ``variance``, a scalar or
    one per row. Other models leave both None. A unit-variance Gaussian
    model that scores in coefficient space also carries the orthonormal
    Fourier coefficients (``models.fourier_transform``) it ``kept``,
    (N,) or one row per fit, in place of its mean; every other model
    leaves ``kept`` None. A model carrying ``kept`` samples data whose
    coefficients are ``kept + c(noise)``, so the Monte Carlo engine may
    use ``kept`` without calling ``from_noise``.
    """

    params: ParameterVector
    log_density: Callable[[Dataset], np.ndarray]
    from_noise: Callable[[np.ndarray], Dataset]
    noise: str = "standard_normal"
    label: str = ""
    mean: Optional[Callable[[int], np.ndarray]] = None
    variance: Optional[np.ndarray] = None
    kept: Optional[np.ndarray] = None

    def sampler(self, sample_size: int, rng) -> Dataset:
        """A Dataset of exactly ``sample_size`` drawn from a Generator,
        or a block with one row per Generator of a sequence of them."""
        return self.from_noise(draw_rows(rng, self.noise, sample_size))


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A replayable stochastic scalar: value +/- standard error."""

    value: float
    std_error: float
    replicates: int
    seed: int

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be positive")
        if self.std_error < 0:
            raise ValueError("std_error must be non-negative")

    @classmethod
    def from_values(cls, values: np.ndarray, seed: int) -> "MonteCarloEstimate":
        values = np.asarray(values, dtype=float)
        n = values.size
        se = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        return cls(value=float(values.mean()), std_error=se,
                   replicates=n, seed=int(seed))


def replicate_values(draw, sample_size: int, replicates: int, seed: int,
                     statistics: Sequence[Callable[..., np.ndarray]],
                     draws: int = 1) -> list:
    """Values of each statistic over Monte Carlo replicates
    0..replicates-1.

    Replicate r draws ``draws`` blocks in turn from the stream
    ``replicate_rng(seed, r)`` through ``draw(sample_size, rngs)``.
    Replicates run in chunks of at most ``BLOCK_BYTES`` per
    (rows x N) array: a chunk builds its streams and draws its blocks
    once, row i from stream start + i, and each statistic maps the
    blocks to one value (or one row of values) per block row. A value
    therefore depends neither on the replicate count, nor on the
    chunks, nor on the other statistics. The streams are built bit for
    bit as ``replicate_rng`` builds them, from seed words hashed for a
    window of chunks at a time.

    Returns one entry per statistic: an array with one row per
    replicate, or the error that stopped the statistic. The error names
    its replicate and seed; a ``FickitError`` keeps its type, and any
    other ``ValueError`` becomes a plain one. A failed statistic is not
    evaluated again while the others go on; a failed draw fails every
    statistic still running. ``unwrap`` raises the first failure.
    """
    if replicates < 2:
        raise ValueError("replicates must be >= 2")
    rows = _chunk_rows(int(sample_size), BLOCK_BYTES)
    # The streams' seed words are hashed a window of whole chunks at a
    # time: BLOCK_BYTES of 32-byte rows, or one chunk when that is more.
    window = rows * max(1, BLOCK_BYTES // (32 * rows))
    stream = _stream_from_words()
    out = [None] * len(statistics)
    for start in range(0, replicates, rows):
        live = [i for i, o in enumerate(out) if not isinstance(o, Exception)]
        if not live:
            break
        stop = min(start + rows, replicates)
        if start % window == 0:
            words = _stream_words(seed, start, min(start + window, replicates))
        rngs = [stream(w) for w in words[start % window:][:stop - start]]
        try:
            blocks = [draw(sample_size, rngs) for _ in range(draws)]
        except (FickitError, ValueError) as exc:
            for i in live:
                out[i] = _replicate_error(exc, start, stop, seed)
            break
        for i in live:
            try:
                values = np.asarray(statistics[i](*blocks), dtype=float)
            except (FickitError, ValueError) as exc:
                out[i] = _replicate_error(exc, start, stop, seed)
                continue
            if out[i] is None:
                out[i] = np.empty((replicates,) + values.shape[1:])
            out[i][start:stop] = values
    return out


def _replicate_error(exc: Exception, start: int, stop: int,
                     seed: int) -> Exception:
    """``exc`` from replicates start..stop-1, retold with the failing
    replicate (the chunk when no row is known) and the seed."""
    where = f"replicates {start}..{stop - 1}"
    if stop - start == 1 or hasattr(exc, "row"):
        where = f"replicate {start + getattr(exc, 'row', 0)}"
    cls = type(exc) if isinstance(exc, FickitError) else ValueError
    error = cls(f"{where} (seed {seed}) failed: {exc}")
    error.__cause__ = exc
    return error


def unwrap(results: list) -> list:
    """``replicate_values`` results as arrays; raises the first failure
    among them."""
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


# True in a worker of _fork_map, whose own calls then run in-process.
_IN_WORKER = False
# Task tokens are 4-byte run numbers, all written at once before the
# first fork: at most one page, which a new pipe always holds.
_MAX_RUNS = 1024


def _fork_map(thunks: Sequence[Callable]) -> list:
    """``[t() for t in thunks]``, computed by forked worker processes,
    one per CPU this process may run on.

    The thunks must be pure: a worker is a fork of the caller, so it
    sees the caller's objects as they were at the call. The workers
    take the thunks in the given order, the next as each finishes, and
    each sends back its results and exceptions as one pickle stream,
    which the parent reads to its end, one worker after another. That
    cannot deadlock: every task is queued, and the queue's write end
    closed, before the first fork, so a worker reads its next task or
    the queue's end, and waits on no other worker nor on the parent.
    The first exception in the given order is raised once every worker
    has ended; it keeps its type and message. A worker that ends before
    sending all its results is a ``ChildProcessError``. Runs in-process
    when one CPU is usable, without ``os.fork``, in a worker, or beside
    other Python threads (a fork copies their held locks).
    """
    # Imported on use: pickle and threading imported ahead of numpy
    # raised the peak memory of commands that never fork (30-60 KB).
    import contextlib
    import pickle
    import signal
    import threading

    thunks = list(thunks)
    cpus = (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else 1)
    workers = min(cpus, len(thunks))
    if (workers < 2 or _IN_WORKER or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return [t() for t in thunks]
    runs = min(len(thunks), _MAX_RUNS)
    bounds = [k * len(thunks) // runs for k in range(runs + 1)]
    replies, pids, codes = {}, [], []
    tasks, queued = fds = list(os.pipe())
    try:
        os.write(queued, b"".join(k.to_bytes(4, "little")
                                  for k in range(runs)))
        os.close(fds.pop())
        for _ in range(workers):
            fds += os.pipe()                        # fds[-2:]: read, write
            pid = os.fork()
            if pid == 0:
                try:
                    for fd in fds[1:-1]:            # keep tasks and write
                        os.close(fd)
                    _work(thunks, bounds, tasks, fds[-1])
                    os._exit(0)
                finally:
                    os._exit(1)                     # _work raised
            pids.append(pid)
            os.close(fds.pop())
        os.close(fds.pop(0))
        for fd in fds:          # to its end, or to a reply cut short
            with (open(fd, "rb", closefd=False) as stream,
                  contextlib.suppress(EOFError, pickle.UnpicklingError)):
                while True:
                    replies.update(pickle.load(stream))
        while pids:
            status = os.waitpid(pids[-1], 0)[1]
            codes.append(os.waitstatus_to_exitcode(status))
            pids.pop()
    finally:
        for fd in fds:
            os.close(fd)
        for pid in pids:                # only when the parent was stopped
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for i in range(len(thunks)):
        if i not in replies:
            raise ChildProcessError(
                f"a worker process ended with exit codes {codes} before "
                f"returning task {i} of {len(thunks)}")
        if (error := replies[i][1]) is not None:
            raise error
    return [replies[i][0] for i in range(len(thunks))]


def _work(thunks, bounds, tasks: int, write: int) -> None:
    """A worker of ``_fork_map``: runs each run of thunks it reads from
    ``tasks`` until that pipe is empty, and writes one pickle ``{index:
    (value, exception)}`` per thunk. A reply that does not pickle and
    unpickle is sent as a ``RuntimeError`` in its place."""
    import pickle
    global _IN_WORKER
    _IN_WORKER = True
    while len(token := os.read(tasks, 4)) == 4:
        k = int.from_bytes(token, "little")
        for i in range(bounds[k], bounds[k + 1]):
            try:
                reply = {i: (thunks[i](), None)}
            except Exception as exc:
                reply = {i: (None, exc)}
            try:
                data = pickle.dumps(reply)
                pickle.loads(data)          # as the parent will read it
            except Exception as exc:
                value, error = reply[i]
                told = (f"{type(error).__name__}: {error}" if error is not None
                        else f"task {i} returned a {type(value).__name__} "
                        f"that does not pickle: {exc}")
                data = pickle.dumps({i: (None, RuntimeError(told))})
            data = memoryview(data)
            while data:                 # one reply; a signal may cut a write
                data = data[os.write(write, data):]


def shannon_information(data: Dataset, model: FittedModel):
    """Negative log density of the data under the model, in nats: a
    float for one dataset, one value per row for a block."""
    h = _finite_information(-np.asarray(model.log_density(data), dtype=float))
    return float(h) if h.ndim == 0 else h


def _finite_information(h: np.ndarray) -> np.ndarray:
    """``h`` if finite, else a ``DensityError`` naming its first row."""
    bad = ~np.isfinite(h)
    if bad.any():
        raise row_error(DensityError, bad, "non-finite information: "
                        "density underflow or invalid parameters")
    return h


def cross_entropy_mc(truth_sampler: FittedModel, eval_model: FittedModel,
                     sample_size: int, replicates: int,
                     seed: int) -> MonteCarloEstimate:
    """Monte Carlo estimate of the expected information of fresh data
    from ``truth_sampler`` scored under ``eval_model``."""
    [vals] = unwrap(replicate_values(
        truth_sampler.sampler, sample_size, replicates, seed,
        [lambda y: shannon_information(y, eval_model)]))
    return MonteCarloEstimate.from_values(vals, seed)


def kl_statistic(data: Dataset, theta0: FittedModel, theta: FittedModel):
    """In-sample information loss of ``theta`` relative to ``theta0``,
    one value per row of a block.

    Antisymmetric under swapping the two models.
    """
    return shannon_information(data, theta) - shannon_information(data, theta0)


def kl_divergence_mc(theta0: FittedModel, theta: FittedModel,
                     truth_sampler: FittedModel, sample_size: int,
                     replicates: int, seed: int) -> MonteCarloEstimate:
    """Expected information loss of ``theta`` relative to ``theta0``
    under data from ``truth_sampler``.

    Uses common random numbers: each replicate scores the same dataset
    under both models, which sharply reduces the variance of the
    difference.
    """
    [vals] = unwrap(replicate_values(
        truth_sampler.sampler, sample_size, replicates, seed,
        [lambda y: kl_statistic(y, theta0, theta)]))
    return MonteCarloEstimate.from_values(vals, seed)


def error_statistic(data: Dataset, theta0: FittedModel, theta: FittedModel,
                    divergence: float):
    """Gap between the expected and the realized information loss.

    ``divergence`` is a previously computed expected loss for the same
    model pair. Averaged over datasets at the fitted parameters, this
    gap is the predictive complexity.
    """
    return float(divergence) - kl_statistic(data, theta0, theta)
