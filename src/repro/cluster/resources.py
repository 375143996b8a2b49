"""Multi-dimensional resource vectors.

The controller manages four resources per application, following the
multi-resource control design the paper's calibration calls out:

* ``cpu`` — cores
* ``memory`` — GiB
* ``disk_bw`` — disk I/O bandwidth, MB/s
* ``net_bw`` — network bandwidth, MB/s

:class:`ResourceVector` is the value type used for node capacities, pod
requests/allocations, and measured usage. It is immutable; arithmetic
returns new vectors.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

#: Canonical resource dimension names, in controller order.
RESOURCES: tuple[str, ...] = ("cpu", "memory", "disk_bw", "net_bw")

# Module-level aliases used by the allocation-free arithmetic fast paths
# below; ResourceVector construction and field writes dominate several
# simulator hot loops (usage recording, scrape aggregation, node
# accounting), so arithmetic avoids __init__'s float() coercions and the
# per-dimension getattr/genexpr machinery entirely.
_new = object.__new__
_set = object.__setattr__


class ResourceVector:
    """Immutable 4-dimensional resource quantity.

    Supports elementwise arithmetic (``+``, ``-``, scalar ``*`` / ``/``),
    elementwise comparisons via :meth:`fits_within`, and convenience
    constructors. Negative intermediate values are permitted (useful for
    headroom math); use :meth:`clamp_nonnegative` before treating a vector
    as a physical quantity.
    """

    __slots__ = ("cpu", "memory", "disk_bw", "net_bw")

    def __init__(
        self,
        cpu: float = 0.0,
        memory: float = 0.0,
        disk_bw: float = 0.0,
        net_bw: float = 0.0,
    ):
        object.__setattr__(self, "cpu", float(cpu))
        object.__setattr__(self, "memory", float(memory))
        object.__setattr__(self, "disk_bw", float(disk_bw))
        object.__setattr__(self, "net_bw", float(net_bw))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ResourceVector is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "ResourceVector":
        """The all-zeros vector (shared instance; vectors are immutable)."""
        if cls is ResourceVector:
            return _ZERO
        return cls()

    @staticmethod
    def sum_of(vectors: Iterable["ResourceVector"]) -> "ResourceVector":
        """Elementwise sum, accumulated per field from 0.0 in order.

        The same floats as adding the vectors one by one to :meth:`zero`
        (``0.0 + x`` is exact), without a temporary vector per addend.
        """
        cpu = memory = disk_bw = net_bw = 0.0
        for vec in vectors:
            cpu += vec.cpu
            memory += vec.memory
            disk_bw += vec.disk_bw
            net_bw += vec.net_bw
        return ResourceVector._from_fields(cpu, memory, disk_bw, net_bw)

    @classmethod
    def uniform(cls, value: float) -> "ResourceVector":
        """A vector with every dimension set to ``value``."""
        return cls(value, value, value, value)

    @classmethod
    def from_dict(cls, data: Mapping[str, float]) -> "ResourceVector":
        """Build from a mapping; missing dimensions default to 0.

        Raises ``KeyError`` on unknown dimension names so typos fail loudly.
        """
        unknown = set(data) - set(RESOURCES)
        if unknown:
            raise KeyError(f"unknown resource dimensions: {sorted(unknown)}")
        return cls(**{k: float(v) for k, v in data.items()})

    # -- accessors ---------------------------------------------------------

    def __getitem__(self, name: str) -> float:
        if name not in RESOURCES:
            raise KeyError(f"unknown resource dimension: {name!r}")
        return getattr(self, name)

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view, keyed by :data:`RESOURCES` names."""
        return {
            "cpu": self.cpu,
            "memory": self.memory,
            "disk_bw": self.disk_bw,
            "net_bw": self.net_bw,
        }

    def __iter__(self) -> Iterator[float]:
        return (getattr(self, name) for name in RESOURCES)

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _from_fields(
        cpu: float, memory: float, disk_bw: float, net_bw: float
    ) -> "ResourceVector":
        """Fast constructor for values already known to be floats."""
        vec = _new(ResourceVector)
        _set(vec, "cpu", cpu)
        _set(vec, "memory", memory)
        _set(vec, "disk_bw", disk_bw)
        _set(vec, "net_bw", net_bw)
        return vec

    def _combine(self, other: "ResourceVector", op) -> "ResourceVector":
        return ResourceVector._from_fields(
            op(self.cpu, other.cpu),
            op(self.memory, other.memory),
            op(self.disk_bw, other.disk_bw),
            op(self.net_bw, other.net_bw),
        )

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector._from_fields(
            self.cpu + other.cpu,
            self.memory + other.memory,
            self.disk_bw + other.disk_bw,
            self.net_bw + other.net_bw,
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector._from_fields(
            self.cpu - other.cpu,
            self.memory - other.memory,
            self.disk_bw - other.disk_bw,
            self.net_bw - other.net_bw,
        )

    def __mul__(self, scalar: float) -> "ResourceVector":
        return ResourceVector._from_fields(
            self.cpu * scalar,
            self.memory * scalar,
            self.disk_bw * scalar,
            self.net_bw * scalar,
        )

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "ResourceVector":
        return ResourceVector._from_fields(
            self.cpu / scalar,
            self.memory / scalar,
            self.disk_bw / scalar,
            self.net_bw / scalar,
        )

    def elementwise_mul(self, other: "ResourceVector") -> "ResourceVector":
        """Hadamard product, e.g. scaling each dimension by its own factor."""
        return ResourceVector._from_fields(
            self.cpu * other.cpu,
            self.memory * other.memory,
            self.disk_bw * other.disk_bw,
            self.net_bw * other.net_bw,
        )

    def elementwise_min(self, other: "ResourceVector") -> "ResourceVector":
        return self._combine(other, min)

    def elementwise_max(self, other: "ResourceVector") -> "ResourceVector":
        return self._combine(other, max)

    def clamp_nonnegative(self) -> "ResourceVector":
        """Replace negative components with 0."""
        cpu, memory, disk_bw, net_bw = self.cpu, self.memory, self.disk_bw, self.net_bw
        if cpu >= 0.0 and memory >= 0.0 and disk_bw >= 0.0 and net_bw >= 0.0:
            return self
        return ResourceVector._from_fields(
            cpu if cpu > 0.0 else 0.0,
            memory if memory > 0.0 else 0.0,
            disk_bw if disk_bw > 0.0 else 0.0,
            net_bw if net_bw > 0.0 else 0.0,
        )

    def clamp(self, lo: "ResourceVector", hi: "ResourceVector") -> "ResourceVector":
        """Clamp each dimension into ``[lo, hi]``."""
        return self.elementwise_max(lo).elementwise_min(hi)

    def scale(self, factors: Mapping[str, float]) -> "ResourceVector":
        """Scale named dimensions by per-dimension factors; others unchanged."""
        values = self.as_dict()
        for name, factor in factors.items():
            if name not in RESOURCES:
                raise KeyError(f"unknown resource dimension: {name!r}")
            values[name] *= factor
        return ResourceVector(**values)

    def replace(self, **updates: float) -> "ResourceVector":
        """Return a copy with the given dimensions overwritten."""
        values = self.as_dict()
        for name, value in updates.items():
            if name not in RESOURCES:
                raise KeyError(f"unknown resource dimension: {name!r}")
            values[name] = float(value)
        return ResourceVector(**values)

    # -- predicates / reductions ----------------------------------------------

    def fits_within(self, other: "ResourceVector", *, tolerance: float = 1e-9) -> bool:
        """True when every dimension is ≤ the other's (within tolerance)."""
        return (
            self.cpu <= other.cpu + tolerance
            and self.memory <= other.memory + tolerance
            and self.disk_bw <= other.disk_bw + tolerance
            and self.net_bw <= other.net_bw + tolerance
        )

    def is_zero(self, *, tolerance: float = 1e-12) -> bool:
        return all(abs(v) <= tolerance for v in self)

    def any_negative(self, *, tolerance: float = 1e-9) -> bool:
        return (
            self.cpu < -tolerance
            or self.memory < -tolerance
            or self.disk_bw < -tolerance
            or self.net_bw < -tolerance
        )

    def total_fraction_of(self, capacity: "ResourceVector") -> dict[str, float]:
        """Per-dimension fraction of ``capacity`` (0 where capacity is 0)."""
        result = {}
        for name in RESOURCES:
            cap = getattr(capacity, name)
            result[name] = (getattr(self, name) / cap) if cap > 0 else 0.0
        return result

    def dominant_share(self, capacity: "ResourceVector") -> float:
        """Max fraction across dimensions (DRF-style dominant share)."""
        return max(self.total_fraction_of(capacity).values(), default=0.0)

    def bottleneck(self, capacity: "ResourceVector") -> str:
        """Name of the dimension with the highest fraction of capacity."""
        fractions = self.total_fraction_of(capacity)
        return max(RESOURCES, key=lambda n: fractions[n])

    # -- dunder plumbing ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourceVector):
            return NotImplemented
        return all(getattr(self, n) == getattr(other, n) for n in RESOURCES)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}={getattr(self, n):g}" for n in RESOURCES)
        return f"ResourceVector({parts})"

    def approx_equal(self, other: "ResourceVector", *, tolerance: float = 1e-9) -> bool:
        """Elementwise closeness check for tests and invariants."""
        return (
            abs(self.cpu - other.cpu) <= tolerance
            and abs(self.memory - other.memory) <= tolerance
            and abs(self.disk_bw - other.disk_bw) <= tolerance
            and abs(self.net_bw - other.net_bw) <= tolerance
        )


#: Shared all-zeros vector returned by :meth:`ResourceVector.zero`.
_ZERO = ResourceVector()
