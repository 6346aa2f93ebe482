"""Grid site model.

A *site* (supercomputing centre or cluster) is abstracted as a single
space-shared resource with an aggregate processing speed and a
security level ``SL`` offered to remote jobs.  For the NAS setup a
site's speed equals its node count (4 sites x 16 nodes + 8 sites x 8
nodes = the trace's 128-node iPSC/860); for PSA speeds are levelled in
1..10 as per Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.validation import check_non_negative, check_positive

__all__ = ["Site", "Grid"]


@dataclass(frozen=True, slots=True)
class Site:
    """Immutable site specification.

    Parameters
    ----------
    site_id:
        Unique non-negative identifier (index into the grid).
    speed:
        Aggregate processing speed; a job of workload ``w`` executes
        in ``w / speed`` seconds here.
    security_level:
        The site's ``SL`` value (paper: uniform in [0.4, 1.0]).
    nodes:
        Node count behind the aggregate-speed abstraction.
    """

    site_id: int
    speed: float
    security_level: float
    nodes: int = 1

    def __post_init__(self) -> None:
        if self.site_id < 0:
            raise ValueError(f"site_id must be non-negative, got {self.site_id}")
        check_positive("speed", self.speed)
        check_non_negative("security_level", self.security_level)
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")


@dataclass(frozen=True)
class Grid:
    """An ordered collection of sites with cached vector views.

    The vector properties (``speeds``, ``security_levels``) are what
    the vectorised ETC and eligibility kernels consume; they are
    computed once at construction.
    """

    sites: tuple[Site, ...]
    _speeds: np.ndarray = field(init=False, repr=False, compare=False)
    _sls: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.sites:
            raise ValueError("a grid needs at least one site")
        ids = [s.site_id for s in self.sites]
        if ids != list(range(len(self.sites))):
            raise ValueError(
                "site_ids must be 0..n-1 in order, got " + repr(ids)
            )
        object.__setattr__(
            self, "_speeds", np.array([s.speed for s in self.sites], dtype=float)
        )
        object.__setattr__(
            self,
            "_sls",
            np.array([s.security_level for s in self.sites], dtype=float),
        )

    @classmethod
    def from_arrays(cls, speeds, security_levels, nodes=None) -> "Grid":
        """Build a grid from parallel arrays."""
        speeds = np.asarray(speeds, dtype=float)
        sls = np.asarray(security_levels, dtype=float)
        if speeds.shape != sls.shape or speeds.ndim != 1:
            raise ValueError(
                f"speeds {speeds.shape} and security_levels {sls.shape} "
                "must be equal-length 1-D arrays"
            )
        if nodes is None:
            nodes = np.ones(len(speeds), dtype=int)
        nodes = np.asarray(nodes, dtype=int)
        if nodes.shape != speeds.shape:
            raise ValueError("nodes must match speeds in shape")
        return cls(
            tuple(
                Site(i, float(v), float(sl), int(nd))
                for i, (v, sl, nd) in enumerate(zip(speeds, sls, nodes))
            )
        )

    def __len__(self) -> int:
        return len(self.sites)

    def __getitem__(self, i: int) -> Site:
        return self.sites[i]

    @property
    def n_sites(self) -> int:
        """Number of sites in the grid."""
        return len(self.sites)

    @property
    def speeds(self) -> np.ndarray:
        """Read-only vector of site speeds, shape (S,)."""
        out = self._speeds.view()
        out.flags.writeable = False
        return out

    @property
    def security_levels(self) -> np.ndarray:
        """Read-only vector of site SL values, shape (S,)."""
        out = self._sls.view()
        out.flags.writeable = False
        return out

    @property
    def total_speed(self) -> float:
        """Aggregate processing power of the whole grid."""
        return float(self._speeds.sum())

    def max_security_site(self) -> int:
        """Index of the most secure site (fallback target)."""
        return int(np.argmax(self._sls))
