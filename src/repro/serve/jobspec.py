"""Typed request specs for the simulation service.

A serve request is a JSON mapping describing one invalidation-sweep
job: a scheme, the sweep shape (degrees, patterns per degree, pattern
kind, seed), and optional :class:`~repro.config.SystemParameters`
overrides.  :func:`JobSpec.from_mapping` validates it into a frozen
:class:`JobSpec`, and :meth:`JobSpec.to_job` lowers it onto the *exact*
job a ``repro sweep`` builds — same function, same arguments, same
cache-key material — so a served request and a CLI sweep of the same
config share one cache digest.  That identity is what makes the
service's dedup work: N clients asking for the same config coalesce
onto one simulation, and a cache warmed by ``repro sweep`` serves
``POST /jobs`` hits immediately (and vice versa).

Validation is deliberately strict (unknown fields and parameters,
out-of-range sizes, and topology overrides are all rejected with a
typed :class:`SpecError`): the service is multi-tenant, so a single
request must not be able to ask for an unboundedly large simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.analysis.experiments import (check_sweep, run_analytical_sweep,
                                        scheme_job)
from repro.config import ConfigError, SystemParameters, paper_parameters
from repro.runner import Job

#: Hard per-request ceilings (admission control at the spec level).
MAX_MESH = 16
MAX_DEGREES = 16
MAX_PER_DEGREE = 64

#: Request fields accepted by :func:`JobSpec.from_mapping`; everything
#: else is a typo or an attack surface and is rejected.
_SPEC_FIELDS = frozenset({"scheme", "mesh", "degrees", "per_degree",
                          "kind", "seed", "home", "analytical", "params"})

#: Transport-level fields the HTTP layer consumes before spec parsing.
TRANSPORT_FIELDS = frozenset({"client", "wait"})

_PARAM_FIELDS = frozenset(f.name for f in
                          SystemParameters.__dataclass_fields__.values())


class SpecError(ValueError):
    """A request spec is malformed or out of bounds (HTTP 400)."""


def _require_int(payload: Mapping, name: str, default: int,
                 low: int, high: int) -> int:
    value = payload.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{name} must be an integer")
    if not low <= value <= high:
        raise SpecError(f"{name} must be in [{low}, {high}], got {value}")
    return value


@dataclass(frozen=True)
class JobSpec:
    """One validated simulation request (hashable, immutable)."""

    scheme: str
    degrees: tuple[int, ...]
    per_degree: int
    kind: str
    seed: int
    home: Optional[int]
    analytical: bool
    params: SystemParameters

    @classmethod
    def from_mapping(cls, payload: Mapping[str, Any]) -> "JobSpec":
        """Validate a JSON request body into a :class:`JobSpec`.

        Raises :class:`SpecError` on any unknown field, wrong type,
        out-of-range size, or disallowed parameter override, and on
        every sweep axis :func:`~repro.analysis.experiments.check_sweep`
        rejects (scheme, pattern kind, a degree the kind cannot draw on
        the mesh).
        """
        if not isinstance(payload, Mapping):
            raise SpecError("request body must be a JSON object")
        unknown = set(payload) - _SPEC_FIELDS - TRANSPORT_FIELDS
        if unknown:
            raise SpecError(f"unknown field(s): {sorted(unknown)}")

        mesh = _require_int(payload, "mesh", 8, 2, MAX_MESH)

        overrides = payload.get("params", {})
        if not isinstance(overrides, Mapping):
            raise SpecError("params must be a JSON object of "
                            "SystemParameters overrides")
        bad = set(overrides) - _PARAM_FIELDS
        if bad:
            raise SpecError(f"unknown parameter(s): {sorted(bad)}")
        topology = set(overrides) & {"mesh_width", "mesh_height"}
        if topology:
            raise SpecError(
                f"parameter(s) {sorted(topology)} are not overridable "
                f"per request (use 'mesh' for the topology)")
        try:
            params = paper_parameters(mesh, **dict(overrides))
        except ConfigError as exc:
            raise SpecError(f"invalid parameters: {exc}") from None

        degrees_raw = payload.get("degrees", [2, 4, 8])
        if (not isinstance(degrees_raw, (list, tuple)) or not degrees_raw
                or len(degrees_raw) > MAX_DEGREES):
            raise SpecError(f"degrees must be a list of 1..{MAX_DEGREES} "
                            f"integers")
        if any(isinstance(d, bool) or not isinstance(d, int)
               for d in degrees_raw):
            raise SpecError("degrees must be integers")
        degrees = tuple(degrees_raw)
        per_degree = _require_int(payload, "per_degree", 2, 1,
                                  MAX_PER_DEGREE)
        scheme = payload.get("scheme")
        kind = payload.get("kind", "uniform")
        try:
            check_sweep([scheme], kind=kind, per_degree=per_degree,
                        degrees=degrees, params=params)
        except ConfigError as exc:
            raise SpecError(str(exc)) from None
        seed = _require_int(payload, "seed", 0, 0, 2**32 - 1)
        home = payload.get("home")
        if home is not None:
            home = _require_int(payload, "home", 0, 0,
                                params.num_nodes - 1)
        analytical = payload.get("analytical", False)
        if not isinstance(analytical, bool):
            raise SpecError("analytical must be a boolean")
        if analytical and home is not None:
            raise SpecError("analytical sweeps do not take a home node")
        return cls(scheme=scheme, degrees=degrees,
                   per_degree=per_degree, kind=kind, seed=seed,
                   home=home, analytical=analytical, params=params)

    def to_job(self) -> Job:
        """The :class:`~repro.runner.Job` this spec denotes: the
        :func:`~repro.analysis.experiments.scheme_job` that
        ``run_invalidation_sweep`` / ``run_analytical_sweep`` build for
        the same config, so the service and the CLI sweeps share cache
        digests."""
        kind = "analytical" if self.analytical else "sweep"
        return scheme_job(self.scheme, self.degrees, self.per_degree,
                          self.params, self.kind, self.seed, self.home,
                          analytical=self.analytical,
                          label=f"serve:{kind}:{self.scheme}")

    def analytical_rows(self) -> list:
        """Closed-form surrogate rows for this spec (degraded mode).

        Runs the contention-free analytical model over the same sweep
        shape; used by the service while the worker-pool circuit
        breaker is open.  ``home`` is ignored — the model has no home
        placement — which is fine for a response explicitly marked as
        an approximation.
        """
        return run_analytical_sweep([self.scheme], self.degrees,
                                    self.per_degree, self.params,
                                    self.kind, self.seed, use_cache=False)

    @property
    def digest(self) -> str:
        """The content-addressed cache digest of this spec's job."""
        return self.to_job().digest
