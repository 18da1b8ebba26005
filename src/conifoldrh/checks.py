"""Residual records, named region predicates, and `require`: the one place
that raises `RegionError`, naming each failed predicate.

Every numerical identity check reports (lhs, rhs, absolute, relative)
rather than a bare boolean, so failures stay diagnosable from the JSON
output alone; an exact check records whether its two sides are equal.
"""

from __future__ import annotations

from typing import NamedTuple


class RegionError(ValueError):
    """A point violates a named region predicate."""

    def __init__(self, message: str, failed: list[str] | None = None):
        super().__init__(message)
        self.failed = failed or []


class Predicate(NamedTuple):
    """A named region/validity condition: it holds when the witness value
    exceeds the margin.  An upper bound x < b is stated as value -x,
    margin -b.  A tuple, so that the residue series can state its
    conditions on every call at little cost."""

    name: str
    value: float                  # e.g. the Im(...) that must be positive
    kind: str = "region"          # "region" | "tau" | "half-plane"
    margin: float = 0.0

    @property
    def ok(self) -> bool:
        return self.value > self.margin

    def to_json(self) -> dict:
        return {"name": self.name, "ok": self.ok, "value": self.value,
                "kind": self.kind}


_KIND_WORDING = (("tau", "outside tau-neighborhood"),
                 ("half-plane", "outside t half-plane"),
                 ("region", "region violation"))


def require(preds: list[Predicate], what: str) -> None:
    """Raise RegionError naming every failed predicate, grouped by kind:
    tau-neighborhood conditions guard convergence of the moment integrals,
    t half-plane conditions only the defining formula."""
    bad = [p for p in preds if not p.ok]
    if bad:
        parts = [f"{wording}: " + ", ".join(p.name for p in bad if p.kind == kind)
                 for kind, wording in _KIND_WORDING if any(p.kind == kind for p in bad)]
        raise RegionError(f"{what} undefined; " + "; ".join(parts),
                          [p.name for p in bad])


class Residual(NamedTuple):
    """Result of one identity check: left value, right value, residuals.
    An exact row (`exact`) records no value, so its lhs and rhs are None."""

    name: str
    lhs: complex | None
    rhs: complex | None
    abs_err: float
    rel_err: float
    tol: float
    passed: bool
    meta: dict

    @classmethod
    def compare(cls, name: str, lhs: complex, rhs: complex, tol: float,
                meta: dict | None = None) -> "Residual":
        lhs = complex(lhs)
        rhs = complex(rhs)
        abs_err = abs(lhs - rhs)
        scale = max(abs(lhs), abs(rhs))
        rel_err = abs_err / scale if scale > 0 else abs_err
        return cls(name=name, lhs=lhs, rhs=rhs, abs_err=abs_err,
                   rel_err=rel_err, tol=tol, passed=rel_err < tol,
                   meta=meta or {})

    @classmethod
    def exact(cls, name: str, lhs, rhs, meta: dict | None = None) -> "Residual":
        """Record for an exact comparison of two exact values (LaurentPoly,
        QTorusElement, Fraction, int, bool, or lists of them), made here.
        Only their equality is recorded: `lhs` and `rhs` are None, and both
        errors 0 when equal, inf otherwise."""
        equal = bool(lhs == rhs)
        return cls(name=name, lhs=None, rhs=None,
                   abs_err=0.0 if equal else float("inf"),
                   rel_err=0.0 if equal else float("inf"), tol=0.0, passed=equal,
                   meta=meta or {})

    def to_json(self) -> dict:
        return self._asdict()


def im_ratio(num: complex, den: complex) -> float:
    return (num / den).imag


def im_ratio_predicate(label: str, num: complex, den: complex,
                       kind: str = "region") -> Predicate:
    """Predicate Im(num/den) > 0 with the witness value recorded."""
    return Predicate(f"Im({label}) > 0", im_ratio(num, den), kind)
