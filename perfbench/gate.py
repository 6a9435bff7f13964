"""Correctness gate for the benchmark, run outside the timed region.

Every check counts once towards ``attempted``; a check that does not hold
is kept in ``failures``.  The checks read what the CLI wrote (exit codes,
``summary.json``, ``certificates.json`` in schema 1) and
recompute from outside what they can: the four region sums against
``lhs`` and against ``limit * slack``, and ``lhs`` against a direct sum.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

REL = 1e-9  # relative tolerance of the numeric checks
ORACLE_NODES = 8  # seeded nodes per instance checked against the direct sum
REGIONS = ("11", "12", "21", "22")


class Gate:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL * max(abs(a), abs(b))


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file the command wrote, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def check_verdict(gate: Gate, label: str, exit_code: int, summary: dict,
                  expected: dict) -> None:
    """Exit code, pass/fail verdict and the families whose dilation
    spread failed must match the ones recorded at the seed commit."""
    factor = summary.get("stability_factor_required")
    unstable = sorted(family for family, spread in summary.get("family_stability", {}).items()
                      if spread is not None and spread >= factor)
    got = {"exit_code": exit_code, "passed": summary.get("passed"),
           "unstable_families": unstable}
    gate.check(got == expected, f"{label}: verdict {got} != expected {expected}")


def check_headline(gate: Gate, label: str, summary: dict, reference: dict) -> None:
    for key, value in reference.items():
        got = summary.get(key)
        gate.check(isinstance(got, float) and close(got, value),
                   f"{label}: {key} = {got} != reference {value}")


def direct_sums(f: np.ndarray, k: np.ndarray, nodes, cell_volume: float) -> list[float]:
    """``prodhls.convolution.convolve_direct`` at the given nodes only:
    sum_j f[i - j + N/2] k[j] h^rank, with f zero outside the box."""
    N = f.shape[0]
    padded = np.pad(f, [(N // 2 - 1, N // 2)] * f.ndim)
    k_rev = k[(slice(None, None, -1),) * f.ndim]
    return [float(np.tensordot(padded[tuple(slice(i, i + N) for i in node)], k_rev,
                               axes=f.ndim)) * cell_volume for node in nodes]


def check_certificates(gate: Gate, label: str, document: dict, summary: dict,
                       instance_inputs, rng: np.random.Generator) -> dict:
    """Check every certificate of one pointwise run.

    ``instance_inputs(family, s, t)`` returns ``(f, k, cell_volume)``,
    the sampled function and kernel arrays the instance was built from.
    Returns the certificate count, the case-2 count and the largest
    region utilization ``value / (limit * slack)``.
    """
    stats = {"certificates": 0, "case2": 0, "max_utilization": 0.0}
    if not gate.check(document.get("schema_version") == 1,
                      f"{label}: certificates schema {document.get('schema_version')} "
                      "is not the schema 1 this gate reads"):
        return stats
    instances = summary.get("instances", [])
    if not gate.check(len(instances) == len(document["instances"]),
                      f"{label}: certificates.json and summary.json list different instances"):
        return stats
    for entry, inst in zip(document["instances"], instances):
        where = f"{label} {entry['family']} (s={entry['s']}, t={entry['t']})"
        certs = entry["certificates"]
        if not certs:
            continue
        stats["certificates"] += len(certs)
        for c in certs:
            stats["case2"] += c["case_id"] == 2
            total = sum(c["regions"]["t" + r] for r in REGIONS)
            ok = close(total, c["lhs"])
            for r in REGIONS:
                allowance = c["region_limits"]["region" + r] * c["slack_factors"]["region" + r]
                ok = ok and c["regions"]["t" + r] <= allowance * (1.0 + REL)
                if allowance > 0.0:
                    stats["max_utilization"] = max(stats["max_utilization"],
                                                   c["regions"]["t" + r] / allowance)
            gate.check(ok, f"{where}: regions of node {c['point']} do not add up to "
                           "lhs or exceed limit * slack")
        worst = max(range(len(certs)), key=lambda i: certs[i]["ratio"])
        gate.check(certs[worst]["point"] == inst["worst_point"]
                   and close(certs[worst]["ratio"], inst["max_ratio"]),
                   f"{where}: worst node {certs[worst]['point']} disagrees with the summary")
        f, k, cell_volume = instance_inputs(entry["family"], entry["s"], entry["t"])
        picks = rng.choice(len(certs), size=min(ORACLE_NODES, len(certs)), replace=False)
        nodes = sorted({worst, *map(int, picks)})
        direct = direct_sums(f, k, [certs[i]["point"] for i in nodes], cell_volume)
        for i, value in zip(nodes, direct):
            gate.check(close(certs[i]["lhs"], value),
                       f"{where}: lhs {certs[i]['lhs']} at node {certs[i]['point']} "
                       f"!= direct sum {value}")
    return stats

