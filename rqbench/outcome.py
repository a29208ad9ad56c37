"""Independent outcome check for RQAOA episodes.

Everything here is computed apart from rqshot: the exhaustive Max-Cut
optimum, the replay of an episode's logged contractions, and the brute-force
solve of the residual.  An episode passes when the numbers it reports agree
with these computations and with the bookkeeping rules of the protocol
(step count, shot totals, probe and cap limits, the success bit).

Conventions shared with the program's logs: a step's ``edge`` is the pair
(min, max) of node ids, the larger id is the one eliminated, and ``sign``
fixes z_eliminated = sign * z_kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TOL = 1e-9
_CHUNK_BITS = 16


def min_ising_energy(nodes: list[int], couplings: dict[tuple[int, int], float]) -> float:
    """Minimum of sum J_uv z_u z_v over z in {-1, +1}^nodes, by enumeration.

    The first node is pinned to +1 (the energy is invariant under a global
    flip); the remaining spins are enumerated in chunks of 2^16 states.
    """
    m = len(nodes)
    if m == 0 or not couplings:
        return 0.0
    pos = {u: i for i, u in enumerate(nodes)}
    jmat = np.zeros((m, m))
    for (u, v), j in couplings.items():
        jmat[pos[u], pos[v]] += j
    jmat = jmat + jmat.T
    free = m - 1
    total = 1 << free
    step = 1 << min(free, _CHUNK_BITS)
    shifts = np.arange(free, dtype=np.int64)
    best = math.inf
    for start in range(0, total, step):
        idx = np.arange(start, start + step, dtype=np.int64)
        spins = np.ones((step, m))
        spins[:, 1:] = 1.0 - 2.0 * ((idx[:, None] >> shifts) & 1)
        energy = 0.5 * np.einsum("ki,ki->k", spins @ jmat, spins)
        best = min(best, float(energy.min()))
    return best


def max_cut(nodes: list[int], couplings: dict[tuple[int, int], float]) -> float:
    """Exhaustive weighted Max-Cut value: (W - min E) / 2."""
    return 0.5 * (sum(couplings.values()) - min_ising_energy(nodes, couplings))


def replay_cut(nodes: list[int], couplings: dict[tuple[int, int], float], steps) -> float:
    """Cut value the episode must report, rebuilt from its logged steps.

    Each non-trivial step substitutes z_max = sign * z_min into the couplings,
    moving the contracted coupling into a constant offset; the residual is
    then solved exactly, so the answer is (W - (min E_res + offset)) / 2.
    Raises ValueError when a logged edge is not present in the replayed graph.
    """
    adj: dict[int, dict[int, float]] = {u: {} for u in nodes}
    for (u, v), j in couplings.items():
        adj[u][v] = j
        adj[v][u] = j
    offset = 0.0
    for s in steps:
        if s.trivial:
            continue
        kept, elim = s.edge
        if elim not in adj.get(kept, {}):
            raise ValueError(f"step {s.step}: edge {s.edge} absent from the replayed graph")
        offset += s.sign * adj[kept].pop(elim)
        del adj[elim][kept]
        for w, j in adj.pop(elim).items():
            del adj[w][elim]
            merged = adj[kept].get(w, 0.0) + s.sign * j
            adj[kept][w] = merged
            adj[w][kept] = merged
    residual = {(u, v): j for u in adj for v, j in adj[u].items() if u < v}
    e_res = min_ising_energy(sorted(adj), residual)
    return 0.5 * (sum(couplings.values()) - (e_res + offset))


@dataclass(frozen=True)
class EpisodeSpec:
    """What the benchmark knows about an episode before it runs."""

    nodes: tuple[int, ...]
    couplings: dict
    e_opt: float  # from max_cut, not from the program
    n_c: int
    rho_star: float
    cap: int
    k_probe: int
    uniform: bool


def episode_problems(ep, spec: EpisodeSpec) -> list[str]:
    """Every way the episode disagrees with the independent computation."""
    out = []
    n = len(spec.nodes)
    if len(ep.steps) != n - spec.n_c:
        out.append(f"{len(ep.steps)} steps, expected {n - spec.n_c}")
    shots = 0
    seen_trivial = False
    for i, s in enumerate(ep.steps, start=1):
        shots += s.shots
        if s.trivial:
            seen_trivial = True
            if s.shots != 0:
                out.append(f"trivial step {i} spent {s.shots} shots")
            continue
        if seen_trivial:
            out.append(f"step {i} follows a trivial step")
        if s.m != n - i + 1:
            out.append(f"step {i} ran on {s.m} variables, expected {n - i + 1}")
        if not spec.k_probe <= s.shots <= spec.cap:
            out.append(f"step {i} spent {s.shots} shots outside [{spec.k_probe}, {spec.cap}]")
        if spec.uniform and s.shots != spec.cap:
            out.append(f"uniform step {i} spent {s.shots} shots, cap is {spec.cap}")
        if s.edge is None or s.sign not in (-1, 1):
            out.append(f"step {i} logs no contraction")
    if ep.total_shots != shots:
        out.append(f"total_shots {ep.total_shots} != step sum {shots}")
    if abs(ep.e_opt - spec.e_opt) > TOL:
        out.append(f"e_opt {ep.e_opt!r} != exhaustive {spec.e_opt!r}")
    if ep.e_out > spec.e_opt + TOL:
        out.append(f"e_out {ep.e_out!r} above the optimum {spec.e_opt!r}")
    ratio = ep.e_out / spec.e_opt
    if ep.sigma != int(ratio >= spec.rho_star):
        out.append(f"sigma {ep.sigma} inconsistent with ratio {ratio!r}")
    if abs(ep.approx_ratio - ratio) > TOL:
        out.append(f"approx_ratio {ep.approx_ratio!r} != e_out / e_opt {ratio!r}")
    try:
        replayed = replay_cut(list(spec.nodes), spec.couplings, ep.steps)
    except (ValueError, TypeError) as exc:
        out.append(f"replay failed: {exc}")
    else:
        if abs(ep.e_out - replayed) > TOL:
            out.append(f"e_out {ep.e_out!r} != replayed {replayed!r}")
    return out


def checkpoint_problems(ckpt_dict: dict, restored_dict: dict, episodes: int,
                        lambda_max: float) -> list[str]:
    """Training-run invariants, read from the checkpoint's serialised form."""
    out = []
    trace = ckpt_dict["lambda_trace"]
    if len(trace) != episodes:
        out.append(f"lambda trace has {len(trace)} entries for {episodes} episodes")
    if any(not (0.0 <= lam <= lambda_max) for lam in trace):
        out.append(f"lambda outside [0, {lambda_max}]")
    for table in ("q1", "q2"):
        for key, row in ckpt_dict["qtables"][table].items():
            if not all(math.isfinite(x) for x in row):
                out.append(f"non-finite Q value in {table}[{key}]")
    if restored_dict != ckpt_dict:
        out.append("checkpoint changed in a to_dict/from_dict round trip")
    return out
