"""End-to-end execution of one RQAOA episode under a shot-allocation policy.

Each elimination step re-optimizes the depth-1 angles on the current reduced
graph (a classical closed-form computation, no shots), draws a probe pool to
read the step state, lets the policy set the step budget k_t, then estimates
correlations from all k_t shots with the probe shots pooled in as the first
k_probe of them.  The strongest edge is contracted and the loop repeats
until the classical threshold, where the residual is brute-forced and the
full assignment reconstructed.

Trials on one instance revisit the same reduced graphs, so an episode walks
down a StepCache's nodes, one per reduced graph, and reuses what they hold.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass, field, fields
from typing import Protocol

import numpy as np

from .allocation import AllocationDecision
from .features import (
    ZGAP_LITERAL,
    ZGAP_RELATIVE,
    BinBoundaries,
    DiscreteState,
    StepState,
    discretize,
    edge_order,
    extract_state,
    probe_shot_count,
)
from .instance import (
    ContractionRecord,
    Instance,
    ReducedInstance,
    WeightedGraph,
    brute_force_optimum,
    contract,
    cut_value,
    reconstruct_assignment,
)
from .qaoa import (
    MODE_AUTO,
    MODE_BINOMIAL,
    MODE_EXACT,
    MODE_STATEVECTOR,
    STATEVECTOR_MAX_QUBITS,
    STATEVECTOR_SAMPLING_THRESHOLD,
    Angles,
    CorrelationSampler,
    optimize_angles,
)


@dataclass(frozen=True)
class DriverConfig:
    """Knobs shared by every episode run."""

    n_c: int = 8
    rho_star: float = 0.99
    sampling_mode: str = MODE_AUTO
    sv_threshold: int = STATEVECTOR_SAMPLING_THRESHOLD
    zgap_variant: str = "literal"
    k_top: int = 3
    bins: BinBoundaries = field(default_factory=BinBoundaries)

    def __post_init__(self):
        if self.n_c < 1:
            raise ValueError(f"n_c must be at least 1, got {self.n_c}")
        if self.sampling_mode not in (MODE_AUTO, MODE_EXACT, MODE_STATEVECTOR, MODE_BINOMIAL):
            raise ValueError(f"unknown sampling mode {self.sampling_mode!r}")
        if not 0 <= self.sv_threshold <= STATEVECTOR_MAX_QUBITS:
            raise ValueError(f"sv_threshold must be in [0, {STATEVECTOR_MAX_QUBITS}], "
                             f"got {self.sv_threshold}")
        if self.zgap_variant not in (ZGAP_LITERAL, ZGAP_RELATIVE):
            raise ValueError(f"unknown zgap variant {self.zgap_variant!r}")
        if self.k_top < 1:
            raise ValueError(f"k_top must be at least 1, got {self.k_top}")


class EpisodePolicy(Protocol):
    def decide(
        self,
        state: StepState,
        disc: DiscreteState,
        cap: int,
        k_probe: int,
        rng: np.random.Generator | None,
    ) -> AllocationDecision: ...


@dataclass(eq=False, slots=True)
class _Node:
    """A reduced graph and what steps computed on it; children by (edge position, sign)."""

    graph: WeightedGraph
    angles: Angles | None = None
    exact: np.ndarray | None = None
    residual: dict[int, int] | None = None
    children: dict[tuple[int, int], _Node] = field(default_factory=dict)


class StepCache:
    """Per-instance graph of nodes, one per reduced graph its episodes reach.

    A node holds its WeightedGraph, angles, exact correlation values,
    residual assignment (brute-forced once) and children.  An episode finds
    its instance's node by signature, and other nodes only when it first
    takes a contraction, so two orders that reach one graph share its node.
    Nodes are small and kept unbounded.  Cumulative probabilities, 2^(n-1)
    floats per graph (the half state, see qaoa.statevector_depth1), live in
    an LRU keyed by node and bounded at about 2^24 floats.
    """

    def __init__(self):
        self._nodes: dict[tuple, _Node] = {}
        self._probs: OrderedDict[_Node, np.ndarray] = OrderedDict()
        self._max_prob: int | None = None

    def node(self, g: WeightedGraph) -> _Node:
        """The node of g's signature, created on first sight."""
        key = g.signature()
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes[key] = _Node(g)
        return node

    def descend(self, node: _Node, i: int, rec: ContractionRecord) -> _Node:
        """The child that rec, on edge i of node's graph, leads to; contract builds it on first sight."""
        child = node.children.get((i, rec.sign))
        if child is None:
            g = contract(ReducedInstance.fresh(node.graph), rec).graph
            child = node.children[i, rec.sign] = self.node(g)
        return child

    def probs_get(self, node: _Node) -> np.ndarray | None:
        if node not in self._probs:
            return None
        self._probs.move_to_end(node)
        return self._probs[node]

    def probs_put(self, node: _Node, value: np.ndarray) -> None:
        if self._max_prob is None:
            # keep total cached floats around 2^24 regardless of state size
            self._max_prob = max(16, (1 << 24) // max(1, len(value)))
        self._probs[node] = value
        self._probs.move_to_end(node)
        while len(self._probs) > self._max_prob:
            self._probs.popitem(last=False)


@dataclass
class StepLog:
    """One elimination step, as logged: its fields are the keys of a steps.jsonl record.

    The defaults describe a trivial step, one padded in after early
    exhaustion: no state, no shots, no edge.  disc is DiscreteState.key().
    """

    step: int
    m: int
    zeta: float | None = None
    kappa: float | None = None
    dist: int | None = None
    disc: str | None = None
    baseline_index: int = 0
    residual: int = 0
    shots: int = 0
    edge: tuple[int, int] | None = None
    sign: int = 1
    top_two: tuple[float, ...] = ()
    trivial: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class EpisodeResult:
    """Outcome and per-step trace of one episode."""

    steps: list[StepLog]
    total_shots: int
    e_out: float
    e_opt: float
    sigma: int
    approx_ratio: float
    early_exhausted: bool = False

    def to_dict(self) -> dict:
        """Every field but the steps: the keys of a trials.jsonl record after its head."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "steps"}


def select_edge(g: WeightedGraph, est: np.ndarray, order: np.ndarray) -> tuple[int, int, int]:
    """Pick the edge with the largest |correlation|: the first of ``order``.

    ``order`` is edge_order(est), so ties in magnitude break
    lexicographically.  Returns (eliminated, kept, sign): the larger
    endpoint id is eliminated, and sign(0) is +1.
    """
    if not len(order):
        raise ValueError("cannot select an edge from an empty estimate")
    i = int(order[0])
    a, b = g.edge_index()[0][i].tolist()
    kept, eliminated = g.nodes[a], g.nodes[b]
    return eliminated, kept, -1 if est[i] < 0 else 1


def success(e_out: float, e_opt: float, rho_star: float = 0.99) -> int:
    """Binary success: approximation ratio at or above rho_star."""
    if e_opt <= 0:
        raise ValueError("success ratio undefined for non-positive optimum")
    return 1 if e_out / e_opt >= rho_star else 0


def check_episode(inst: Instance, cap: int, cfg: DriverConfig) -> int:
    """Raise ValueError unless an episode can run on inst at cap; return its probe size."""
    if inst.e_opt is None:
        raise ValueError(f"{inst.instance_id} has no recorded optimum; screen it first")
    if inst.n <= cfg.n_c:
        raise ValueError(f"{inst.instance_id}: size {inst.n} not above classical threshold {cfg.n_c}")
    if cfg.sampling_mode == MODE_STATEVECTOR and inst.n > STATEVECTOR_MAX_QUBITS:
        raise ValueError(f"{inst.instance_id}: {MODE_STATEVECTOR} is limited to "
                         f"{STATEVECTOR_MAX_QUBITS} qubits, got {inst.n}")
    k_probe = probe_shot_count(inst.n)
    if cap < k_probe:
        raise ValueError(f"{inst.instance_id}: cap {cap} below probe size {k_probe}")
    return k_probe


def run_episode(
    inst: Instance,
    policy: EpisodePolicy,
    cap: int,
    cfg: DriverConfig,
    rng: np.random.Generator,
    cache: StepCache | None = None,
) -> EpisodeResult:
    """Run one full RQAOA episode and score it against the known optimum."""
    k_probe = check_episode(inst, cap, cfg)
    n = inst.n
    cache = cache if cache is not None else StepCache()

    node = cache.node(inst.graph)
    stack: list[ContractionRecord] = []
    steps: list[StepLog] = []
    early_exhausted = False

    while node.graph.node_count > cfg.n_c:
        g = node.graph
        if g.edge_count == 0:
            # all couplings cancelled: remaining spins are free
            early_exhausted = True
            break

        if node.angles is None:
            node.angles = optimize_angles(g)
        cum = cache.probs_get(node)
        sampler = CorrelationSampler(
            g,
            node.angles,
            mode=cfg.sampling_mode,
            sv_threshold=cfg.sv_threshold,
            exact_values=node.exact,
            cumulative_probs=cum,
        )

        if sampler.mode == MODE_EXACT:
            probe_est = sampler.exact_values()
        else:
            probe_pool = sampler.draw(k_probe, rng)
            probe_est = sampler.estimate(probe_pool)

        state = extract_state(g, probe_est, k_top=cfg.k_top, zgap_variant=cfg.zgap_variant)
        disc = discretize(state, n, cfg.n_c, cfg.bins)
        decision = policy.decide(state, disc, cap, k_probe, rng)
        k_t = decision.shots

        if sampler.mode == MODE_EXACT:
            main_est = probe_est
        else:
            pool = probe_pool
            if k_t > k_probe:
                pool = CorrelationSampler.merge(pool, sampler.draw(k_t - k_probe, rng))
            main_est = sampler.estimate(pool)

        # persist prepared-state data for future trials on this instance
        if sampler.mode != MODE_STATEVECTOR:
            node.exact = sampler.exact_values()
        elif cum is None:
            cache.probs_put(node, sampler.cumulative_probs())

        order = edge_order(main_est)
        elim, kept, sign = select_edge(g, main_est, order)
        rec = ContractionRecord(eliminated=elim, kept=kept, sign=sign)
        stack.append(rec)
        node = cache.descend(node, int(order[0]), rec)
        steps.append(
            StepLog(
                step=len(steps) + 1,
                m=g.node_count,
                zeta=state.zeta,
                kappa=state.kappa,
                dist=state.dist,
                disc=disc.key(),
                baseline_index=decision.baseline_index,
                residual=decision.residual,
                shots=k_t,
                edge=(kept, elim),
                sign=sign,
                top_two=tuple(np.abs(main_est[order[:2]]).tolist()),
            )
        )

    while len(steps) < n - cfg.n_c:
        steps.append(StepLog(step=len(steps) + 1, m=node.graph.node_count, trivial=True))

    if node.residual is None:
        node.residual = brute_force_optimum(node.graph)[1]
    full = reconstruct_assignment(stack, node.residual)
    e_out = cut_value(inst.graph, full)
    sigma = success(e_out, inst.e_opt, cfg.rho_star)
    return EpisodeResult(
        steps=steps,
        total_shots=sum(s.shots for s in steps),
        e_out=e_out,
        e_opt=inst.e_opt,
        sigma=sigma,
        approx_ratio=e_out / inst.e_opt,
        early_exhausted=early_exhausted,
    )
