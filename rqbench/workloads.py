"""The benchmark's workloads: fixed rounds of calls into rqshot's public API.

A round is the unit of timed work.  Every round of a workload repeats the
same calls with the same random streams, so its outputs must be identical
from round to round; that is checked, and it is what makes per-round counts
exact.  The master seed of every random stream is the ``--seed`` argument;
the instances themselves are fixed so that seeds change only the shot draws.

Each workload's ``check`` runs outside the timed phase.  It returns the
number of failed episodes in a round, what each failure was, and the
problems that concern the run rather than one episode (a round that differs
from the first, a checkpoint that does not survive serialisation).
``setup_repeats`` is how many set-up passes a run times for ``setup_s``;
cheap set-ups repeat more, so that their median holds still.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import outcome

N_C = 8
RHO_STAR = 0.99


class _Workload:
    def __init__(self, rq, seed: int):
        self.rq = rq
        self.seed = seed
        self.driver_cfg = rq.driver.DriverConfig(n_c=N_C, rho_star=RHO_STAR)
        self.specs: dict[str, outcome.EpisodeSpec] = {}
        self.reference = None

    def _spec(self, inst, cap: int, uniform: bool) -> outcome.EpisodeSpec:
        couplings = inst.graph.edges()
        nodes = tuple(inst.graph.nodes)
        key = inst.instance_id
        if key not in self.specs:  # the exhaustive search runs once per instance
            self.specs[key] = outcome.EpisodeSpec(
                nodes=nodes, couplings=couplings, e_opt=outcome.max_cut(list(nodes), couplings),
                n_c=N_C, rho_star=RHO_STAR, cap=cap,
                k_probe=self.rq.features.probe_shot_count(inst.n), uniform=False,
            )
        return replace(self.specs[key], cap=cap, uniform=uniform)

    def digest(self) -> str:
        blob = json.dumps(self.digest_payload(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


class TrialsWorkload(_Workload):
    """Uniform and heuristic trials through ``benchmark.run_trials``.

    With ``warm`` the set-up runs one round cold, which fills one StepCache
    per instance, every timed round reuses those caches, and a round is one
    part; the timed rounds must then reproduce the set-up round exactly.
    Without it every run_trials call gets no cache, so the program starts a
    fresh one, and each call is a part of its own.
    """

    POLICIES = ("uniform", "heuristic")

    def __init__(self, rq, seed, name, instances, cap, trials, warm, kernel, setup_repeats):
        super().__init__(rq, seed)
        self.name = name
        self.kernel = kernel
        self.setup_repeats = setup_repeats
        self.instance_params = instances
        self.cap = cap
        self.trials = trials
        self.warm = warm
        calls = [(i, p) for i in range(len(instances)) for p in self.POLICIES]
        self.part_calls = [calls] if warm else [[c] for c in calls]
        self.parts = len(self.part_calls)
        self.episodes_per_round = len(calls) * trials

    def setup(self) -> None:
        gen = self.rq.instance.generate_instance
        self.instances = [gen(n, d, s) for n, d, s in self.instance_params]
        self.caches = None
        if self.warm:
            self.caches = {i.instance_id: self.rq.driver.StepCache() for i in self.instances}
            self.reference = self._canonical([self.run_part(0)])

    def run_part(self, part: int):
        bm = self.rq.benchmark
        out = []
        for i, name in self.part_calls[part]:
            inst = self.instances[i]
            results = bm.run_trials(
                inst, bm.make_policy(name), self.cap, self.trials, self.driver_cfg,
                (self.seed, "eval", inst.instance_id, name),
                cache=None if self.caches is None else self.caches[inst.instance_id],
            )
            out.append((inst, name, results))
        return out

    @staticmethod
    def _canonical(parts):
        return [
            (inst.instance_id, name, [(r.to_dict(), [s.to_dict() for s in r.steps]) for r in res])
            for part in parts for inst, name, res in part
        ]

    def check(self, parts):
        failed, notes, problems = 0, [], []
        for inst, name, results in (call for part in parts for call in part):
            if len(results) != self.trials:
                problems.append(f"{inst.instance_id}/{name}: {len(results)} results")
            spec = self._spec(inst, self.cap, uniform=(name == "uniform"))
            for t, ep in enumerate(results):
                found = outcome.episode_problems(ep, spec)
                if found:
                    failed += 1
                    notes.append(f"{inst.instance_id}/{name}/trial {t}: {'; '.join(found)}")
        canonical = self._canonical(parts)
        if self.reference is None:
            self.reference = canonical
        elif canonical != self.reference:
            problems.append("a timed round differs from the set-up round or the first timed round")
        return failed, notes, problems

    def finish(self):
        return 0, [], []

    def digest_payload(self):
        return [
            (iid, name, [(r["total_shots"], r["sigma"], r["e_out"]) for r, _ in episodes])
            for iid, name, episodes in self.reference
        ]


class TrainN14(_Workload):
    """``learner.train`` on n14d08s847 with a shortened standard preset.

    A round is RUNS independent trainings, one part each, with master seeds
    derived from ``--seed``: how many new reduced graphs exploration reaches
    differs from seed to seed, and averaging runs keeps that from swamping
    the rate.  train() returns only the checkpoint, so its episodes are
    checked in one extra round after the timed phase that records what
    ``run_episode`` returns; training is deterministic, so every timed round
    must produce the checkpoints of that round, and with them its episodes.
    """

    name = "train-n14"
    kernel = "interpreter"
    setup_repeats = 7
    INSTANCE = (14, 8, 847)
    CAP = 1024
    RUNS = 3
    EPISODES = 120
    VALIDATION_EVERY = 40
    VALIDATION_TRIALS = 10

    def __init__(self, rq, seed):
        super().__init__(rq, seed)
        self.config = replace(
            rq.learner.TrainConfig.preset("standard"), episodes=self.EPISODES,
            validation_every=self.VALIDATION_EVERY, validation_trials=self.VALIDATION_TRIALS,
        )
        self.parts = self.RUNS
        self.episodes_per_run = (
            self.EPISODES + (self.EPISODES // self.VALIDATION_EVERY) * self.VALIDATION_TRIALS
        )
        self.episodes_per_round = self.RUNS * self.episodes_per_run
        self.rounds_checked = 0

    def setup(self) -> None:
        self.inst = self.rq.instance.generate_instance(*self.INSTANCE)

    def run_part(self, part: int):
        return self.rq.learner.train(
            self.inst, self.CAP, self.config, self.driver_cfg, master_seed=self.seed * 100 + part
        )

    @staticmethod
    def _canonical(ckpts):
        return [json.loads(json.dumps(c.to_dict())) for c in ckpts]

    def check(self, ckpts):
        self.rounds_checked += 1
        canonical = self._canonical(ckpts)
        if self.reference is None:
            self.reference = canonical
        elif canonical != self.reference:
            return 0, [], ["a timed round's checkpoints differ from the first round's"]
        return 0, [], []

    def finish(self):
        """The recorded round: check its episodes and its checkpoints.

        Returns the failed episodes of all timed rounds, which equal the
        recorded round's failures once per round.
        """
        learner = self.rq.learner
        recorded = []
        run_episode = learner.run_episode

        def recording(*args, **kwargs):
            result = run_episode(*args, **kwargs)
            recorded.append(result)
            return result

        learner.run_episode = recording
        try:
            ckpts = [self.run_part(k) for k in range(self.RUNS)]
        finally:
            learner.run_episode = run_episode

        failed, notes, problems = 0, [], []
        spec = self._spec(self.inst, self.CAP, uniform=False)
        for i, ep in enumerate(recorded):
            found = outcome.episode_problems(ep, spec)
            if found:
                failed += 1
                notes.append(f"episode call {i}: {'; '.join(found)}")
        if len(recorded) != self.episodes_per_round:
            problems.append(f"{len(recorded)} run_episode calls, expected {self.episodes_per_round}")
        canonical = self._canonical(ckpts)
        for as_dict in canonical:
            restored = json.loads(json.dumps(learner.PolicyCheckpoint.from_dict(as_dict).to_dict()))
            problems += outcome.checkpoint_problems(
                as_dict, restored, self.config.episodes, self.config.lambda_max
            )
        if self.reference is not None and canonical != self.reference:
            problems.append("the recorded round's checkpoints differ from the timed rounds'")
        self.recorded = canonical
        return failed * self.rounds_checked, notes, problems

    def digest_payload(self):
        return [{"qtables": c["qtables"], "lambda_trace": c["lambda_trace"],
                 "validation_history": c["validation_history"]} for c in self.recorded]


def make(name: str, rq, seed: int):
    if name == "eval-warm":
        return TrialsWorkload(
            rq, seed, name, instances=((14, 8, 847), (16, 3, 847), (16, 5, 847)),
            cap=256, trials=10, warm=True, kernel="interpreter", setup_repeats=3,
        )
    if name == "large-n22":
        return TrialsWorkload(
            rq, seed, name, instances=((22, 3, 847),), cap=512, trials=1, warm=False,
            kernel="memory", setup_repeats=5,
        )
    if name == "train-n14":
        return TrainN14(rq, seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("eval-warm", "train-n14", "large-n22")
