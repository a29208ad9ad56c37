"""The names rqbench reaches in rqshot exist, so a deleted or moved one fails here.

rqbench is read, never imported as a package: its modules are loaded from their
files, as rqbench/run.py loads them beside each other.
"""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import rqshot

RQBENCH = Path(__file__).resolve().parents[1] / "rqbench"
SRC = Path(rqshot.__file__).resolve().parents[1]


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_rqbench_{name}", RQBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_hook_resolves():
    # the lookup of spans.Tracer.install, short of wrapping what it finds
    layers, spans = _load("layers"), _load("spans")
    absent = []
    for name, target, attr, _ in layers.HOOKS:
        owner = spans._resolve(target)
        raw = None if owner is None else vars(owner).get(attr)
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        if not callable(fn):
            absent.append(f"{name} ({target}.{attr})")
    assert absent == []


def _rq_chains(source: str) -> set[tuple[str, ...]]:
    """Every attribute chain read off the rqshot package: rq.a.b, self.rq.a.b, or an alias of one."""
    tree = ast.parse(source)

    def chain(node) -> tuple[str, tuple[str, ...]] | None:
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        return (node.id, tuple(reversed(parts))) if isinstance(node, ast.Name) else None

    def from_package(node, aliases) -> tuple[str, ...] | None:
        found = chain(node)
        if found is None:
            return None
        root, parts = found
        if root == "self" and parts[:1] == ("rq",):
            return parts[1:]
        if root == "rq":
            return parts
        return aliases[root] + parts if root in aliases else None

    aliases: dict[str, tuple[str, ...]] = {}
    for node in ast.walk(tree):  # bm = self.rq.benchmark, learner = self.rq.learner, ...
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            parts = from_package(node.value, {})
            if parts:
                aliases[node.targets[0].id] = parts
    return {parts for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            if (parts := from_package(node, aliases))}


_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import rqshot.benchmark, rqshot.learner
missing = []
for chain in json.loads(sys.argv[2]):
    owner = rqshot
    for part in chain:
        if not hasattr(owner, part):
            missing.append(".".join(chain))
            break
        owner = getattr(owner, part)
print(json.dumps(missing))
"""


def test_every_name_the_workloads_read_exists():
    # in a fresh interpreter with only the two modules rqbench/run.py imports
    chains = _rq_chains((RQBENCH / "workloads.py").read_text())
    assert {("benchmark", "run_trials"), ("learner", "train"), ("learner", "run_episode"),
            ("driver", "StepCache"), ("features", "probe_shot_count")} <= chains
    done = subprocess.run([sys.executable, "-c", _PROBE, str(SRC), json.dumps(sorted(chains))],
                          capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(done.stdout) == []
