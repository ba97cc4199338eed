"""Spans and counters around the public calls of each policyspace module.

The tracer wraps functions and methods from the outside, while it is
installed, and restores the originals when it is removed; nothing inside
`src/` knows about it. A span is (name, start, end, parent). Spans are
kept in memory and written out once, when the run ends. A span's self
time is its duration minus the durations of its direct children, so the
self times of every span under one operation add up to that operation's
traced duration.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time

# (span name, module, attribute path): each layer is the module that owns it
SPANNED = (
    ("training.collect_rollouts", "policyspace.training", "collect_rollouts"),
    ("training.assemble_batch", "policyspace.training", "assemble_batch"),
    ("training.ppo_objective", "policyspace.training", "ppo_objective"),
    ("autodiff.backward", "policyspace.autodiff", "Tensor.backward"),
    ("diversity.estimate", "policyspace.diversity", "estimate_for_generator"),
    ("optim.adam_step", "policyspace.optim", "Adam.step"),
    ("optim.clip", "policyspace.optim", "clip_grad_norm"),
    ("generator.act", "policyspace.generator", "PolicyGenerator.act"),
    ("generator.probs_np", "policyspace.generator", "PolicyGenerator.probs_np"),
    ("evaluation.play_game", "policyspace.evaluation", "play_game"),
    ("envs.step", "policyspace.envs.base", "Environment.step"),
    ("latent_search.optimize", "policyspace.latent_search", "optimize_latents"),
    ("checkpoint.save", "policyspace.checkpoint", "save_checkpoint"),
    ("checkpoint.load", "policyspace.checkpoint", "load_checkpoint"),
)


class Tracer:
    """Records spans and counts while installed; single-threaded."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.stack: list[int] = []
        self.tensors = 0                 # autodiff.Tensor objects built
        self.act_rows = 0                # rows passed to PolicyGenerator.act
        self.checkpoint_bytes: list[int] = []
        self.op_tensors = 0              # the two counts above, inside operations
        self.op_act_rows = 0
        self._undo: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def operation(self):
        """A root `op` span; counts made inside it are kept per operation."""
        tensors, rows = self.tensors, self.act_rows
        index = self.open("op")
        try:
            yield
        finally:
            self.close(index)
            self.op_tensors += self.tensors - tensors
            self.op_act_rows += self.act_rows - rows

    def spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return wrapper

    # -- install / remove ----------------------------------------------------

    def _replace(self, owner, attr: str, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_function(self, original, new):
        """Rebind a module-level function in every policyspace module using it."""
        for name, module in list(sys.modules.items()):
            if name.startswith("policyspace") and module is not None:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, new)

    def install(self):
        from policyspace import autodiff

        for span, module_name, path in SPANNED:
            owner = sys.modules[module_name]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = owner.__dict__[attr]
            wrapped = self.spanned(span, original)
            if span == "latent_search.optimize":
                wrapped = self._wrap_search(wrapped)
            elif span == "generator.act":
                wrapped = self._count_rows(wrapped)
            elif span == "checkpoint.save":
                wrapped = self._count_bytes(wrapped)
            if cls:
                self._replace(owner, attr, wrapped)
            else:
                self._replace_function(original, wrapped)

        tensor_init = autodiff.Tensor.__init__

        def counting_init(tensor, *args, **kwargs):
            self.tensors += 1
            tensor_init(tensor, *args, **kwargs)

        self._replace(autodiff.Tensor, "__init__", counting_init)

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap_search(self, search):
        """Put a `latent_search.score` span around the search's score function."""
        @functools.wraps(search)
        def wrapper(score_fn, *args, **kwargs):
            return search(self.spanned("latent_search.score", score_fn), *args, **kwargs)
        return wrapper

    def _count_rows(self, act):
        @functools.wraps(act)
        def wrapper(gen, obs, *args, **kwargs):
            self.act_rows += len(obs)
            return act(gen, obs, *args, **kwargs)
        return wrapper

    def _count_bytes(self, save):
        @functools.wraps(save)
        def wrapper(path, *args, **kwargs):
            out = save(path, *args, **kwargs)
            self.checkpoint_bytes.append(os.path.getsize(path))
            return out
        return wrapper

    # -- results ---------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self, root: str) -> dict:
        """{span name: (calls, self seconds)} over every span under a `root` span."""
        own = self.self_times()
        under = [False] * len(self.spans)
        out: dict = {}
        for i, (name, _, _, parent) in enumerate(self.spans):
            under[i] = name == root or (parent >= 0 and under[parent])
            if under[i]:
                calls, seconds = out.get(name, (0, 0.0))
                out[name] = (calls + 1, seconds + own[i])
        return out

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
