"""Tracing from outside the program: wrap public names, time and count calls.

``Tracer.install()`` replaces each traced function by a wrapper in every
``maflow`` module (and in ``scipy.fft``) that binds it, so calls through
``from x import f`` names are seen as well; ``uninstall()`` puts the
originals back.  Nothing inside ``src/maflow`` changes.

Every wrapped call records a span ``(layer, start, end, op)`` in memory,
and its self time (duration minus the time of wrapped calls nested in it).
A layer's inclusive time counts only its outermost frames, so a check
calling another check is not counted twice.  Hooks run after selected
calls to count work: bytes through the FFT, accepted steps and their dt,
Newton / GMRES iterations, bytes and rows through io, verdict statuses.

Single-threaded by design, like the harness: the frame stack is global to
the tracer.
"""

import functools
import json
import os
import sys
import time

import scipy.fft

from maflow import cli, elliptic, flow, functionals, geometry, initial, logdiff
from maflow import io as mio
from maflow import verify

FFT_NAMES = ("rfftn", "irfftn", "fftn", "ifftn")
POINTWISE = ("eigmin_raw", "det_raw", "raw_add", "raw_combine")
LAYERS = ("fft", "geometry.hessian", "geometry.pointwise", "functionals.series_row",
          "flow.run", "flow.rhs", "flow.state", "initial.approximation_sequence",
          "initial.lelong_estimate", "elliptic.solve_ma", "logdiff.evolve_density",
          "logdiff.density_to_potential", "io.write", "io.read", "cli.verify", "verify")


def _fft_bytes(tr, args, kwargs, result):
    tr.count("fft.bytes", getattr(args[0], "nbytes", 0) + result.nbytes)


def _accepted_step(tr, args, kwargs, state):
    if state.step_count == 0:
        tr.last_t = state.t
        return
    dt = state.t - tr.last_t
    tr.last_t = state.t
    tr.count("flow.steps", 1)
    # steps shortened to land on a snapshot time say nothing about the CFL step
    landed = any(abs(state.t - b) <= 1e-9 * max(1.0, b) for b in tr.boundaries)
    if not landed:
        tr.dt_min = min(tr.dt_min, dt)


def _newton(tr, args, kwargs, result):
    _, log = result
    tr.count("elliptic.newton_iters", log.iterations - 1)
    tr.count("elliptic.gmres_matvecs", sum(log.inner_iterations))
    tr.count("elliptic.damped_iters", sum(1 for _, _, s in log.rows[1:] if s < 1.0))


def _file_hook(direction, rows=False):
    def hook(tr, args, kwargs, result):
        path = args[0]
        tr.count(f"io.bytes_{direction}", os.path.getsize(path))
        tr.count("io.files", 1)
        if rows:
            n = len(args[1]) if direction == "written" else len(result[0])
            tr.count("io.csv_rows", n)
    return hook


def _meta_hook(direction):
    def hook(tr, args, kwargs, result):
        rundir = result if direction == "written" else args[0]   # save_trajectory returns it
        tr.count(f"io.bytes_{direction}", os.path.getsize(os.path.join(rundir, "meta.json")))
        tr.count("io.files", 1)
    return hook


def _verdict(tr, args, kwargs, rep):
    if tr.in_layer("verify"):
        return   # a check called by another check is part of that check
    tr.count("verify.checks", 1)
    tr.count("verify.fail", int(rep.status == "fail" and not rep.advisory))
    tr.count("verify.skip", int(rep.status == "skip"))


class Tracer:
    """Spans and counts of the wrapped calls; install() around each traced op."""

    def __init__(self, boundaries=()):
        self.boundaries = tuple(boundaries)
        self.spans = []          # (layer, start, end, op) for every wrapped call
        self.op = None
        self._stack = []         # [layer, start, child_time]
        self._patches = []
        self.reset()

    # -- per-op accumulators ---------------------------------------------

    def reset(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.incl = dict.fromkeys(LAYERS, 0.0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = {}
        self.dt_min = float("inf")
        self.last_t = 0.0

    def count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def in_layer(self, layer):
        return any(f[0] == layer for f in self._stack)

    # -- wrapping --------------------------------------------------------

    def _wrap(self, layer, fn, hook=None):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                self.calls[layer] += 1
                self.self_s[layer] += dur - frame[2]
                if not self.in_layer(layer):
                    self.incl[layer] += dur
                spans.append((layer, frame[1], end, self.op))
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return wrapper

    def _patch(self, owner, attr, layer, hook=None):
        """Wrap owner.attr and rebind every maflow / scipy.fft name bound to it."""
        orig = getattr(owner, attr)
        wrapper = self._wrap(layer, orig, hook)
        places = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == "maflow" or name.startswith("maflow."))]
        places += [scipy.fft]
        for mod in places:
            for name, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, name, orig))
                    setattr(mod, name, wrapper)
        if getattr(owner, attr) is orig:   # a class attribute, e.g. a method
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, wrapper)
        for key, val in list(verify.SINGLE_RUN_CHECKS.items()):
            if val is orig:
                self._patches.append((verify.SINGLE_RUN_CHECKS, key, orig))
                verify.SINGLE_RUN_CHECKS[key] = wrapper

    def install(self):
        for name in FFT_NAMES:
            self._patch(scipy.fft, name, "fft", _fft_bytes)
        self._patch(geometry, "hessian_raw", "geometry.hessian")
        for name in POINTWISE:
            self._patch(geometry, name, "geometry.pointwise")
        self._patch(functionals, "series_row", "functionals.series_row")
        self._patch(flow, "run", "flow.run")
        self._patch(flow._Stepper, "parts", "flow.rhs")
        self._patch(flow, "FlowState", "flow.state", _accepted_step)
        self._patch(initial, "approximation_sequence", "initial.approximation_sequence")
        self._patch(initial, "lelong_estimate", "initial.lelong_estimate")
        self._patch(elliptic, "solve_ma", "elliptic.solve_ma", _newton)
        self._patch(logdiff, "evolve_density", "logdiff.evolve_density")
        self._patch(logdiff, "density_to_potential", "logdiff.density_to_potential")
        self._patch(mio, "save_run", "io.write")
        self._patch(mio, "save_trajectory", "io.write", _meta_hook("written"))
        self._patch(mio, "write_field", "io.write", _file_hook("written"))
        self._patch(mio, "write_series_csv", "io.write", _file_hook("written", rows=True))
        self._patch(mio, "write_verdicts", "io.write", _file_hook("written"))
        self._patch(mio, "load_trajectory", "io.read", _meta_hook("read"))
        self._patch(mio, "load_run_config", "io.read", _meta_hook("read"))
        self._patch(mio, "read_field", "io.read", _file_hook("read"))
        self._patch(mio, "read_series_csv", "io.read", _file_hook("read", rows=True))
        self._patch(cli, "cmd_verify", "cli.verify")
        for name in dir(verify):
            if name.startswith("verify_"):
                self._patch(verify, name, "verify", _verdict)

    def uninstall(self):
        for owner, name, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[name] = orig
            else:
                setattr(owner, name, orig)
        self._patches = []

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics accumulated since the last reset()."""
        c = self.counts.get
        steps = c("flow.steps", 0)
        out = {
            "fft.calls": self.calls["fft"],
            "fft.s": self.incl["fft"],
            "fft.bytes": c("fft.bytes", 0),
            "geometry.hessian.calls": self.calls["geometry.hessian"],
            "geometry.hessian.self_s": self.self_s["geometry.hessian"],
            "geometry.pointwise.s": self.incl["geometry.pointwise"],
            "flow.run.s": self.incl["flow.run"],
            "flow.steps": steps,
            "flow.rhs_evals": self.calls["flow.rhs"],
            "flow.rhs_per_step": self.calls["flow.rhs"] / steps if steps else 0.0,
            "flow.dt_min": self.dt_min if steps else 0.0,
            "functionals.series_row.calls": self.calls["functionals.series_row"],
            "functionals.series_row.s": self.incl["functionals.series_row"],
            "initial.approximation_sequence.s": self.incl["initial.approximation_sequence"],
            "initial.lelong_estimate.calls": self.calls["initial.lelong_estimate"],
            "initial.lelong_estimate.s": self.incl["initial.lelong_estimate"],
            "elliptic.solve_ma.s": self.incl["elliptic.solve_ma"],
            "elliptic.newton_iters": c("elliptic.newton_iters", 0),
            "elliptic.gmres_matvecs": c("elliptic.gmres_matvecs", 0),
            "elliptic.damped_iters": c("elliptic.damped_iters", 0),
            "logdiff.evolve_density.s": self.incl["logdiff.evolve_density"],
            "logdiff.density_to_potential.calls": self.calls["logdiff.density_to_potential"],
            "io.write.s": self.incl["io.write"],
            "io.read.s": self.incl["io.read"],
            "io.bytes_written": c("io.bytes_written", 0),
            "io.bytes_read": c("io.bytes_read", 0),
            "io.files": c("io.files", 0),
            "io.csv_rows": c("io.csv_rows", 0),
            "cli.verify.s": self.incl["cli.verify"],
            "verify.s": self.incl["verify"],
            "verify.checks": c("verify.checks", 0),
            "verify.fail": c("verify.fail", 0),
            "verify.skip": c("verify.skip", 0),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        return out

    def write_spans(self, path):
        """All spans as JSON lines: layer, start and end (s), op index."""
        with open(path, "w") as fh:
            for layer, start, end, op in self.spans:
                fh.write(json.dumps({"layer": layer, "start": start, "end": end,
                                     "op": op}) + "\n")
