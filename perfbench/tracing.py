"""Outside-in span tracing of the ssflow layers.

Each layer function is wrapped at the module attribute its caller reads at
call time, so nothing under ``src/`` changes. Spans are aggregated per name
as they close (calls, total time, self time); self time is a span's duration
minus the time covered by its direct child spans. ``install`` returns a
handle whose ``restore`` puts every patched attribute back.
"""

import dataclasses
import time

# a span's layer is the part of its name before the first dot
LAYERS = ("models", "flow", "integrator", "numerics", "sensitivity", "baselines", "bench")


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Aggregating span recorder.

    ``wrap(fn, name)`` returns a function that records one ``name`` span per
    call. Nested wrapped calls form a stack; when a span closes its duration,
    less any excluded time inside it, is added to its parent's child time.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self.counters = {}
        self._child = []  # child time accumulated by each open span
        self._excluded = []  # excluded time inside each open span

    def exclude(self, seconds):
        """Leave ``seconds`` just spent on something else, such as a speed
        probe run from a signal handler, out of every open span.

        A probe that lands in the few bytecodes where a span opens or closes
        is counted in that span rather than left out.
        """
        if self._excluded:
            self._excluded[-1] += seconds

    def span_stats(self, name):
        return self.stats.setdefault(name, SpanStats())

    def count(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, fn, name, on_result=None):
        stats = self.span_stats(name)
        child = self._child
        excluded = self._excluded
        clock = self.clock

        def traced(*args, **kwargs):
            t0 = clock()
            child.append(0.0)
            excluded.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                x = excluded.pop()
                d = clock() - t0 - x
                c = child.pop()
                stats.calls += 1
                stats.total_s += d
                stats.self_s += d - c
                if child:
                    child[-1] += d
                    excluded[-1] += x
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def root_s(self):
        """Sum of self times; equals the total duration of the root spans."""
        return sum(s.self_s for s in self.stats.values())

    def layer_self_s(self):
        out = {layer: 0.0 for layer in LAYERS}
        for name, s in self.stats.items():
            out[name.split(".", 1)[0]] += s.self_s
        return out


class Patches:
    """Attributes replaced on modules; ``restore`` undoes them in reverse."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


_SINGLE = ("f", "jac_x", "jac_theta")
_BATCH = ("f_batch", "jac_x_batch", "jac_theta_batch")


def _traced_model_factory(tracer, factory):
    """Wrap a model factory so every ModelSpec it builds has traced kernels."""

    def build(*args, **kwargs):
        spec = factory(*args, **kwargs)
        fields = {}
        for attr in _SINGLE:
            fields[attr] = tracer.wrap(getattr(spec, attr), "models.single")
        for attr in _BATCH:
            fn = getattr(spec, attr)
            if fn is not None:
                fields[attr] = tracer.wrap(fn, "models.batch")
        if spec.analytic_steady_state is not None:
            fields["analytic_steady_state"] = tracer.wrap(
                spec.analytic_steady_state, "models.steady_state"
            )
        return dataclasses.replace(spec, **fields)

    return build


def _traced_bfgs(tracer, qn):
    def on_result(result):
        tracer.count("baselines.bfgs_iterations", result.iterations)

    def call(fun_grad, *args, **kwargs):
        return qn(tracer.wrap(fun_grad, "baselines.fun_grad"), *args, **kwargs)

    return tracer.wrap(call, "baselines.bfgs", on_result)


def install(tracer):
    """Patch every traced layer boundary; returns the Patches to restore."""
    from ssflow import baselines, bench, flow, integrator, models, numerics

    patches = Patches()

    def on_run_result(result):
        tracer.count("integrator.rhs_evals", result.rhs_evals)
        tracer.count("integrator.steps_accepted", result.steps_accepted)
        tracer.count("integrator.steps_rejected", result.steps_rejected)

    def on_auglag(result):
        tracer.count("baselines.auglag_outer_iterations", result.outer_iterations)

    try:
        for name in ("ngf_erk_model", "conversion_reaction_model"):
            patches.set(models, name, _traced_model_factory(tracer, getattr(models, name)))
        patches.set(flow, "_assemble", tracer.wrap(flow._assemble, "flow.assemble"))
        patches.set(bench, "run_flow", tracer.wrap(bench.run_flow, "flow.run_flow", on_run_result))
        patches.set(
            integrator,
            "integrate_adaptive",
            tracer.wrap(integrator.integrate_adaptive, "integrator.integrate"),
        )
        patches.set(
            integrator,
            "_fd_jacobian",
            tracer.wrap(integrator._fd_jacobian, "integrator.fd_jacobian"),
        )
        patches.set(integrator, "step", tracer.wrap(integrator.step, "integrator.step"))
        # bench and baselines each bind the BFGS solver by name; both go
        # through the same original so the two bindings trace alike
        qn = _traced_bfgs(tracer, baselines.quasi_newton_unconstrained)
        patches.set(baselines, "quasi_newton_unconstrained", qn)
        patches.set(bench, "quasi_newton_unconstrained", qn)
        patches.set(
            bench,
            "augmented_lagrangian_constrained",
            tracer.wrap(bench.augmented_lagrangian_constrained, "baselines.auglag", on_auglag),
        )
        patches.set(numerics, "solve", tracer.wrap(numerics.solve, "numerics.solve"))
        patches.set(numerics, "pinv", tracer.wrap(numerics.pinv, "numerics.pinv"))
        patches.set(
            models,
            "sensitivity_exact",
            tracer.wrap(models.sensitivity_exact, "sensitivity.exact"),
        )
        for attr, name in (
            ("_build_problem", "bench.build_problem"),
            ("_execute_task", "bench.task"),
            ("_reduced_value", "bench.reduced_value"),
            ("summarize", "bench.summarize"),
            ("emit", "bench.emit"),
        ):
            patches.set(bench, attr, tracer.wrap(getattr(bench, attr), name))
    except BaseException:
        patches.restore()
        raise
    return patches
