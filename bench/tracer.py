"""Spans and counts taken by wrappers installed around the package's functions.

The wrappers are installed from outside: the package's modules call each
other through module attributes (``optics.validate_config``,
``sweep_mod.sweep_grid``, ``bh_ed.build_hamiltonian``), so replacing an
attribute reaches every caller.  ``FockBasis.build`` is a classmethod and is
replaced on the class.  Nothing under ``src/`` is edited.

A span's self time is its duration minus the time its child spans cover.
Spans of the coarse layers are kept in memory as (id, name, start, end,
parent id) and written out when the run ends.  The per-node layers
(``optics``, ``many_body`` and the NLSE observables) run up to 10^5 times a
round, so for them only counts, total and self time are kept.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    errors: int = 0


@dataclass
class _Open:
    name: str
    start: float
    span_id: int | None
    child: float = 0.0


@dataclass
class Tracer:
    clock: object = time.perf_counter
    stats: dict = field(default_factory=dict)      # name -> Stat
    within: dict = field(default_factory=dict)     # (name, ancestor) -> Stat
    spans: list = field(default_factory=list)  # (id, name, start, end, parent)
    gauges: dict = field(default_factory=dict)     # name -> max value seen
    _stack: list = field(default_factory=list)
    _active: dict = field(default_factory=dict)    # name -> open depth
    _installed: list = field(default_factory=list)

    def wrap(self, name, fn, record=True, within=()):
        """Return fn wrapped in a span.

        name is the span name, or a callable that picks it from the call's
        arguments.  record keeps the span itself; within lists ancestor span
        names under which this span's calls and time are also counted.
        """
        tracer = self
        naming = callable(name)

        def wrapper(*args, **kwargs):
            span_name = name(*args, **kwargs) if naming else name
            parent = tracer._parent_id()
            span_id = len(tracer.spans) if record else None
            if record:
                tracer.spans.append(None)
            opened = _Open(span_name, tracer.clock(), span_id)
            tracer._stack.append(opened)
            tracer._active[span_name] = tracer._active.get(span_name, 0) + 1
            failed = False
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = tracer.clock()
                tracer._stack.pop()
                tracer._active[span_name] -= 1
                tracer._close(opened, end, parent, failed, within)

        wrapper.__wrapped__ = fn
        return wrapper

    def _parent_id(self):
        for opened in reversed(self._stack):
            if opened.span_id is not None:
                return opened.span_id
        return None

    def _close(self, opened, end, parent, failed, within):
        dur = end - opened.start
        stat = self.stats.setdefault(opened.name, Stat())
        stat.calls += 1
        stat.total += dur
        stat.self_time += dur - opened.child
        stat.errors += failed
        if self._stack:
            self._stack[-1].child += dur
        if opened.span_id is not None:
            self.spans[opened.span_id] = (opened.span_id, opened.name,
                                          opened.start, end, parent)
        for ancestor in within:
            if self._active.get(ancestor):
                w = self.within.setdefault((opened.name, ancestor), Stat())
                w.calls += 1
                w.total += dur

    def gauge_max(self, name, value):
        self.gauges[name] = max(self.gauges.get(name, value), value)

    def patch(self, owner, attr, name, record=True, within=(),
              classmethod_=False):
        """Replace owner.attr by its wrapped version; skip a missing attr."""
        if attr not in vars(owner):
            return
        original = vars(owner)[attr]
        fn = original.__func__ if classmethod_ else original
        wrapped = self.wrap(name, fn, record=record, within=within)
        setattr(owner, attr, classmethod(wrapped) if classmethod_ else wrapped)
        self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # --- read-outs -------------------------------------------------------

    def stat(self, name) -> Stat:
        return self.stats.get(name, Stat())

    def layer(self, prefix) -> Stat:
        """Sum of the stats of every span whose name starts with prefix."""
        out = Stat()
        for name, s in self.stats.items():
            if name.startswith(prefix):
                out.calls += s.calls
                out.total += s.total
                out.self_time += s.self_time
                out.errors += s.errors
        return out

    def within_stat(self, name, ancestor) -> Stat:
        return self.within.get((name, ancestor), Stat())

    def counts(self) -> dict:
        """Every call count, for comparing two runs of the same inputs."""
        out = {name: s.calls for name, s in self.stats.items()}
        out.update({f"{n}@{a}": s.calls for (n, a), s in self.within.items()})
        return out


def install(tracer: Tracer, pkg) -> None:
    """Wrap the public functions of every package layer the benchmark reads."""
    cli, config, optics, many_body = pkg.cli, pkg.config, pkg.optics, \
        pkg.many_body
    sweep, nlse, bh_ed = pkg.sweep, pkg.nlse, pkg.bh_ed
    roots = ("sweep.find_mott_crossing", "sweep.find_pinning_crossing")

    tracer.patch(cli, "main", "cli.main")
    tracer.patch(cli, "load_config", "config.load_config")
    tracer.patch(config, "load_config", "config.load_config")

    tracer.patch(optics, "validate_config", "optics.validate_config",
                 record=False, within=roots)
    for attr in ("effective_params", "lieb_liniger_gamma",
                 "lattice_depth_ratio"):
        tracer.patch(optics, attr, f"optics.{attr}", record=False)

    for attr in ("make_point", "regime_flags", "luttinger_k",
                 "sg_critical_depth", "bh_params", "uj_closed_form",
                 "classify"):
        tracer.patch(many_body, attr, f"many_body.{attr}", record=False)

    for attr in ("sweep_grid", "phase_boundaries", "find_mott_crossing",
                 "find_pinning_crossing"):
        tracer.patch(sweep, attr, f"sweep.{attr}")

    tracer.patch(nlse, "ground_state", "nlse.ground_state")
    tracer.patch(nlse, "evolve", "nlse.evolve")
    tracer.patch(nlse, "energy_of", "nlse.energy_of", record=False,
                 within=("nlse.ground_state",))
    tracer.patch(nlse, "norm_of", "nlse.norm_of", record=False,
                 within=("nlse.ground_state",))

    def eig_name(h, *args, **kwargs):
        dim = h.shape[0]
        tracer.gauge_max("bh_ed.max_dim", dim)
        cutoff = getattr(bh_ed, "DENSE_CUTOFF", 2000)
        return "bh_ed.eig_dense" if dim <= cutoff else "bh_ed.eig_lanczos"

    tracer.patch(bh_ed, "ground_energy", eig_name,
                 within=("bh_ed.diagnostics",))
    tracer.patch(bh_ed.FockBasis, "build", "bh_ed.basis", classmethod_=True)
    tracer.patch(bh_ed, "build_hamiltonian", "bh_ed.hamiltonian")
    for attr in ("diagnostics", "charge_gap", "estimate_critical_ratio"):
        tracer.patch(bh_ed, attr, f"bh_ed.{attr}")
