"""SimContext: the machine-assembly and component-lifecycle layer.

Everything that lives in a simulated Cedar — networks, global memory,
prefetch units, clusters, CEs, the Xylem file system — is a
**component** registered in one :class:`SimContext`.  The context owns
the shared substrate (the event :class:`~repro.core.engine.Engine`, the
:class:`~repro.monitor.signals.SignalBus`, the
:class:`~repro.core.config.CedarConfig`) and gives every component the
same four-phase lifecycle:

``attach(ctx)``
    Called exactly once when the component is registered; the component
    caches its engine/bus/config references and its signal channels
    here.  Wiring between components happens in the assembly plan, not
    inside component constructors.
``reset()``
    Return the component to its post-attach state (counters zeroed,
    queues empty) so a machine can be reused across experiment runs
    without re-assembly.
``stats()``
    A flat ``dict`` of the component's counters — the raw material for
    post-run analysis and experiment result stores.
``describe()``
    Static structural facts (topology, sizes) — the material for the
    Figure 1/2 reproductions.

The protocol is structural (duck-typed): anything with those four
callables is a component.  :func:`validate_component` checks compliance,
and :class:`ComponentAdapter` wraps objects that cannot grow the
methods themselves (e.g. :class:`~repro.xylem.filesystem.XylemFileSystem`,
whose ``stats`` is already a data attribute).

Assembly plans
--------------

A machine variant is a *plan*: an ordered list of named build steps.
:func:`register_variant` / :data:`NETWORK_VARIANTS` make the ablation
variants (dual network, one shared fabric, shared + reply escape)
data, not ``if``/``else`` chains — the variant is selected by
``config.network`` and each builder returns the forward/reverse
network pair declaratively.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Protocol, Tuple, runtime_checkable

from repro.core.config import CedarConfig, DEFAULT_CONFIG
from repro.core.engine import Engine
from repro.monitor.signals import Signal, SignalBus


# ---------------------------------------------------------------------------
# context observers: the attachment point for machine-wide instrumentation
#
# The paper's monitors clip onto a *running* machine from outside; the
# software analogue is a process-global list of callables invoked with
# every newly created SimContext.  The observability layer (ChromeTracer,
# the run-report collector) registers here so experiment code — which
# builds machines internally and never exposes them — can be traced and
# metered without modification.  With no observers registered (the
# default), context construction pays one empty-tuple iteration.

_CONTEXT_OBSERVERS: List[Callable[["SimContext"], None]] = []


def add_context_observer(observer: Callable[["SimContext"], None]):
    """Register ``observer`` to be called with every SimContext built
    from now on (machine assembly has not happened yet when it runs —
    subscribe broadcast, which sees future channels).  Returns the
    observer for use with :func:`remove_context_observer`."""
    _CONTEXT_OBSERVERS.append(observer)
    return observer


def remove_context_observer(observer: Callable[["SimContext"], None]) -> None:
    """Deregister; unknown observers are ignored."""
    try:
        _CONTEXT_OBSERVERS.remove(observer)
    except ValueError:
        pass


@runtime_checkable
class Component(Protocol):
    """Structural protocol for everything registered in a SimContext."""

    def attach(self, ctx: "SimContext") -> None: ...

    def reset(self) -> None: ...

    def stats(self) -> Dict[str, object]: ...

    def describe(self) -> Dict[str, object]: ...


_LIFECYCLE = ("attach", "reset", "stats", "describe")


def validate_component(obj: object) -> None:
    """Raise ``TypeError`` unless ``obj`` satisfies the protocol."""
    missing = [m for m in _LIFECYCLE if not callable(getattr(obj, m, None))]
    if missing:
        raise TypeError(
            f"{type(obj).__name__} is not a Component: missing {missing}"
        )


class ComponentAdapter:
    """Wrap an arbitrary object as a Component.

    Used for objects whose public surface conflicts with the lifecycle
    names (``XylemFileSystem.stats`` is a data attribute) or that
    predate the protocol.  The wrapped object stays reachable as
    ``adapter.target``.
    """

    def __init__(
        self,
        target: object,
        *,
        reset: Optional[Callable[[], None]] = None,
        stats: Optional[Callable[[], Dict[str, object]]] = None,
        describe: Optional[Callable[[], Dict[str, object]]] = None,
    ) -> None:
        self.target = target
        self._reset = reset
        self._stats = stats
        self._describe = describe

    def attach(self, ctx: "SimContext") -> None:
        attach = getattr(self.target, "attach", None)
        if callable(attach):
            attach(ctx)

    def reset(self) -> None:
        if self._reset is not None:
            self._reset()

    def stats(self) -> Dict[str, object]:
        return dict(self._stats()) if self._stats is not None else {}

    def describe(self) -> Dict[str, object]:
        return dict(self._describe()) if self._describe is not None else {}


class SimContext:
    """The shared substrate plus the component registry of one machine.

    >>> ctx = SimContext()
    >>> ctx.config.total_ces
    32
    """

    def __init__(
        self,
        config: CedarConfig = DEFAULT_CONFIG,
        engine: Optional[Engine] = None,
        bus: Optional[SignalBus] = None,
    ) -> None:
        self.config = config
        self.engine = engine if engine is not None else Engine()
        self.bus = bus if bus is not None else SignalBus()
        self._components: Dict[str, object] = {}
        for observer in tuple(_CONTEXT_OBSERVERS):
            observer(self)

    # -- registry --------------------------------------------------------------

    def add(self, name: str, component):
        """Register ``component`` under ``name`` and attach it.

        Returns the component, so assembly code can register and bind in
        one expression.
        """
        if name in self._components:
            raise ValueError(f"component {name!r} already registered")
        validate_component(component)
        self._components[name] = component
        component.attach(self)
        return component

    def component(self, name: str):
        try:
            return self._components[name]
        except KeyError:
            raise KeyError(
                f"no component {name!r}; have {sorted(self._components)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._components

    def components(self) -> Iterator[Tuple[str, object]]:
        """``(name, component)`` pairs in registration order."""
        return iter(self._components.items())

    def names(self):
        return list(self._components)

    # -- signals ---------------------------------------------------------------

    def signal(self, name: str, key=None) -> Signal:
        """Shorthand for ``ctx.bus.signal(name, key)``."""
        return self.bus.signal(name, key)

    # -- lifecycle fan-out -----------------------------------------------------

    def reset(self) -> None:
        """Fresh-machine state without re-assembly: the engine back at
        time zero with an empty queue, and every component reset, in
        registration order.  Signal subscriptions on the bus are
        preserved (monitors survive machine reuse)."""
        self.engine.reset()
        for component in self._components.values():
            component.reset()

    def stats(self) -> Dict[str, Dict[str, object]]:
        """Per-component counters: ``{component name: {counter: value}}``."""
        return {
            name: dict(component.stats())
            for name, component in self._components.items()
        }

    def describe(self) -> Dict[str, Dict[str, object]]:
        """Per-component structural summaries."""
        return {
            name: dict(component.describe())
            for name, component in self._components.items()
        }


# ---------------------------------------------------------------------------
# declarative network-variant registry (the ablation switchboard)

#: variant name -> builder(ctx, n_ports) -> (forward, reverse) networks.
NETWORK_VARIANTS: Dict[str, Callable] = {}


def register_variant(name: str):
    """Decorator registering a network-assembly variant by name."""

    def _register(builder: Callable):
        NETWORK_VARIANTS[name] = builder
        return builder

    return _register


def network_variant_for(config: CedarConfig) -> str:
    """Map a configuration to its assembly variant name."""
    net = config.network
    if net.shared_single_network and net.reply_escape:
        return "shared-escape"
    if net.shared_single_network:
        return "shared"
    return "dual"


def _make_network(ctx: SimContext, name: str, n_ports: int):
    from repro.network.omega import OmegaNetwork

    net = ctx.config.network
    return OmegaNetwork(
        ctx.engine,
        name=name,
        n_ports=n_ports,
        switch_radix=net.switch_radix,
        queue_words=net.queue_words,
        stage_cycles=net.stage_cycles,
        link_words_per_cycle=net.link_words_per_cycle,
        injection_queue_words=net.injection_queue_words,
    )


@register_variant("dual")
def _dual_networks(ctx: SimContext, n_ports: int):
    """Cedar's design: two physically separate unidirectional networks."""
    return _make_network(ctx, "fwd", n_ports), _make_network(ctx, "rev", n_ports)


@register_variant("shared")
def _shared_network(ctx: SimContext, n_ports: int):
    """Ablation: requests and replies contend on one fabric."""
    fwd = _make_network(ctx, "fwd", n_ports)
    return fwd, fwd


@register_variant("shared-escape")
def _shared_with_escape(ctx: SimContext, n_ports: int):
    """One fabric, but replies keep their own injection buffers: stage
    contention without the entry-point deadlock."""
    fwd = _make_network(ctx, "fwd", n_ports)
    return fwd, fwd.view_with_own_injection("rev")


def build_networks(ctx: SimContext, n_ports: int):
    """Build the (forward, reverse) pair for ``ctx.config``'s variant."""
    variant = network_variant_for(ctx.config)
    return NETWORK_VARIANTS[variant](ctx, n_ports)
