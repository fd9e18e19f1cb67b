"""Plan / Step / Router — the JesterJ user-extension surface, Ray-Data-first.

Reference API being re-expressed (SURVEY.md §2.0):
- ``DocumentProcessor.processDocument(Document) -> Document[]``
  (``ingest/model/DocumentProcessor.java:21-47``) with effect flags
  isSafe / isIdempotent / isPotent (``:55-82``)
- ``StepImpl.Builder`` ``.named/.batchSize/.withProcessor/.routingBy``
  (``ingest/model/impl/StepImpl.java:766-847``)
- ``PlanImpl.Builder.addStep(step, ...predecessors)`` building an immutable
  DAG and rejecting cycles (``ingest/model/impl/PlanImpl.java:310-380``,
  ``CyclicGraphException``)
- Routers: ``DuplicateToAll``, ``RouteByStepName``, ``RoundRobinRouter``
  (``ingest/routers/``)

Ray mapping: a processor is a vectorized batch callable
``(pa.Table) -> pa.Table`` (or a callable CLASS for stateful actor-pool
stages); a Step wraps one processor with its batch/concurrency config; a
Plan is a DAG of Steps compiled onto a ``ray.data.Dataset`` as chained
``map_batches``.  Routing:

- DuplicateToAll  -> every successor consumes the same parent dataset
  (blocks are immutable; no copy, unlike the reference's serialize/
  deserialize deep clone, ``ingest/model/NextSteps.java:22-50``)
- RouteByValue    -> per-branch vectorized filter (the RouteByStepName
  analog: a column value selects the branch; unmatched rows are DROPPED,
  ``ingest/routers/RouteByStepName.java:58-76``)
- RoundRobin      -> intentionally ABSENT: Ray Data's streaming executor
  load-balances blocks natively (``RoundRobinRouter.java`` exists only to
  fan work over parallel sender steps)

Effect flags survive as ``potent=True`` on sink steps: a potent step must
be idempotent-by-construction (atomic rename, content-addressed names)
because Ray retries tasks (the reference instead guarantees at-most-once
delivery via FTI skip, ``StepImpl.java:638-647``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

import pyarrow as pa

import ray.data

from .. import pool_size


class CyclicPlanError(ValueError):
    """Analog of the reference's CyclicGraphException (PlanImpl.java:357-359)."""


@dataclass
class Step:
    """One processing step: a batch transform plus its execution config."""
    name: str
    processor: Union[Callable, type]
    batch_size: Optional[int] = None        # reference default queue cap is 50;
                                            # None lets Ray pick the block batch
    batch_format: str = "pyarrow"
    concurrency: Optional[Any] = None       # int or (min,max) -> actor pool
    num_cpus: Optional[float] = None
    fn_kwargs: Dict[str, Any] = field(default_factory=dict)
    fn_constructor_kwargs: Dict[str, Any] = field(default_factory=dict)
    route_when: Optional[pa.compute.Expression] = None  # branch filter predicate
    potent: bool = False                    # external-effect sink (must be
                                            # idempotent-by-construction)

    def apply(self, ds: "ray.data.Dataset") -> "ray.data.Dataset":
        if self.route_when is not None:
            ds = ds.filter(expr=self.route_when) if isinstance(self.route_when, str) \
                else ds.map_batches(
                    lambda t, e=self.route_when: t.filter(e),
                    batch_format="pyarrow")
        kwargs: Dict[str, Any] = {"batch_format": self.batch_format}
        if self.batch_size is not None:
            kwargs["batch_size"] = self.batch_size
        if self.num_cpus is not None:
            kwargs["num_cpus"] = self.num_cpus
        if isinstance(self.processor, type):
            c = self.concurrency or 2  # a (min, max) pool stays as given
            kwargs["concurrency"] = pool_size(c) if type(c) is int else c
            if self.fn_constructor_kwargs:
                kwargs["fn_constructor_kwargs"] = self.fn_constructor_kwargs
            if self.fn_kwargs:
                kwargs["fn_kwargs"] = self.fn_kwargs
            return ds.map_batches(self.processor, **kwargs)
        if self.fn_kwargs:
            kwargs["fn_kwargs"] = self.fn_kwargs
        if self.concurrency is not None:
            kwargs["concurrency"] = self.concurrency
        return ds.map_batches(self.processor, **kwargs)


class Plan:
    """An immutable DAG of Steps, built via :class:`PlanBuilder`.

    ``execute(source)`` compiles every root-to-leaf chain onto the source
    dataset and returns {leaf_step_name: Dataset}.  A step with multiple
    successors is a DuplicateToAll branch point: each successor chain
    derives from the same (lazy) upstream dataset.
    """

    def __init__(self, steps: Dict[str, Step], edges: Dict[str, List[str]],
                 name: str = "plan"):
        self.name = name
        self.steps = steps
        self.edges = edges          # predecessor -> successors
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        state: Dict[str, int] = {}

        def visit(n: str) -> None:
            if state.get(n) == 1:
                raise CyclicPlanError(f"cycle through step '{n}'")
            if state.get(n) == 2:
                return
            state[n] = 1
            for s in self.edges.get(n, []):
                visit(s)
            state[n] = 2

        for n in self.steps:
            visit(n)

    def roots(self) -> List[str]:
        has_pred = {s for succs in self.edges.values() for s in succs}
        return [n for n in self.steps if n not in has_pred]

    def leaves(self) -> List[str]:
        return [n for n in self.steps if not self.edges.get(n)]

    def execute(self, source: "ray.data.Dataset", *,
                dropped_dir: Optional[str] = None,
                id_field: str = "doc_id") -> Dict[str, "ray.data.Dataset"]:
        """Compile the DAG onto ``source``.

        ``dropped_dir`` opts into the reference's RouterBase
        excluded-destination bookkeeping
        (``RouterBase.updateExcludedDestinations``): for every branch step
        whose ``route_when`` excludes rows, the excluded rows are recorded
        as (doc_id, destination=<step>, status=DROPPED) parquet under
        ``dropped_dir`` — one potent sink per branch, content-addressed
        filenames so Ray task retries overwrite idempotently."""
        results: Dict[str, "ray.data.Dataset"] = {}

        def record_dropped(name: str, upstream: "ray.data.Dataset",
                           expr) -> None:
            from ..stages.senders import StatusSink
            if isinstance(expr, str):
                return  # string predicates are not invertible here
            excluded = upstream.map_batches(
                lambda t, e=expr: t.filter(pa.compute.invert(e))
                if not isinstance(e, pa.compute.Expression)
                else t.filter(~e),
                batch_format="pyarrow")
            excluded.map_batches(
                StatusSink, fn_constructor_kwargs={
                    "out_dir": dropped_dir, "destination": name,
                    "status": "DROPPED", "id_field": id_field},
                batch_format="pyarrow", concurrency=1).materialize()

        def run_chain(name: str, upstream: "ray.data.Dataset") -> None:
            step = self.steps[name]
            if dropped_dir is not None and step.route_when is not None:
                record_dropped(name, upstream, step.route_when)
            ds = step.apply(upstream)
            succs = self.edges.get(name, [])
            if not succs:
                results[name] = ds
            else:
                for s in succs:
                    run_chain(s, ds)

        for r in self.roots():
            run_chain(r, source)
        return results


class PlanBuilder:
    """``PlanImpl.Builder`` analog: ``add_step(step, *predecessors)``."""

    def __init__(self, name: str = "plan"):
        self.name = name
        self._steps: Dict[str, Step] = {}
        self._edges: Dict[str, List[str]] = {}

    def add_step(self, step: Step, *predecessors: str) -> "PlanBuilder":
        if step.name in self._steps:
            raise ValueError(f"duplicate step name '{step.name}'")
        for p in predecessors:
            if p not in self._steps:
                raise ValueError(f"unknown predecessor '{p}'")
        self._steps[step.name] = step
        self._edges.setdefault(step.name, [])
        for p in predecessors:
            self._edges[p].append(step.name)
        return self

    def build(self) -> Plan:
        return Plan(dict(self._steps), dict(self._edges), self.name)
