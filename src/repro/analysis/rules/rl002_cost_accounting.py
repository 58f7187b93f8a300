"""RL002 cost-accounting — all traffic rides the Machine's charged API.

The simulator's core promise (DESIGN.md, PR 4's no-drift contract) is
that *every* byte on the wire and every elementary operation is charged
through :class:`repro.machine.machine.Machine`, so ``verify_against_
trace`` can prove the metrics equal the phase breakdowns.  Direct
mailbox or frame access outside the machine layer breaks that promise
twice over: the bytes move without a ``T_Startup + m·T_Data`` charge,
and (since PR 1) they skip the reliable-delivery protocol's checksum
verification.

Outside the exempt transport layers (``machine/``, whose rank map also
owns the recovery ghost slots, and ``faults/``) the rule flags:

* ``….mailbox`` / ``….host_mailbox`` attribute access — raw frame queues;
* ``….deliver(…)`` calls — injecting frames without a send charge;
* ``….procs[…]`` subscripts — reaching around :meth:`Machine.processor`;
* ``Processor(…)`` construction — private simulator internals;
* ``….receive(…)`` on a processor object (a name bound from
  ``machine.processor(…)`` / ``machine.procs[…]``, or the chained call
  ``machine.processor(r).receive(…)``) — the uncharged, checksum-blind
  receive; :meth:`Machine.receive` is the verified path.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..diagnostics import Diagnostic
from ..engine import FileContext, Rule, dotted_name, register_rule

__all__ = ["CostAccountingRule"]

_FORBIDDEN_ATTRS = {"mailbox", "host_mailbox"}


def _processor_bound_names(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> set[str]:
    """Names assigned from ``….processor(…)`` / ``….procs[…]`` locally."""
    bound: set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        is_proc = (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "processor"
        ) or (
            isinstance(value, ast.Subscript)
            and isinstance(value.value, ast.Attribute)
            and value.value.attr == "procs"
        )
        if is_proc:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
    return bound


@register_rule
class CostAccountingRule(Rule):
    """No direct mailbox/transport access outside the machine layer."""

    code = "RL002"
    name = "cost-accounting"
    summary = (
        "sends and receives must flow through Machine's charged, "
        "checksum-verified API; no raw mailbox/frame access"
    )
    protects = (
        "Section 4 cost accounting + PR 1 reliable delivery + PR 4 "
        "metrics==trace no-drift contract"
    )

    def applies(self, ctx: FileContext) -> bool:
        return ctx.matches(ctx.config.transport_scope) and not ctx.matches(
            ctx.config.transport_exempt
        )

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        yield from self._check(ctx)

    def _check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        # per-function dataflow: names bound to Processor objects
        proc_names: set[str] = set()
        for node in ctx.walk():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                proc_names |= _processor_bound_names(node)
        for node in ctx.walk():
            if isinstance(node, ast.Attribute):
                if node.attr in _FORBIDDEN_ATTRS:
                    yield self.diag(
                        ctx,
                        node,
                        f"direct .{node.attr} access outside the machine "
                        "layer moves bytes without charging the cost model",
                        hint="use machine.send/send_to_host and "
                        "machine.receive/host_receive (charged + "
                        "checksum-verified)",
                    )
            elif isinstance(node, ast.Subscript) and (
                isinstance(node.value, ast.Attribute)
                and node.value.attr == "procs"
            ):
                yield self.diag(
                    ctx,
                    node,
                    "indexing .procs[...] reaches around "
                    "Machine.processor()'s liveness guard",
                    hint="call machine.processor(rank) — it checks the "
                    "rank is in range and alive",
                )
            elif isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "deliver"
                ):
                    yield self.diag(
                        ctx,
                        node,
                        ".deliver() injects a frame without a send charge "
                        "or a checksum",
                        hint="send through machine.send(...) so the cost "
                        "model and reliable delivery both see the frame",
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "receive"
                    and self._is_processor_receive(node.func, proc_names)
                ):
                    yield self.diag(
                        ctx,
                        node,
                        "Processor.receive() bypasses Machine.receive()'s "
                        "checksum verification and liveness guard",
                        hint="use machine.receive(rank, tag, phase=...) — "
                        "identical fault-free, checksum-verified under "
                        "fault injection",
                    )
                elif dotted == "Processor":
                    yield self.diag(
                        ctx,
                        node,
                        "constructing Processor() outside the machine "
                        "layer builds an unaccounted transport endpoint",
                        hint="let Machine own its processors; talk to them "
                        "via machine.processor(rank)",
                    )

    @staticmethod
    def _is_processor_receive(
        func: ast.Attribute, proc_names: set[str]
    ) -> bool:
        """``proc.receive(…)`` / ``machine.processor(r).receive(…)``?"""
        base = func.value
        if isinstance(base, ast.Name):
            return base.id in proc_names
        if isinstance(base, ast.Call) and isinstance(
            base.func, ast.Attribute
        ):
            return base.func.attr == "processor"
        if isinstance(base, ast.Subscript) and isinstance(
            base.value, ast.Attribute
        ):
            return base.value.attr == "procs"
        return False
