"""Packet kinds and helpers for the global-space runtime protocol.

Four exchanges, all identity-oriented:

* **fetch** — move a whole object image (byte-level copy) to a node;
* **read** — demand-read a byte range of a remote object (the §3.1
  "move data on demand instead of having to move the entire object");
* **write** — demand-write a byte range of a remote object;
* **exec** — ask a node to run a code object against argument refs and
  deliver the (small, by-value) result.

An exec request is one :class:`ExecRequest`: the invoker builds it once
per attempt and either runs it locally or ships it in the exec packet,
so both placements see exactly the same request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..core.objectid import ObjectID
from ..core.proxies import PrefetchBudget
from ..core.refs import GlobalRef

KIND_FETCH_REQ = "gs.fetch_req"
KIND_FETCH_RSP = "gs.fetch_rsp"
KIND_FETCH_NACK = "gs.fetch_nack"
KIND_READ_REQ = "gs.read_req"
KIND_READ_RSP = "gs.read_rsp"
KIND_WRITE_REQ = "gs.write_req"
KIND_WRITE_RSP = "gs.write_rsp"
KIND_EXEC_REQ = "gs.exec_req"
KIND_EXEC_RSP = "gs.exec_rsp"

# Modelled header overheads (bytes) for each message family.
FETCH_REQ_BYTES = 24
READ_REQ_BYTES = 32
EXEC_REQ_OVERHEAD_BYTES = 48
RSP_OVERHEAD_BYTES = 24

MODE_EAGER = "eager"      # stage every input object at the executor up front
MODE_LAZY = "lazy"        # stage only the code; data moves on demand
MODE_PROXIED = "proxied"  # stage only the code; bind args as lazy proxies
                          # (optionally covered by a reachability prefetch)
MODE_ISOLATED = "isolated"  # eager staging + up-front object-set
                            # reservation and ownership claim: execute
                            # with no interleaved invalidation
MODES = (MODE_EAGER, MODE_LAZY, MODE_PROXIED, MODE_ISOLATED)

PRIORITY_NORMAL = "normal"
PRIORITY_HIGH = "high"
PRIORITIES = (PRIORITY_NORMAL, PRIORITY_HIGH)


@dataclass(frozen=True)
class ExecRequest:
    """One invocation attempt as the executor sees it.

    ``stage`` lists the objects to pull to the executor before running
    (the code object, plus the inputs it does not hold in the eager
    modes); ``refs`` and ``values`` are the reference and by-value
    arguments; ``compute_us`` is the placement's compute estimate.  See
    :meth:`GlobalSpaceRuntime.invoke` for ``decode_args``,
    ``materialize``, ``mode``, ``prefetch`` and ``priority``.
    """

    code: ObjectID
    stage: Tuple[ObjectID, ...]
    refs: Dict[str, GlobalRef]
    values: Dict[str, Any]
    compute_us: float
    result_bytes: int
    decode_args: Tuple[str, ...] = ()
    materialize: bool = False
    mode: str = MODE_EAGER
    prefetch: Optional[PrefetchBudget] = None
    priority: str = PRIORITY_NORMAL
