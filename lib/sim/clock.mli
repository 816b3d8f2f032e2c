(** Bounded-skew simulated clocks (the eocc fast path's local epoch
    grid, DESIGN.md §14).

    Each node owns a local clock [read = sim_time + offset(node, t)]
    whose offset is a per-node base error plus linear drift, drawn
    deterministically from the seed and clamped to a configured bound —
    the guarantee an external time service (NTP/PTP) provides.
    Skew-burst fault schedules inject additional steps at run time
    ({!inject_step}); the clamp still holds, so the bound is an
    invariant, not a typical value. *)

type t

val create : seed:int -> topology:Topology.t -> bound_us:int -> t
(** [bound_us = 0] gives perfectly synchronized clocks (every read is
    sim time). *)

val bound_us : t -> int

val offset_us : t -> node:int -> at:int -> int
(** Clock error of [node] at sim time [at]; always in
    [[-bound_us, bound_us]]. *)

val read : t -> node:int -> at:int -> int
(** The node's local clock: [at + offset_us]. *)

val inject_step : t -> node:int -> delta_us:int -> unit
(** Skew burst: shift the node's offset by [delta_us] from now on (the
    total offset stays clamped to the bound). Fault schedules use this
    to move a node's epoch boundaries mid-run. *)
