(** Per-node transaction metrics: counts, latency histograms, per-phase
    breakdown (Table 2) and per-epoch series (Fig 6). *)

type epoch_cell = { mutable committed : int; latency : Gg_util.Stats.Acc.t }

type t

val create : ?obs:Gg_obs.Obs.t -> ?id:int -> unit -> t
(** With [?obs], counts and latency histograms live in the registry
    under ["node<id>.txn.*"] / ["node<id>.merge.records"] names (so
    {!Gg_obs.Obs.reset_all} zeroes them and JSONL snapshots include
    them); without it they are standalone instruments with identical
    behaviour. *)

val record_start : t -> unit
val record_outcome : t -> Txn.outcome -> unit

val record_phases : t -> Txn.phases -> unit
(** Call for committed transactions only (matches the paper's Table 2,
    which breaks down successfully committed transactions). *)

val record_epoch_commit : t -> cen:int -> latency_us:int -> unit

val record_merged_records : t -> int -> unit
(** Add [n] to the count of write-set records pushed through the merge
    loop (DeltaCRDTMerge phase A), duplicates included. *)

val merged_records : t -> int

val started : t -> int
val committed : t -> int
val aborted : t -> int
val aborted_by : t -> Txn.abort_reason -> int
(** Counts by reason constructor ([Constraint_violation _] pools
    together). *)

val latency : t -> Gg_util.Stats.Hist.t
(** All finished transactions. *)

val commit_latency : t -> Gg_util.Stats.Hist.t

val phase_means_us : t -> float * float * float * float * float
(** (parse, exec, wait, merge, log) means over committed txns. *)

val epoch_cells : t -> (int * epoch_cell) list
(** Sorted by epoch. *)

val reset : t -> unit
(** Clear everything (end of warm-up). *)
