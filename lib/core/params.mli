(** GeoGauss cluster configuration. *)

(** Isolation levels supported by the multi-master OCC (§4.3). [SSI] is
    the serializable-snapshot extension the paper sketches but does not
    ship (it requires exchanging each transaction's read keys, §4.3):
    write sets carry read-key sets and the per-epoch merge aborts pivot
    transactions (an incoming and an outgoing rw-antidependency within
    the epoch). *)
type isolation = RC | RR | SI | SSI

(** Execution variants benchmarked in the paper:
    - [Optimistic]: GeoGauss proper — asynchronous execution,
      synchronous per-epoch validation.
    - [Sync_exec]: GeoG-S — epoch i's transactions wait for snapshot
      (i-1) before executing.
    - [Async_merge]: GeoG-A — no epochs; CRDT merge on arrival, eventual
      consistency, no abort/commit semantics. *)
type variant = Optimistic | Sync_exec | Async_merge

(** Fault-tolerance options of §5.2, cheapest to most expensive. *)
type ft_mode =
  | Ft_none
  | Ft_local_backup  (** ~0.5 cross-region RTT before client notify *)
  | Ft_remote_backup  (** ~1 RTT *)
  | Ft_raft  (** write sets applied remotely only after majority ack, ~1.5 RTT *)

(** Partial-replication mode (DESIGN.md §12). [P_none] is classic
    GeoGauss full replication. [P_region] assigns one replica group per
    populated topology region; [P_hash k] hashes nodes into [k] groups
    (clamped to the node count). Keys hash onto groups; write-set
    dissemination is scoped to the groups a transaction touches, and
    cross-group transactions commit only when every touched group's
    merge validates them. *)
type partitioning = P_none | P_region | P_hash of int

(** Conflict-resolution granularity of the epoch merge (DESIGN.md §13).
    [Row] is the paper's last-write-wins over whole row images: one
    committed writer per row per epoch. [Column] resolves each written
    column independently (per-field LWW in the style of crdt-sqlite):
    concurrent updates of one live row all commit, each cell keeping the
    value of its winning writer; inserts and deletes still resolve at
    row granularity. *)
type merge_level = Row | Column

(** CPU / phase cost model, calibrated against the paper's Table 2
    per-phase breakdown. *)
type cost = {
  exec_op_us : int;  (** execution cost per key-level operation *)
  sql_stmt_us : int;  (** execution cost per SQL statement *)
  merge_record_us : int;  (** merge cost per write-set record *)
  merge_threads : int;
      (** merge-thread parallelism of the {e modeled} node: divides the
          simulated per-record merge cost. The host-side counterpart is
          {!t.merge_jobs} — [merge_jobs = 0] links the two by running
          [min host_cores merge_threads] real domains *)
  merge_base_us : int;  (** fixed per-epoch merge overhead *)
  notify_us : int;
      (** per blocked transaction thread, per epoch: the cost of the
          thread-blocking/notification machinery of §5.1 — the reason
          very short epochs hurt (Fig 8) *)
  log_fsync_us : int;  (** group-commit log flush *)
}

type t = {
  epoch_us : int;  (** epoch length, default 10 ms *)
  isolation : isolation;  (** default RC (the paper's default) *)
  variant : variant;
  ft : ft_mode;
  cores : int;  (** vCPUs per node, default 32 *)
  pipeline : bool;  (** ship write sets in mini-batches (§5.1) *)
  seed : int;
  cost : cost;
  membership_timeout_us : int;  (** failure-detection timeout, 500 ms *)
  client_retry_us : int;  (** client resubmission timeout after node failure *)
  repair_after_us : int;
      (** how long a node lets the next merge stall before re-fetching
          missing peer batches from their backup servers (§5.2 repair —
          what makes epochs survive message loss), 250 ms *)
  merge_jobs : int;
      (** {e host} domains the intra-node merge shards across
          (DESIGN.md §10). Purely a wall-clock knob: the merged state,
          commit/abort decisions, wire bytes and simulated timings are
          byte-identical at any value. [1] (default) is the sequential
          path; [0] = auto, [min (host cores) cost.merge_threads] — the
          modeled node runs [cost.merge_threads] merge threads
          ({!cost}), and auto gives it as many real domains as this
          host can back. Widths round down to a power of two dividing
          {!Gg_storage.Table.temp_shard_count}. *)
  merge_par_threshold : int;
      (** minimum records in an epoch before the merge fans out
          (domain spawn costs ~tens of µs; tiny epochs stay
          sequential). Default 4096; [0] forces sharding on (tests). *)
  partitioning : partitioning;
      (** partial-replication mode, default [P_none] (full replication;
          byte-identical to the pre-partitioning engine) *)
  merge_level : merge_level;
      (** conflict-resolution granularity, default [Row] (byte-identical
          to the pre-column engine: no column masks are captured and the
          wire stream never carries the masked-update record form) *)
  fastpath : bool;
      (** the eocc clock-assisted fast path (DESIGN.md §14): cut epochs
          on bounded-skew local clocks, timestamp transactions from
          them, and group-commit each node's local write sets to the WAL
          when their epoch seals, so the commit path charges only the
          unfinished part of that fsync. Default [false] (byte-identical
          to the classic engine: no {!Gg_sim.Clock} reads happen at
          all) *)
  clock_skew_us : int;
      (** bound on per-node clock error when [fastpath] is on (offset +
          drift + injected steps are clamped to ±this), default 5 ms.
          [0] = perfectly synchronized clocks *)
}

val default_cost : cost
val default : t

val with_epoch_ms : t -> int -> t
val with_isolation : t -> isolation -> t
val with_variant : t -> variant -> t
val with_ft : t -> ft_mode -> t

val with_fastpath : t -> bool -> t
(** Enabling the fast path coerces [variant] to [Optimistic] — the fast
    path only refines the classic epoch merge pipeline.
    Disabling leaves the variant alone. *)

val with_clock_skew_us : t -> int -> t
(** Clamped to >= 0. *)

val isolation_to_string : isolation -> string
val variant_to_string : variant -> string
val ft_to_string : ft_mode -> string

val partitioning_to_string : partitioning -> string
(** ["none"], ["region"] or ["hash:<k>"]. *)

val partitioning_of_string : string -> (partitioning, string) result
(** Inverse of {!partitioning_to_string}; [Error] carries a usage hint. *)

val merge_level_to_string : merge_level -> string
(** ["row"] or ["column"]. *)

val merge_level_of_string : string -> (merge_level, string) result
(** Inverse of {!merge_level_to_string}; [Error] carries a usage hint. *)

val effective_merge_level : t -> merge_level
(** The level the engine actually runs: [Column] only under the
    epoch-based variants with full replication. GeoG-A applies whole
    rows on gossip arrival and the partial-replication write-back
    re-applies row fragments, so both coerce to [Row]. *)
