(** One function per table/figure of the paper's evaluation (§7). Each
    runs the relevant simulated-cluster experiments and prints
    paper-style tables to stdout.

    [fast] shrinks populations and measurement windows (used by tests
    and smoke runs); shapes remain, absolute numbers get noisier.

    [pool] fans the independent grid points of a figure (one cluster
    simulation each) out over a {!Gg_par.Pool} of domains. Results are
    collected in submission order and each simulation is fully
    self-contained, so the printed tables are byte-identical at every
    pool width; the default is sequential. *)

type setting = {
  ycsb_records : int;
  ycsb_connections : int;
  tpcc_cfg : Gg_workload.Tpcc.config;
  tpcc_connections : int;
  warmup_ms : int;
  measure_ms : int;
}
(** Knobs shared by all experiments. Exposed (with {!tables}) so tests
    can run tiny grids and byte-compare the rendered figure data across
    pool widths. *)

val setting : fast:bool -> setting
(** The standard settings used by the [figN] runners. *)

val tables :
  ?pool:Gg_par.Pool.t ->
  ?json_out:string ->
  setting:setting ->
  fast:bool ->
  string ->
  string list option
(** [tables ?pool ?json_out ~setting ~fast name] runs experiment [name]
    and returns its rendered tables instead of printing them; [None] if
    the name is unknown. [fast] here only picks grid sizes (sweep
    points, epoch rows) — population/window knobs come from [setting].
    [json_out] overrides where [fig_scale], [fig_skew] and
    [fig_fastpath] write their [BENCH_*.json] (default: that file in the
    current directory); the other experiments write no JSON. *)

val fig5 : ?fast:bool -> ?pool:Gg_par.Pool.t -> unit -> unit
(** Cross-system throughput/latency comparison on YCSB-RO/MC/HC and
    TPC-C. *)

val table2 : ?fast:bool -> ?pool:Gg_par.Pool.t -> unit -> unit
(** Per-phase runtime breakdown of a committed TPC-C transaction for
    GeoG-S / GeoG-A / GeoGauss. *)

val fig6 : ?fast:bool -> ?pool:Gg_par.Pool.t -> unit -> unit
(** Per-epoch committed transactions and latency, GeoGauss vs GeoG-S
    (TPC-C). *)

val fig7 : ?fast:bool -> ?pool:Gg_par.Pool.t -> unit -> unit
(** Throughput slowdown vs fraction of long transactions (20 ms and
    100 ms injected delays). *)

val table3 : ?fast:bool -> ?pool:Gg_par.Pool.t -> unit -> unit
(** Average compressed WAN traffic per transaction, GeoGauss vs
    Calvin. *)

val fig8 : ?fast:bool -> ?pool:Gg_par.Pool.t -> unit -> unit
(** Effect of epoch length (1–200 ms). *)

val fig9 : ?fast:bool -> ?pool:Gg_par.Pool.t -> unit -> unit
(** Effect of isolation level (RC / RR / SI). *)

val fig10 : ?fast:bool -> ?pool:Gg_par.Pool.t -> unit -> unit
(** Effect of contention (Zipf theta sweep). *)

val fig11 : ?fast:bool -> ?pool:Gg_par.Pool.t -> unit -> unit
(** Scalability: 3–15 replicas (China) and 3–25 replicas (worldwide). *)

val fig12 : ?fast:bool -> ?pool:Gg_par.Pool.t -> unit -> unit
(** Fault-tolerance modes: GeoG-LB / GeoG-RB / GeoG-Raft vs Calvin-Raft
    / Aria-Raft. *)

val fig13 : ?fast:bool -> ?pool:Gg_par.Pool.t -> unit -> unit
(** Throughput/latency timeline across a node crash and recovery. A
    single timeline simulation: runs sequentially at any pool width. *)

val ablations : ?fast:bool -> ?pool:Gg_par.Pool.t -> unit -> unit
(** Not a paper figure: ablations of the §5.1 design choices
    (pipelining, merge parallelism, write-set size). *)

val fig_scale : ?fast:bool -> ?pool:Gg_par.Pool.t -> unit -> unit
(** Not a paper figure: partial-replication scalability sweep, 25–200
    worldwide replicas under [--partitioning none|region|hash:4]
    (DESIGN.md §12). Also writes [BENCH_scale.json] for
    [geogauss bench diff]. *)

val fig_skew : ?fast:bool -> ?pool:Gg_par.Pool.t -> unit -> unit
(** Not a paper figure: the write-skewed workloads (hotkey, social) at
    both merge granularities ([--merge-level row|column], DESIGN.md
    §13). Column-level merge must abort strictly less on both; warns on
    stderr otherwise. Also writes [BENCH_skew.json] for
    [geogauss bench diff]. *)

val fig_fastpath : ?fast:bool -> ?pool:Gg_par.Pool.t -> unit -> unit
(** Not a paper figure: the clock-assisted fast-path sweep ([--engine
    eocc], DESIGN.md §14) — tput and p50/p95 across clock-skew bounds
    0–50 ms on the fig5 topology, against the skew-independent GeoGauss
    baseline. eocc p50 must beat GeoGauss at bounds <= 10 ms; warns on
    stderr otherwise. Also writes [BENCH_fastpath.json] for
    [geogauss bench diff] (p50/p95 gate lower-is-better). *)

val names : string list
(** Canonical experiment names, in paper order (plus the ablations and
    the partial-replication sweep). [tables], [all] and the
    unknown-name error all derive from this one list. *)

val make_runner : string -> ?fast:bool -> ?pool:Gg_par.Pool.t -> unit -> unit
(** Runner for one experiment name. An unknown name raises
    [Invalid_argument] listing {!names} — callers passing free-form
    names (the CLI, tests) get a real error, never an assert. *)

val all : (string * (?fast:bool -> ?pool:Gg_par.Pool.t -> unit -> unit)) list
(** Experiment registry: [(name, runner)] for every entry of {!names}. *)

val run :
  ?fast:bool -> ?pool:Gg_par.Pool.t -> ?json_out:string -> string -> bool
(** Run one experiment by name ("fig5", "table2", …); false if
    unknown. [json_out] as in {!tables}. ({!make_runner} raises
    [Invalid_argument] — listing the known names — on a name outside the
    registry; [run] itself reports unknown names via its return
    value.) *)
