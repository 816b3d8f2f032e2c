type isolation = RC | RR | SI | SSI

type variant = Optimistic | Sync_exec | Async_merge

type ft_mode = Ft_none | Ft_local_backup | Ft_remote_backup | Ft_raft

type partitioning = P_none | P_region | P_hash of int

type merge_level = Row | Column

type cost = {
  exec_op_us : int;
  sql_stmt_us : int;
  merge_record_us : int;
  merge_threads : int;
  merge_base_us : int;
  notify_us : int;
  log_fsync_us : int;
}

type t = {
  epoch_us : int;
  isolation : isolation;
  variant : variant;
  ft : ft_mode;
  cores : int;
  pipeline : bool;
  seed : int;
  cost : cost;
  membership_timeout_us : int;
  client_retry_us : int;
  repair_after_us : int;
  merge_jobs : int;
  merge_par_threshold : int;
  partitioning : partitioning;
  merge_level : merge_level;
  fastpath : bool;
  clock_skew_us : int;
}

let default_cost =
  {
    exec_op_us = 150;
    sql_stmt_us = 400;
    merge_record_us = 6;
    merge_threads = 8;
    merge_base_us = 200;
    notify_us = 1;
    log_fsync_us = 3_000;
  }

let default =
  {
    epoch_us = 10_000;
    isolation = RC;
    variant = Optimistic;
    ft = Ft_local_backup;
    cores = 32;
    pipeline = true;
    seed = 42;
    cost = default_cost;
    membership_timeout_us = 500_000;
    client_retry_us = 2_000_000;
    repair_after_us = 250_000;
    merge_jobs = 1;
    merge_par_threshold = 4_096;
    partitioning = P_none;
    merge_level = Row;
    fastpath = false;
    clock_skew_us = 5_000;
  }

let with_epoch_ms t ms = { t with epoch_us = ms * 1_000 }
let with_isolation t isolation = { t with isolation }
let with_variant t variant = { t with variant }
let with_ft t ft = { t with ft }

(* The fast path is a refinement of the Optimistic merge pipeline: a
   local-clock epoch grid and a WAL prelog at seal have no meaning for
   GeoG-S (execution already waits on the previous snapshot) or GeoG-A
   (no epochs at all), so enabling it coerces the variant. *)
let with_fastpath t on =
  if on then { t with fastpath = true; variant = Optimistic }
  else { t with fastpath = false }

let with_clock_skew_us t clock_skew_us =
  { t with clock_skew_us = max 0 clock_skew_us }

let isolation_to_string = function
  | RC -> "RC"
  | RR -> "RR"
  | SI -> "SI"
  | SSI -> "SSI"

let variant_to_string = function
  | Optimistic -> "GeoGauss"
  | Sync_exec -> "GeoG-S"
  | Async_merge -> "GeoG-A"

let ft_to_string = function
  | Ft_none -> "none"
  | Ft_local_backup -> "local-backup"
  | Ft_remote_backup -> "remote-backup"
  | Ft_raft -> "raft"

let partitioning_to_string = function
  | P_none -> "none"
  | P_region -> "region"
  | P_hash k -> Printf.sprintf "hash:%d" k

let partitioning_of_string s =
  match s with
  | "none" -> Ok P_none
  | "region" -> Ok P_region
  | _ -> (
    match String.index_opt s ':' with
    | Some i
      when String.sub s 0 i = "hash"
           && i + 1 < String.length s -> (
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some k when k >= 1 -> Ok (P_hash k)
      | _ -> Error (Printf.sprintf "bad group count in %S (want hash:<k>, k >= 1)" s))
    | _ ->
      Error
        (Printf.sprintf "unknown partitioning %S (expected none, region or hash:<k>)" s))

let merge_level_to_string = function Row -> "row" | Column -> "column"

let merge_level_of_string = function
  | "row" -> Ok Row
  | "column" -> Ok Column
  | s -> Error (Printf.sprintf "unknown merge level %S (expected row or column)" s)

(* Column-level merge only exists inside the epoch-scoped kernel:
   GeoG-A's gossip applies whole rows on arrival (no per-epoch candidate
   set to resolve cells over), and the partial-replication write-back
   re-applies row fragments against header ownership. Both fall back to
   the row lattice rather than silently mis-merging. *)
let effective_merge_level t =
  match (t.variant, t.partitioning) with
  | Async_merge, _ -> Row
  | _, (P_region | P_hash _) -> Row
  | _, P_none -> t.merge_level
