module Jsonl = Gg_obs.Jsonl

(* Perf-regression accounting over the committed BENCH_*.json baselines:
   parse two bench reports of the same suite and compare the meaningful
   throughput metrics scenario by scenario. Wall-clock numbers are
   noisy, so deltas only count beyond a caller-chosen noise threshold
   (fraction of the old value); half the threshold flags a warning. *)

type verdict = Same | Improve | Warn | Regress

type row = {
  key : string;  (* scenario / kernel / workload identifier *)
  metric : string;
  old_v : float;
  new_v : float;
  delta_frac : float;  (* (new - old) / old; positive = better here *)
  verdict : verdict;
}

let verdict_to_string = function
  | Same -> "ok"
  | Improve -> "improve"
  | Warn -> "WARN"
  | Regress -> "REGRESS"

let to_float = function
  | Some (Jsonl.Float f) -> f
  | Some (Jsonl.Int i) -> float_of_int i
  | _ -> Float.nan

let judge ~threshold delta =
  (* delta is the fractional change of a higher-is-better metric *)
  if Float.is_nan delta then Warn
  else if delta < -.threshold then Regress
  else if delta < -.(threshold /. 2.0) then Warn
  else if delta > threshold /. 2.0 then Improve
  else Same

(* Compare one higher-is-better metric of matching objects. *)
let metric_row ~threshold ~key ~metric old_j new_j =
  let o = to_float (Jsonl.member metric old_j) in
  let n = to_float (Jsonl.member metric new_j) in
  (* 0 -> 0 is no change (an abort rate staying at zero is fine);
     0 -> nonzero has no meaningful fraction and stays a WARN. *)
  let delta =
    if o = 0.0 then (if n = 0.0 then 0.0 else Float.nan)
    else (n -. o) /. o
  in
  { key; metric; old_v = o; new_v = n; delta_frac = delta;
    verdict = judge ~threshold delta }

let obj_list j key =
  match Jsonl.member key j with
  | Some (Jsonl.List l) -> l
  | _ -> []

let find_by field value l =
  List.find_opt (fun j -> Jsonl.to_str (Jsonl.member field j) = value) l

let find_by_int field value l =
  List.find_opt (fun j -> Jsonl.to_int ~default:min_int (Jsonl.member field j) = value) l

let missing_row ~key =
  {
    key;
    metric = "missing";
    old_v = Float.nan;
    new_v = Float.nan;
    delta_frac = Float.nan;
    verdict = Warn;
  }

(* ISSUE acceptance gate: tracing must stay within 5% of the untraced
   wall clock. Applied as an absolute ceiling on the new report, not a
   relative delta — a baseline that already crept up must not grandfather
   further creep. *)
let overhead_ceiling = 0.05

let diff_wallclock ~threshold old_j new_j =
  let olds = obj_list old_j "scenarios" and news = obj_list new_j "scenarios" in
  let metrics =
    [ "events_per_s"; "merged_records_per_s"; "batches_encoded_per_s" ]
  in
  let rows =
    List.concat_map
      (fun o ->
        let label = Jsonl.to_str (Jsonl.member "label" o) in
        match find_by "label" label news with
        | None -> [ missing_row ~key:label ]
        | Some n ->
          List.map (fun m -> metric_row ~threshold ~key:label ~metric:m o n) metrics)
      olds
  in
  let overhead =
    match (Jsonl.member "tracing_overhead" old_j, Jsonl.member "tracing_overhead" new_j) with
    | Some o, Some n ->
      let ov = to_float (Jsonl.member "overhead_frac" o) in
      let nv = to_float (Jsonl.member "overhead_frac" n) in
      [
        {
          key = "tracing";
          metric = "overhead_frac";
          old_v = ov;
          new_v = nv;
          delta_frac = nv -. ov;
          verdict =
            (if Float.is_nan nv || nv > overhead_ceiling then Regress else Same);
        };
      ]
    | _ -> []
  in
  rows @ overhead

let diff_merge ~threshold old_j new_j =
  let olds = obj_list old_j "kernels" and news = obj_list new_j "kernels" in
  List.map
    (fun o ->
      let jobs = Jsonl.to_int ~default:(-1) (Jsonl.member "jobs" o) in
      let key = Printf.sprintf "jobs=%d" jobs in
      match find_by_int "jobs" jobs news with
      | None -> missing_row ~key
      | Some n -> metric_row ~threshold ~key ~metric:"cold_records_per_s" o n)
    olds

(* Scale suite (BENCH_scale.json): per-(mode, replicas) points. tput is
   higher-is-better as usual; wan_kb_per_txn is the partial-replication
   acceptance metric and LOWER is better, so its delta is inverted
   before judging (the rendered delta still shows the raw change). *)
let diff_scale ~threshold old_j new_j =
  let olds = obj_list old_j "points" and news = obj_list new_j "points" in
  let find_point mode replicas l =
    List.find_opt
      (fun j ->
        Jsonl.to_str (Jsonl.member "mode" j) = mode
        && Jsonl.to_int ~default:min_int (Jsonl.member "replicas" j) = replicas)
      l
  in
  List.concat_map
    (fun o ->
      let mode = Jsonl.to_str (Jsonl.member "mode" o) in
      let replicas = Jsonl.to_int ~default:(-1) (Jsonl.member "replicas" o) in
      let key = Printf.sprintf "%s/n=%d" mode replicas in
      match find_point mode replicas news with
      | None -> [ missing_row ~key ]
      | Some n ->
        let tput = metric_row ~threshold ~key ~metric:"tput" o n in
        let wan = metric_row ~threshold ~key ~metric:"wan_kb_per_txn" o n in
        [ tput; { wan with verdict = judge ~threshold (-.wan.delta_frac) } ])
    olds

(* Skew suite (BENCH_skew.json): per-(workload, merge_level) points.
   tput is higher-is-better; abort_rate and wan_kb_per_txn are
   lower-is-better, so their deltas are inverted before judging (the
   rendered delta still shows the raw change). *)
let diff_skew ~threshold old_j new_j =
  let olds = obj_list old_j "points" and news = obj_list new_j "points" in
  let find_point workload level l =
    List.find_opt
      (fun j ->
        Jsonl.to_str (Jsonl.member "workload" j) = workload
        && Jsonl.to_str (Jsonl.member "merge_level" j) = level)
      l
  in
  List.concat_map
    (fun o ->
      let workload = Jsonl.to_str (Jsonl.member "workload" o) in
      let level = Jsonl.to_str (Jsonl.member "merge_level" o) in
      let key = Printf.sprintf "%s/%s" workload level in
      match find_point workload level news with
      | None -> [ missing_row ~key ]
      | Some n ->
        let tput = metric_row ~threshold ~key ~metric:"tput" o n in
        let abort = metric_row ~threshold ~key ~metric:"abort_rate" o n in
        let wan = metric_row ~threshold ~key ~metric:"wan_kb_per_txn" o n in
        [
          tput;
          { abort with verdict = judge ~threshold (-.abort.delta_frac) };
          { wan with verdict = judge ~threshold (-.wan.delta_frac) };
        ])
    olds

(* Fastpath suite (BENCH_fastpath.json): per-(engine, clock_skew_ms)
   points of the clock-assisted fast-path sweep. Latency percentiles
   (p50_ms, p95_ms) are LOWER-is-better, so their deltas are inverted
   before judging; tput stays higher-is-better. *)
let diff_fastpath ~threshold old_j new_j =
  let olds = obj_list old_j "points" and news = obj_list new_j "points" in
  let find_point engine skew l =
    List.find_opt
      (fun j ->
        Jsonl.to_str (Jsonl.member "engine" j) = engine
        && Jsonl.to_int ~default:min_int (Jsonl.member "clock_skew_ms" j)
           = skew)
      l
  in
  List.concat_map
    (fun o ->
      let engine = Jsonl.to_str (Jsonl.member "engine" o) in
      let skew = Jsonl.to_int ~default:(-1) (Jsonl.member "clock_skew_ms" o) in
      let key =
        if skew < 0 then engine else Printf.sprintf "%s/skew=%d" engine skew
      in
      match find_point engine skew news with
      | None -> [ missing_row ~key ]
      | Some n ->
        let lower metric =
          let r = metric_row ~threshold ~key ~metric o n in
          { r with verdict = judge ~threshold (-.r.delta_frac) }
        in
        [
          metric_row ~threshold ~key ~metric:"tput" o n;
          lower "p50_ms";
          lower "p95_ms";
        ])
    olds

(* Parallel-scaling numbers swing hard with host load; never gate on
   them, only surface the comparison. *)
let diff_parallel ~threshold old_j new_j =
  let olds = obj_list old_j "workloads" and news = obj_list new_j "workloads" in
  List.concat_map
    (fun o ->
      let wl = Jsonl.to_str (Jsonl.member "workload" o) in
      match find_by "workload" wl news with
      | None -> [ missing_row ~key:wl ]
      | Some n ->
        List.map
          (fun op ->
            let jobs = Jsonl.to_int ~default:(-1) (Jsonl.member "jobs" op) in
            let key = Printf.sprintf "%s/jobs=%d" wl jobs in
            match find_by_int "jobs" jobs (obj_list n "points") with
            | None -> missing_row ~key
            | Some np ->
              let r = metric_row ~threshold ~key ~metric:"speedup" op np in
              { r with verdict = (match r.verdict with Regress -> Warn | v -> v) })
          (obj_list o "points"))
    olds

let diff ?(threshold = 0.25) ~old_json ~new_json () =
  match (Jsonl.parse old_json, Jsonl.parse new_json) with
  | Error e, _ -> Error (Printf.sprintf "old report: %s" e)
  | _, Error e -> Error (Printf.sprintf "new report: %s" e)
  | Ok old_j, Ok new_j -> (
    let suite j = Jsonl.to_str (Jsonl.member "suite" j) in
    let os = suite old_j and ns = suite new_j in
    if os <> ns then
      Error (Printf.sprintf "suite mismatch: old=%S new=%S" os ns)
    else
      match os with
      | "wallclock" -> Ok (diff_wallclock ~threshold old_j new_j)
      | "merge" -> Ok (diff_merge ~threshold old_j new_j)
      | "parallel" -> Ok (diff_parallel ~threshold old_j new_j)
      | "scale" -> Ok (diff_scale ~threshold old_j new_j)
      | "skew" -> Ok (diff_skew ~threshold old_j new_j)
      | "fastpath" -> Ok (diff_fastpath ~threshold old_j new_j)
      | other -> Error (Printf.sprintf "unknown suite %S" other))

let diff_files ?threshold ~old_path ~new_path () =
  let read path =
    match open_in_bin path with
    | exception Sys_error msg -> Error msg
    | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Ok s
  in
  match (read old_path, read new_path) with
  | Error e, _ -> Error (Printf.sprintf "%s: %s" old_path e)
  | _, Error e -> Error (Printf.sprintf "%s: %s" new_path e)
  | Ok o, Ok n -> diff ?threshold ~old_json:o ~new_json:n ()

let has_regression rows = List.exists (fun r -> r.verdict = Regress) rows
let has_warning rows = List.exists (fun r -> r.verdict = Warn) rows

let render rows =
  let table =
    Gg_util.Tablefmt.create ~title:"Bench comparison (old -> new)"
      ~headers:[ "scenario"; "metric"; "old"; "new"; "delta"; "verdict" ]
  in
  List.iter
    (fun r ->
      let fmt v =
        if Float.is_nan v then "-"
        else if Float.abs v >= 1000.0 then Gg_util.Tablefmt.fmt_si v
        else Gg_util.Tablefmt.fmt_f ~dec:3 v
      in
      Gg_util.Tablefmt.add_row table
        [
          r.key;
          r.metric;
          fmt r.old_v;
          fmt r.new_v;
          (if Float.is_nan r.delta_frac then "-"
           else Printf.sprintf "%+.1f%%" (100.0 *. r.delta_frac));
          verdict_to_string r.verdict;
        ])
    rows;
  Gg_util.Tablefmt.render table
