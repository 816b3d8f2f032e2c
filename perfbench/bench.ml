(* The repository benchmark: four seeded workloads through a whole
   simulated GeoGauss cluster, driven only through the public API
   (Cluster, Client, Driver, the Gg_workload generators).

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--warmup-ms MS] [--window-ms MS]

   --trace 0 prints the end-to-end metrics. It repeats the workload's
   simulation until --seconds wall seconds have passed (at least three
   times), timing batches of set-ups between the repeats. Host
   throughput is the median over the repeats and set-up time the fastest
   batch, both in the process's CPU seconds (see [cpu_s]); simulated
   metrics come from the first repeat, which every other repeat must
   match exactly.

   --trace 1 prints the per-layer metrics. It alternates untraced runs
   with runs that have Obs tracing on, then runs the simulation once
   with the generator closures wrapped and committed write sets captured
   through [Cluster.on_commit], and replays the captured inputs through
   each layer's public function with a CPU timer and allocation
   counters around the calls. No tracing is added inside the program;
   the layers are timed from outside.

   The correctness gate (exit 1, no result line): after every run the
   clients stop, [Cluster.quiesce] settles in-flight epochs, and the live
   replicas of each replica group must report one digest; every repeat of
   one seed must reproduce the same simulated counts, and so must the
   Obs-traced and bench-traced runs.

   The simulator runs on one domain: no harness pool is used and
   [Params.merge_jobs] is pinned to 1. The last stdout line is the JSON
   result; every other line is a human-readable report. *)

module Sim = Gg_sim.Sim
module Net = Gg_sim.Net
module Topology = Gg_sim.Topology
module Event_queue = Gg_sim.Event_queue
module Obs = Gg_obs.Obs
module Hist = Gg_util.Stats.Hist
module Codec = Gg_util.Codec
module Compress = Gg_util.Compress
module Db = Gg_storage.Db
module Writeset = Gg_crdt.Writeset
module Cluster = Geogauss.Cluster
module Client = Geogauss.Client
module Params = Geogauss.Params
module Metrics = Geogauss.Metrics
module Txn = Geogauss.Txn
module Driver = Gg_harness.Driver
module W = Gg_workload

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Host CPU seconds of this process (user + system). The benchmark times
   its work in CPU time: the kernel leaves out of it both the time the
   process waits for a core and, on a paravirtualised guest, the time the
   hypervisor steals for other guests, and on a shared host those two
   change wall times by tens of percent for minutes at a time. Wall time
   only bounds how long a run lasts. *)
let cpu_s () = Sys.time ()

(* The reference kernel. CPU time still moves with the host. On a shared
   2-vCPU KVM guest one identical simulation window took 1.1-1.3 CPU
   seconds in one stretch and 2.2-3.1 in another that lasted over half
   an hour, while the guest counted almost no steal time. So the
   end-to-end host metrics are given in reference seconds: the measured
   CPU time divided by the CPU time of this fixed kernel, run right
   beside it, times the kernel's nominal length.

   The kernel does the same kind of work as the simulator, so that it
   slows down with it: random reads and writes in a 16 MiB table,
   short-lived allocation (a string and a six-element list per step)
   and a walk over that list. Within the slow stretch, the log of a
   close variant's chunk time tracked the log of the simulation
   window's with slope 0.99 and correlation 0.92 on ycsb-mc (1.26 and
   0.89 on sql-scan-open). A kernel that only chased pointers in the
   core's own cache tracked it with correlation 0.67, and across the two
   stretches it slowed down less than the simulator did.

   The kernel is kept independent of the program it measures. Its table
   is a Bigarray, outside the OCaml heap, so it adds nothing to the
   heap the simulator's collector marks, nor to peak_heap_mb. An
   untimed pass reads the table before each chunk, so a chunk costs
   the same whatever the simulation left in the cache. A minor
   collection before the timer starts leaves the chunk's own
   collections only its own garbage to handle; at most
   [reference_slices] of the simulation's minor collections per window
   run there, outside the timed slices. And the kernel uses no library
   of the program, so a change to the program moves only the measured
   side of the ratio. *)
module Reference = struct
  open Bigarray

  let words = 1 lsl 21
  let steps = 16_000

  (* One chunk of [steps] steps counts as [chunk_s] reference seconds. *)
  let chunk_s = 0.005

  let table = Array1.create int c_layout words
  let () = Array1.fill table 0
  let x = ref 11

  let warm () =
    let s = ref 0 in
    for i = 0 to words - 1 do
      s := !s + table.{i}
    done;
    ignore (Sys.opaque_identity !s)

  (* CPU seconds of one chunk. Table values stay below 2^16, so every
     chunk formats numbers of the same size. *)
  let chunk () =
    warm ();
    Gc.minor ();
    let t0 = cpu_s () in
    let acc = ref 0 in
    for _ = 1 to steps do
      x := (!x * 1103515245 + 12345) land 0x3FFFFFFF;
      let k = !x land (words - 1) in
      let v = table.{k} in
      let s = string_of_int (v + k) in
      let l = List.init 6 (fun i -> (i + v, s)) in
      acc :=
        List.fold_left
          (fun a (n, s) -> a + n + String.length s)
          !acc (List.rev l);
      table.{k} <- (v + 1) land 0xFFFF;
      table.{(k * 7) land (words - 1)} <- !acc land 0xFFFF
    done;
    ignore (Sys.opaque_identity !acc);
    cpu_s () -. t0
end
let fi = float_of_int
let ratio a b = if b = 0.0 then 0.0 else a /. b

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      exit 1)
    fmt

(* ---------------------------------------------------------------------
   Workloads. Why each one exists, and which layers it loads and
   bypasses, is recorded in BENCHMARK.json. *)

type workload = {
  name : string;
  topology : unit -> Topology.t;
  params : Params.t;
  load : Db.t -> unit;
  gens : seed:int -> int -> unit -> Txn.request;
  connections : int;  (* per node *)
  open_tps : float option;  (* per-region constant arrival rate; closed if None *)
  warmup_ms : int;
  window_ms : int;
}

let op_gens gens ~seed node =
  let next = gens ~seed node in
  fun () -> Txn.Op_txn (next ())

(* Host domains for the intra-node merge: one, so the single-process
   simulator never uses more domains than the host has cores. *)
let merge_jobs = 1

let ycsb_mc =
  let p = W.Ycsb.with_records W.Ycsb.medium_contention 20_000 in
  {
    name = "ycsb-mc";
    topology = Topology.china3;
    params = Params.default;
    load = W.Ycsb.load p;
    gens = op_gens (Driver.ycsb_gens p);
    connections = 64;
    open_tps = None;
    warmup_ms = 300;
    window_ms = 2_000;
  }

let tpcc =
  let cfg = W.Tpcc.small in
  {
    name = "tpcc";
    topology = Topology.china3;
    params = Params.default;
    load = W.Tpcc.load cfg;
    gens = op_gens (Driver.tpcc_gens cfg);
    connections = 32;
    open_tps = None;
    warmup_ms = 300;
    window_ms = 5_000;
  }

let sql_scan_open =
  let p = W.Sqlgen.Scan.base in
  {
    name = "sql-scan-open";
    topology = Topology.china3;
    params = Params.default;
    load = W.Sqlgen.Scan.load p;
    gens = Driver.scan_req_gens p;
    connections = 64;
    open_tps = Some 1_000.0;
    warmup_ms = 300;
    window_ms = 1_000;
  }

(* fig_scale's 25-replica point: 2 ops on 3k rows keeps most transactions
   inside one or two replica groups, 25 ms epochs keep the cross-group
   vote pipeline shallow at worldwide latencies. *)
let world25_part =
  let p =
    { (W.Ycsb.with_records W.Ycsb.medium_contention 3_000) with
      W.Ycsb.ops_per_txn = 2; name = "ycsb-mc-2op" }
  in
  {
    name = "world25-part";
    topology = (fun () -> Topology.worldwide 25);
    params =
      { (Params.with_epoch_ms Params.default 25) with
        Params.partitioning = Params.P_hash 4 };
    load = W.Ycsb.load p;
    gens = op_gens (Driver.ycsb_gens p);
    connections = 2;
    open_tps = None;
    warmup_ms = 500;
    window_ms = 6_000;
  }

let workloads = [ ycsb_mc; tpcc; sql_scan_open; world25_part ]

(* ---------------------------------------------------------------------
   One simulation. *)

(* Inputs and per-call costs captured by the traced run. Only calls made
   inside the measured window are recorded. *)
type capture = {
  mutable in_window : bool;
  mutable gen_s : float;  (* wall: one call is too short for the CPU clock *)
  mutable requests : Txn.request list;  (* newest first *)
  mutable commits : (int * Writeset.t) list;  (* (cen, write set), newest first *)
  mutable depth_sum : int;
  mutable depth_samples : int;
}

let new_capture () =
  {
    in_window = false;
    gen_s = 0.0;
    requests = [];
    commits = [];
    depth_sum = 0;
    depth_samples = 0;
  }

let wrap_gen cap gen () =
  if cap.in_window then begin
    let t0 = now_s () in
    let r = gen () in
    cap.gen_s <- cap.gen_s +. (now_s () -. t0);
    cap.requests <- r :: cap.requests;
    r
  end
  else gen ()

(* Simulated results: exact functions of the seed. *)
type counts = {
  committed : int;
  aborted : int;
  timeouts : int;
  shed : int;
  latency : Hist.t;
  wan_bytes : int;
  events : int;
  encodes : int;
  merged : int;
  digest : string;  (* of every replica's post-quiesce digest *)
}

let attempted c = c.committed + c.aborted + c.timeouts + c.shed

let signature c =
  [
    ("committed", string_of_int c.committed);
    ("aborted", string_of_int c.aborted);
    ("timeouts", string_of_int c.timeouts);
    ("shed", string_of_int c.shed);
    ("commit_samples", string_of_int (Hist.count c.latency));
    ("commit_p50_us", Printf.sprintf "%h" (Hist.p50 c.latency));
    ("commit_p99_us", Printf.sprintf "%h" (Hist.p99 c.latency));
    ("wan_bytes", string_of_int c.wan_bytes);
    ("sim_events", string_of_int c.events);
    ("encodes", string_of_int c.encodes);
    ("merged_records", string_of_int c.merged);
    ("replica_digests", c.digest);
  ]

type run = {
  counts : counts;
  window_cpu_s : float;  (* host CPU seconds simulating the measured window *)
  ref_chunk_s : float;  (* mean CPU seconds of the reference chunks run beside it *)
  minor_words : float;
  major_words : float;
  major_collections : int;
  obs_counters : (string * int) list;
  phase_us : float * float * float * float * float;
  aborts : (string * int) list;  (* by reason, summed over nodes *)
}

let node_metrics cluster =
  List.init (Cluster.n_nodes cluster) (Cluster.metrics cluster)

let sum_nodes cluster f =
  List.fold_left (fun a m -> a + f m) 0 (node_metrics cluster)

(* Committed-weighted mean of the per-node Table 2 phase means:
   (parse, exec, wait, merge, log) in simulated µs. *)
let phase_means cluster =
  let nodes = node_metrics cluster in
  let weight m = fi (Metrics.committed m) in
  let total = List.fold_left (fun a m -> a +. weight m) 0.0 nodes in
  let mean pick =
    ratio
      (List.fold_left
         (fun a m -> a +. (weight m *. pick (Metrics.phase_means_us m)))
         0.0 nodes)
      total
  in
  ( mean (fun (p, _, _, _, _) -> p),
    mean (fun (_, x, _, _, _) -> x),
    mean (fun (_, _, w, _, _) -> w),
    mean (fun (_, _, _, m, _) -> m),
    mean (fun (_, _, _, _, l) -> l) )

(* Replicas converge per replica group (one group under full
   replication); a group whose live members disagree fails the gate.
   Under partial replication a cross-group transaction's write-back
   resolves [vote_depth] epochs after its commit epoch, so members that
   quiesced at different snapshots can still differ by a pending
   write-back. The clients are stopped, so running on for 2 * vote_depth
   epochs lets every member apply them: vote_depth epochs of pipeline,
   plus the cross-group round trip, which vote_depth - 2 epochs cover by
   its definition. *)
let check_digests w cluster =
  let part = Cluster.partitioning cluster in
  if Geogauss.Partitioning.enabled part then begin
    let epoch_ms = (Cluster.params cluster).Params.epoch_us / 1_000 in
    Cluster.run_for_ms cluster (2 * Geogauss.Partitioning.vote_depth part * epoch_ms);
    Cluster.quiesce cluster
  end;
  let digests = Array.of_list (Cluster.digests cluster) in
  let net = Cluster.net cluster in
  for g = 0 to Geogauss.Partitioning.n_groups part - 1 do
    let live =
      List.filter (fun i -> not (Net.is_down net i))
        (Geogauss.Partitioning.members part g)
    in
    match live with
    | [] -> ()
    | first :: rest ->
      List.iter
        (fun i ->
          if digests.(i) <> digests.(first) then
            fail "%s: replicas %d and %d of group %d diverged after quiesce"
              w.name first i g)
        rest
  done;
  Digest.to_hex (Digest.string (String.concat "," (Array.to_list digests)))

(* Cluster.create (every replica loads the workload's tables) plus one
   client per node: the set-up a user of the simulator pays per run. *)
let setup ?capture w ~seed =
  let params = { w.params with Params.seed; merge_jobs } in
  let cluster = Cluster.create ~params ~topology:(w.topology ()) ~load:w.load () in
  let mode =
    match w.open_tps with
    | None -> Client.Closed
    | Some tps ->
      (* the queue depth Driver.run_geogauss gives open-loop clients *)
      Client.Open
        {
          arrival = W.Arrival.make ~shape:W.Arrival.Constant ~peak_tps:tps;
          queue_cap = 4 * w.connections;
        }
  in
  let clients =
    List.init (Cluster.n_nodes cluster) (fun i ->
        let gen = w.gens ~seed i in
        let gen = match capture with Some c -> wrap_gen c gen | None -> gen in
        Client.create ~mode cluster ~home:i ~connections:w.connections ~gen)
  in
  (cluster, clients)

let abort_reasons =
  Txn.
    [
      ("write_conflict", Write_conflict); ("read_validation", Read_validation);
      ("ssi_conflict", Ssi_conflict); ("row_deleted", Row_deleted);
      ("cross_abort", Cross_abort); ("constraint", Constraint_violation "");
      ("node_failure", Node_failure);
    ]

(* With [~reference:true] the window runs in [reference_slices] slices
   with one reference chunk after each, outside the timed slices, so the
   chunks sample the host's speed across the whole window. *)
let reference_slices = 20

let simulate ?capture ?(obs_tracing = false) ?(reference = false) w ~seed =
  let cluster, clients = setup ?capture w ~seed in
  let obs = Cluster.obs cluster in
  let sim = Cluster.sim cluster in
  Option.iter
    (fun cap ->
      Cluster.on_commit cluster (fun (txn : Txn.t) ->
          if cap.in_window then
            match txn.Txn.writeset with
            | Some ws when ws.Writeset.records <> [] ->
              cap.commits <- (txn.Txn.cen, ws) :: cap.commits
            | _ -> ()))
    capture;
  if obs_tracing then Obs.set_tracing obs true;
  List.iter Client.start clients;
  Cluster.run_for_ms cluster w.warmup_ms;
  Obs.reset_all obs;
  Writeset.Batch.reset_encode_count ();
  let gc0 = Gc.quick_stat () in
  let c1 = cpu_s () in
  let timed_window () = (cpu_s () -. c1, nan) in
  (* Slicing the window changes nothing the simulation sees: run_until
     runs every event up to the limit in order either way. *)
  let window_cpu_s, ref_chunk_s =
    match capture with
    | None when reference ->
      let n = reference_slices in
      let cpu = ref 0.0 and chunks = ref 0.0 in
      for i = 0 to n - 1 do
        let c0 = cpu_s () in
        Cluster.run_for_ms cluster
          ((w.window_ms * (i + 1) / n) - (w.window_ms * i / n));
        cpu := !cpu +. (cpu_s () -. c0);
        chunks := !chunks +. Reference.chunk ()
      done;
      (!cpu, !chunks /. fi n)
    | None ->
      Cluster.run_for_ms cluster w.window_ms;
      timed_window ()
    | Some cap ->
      cap.in_window <- true;
      for _ = 1 to w.window_ms do
        Cluster.run_for_ms cluster 1;
        cap.depth_sum <- cap.depth_sum + Sim.pending sim;
        cap.depth_samples <- cap.depth_samples + 1
      done;
      cap.in_window <- false;
      timed_window ()
  in
  let gc1 = Gc.quick_stat () in
  let sum f = List.fold_left (fun a c -> a + f c) 0 clients in
  let aborts =
    List.map
      (fun (name, r) ->
        (name, sum_nodes cluster (fun m -> Metrics.aborted_by m r)))
      abort_reasons
  in
  let counts =
    {
      committed = sum Client.committed;
      aborted = sum Client.aborted;
      timeouts = sum Client.timeouts;
      shed = sum Client.shed;
      latency =
        List.fold_left
          (fun acc c -> Hist.merge acc (Client.latency c))
          (Hist.create ()) clients;
      wan_bytes = Net.wan_bytes (Cluster.net cluster);
      events = Sim.events sim;
      encodes = Writeset.Batch.encode_count ();
      merged = sum_nodes cluster Metrics.merged_records;
      digest = "";
    }
  in
  let obs_counters = Obs.counter_values obs in
  let phase_us = phase_means cluster in
  List.iter Client.stop clients;
  Cluster.quiesce cluster;
  {
    counts = { counts with digest = check_digests w cluster };
    window_cpu_s;
    ref_chunk_s;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_words = gc1.Gc.major_words -. gc0.Gc.major_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    obs_counters;
    phase_us;
    aborts;
  }

let check_same w ~what a b =
  List.iter2
    (fun (k, x) (_, y) ->
      if x <> y then
        fail "%s: %s differs between %s: %s vs %s" w.name k what x y)
    (signature a) (signature b)

(* ---------------------------------------------------------------------
   Output. *)

type metric = { m_name : string; value : float; unit_ : string }

let metric m_name unit_ value = { m_name; value; unit_ }

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else fail "non-finite metric value"

let print_result ~attempted ~failed metrics =
  List.iter
    (fun m -> Printf.printf "  %-32s %18.6f %s\n" m.m_name m.value m.unit_)
    metrics;
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name
          (json_number m.value) m.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    attempted failed (String.concat ", " fields)

let print_context w ~seed ~repeats =
  Printf.printf
    "host: ocaml %s, nproc %d, pool_jobs 1, merge_jobs %d, word %d bits\n"
    Sys.ocaml_version
    (Domain.recommended_domain_count ())
    merge_jobs Sys.word_size;
  Printf.printf
    "workload: %s, seed %d, nodes %d, connections/node %d, %s, warmup %d ms, \
     window %d ms, repeats %d\n"
    w.name seed
    (Topology.n_nodes (w.topology ()))
    w.connections
    (match w.open_tps with
    | None -> "closed loop"
    | Some tps -> Printf.sprintf "open loop %.0f tps/region" tps)
    w.warmup_ms w.window_ms repeats

(* Transactions that failed for a reason other than the protocol's
   conflict resolution: timeouts, shed arrivals, constraint violations.
   None are expected on these workloads; OCC aborts are outcomes the
   benchmark measures (commit_ratio), not benchmark failures. *)
let failed r = r.counts.timeouts + r.counts.shed + List.assoc "constraint" r.aborts

let fail_rate c = ratio (fi (c.aborted + c.timeouts + c.shed)) (fi (attempted c))

let print_counts c =
  Printf.printf
    "counts: attempted %d, committed %d, aborted %d, timeouts %d, shed %d \
     (fail_rate %.6f), commit samples %d (%d beyond p99), sim events %d, \
     encodes %d, merged records %d, WAN bytes %d\n"
    (attempted c) c.committed c.aborted c.timeouts c.shed (fail_rate c)
    (Hist.count c.latency)
    (Hist.count c.latency / 100)
    c.events c.encodes c.merged c.wan_bytes;
  if Hist.count c.latency < 1_000 then
    print_endline
      "warning: fewer than 1000 commits in the window; p99 rests on fewer \
       than 10 samples"

(* ---------------------------------------------------------------------
   --trace 0: end-to-end metrics. *)

(* setup_s: the median over batch-timed samples of set-up, in reference
   seconds. Each sample times a batch of set-ups long enough (about
   50 ms) that timer noise averages out even where one set-up takes well
   under a millisecond, starts from a collected heap so no sample pays
   for the garbage of the one before, and is scaled by the reference
   chunks run just before and after it. Samples are taken for
   [setup_sampling_s] wall seconds between every two simulation repeats,
   so they spread over the whole run. The median, not the minimum: the
   minimum of a ratio follows the one sample whose reference chunk ran
   slow. *)
let setup_sampling_s = 1.0

let time_setups w ~seed n =
  Gc.full_major ();
  let t0 = cpu_s () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (setup w ~seed))
  done;
  (cpu_s () -. t0) /. fi n

(* (CPU seconds per set-up, mean reference chunk CPU seconds) *)
let sample_setups w ~seed batch acc =
  let t0 = now_s () in
  let rec go acc n =
    if n >= 2 && now_s () -. t0 >= setup_sampling_s then acc
    else begin
      let before = Reference.chunk () in
      let s = time_setups w ~seed batch in
      let after = Reference.chunk () in
      go ((s, (before +. after) /. 2.0) :: acc) (n + 1)
    end
  in
  go acc 0

let in_reference_s cpu chunk = cpu *. Reference.chunk_s /. chunk

(* The first simulation runs before anything else, so peak_heap_mb reads
   the heap one run needs, not the benchmark's own timing loop. Set-up
   samples and further repeats then alternate until [seconds] have
   passed and at least three repeats are done. *)
let end_to_end w ~seed ~seconds =
  let start = now_s () in
  let first = simulate ~reference:true w ~seed in
  let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
  let batch = max 1 (int_of_float (0.05 /. time_setups w ~seed 1)) in
  let rec go runs setups =
    let setups = sample_setups w ~seed batch setups in
    if List.length runs >= 3 && now_s () -. start >= seconds then
      (List.rev runs, List.rev setups)
    else begin
      let r = simulate ~reference:true w ~seed in
      check_same w ~what:"repeats of one seed" first.counts r.counts;
      go (r :: runs) setups
    end
  in
  let runs, setups = go [ first ] [] in
  let c = first.counts in
  let commits_per r =
    fi c.committed /. in_reference_s r.window_cpu_s r.ref_chunk_s
  in
  let setup_ref = List.map (fun (s, chunk) -> in_reference_s s chunk) setups in
  print_context w ~seed ~repeats:(List.length runs);
  print_counts c;
  Printf.printf "window CPU s / reference chunk ms, per repeat: %s\n"
    (String.concat " "
       (List.map
          (fun r ->
            Printf.sprintf "%.3f/%.3f" r.window_cpu_s (r.ref_chunk_s *. 1e3))
          runs));
  Printf.printf
    "commits per CPU second %.1f; per reference second, per repeat: %s\n"
    (median (List.map (fun r -> fi c.committed /. r.window_cpu_s) runs))
    (String.concat " "
       (List.map (fun r -> Printf.sprintf "%.1f" (commits_per r)) runs));
  Printf.printf
    "set-up CPU s / reference chunk ms, per sample (batches of %d): %s\n" batch
    (String.concat " "
       (List.map
          (fun (s, chunk) -> Printf.sprintf "%.6f/%.3f" s (chunk *. 1e3))
          setups));
  Printf.printf "set-up CPU s, median over samples: %.6f\n"
    (median (List.map fst setups));
  print_result ~attempted:(attempted c) ~failed:(failed first)
    [
      metric "host_commits_per_ref_s" "txn/ref_s"
        (median (List.map commits_per runs));
      metric "setup_s" "s" (median setup_ref);
      metric "peak_heap_mb" "MB" (fi (top_heap * (Sys.word_size / 8)) /. 1e6);
      metric "tput_tps" "txn/sim_s" (fi c.committed /. (fi w.window_ms /. 1000.0));
      metric "commit_p50_ms" "sim_ms" (Hist.p50 c.latency /. 1000.0);
      metric "commit_p99_ms" "sim_ms" (Hist.p99 c.latency /. 1000.0);
      metric "commit_ratio" "ratio" (1.0 -. fail_rate c);
      metric "wan_kb_per_txn" "KB/txn"
        (ratio (fi c.wan_bytes /. 1024.0) (fi (c.committed + c.aborted)));
    ]

(* ---------------------------------------------------------------------
   --trace 1: per-layer replay. *)

let timed f =
  let t0 = cpu_s () in
  let x = f () in
  (x, cpu_s () -. t0)

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let fresh_db w =
  let db = Db.create () in
  w.load db;
  db

(* Codec then compressor over every committed write set, each as the
   one-transaction payload a pipelined mini-batch carries. *)
let replay_wire commits =
  let wss = List.map snd commits in
  let encoded, codec_s =
    timed (fun () ->
        List.map
          (fun ws ->
            let enc = Codec.Enc.create () in
            Writeset.encode enc ws;
            Codec.Enc.to_bytes enc)
          wss)
  in
  let a0 = alloc_words () in
  let compressed, compress_s =
    timed (fun () -> List.map Compress.compress encoded)
  in
  let alloc = alloc_words () -. a0 in
  let bytes_in = List.fold_left (fun a b -> a + Bytes.length b) 0 encoded in
  let bytes_out = List.fold_left (fun a b -> a + Bytes.length b) 0 compressed in
  (List.length wss, codec_s, bytes_in, compress_s, alloc, bytes_out)

let replay_op_exec db requests =
  let txns =
    List.filter_map (function Txn.Op_txn t -> Some t | Txn.Sql_txn _ -> None) requests
  in
  let records = ref 0 in
  let (), s =
    timed (fun () ->
        List.iter
          (fun t ->
            match Geogauss.Op_exec.exec db t with
            | Ok r -> records := !records + List.length r.Geogauss.Op_exec.writes
            | Error _ -> ())
          txns)
  in
  (List.length txns, s, !records)

let replay_sql db requests =
  let stmts =
    List.concat_map
      (function Txn.Sql_txn { stmts; _ } -> [ stmts ] | Txn.Op_txn _ -> [])
      requests
  in
  let n = List.fold_left (fun a s -> a + List.length s) 0 stmts in
  let parsed, parse_s =
    timed (fun () ->
        List.map
          (List.map (fun (sql, params) -> (Gg_sql.Parser.parse sql, params)))
          stmts)
  in
  let (), exec_s =
    timed (fun () ->
        List.iter
          (fun txn ->
            let ctx = Gg_sql.Executor.Ctx.create db in
            List.iter
              (fun (ast, params) ->
                ignore (Gg_sql.Executor.exec ctx ast ~params))
              txn)
          parsed)
  in
  (n, parse_s, exec_s)

(* The epoch-merge kernel once per commit epoch, epochs in order, each
   epoch's write sets in csn order, on one replica's database. *)
let replay_merge db commits =
  let by_cen = Hashtbl.create 64 in
  List.iter
    (fun (cen, ws) ->
      Hashtbl.replace by_cen cen
        (ws :: Option.value (Hashtbl.find_opt by_cen cen) ~default:[]))
    commits;
  let epochs =
    Hashtbl.fold (fun cen wss acc -> (cen, wss) :: acc) by_cen []
    |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
  in
  let records = ref 0 in
  let (), s =
    timed (fun () ->
        List.iter
          (fun (_, wss) ->
            let wss =
              List.sort
                (fun a b ->
                  Gg_storage.Csn.compare a.Writeset.meta.Gg_crdt.Meta.csn
                    b.Writeset.meta.Gg_crdt.Meta.csn)
                wss
            in
            let r = Geogauss.Epoch_merge.run ~db ~jobs:1 ~ssi:false wss in
            records := !records + Geogauss.Epoch_merge.n_records r)
          epochs)
  in
  (!records, s)

(* Event-queue push/pop replayed at the run's event count and mean
   depth: the queue is filled to the depth, then every event pops the
   earliest entry and pushes one successor a pseudo-random delay later. *)
let replay_dispatch ~events ~depth =
  let q = Event_queue.create () in
  let x = ref 12345 in
  let delay () =
    x := (!x * 1103515245 + 12345) land 0x3FFFFFFF;
    !x mod 40_000
  in
  for _ = 1 to depth do
    Event_queue.push q ~time:(delay ()) ignore
  done;
  let dispatched = ref 0 in
  let (), s =
    timed (fun () ->
        for _ = 1 to events do
          match Event_queue.pop q with
          | Some (t, f) ->
            incr dispatched;
            Event_queue.push q ~time:(t + delay ()) f
          | None -> ()
        done)
  in
  (!dispatched, s)

(* Untraced and Obs-traced runs alternate, in pairs whose order flips
   each time, for about half of --seconds and at least two pairs. The
   untraced windows give the baseline, and obs.tracing_overhead is the
   median of the pairs' on/off ratios, so host drift cancels within each
   pair. One bench-traced run then feeds the replays. Every run must
   reproduce the first one's simulated counts. *)
let per_layer w ~seed ~seconds =
  let start = now_s () in
  let base = simulate w ~seed in
  let run obs_tracing =
    let r = simulate ~obs_tracing w ~seed in
    check_same w
      ~what:(if obs_tracing then "Obs tracing on and off" else "repeats of one seed")
      base.counts r.counts;
    r
  in
  let rec go pairs =
    let n = List.length pairs in
    if n >= 2 && now_s () -. start >= seconds /. 2.0 then pairs
    else
      let pair =
        if n = 0 then (base, run true)
        else if n mod 2 = 1 then
          let on = run true in
          (run false, on)
        else
          let off = run false in
          (off, run true)
      in
      go (pair :: pairs)
  in
  let pairs = List.rev (go []) in
  let plain = List.map fst pairs in
  let plain_s = median (List.map (fun r -> r.window_cpu_s) plain) in
  let obs_overhead =
    median (List.map (fun (off, on) -> on.window_cpu_s /. off.window_cpu_s) pairs)
  in
  let cap = new_capture () in
  let traced = simulate ~capture:cap w ~seed in
  check_same w ~what:"the traced and untraced runs" base.counts traced.counts;
  let c = base.counts in
  let requests = List.rev cap.requests and commits = List.rev cap.commits in
  let n_wire, codec_s, bytes_in, compress_s, compress_alloc, bytes_out =
    replay_wire commits
  in
  let db = fresh_db w in
  let op_calls, op_s, op_records = replay_op_exec db requests in
  let sql_stmts, parse_s, exec_s = replay_sql db requests in
  let merge_records, merge_s = replay_merge (fresh_db w) commits in
  let depth = ratio (fi cap.depth_sum) (fi cap.depth_samples) in
  let dispatched, dispatch_s =
    replay_dispatch ~events:c.events ~depth:(int_of_float (Float.round depth))
  in
  let committed = fi c.committed in
  let counter name = Option.value (List.assoc_opt name base.obs_counters) ~default:0 in
  let aborts name = List.assoc name base.aborts in
  let merge_aborts =
    List.fold_left
      (fun a name -> a + aborts name)
      0
      [ "write_conflict"; "read_validation"; "ssi_conflict"; "row_deleted"; "cross_abort" ]
  in
  let n_commits = List.length commits in
  let replayed_s =
    compress_s +. codec_s +. op_s +. parse_s +. exec_s +. merge_s +. dispatch_s
    +. cap.gen_s
  in
  let parse_us, exec_us, wait_us, merge_us, log_us = base.phase_us in
  let share name = ratio (fi (aborts name)) (fi (attempted c)) in
  print_context w ~seed ~repeats:(List.length plain);
  print_counts c;
  let coverage name replayed program =
    Printf.printf "coverage: %-44s %10d / %10d = %.3f\n" name replayed program
      (ratio (fi replayed) (fi program))
  in
  coverage "compress.calls / Batch.encode_count" n_wire c.encodes;
  coverage "merge.records / sum Metrics.merged_records" merge_records c.merged;
  coverage "replayed events / Sim.events" dispatched c.events;
  Printf.printf
    "host window CPU seconds: (untraced, Obs tracing on) %s; bench-traced %.3f\n"
    (String.concat " "
       (List.map
          (fun (off, on) ->
            Printf.sprintf "(%.3f, %.3f)" off.window_cpu_s on.window_cpu_s)
          pairs))
    traced.window_cpu_s;
  print_result ~attempted:(attempted c) ~failed:(failed base)
    [
      metric "compress.calls" "count" (fi n_wire);
      metric "compress.s" "s" compress_s;
      metric "compress.alloc_words_per_call" "words/call" (ratio compress_alloc (fi n_wire));
      metric "compress.ratio" "ratio" (ratio (fi bytes_out) (fi bytes_in));
      metric "compress.coverage" "ratio" (ratio (fi n_wire) (fi c.encodes));
      metric "codec.calls" "count" (fi n_wire);
      metric "codec.s" "s" codec_s;
      metric "codec.bytes_out" "B" (fi bytes_in);
      metric "op_exec.calls" "count" (fi op_calls);
      metric "op_exec.s" "s" op_s;
      metric "op_exec.records_per_txn" "records/txn" (ratio (fi op_records) (fi op_calls));
      metric "sql.stmts" "count" (fi sql_stmts);
      metric "sql.parse_s" "s" parse_s;
      metric "sql.exec_s" "s" exec_s;
      metric "merge.records" "count" (fi merge_records);
      metric "merge.s" "s" merge_s;
      metric "merge.useful_ratio" "ratio"
        (ratio (fi n_commits) (fi (n_commits + merge_aborts)));
      metric "merge.coverage" "ratio" (ratio (fi merge_records) (fi c.merged));
      metric "sim.events_per_commit" "events/txn" (ratio (fi c.events) committed);
      metric "sim.events_per_s" "events/s" (fi c.events /. plain_s);
      metric "sim.queue_depth_mean" "events" depth;
      metric "sim.dispatch_s" "s" dispatch_s;
      metric "net.msgs_per_commit" "msgs/txn" (ratio (fi (counter "net.sent.messages")) committed);
      metric "net.bytes_per_commit" "B/txn" (ratio (fi (counter "net.sent.bytes")) committed);
      metric "net.wan_bytes_per_commit" "B/txn" (ratio (fi (counter "net.wan.bytes")) committed);
      metric "phase.parse_us" "sim_us" parse_us;
      metric "phase.exec_us" "sim_us" exec_us;
      metric "phase.wait_us" "sim_us" wait_us;
      metric "phase.merge_us" "sim_us" merge_us;
      metric "phase.log_us" "sim_us" log_us;
      metric "abort.write_conflict" "share" (share "write_conflict");
      metric "abort.read_validation" "share" (share "read_validation");
      metric "abort.cross_abort" "share" (share "cross_abort");
      metric "abort.constraint" "share" (share "constraint");
      metric "gen.calls" "count" (fi (List.length requests));
      metric "gen.s" "s" cap.gen_s;
      metric "gc.minor_words_per_commit" "words/txn" (ratio base.minor_words committed);
      metric "gc.major_words_per_commit" "words/txn" (ratio base.major_words committed);
      metric "gc.major_collections" "count" (fi base.major_collections);
      metric "obs.tracing_overhead" "ratio" obs_overhead;
      metric "replayed.share" "ratio" (replayed_s /. plain_s);
      metric "bench.trace_overhead" "ratio" (traced.window_cpu_s /. plain_s);
    ]

(* ---------------------------------------------------------------------
   Command line. *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.0)
  and trace = ref (-1) and window_ms = ref 0 and warmup_ms = ref (-1) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--window-ms", Arg.Set_int window_ms, "MS override the measured window");
      ("--warmup-ms", Arg.Set_int warmup_ms, "MS override the warm-up");
    ]
  in
  let usage =
    Printf.sprintf
      "bench.exe --workload {%s} --seed N --seconds S --trace 0|1"
      (String.concat "|" (List.map (fun w -> w.name) workloads))
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let bad msg =
    prerr_endline ("bench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> bad (Printf.sprintf "unknown workload %S" !workload)
  in
  if !seed < 0 then bad "--seed must be a non-negative integer";
  if not (!seconds > 0.0) then bad "--seconds must be positive";
  let w =
    {
      w with
      window_ms = (if !window_ms > 0 then !window_ms else w.window_ms);
      warmup_ms = (if !warmup_ms >= 0 then !warmup_ms else w.warmup_ms);
    }
  in
  match !trace with
  | 0 -> end_to_end w ~seed:!seed ~seconds:!seconds
  | 1 -> per_layer w ~seed:!seed ~seconds:!seconds
  | _ -> bad "--trace must be 0 or 1"
