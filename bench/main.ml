(* Benchmark harness.

   Usage:
     main.exe                 run every paper experiment + microbenchmarks
     main.exe fig5 table3 ... run specific experiments
     main.exe micro           run only the Bechamel kernel benchmarks
     main.exe wallclock       end-to-end wall-clock throughput suite
                              (writes BENCH_wallclock.json)
     main.exe parallel        harness speedup curve over --jobs
                              (writes BENCH_parallel.json)
     main.exe merge           intra-node merge kernel, seq vs sharded
                              (writes BENCH_merge.json)
     main.exe --fast [...]    shrunk populations/windows (smoke mode)
     main.exe -j N [...]      fan independent simulations over N domains
                              (0 = auto; deterministic output at any N)
     main.exe --out FILE      JSON output path of wallclock, fig_scale,
                              fig_skew and fig_fastpath (default: their
                              BENCH_*.json in the current directory;
                              `make ci` writes fast runs to /tmp for
                              `bench diff`)

   Experiments regenerate the rows/series of every table and figure in
   the paper's evaluation (§7); see DESIGN.md for the index and
   EXPERIMENTS.md for recorded paper-vs-measured comparisons. *)

(* --- Bechamel microbenchmarks of the core kernels --- *)

let bench name f = Bechamel.Test.make ~name (Bechamel.Staged.stage f)

let bench_merge_rule =
  bench "delta-crdt merge (Algorithm 2)" (fun () ->
      let header = Gg_storage.Row_header.create () in
      for i = 1 to 100 do
        let meta =
          Gg_crdt.Meta.make ~sen:(i mod 7) ~cen:1
            ~csn:(Gg_storage.Csn.make ~ts:i ~node:(i mod 3))
        in
        ignore (Gg_crdt.Merge.merge_header header ~meta)
      done)

let bench_writeset_codec =
  let ws =
    Gg_crdt.Writeset.make
      ~meta:(Gg_crdt.Meta.make ~sen:1 ~cen:2 ~csn:(Gg_storage.Csn.make ~ts:3 ~node:1))
      ~records:
        (List.init 10 (fun i ->
             Gg_crdt.Writeset.make_record ~table:"usertable"
               ~key:[| Gg_storage.Value.Int i |] ~op:Gg_crdt.Writeset.Update
               ~data:
                 (Array.init 11 (fun c ->
                      if c = 0 then Gg_storage.Value.Int i
                      else Gg_storage.Value.Str "abcdefghijklmnop"))
               ()))
      ()
  in
  let batch = Gg_crdt.Writeset.Batch.make ~node:0 ~cen:2 ~txns:[ ws ] ~eof:true () in
  bench "write-set batch encode+gzip+decode" (fun () ->
      let wire = Gg_crdt.Writeset.Batch.to_wire batch in
      ignore (Gg_crdt.Writeset.Batch.of_wire wire))

let bench_zipf =
  let z = Gg_util.Zipf.create ~theta:0.8 ~n:1_000_000 in
  let rng = Gg_util.Rng.create 7 in
  bench "zipfian sampling (theta=0.8, 1M keys)" (fun () ->
      for _ = 1 to 100 do
        ignore (Gg_util.Zipf.scrambled z rng)
      done)

let bench_event_queue =
  bench "event queue push/pop (1k events)" (fun () ->
      let q = Gg_sim.Event_queue.create () in
      let rng = Gg_util.Rng.create 3 in
      for _ = 1 to 1_000 do
        Gg_sim.Event_queue.push q ~time:(Gg_util.Rng.int rng 100_000) ()
      done;
      while not (Gg_sim.Event_queue.is_empty q) do
        ignore (Gg_sim.Event_queue.pop q)
      done)

let bench_sql_parse =
  bench "sql parse (point select)" (fun () ->
      ignore
        (Gg_sql.Parser.parse
           "SELECT c_name, c_balance FROM customer WHERE c_w_id = 3 AND \
            c_d_id = 5 AND c_id = 42"))

let bench_op_exec =
  let db = Gg_storage.Db.create () in
  let p = Gg_workload.Ycsb.with_records Gg_workload.Ycsb.medium_contention 10_000 in
  Gg_workload.Ycsb.load p db;
  let g = Gg_workload.Ycsb.create p ~seed:5 in
  bench "op-level txn execution (YCSB, 10 ops)" (fun () ->
      ignore (Geogauss.Op_exec.exec db (Gg_workload.Ycsb.next_txn g)))

(* The convergence oracle digests every node's Db every epoch; the
   per-table digest cache (keyed on a mutation counter) turns the
   every-epoch case — most tables untouched since the last digest —
   into a hash over a handful of 32-byte table digests. *)
let digest_db =
  lazy
    (let db = Gg_storage.Db.create () in
     let p = Gg_workload.Ycsb.with_records Gg_workload.Ycsb.medium_contention 5_000 in
     Gg_workload.Ycsb.load p db;
     db)

let bench_db_digest_cold =
  bench "db digest, cold (5k rows, caches invalidated)" (fun () ->
      let db = Lazy.force digest_db in
      List.iter
        (fun n -> Gg_storage.Table.touch (Gg_storage.Db.get_table_exn db n))
        (Gg_storage.Db.table_names db);
      ignore (Gg_storage.Db.digest db))

let bench_db_digest_cached =
  bench "db digest, cached (5k rows, no mutations)" (fun () ->
      ignore (Gg_storage.Db.digest (Lazy.force digest_db)))

let run_micro () =
  let open Bechamel in
  let benchmarks =
    [
      bench_merge_rule; bench_writeset_codec; bench_zipf; bench_event_queue;
      bench_sql_parse; bench_op_exec; bench_db_digest_cold;
      bench_db_digest_cached;
    ]
  in
  print_endline "Microbenchmarks (Bechamel; monotonic clock)";
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.3) ~kde:(Some 500) () in
  let instance = Toolkit.Instance.monotonic_clock in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
      Hashtbl.iter
        (fun name raw ->
          let stats =
            Analyze.one
              (Analyze.ols ~bootstrap:0 ~r_square:false
                 ~predictors:[| Measure.run |])
              instance raw
          in
          match Analyze.OLS.estimates stats with
          | Some [ est ] -> Printf.printf "  %-45s %10.1f ns/run\n%!" name est
          | _ -> Printf.printf "  %-45s (no estimate)\n%!" name)
        results)
    benchmarks

(* --- Wall-clock throughput suite ---

   Unlike the Bechamel kernels above, these drive a whole simulated
   cluster end-to-end and measure how fast the simulator itself chews
   through a fixed scenario: sim-events/s, merge throughput
   (records/s through DeltaCRDTMerge phase A) and actual
   encode+compress passes per second. The scenario bodies live in
   {!Gg_harness.Wallclock} (fully deterministic, Unix-free); this file
   owns the timers. Each scenario runs [reps] times and we report the
   median and the min — single-shot wall numbers on a shared host are
   noisy enough to make small overheads (e.g. tracing) look negative.

   With --jobs > 1 the repetitions share the machine, so wall-clock
   fields get noisier (the counts never change); use -j 1 when the
   timings themselves are the point. *)

module W = Gg_harness.Wallclock

let reps = 3

type wallclock_row = {
  wc_label : string;
  wc_sim_ms : int;
  wc_walls : float list;  (** one per rep *)
  wc_counts : W.counts;
}

let median l =
  let a = List.sort compare l in
  List.nth a (List.length a / 2)

let minimum l = List.fold_left min infinity l

let run_scenarios pool specs =
  (* One pool task per (scenario, rep); results return in submission
     order, so the row list (and every count in it) is independent of
     the pool width. *)
  let thunks =
    List.concat_map
      (fun (s, tracing) ->
        List.init reps (fun _ () ->
            let t0 = Unix.gettimeofday () in
            let c = s.W.run ~tracing () in
            (c, Unix.gettimeofday () -. t0)))
      specs
  in
  let results = ref (Gg_par.Pool.run pool thunks) in
  List.map
    (fun (s, _) ->
      let mine = List.filteri (fun i _ -> i < reps) !results in
      results := List.filteri (fun i _ -> i >= reps) !results;
      let counts = List.map fst mine in
      let c0 = List.hd counts in
      if not (List.for_all (( = ) c0) counts) then
        Printf.eprintf
          "  WARNING: %s: counts differ across reps — determinism bug!\n%!"
          s.W.name;
      {
        wc_label = s.W.name;
        wc_sim_ms = s.W.sim_ms;
        wc_walls = List.map snd mine;
        wc_counts = c0;
      })
    specs

let per_sec count wall_s = float_of_int count /. max 1e-9 wall_s

let run_wallclock ~fast ~pool ~out () =
  let specs =
    List.map (fun s -> (s, false)) (W.scenarios ~fast)
    @ [ (W.traced_scenario ~fast, true) ]
  in
  let rows = run_scenarios pool specs in
  print_endline
    (Printf.sprintf
       "Wall-clock throughput (fixed seeded scenarios; %d reps, median/min)"
       reps);
  List.iter
    (fun r ->
      let med = median r.wc_walls and mn = minimum r.wc_walls in
      Printf.printf
        "  %-24s %6.2f s median (%.2f min) for %d sim-ms | %10.0f events/s | \
         %9.0f merged-rec/s | %8.0f batches-enc/s | %d committed, %d aborted\n\
         %!"
        r.wc_label med mn r.wc_sim_ms
        (per_sec r.wc_counts.W.events med)
        (per_sec r.wc_counts.W.merged med)
        (per_sec r.wc_counts.W.encodes med)
        r.wc_counts.W.committed r.wc_counts.W.aborted)
    rows;
  let off, on_ =
    match rows with
    | [ ycsb; _; traced ] -> (minimum ycsb.wc_walls, minimum traced.wc_walls)
    | _ -> assert false
  in
  (* min-vs-min: both runs' best case, so scheduler hiccups on either
     side can't push the overhead negative the way single shots did. *)
  let overhead_frac = (on_ -. off) /. max 1e-9 off in
  Printf.printf
    "  tracing overhead (ycsb-medium): %.2f s off vs %.2f s on (%+.1f%%, min \
     of %d)\n\
     %!"
    off on_ (100.0 *. overhead_frac) reps;
  if overhead_frac > 0.05 then
    Printf.eprintf
      "  WARNING: tracing overhead %.1f%% exceeds the 5%% budget (`geogauss \
       bench diff' gates on this)\n\
       %!"
      (100.0 *. overhead_frac);
  let oc = open_out out in
  let row_json r =
    let med = median r.wc_walls and mn = minimum r.wc_walls in
    Printf.sprintf
      "    {\"label\": \"%s\", \"sim_ms\": %d, \"reps\": %d, \"wall_s\": \
       %.4f, \"wall_s_median\": %.4f, \"wall_s_min\": %.4f, \"events\": %d, \
       \"events_per_s\": %.1f, \"merged_records\": %d, \
       \"merged_records_per_s\": %.1f, \"batches_encoded\": %d, \
       \"batches_encoded_per_s\": %.1f, \"committed\": %d, \"aborted\": %d}"
      r.wc_label r.wc_sim_ms reps med med mn r.wc_counts.W.events
      (per_sec r.wc_counts.W.events med)
      r.wc_counts.W.merged
      (per_sec r.wc_counts.W.merged med)
      r.wc_counts.W.encodes
      (per_sec r.wc_counts.W.encodes med)
      r.wc_counts.W.committed r.wc_counts.W.aborted
  in
  Printf.fprintf oc
    "{\n\
    \  \"suite\": \"wallclock\",\n\
    \  \"reps\": %d,\n\
    \  \"scenarios\": [\n\
     %s\n\
    \  ],\n\
    \  \"tracing_overhead\": {\"scenario\": \"ycsb-medium/china3\", \
     \"wall_s_tracing_off\": %.4f, \"wall_s_tracing_on\": %.4f, \
     \"overhead_frac\": %.4f}\n\
     }\n"
    reps
    (String.concat ",\n" (List.map row_json rows))
    off on_ overhead_frac;
  close_out oc;
  Printf.printf "  wrote %s\n" out

(* --- Parallel-harness speedup suite ---

   Times the two fan-out-heavy workloads — a chaos-check sweep and an
   experiment grid — at jobs = 1/2/4/8 and records the speedup curve.
   The outputs themselves are byte-identical across the sweep (that is
   the whole point of the ordered pool); only wall time may change.
   Speedup tops out near the machine's core count: on a single-core
   host the curve is flat. *)

let parallel_jobs = [ 1; 2; 4; 8 ]

(* --- Intra-node merge kernel (seq vs sharded) ---

   Drives {!Geogauss.Epoch_merge} directly on a synthetic epoch — no
   cluster, no sim — so the sharded phase A/B is measured in isolation.
   "cold" merges the epoch into a fresh copy of the loaded table;
   "warm" re-merges the same write sets into the already-merged state
   (the ACI idempotent-replay path: every row resolves to Already or a
   deterministic loser). The commit/abort counts and the resulting
   database digest are asserted identical at every width — the bench
   doubles as an equality check. Speedup only materialises with real
   cores; host_cores is recorded so a 1-core run reads honestly. *)

let merge_jobs_swept = [ 1; 2; 4; 8 ]
let merge_reps = 3

let build_merge_epoch ~n_rows ~n_txns ~recs_per_txn =
  let db = Gg_storage.Db.create () in
  let table =
    Gg_storage.Db.create_table db ~name:"kv"
      ~columns:
        [
          { Gg_storage.Schema.name = "k"; ty = Gg_storage.Schema.TInt };
          { name = "v"; ty = TInt };
        ]
      ~key:[ "k" ]
  in
  for i = 0 to n_rows - 1 do
    Gg_storage.Table.load table [| Gg_storage.Value.Int i; Gg_storage.Value.Int 0 |]
  done;
  let rng = Gg_util.Rng.create 0xEB0C in
  let txns =
    List.init n_txns (fun i ->
        let meta =
          Gg_crdt.Meta.make ~sen:1 ~cen:1
            ~csn:(Gg_storage.Csn.make ~ts:(1_000 + i) ~node:(i mod 3))
        in
        let records =
          List.init recs_per_txn (fun r ->
              (* key collisions across transactions are the point (they
                 exercise the conflict marks); within a transaction a
                 duplicate key just resolves like a same-csn re-write *)
              let roll = Gg_util.Rng.int rng 100 in
              if roll < 85 then
                let k = Gg_util.Rng.int rng n_rows in
                Gg_crdt.Writeset.make_record ~table:"kv"
                  ~key:[| Gg_storage.Value.Int k |] ~op:Gg_crdt.Writeset.Update
                  ~data:[| Gg_storage.Value.Int k; Gg_storage.Value.Int i |] ()
              else if roll < 95 then
                let k = n_rows + Gg_util.Rng.int rng n_rows in
                Gg_crdt.Writeset.make_record ~table:"kv"
                  ~key:[| Gg_storage.Value.Int k |] ~op:Gg_crdt.Writeset.Insert
                  ~data:[| Gg_storage.Value.Int k; Gg_storage.Value.Int (r + 1) |] ()
              else
                let k = Gg_util.Rng.int rng n_rows in
                Gg_crdt.Writeset.make_record ~table:"kv"
                  ~key:[| Gg_storage.Value.Int k |] ~op:Gg_crdt.Writeset.Delete
                  ~data:[||] ())
        in
        Gg_crdt.Writeset.make ~meta ~records ())
  in
  (db, txns)

let run_merge ~fast () =
  let n_rows = if fast then 10_000 else 40_000 in
  let n_txns = if fast then 1_500 else 6_000 in
  let recs_per_txn = 8 in
  let base, txns = build_merge_epoch ~n_rows ~n_txns ~recs_per_txn in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  Printf.printf
    "Intra-node merge kernel (%d txns x %d records, %d rows; %d reps, \
     host_cores=%d)\n\
     %!"
    n_txns recs_per_txn n_rows merge_reps (Gg_par.Pool.default_jobs ());
  let reference = ref None in
  let rows =
    List.map
      (fun jobs ->
        let outcomes =
          List.init merge_reps (fun _ ->
              let db = Gg_storage.Db.copy base in
              let m, cold =
                time (fun () ->
                    Geogauss.Epoch_merge.run ~threshold:0 ~db ~jobs ~ssi:false
                      txns)
              in
              let w, warm =
                time (fun () ->
                    Geogauss.Epoch_merge.run ~threshold:0 ~db ~jobs ~ssi:false
                      txns)
              in
              ( cold, warm,
                ( Geogauss.Epoch_merge.n_committed m,
                  Geogauss.Epoch_merge.n_dead m,
                  Geogauss.Epoch_merge.n_committed w,
                  Geogauss.Epoch_merge.n_dead w,
                  Gg_storage.Db.digest db ) ))
        in
        let colds = List.map (fun (c, _, _) -> c) outcomes in
        let warms = List.map (fun (_, w, _) -> w) outcomes in
        let result = (fun (_, _, r) -> r) (List.hd outcomes) in
        List.iter
          (fun (_, _, r) ->
            if r <> result then begin
              Printf.eprintf "  ERROR: jobs=%d results differ across reps\n%!" jobs;
              exit 1
            end)
          outcomes;
        (match !reference with
        | None -> reference := Some result
        | Some r ->
          if r <> result then begin
            Printf.eprintf
              "  ERROR: jobs=%d merge result differs from jobs=1 — \
               determinism bug!\n\
               %!"
              jobs;
            exit 1
          end);
        let committed, dead, _, _, _ = result in
        let n_records = n_txns * recs_per_txn in
        Printf.printf
          "  jobs=%d cold %6.3f s median (%.3f min, %9.0f rec/s) | warm \
           %6.3f s median | %d committed, %d dead\n\
           %!"
          jobs (median colds) (minimum colds)
          (per_sec n_records (median colds))
          (median warms) committed dead;
        (jobs, colds, warms))
      merge_jobs_swept
  in
  let committed, dead, _, _, digest = Option.get !reference in
  print_endline "  commit/abort counts and db digest identical at every width";
  let base_cold = match rows with (_, c, _) :: _ -> median c | [] -> 1.0 in
  let oc = open_out "BENCH_merge.json" in
  let row_json (jobs, colds, warms) =
    Printf.sprintf
      "    {\"jobs\": %d, \"cold_wall_s_median\": %.4f, \"cold_wall_s_min\": \
       %.4f, \"warm_wall_s_median\": %.4f, \"warm_wall_s_min\": %.4f, \
       \"cold_records_per_s\": %.1f, \"cold_speedup\": %.3f}"
      jobs (median colds) (minimum colds) (median warms) (minimum warms)
      (per_sec (n_txns * recs_per_txn) (median colds))
      (base_cold /. median colds)
  in
  Printf.fprintf oc
    "{\n\
    \  \"suite\": \"merge\",\n\
    \  \"host_cores\": %d,\n\
    \  \"reps\": %d,\n\
    \  \"n_txns\": %d,\n\
    \  \"records_per_txn\": %d,\n\
    \  \"n_rows\": %d,\n\
    \  \"committed\": %d,\n\
    \  \"dead\": %d,\n\
    \  \"db_digest\": \"%s\",\n\
    \  \"kernels\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    (Gg_par.Pool.default_jobs ())
    merge_reps n_txns recs_per_txn n_rows committed dead digest
    (String.concat ",\n" (List.map row_json rows));
  close_out oc;
  print_endline "  wrote BENCH_merge.json";
  if Gg_par.Pool.default_jobs () <= 1 then
    print_endline
      "  note: single-core host — sharded widths only add spawn overhead \
       here; speedup needs real cores"

let run_parallel () =
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let workloads =
    [
      ( "check-sweep-50",
        fun pool ->
          ignore (Gg_check.Checker.check ~fast:true ~pool ~seeds:50 ()) );
      ( "fig8-fast",
        fun pool ->
          ignore
            (Gg_harness.Experiments.tables ~pool
               ~setting:(Gg_harness.Experiments.setting ~fast:true)
               ~fast:true "fig8") );
    ]
  in
  Printf.printf "Parallel harness speedup (%d cores available)\n%!"
    (Gg_par.Pool.default_jobs ());
  let curves =
    List.map
      (fun (name, task) ->
        (* untimed warm-up so the jobs=1 point doesn't also pay
           first-run heap growth and make later points look
           supra-linear *)
        task Gg_par.Pool.seq;
        let walls =
          List.map
            (fun j ->
              let wall =
                time (fun () -> Gg_par.Pool.with_pool ~jobs:j (fun p -> task p))
              in
              Printf.printf "  %-16s jobs=%d %6.2f s\n%!" name j wall;
              (j, wall))
            parallel_jobs
        in
        let base = match walls with (_, w) :: _ -> w | [] -> 1.0 in
        (* On a single-core host the curve only measures domain overhead
           (0.66x…0.12x): printing it as "speedup" misleads. The JSON
           keeps the raw walls either way, tagged with host_cores. *)
        if Gg_par.Pool.default_jobs () > 1 then
          List.iter
            (fun (j, w) ->
              Printf.printf "  %-16s jobs=%d speedup %.2fx\n%!" name j (base /. w))
            walls
        else
          Printf.printf
            "  %-16s single-core host, speedup not meaningful (walls above \
             are domain overhead)\n\
             %!"
            name;
        (name, base, walls))
      workloads
  in
  let oc = open_out "BENCH_parallel.json" in
  let curve_json (name, base, walls) =
    Printf.sprintf
      "    {\"workload\": \"%s\", \"points\": [\n%s\n    ]}"
      name
      (String.concat ",\n"
         (List.map
            (fun (j, w) ->
              Printf.sprintf
                "      {\"jobs\": %d, \"wall_s\": %.4f, \"speedup\": %.3f}" j w
                (base /. w))
            walls))
  in
  Printf.fprintf oc
    "{\n\
    \  \"suite\": \"parallel\",\n\
    \  \"host_cores\": %d,\n\
    \  \"workloads\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    (Gg_par.Pool.default_jobs ())
    (String.concat ",\n" (List.map curve_json curves));
  close_out oc;
  print_endline "  wrote BENCH_parallel.json"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let fast = List.mem "--fast" args in
  let args = List.filter (fun a -> a <> "--fast") args in
  let jobs = ref 1 in
  let out = ref None in
  let rec strip_opts = function
    | [] -> []
    | ("-j" | "--jobs") :: n :: rest ->
      jobs := int_of_string n;
      strip_opts rest
    | "--out" :: path :: rest ->
      (* JSON output path; lets `make ci` write a throwaway fast run for
         `geogauss bench diff' without clobbering the committed
         baseline *)
      out := Some path;
      strip_opts rest
    | a :: rest -> a :: strip_opts rest
  in
  let args = strip_opts args in
  let json_out = !out in
  let out = Option.value json_out ~default:"BENCH_wallclock.json" in
  Gg_par.Pool.with_pool ~jobs:!jobs @@ fun pool ->
  let run_experiment name =
    if not (Gg_harness.Experiments.run ~fast ~pool ?json_out name) then begin
      Printf.eprintf
        "unknown experiment %s; available: %s micro wallclock parallel\n" name
        (String.concat " " (List.map fst Gg_harness.Experiments.all));
      exit 1
    end
  in
  match args with
  | [] ->
    List.iter
      (fun (name, _) ->
        Printf.printf "=== %s ===\n%!" name;
        run_experiment name)
      Gg_harness.Experiments.all;
    run_micro ();
    run_wallclock ~fast ~pool ~out ()
  | [ "micro" ] -> run_micro ()
  | names ->
    List.iter
      (fun name ->
        match name with
        | "micro" -> run_micro ()
        | "wallclock" -> run_wallclock ~fast ~pool ~out ()
        | "parallel" -> run_parallel ()
        | "merge" -> run_merge ~fast ()
        | _ -> run_experiment name)
      names
