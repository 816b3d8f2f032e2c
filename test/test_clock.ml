(* Tests for the bounded-skew clock model and the clock-assisted epoch
   fast path built on it (DESIGN.md §14): seeded offsets are
   deterministic and never exceed the configured bound, the eocc chaos
   sweep holds all five oracles (crash/recover included), the seal-time
   WAL prelog takes the fsync off the commit path, and the CLI refuses a
   skew budget for an engine that never reads the clock. *)

module Clock = Gg_sim.Clock
module Topology = Gg_sim.Topology
module Scenario = Gg_check.Scenario
module Checker = Gg_check.Checker
module Params = Geogauss.Params

let topo = Topology.china3 ()
let n_nodes = Topology.n_nodes topo

(* --- seeded offsets: determinism + bound --- *)

let sample_times = [ 0; 1; 999; 50_000; 1_000_000; 7_777_777; 60_000_000 ]

let prop_offsets_deterministic =
  QCheck.Test.make ~name:"same seed, same offsets" ~count:50
    QCheck.(pair (int_bound 10_000) (int_bound 50_000))
    (fun (seed, bound_us) ->
      let a = Clock.create ~seed ~topology:topo ~bound_us in
      let b = Clock.create ~seed ~topology:topo ~bound_us in
      List.for_all
        (fun at ->
          List.for_all
            (fun node ->
              Clock.offset_us a ~node ~at = Clock.offset_us b ~node ~at)
            (List.init n_nodes Fun.id))
        sample_times)

let prop_offsets_within_bound =
  QCheck.Test.make ~name:"offsets clamped to the skew bound" ~count:100
    QCheck.(pair (int_bound 10_000) (int_bound 50_000))
    (fun (seed, bound_us) ->
      let c = Clock.create ~seed ~topology:topo ~bound_us in
      List.for_all
        (fun at ->
          List.for_all
            (fun node ->
              let o = Clock.offset_us c ~node ~at in
              abs o <= bound_us
              && Clock.read c ~node ~at = at + o)
            (List.init n_nodes Fun.id))
        sample_times)

let prop_bound_survives_skew_steps =
  (* Injected skew bursts shift the offset but the clamp is an
     invariant: whatever steps a fault schedule lands, no read ever
     strays past the bound. *)
  QCheck.Test.make ~name:"bound survives injected skew steps" ~count:100
    QCheck.(
      triple (int_bound 10_000) (int_bound 50_000)
        (list_of_size (QCheck.Gen.int_range 1 6)
           (pair (int_bound 1_000) (int_range (-200_000) 200_000))))
    (fun (seed, bound_us, steps) ->
      let c = Clock.create ~seed ~topology:topo ~bound_us in
      List.for_all
        (fun (node_raw, delta_us) ->
          let node = node_raw mod n_nodes in
          Clock.inject_step c ~node ~delta_us;
          List.for_all
            (fun at -> abs (Clock.offset_us c ~node ~at) <= bound_us)
            sample_times)
        steps)

(* --- eocc chaos sweep: the five oracles at full strength --- *)

let test_eocc_seeds_pass () =
  (* 50 fast seeds with the fast path pinned on and a 10 ms skew
     budget (plus each scenario's deterministic skew-burst schedule):
     the merge still waits for every peer's EOF, so every oracle must
     hold exactly as it does for the classic engine. *)
  Gg_par.Pool.with_pool ~jobs:0 (fun pool ->
      let report =
        Checker.check ~fast:true ~fastpath:true ~clock_skew_ms:10 ~pool
          ~base:0 ~seeds:50 ()
      in
      Alcotest.(check int) "seeds run" 50 report.Checker.seeds_run;
      Alcotest.(check int) "no violations" 0
        (List.length report.Checker.failures);
      Alcotest.(check bool) "commits happened" true
        (report.Checker.total_commits > 0))

let test_eocc_sweep_pool_parity () =
  (* The eocc sweep streams results in seed order, so the log is
     byte-identical at any pool width. *)
  let capture pool =
    let buf = Buffer.create 256 in
    let r =
      Checker.check
        ~log:(fun l ->
          Buffer.add_string buf l;
          Buffer.add_char buf '\n')
        ~fast:true ~fastpath:true ~clock_skew_ms:10 ~pool ~base:0 ~seeds:3 ()
    in
    (Buffer.contents buf, r)
  in
  let log1, r1 = capture Gg_par.Pool.seq in
  let log4, r4 =
    Gg_par.Pool.with_pool ~jobs:4 (fun pool -> capture pool)
  in
  Alcotest.(check string) "logs byte-identical at -j1 vs -j4" log1 log4;
  Alcotest.(check int) "same commits" r1.Checker.total_commits
    r4.Checker.total_commits;
  Alcotest.(check int) "same failures" (List.length r1.Checker.failures)
    (List.length r4.Checker.failures)

let test_fastpath_scenarios_pinned () =
  (* with_fastpath pins the knobs without redrawing the seed stream:
     the underlying scenario fields are untouched, only the pins and
     the appended skew-burst faults differ. *)
  for seed = 0 to 10 do
    let base = Scenario.generate ~fast:true seed in
    let s = Scenario.with_fastpath base ~clock_skew_ms:10 in
    Alcotest.(check bool) "fastpath pinned" true s.Scenario.fastpath;
    Alcotest.(check int) "skew budget pinned" 10 s.Scenario.clock_skew_ms;
    Alcotest.(check bool) "variant coerced to full engine" true
      (s.Scenario.variant = Params.Optimistic);
    Alcotest.(check int) "same workload draw" base.Scenario.seed s.Scenario.seed;
    Alcotest.(check int) "same node draw" base.Scenario.nodes s.Scenario.nodes;
    (* pinning twice is stable — the skew schedule is salted by seed,
       not drawn from ambient state *)
    let s' = Scenario.with_fastpath base ~clock_skew_ms:10 in
    Alcotest.(check string) "pin is a pure function of the seed"
      (Scenario.to_string s) (Scenario.to_string s')
  done

(* A pinned eocc scenario with a crash/recover cycle: node 1 goes down
   with local write sets sealed and prelogged but not yet merged, then
   rejoins through a state transfer. Both paths drop the prelog
   bookkeeping with the rest of the volatile epoch state; the five
   oracles must hold and the rejoined node must catch up. *)
let test_eocc_crash_recover_passes () =
  let recover_ms = 1_100 in
  let s =
    Scenario.with_fastpath ~clock_skew_ms:10
      {
        (Scenario.generate ~variant:Params.Optimistic ~fast:true 7) with
        Scenario.workload = Scenario.Ycsb_mc;
        ft = Params.Ft_local_backup;
        duration_ms = 2_600;
        faults =
          [
            { Gg_sim.Fault.at_ms = 300; action = Gg_sim.Fault.Crash 1 };
            { Gg_sim.Fault.at_ms = recover_ms; action = Gg_sim.Fault.Recover 1 };
          ];
        arrival = None;
      }
  in
  let o = Checker.run s in
  (match o.Checker.violation with
  | None -> ()
  | Some v -> Alcotest.failf "violation: %s" (Checker.reproducer s v));
  Alcotest.(check bool) "commits happened" true (o.Checker.commits > 0);
  let rejoined = List.nth o.Checker.lsns 1 in
  Alcotest.(check bool)
    (Printf.sprintf "node 1 rejoined (lsn %d)" rejoined)
    true
    (rejoined * s.Scenario.epoch_ms > recover_ms)

(* --- the seal-time WAL prelog --- *)

let mean_log_us params =
  (* write-only: a read-only commit skips the log and would dilute the
     mean below the fsync for either engine *)
  let profile =
    {
      (Gg_workload.Ycsb.with_records Gg_workload.Ycsb.medium_contention 2_000)
      with
      Gg_workload.Ycsb.read_pct = 0.0;
    }
  in
  let _, extra =
    Gg_harness.Driver.run_geogauss ~params ~connections:8
      ~topology:(Topology.china3 ())
      ~load:(Gg_workload.Ycsb.load profile)
      ~gen:(Gg_harness.Driver.ycsb_gens profile ~seed:11)
      ~warmup_ms:200 ~measure_ms:600 ~label:"prelog-test" ()
  in
  let logs =
    List.map (fun (_, (_, _, _, _, l)) -> l) extra.Gg_harness.Driver.phase_means
  in
  List.fold_left ( +. ) 0.0 logs /. float_of_int (List.length logs)

let test_prelog_hides_fsync () =
  (* eocc group-commits the local write sets when the epoch seals, so by
     the time the merge lands only the unfinished part of the fsync is
     left on the commit path; geogauss logs after the merge and pays the
     whole fsync. *)
  let fsync = float_of_int Params.default.Params.cost.Params.log_fsync_us in
  let eocc =
    mean_log_us
      (Params.with_clock_skew_us (Params.with_fastpath Params.default true) 0)
  in
  let geo = mean_log_us Params.default in
  if not (eocc < fsync) then
    Alcotest.failf "eocc mean log phase %.1f us not below fsync %.0f us" eocc
      fsync;
  if not (geo >= fsync) then
    Alcotest.failf "geogauss mean log phase %.1f us below fsync %.0f us" geo
      fsync

(* --- CLI: a skew budget needs a clock reader --- *)

let cli = "../bin/geogauss_cli.exe"

let test_cli_rejects_clock_skew () =
  let status args =
    Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" cli args)
  in
  (* cmdliner's exit code for a command-line error *)
  let cli_error = 124 in
  Alcotest.(check int) "run without an engine" cli_error
    (status "run --clock-skew 5");
  Alcotest.(check int) "run --engine geogauss" cli_error
    (status "run --engine geogauss --clock-skew 5");
  Alcotest.(check int) "check without an engine" cli_error
    (status "check --seeds 1 --clock-skew 5");
  Alcotest.(check int) "check --engine geog-s" cli_error
    (status "check --engine geog-s --seeds 1 --clock-skew 5")

let () =
  Alcotest.run "gg_clock"
    [
      ( "offsets",
        [
          QCheck_alcotest.to_alcotest prop_offsets_deterministic;
          QCheck_alcotest.to_alcotest prop_offsets_within_bound;
          QCheck_alcotest.to_alcotest prop_bound_survives_skew_steps;
        ] );
      ( "eocc",
        [
          Alcotest.test_case "50 fast seeds, five oracles" `Slow
            test_eocc_seeds_pass;
          Alcotest.test_case "byte-identical log across pool -j" `Slow
            test_eocc_sweep_pool_parity;
          Alcotest.test_case "with_fastpath pins, no redraw" `Quick
            test_fastpath_scenarios_pinned;
          Alcotest.test_case "crash/recover scenario, five oracles" `Slow
            test_eocc_crash_recover_passes;
          Alcotest.test_case "prelog hides the fsync" `Slow
            test_prelog_hides_fsync;
          Alcotest.test_case "cli rejects --clock-skew without eocc" `Quick
            test_cli_rejects_clock_skew;
        ] );
    ]
