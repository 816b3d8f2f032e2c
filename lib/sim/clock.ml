module Rng = Gg_util.Rng

type t = {
  bound_us : int;
  base_us : int array;  (* per-node fixed offset component *)
  drift_ppm : int array;  (* per-node rate error, parts per million *)
  step_us : int array;  (* injected skew-burst steps (fault schedules) *)
}

(* Drift magnitude: commodity crystal oscillators sit in the tens of ppm;
   NTP-disciplined clocks well under 100. 200 ppm is a pessimistic cap —
   2 ms of wander over a 10 s run. *)
let max_drift_ppm = 200

let create ~seed ~topology ~bound_us =
  let n = Topology.n_nodes topology in
  let rng = Rng.create (0x10cc + (seed * 0x9e3779b9)) in
  let half = max 0 (bound_us / 2) in
  let base_us =
    Array.init n (fun _ -> if half = 0 then 0 else Rng.int_in rng (-half) half)
  in
  let drift_ppm =
    Array.init n (fun _ ->
        if bound_us = 0 then 0
        else Rng.int_in rng (-max_drift_ppm) max_drift_ppm)
  in
  { bound_us = max 0 bound_us; base_us; drift_ppm; step_us = Array.make n 0 }

let bound_us t = t.bound_us

let offset_us t ~node ~at =
  if t.bound_us = 0 then 0
  else begin
    (* Drift accumulates from t=0; the total offset is clamped to the
       configured bound — the contract an external time service would
       enforce. *)
    let o =
      t.base_us.(node)
      + (t.drift_ppm.(node) * max 0 at / 1_000_000)
      + t.step_us.(node)
    in
    if o > t.bound_us then t.bound_us
    else if o < -t.bound_us then -t.bound_us
    else o
  end

let read t ~node ~at = at + offset_us t ~node ~at

let inject_step t ~node ~delta_us =
  t.step_us.(node) <- t.step_us.(node) + delta_us
