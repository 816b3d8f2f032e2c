module Sim = Gg_sim.Sim
module Net = Gg_sim.Net
module Obs = Gg_obs.Obs
module Cpu = Gg_sim.Cpu
module Topology = Gg_sim.Topology
module Clock = Gg_sim.Clock
module Db = Gg_storage.Db
module Table = Gg_storage.Table
module Csn = Gg_storage.Csn
module Row_header = Gg_storage.Row_header
module Writeset = Gg_crdt.Writeset
module Meta = Gg_crdt.Meta
module Executor = Gg_sql.Executor

(* Monomorphic hash tables for the per-epoch bookkeeping. The stock
   [Hashtbl] hashes tuple keys through the generic polymorphic runtime
   path and allocates a tuple per probe; packing (cen, peer) and
   (ts, node) into single ints keeps the merge loop allocation-free. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) (b : int) = a = b
  let hash = Hashtbl.hash
end)

(* Peer / csn-node ids fit in 10 bits (<= 1024 replicas); csn timestamps
   are sim microseconds, far below the remaining 53 bits. *)
let node_bits = 10
let pack_cp ~cen ~peer = (cen lsl node_bits) lor peer
let cen_of_cp k = k lsr node_bits
let pack_csn (c : Csn.t) = (c.Csn.ts lsl node_bits) lor c.Csn.node

(* Every message kind carries the sender's causal span id (0 when
   tracing is off) so receive-side trace events can reference their
   cross-node parent; the modeled byte counts include a fixed 8-byte
   trace-context header, mirroring the Batch wire form. *)
type msg =
  | Batch_msg of Writeset.Batch.t
  | Batch_wire of bytes
      (* a batch frame as raw wire bytes — what actually crosses a
         corrupting network; decode failure degrades to a lost frame *)
  | Part_vote of {
      cen : int;
      group : int;
      verdicts : (int * bool) list;  (* (packed csn, validated), sorted *)
      span : int;
    }
  | Ft_ack of { cen : int; from : int; span : int }
  | Ft_commit of { cen : int; origin : int; span : int }
  | State_snapshot of { lsn : int; ckpt : bytes; span : int }

type env = {
  sim : Sim.t;
  net : Net.t;
  params : Params.t;
  part : Partitioning.t;
  backup : Backup.t;
  clock : Clock.t;
  mutable members_at : int -> int list;
  mutable deliver : dst:int -> msg -> unit;
  mutable on_snapshot : node:int -> lsn:int -> unit;
  mutable on_commit : Txn.t -> unit;
}

type batch_state = {
  mutable txns : Writeset.t list;  (* newest first, deduplicated by csn *)
  txn_keys : unit Itbl.t;  (* packed csn *)
  mutable eof : bool;
  mutable expected : int;  (* txn count announced by the EOF; -1 until then *)
  mutable committed : bool;  (* Ft_raft gate; true otherwise *)
}

(* A cross-group transaction tracked between its merge epoch [k] and its
   resolution at merge [k + vote_depth] (DESIGN.md §12): the local
   group's fragment and verdict, plus — on the origin node — the client
   transaction to answer once the global decision is known. *)
type cross_entry = {
  ce_key : int;  (* packed csn *)
  ce_origin : int;
  ce_groups : int list;  (* touched groups, sorted *)
  ce_frag : Writeset.t;  (* this node's group fragment *)
  mutable ce_local_ok : bool;
  mutable ce_reason : Txn.abort_reason;
      (* the local abort reason when [ce_local_ok] is false; [Cross_abort]
         otherwise (used when a foreign group's vote rejects) *)
  mutable ce_txn : Txn.t option;
}

type t = {
  id : int;
  env : env;
  obs : Obs.t;
  cpu : Cpu.t;
  db : Db.t;
  wal : Gg_storage.Wal.t;
  metrics : Metrics.t;
  mutable active : bool;
  mutable lsn : int;
  mutable sealed_epoch : int;
  mutable current_send : (int * Writeset.t) list;  (* (cen, ws), newest first *)
  remote : batch_state Itbl.t;  (* packed (cen, peer) *)
  local_sealed : Writeset.t list Itbl.t;  (* cen *)
  waiting : Txn.t list Itbl.t;  (* cen -> local txns *)
  notify_gate : int Itbl.t;  (* cen -> earliest client-notify time *)
  ft_acks : int list ref Itbl.t;  (* cen *)
  sync_queue : Txn.t Queue.t;  (* GeoG-S: held until a fresh snapshot *)
  cross_pending : cross_entry list Itbl.t;  (* cen -> unresolved cross txns *)
  votes : bool Itbl.t Itbl.t;
      (* packed (cen, group) -> packed csn -> foreign group's verdict *)
  last_eof : int array;
  mutable merging : bool;
  mutable csn_last : int;
  mutable txn_seq : int;
  mutable last_advance : int;  (* sim time the snapshot last moved *)
  mutable last_txn_cen : int;  (* highest epoch holding a committed local txn *)
  prelogged : int Itbl.t;
      (* cen -> sim time the fast path group-committed the epoch's local
         write sets at seal (DESIGN.md §14) *)
}

let create env ~id ~db =
  let n = Net.n_nodes env.net in
  let obs = Sim.obs env.sim in
  {
    id;
    env;
    obs;
    cpu = Cpu.create env.sim ~cores:env.params.Params.cores;
    db;
    wal = Gg_storage.Wal.create ~fsync_us:env.params.Params.cost.log_fsync_us ();
    metrics = Metrics.create ~obs ~id ();
    active = true;
    lsn = -1;
    sealed_epoch = -1;
    current_send = [];
    remote = Itbl.create 64;
    local_sealed = Itbl.create 64;
    waiting = Itbl.create 64;
    notify_gate = Itbl.create 64;
    ft_acks = Itbl.create 16;
    sync_queue = Queue.create ();
    cross_pending = Itbl.create 16;
    votes = Itbl.create 32;
    last_eof = Array.make n 0;
    merging = false;
    csn_last = 0;
    txn_seq = 0;
    last_advance = 0;
    last_txn_cen = -1;
    prelogged = Itbl.create 16;
  }

let id t = t.id
let db t = t.db
let lsn t = t.lsn
let sealed_epoch t = t.sealed_epoch
let metrics t = t.metrics
let active t = t.active

let pending_waiting t =
  Itbl.fold (fun _ l acc -> acc + List.length l) t.waiting 0

let last_txn_epoch t = t.last_txn_cen

let now t = Sim.now t.env.sim
let epoch_us t = t.env.params.Params.epoch_us
let epoch_of t time = time / epoch_us t

(* Everything clock-related is gated on the fastpath flag: with it off no
   {!Clock} read ever happens, so the classic engine's event stream (and
   its byte-level output) is untouched. *)
let fastpath_on t = t.env.params.Params.fastpath

let local_now t =
  if fastpath_on t then Clock.read t.env.clock ~node:t.id ~at:(now t)
  else now t

(* Under the fast path epochs are cut by the node's LOCAL clock, so the
   epoch a new transaction enters follows the local reading — floored at
   [sealed_epoch + 1], because a slow clock must not assign transactions
   to an epoch whose EOF already went out. *)
let current_epoch t =
  if fastpath_on t then
    max (epoch_of t (local_now t)) (t.sealed_epoch + 1)
  else epoch_of t (now t)

let last_eof_from t ~peer = t.last_eof.(peer)
let touch_eof t ~peer = t.last_eof.(peer) <- Sim.now t.env.sim

(* Commit timestamps come from the (possibly skewed) local clock under
   the fast path and stay monotone per node either way. *)
let fresh_csn t =
  let ts = max (local_now t) (t.csn_last + 1) in
  t.csn_last <- ts;
  Csn.make ~ts ~node:t.id

let send_msg t ~dst ~bytes msg =
  let env = t.env in
  Net.send env.net ~src:t.id ~dst ~bytes (fun () -> env.deliver ~dst msg)

let broadcast t ~bytes msg =
  for dst = 0 to Net.n_nodes t.env.net - 1 do
    if dst <> t.id then send_msg t ~dst ~bytes msg
  done

(* --- partial replication (DESIGN.md §12) --- *)

let my_group t = Partitioning.group_of_node t.env.part t.id

(* Foreign group [group]'s verdict on cross transaction [key] of epoch
   [cen]: [Some v] once known, [None] while still awaited. For a group
   with no member left in the resolution epoch's view, the durable
   backup votes are adopted (first-write-wins and written before the
   crash, so every survivor reads the same value); a group that died
   before voting counts as a rejection — the conservative default that
   keeps survivors agreed. *)
let vote_status t ~cen ~group key =
  let direct =
    match Itbl.find_opt t.votes (pack_cp ~cen ~peer:group) with
    | Some tbl -> Itbl.find_opt tbl key
    | None -> None
  in
  match direct with
  | Some _ as s -> s
  | None ->
    let part = t.env.part in
    let alive =
      List.exists
        (fun m -> Partitioning.group_of_node part m = group)
        (t.env.members_at (cen + Partitioning.vote_depth part))
    in
    if alive then None
    else
      Some
        (match Backup.get_votes t.env.backup ~group ~cen with
        | Some vs -> (
          match List.assoc_opt key vs with Some v -> v | None -> false)
        | None -> false)

let store_votes t ~cen ~group verdicts =
  let key = pack_cp ~cen ~peer:group in
  let tbl =
    match Itbl.find_opt t.votes key with
    | Some tbl -> tbl
    | None ->
      let tbl = Itbl.create 8 in
      Itbl.replace t.votes key tbl;
      tbl
  in
  List.iter
    (fun (k, ok) -> if not (Itbl.mem tbl k) then Itbl.replace tbl k ok)
    verdicts

(* Batch frames pass through [send_batch] so the chaos checker's
   corruption fault can mangle them: a corrupted frame travels as raw
   wire bytes truncated to half (which guarantees the decoder trips) and
   is billed at the ORIGINAL frame size — corruption does not discount
   the WAN bill. With [corrupt_frac] at its default 0.0 no RNG draw
   happens and the frame goes out as a structured message, exactly as
   before. *)
let send_batch t ~dst ~bytes (b : Writeset.Batch.t) =
  let env = t.env in
  if Net.corrupt_frac env.net > 0.0 && Net.draw_corrupt env.net then begin
    let wire = Writeset.Batch.to_wire b in
    let mangled = Bytes.sub wire 0 (Bytes.length wire / 2) in
    Net.send env.net ~src:t.id ~dst ~bytes (fun () ->
        env.deliver ~dst (Batch_wire mangled))
  end
  else
    Net.send env.net ~src:t.id ~dst ~bytes (fun () ->
        env.deliver ~dst (Batch_msg b))

let broadcast_batch t ~bytes b =
  for dst = 0 to Net.n_nodes t.env.net - 1 do
    if dst <> t.id then send_batch t ~dst ~bytes b
  done

(* Nodes interested in a write set: the members of every touched group. *)
let interest_targets t (ws : Writeset.t) =
  let part = t.env.part in
  let n = Net.n_nodes t.env.net in
  let want = Array.make n false in
  List.iter
    (fun g ->
      List.iter (fun m -> want.(m) <- true) (Partitioning.members part g))
    (Partitioning.touched_groups part ws);
  want.(t.id) <- false;
  let acc = ref [] in
  for dst = n - 1 downto 0 do
    if want.(dst) then acc := dst :: !acc
  done;
  !acc

(* --- fault-tolerance notification gates (§5.2) --- *)

(* Earliest time clients of epoch [cen] may be answered, measured from
   the epoch seal time. *)
let ft_gate_delay t =
  let topo = Net.topology t.env.net in
  match t.env.params.Params.ft with
  | Params.Ft_none | Params.Ft_raft -> 0
  | Params.Ft_local_backup ->
    (* round trip to a same-region backup server *)
    2 * Topology.latency topo t.id t.id
  | Params.Ft_remote_backup ->
    (* round trip to the nearest other-region backup *)
    let best = ref max_int in
    for p = 0 to Topology.n_nodes topo - 1 do
      if Topology.region_of topo p <> Topology.region_of topo t.id then
        best := min !best (Topology.latency topo t.id p)
    done;
    if !best = max_int then 0 else 2 * !best

(* --- GeoG-A: coordination-free LWW apply (used by Async_merge) --- *)

let lww_apply t (ws : Writeset.t) =
  let meta = ws.Writeset.meta in
  List.iter
    (fun (r : Writeset.record) ->
      match Db.get_table t.db r.Writeset.table with
      | None -> ()
      | Some table -> (
        let key_str = Writeset.key_str r in
        match Table.find table key_str with
        | Some entry ->
          if Csn.compare meta.Meta.csn entry.Table.header.Row_header.csn > 0
          then begin
            Row_header.stamp entry.Table.header ~sen:meta.Meta.sen
              ~csn:meta.Meta.csn ~cen:meta.Meta.cen;
            (* The stamp alone is digest-relevant (a delete over an
               existing tombstone changes only the header). *)
            Table.touch table;
            match r.Writeset.op with
            | Writeset.Delete -> Table.delete table entry
            | Writeset.Insert | Writeset.Update ->
              Table.revive table entry r.Writeset.data
          end
        | None -> (
          match r.Writeset.op with
          | Writeset.Delete -> ()
          | Writeset.Insert | Writeset.Update ->
            let header = Row_header.create () in
            Row_header.stamp header ~sen:meta.Meta.sen ~csn:meta.Meta.csn
              ~cen:meta.Meta.cen;
            Table.insert_committed table ~key:r.Writeset.key
              ~data:r.Writeset.data ~header)))
    ws.Writeset.records

(* --- finishing transactions --- *)

(* Per-transaction span: five Algorithm-1 phase events back-dated
   cumulatively from the submit time, a commit-point marker when the
   transaction entered an epoch, then the commit/abort terminator. The
   span id is the node-tagged causal span allocated at submit; the
   commit event's parent is the span of the deciding epoch merge, which
   links the transaction into the cross-node causal DAG. *)
let emit_txn_span t (txn : Txn.t) outcome =
  let p = txn.Txn.phases in
  if txn.Txn.span = 0 then txn.Txn.span <- Obs.new_span t.obs ~node:t.id;
  let span = txn.Txn.span in
  (* cen defaults to 0; only transactions that reached the commit point
     with a write set actually belong to an epoch. *)
  let epoch = if txn.Txn.commit_point > 0 then txn.Txn.cen else -1 in
  let start = ref txn.Txn.submit_time in
  let phase name dur =
    Obs.emit t.obs ~at:!start ~node:t.id ~epoch ~span ~dur ~cat:"txn" name;
    start := !start + max 0 dur
  in
  phase "phase.parse" p.Txn.parse_us;
  phase "phase.exec" p.Txn.exec_us;
  phase "phase.wait" p.Txn.wait_us;
  phase "phase.merge" p.Txn.merge_us;
  phase "phase.log" p.Txn.log_us;
  if txn.Txn.commit_point > 0 then
    Obs.emit t.obs ~at:txn.Txn.commit_point ~node:t.id ~epoch ~span ~cat:"txn"
      "commit.point";
  let parent = if txn.Txn.merge_span > 0 then txn.Txn.merge_span else -1 in
  match outcome with
  | Txn.Committed { latency_us; _ } ->
    Obs.emit t.obs ~node:t.id ~epoch ~span ~parent ~dur:latency_us ~cat:"txn"
      "commit"
  | Txn.Aborted { latency_us; reason } ->
    Obs.emit t.obs ~node:t.id ~epoch ~span ~parent ~dur:latency_us ~cat:"txn"
      "abort"
      ~detail:(Txn.abort_reason_to_string reason)

let finish t (txn : Txn.t) outcome =
  if not txn.Txn.finished then begin
    txn.Txn.finished <- true;
    Metrics.record_outcome t.metrics outcome;
    (match outcome with
    | Txn.Committed _ -> Metrics.record_phases t.metrics txn.Txn.phases
    | Txn.Aborted _ -> ());
    if Obs.tracing t.obs then emit_txn_span t txn outcome;
    (match outcome with
    | Txn.Committed _ -> t.env.on_commit txn
    | Txn.Aborted _ -> ());
    txn.Txn.callback outcome
  end

let finish_committed t txn =
  finish t txn
    (Txn.Committed
       {
         latency_us = now t - txn.Txn.submit_time;
         results = txn.Txn.sql_results;
       })

let finish_aborted t txn reason =
  finish t txn (Txn.Aborted { latency_us = now t - txn.Txn.submit_time; reason })

(* --- deferred cross-group write-back (DESIGN.md §12) --- *)

(* Write back this group's fragment of a globally committed cross-group
   transaction, deferred from its merge epoch [k] to its resolution.
   Phase A of merge [k] already stamped the headers of the live rows
   this transaction won (Update/Delete), so the data lands only where
   the header still carries this transaction's stamp — anywhere else a
   later epoch's winner has already superseded it. Inserts went to the
   (since cleared) temporary list, so they materialise here unless a
   newer row or tombstone appeared in the vote window. *)
let apply_deferred t ce =
  let ws = ce.ce_frag in
  let meta = ws.Writeset.meta in
  List.iter
    (fun (r : Writeset.record) ->
      match Db.get_table t.db r.Writeset.table with
      | None -> ()
      | Some table -> (
        let key_str = Writeset.key_str r in
        let mine (entry : Table.entry) =
          entry.Table.header.Row_header.cen = meta.Meta.cen
          && Csn.equal entry.Table.header.Row_header.csn meta.Meta.csn
        in
        match r.Writeset.op with
        | Writeset.Insert -> (
          match Table.find table key_str with
          | None ->
            let header = Row_header.create () in
            Row_header.stamp header ~sen:meta.Meta.sen ~csn:meta.Meta.csn
              ~cen:meta.Meta.cen;
            Table.insert_committed table ~key:r.Writeset.key
              ~data:r.Writeset.data ~header
          | Some entry ->
            (* an older tombstone: revive it; any stamp from epoch >= k
               means a later writer superseded this insert *)
            if entry.Table.header.Row_header.cen < meta.Meta.cen then begin
              Row_header.stamp entry.Table.header ~sen:meta.Meta.sen
                ~csn:meta.Meta.csn ~cen:meta.Meta.cen;
              Table.touch table;
              Table.revive table entry r.Writeset.data
            end)
        | Writeset.Update -> (
          match Table.find table key_str with
          | None -> ()
          | Some entry ->
            if mine entry && not entry.Table.header.Row_header.deleted then
              Table.write table entry r.Writeset.data)
        | Writeset.Delete -> (
          match Table.find table key_str with
          | None -> ()
          | Some entry ->
            if mine entry && not entry.Table.header.Row_header.deleted then
              Table.delete table entry)))
    ws.Writeset.records

(* Resolve the cross-group transactions of epoch [rk] = e - vote_depth:
   merge-readiness demanded every touched group's verdict before the
   merge of [e] could start, so the global decision is now a pure
   function of agreed state. Entries are processed in packed-csn order,
   so every member of the group applies the same fragments in the same
   sequence. *)
let resolve_cross t e ~span =
  let part = t.env.part in
  let rk = e - Partitioning.vote_depth part in
  if Partitioning.enabled part && rk >= 0 then begin
    (match Itbl.find_opt t.cross_pending rk with
    | None -> ()
    | Some entries ->
      let entries = List.sort (fun a b -> compare a.ce_key b.ce_key) entries in
      let my = my_group t in
      List.iter
        (fun ce ->
          let ok =
            ce.ce_local_ok
            && List.for_all
                 (fun g ->
                   g = my || vote_status t ~cen:rk ~group:g ce.ce_key = Some true)
                 ce.ce_groups
          in
          if ok then apply_deferred t ce;
          if Obs.tracing t.obs then
            Obs.emit t.obs ~node:t.id ~epoch:rk ~span ~cat:"epoch"
              "cross.resolve"
              ~detail:
                (Printf.sprintf "csn=%d ok=%b groups=%d" ce.ce_key ok
                   (List.length ce.ce_groups));
          match ce.ce_txn with
          | None -> ()
          | Some txn ->
            txn.Txn.merge_span <- span;
            txn.Txn.phases.wait_us <-
              txn.Txn.phases.wait_us + (now t - txn.Txn.commit_point);
            if ok then begin
              let ws_bytes =
                match txn.Txn.writeset with
                | Some ws -> Writeset.encoded_size ws
                | None -> 0
              in
              let log_us = Gg_storage.Wal.append t.wal ~bytes:ws_bytes in
              txn.Txn.phases.log_us <- log_us;
              Sim.schedule t.env.sim ~after:log_us (fun () ->
                  Metrics.record_epoch_commit t.metrics ~cen:rk
                    ~latency_us:(now t - txn.Txn.submit_time);
                  finish_committed t txn)
            end
            else finish_aborted t txn ce.ce_reason)
        entries);
    Itbl.remove t.cross_pending rk;
    for g = 0 to Partitioning.n_groups part - 1 do
      Itbl.remove t.votes (pack_cp ~cen:rk ~peer:g)
    done
  end

(* --- epoch sealing --- *)

let seal_epoch t e =
  let mine, rest = List.partition (fun (cen, _) -> cen = e) t.current_send in
  t.current_send <- rest;
  let txns = List.rev_map snd mine in
  Itbl.replace t.local_sealed e txns;
  (* One span per sealed epoch batch: the EOF's wire header carries it to
     every peer, whose batch.recv events become its causal children. *)
  let bspan = Obs.new_span t.obs ~node:t.id in
  let batch =
    Writeset.Batch.make ~node:t.id ~cen:e ~txns ~eof:true ~span:bspan ()
  in
  Backup.put t.env.backup batch;
  let part = t.env.part in
  if Partitioning.enabled part then begin
    (* Interest-scoped dissemination: each replica group receives one
       EOF frame per epoch carrying (or, with pipelining, counting) only
       the transactions that touch its keys. Every node still hears an
       EOF from every peer every epoch, so the failure detector and the
       merge-readiness rule are unchanged; the backup above keeps the
       full batch for stall repair and view changes. *)
    if Obs.tracing t.obs then
      Obs.emit t.obs ~node:t.id ~epoch:e ~span:bspan ~cat:"epoch" "seal"
        ~detail:(Printf.sprintf "txns=%d" (List.length txns));
    for g = 0 to Partitioning.n_groups part - 1 do
      let gtxns = List.filter (Partitioning.touches part ~group:g) txns in
      let wire_batch =
        if t.env.params.Params.pipeline then
          Writeset.Batch.make ~node:t.id ~cen:e ~txns:[] ~eof:true
            ~count:(List.length gtxns) ~span:bspan ()
        else
          Writeset.Batch.make ~node:t.id ~cen:e ~txns:gtxns ~eof:true
            ~span:bspan ()
      in
      let bytes = Writeset.Batch.wire_size wire_batch in
      if Obs.tracing t.obs then
        Obs.emit t.obs ~node:t.id ~epoch:e ~span:bspan ~cat:"epoch"
          "batch.send"
          ~detail:(Printf.sprintf "group=%d bytes=%d" g bytes);
      List.iter
        (fun dst -> if dst <> t.id then send_batch t ~dst ~bytes wire_batch)
        (Partitioning.members part g)
    done
  end
  else begin
    (* With pipelining the write sets already went out in mini-batches;
       only the EOF marker (carrying the expected count) travels now. *)
    let wire_batch =
      if t.env.params.Params.pipeline then
        Writeset.Batch.make ~node:t.id ~cen:e ~txns:[] ~eof:true
          ~count:(List.length txns) ~span:bspan ()
      else batch
    in
    (* Encode+compress of a large outgoing batch is the other hot kernel
       of the epoch boundary: shard the per-transaction encodes across
       the merge domains when the batch is big enough to pay for the
       spawns. [to_wire_par] is byte-identical to [to_wire] at any
       width, so the wire size (and every simulated byte count) never
       depends on it. *)
    let enc_jobs = Epoch_merge.resolve_jobs t.env.params in
    (if enc_jobs > 1 then
       let batch_records =
         List.fold_left
           (fun n (ws : Writeset.t) -> n + List.length ws.Writeset.records)
           0 wire_batch.Writeset.Batch.txns
       in
       if batch_records >= max 1 t.env.params.Params.merge_par_threshold then
         ignore
           (Writeset.Batch.to_wire_par ~jobs:(Epoch_merge.clamp_jobs enc_jobs)
              wire_batch));
    let bytes = Writeset.Batch.wire_size wire_batch in
    if Obs.tracing t.obs then begin
      Obs.emit t.obs ~node:t.id ~epoch:e ~span:bspan ~cat:"epoch" "seal"
        ~detail:(Printf.sprintf "txns=%d" (List.length txns));
      Obs.emit t.obs ~node:t.id ~epoch:e ~span:bspan ~cat:"epoch" "batch.send"
        ~detail:(Printf.sprintf "bytes=%d" bytes)
    end;
    broadcast_batch t ~bytes wire_batch
  end;
  Itbl.replace t.notify_gate e (now t + ft_gate_delay t);
  (* Fast-path WAL prelog: the epoch's local write sets are frozen from
     here on, so their group commit starts now and overlaps the EOF
     flight instead of following the merge. Logging a write set before
     its verdict is safe because recovery only applies the verdicts of
     merged epochs; an aborted write set is logged, never installed.
     Partial replication keeps the classic order: its cross-group votes
     already hold the answer past the merge. *)
  (if fastpath_on t && not (Partitioning.enabled part) then
     match Itbl.find_opt t.waiting e with
     | None -> ()
     | Some locals ->
       Itbl.replace t.prelogged e (now t);
       List.iter
         (fun (txn : Txn.t) ->
           match txn.Txn.writeset with
           | Some ws ->
             txn.Txn.phases.log_us <-
               Gg_storage.Wal.append t.wal ~bytes:(Writeset.encoded_size ws)
           | None -> ())
         locals);
  t.sealed_epoch <- e

let rec schedule_boundary t e =
  let b = (e + 1) * epoch_us t in
  (* Under the fast path each node seals on its LOCAL clock: the boundary
     fires at the sim time where the local reading crosses [b]
     (first-order inversion of the offset; drift over one epoch is
     negligible). A fast clock seals early, a slow one late; peers
     still merge only once every EOF is in. *)
  let at =
    if fastpath_on t then b - Clock.offset_us t.env.clock ~node:t.id ~at:b
    else b
  in
  Sim.schedule_at t.env.sim at (fun () ->
      if t.active && not (Net.is_down t.env.net t.id) then begin
        seal_epoch t e;
        try_advance t
      end;
      schedule_boundary t (e + 1))

(* --- the per-epoch merge: Algorithm 2 + validation + write-back --- *)

and collect_epoch_txns t e =
  (* Local + all remote updates of epoch e, deduplicated by csn (the
     network may duplicate; merge must stay idempotent). Under partial
     replication a remote write set is kept only if it touches this
     node's group: normal dissemination never delivers others, but a
     stall repair fetches the sender's FULL backup batch — dropping the
     foreign-only entries here keeps both paths equivalent. Local
     transactions always stay (their outcome is owed to the client). *)
  let part = t.env.part in
  let keep (ws : Writeset.t) =
    (not (Partitioning.enabled part))
    || Partitioning.touches part ~group:(my_group t) ws
  in
  let seen = Itbl.create 64 in
  let add acc (ws : Writeset.t) =
    let k = pack_csn ws.Writeset.meta.Meta.csn in
    if Itbl.mem seen k then acc
    else begin
      Itbl.replace seen k ();
      ws :: acc
    end
  in
  let acc =
    List.fold_left add []
      (Option.value ~default:[] (Itbl.find_opt t.local_sealed e))
  in
  let acc =
    List.fold_left
      (fun acc peer ->
        if peer = t.id then acc
        else
          match Itbl.find_opt t.remote (pack_cp ~cen:e ~peer) with
          | None -> acc
          | Some bs ->
            List.fold_left
              (fun acc ws -> if keep ws then add acc ws else acc)
              acc (List.rev bs.txns))
      acc
      (t.env.members_at e)
  in
  List.rev acc

and cross_ready t e =
  (* All foreign verdicts for the cross transactions merged at epoch [e]
     are in (or synthesisable from a dead group's backup record). *)
  e < 0
  || (not (Partitioning.enabled t.env.part))
  ||
  match Itbl.find_opt t.cross_pending e with
  | None -> true
  | Some entries ->
    let my = my_group t in
    List.for_all
      (fun ce ->
        List.for_all
          (fun g -> g = my || vote_status t ~cen:e ~group:g ce.ce_key <> None)
          ce.ce_groups)
      entries

and peer_complete t ~cen ~peer =
  match Itbl.find_opt t.remote (pack_cp ~cen ~peer) with
  | Some bs ->
    bs.eof
    && Itbl.length bs.txn_keys >= bs.expected
    && (bs.committed || t.env.params.Params.ft <> Params.Ft_raft)
  | None -> false

and merge_ready t e =
  t.sealed_epoch >= e
  && cross_ready t (e - Partitioning.vote_depth t.env.part)
  && List.for_all
       (fun peer -> peer = t.id || peer_complete t ~cen:e ~peer)
       (t.env.members_at e)

and try_advance t =
  if t.active && not t.merging then begin
    let e = t.lsn + 1 in
    if merge_ready t e then begin
      t.merging <- true;
      let txns = collect_epoch_txns t e in
      let part = t.env.part in
      (* Simulated merge work under partial replication counts only the
         records this group actually merges (its fragments) plus the
         deferred cross-group fragments resolving at this merge. *)
      let n_records =
        if Partitioning.enabled part then
          let my = my_group t in
          List.fold_left
            (fun n (ws : Writeset.t) ->
              List.fold_left
                (fun n r ->
                  if Partitioning.group_of_record part r = my then n + 1 else n)
                n ws.Writeset.records)
            0 txns
        else
          List.fold_left
            (fun n ws -> n + List.length ws.Writeset.records)
            0 txns
      in
      let resolve_records =
        if not (Partitioning.enabled part) then 0
        else
          match
            Itbl.find_opt t.cross_pending (e - Partitioning.vote_depth part)
          with
          | None -> 0
          | Some entries ->
            List.fold_left
              (fun n ce -> n + List.length ce.ce_frag.Writeset.records)
              0 entries
      in
      let cost = t.env.params.Params.cost in
      (* Every blocked transaction thread is checked/notified around each
         snapshot generation (§5.1): with short epochs this scan
         dominates, which is why the paper's Fig 8 peaks at ~10 ms. *)
      let duration =
        cost.merge_base_us
        + (pending_waiting t * cost.notify_us)
        + ((n_records + resolve_records) * cost.merge_record_us
          / max 1 cost.merge_threads)
      in
      let span = Obs.new_span t.obs ~node:t.id in
      if Obs.tracing t.obs then
        Obs.emit t.obs ~node:t.id ~epoch:e ~span ~dur:duration ~cat:"epoch"
          "merge.start"
          ~detail:(Printf.sprintf "txns=%d records=%d" (List.length txns) n_records);
      Sim.schedule t.env.sim ~after:duration (fun () ->
          do_merge t e txns ~duration ~span;
          t.merging <- false;
          try_advance t)
    end
  end

and do_merge t e full ~duration ~span =
  let part = t.env.part in
  let enabled = Partitioning.enabled part in
  (* Settle the cross-group transactions whose vote window ends here,
     before this epoch's own merge reads the database. *)
  resolve_cross t e ~span;
  let my = my_group t in
  (* Under partial replication each node merges its group's FRAGMENT of
     every write set. Cross-group transactions (touching several groups,
     or a local transaction writing only foreign groups) are merged
     normally but their write-back is deferred until every touched
     group's verdict arrives, [vote_depth] epochs later. *)
  let cross : cross_entry Itbl.t = Itbl.create 16 in
  let txns =
    if not enabled then full
    else
      List.map
        (fun (ws : Writeset.t) ->
          let frag = Partitioning.fragment part ~group:my ws in
          let gs = Partitioning.touched_groups part ws in
          let deferred =
            match gs with
            | [] -> false
            | [ g ] -> g <> my (* local txn writing only a foreign group *)
            | _ :: _ :: _ -> true
          in
          (if deferred then
             let key = pack_csn ws.Writeset.meta.Meta.csn in
             Itbl.replace cross key
               {
                 ce_key = key;
                 ce_origin = ws.Writeset.meta.Meta.csn.Csn.node;
                 ce_groups = gs;
                 ce_frag = frag;
                 ce_local_ok = false;
                 ce_reason = Txn.Cross_abort;
                 ce_txn = None;
               });
          frag)
        full
  in
  (* Phases A–C (DeltaCRDTMerge pre-write, validation, SSI, write-back)
     live in {!Epoch_merge}; [merge_jobs] shards them across host
     domains with byte-identical results (DESIGN.md §10). *)
  let m =
    Epoch_merge.run ~threshold:t.env.params.Params.merge_par_threshold
      ~db:t.db
      ~jobs:(Epoch_merge.resolve_jobs t.env.params)
      ~ssi:(t.env.params.Params.isolation = Params.SSI)
      ~level:(Params.effective_merge_level t.env.params)
      ~defer:(fun ws -> Itbl.mem cross (pack_csn ws.Writeset.meta.Meta.csn))
      txns
  in
  let entries =
    if not enabled then []
    else
      Itbl.fold
        (fun _ ce acc ->
          ce.ce_local_ok <- Epoch_merge.committed m ce.ce_frag;
          if not ce.ce_local_ok then
            ce.ce_reason <- Epoch_merge.abort_reason m ce.ce_frag;
          ce :: acc)
        cross []
  in
  if entries <> [] then Itbl.replace t.cross_pending e entries;
  Metrics.record_merged_records t.metrics (Epoch_merge.n_records m);
  t.lsn <- e;
  t.last_advance <- now t;
  if Obs.tracing t.obs then
    Obs.emit t.obs ~node:t.id ~epoch:e ~span ~dur:duration ~cat:"epoch"
      "merge.commit"
      ~detail:
        (Printf.sprintf "committed=%d dead=%d records=%d"
           (Epoch_merge.n_committed m) (Epoch_merge.n_dead m)
           (Epoch_merge.n_records m));
  (* Tombstone GC: Algorithm 2 only needs tombstones for "the past few
     epochs"; keep a generous window and reclaim the rest. *)
  if e mod 100 = 0 then ignore (Db.purge_tombstones t.db ~before_cen:(e - 100));
  (* Notify the local transactions of this epoch. *)
  let locals = Option.value ~default:[] (Itbl.find_opt t.waiting e) in
  let gate = Option.value ~default:0 (Itbl.find_opt t.notify_gate e) in
  let merge_started = now t - duration in
  let prelogged_at = Itbl.find_opt t.prelogged e in
  List.iter
    (fun (txn : Txn.t) ->
      match
        if enabled then Itbl.find_opt cross (pack_csn txn.Txn.csn) else None
      with
      | Some ce ->
        (* Cross-group: the client is answered at resolution, after the
           foreign groups' votes are in. *)
        ce.ce_txn <- Some txn;
        txn.Txn.phases.merge_us <- duration
      | None ->
        txn.Txn.merge_span <- span;
        txn.Txn.phases.wait_us <-
          txn.Txn.phases.wait_us + (merge_started - txn.Txn.commit_point);
        txn.Txn.phases.merge_us <- duration;
        let ws_bytes =
          match txn.Txn.writeset with
          | Some ws -> Writeset.encoded_size ws
          | None -> 0
        in
        let log_us =
          match prelogged_at with
          | Some logged_at ->
            (* group commit already issued at seal; only the unfinished
               remainder (if any) is still on the commit path, which is
               what the log phase records *)
            max 0 (logged_at + txn.Txn.phases.log_us - now t)
          | None -> Gg_storage.Wal.append t.wal ~bytes:ws_bytes
        in
        txn.Txn.phases.log_us <- log_us;
        let extra_gate = max 0 (gate - now t) in
        Sim.schedule t.env.sim ~after:(extra_gate + log_us) (fun () ->
            match txn.Txn.writeset with
            | Some ws when Epoch_merge.committed m ws ->
              Metrics.record_epoch_commit t.metrics ~cen:e
                ~latency_us:(now t - txn.Txn.submit_time);
              finish_committed t txn
            | Some ws -> finish_aborted t txn (Epoch_merge.abort_reason m ws)
            | None -> finish_aborted t txn Txn.Write_conflict))
    locals;
  (* Vote dissemination: after merging epoch [e], this group's members
     each send the (identical, csn-sorted) verdict list for the cross
     transactions that touched the group — to the members of the other
     touched groups and to the origin nodes — and record it durably so
     a lost vote (or a dead group) can be repaired from the backup. *)
  (if enabled then
     let mine_entries = List.filter (fun ce -> List.mem my ce.ce_groups) entries in
     (* A transaction that touches ONLY this group but originated outside
        it merges on the fast path here (no deferral), yet its origin
        deferred it and waits for this group's verdict — so it must
        appear in the vote even though it has no cross entry locally. *)
     let vote_only =
       List.filter_map
         (fun (ws : Writeset.t) ->
           let key = pack_csn ws.Writeset.meta.Meta.csn in
           if Itbl.mem cross key then None
           else
             let origin = ws.Writeset.meta.Meta.csn.Csn.node in
             if Partitioning.group_of_node part origin = my then None
             else
               match Partitioning.touched_groups part ws with
               | [ g ] when g = my ->
                 Some (key, Epoch_merge.committed m ws, origin)
               | _ -> None)
         full
     in
     let verdicts =
       List.sort compare
         (List.map (fun ce -> (ce.ce_key, ce.ce_local_ok)) mine_entries
         @ List.map (fun (key, ok, _) -> (key, ok)) vote_only)
     in
     if verdicts <> [] then begin
       Backup.put_votes t.env.backup ~group:my ~cen:e verdicts;
       (* Every member records the (identical) verdict list durably, but
          only the group's first member — its speaker — puts it on the
          wire: the list is a deterministic function of the group's
          merge, so N-1 of the N copies are redundant, and at 200
          replicas that redundancy is what would dominate the WAN bill.
          A dead or lagging speaker is covered by the stall-repair
          refetch from the backup. *)
       let speaker =
         match Partitioning.members part my with m0 :: _ -> m0 | [] -> t.id
       in
       if t.id = speaker then begin
       let nn = Net.n_nodes t.env.net in
       let want = Array.make nn false in
       List.iter
         (fun ce ->
           List.iter
             (fun g ->
               if g <> my then
                 List.iter
                   (fun m' -> want.(m') <- true)
                   (Partitioning.members part g))
             ce.ce_groups;
           want.(ce.ce_origin) <- true)
         mine_entries;
       List.iter (fun (_, _, origin) -> want.(origin) <- true) vote_only;
       want.(t.id) <- false;
       (* header + epoch/group ids + 9 bytes per (csn, verdict) pair *)
       let bytes = 8 + 16 + (9 * List.length verdicts) in
       for dst = 0 to nn - 1 do
         if want.(dst) then
           send_msg t ~dst ~bytes
             (Part_vote { cen = e; group = my; verdicts; span })
       done
       end
     end);
  (* Bounded memory: drop per-epoch bookkeeping. *)
  Itbl.remove t.waiting e;
  Itbl.remove t.local_sealed e;
  Itbl.remove t.notify_gate e;
  Itbl.remove t.prelogged e;
  Itbl.remove t.ft_acks e;
  List.iter
    (fun peer -> Itbl.remove t.remote (pack_cp ~cen:e ~peer))
    (t.env.members_at e);
  t.env.on_snapshot ~node:t.id ~lsn:e;
  (* GeoG-S: a fresh snapshot releases held transactions. *)
  release_sync_queue t

(* --- Algorithm 1: local transaction lifecycle --- *)

and release_sync_queue t =
  if t.env.params.Params.variant = Params.Sync_exec then begin
    let ready = Queue.create () in
    Queue.transfer t.sync_queue ready;
    Queue.iter (fun txn -> start_execution t txn) ready
  end

and submit t request callback =
  let txn =
    Txn.create ~id:t.txn_seq ~node:t.id ~request ~submit_time:(now t) ~callback
  in
  t.txn_seq <- t.txn_seq + 1;
  txn.Txn.span <- Obs.new_span t.obs ~node:t.id;
  Metrics.record_start t.metrics;
  if (not t.active) || Net.is_down t.env.net t.id then
    finish_aborted t txn Txn.Node_failure
  else begin
    txn.Txn.sen <- current_epoch t;
    txn.Txn.lsn <- t.lsn;
    match t.env.params.Params.variant with
    | Params.Sync_exec when t.lsn < current_epoch t - 1 ->
      Queue.add txn t.sync_queue
    | Params.Sync_exec | Params.Optimistic | Params.Async_merge ->
      start_execution t txn
  end

and start_execution t (txn : Txn.t) =
  let cost = t.env.params.Params.cost in
  (* Time spent queued before execution (GeoG-S holds) counts as wait. *)
  txn.Txn.phases.wait_us <- now t - txn.Txn.submit_time;
  match txn.Txn.request with
  | Txn.Op_txn o ->
    (* Stored-procedure style: parse, then one execution slice. Reads
       happen at the start of the slice; the commit point comes exec_us
       (+ injected delay) later, so the snapshot may move underneath —
       that is what RR/SI validation catches. *)
    let parse_us = o.Gg_workload.Op.parse_cost_us in
    let exec_us = Gg_workload.Op.n_ops o * cost.exec_op_us in
    let extra_us = o.Gg_workload.Op.exec_extra_us in
    txn.Txn.phases.parse_us <- parse_us;
    txn.Txn.phases.exec_us <- exec_us + extra_us;
    Cpu.run t.cpu ~cost:parse_us (fun () ->
        match run_ops t txn o with
        | Error m ->
          Cpu.run t.cpu ~cost:exec_us (fun () ->
              finish_aborted t txn (Txn.Constraint_violation m))
        | Ok () ->
          Cpu.run t.cpu ~cost:exec_us (fun () ->
              if extra_us > 0 then
                Sim.schedule t.env.sim ~after:extra_us (fun () -> commit_point t txn)
              else commit_point t txn))
  | Txn.Sql_txn { stmts; _ } ->
    (* Interactive SQL executes statement by statement: each statement
       pays its own parse + execution slice, so later statements observe
       whatever snapshots were generated in the meantime (the source of
       RR/SI read-validation aborts). *)
    let per_stmt_parse = 400 in
    txn.Txn.phases.parse_us <- List.length stmts * per_stmt_parse;
    txn.Txn.phases.exec_us <- List.length stmts * cost.sql_stmt_us;
    let ctx =
      Executor.Ctx.create
        ~track_cols:(Params.effective_merge_level t.env.params = Params.Column)
        t.db
    in
    let rec step acc = function
      | [] ->
        txn.Txn.sql_results <- List.rev acc;
        txn.Txn.read_set <- Executor.Ctx.read_set ctx;
        let records = Executor.Ctx.writeset_records ctx in
        if records = [] then txn.Txn.writeset <- None
        else
          txn.Txn.writeset <-
            Some
              (Writeset.make
                 ~meta:(Meta.make ~sen:txn.Txn.sen ~cen:0 ~csn:Csn.zero)
                 ~records ());
        commit_point t txn
      | (sql, params) :: rest ->
        Cpu.run t.cpu ~cost:(per_stmt_parse + cost.sql_stmt_us) (fun () ->
            match Executor.exec_sql ctx sql ~params with
            | Error m -> finish_aborted t txn (Txn.Constraint_violation m)
            | Ok r -> step (r :: acc) rest)
    in
    step [] stmts

and run_ops t (txn : Txn.t) o =
  match
    Op_exec.exec
      ~col_mask:(Params.effective_merge_level t.env.params = Params.Column)
      t.db o
  with
  | Error m -> Error m
  | Ok { Op_exec.reads; writes } ->
    txn.Txn.read_set <- reads;
    if writes = [] then begin
      txn.Txn.writeset <- None;
      Ok ()
    end
    else begin
      (* meta is filled in at the commit point *)
      txn.Txn.writeset <-
        Some
          (Writeset.make
             ~meta:(Meta.make ~sen:txn.Txn.sen ~cen:0 ~csn:Csn.zero)
             ~records:writes ());
      Ok ()
    end

and read_validation t (txn : Txn.t) =
  (* Algorithm 1, lines 9-18. *)
  match t.env.params.Params.isolation with
  | Params.RC -> Ok ()
  | (Params.RR | Params.SI | Params.SSI) as iso -> (
    let violation =
      List.find_opt
        (fun (r : Executor.read_record) ->
          match Db.get_table t.db r.Executor.r_table with
          | None -> true
          | Some table -> (
            match Table.find table r.Executor.r_key_str with
            | None -> true (* row vanished *)
            | Some entry ->
              let h = entry.Table.header in
              if h.Row_header.deleted then true
              else if iso = Params.RR then
                not (Csn.equal h.Row_header.csn r.Executor.r_csn)
              else h.Row_header.cen - 1 > txn.Txn.lsn))
        txn.Txn.read_set
    in
    match violation with None -> Ok () | Some _ -> Error Txn.Read_validation)

and commit_point t (txn : Txn.t) =
  if (not t.active) || Net.is_down t.env.net t.id then ()
    (* crashed mid-flight; the client will time out *)
  else
    match read_validation t txn with
    | Error reason -> finish_aborted t txn reason
    | Ok () -> (
      match txn.Txn.writeset with
      | None -> finish_committed t txn (* read-only: Algorithm 1 l.19-20 *)
      | Some ws -> (
        let cen = current_epoch t in
        let csn = fresh_csn t in
        let meta = Meta.make ~sen:txn.Txn.sen ~cen ~csn in
        let read_keys =
          (* The SSI extension ships the read-set keys with the write set
             so peers can detect rw-antidependencies (§4.3). *)
          if t.env.params.Params.isolation = Params.SSI then
            List.map
              (fun (r : Executor.read_record) ->
                (r.Executor.r_table, r.Executor.r_key_str))
              txn.Txn.read_set
          else []
        in
        let ws = Writeset.with_commit ws ~meta ~read_keys in
        txn.Txn.writeset <- Some ws;
        txn.Txn.cen <- cen;
        txn.Txn.csn <- csn;
        txn.Txn.commit_point <- now t;
        match t.env.params.Params.variant with
        | Params.Async_merge ->
          (* GeoG-A: merge locally now, gossip, reply immediately. *)
          lww_apply t ws;
          let mini =
            Writeset.Batch.make ~node:t.id ~cen ~txns:[ ws ] ~eof:false
              ~span:txn.Txn.span ()
          in
          broadcast_batch t ~bytes:(Writeset.Batch.wire_size mini) mini;
          let cost = t.env.params.Params.cost in
          txn.Txn.phases.merge_us <-
            List.length ws.Writeset.records * cost.merge_record_us;
          let log_us =
            Gg_storage.Wal.append t.wal ~bytes:(Writeset.encoded_size ws)
          in
          txn.Txn.phases.log_us <- log_us;
          Sim.schedule t.env.sim ~after:log_us (fun () -> finish_committed t txn)
        | Params.Optimistic | Params.Sync_exec ->
          t.current_send <- (cen, ws) :: t.current_send;
          if t.env.params.Params.pipeline then begin
            let mini =
              Writeset.Batch.make ~node:t.id ~cen ~txns:[ ws ] ~eof:false
                ~span:txn.Txn.span ()
            in
            let bytes = Writeset.Batch.wire_size mini in
            (* Interest-scoped pipelining: only members of the touched
               groups hear the mini-batch. *)
            if Partitioning.enabled t.env.part then
              List.iter
                (fun dst -> send_batch t ~dst ~bytes mini)
                (interest_targets t ws)
            else broadcast_batch t ~bytes mini
          end;
          let q = Option.value ~default:[] (Itbl.find_opt t.waiting cen) in
          Itbl.replace t.waiting cen (txn :: q);
          if cen > t.last_txn_cen then t.last_txn_cen <- cen))

(* --- Algorithm 3: receive side --- *)

and batch_state t ~cen ~peer =
  let key = pack_cp ~cen ~peer in
  match Itbl.find_opt t.remote key with
  | Some bs -> bs
  | None ->
    let bs =
      {
        txns = [];
        txn_keys = Itbl.create 8;
        eof = false;
        expected = -1;
        committed = t.env.params.Params.ft <> Params.Ft_raft;
      }
    in
    Itbl.replace t.remote key bs;
    bs

and receive t msg =
  (* Messages to a down node are dropped by the network; a recovering
     node (up but not yet reactivated) buffers batches so nothing from
     its re-join epoch onwards is lost. *)
  match msg with
    | Batch_msg b ->
      if t.env.params.Params.variant = Params.Async_merge then
        List.iter (lww_apply t) b.Writeset.Batch.txns
      else if b.Writeset.Batch.cen > t.lsn then begin
        let bs = batch_state t ~cen:b.Writeset.Batch.cen ~peer:b.Writeset.Batch.node in
        List.iter
          (fun (ws : Writeset.t) ->
            let k = pack_csn ws.Writeset.meta.Meta.csn in
            if not (Itbl.mem bs.txn_keys k) then begin
              Itbl.replace bs.txn_keys k ();
              bs.txns <- ws :: bs.txns
            end)
          b.Writeset.Batch.txns;
        if b.Writeset.Batch.eof then begin
          bs.eof <- true;
          bs.expected <- max bs.expected b.Writeset.Batch.count;
          t.last_eof.(b.Writeset.Batch.node) <- now t;
          (* The recv span becomes the parent of any Ft_ack we send back,
             continuing the causal chain across the acknowledgement. *)
          let rspan = Obs.new_span t.obs ~node:t.id in
          if Obs.tracing t.obs then
            Obs.emit t.obs ~node:t.id ~epoch:b.Writeset.Batch.cen ~cat:"epoch"
              "batch.recv" ~span:rspan
              ~parent:
                (if b.Writeset.Batch.span > 0 then b.Writeset.Batch.span else -1)
              ~detail:
                (Printf.sprintf "from=%d txns=%d" b.Writeset.Batch.node
                   (Itbl.length bs.txn_keys));
          if t.env.params.Params.ft = Params.Ft_raft then
            send_msg t ~dst:b.Writeset.Batch.node ~bytes:40
              (Ft_ack { cen = b.Writeset.Batch.cen; from = t.id; span = rspan })
        end;
        try_advance t
      end
    | Batch_wire bytes -> (
      match Writeset.Batch.of_wire_opt bytes with
      | Some b -> receive t (Batch_msg b)
      | None ->
        (* Corrupted frame: indistinguishable from a lost one once the
           decoder trips; drop it and let the stall-repair path refetch
           the epoch from the sender's backup if the loss blocks. *)
        if Obs.tracing t.obs then
          Obs.emit t.obs ~node:t.id ~cat:"epoch" "batch.corrupt"
            ~detail:(Printf.sprintf "bytes=%d" (Bytes.length bytes)))
    | Part_vote { cen; group; verdicts; span = pspan } ->
      if cen + Partitioning.vote_depth t.env.part > t.lsn then begin
        if Obs.tracing t.obs then
          Obs.emit t.obs ~node:t.id ~epoch:cen ~cat:"epoch" "vote.recv"
            ~parent:(if pspan > 0 then pspan else -1)
            ~detail:
              (Printf.sprintf "group=%d verdicts=%d" group
                 (List.length verdicts));
        store_votes t ~cen ~group verdicts;
        try_advance t
      end
    | Ft_ack { cen; from; span = pspan } ->
      let aspan = Obs.new_span t.obs ~node:t.id in
      if Obs.tracing t.obs then
        Obs.emit t.obs ~node:t.id ~epoch:cen ~cat:"epoch" "ft.ack" ~span:aspan
          ~parent:(if pspan > 0 then pspan else -1)
          ~detail:(Printf.sprintf "from=%d" from);
      let acks =
        match Itbl.find_opt t.ft_acks cen with
        | Some l -> l
        | None ->
          let l = ref [] in
          Itbl.replace t.ft_acks cen l;
          l
      in
      if not (List.mem from !acks) then begin
        acks := from :: !acks;
        let n = List.length (t.env.members_at cen) in
        (* self + acks form the majority *)
        if (List.length !acks + 1) * 2 > n then
          broadcast t ~bytes:40 (Ft_commit { cen; origin = t.id; span = aspan })
      end
    | Ft_commit { cen; origin; span = pspan } ->
      if Obs.tracing t.obs then
        Obs.emit t.obs ~node:t.id ~epoch:cen ~cat:"epoch" "ft.commit"
          ~parent:(if pspan > 0 then pspan else -1)
          ~detail:(Printf.sprintf "origin=%d" origin);
      let bs = batch_state t ~cen ~peer:origin in
      bs.committed <- true;
      try_advance t
    | State_snapshot _ -> ()
(* recovery installation goes through install_state *)

(* --- lifecycle --- *)

(* Stall repair (§5.2): without a reliable transport, a lost mini-batch,
   EOF or Ft_commit would block the next merge forever — the failure
   detector never fires because the peer keeps sending later EOFs. When
   the snapshot has not moved for [repair_after_us], re-fetch whatever is
   missing for epoch (lsn + 1) from the peers' backup servers (one
   regional round trip, same path survivors use after a view change). A
   batch present in the backup is durable, which is also all the Raft-FT
   commit gate establishes, so a successful fetch may release it too.
   Fetches are idempotent: receive deduplicates transactions by csn. *)
let repair t =
  let e = t.lsn + 1 in
  if
    t.active
    && (not (Net.is_down t.env.net t.id))
    && (not t.merging)
    && t.sealed_epoch >= e
    && now t - t.last_advance > t.env.params.Params.repair_after_us
  then begin
    List.iter
      (fun peer ->
        if peer <> t.id then begin
          let complete =
            match Itbl.find_opt t.remote (pack_cp ~cen:e ~peer) with
            | Some bs -> bs.eof && Itbl.length bs.txn_keys >= bs.expected
            | None -> false
          in
          let gated =
            t.env.params.Params.ft = Params.Ft_raft
            &&
            match Itbl.find_opt t.remote (pack_cp ~cen:e ~peer) with
            | Some bs -> not bs.committed
            | None -> true
          in
          if (not complete) || gated then
            match Backup.get t.env.backup ~node:peer ~cen:e with
            | None -> ()
            | Some batch ->
              let topo = Net.topology t.env.net in
              let delay = 2 * Topology.latency topo t.id peer in
              if Obs.tracing t.obs then
                Obs.emit t.obs ~node:t.id ~epoch:e ~cat:"epoch" "repair.fetch"
                  ~detail:(Printf.sprintf "peer=%d" peer);
              Sim.schedule t.env.sim ~after:delay (fun () ->
                  if t.active && not (Net.is_down t.env.net t.id) then begin
                    let bs = batch_state t ~cen:e ~peer in
                    bs.committed <- true;
                    receive t (Batch_msg batch)
                  end)
        end)
      (t.env.members_at e);
    (* Missing cross-group votes stall the merge the same way a missing
       batch does: refetch them from the voting group's durable backup
       record (one round trip to its nearest member). A group that has
       not merged the epoch yet has nothing in the backup — keep
       waiting; a dead group is handled by [vote_status] directly. *)
    let part = t.env.part in
    if Partitioning.enabled part then begin
      let rk = e - Partitioning.vote_depth part in
      if rk >= 0 then
        match Itbl.find_opt t.cross_pending rk with
        | None -> ()
        | Some entries ->
          let my = my_group t in
          for g = 0 to Partitioning.n_groups part - 1 do
            let missing =
              g <> my
              && List.exists
                   (fun ce ->
                     List.mem g ce.ce_groups
                     && vote_status t ~cen:rk ~group:g ce.ce_key = None)
                   entries
            in
            if missing then
              match Backup.get_votes t.env.backup ~group:g ~cen:rk with
              | None -> ()
              | Some vs ->
                let topo = Net.topology t.env.net in
                let best =
                  List.fold_left
                    (fun a m -> min a (Topology.latency topo t.id m))
                    max_int
                    (Partitioning.members part g)
                in
                let delay = if best = max_int then 0 else 2 * best in
                if Obs.tracing t.obs then
                  Obs.emit t.obs ~node:t.id ~epoch:rk ~cat:"epoch"
                    "repair.votes"
                    ~detail:(Printf.sprintf "group=%d" g);
                Sim.schedule t.env.sim ~after:delay (fun () ->
                    if t.active && not (Net.is_down t.env.net t.id) then begin
                      store_votes t ~cen:rk ~group:g vs;
                      try_advance t
                    end)
          done
    end
  end

let rec schedule_repair t =
  Sim.schedule t.env.sim ~after:100_000 (fun () ->
      repair t;
      schedule_repair t)

let start t =
  (* The first boundary is picked by SIM time even under the fast path:
     a node whose local clock runs ahead must still seal every epoch
     from 0 (peers wait on its EOFs); its early boundaries simply all
     fire immediately. *)
  schedule_boundary t (epoch_of t (now t));
  schedule_repair t

let set_active t v =
  if t.active && not v then begin
    (* Crash: drop all volatile per-epoch state; in-flight local txns are
       lost (their clients time out and retry elsewhere). *)
    t.active <- false;
    Itbl.reset t.remote;
    Itbl.reset t.local_sealed;
    Itbl.reset t.waiting;
    Itbl.reset t.notify_gate;
    Itbl.reset t.ft_acks;
    Itbl.reset t.cross_pending;
    Itbl.reset t.votes;
    Queue.clear t.sync_queue;
    t.current_send <- [];
    Itbl.reset t.prelogged;
    t.merging <- false
  end
  else if (not t.active) && v then t.active <- true

let missing_sealed_epochs t ~peer ~upto =
  let missing = ref [] in
  for e = upto downto t.lsn + 1 do
    let have =
      match Itbl.find_opt t.remote (pack_cp ~cen:e ~peer) with
      | Some bs -> bs.eof
      | None -> false
    in
    if not have then missing := e :: !missing
  done;
  !missing

let make_state_snapshot ?(span = 0) t =
  State_snapshot { lsn = t.lsn; ckpt = Gg_storage.Checkpoint.encode t.db; span }

let install_state t ~rejoin ~lsn ~db =
  (* Guard against duplicated or stale snapshots: the transfer travels
     over the faulty network, so it can arrive twice (dup) or be re-sent
     by the cluster's retry loop after the node already resumed.
     Installing again would wipe live per-epoch state. *)
  if (not t.active) && lsn > t.lsn then begin
    (* Keep batches buffered for epochs after the installed snapshot —
       the peers broadcast them while the transfer was in flight. *)
    let stale =
      Itbl.fold
        (fun key _ acc -> if cen_of_cp key <= lsn then key :: acc else acc)
        t.remote []
    in
    List.iter (Itbl.remove t.remote) stale;
    Itbl.reset t.local_sealed;
    Itbl.reset t.waiting;
    Itbl.reset t.cross_pending;
    Itbl.reset t.votes;
    Db.replace_contents t.db ~from:db;
    t.lsn <- lsn;
    t.last_advance <- Sim.now t.env.sim;
    t.sealed_epoch <- max t.sealed_epoch lsn;
    Itbl.reset t.prelogged;
    t.merging <- false;
    t.active <- true;
    (* Seal every epoch from the re-join epoch up to the current one
       (all empty — the node served no clients): peers are already
       waiting for these EOFs, and our own merges need the local
       entries. The snapshot may cover epochs past [rejoin] (the donor
       keeps merging while the transfer is pending), in which case the
       already-covered epochs still need their empty seals broadcast.
       The current epoch is left to its own boundary timer. *)
    for e = min (t.lsn + 1) rejoin to current_epoch t - 1 do
      seal_epoch t e
    done;
    t.sealed_epoch <- max t.sealed_epoch lsn;
    try_advance t
  end
