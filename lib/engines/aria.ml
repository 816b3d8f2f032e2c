type t = Det_base.t

let name = "Aria"

let strategy ~ft_raft =
  {
    Det_base.strat_name = "aria";
    per_txn_sched_us = 10;
    preprocess_us = 120;  (* dependency analysis / reservation pass *)
    lock_critical_path = false;
    reservation_aborts = true;
    extra_round_us = 0;
    ft_raft;
  }

let create net cfg = Det_base.create net cfg (strategy ~ft_raft:false)
let create_ft net cfg = Det_base.create net cfg (strategy ~ft_raft:true)
let submit = Det_base.submit
