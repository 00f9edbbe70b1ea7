(* Self-tests of the benchmark's own checks: the slice-sum oracle must
   catch a lost update and a write left by a rolled-back transaction, the
   request accounting must catch a missing reply and a protocol error, and
   the percentile code must refuse a tail percentile that fewer than ten
   samples lie beyond. *)

open Tavcc_model
open Pbench
module Workload = Tavcc_sim.Workload
module Exec = Tavcc_cc.Exec
module Txn = Tavcc_txn.Txn

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let slices = 4
let work = 3
let schema = Workload.slice_schema ~readers:slices ~methods:slices ~work ()
let scheme = Tavcc_cc.Tav_modes.scheme (Tavcc_core.Analysis.compile schema)

let fresh () =
  let store = Store.create schema in
  Workload.populate store ~per_class:8;
  store

let jobs =
  Workload.mixed_slice_jobs (Tavcc_sim.Rng.create 7) (fresh ()) ~txns:40 ~actions_per_txn:4
    ~hot_instances:8 ~read_frac:0.3

(* Runs [actions] as transaction [id] without locks; [abort] rolls it back. *)
let apply ?(abort = false) store (id, actions) =
  let txn = Txn.make ~id ~birth:id in
  let ctx = { Tavcc_cc.Scheme.txn; acquire = (fun _ -> ()) } in
  List.iter (fun a -> Exec.perform ~scheme ~store ~ctx a) actions;
  if abort then Txn.abort store txn else Txn.commit txn

let committed = Oracle.create ()
let () = List.iter (fun (_, actions) -> Oracle.add committed ~work actions) jobs

let writer =
  List.find
    (fun (_, actions) ->
      List.exists
        (function Exec.Call (_, m, _) -> Oracle.slice_of_method m <> None | _ -> false)
        actions)
    jobs

let () =
  let store = fresh () in
  List.iter (apply store) jobs;
  check "oracle accepts a run that applied every committed transaction once"
    (Oracle.check ~slices committed store = []);
  apply ~abort:true store (1000, snd writer);
  check "oracle accepts a rolled-back transaction that left nothing"
    (Oracle.check ~slices committed store = []);
  let lost = fresh () in
  List.iter (fun j -> if j != writer then apply lost j) jobs;
  check "oracle catches a planted lost update" (Oracle.check ~slices committed lost <> []);
  let leaked = fresh () in
  List.iter (apply leaked) jobs;
  apply leaked (1001, snd writer);
  check "oracle catches an update applied twice" (Oracle.check ~slices committed leaked <> [])

let () =
  let sorted n = Array.init n float_of_int in
  check "p99 refused with 9 samples beyond it"
    (Result.is_error (Stats.tail (sorted 999) 0.99));
  check "p99 accepted with 10 samples beyond it" (Result.is_ok (Stats.tail (sorted 1000) 0.99));
  let windows xs =
    let r = Stats.Windows.create () in
    List.iter (fun x -> for _ = 1 to Stats.Windows.size do Stats.Windows.push r x done) xs;
    r
  in
  let short = Stats.Windows.create () in
  for _ = 2 to Stats.Windows.size do Stats.Windows.push short 1 done;
  check "window summary refused below one window of samples"
    (Result.is_error (Stats.Windows.summary short));
  (* a window every quarter run: p50s 1, 1, 2, 3, 3 and p99s 1, 3, 3, 3, 3 *)
  check "window summary is the median of overlapping windows' p50 and p99"
    (Stats.Windows.summary (windows [ 1; 3 ]) = Ok (2., 3.));
  check "p50 of 0..100 is 50" (Stats.quantile (sorted 101) 0.5 = 50.);
  check "p25 interpolates" (Stats.quantile [| 0.; 10. |] 0.25 = 2.5)

let () =
  let answered ?(sent = 6) ?(replies = 6) ?(protocol_errors = 0) () =
    let r = Loadgen.create () in
    r.Loadgen.sent <- sent;
    r.Loadgen.replies <- replies;
    r.Loadgen.protocol_errors <- protocol_errors;
    Loadgen.violations r
  in
  check "accounting accepts every request answered once" (answered () = []);
  check "accounting catches a missing reply" (answered ~replies:5 () <> []);
  check "accounting catches a protocol error" (answered ~protocol_errors:1 () <> [])

let () = if !failures > 0 then exit 1
