(* The slice-sum oracle.  Every slice method [u_i] adds [p1] to field
   [s_i] [work] times and touches nothing else, so after a run each
   (instance, slice) cell must hold exactly the sum of [p1 * work] over
   the committed transactions' calls on it: a lost update leaves it short,
   a doubled or leaked one (a rolled-back transaction that left a write)
   leaves it over.  Reader methods [r_i] contribute nothing. *)

open Tavcc_model

type t = (int * int, int) Hashtbl.t

let create () : t = Hashtbl.create 4096

let slice_of_method m =
  let s = Name.Method.to_string m in
  if String.length s > 1 && s.[0] = 'u' then
    int_of_string_opt (String.sub s 1 (String.length s - 1))
  else None

let bump t k d = Hashtbl.replace t k (d + Option.value ~default:0 (Hashtbl.find_opt t k))

(* Records one committed transaction. *)
let add t ~work actions =
  List.iter
    (function
      | Tavcc_cc.Exec.Call (oid, m, [ Value.Vint p ]) -> (
          match slice_of_method m with
          | Some i -> bump t (Oid.to_int oid, i) (p * work)
          | None -> ())
      | a ->
          invalid_arg
            (Format.asprintf "Oracle.add: not a slice call: %a" Tavcc_cc.Exec.pp_action a))
    actions

let merge ~into t = Hashtbl.iter (fun k d -> bump into k d) t

(* Violations, empty when the store holds exactly the committed sums. *)
let check ~slices t store =
  let errs = ref [] in
  let covered = ref 0 in
  List.iter
    (fun oid ->
      for i = 0 to slices - 1 do
        let k = (Oid.to_int oid, i) in
        if Hashtbl.mem t k then incr covered;
        let expected = Option.value ~default:0 (Hashtbl.find_opt t k) in
        match Store.read store oid (Name.Field.of_string (Printf.sprintf "s%d" i)) with
        | Value.Vint v when v = expected -> ()
        | v ->
            errs :=
              Format.asprintf "oid %d s%d: committed sum %d, store holds %a" (Oid.to_int oid)
                i expected Value.pp v
              :: !errs
      done)
    (Store.extent store (Name.Class.of_string "grid"));
  if !covered <> Hashtbl.length t then
    errs :=
      Printf.sprintf "%d committed cells name instances the store does not have"
        (Hashtbl.length t - !covered)
      :: !errs;
  List.rev !errs
