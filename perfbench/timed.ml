(* The traced run's wrappers around the program's public layer
   boundaries.  Nothing here is installed in a measured run. *)

open Tavcc_model
module Par_engine = Tavcc_par.Par_engine

(* A store that times every slot read and write of [inner], mounted
   through the external-backend interface so every engine runs over it
   unmodified. *)
let store (inner : 'b Store.t) : 'b Store.t =
  Store.create_ext (Store.schema inner)
    {
      Store.x_insert = (fun cls slots -> Store.new_instance ~init:(Array.to_list slots) inner cls);
      x_delete = Store.delete_instance inner;
      x_exists = Store.exists inner;
      x_class_of =
        (fun oid -> if Store.exists inner oid then Some (Store.class_of inner oid) else None);
      x_read =
        (fun oid i ->
          let t0 = Stats.now_ns () in
          let v = Store.read_idx inner oid i in
          Spans.store_op ~write:false (Stats.now_ns () - t0);
          v);
      x_write =
        (fun oid i _ v ->
          let t0 = Stats.now_ns () in
          Store.write_idx inner oid i v;
          Spans.store_op ~write:true (Stats.now_ns () - t0));
      x_field_count = Store.field_count inner;
      x_extent = Store.extent inner;
      x_count = (fun () -> Store.instance_count inner);
    }

(* Journal hooks that frame each transaction attempt (begin to commit or
   abort) and each call into [inner], the storage engine's own hooks. *)
let journal ?inner () =
  let call kind f id =
    match inner with
    | None -> ()
    | Some j ->
        Spans.enter kind id;
        f j id;
        Spans.leave kind
  in
  {
    Par_engine.j_begin =
      (fun id ->
        Spans.enter Spans.txn id;
        call Spans.st_begin (fun j -> j.Par_engine.j_begin) id);
    j_commit =
      (fun id ->
        call Spans.st_commit (fun j -> j.Par_engine.j_commit) id;
        Spans.leave Spans.txn);
    j_abort =
      (fun id ->
        call Spans.st_abort (fun j -> j.Par_engine.j_abort) id;
        Spans.leave Spans.txn);
  }

(* Frames every method activation. *)
let probe ~txn =
  {
    Tavcc_cc.Exec.null_probe with
    p_enter = (fun _ _ ~resolve_at:_ ~defining:_ _ -> Spans.enter Spans.meth txn);
    p_exit = (fun _ _ _ -> Spans.leave Spans.meth);
  }

(* [a]'s hooks, then [b]'s. *)
let then_ a b =
  {
    Par_engine.j_begin = (fun id -> a.Par_engine.j_begin id; b.Par_engine.j_begin id);
    j_commit = (fun id -> a.Par_engine.j_commit id; b.Par_engine.j_commit id);
    j_abort = (fun id -> a.Par_engine.j_abort id; b.Par_engine.j_abort id);
  }
