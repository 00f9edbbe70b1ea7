(* The persistent storage engine: slotted pages, the buffer pool, and
   crash recovery against the page-level crash matrix. *)

open Tavcc_model
module Page = Tavcc_storage.Page
module Pool = Tavcc_storage.Buffer_pool
module Engine = Tavcc_storage.Engine
module Matrix = Tavcc_storage.Crash_matrix
module Rng = Tavcc_sim.Rng
open Helpers

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1_000_000)

(* --- record payload codec --- *)

let random_value rng =
  match Rng.int rng 6 with
  | 0 -> Value.Vint (Rng.int rng 1_000_000 - 500_000)
  | 1 -> Value.Vbool (Rng.bool rng)
  | 2 ->
      let n = Rng.int rng 24 in
      Value.Vstring (String.init n (fun _ -> Char.chr (Rng.int rng 256)))
  | 3 -> Value.Vfloat (Int64.float_of_bits (Rng.next64 rng))
  | 4 -> Value.Vref (Oid.of_int (Rng.int rng 10_000))
  | _ -> Value.Vnull

let random_rec rng =
  {
    Page.Rec.r_oid = Rng.int rng 1_000_000;
    r_cls = String.init (Rng.int rng 12) (fun _ -> Char.chr (32 + Rng.int rng 95));
    r_slots =
      Array.init (Rng.int rng 6) (fun i ->
          (Printf.sprintf "f%d_%c" i (Char.chr (97 + Rng.int rng 26)), random_value rng));
  }

(* structural equality that treats NaN as equal to itself *)
let rec_eq a b = compare a b = 0

let prop_rec_roundtrip =
  QCheck.Test.make ~count:300 ~name:"page record codec round-trips" seed_arb (fun seed ->
      let rng = Rng.create seed in
      let r = random_rec rng in
      match Page.Rec.decode (Page.Rec.encode r) with
      | Some r' -> rec_eq r r'
      | None -> false)

let prop_rec_cut =
  QCheck.Test.make ~count:120 ~name:"record codec refuses every byte-cut prefix" seed_arb
    (fun seed ->
      let rng = Rng.create seed in
      let s = Page.Rec.encode (random_rec rng) in
      let ok = ref true in
      for k = 0 to String.length s - 1 do
        if Page.Rec.decode (String.sub s 0 k) <> None then ok := false
      done;
      !ok)

(* --- page image checksumming --- *)

let prop_page_bitflip =
  QCheck.Test.make ~count:150 ~name:"any flipped byte fails the page checksum" seed_arb
    (fun seed ->
      let rng = Rng.create seed in
      let page = Page.create 512 in
      for i = 0 to 5 do
        ignore (Page.insert page (Printf.sprintf "payload-%d-%d" seed i))
      done;
      let img = Page.to_bytes page in
      (match Page.of_bytes img with Ok _ -> () | Error e -> failwith e);
      let pos = Rng.int rng (Bytes.length img) in
      let old = Bytes.get img pos in
      let nw = Char.chr ((Char.code old + 1 + Rng.int rng 254) mod 256) in
      if nw = old then true
      else begin
        Bytes.set img pos nw;
        match Page.of_bytes img with Ok _ -> false | Error _ -> true
      end)

let prop_page_torn =
  QCheck.Test.make ~count:60 ~name:"torn page images (prefix + zeros) are rejected" seed_arb
    (fun seed ->
      let rng = Rng.create seed in
      let page = Page.create 512 in
      for i = 0 to 7 do
        ignore (Page.insert page (String.make (10 + Rng.int rng 30) (Char.chr (65 + i))))
      done;
      let img = Page.to_bytes page in
      let ok = ref true in
      for _ = 1 to 40 do
        let k = Rng.int rng (Bytes.length img) in
        let torn = Bytes.make (Bytes.length img) '\000' in
        Bytes.blit img 0 torn 0 k;
        (match Page.of_bytes torn with
        | Ok _ -> ok := false
        | Error _ -> ());
        if Page.is_zero torn && k > 12 then ok := false
      done;
      !ok)

(* --- page ops against a model --- *)

let prop_page_ops =
  QCheck.Test.make ~count:150 ~name:"page: random insert/delete/replace/compact vs model"
    seed_arb (fun seed ->
      let rng = Rng.create seed in
      let page = Page.create 512 in
      let model : (int, string) Hashtbl.t = Hashtbl.create 16 in
      let ok = ref true in
      let check_model () =
        Hashtbl.iter
          (fun slot payload ->
            if Page.read_slot page slot <> Some payload then ok := false)
          model
      in
      let slots () = Hashtbl.fold (fun k _ l -> k :: l) model [] in
      for _ = 1 to 150 do
        (match Rng.int rng 10 with
        | 0 | 1 | 2 | 3 -> (
            let payload = String.make (Rng.int rng 90) (Char.chr (33 + Rng.int rng 90)) in
            let cap = Page.insert_capacity page in
            match Page.insert page payload with
            | Some slot ->
                if String.length payload > cap then ok := false;
                Hashtbl.replace model slot payload
            | None -> if String.length payload <= cap then ok := false)
        | 4 | 5 -> (
            match slots () with
            | [] -> ()
            | l ->
                let s = Rng.pick rng l in
                Page.delete page s;
                Hashtbl.remove model s;
                if Page.read_slot page s <> None then ok := false)
        | 6 | 7 -> (
            match slots () with
            | [] -> ()
            | l ->
                let s = Rng.pick rng l in
                let payload = String.make (Rng.int rng 120) (Char.chr (33 + Rng.int rng 90)) in
                if Page.replace page s payload then Hashtbl.replace model s payload
                else if Page.read_slot page s <> Hashtbl.find_opt model s then ok := false)
        | 8 -> Page.compact page
        | _ -> (
            (* serialisation round-trip preserves every slot *)
            match Page.of_bytes (Page.to_bytes page) with
            | Ok p' ->
                Hashtbl.iter
                  (fun slot payload ->
                    if Page.read_slot p' slot <> Some payload then ok := false)
                  model
            | Error _ -> ok := false));
        check_model ()
      done;
      !ok)

(* --- buffer pool invariants --- *)

let dummy_load _ = Page.create 256

let test_pool_ledger () =
  let pool = Pool.create ~pages:2 ~load:dummy_load ~write_back:(fun _ -> ()) in
  ignore (Pool.get pool 1);
  Pool.unpin pool 1 ~dirty:false;
  Alcotest.check_raises "ledger underflow raises"
    (Invalid_argument "Buffer_pool.unpin: pin ledger underflow") (fun () ->
      Pool.unpin pool 1 ~dirty:false);
  Alcotest.check_raises "unpin of non-resident raises"
    (Invalid_argument "Buffer_pool.unpin: page not resident") (fun () ->
      Pool.unpin pool 99 ~dirty:false)

let test_pool_all_pinned () =
  let pool = Pool.create ~pages:2 ~load:dummy_load ~write_back:(fun _ -> ()) in
  ignore (Pool.get pool 1);
  ignore (Pool.get pool 2);
  Alcotest.check_raises "exhausted pool fails loudly"
    (Failure "Buffer_pool: all frames pinned") (fun () -> ignore (Pool.get pool 3))

let test_pool_dirty_never_dropped () =
  let written = Hashtbl.create 16 in
  let pool =
    Pool.create ~pages:3 ~load:dummy_load ~write_back:(fun batch ->
        List.iter
          (fun (pid, _) ->
            Hashtbl.replace written pid (1 + Option.value ~default:0 (Hashtbl.find_opt written pid)))
          batch)
  in
  let dirtied = ref [] in
  for pid = 1 to 12 do
    ignore (Pool.get pool pid);
    let d = pid mod 2 = 0 in
    if d then dirtied := pid :: !dirtied;
    Pool.unpin pool pid ~dirty:d
  done;
  Pool.flush_all pool;
  List.iter
    (fun pid ->
      Alcotest.(check bool)
        (Printf.sprintf "dirty page %d was written back" pid)
        true (Hashtbl.mem written pid))
    !dirtied;
  Alcotest.(check int) "no pins left" 0 (Pool.pinned pool);
  Alcotest.(check int) "no dirt left" 0 (Pool.dirty_count pool)

let prop_pool_model =
  QCheck.Test.make ~count:80 ~name:"pool: eviction preserves page contents" seed_arb
    (fun seed ->
      let rng = Rng.create seed in
      (* a tiny fake disk: write_back persists, load re-reads *)
      let disk = Hashtbl.create 16 in
      let load pid =
        match Hashtbl.find_opt disk pid with
        | Some img -> (match Page.of_bytes img with Ok p -> p | Error e -> failwith e)
        | None -> Page.create 256
      in
      let write_back =
        List.iter (fun (pid, page) -> Hashtbl.replace disk pid (Page.to_bytes page))
      in
      let pool = Pool.create ~pages:3 ~load ~write_back in
      let model = Hashtbl.create 16 in
      let ok = ref true in
      for _ = 1 to 120 do
        let pid = 1 + Rng.int rng 9 in
        let page = Pool.get pool pid in
        let expect = Hashtbl.find_opt model pid in
        let got = Page.read_slot page 0 in
        if Page.nslots page > 0 && got <> expect then ok := false;
        if Rng.bool rng then begin
          let payload = Printf.sprintf "p%d-%d" pid (Rng.int rng 1000) in
          (if Page.nslots page = 0 then ignore (Page.insert page payload)
           else ignore (Page.replace page 0 payload));
          Hashtbl.replace model pid payload;
          Pool.unpin pool pid ~dirty:true
        end
        else Pool.unpin pool pid ~dirty:false
      done;
      !ok && Pool.pinned pool = 0)

let test_pool_two_domain_hammer () =
  let mu = Mutex.create () in
  let disk = Hashtbl.create 16 in
  let load pid =
    match Hashtbl.find_opt disk pid with
    | Some img -> (match Page.of_bytes img with Ok p -> p | Error e -> failwith e)
    | None -> Page.create 256
  in
  let pool =
    Pool.create ~pages:4 ~load
      ~write_back:(List.iter (fun (pid, page) -> Hashtbl.replace disk pid (Page.to_bytes page)))
  in
  let body seed () =
    let rng = Rng.create seed in
    try
      for _ = 1 to 2_000 do
        Mutex.lock mu;
        let pid = 1 + Rng.int rng 12 in
        let page = Pool.get pool pid in
        let dirty = Rng.bool rng in
        if dirty then begin
          let payload = Printf.sprintf "d%d" (Rng.int rng 100) in
          if Page.nslots page = 0 then ignore (Page.insert page payload)
          else ignore (Page.replace page 0 payload)
        end;
        Pool.unpin pool pid ~dirty;
        Mutex.unlock mu
      done;
      true
    with e ->
      Mutex.unlock mu;
      raise e
  in
  let d1 = Domain.spawn (body 11) and d2 = Domain.spawn (body 97) in
  let ok1 = Domain.join d1 and ok2 = Domain.join d2 in
  Alcotest.(check bool) "both domains survived" true (ok1 && ok2);
  Alcotest.(check int) "pin ledger balanced" 0 (Pool.pinned pool);
  Pool.flush_all pool;
  Alcotest.(check int) "no dirt after flush" 0 (Pool.dirty_count pool)

let test_pool_eviction_batch () =
  (* k dirty unpinned frames and one dirty pinned frame: the eviction
     writes the k back in one call and leaves the pinned one dirty *)
  let k = 4 in
  let calls = ref [] in
  let pool =
    Pool.create ~pages:(k + 1) ~load:dummy_load ~write_back:(fun batch ->
        calls := List.map fst batch :: !calls)
  in
  for pid = 1 to k do
    ignore (Pool.get pool pid);
    Pool.unpin pool pid ~dirty:true
  done;
  ignore (Pool.get pool (k + 1));
  Pool.mark_dirty pool (k + 1);
  Alcotest.(check int) "all frames dirty" (k + 1) (Pool.dirty_count pool);
  ignore (Pool.get pool (k + 2));
  Alcotest.(check (list (list int))) "one call carrying exactly the unpinned dirty frames"
    [ List.init k (fun i -> i + 1) ]
    !calls;
  Alcotest.(check int) "only the pinned frame stays dirty" 1 (Pool.dirty_count pool);
  Pool.unpin pool (k + 1) ~dirty:false;
  Pool.unpin pool (k + 2) ~dirty:false;
  Pool.flush_all pool;
  Alcotest.(check int) "flush_all is one more call" 2 (List.length !calls);
  Alcotest.(check (list int)) "carrying the formerly pinned frame" [ k + 1 ] (List.hd !calls)

(* --- the engine end-to-end --- *)

let storage_schema () : unit Tavcc_model.Schema.t =
  match
    Schema.build
      [
        {
          Schema.c_name = cn "item";
          c_parents = [];
          c_fields = [ (fn "qty", Value.Tint); (fn "label", Value.Tstring) ];
          c_methods = [];
        };
      ]
  with
  | Ok s -> s
  | Error e -> failwith (Format.asprintf "%a" Schema.pp_error e)

let with_dir name f =
  let dir = Filename.concat "_t_storage" name in
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun x -> rm (Filename.concat path x)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  rm dir;
  f dir

let small_config dir =
  { (Engine.default_config ~dir) with page_size = 512; pool_pages = 4 }

let test_engine_persists () =
  with_dir "persist" (fun dir ->
      let schema = storage_schema () in
      let eng = Engine.create (small_config dir) in
      let store = Engine.store eng schema in
      let oids =
        List.init 10 (fun i ->
            Store.new_instance
              ~init:[ (fn "qty", Value.Vint i); (fn "label", Value.Vstring (Printf.sprintf "it%d" i)) ]
              store (cn "item"))
      in
      Store.write store (List.nth oids 3) (fn "qty") (Value.Vint 333);
      Store.delete_instance store (List.nth oids 7);
      let extent_before = Store.extent store (cn "item") in
      Engine.close eng;
      (* a fresh engine over the same directory sees the same world *)
      let eng2 = Engine.create (small_config dir) in
      let store2 = Engine.store eng2 schema in
      Alcotest.(check int) "instances survive" 9 (Store.instance_count store2);
      Alcotest.(check (list oid)) "extent order survives" extent_before
        (Store.extent store2 (cn "item"));
      Alcotest.(check value) "update survives" (Value.Vint 333)
        (Store.read store2 (List.nth oids 3) (fn "qty"));
      Alcotest.(check bool) "delete survives" false (Store.exists store2 (List.nth oids 7));
      Engine.close eng2)

let test_engine_larger_than_pool () =
  with_dir "bigger" (fun dir ->
      let schema = storage_schema () in
      let eng = Engine.create (small_config dir) in
      let store = Engine.store eng schema in
      let n = 300 in
      let oids =
        Array.init n (fun i ->
            Store.new_instance
              ~init:[ (fn "qty", Value.Vint i); (fn "label", Value.Vstring (String.make 24 'x')) ]
              store (cn "item"))
      in
      let st = Engine.stats eng in
      Alcotest.(check bool)
        (Printf.sprintf "working set (%d pages) exceeds the pool (%d)" st.Engine.s_data_pages
           st.Engine.s_pool_pages)
        true
        (st.Engine.s_data_pages > st.Engine.s_pool_pages);
      Alcotest.(check bool) "evictions happened" true (st.Engine.s_pool.Pool.evictions > 0);
      Array.iteri
        (fun i o ->
          Alcotest.(check value)
            (Printf.sprintf "o%d readable" i)
            (Value.Vint i) (Store.read store o (fn "qty")))
        oids;
      Engine.close eng)

let test_engine_abort_rolls_back () =
  with_dir "abort" (fun dir ->
      let schema = storage_schema () in
      let eng = Engine.create (small_config dir) in
      let store = Engine.store eng schema in
      let a =
        Store.new_instance ~init:[ (fn "qty", Value.Vint 1) ] store (cn "item")
      and b =
        Store.new_instance ~init:[ (fn "qty", Value.Vint 2) ] store (cn "item")
      in
      Engine.begin_txn eng 1;
      Store.write store a (fn "qty") (Value.Vint 100);
      Store.delete_instance store b;
      let c = Store.new_instance ~init:[ (fn "qty", Value.Vint 3) ] store (cn "item") in
      Engine.abort eng 1;
      Alcotest.(check value) "update undone" (Value.Vint 1) (Store.read store a (fn "qty"));
      Alcotest.(check bool) "delete undone" true (Store.exists store b);
      Alcotest.(check value) "deleted image restored" (Value.Vint 2)
        (Store.read store b (fn "qty"));
      Alcotest.(check bool) "insert undone" false (Store.exists store c);
      (* and the rollback itself is durable *)
      Engine.close eng;
      let eng2 = Engine.create (small_config dir) in
      let store2 = Engine.store eng2 schema in
      Alcotest.(check value) "undone update stays undone" (Value.Vint 1)
        (Store.read store2 a (fn "qty"));
      Alcotest.(check bool) "undone insert stays gone" false (Store.exists store2 c);
      Engine.close eng2)

(* Two threads, each with its own ambient transaction on one engine,
   take turns: inserts, qty updates, growing and shrinking labels (which
   migrate records across 512-byte pages) and deletes.  One aborts, the
   other commits; the store must hold exactly the committed changes. *)
let test_engine_interleaved_rollback () =
  with_dir "interleaved" (fun dir ->
      let schema = storage_schema () in
      let eng = Engine.create (small_config dir) in
      let item vq vl = [ (fn "qty", vq); (fn "label", vl) ] in
      let expected = Hashtbl.create 64 in
      let init = Engine.store eng schema in
      let owned =
        Array.init 2 (fun t ->
            ref
              (List.init 6 (fun i ->
                   let q = Value.Vint ((10 * t) + i) and l = Value.Vstring (Printf.sprintf "o%d" i) in
                   let o = Store.new_instance ~init:(item q l) init (cn "item") in
                   Hashtbl.replace expected (Oid.to_int o) [ ("qty", q); ("label", l) ];
                   o)))
      in
      let turn = ref 0 and mu = Mutex.create () and cv = Condition.create () in
      let failure = ref None in
      let steps = 40 in
      let body me () =
        let txn = me + 1 and commits = me = 1 in
        let store = Engine.store eng schema in
        let rng = Rng.create (7 + me) in
        let mine = owned.(me) in
        let model f = if commits then f () in
        let op i =
          if i = 0 then Engine.begin_txn eng txn
          else if i = steps - 1 then
            if commits then Engine.commit eng txn else Engine.abort eng txn
          else
            match Rng.int rng 4 with
            | 0 ->
                let q = Value.Vint (1000 + i) and l = Value.Vstring (String.make (1 + Rng.int rng 30) 'n') in
                let o = Store.new_instance ~init:(item q l) store (cn "item") in
                mine := o :: !mine;
                model (fun () -> Hashtbl.replace expected (Oid.to_int o) [ ("qty", q); ("label", l) ])
            | 1 ->
                let o = Rng.pick rng !mine and q = Value.Vint (Rng.int rng 1000) in
                Store.write store o (fn "qty") q;
                model (fun () ->
                    match Hashtbl.find expected (Oid.to_int o) with
                    | [ _; l ] -> Hashtbl.replace expected (Oid.to_int o) [ ("qty", q); l ]
                    | _ -> assert false)
            | 2 ->
                let o = Rng.pick rng !mine in
                let l = Value.Vstring (String.make (1 + Rng.int rng 90) (if me = 0 then 'a' else 'b')) in
                Store.write store o (fn "label") l;
                model (fun () ->
                    match Hashtbl.find expected (Oid.to_int o) with
                    | [ q; _ ] -> Hashtbl.replace expected (Oid.to_int o) [ q; ("label", l) ]
                    | _ -> assert false)
            | _ ->
                if List.length !mine > 2 then begin
                  let o = Rng.pick rng !mine in
                  Store.delete_instance store o;
                  mine := List.filter (fun x -> not (Oid.equal x o)) !mine;
                  model (fun () -> Hashtbl.remove expected (Oid.to_int o))
                end
        in
        for i = 0 to steps - 1 do
          Mutex.lock mu;
          while !turn <> me do
            Condition.wait cv mu
          done;
          Mutex.unlock mu;
          (try op i with e -> if !failure = None then failure := Some (Printexc.to_string e));
          Mutex.lock mu;
          turn := 1 - me;
          Condition.broadcast cv;
          Mutex.unlock mu
        done
      in
      let threads = [ Thread.create (body 0) (); Thread.create (body 1) () ] in
      List.iter Thread.join threads;
      Alcotest.(check (option string)) "no thread raised" None !failure;
      let want =
        Hashtbl.fold (fun oid slots l -> (oid, "item", slots) :: l) expected []
        |> List.sort compare
      in
      let dump = Engine.dump eng in
      Alcotest.(check bool)
        (Printf.sprintf "dump is the committed-only state (%d vs %d instances)" (List.length dump)
           (List.length want))
        true (dump = want);
      (* and the same after a reopen, which replays the compensations *)
      Engine.close eng;
      let eng2 = Engine.create (small_config dir) in
      Alcotest.(check bool) "and after reopen" true (Engine.dump eng2 = want);
      Engine.close eng2)

(* Abort, re-begin and abort the same id: the second abort undoes the
   second incarnation only, not changes the first one already undid and
   that were overwritten since. *)
let test_engine_reincarnation () =
  with_dir "reincarnation" (fun dir ->
      let schema = storage_schema () in
      let eng = Engine.create (small_config dir) in
      let store = Engine.store eng schema in
      let a = Store.new_instance ~init:[ (fn "qty", Value.Vint 1) ] store (cn "item")
      and b = Store.new_instance ~init:[ (fn "qty", Value.Vint 2) ] store (cn "item") in
      Engine.begin_txn eng 5;
      Store.write store a (fn "qty") (Value.Vint 10);
      Engine.abort eng 5;
      Alcotest.(check value) "first incarnation undone" (Value.Vint 1) (Store.read store a (fn "qty"));
      Store.write store a (fn "qty") (Value.Vint 3);
      Engine.begin_txn eng 5;
      Store.write store b (fn "qty") (Value.Vint 20);
      let c = Store.new_instance ~init:[ (fn "qty", Value.Vint 4) ] store (cn "item") in
      Engine.abort eng 5;
      Alcotest.(check value) "second incarnation undone" (Value.Vint 2) (Store.read store b (fn "qty"));
      Alcotest.(check bool) "its insert undone" false (Store.exists store c);
      Alcotest.(check value) "first incarnation not undone twice" (Value.Vint 3)
        (Store.read store a (fn "qty"));
      Engine.close eng)

(* A one-update abort costs the same after ~2k and after ~200k logged
   records: rollback walks the transaction's own changes, not the log. *)
let test_engine_abort_flat () =
  with_dir "abort_flat" (fun dir ->
      let schema = storage_schema () in
      let eng = Engine.create { (small_config dir) with pool_pages = 64 } in
      let store = Engine.store eng schema in
      let oids =
        Array.init 32 (fun i -> Store.new_instance ~init:[ (fn "qty", Value.Vint i) ] store (cn "item"))
      in
      let txn = ref 0 in
      let grow_log_to n =
        while (Engine.stats eng).Engine.s_wal_records < n do
          incr txn;
          Engine.begin_txn eng !txn;
          for j = 0 to 97 do
            Store.write store oids.(j mod 32) (fn "qty") (Value.Vint j)
          done;
          Engine.commit eng !txn
        done
      in
      let median_abort_ns () =
        let a =
          Array.init 21 (fun i ->
              incr txn;
              Engine.begin_txn eng !txn;
              Store.write store oids.(i mod 32) (fn "qty") (Value.Vint (-1));
              let t0 = Monotonic_clock.now () in
              Engine.abort eng !txn;
              Int64.to_int (Int64.sub (Monotonic_clock.now ()) t0))
        in
        Array.sort Int.compare a;
        a.(10)
      in
      grow_log_to 2_000;
      let small = median_abort_ns () in
      grow_log_to 200_000;
      let large = median_abort_ns () in
      Alcotest.(check value) "the aborts rolled back" (Value.Vint 97)
        (Store.read store oids.(1) (fn "qty"));
      Alcotest.(check bool)
        (Printf.sprintf "abort median %d ns at 200k records within 5x of %d ns at 2k" large small)
        true
        (large <= 5 * small);
      Engine.close eng)

(* --- the crash matrix --- *)

let matrix_config ~dir ~seed =
  { (Matrix.default ~dir ~seed ()) with txns = 8; objs = 48; max_states = 40; max_plans = 14 }

let test_matrix_smoke () =
  with_dir "matrix" (fun dir ->
      let r = Matrix.run (matrix_config ~dir ~seed:3) in
      Alcotest.(check bool)
        (Format.asprintf "%a" Matrix.pp_report r)
        true (Matrix.ok r);
      Alcotest.(check bool) "injections actually fired" true (r.Matrix.m_crashes_fired > 0))

(* A plan's crash point can fall in the final checkpoint of
   [Engine.close]; that must count as a crash, not escape.  Seed 456972
   hits it by chance; the last WAL force of a run, which is close's,
   hits it by construction. *)
let test_matrix_crash_in_close () =
  with_dir "matrix_close" (fun dir ->
      let r = Matrix.run (matrix_config ~dir ~seed:456972) in
      Alcotest.(check bool) (Format.asprintf "%a" Matrix.pp_report r) true (Matrix.ok r);
      let cfg = matrix_config ~dir ~seed:5 in
      let cf n =
        Matrix.run_plan cfg
          {
            Tavcc_chaos.Fault.injections = [ Tavcc_chaos.Fault.Crash_at_flush n ];
            schedule = Tavcc_chaos.Fault.none.Tavcc_chaos.Fault.schedule;
          }
      in
      let fires n =
        let _, _, crashed = cf n in
        crashed
      in
      (* the plan fires iff [n] is at most the run's force count *)
      let rec last lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi + 1) / 2 in
          if fires mid then last mid hi else last lo (mid - 1)
      in
      let n = last 1 10_000 in
      let v, _, crashed = cf n in
      Alcotest.(check bool) "the last force crashes" true crashed;
      Alcotest.(check (list string)) "and recovers clean" [] v)

let prop_matrix_seeds =
  QCheck.Test.make ~count:6 ~name:"crash matrix: zero violations across seeds" seed_arb
    (fun seed ->
      let dir = Filename.concat "_t_storage" "matrix_q" in
      let r = Matrix.run (matrix_config ~dir ~seed) in
      if not (Matrix.ok r) then
        QCheck.Test.fail_reportf "%a" (fun fmt r -> Matrix.pp_report fmt r) r;
      true)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_rec_roundtrip;
    QCheck_alcotest.to_alcotest prop_rec_cut;
    QCheck_alcotest.to_alcotest prop_page_bitflip;
    QCheck_alcotest.to_alcotest prop_page_torn;
    QCheck_alcotest.to_alcotest prop_page_ops;
    Alcotest.test_case "pool: pin ledger" `Quick test_pool_ledger;
    Alcotest.test_case "pool: all pinned fails loudly" `Quick test_pool_all_pinned;
    Alcotest.test_case "pool: dirty never dropped" `Quick test_pool_dirty_never_dropped;
    QCheck_alcotest.to_alcotest prop_pool_model;
    Alcotest.test_case "pool: two-domain pin/unpin hammer" `Quick test_pool_two_domain_hammer;
    Alcotest.test_case "pool: one eviction, one write-back batch" `Quick test_pool_eviction_batch;
    Alcotest.test_case "engine: state survives close/reopen" `Quick test_engine_persists;
    Alcotest.test_case "engine: data larger than the pool" `Quick test_engine_larger_than_pool;
    Alcotest.test_case "engine: abort rolls back and stays rolled back" `Quick
      test_engine_abort_rolls_back;
    Alcotest.test_case "engine: interleaved rollback of two threads" `Quick
      test_engine_interleaved_rollback;
    Alcotest.test_case "engine: re-begun id undoes its latest incarnation" `Quick
      test_engine_reincarnation;
    Alcotest.test_case "engine: abort cost is flat in log size" `Quick test_engine_abort_flat;
    Alcotest.test_case "crash matrix: smoke" `Quick test_matrix_smoke;
    Alcotest.test_case "crash matrix: crash inside close (seed 456972)" `Quick
      test_matrix_crash_in_close;
    QCheck_alcotest.to_alcotest prop_matrix_seeds;
  ]
