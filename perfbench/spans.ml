(* In-memory spans for the traced run, recorded from the benchmark's own
   wrappers around the program's layer boundaries: the journal hooks
   (transaction attempt, storage begin/commit/abort), the executor probe
   (method frames) and the store wrapper (field reads and writes).

   Each domain keeps its own state; a mutex guards it because the main
   domain runs several session threads.  Frames nest per thread, so a
   span's self time is its duration minus its children's, computed when it
   closes.  Every span feeds the per-kind totals; the spans of one
   transaction in [sample_every] are also kept whole for the trace file. *)

type kind = int

let txn = 0
let meth = 1
let st_begin = 2
let st_commit = 3
let st_abort = 4
let names = [| "par.txn"; "exec.method"; "storage.begin"; "storage.commit"; "storage.abort" |]
let n_kinds = Array.length names
let sample_every = 64

type frame = { f_kind : kind; f_key : int; f_start : int; mutable f_child : int }

type span = {
  s_kind : kind;
  s_key : int;  (** transaction id *)
  s_tid : int;
  s_start : int;
  s_end : int;
  s_parent : kind;  (** -1 at the top of a thread's stack *)
}

type dstate = {
  mu : Mutex.t;
  stacks : (int, frame list ref) Hashtbl.t;  (* by thread id *)
  self_ns : int array;
  durs : Stats.Vec.t array;
  starts : Stats.Vec.t array;
  mutable sampled : span list;
  mutable unmatched : int;
  mutable reads : int;
  mutable read_ns : int;
  mutable writes : int;
  mutable write_ns : int;
}

let registry = ref []
let registry_mu = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let d =
        {
          mu = Mutex.create ();
          stacks = Hashtbl.create 8;
          self_ns = Array.make n_kinds 0;
          durs = Array.init n_kinds (fun _ -> Stats.Vec.create ());
          starts = Array.init n_kinds (fun _ -> Stats.Vec.create ());
          sampled = [];
          unmatched = 0;
          reads = 0;
          read_ns = 0;
          writes = 0;
          write_ns = 0;
        }
      in
      Mutex.lock registry_mu;
      registry := d :: !registry;
      Mutex.unlock registry_mu;
      d)

let stack d tid =
  match Hashtbl.find_opt d.stacks tid with
  | Some s -> s
  | None ->
      let s = ref [] in
      Hashtbl.add d.stacks tid s;
      s

let enter kind k =
  let d = Domain.DLS.get key in
  Mutex.lock d.mu;
  let s = stack d (Thread.id (Thread.self ())) in
  s := { f_kind = kind; f_key = k; f_start = Stats.now_ns (); f_child = 0 } :: !s;
  Mutex.unlock d.mu

let leave kind =
  let t = Stats.now_ns () in
  let d = Domain.DLS.get key in
  Mutex.lock d.mu;
  let tid = Thread.id (Thread.self ()) in
  let s = stack d tid in
  (match !s with
  | f :: rest when f.f_kind = kind ->
      s := rest;
      let dur = t - f.f_start in
      d.self_ns.(kind) <- d.self_ns.(kind) + dur - f.f_child;
      Stats.Vec.push d.durs.(kind) dur;
      Stats.Vec.push d.starts.(kind) f.f_start;
      let parent =
        match rest with
        | p :: _ ->
            p.f_child <- p.f_child + dur;
            p.f_kind
        | [] -> -1
      in
      if f.f_key mod sample_every = 0 then
        d.sampled <-
          {
            s_kind = kind;
            s_key = f.f_key;
            s_tid = ((Domain.self () :> int) lsl 20) lor tid;
            s_start = f.f_start;
            s_end = t;
            s_parent = parent;
          }
          :: d.sampled
  | _ -> d.unmatched <- d.unmatched + 1);
  Mutex.unlock d.mu

(* Store operations are counted, not framed: nearly all of them run inside
   a method frame, whose self time they are subtracted from. *)
let store_op ~write ns =
  let d = Domain.DLS.get key in
  if write then begin
    d.writes <- d.writes + 1;
    d.write_ns <- d.write_ns + ns
  end
  else begin
    d.reads <- d.reads + 1;
    d.read_ns <- d.read_ns + ns
  end

type summary = {
  self_ns : int array;
  durs : int array array;
  starts : int array array;
  spans : span list;
  unmatched : int;
  reads : int;
  read_ns : int;
  writes : int;
  write_ns : int;
}

(* Call once every traced domain has been joined. *)
let collect () =
  Mutex.lock registry_mu;
  let ds = !registry in
  Mutex.unlock registry_mu;
  let sum f = List.fold_left (fun a d -> a + f d) 0 ds in
  let cat f =
    Array.init n_kinds (fun k -> Array.concat (List.map (fun d -> Stats.Vec.to_array (f d).(k)) ds))
  in
  {
    self_ns = Array.init n_kinds (fun k -> sum (fun d -> d.self_ns.(k)));
    durs = cat (fun d -> d.durs);
    starts = cat (fun d -> d.starts);
    spans = List.concat_map (fun d -> d.sampled) ds;
    unmatched = sum (fun d -> d.unmatched);
    reads = sum (fun d -> d.reads);
    read_ns = sum (fun d -> d.read_ns);
    writes = sum (fun d -> d.writes);
    write_ns = sum (fun d -> d.write_ns);
  }
