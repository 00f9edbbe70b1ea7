(* perfbench: the end-to-end and per-layer benchmark of the TAV server.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Runs one of three workloads against the unchanged libraries under the
   paper's TAV modes, checks the outputs with the slice-sum oracle and the
   request accounting, and prints as its last line one JSON object: the
   end-to-end metrics with [--trace 0], the per-layer metrics with
   [--trace 1].  Lines before it stamp the machine and configuration and
   print every figure in a table.  NOTE.md records why each workload and
   metric was chosen and which end-to-end figure each layer metric should
   move. *)

open Tavcc_model
open Pbench
module Workload = Tavcc_sim.Workload
module Rng = Tavcc_sim.Rng
module Analysis = Tavcc_core.Analysis
module Exec = Tavcc_cc.Exec
module Scheme = Tavcc_cc.Scheme
module Txn = Tavcc_txn.Txn
module Par_engine = Tavcc_par.Par_engine
module Wire = Tavcc_net.Wire
module Server = Tavcc_net.Server
module Client = Tavcc_net.Client
module Storage = Tavcc_storage.Engine
module Buffer_pool = Tavcc_storage.Buffer_pool
module Metrics = Tavcc_obs.Metrics
module Json = Tavcc_obs.Json

(* --- workloads ---------------------------------------------------------- *)

let slices = 16
let work = 8
let actions_per_txn = 4
let nproc = Domain.recommended_domain_count ()
let domains = nproc
let connections = min 2 nproc
let pipeline = 4
let batch_txns = 2048
let pool_txns = 4096
let replay_txns = 2000
let setup_repeats = 41
let setup_budget_ns = 2_000_000_000
let setup_cap = 100_000
let page_size = 512
let pool_frac = 0.10
let work_dir = "_perfbench"
let db_dir = Filename.concat work_dir "db"
let sock = Wire.Unix_sock (Filename.concat work_dir "srv.sock")

type spec = {
  name : string;
  readers : int;  (** reader methods in the schema *)
  instances : int;
  hot : int;  (** instances the transactions draw from *)
  read_frac : float;  (** share of read-only transactions *)
  served : bool;
  durable : bool;
  interactive_every : int;  (** every n-th transaction is Begin/Stmt/Rollback; 0 = none *)
}

let specs =
  [
    { name = "slices-batch"; readers = 0; instances = 64; hot = 4; read_frac = 0.;
      served = false; durable = false; interactive_every = 0 };
    { name = "serve-mixed"; readers = slices; instances = 64; hot = 4; read_frac = 0.5;
      served = true; durable = false; interactive_every = 0 };
    { name = "durable-serve"; readers = 0; instances = 1024; hot = 1024; read_frac = 0.;
      served = true; durable = true; interactive_every = 10 };
  ]

(* Served throughput climbs for a few seconds while the heap grows. *)
let warmup_ns spec = if spec.served then 3_000_000_000 else 1_000_000_000

let gen_jobs spec rng store ~txns =
  if spec.read_frac > 0. then
    Workload.mixed_slice_jobs rng store ~txns ~actions_per_txn ~hot_instances:spec.hot
      ~read_frac:spec.read_frac
  else Workload.slice_jobs rng store ~txns ~actions_per_txn ~hot_instances:spec.hot

(* --- set-up ------------------------------------------------------------- *)

type env = {
  scheme : Scheme.t;
  an : Analysis.t;
  schema : Tavcc_lang.Ast.body Schema.t;
  store : Tavcc_lang.Ast.body Store.t;  (** in memory, or the storage engine's *)
  engine : Storage.t option;
  storage_cfg : Storage.config option;
  mutable server : Server.t option;
  mutable clients : Client.t array;
}

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec dir_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left (fun a e -> a + dir_bytes (Filename.concat path e)) 0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size

let engine_config ?journal ?metrics ?probe () =
  { Par_engine.default_config with domains; journal; metrics; probe }

let start_server env ~store ~engine =
  let cfg =
    { (Server.default_config ~addr:sock ~scheme:env.scheme ~store) with Server.engine }
  in
  env.server <- Some (Server.start cfg);
  env.clients <-
    Array.init connections (fun i ->
        match Client.connect ~client:(Printf.sprintf "perfbench-%d" i) ~addr:sock () with
        | Ok (c, _) -> c
        | Error e -> failwith ("perfbench: connect: " ^ e))

let stop_server env =
  Array.iter Client.quit env.clients;
  env.clients <- [||];
  match env.server with
  | None -> None
  | Some srv ->
      env.server <- None;
      Server.request_stop srv;
      Some (Server.wait srv)

(* Schema, analysis, populated store (for durable-serve: populated under a
   pool that holds it all, checkpointed, reopened with the pool cut to a
   tenth of the data pages and fsync on every commit), server and client
   connections.  With [trace], the server runs with every layer's wrapper
   and reports to that registry.  Returns the environment, its set-up time
   and the analysis time. *)
let setup ?trace spec =
  let t0 = Stats.now_ns () in
  let schema = Workload.slice_schema ~readers:spec.readers ~methods:slices ~work () in
  let c0 = Stats.now_ns () in
  let an = Analysis.compile schema in
  let compile_ns = Stats.now_ns () - c0 in
  let scheme = Tavcc_cc.Tav_modes.scheme an in
  let store, engine, storage_cfg =
    if spec.durable then begin
      rm_rf db_dir;
      let cfg = { (Storage.default_config ~dir:db_dir) with page_size; pool_pages = 4096 } in
      let e0 = Storage.create cfg in
      Workload.populate (Storage.store e0 schema) ~per_class:spec.instances;
      let data_pages = (Storage.stats e0).Storage.s_data_pages in
      Storage.close e0;
      let pool_pages = max 4 (int_of_float (Float.round (float_of_int data_pages *. pool_frac))) in
      let cache_entries = max 1 (int_of_float (float_of_int spec.instances *. pool_frac)) in
      let cfg = { cfg with pool_pages; cache_entries; sync = Storage.Fsync } in
      let e = Storage.create cfg in
      (Storage.store e schema, Some e, Some cfg)
    end
    else begin
      let store = Store.create schema in
      Workload.populate store ~per_class:spec.instances;
      (store, None, None)
    end
  in
  let env = { scheme; an; schema; store; engine; storage_cfg; server = None; clients = [||] } in
  (if spec.served then
     let journal = Option.map Storage.journal engine in
     match trace with
     | None -> start_server env ~store ~engine:(engine_config ?journal ())
     | Some metrics ->
         start_server env ~store:(Timed.store store)
           ~engine:
             (engine_config ~journal:(Timed.journal ?inner:journal ()) ~metrics
                ~probe:(fun ~dom:_ ~txn ~holds:_ -> Timed.probe ~txn)
                ()));
  (env, Stats.now_ns () - t0, compile_ns)

let teardown env =
  ignore (stop_server env);
  Option.iter (fun e -> Storage.close e) env.engine;
  rm_rf db_dir

(* Sets up at least [setup_repeats] times and for at least
   [setup_budget_ns] (set-up and teardown), at most [setup_cap] times;
   keeps the last environment and returns it with the median set-up and
   analysis times and the number of set-ups. *)
let setups ?trace spec =
  let t0 = Stats.now_ns () in
  let rec go k setup_s compile_ms =
    let env, ns, cns = setup ?trace spec in
    let setup_s = Stats.seconds_of_ns ns :: setup_s in
    let compile_ms = (float_of_int cns /. 1e6) :: compile_ms in
    if k >= setup_cap || (k >= setup_repeats && Stats.now_ns () - t0 >= setup_budget_ns) then
      (env, Stats.median (Array.of_list setup_s), Stats.median (Array.of_list compile_ms), k)
    else begin
      teardown env;
      go (k + 1) setup_s compile_ms
    end
  in
  go 1 [] []

(* --- measured phases ------------------------------------------------------ *)

type totals = {
  mutable t_commits : int;
  mutable t_aborts : int;
  mutable t_deadlocks : int;
  mutable t_lock_requests : int;
  mutable t_lock_waits : int;
}

let new_totals () =
  { t_commits = 0; t_aborts = 0; t_deadlocks = 0; t_lock_requests = 0; t_lock_waits = 0 }

let add_result t (r : Par_engine.result) =
  t.t_commits <- t.t_commits + r.Par_engine.commits;
  t.t_aborts <- t.t_aborts + r.Par_engine.aborts;
  t.t_deadlocks <- t.t_deadlocks + r.Par_engine.deadlocks;
  t.t_lock_requests <- t.t_lock_requests + r.Par_engine.lock_stats.Tavcc_lock.Lock_table.requests;
  t.t_lock_waits <- t.t_lock_waits + r.Par_engine.lock_stats.Tavcc_lock.Lock_table.waits

type phase = {
  tps : float;  (** commits in the measured phase / its length *)
  wall_ns : int;  (** whole phase, warm-up included *)
  commits : int;  (** whole phase *)
  attempted : int;
  errors : int;
  rejected : int;
  rollbacks : int;  (** client-requested, so not errors *)
  accounting : string list;  (** requests or jobs not accounted for *)
  oracle : Oracle.t;  (** the committed transactions' slice sums *)
  lat : Stats.Windows.t;  (** transaction latencies (ns), measured phase *)
  server_us : Stats.Windows.t;  (** served: the server's latency of each request *)
  outside_ns : Stats.Windows.t;  (** served: client minus server latency, same requests *)
  client_ns_sum : int;  (** every replied request *)
  server_us_sum : int;
  sampled : (int * int * int * int) list;
  gc_minor : int;
  gc_major : int;
  engine : totals;
  window_start : int;
  window_end : int;
}

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)

(* [Par_engine.run] over batches of [batch_txns] fresh transactions until
   the phase ends.  A transaction's latency runs from its first begin to
   its commit, stamped by the engine's journal hooks. *)
let batch_phase spec env ~seed ~seconds ~trace =
  let rng = Rng.create seed and oracle = Oracle.create () in
  let start = Array.make (batch_txns + 1) 0 and lat = Array.make (batch_txns + 1) 0 in
  let stamps =
    {
      Par_engine.j_begin = (fun id -> if start.(id) = 0 then start.(id) <- Stats.now_ns ());
      j_commit = (fun id -> lat.(id) <- Stats.now_ns () - start.(id));
      j_abort = ignore;
    }
  in
  let config, store =
    match trace with
    | Some metrics ->
        ( engine_config ~journal:(Timed.then_ stamps (Timed.journal ())) ~metrics
            ~probe:(fun ~dom:_ ~txn ~holds:_ -> Timed.probe ~txn)
            (),
          Timed.store env.store )
    | None -> (engine_config ~journal:stamps (), env.store)
  in
  let tot = new_totals () in
  let lats = Stats.Windows.create () in
  let measured_commits = ref 0 and measured_ns = ref 0 in
  let attempted = ref 0 and errors = ref 0 and unaccounted = ref 0 in
  let minor0, major0 = gc_counts () in
  let t_start = Stats.now_ns () in
  let measure_from = t_start + warmup_ns spec in
  let stop = measure_from + int_of_float (seconds *. 1e9) in
  while Stats.now_ns () < stop do
    let jobs = gen_jobs spec rng env.store ~txns:batch_txns in
    Array.fill start 0 (batch_txns + 1) 0;
    Array.fill lat 0 (batch_txns + 1) 0;
    let t0 = Stats.now_ns () in
    let r = Par_engine.run ~config ~scheme:env.scheme ~store ~jobs () in
    let t1 = Stats.now_ns () in
    add_result tot r;
    let failed = List.length r.Par_engine.failed in
    attempted := !attempted + batch_txns;
    errors := !errors + failed;
    unaccounted := !unaccounted + abs (batch_txns - r.Par_engine.commits - failed);
    List.iter
      (fun (id, actions) ->
        if not (List.mem_assoc id r.Par_engine.failed) then Oracle.add oracle ~work actions)
      jobs;
    if t0 >= measure_from then begin
      measured_commits := !measured_commits + r.Par_engine.commits;
      measured_ns := !measured_ns + (t1 - t0);
      for id = 1 to batch_txns do
        if lat.(id) > 0 then Stats.Windows.push lats lat.(id)
      done
    end
  done;
  let t_end = Stats.now_ns () in
  let minor1, major1 = gc_counts () in
  {
    tps = float_of_int !measured_commits /. Stats.seconds_of_ns !measured_ns;
    wall_ns = t_end - t_start;
    commits = tot.t_commits;
    attempted = !attempted;
    errors = !errors + !unaccounted;
    rejected = 0;
    rollbacks = 0;
    accounting =
      (if !unaccounted > 0 then
         [ Printf.sprintf "%d jobs neither committed nor failed" !unaccounted ]
       else []);
    oracle;
    lat = lats;
    server_us = Stats.Windows.create ();
    outside_ns = Stats.Windows.create ();
    client_ns_sum = 0;
    server_us_sum = 0;
    sampled = [];
    gc_minor = minor1 - minor0;
    gc_major = major1 - major0;
    engine = tot;
    window_start = t_start;
    window_end = t_end;
  }

(* One closed-loop client per connection until the phase ends; commits
   count in the measured phase by reply time. *)
let served_phase spec env ~seed ~seconds =
  let pools =
    Array.init connections (fun i ->
        Array.of_list
          (List.map snd (gen_jobs spec (Rng.create ((seed * 1009) + i + 1)) env.store ~txns:pool_txns)))
  in
  let minor0, major0 = gc_counts () in
  let t_start = Stats.now_ns () in
  let measure_from = t_start + warmup_ns spec in
  let stop_ns = measure_from + int_of_float (seconds *. 1e9) in
  let lat = Stats.Windows.create () and server_us = Stats.Windows.create () in
  let outside_ns = Stats.Windows.create () in
  let one i client () =
    Loadgen.run ~client ~pool:pools.(i) ~interactive_every:spec.interactive_every
      ~pipeline ~work ~measure_from ~stop_ns ~txn_ns:lat ~server_us ~outside_ns
  in
  (* The connections are threads of one client domain: a domain each
     puts more runnable domains on the cores and makes throughput swing
     with the host's scheduling. *)
  let rs =
    Domain.join
      (Domain.spawn (fun () ->
           let out = Array.make (Array.length env.clients) None in
           let threads =
             Array.mapi (fun i c -> Thread.create (fun () -> out.(i) <- Some (one i c ())) ()) env.clients
           in
           Array.iter Thread.join threads;
           Array.to_list (Array.map Option.get out)))
  in
  let t_end = Stats.now_ns () in
  let minor1, major1 = gc_counts () in
  let oracle = Oracle.create () in
  List.iter (fun r -> Oracle.merge ~into:oracle r.Loadgen.committed_txns) rs;
  let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
  {
    tps =
      float_of_int (sum (fun r -> r.Loadgen.measured_commits))
      /. Stats.seconds_of_ns (stop_ns - measure_from);
    wall_ns = t_end - t_start;
    commits = sum (fun r -> r.Loadgen.committed);
    attempted = sum (fun r -> r.Loadgen.sent);
    errors = sum Loadgen.errors;
    rejected = sum (fun r -> r.Loadgen.rejected);
    rollbacks = sum (fun r -> r.Loadgen.rollbacks);
    accounting =
      List.concat
        (List.mapi
           (fun i r -> List.map (Printf.sprintf "connection %d: %s" i) (Loadgen.violations r))
           rs);
    oracle;
    lat;
    server_us;
    outside_ns;
    client_ns_sum = sum (fun r -> r.Loadgen.sum_req_ns);
    server_us_sum = sum (fun r -> r.Loadgen.sum_server_us);
    sampled = List.concat_map (fun r -> r.Loadgen.sampled) rs;
    gc_minor = minor1 - minor0;
    gc_major = major1 - major0;
    engine = new_totals ();
    window_start = t_start;
    window_end = t_end;
  }

(* One phase on [env], with every layer's wrapper on when [trace] (a
   served environment was set up with them).  A served phase stops the
   server at the end. *)
let phase ?trace spec env ~seed ~seconds =
  if not spec.served then batch_phase spec env ~seed ~seconds ~trace
  else begin
    let ph = served_phase spec env ~seed ~seconds in
    (match stop_server env with Some r -> add_result ph.engine r | None -> ());
    ph
  end

(* --- replays of the workload's own inputs, one domain, no locks ------------ *)

(* [Exec.perform] under a no-op [acquire]: the interpreter and executor
   alone.  Returns us per action, minor words per transaction and field
   accesses per transaction (counted by a probe on a separate pass). *)
let exec_replay spec env ~seed =
  let store = Store.create env.schema in
  Workload.populate store ~per_class:spec.instances;
  let jobs = gen_jobs spec (Rng.create (seed + 101)) store ~txns:replay_txns in
  let n_actions = List.fold_left (fun a (_, acts) -> a + List.length acts) 0 jobs in
  let pass ?probe () =
    List.iter
      (fun (id, acts) ->
        let txn = Txn.make ~id ~birth:id in
        let ctx = { Scheme.txn; acquire = (fun _ -> ()) } in
        Exec.begin_txn ~scheme:env.scheme ~store ~ctx acts;
        List.iter (fun a -> Exec.perform ~scheme:env.scheme ~store ~ctx ?probe a) acts;
        Txn.commit txn)
      jobs
  in
  pass ();
  let times =
    Array.init 7 (fun _ ->
        let t0 = Stats.now_ns () in
        pass ();
        float_of_int (Stats.now_ns () - t0))
  in
  let w0 = Gc.minor_words () in
  pass ();
  let words = Gc.minor_words () -. w0 in
  let accesses = ref 0 in
  let count _ _ _ ~versioned:_ = incr accesses in
  pass ~probe:{ Exec.null_probe with p_read = count; p_write = count } ();
  let txns = float_of_int replay_txns in
  ( Stats.median times /. float_of_int n_actions /. 1e3,
    words /. txns,
    float_of_int !accesses /. txns )

(* Encodes and frames, then unframes and decodes, the requests this
   workload sends and the replies it gets.  Returns us to encode and to
   decode one transaction's messages, and their bytes. *)
let wire_replay spec env ~seed =
  let jobs = gen_jobs spec (Rng.create (seed + 102)) env.store ~txns:replay_txns in
  let msgs =
    List.concat_map
      (fun (id, actions) ->
        if spec.interactive_every > 0 && id mod spec.interactive_every = 0 then
          let ack rq = Wire.Reply { rq; status = Wire.Done; latency_us = 1500 } in
          (Wire.Begin { rq = id }, ack id)
          :: List.map (fun action -> (Wire.Stmt { rq = id; action }, ack id)) actions
          @ [ (Wire.Rollback { rq = id }, ack id) ]
        else
          [ ( Wire.Run { rq = id; actions },
              Wire.Reply { rq = id; status = Wire.Committed { restarts = 0 }; latency_us = 1500 } ) ])
      jobs
  in
  let encode () =
    List.map (fun (q, p) -> (Wire.frame (Wire.encode_req q), Wire.frame (Wire.encode_resp p))) msgs
  in
  let framed = encode () in
  let decode () =
    List.iter
      (fun (q, p) ->
        (match Wire.unframe q ~pos:0 with
        | `Frame (s, _) -> if Result.is_error (Wire.decode_req s) then failwith "wire replay: request"
        | _ -> failwith "wire replay: request frame");
        match Wire.unframe p ~pos:0 with
        | `Frame (s, _) -> if Result.is_error (Wire.decode_resp s) then failwith "wire replay: reply"
        | _ -> failwith "wire replay: reply frame")
      framed
  in
  let time f =
    Stats.median
      (Array.init 7 (fun _ ->
           let t0 = Stats.now_ns () in
           ignore (Sys.opaque_identity (f ()));
           float_of_int (Stats.now_ns () - t0)))
  in
  let txns = float_of_int replay_txns in
  let bytes = List.fold_left (fun a (q, p) -> a + String.length q + String.length p) 0 framed in
  (time encode /. txns /. 1e3, time decode /. txns /. 1e3, float_of_int bytes /. txns)

(* --- reporting ------------------------------------------------------------- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }
let finite v = if Float.is_finite v then v else 0.

let fs_type path =
  let real = try Unix.realpath path with Unix.Unix_error _ -> path in
  let best = ref ("?", -1) in
  (try
     In_channel.with_open_text "/proc/mounts" (fun ic ->
         In_channel.input_all ic |> String.split_on_char '\n'
         |> List.iter (fun line ->
                match String.split_on_char ' ' line with
                | _ :: mnt :: fs :: _ ->
                    let n = String.length mnt in
                    let under =
                      mnt = "/"
                      || (String.length real >= n && String.sub real 0 n = mnt
                         && (String.length real = n || real.[n] = '/'))
                    in
                    if under && n > snd !best then best := (fs, n)
                | _ -> ()))
   with Sys_error _ -> ());
  fst !best

(* (steal, total) jiffies of all CPUs, from /proc/stat; (0, 0) where
   unavailable.  Steal is time the host gave the VM's CPUs to others. *)
let cpu_jiffies () =
  try
    In_channel.with_open_text "/proc/stat" (fun ic ->
        match In_channel.input_line ic with
        | Some line -> (
            match List.filter (( <> ) "") (String.split_on_char ' ' line) with
            | "cpu" :: fields ->
                let xs = List.filteri (fun i _ -> i < 8) (List.map int_of_string fields) in
                (List.nth xs 7, List.fold_left ( + ) 0 xs)
            | _ -> (0, 0))
        | None -> (0, 0))
  with Sys_error _ | Failure _ | Invalid_argument _ -> (0, 0)

let print_table title ms =
  Printf.printf "%s\n" title;
  List.iter (fun x -> Printf.printf "  %-30s %16.4f %s\n" x.m_name x.m_value x.m_unit) ms

let result_line ~correct ~attempted ~failed ms =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun x ->
                  ( x.m_name,
                    Json.Obj [ ("value", Json.Float (finite x.m_value)); ("unit", Json.String x.m_unit) ] ))
                ms) );
       ])

let per_k n d = if d = 0 then 0. else 1000. *. float_of_int n /. float_of_int d
let ratio n d = if d = 0 then 0. else float_of_int n /. float_of_int d
let us_of_ns ns = float_of_int ns /. 1e3

let hist_q m name q =
  let h = Metrics.histogram m name in
  if Metrics.count h = 0 then 0. else Metrics.quantile h q

(* The [q] tail of a per-layer sample, in us; 0 when the sample has
   fewer than [Stats.min_beyond] samples beyond it (off the path, or too
   short a phase), with a [note:] line naming it. *)
let layer_tail name sorted q =
  match Stats.tail sorted q with
  | Ok v -> v /. 1e3
  | Error why ->
      if Array.length sorted > 0 then Printf.printf "note: %s: %s; reporting 0\n" name why;
      0.

let write_trace spec ~seed (sum : Spans.summary) (ph : phase) =
  let base = ph.window_start in
  let us ns = Json.Float (float_of_int (ns - base) /. 1e3) in
  let spans =
    List.map
      (fun s ->
        Json.Obj
          [
            ("name", Json.String Spans.names.(s.Spans.s_kind));
            ("ph", Json.String "X");
            ("ts", us s.Spans.s_start);
            ("dur", Json.Float (float_of_int (s.Spans.s_end - s.Spans.s_start) /. 1e3));
            ("pid", Json.Int 1);
            ("tid", Json.Int s.Spans.s_tid);
            ( "args",
              Json.Obj
                [
                  ("txn", Json.Int s.Spans.s_key);
                  ( "parent",
                    Json.String (if s.Spans.s_parent < 0 then "" else Spans.names.(s.Spans.s_parent)) );
                ] );
          ])
      sum.Spans.spans
  in
  let requests =
    List.map
      (fun (rq, t0, cns, sus) ->
        Json.Obj
          [
            ("name", Json.String "net.request");
            ("ph", Json.String "X");
            ("ts", us t0);
            ("dur", Json.Float (float_of_int cns /. 1e3));
            ("pid", Json.Int 2);
            ("tid", Json.Int 0);
            ("args", Json.Obj [ ("rq", Json.Int rq); ("server_us", Json.Int sus) ]);
          ])
      ph.sampled
  in
  let file = Filename.concat work_dir (Printf.sprintf "trace-%s-%d.json" spec.name seed) in
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Json.to_string (Json.Obj [ ("traceEvents", Json.List (spans @ requests)) ])));
  file

(* --- the run ---------------------------------------------------------------- *)

type durable_end = { restart_s : float; disk_bytes : int; wal_records : int; recovered_records : int }

(* The correctness checks of one phase on [env], which it then releases:
   the request accounting and the slice sums, and for durable-serve the
   same sums after a process kill (abandon) and a reopen.  Returns the
   violations and, for durable-serve, the figures of the restart. *)
let finish (env : env) (ph : phase) =
  let checked, durable =
    match (env.engine, env.storage_cfg) with
    | Some e, Some cfg ->
        let disk_bytes = dir_bytes db_dir in
        let wal_records = (Storage.stats e).Storage.s_wal_records in
        Storage.abandon e;
        let t0 = Stats.now_ns () in
        let e2 = Storage.create cfg in
        let restart_s = Stats.seconds_of_ns (Stats.now_ns () - t0) in
        let v = Oracle.check ~slices ph.oracle (Storage.store e2 env.schema) in
        let recovered_records = (Storage.stats e2).Storage.s_wal_records in
        Storage.close e2;
        rm_rf db_dir;
        (v, Some { restart_s; disk_bytes; wal_records; recovered_records })
    | _ -> (Oracle.check ~slices ph.oracle env.store, None)
  in
  let cells =
    if checked = [] then []
    else
      List.filteri (fun i _ -> i < 20) checked
      @ [ Printf.sprintf "%d cells differ from the committed sums" (List.length checked) ]
  in
  (ph.accounting @ cells, durable)

(* Pool hits, misses, evictions and WAL bytes so far; [Storage.stats]
   shares the pool's live counters, so they are read out at once. *)
let storage_counts (env : env) =
  match env.engine with
  | None -> [| 0; 0; 0; 0 |]
  | Some e ->
      let st = Storage.stats e in
      let p = st.Storage.s_pool in
      [| p.Buffer_pool.hits; p.Buffer_pool.misses; p.Buffer_pool.evictions; st.Storage.s_wal_bytes |]

(* The traced run's second half: a fresh set-up, the same inputs as the
   untraced half, every wrapper on.  Its own set-up keeps the untraced
   and traced halves comparable where throughput declines over a run
   (durable-serve's aborts grow with the log). *)
(* The machine and configuration, printed first on every run. *)
let stamp spec ~seed ~seconds ~trace ~rev =
  let active =
    (* workers and the deadlock detector; served: also the client domain
       and the main domain's session threads *)
    if spec.served then domains + 3 else domains + 1
  in
  let sync = if spec.durable then "fsync per commit" else "none (in-memory store)" in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("workload", Json.String spec.name);
            ("seed", Json.Int seed);
            ("seconds", Json.Int seconds);
            ("trace", Json.Bool trace);
            ("nproc", Json.Int nproc);
            ("ocaml", Json.String Sys.ocaml_version);
            ("rev", Json.String rev);
            ("data_dir", Json.String (if spec.durable then db_dir else "-"));
            ("data_dir_fs", Json.String (if spec.durable then fs_type work_dir else "-"));
            ("sync", Json.String sync);
            ("scheme", Json.String "tav");
            ("worker_domains", Json.Int domains);
            ("connections", Json.Int (if spec.served then connections else 0));
            ("pipeline", Json.Int (if spec.served then pipeline else 0));
            ("active_domains", Json.Int active);
            ("oversubscribed", Json.Bool (active > nproc));
          ]))

let print_sizes (env : env) =
  Option.iter
    (fun e ->
      let st = Storage.stats e in
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("instances", Json.Int st.Storage.s_instances);
                ("page_size", Json.Int page_size);
                ("data_pages", Json.Int st.Storage.s_data_pages);
                ("pool_pages", Json.Int st.Storage.s_pool_pages);
                ( "row_cache_entries",
                  Json.Int (Option.fold ~none:0 ~some:(fun c -> c.Storage.cache_entries) env.storage_cfg) );
              ])))
    env.engine

(* --trace 0: the end-to-end figures of one untraced phase on the last
   set-up. *)
let measured spec ~seed ~seconds ~rev =
  stamp spec ~seed ~seconds ~trace:false ~rev;
  let env, setup_s, _, n_setups = setups spec in
  print_sizes env;
  let steal0, total0 = cpu_jiffies () in
  let heap_samples = ref [] and sampling = Atomic.make true in
  let sampler =
    Thread.create
      (fun () ->
        while Atomic.get sampling do
          heap_samples := (Stats.now_ns (), (Gc.quick_stat ()).Gc.heap_words) :: !heap_samples;
          Thread.delay 0.1
        done)
      ()
  in
  let ph = phase spec env ~seed ~seconds:(float_of_int seconds) in
  Atomic.set sampling false;
  Thread.join sampler;
  let steal1, total1 = cpu_jiffies () in
  let mb words = words *. float_of_int (Sys.word_size / 8) /. 1e6 in
  let heap_mb =
    let measure_from = ph.window_start + warmup_ns spec in
    List.filter_map
      (fun (t, w) -> if t >= measure_from then Some (float_of_int w) else None)
      !heap_samples
    |> Array.of_list |> Stats.median |> mb
  in
  let heap_top_mb = mb (float_of_int (Gc.quick_stat ()).Gc.top_heap_words) in
  let violations, durable = finish env ph in
  List.iter (fun v -> Printf.printf "VIOLATION: %s\n" v) violations;
  let lat_p50, lat_p99 =
    match Stats.Windows.summary ph.lat with
    | Ok v -> v
    | Error why ->
        prerr_endline ("perfbench: latency: " ^ why);
        exit 2
  in
  let end_to_end =
    [
      m "commit_tps" "txn/s" ph.tps;
      m "lat_p50_us" "us" (lat_p50 /. 1e3);
      m "lat_p99_us" "us" (lat_p99 /. 1e3);
      m "setup_s" "s" setup_s;
      m "heap_mb" "MB" heap_mb;
    ]
  in
  print_table "end to end" end_to_end;
  print_table "end to end, not gated (see NOTE.md)"
    [
      m "error_frac" "ratio" (ratio ph.errors ph.attempted);
      m "heap_top_mb" "MB" heap_top_mb;
      m "host_steal_pct" "%" (100. *. ratio (steal1 - steal0) (total1 - total0));
      m "restart_s" "s" (Option.fold ~none:0. ~some:(fun d -> d.restart_s) durable);
      m "disk_bytes_per_commit" "B"
        (Option.fold ~none:0. ~some:(fun d -> ratio d.disk_bytes ph.commits) durable);
      m "lat_samples" "count" (float_of_int (Stats.Windows.samples ph.lat));
      m "lat_windows" "count" (float_of_int (Stats.Windows.windows ph.lat));
      m "setups" "count" (float_of_int n_setups);
    ];
  let correct = violations = [] in
  print_endline (result_line ~correct ~attempted:ph.attempted ~failed:ph.errors end_to_end);
  if correct then 0 else 1

type baseline = { b_tps : float; b_correct : bool; b_attempted : int; b_failed : int }

(* The untraced baseline of a traced run: this program run as a child
   with [--trace 0] for [seconds].  Its lines are relayed with a prefix.
   A process of its own starts from the same state as the traced half
   (set-ups, then warm-up), so neither half inherits the other's heap,
   store or log: served throughput climbs with the heap, and
   durable-serve's falls as its log grows. *)
let baseline spec ~seed ~seconds ~rev =
  let args =
    [| Sys.executable_name; "--workload"; spec.name; "--seed"; string_of_int seed; "--seconds";
       string_of_int seconds; "--trace"; "0"; "--rev"; rev |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
  let status = Unix.close_process_in ic in
  List.iter (fun l -> Printf.printf "untraced| %s\n" l) lines;
  let result = match List.rev lines with last :: _ -> Json.of_string last | [] -> Error "no output" in
  let field path j = List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path in
  match (status, result) with
  | Unix.WEXITED (0 | 1), Ok j -> (
      match
        ( field [ "metrics"; "commit_tps"; "value" ] j,
          field [ "correct" ] j,
          Option.bind (field [ "attempted" ] j) Json.to_int,
          Option.bind (field [ "failed" ] j) Json.to_int )
      with
      | Some (Json.Float tps), Some (Json.Bool correct), Some attempted, Some failed ->
          Ok { b_tps = tps; b_correct = correct; b_attempted = attempted; b_failed = failed }
      | Some (Json.Int tps), Some (Json.Bool correct), Some attempted, Some failed ->
          Ok { b_tps = float_of_int tps; b_correct = correct; b_attempted = attempted; b_failed = failed }
      | _ -> Error "untraced run: malformed result")
  | Unix.WEXITED (0 | 1), Error e -> Error ("untraced run: " ^ e)
  | _ -> Error "untraced run failed"

(* --trace 1: the untraced baseline, then the same set-ups and one
   traced phase of [seconds / 2] each, the replays and the per-layer
   figures. *)
let traced spec ~seed ~seconds ~rev =
  let half = max 1 (seconds / 2) in
  let base =
    match baseline spec ~seed ~seconds:half ~rev with
    | Ok b -> b
    | Error e ->
        prerr_endline ("perfbench: " ^ e);
        exit 2
  in
  stamp spec ~seed ~seconds ~trace:true ~rev;
  let metrics = Metrics.create () in
  let env, _, compile_ms, _ = setups ~trace:metrics spec in
  print_sizes env;
  let counts0 = storage_counts env in
  let ph = phase ~trace:metrics spec env ~seed ~seconds:(float_of_int half) in
  let delta = Array.map2 ( - ) (storage_counts env) counts0 in
  let us_per_action, words_per_txn, accesses_per_txn = exec_replay spec env ~seed in
  let enc_us, dec_us, wire_bytes = wire_replay spec env ~seed in
  let violations, durable = finish env ph in
  List.iter (fun v -> Printf.printf "VIOLATION: %s\n" v) violations;
  let attempted = base.b_attempted + ph.attempted and failed = base.b_failed + ph.errors in
  let error_frac = ratio failed attempted in
  let commit_tps = base.b_tps in
  let restart_s = Option.fold ~none:0. ~some:(fun d -> d.restart_s) durable in
  let disk_bytes_per_commit =
    Option.fold ~none:0. ~some:(fun d -> ratio d.disk_bytes ph.commits) durable
  in
  let layer =
    let sum = Spans.collect () in
    let commits = ph.commits in
    let e = ph.engine in
    let sorted k = Stats.sorted_of_ints sum.Spans.durs.(k) in
    let p50 a = if Array.length a = 0 then 0. else Stats.quantile a 0.5 in
    let storage_us k = p50 (sorted k) /. 1e3 in
    let abort_growth =
      let starts = sum.Spans.starts.(Spans.st_abort) and durs = sum.Spans.durs.(Spans.st_abort) in
      let tenth = (ph.window_end - ph.window_start) / 10 in
      let pick lo hi =
        let xs = ref [] in
        Array.iteri
          (fun i s -> if s >= lo && s < hi then xs := float_of_int durs.(i) :: !xs)
          starts;
        Array.of_list !xs
      in
      let first = pick ph.window_start (ph.window_start + tenth)
      and last = pick (ph.window_end - tenth) ph.window_end in
      if Array.length first = 0 || Array.length last = 0 then 0.
      else Stats.median last /. Stats.median first
    in
    let hits = delta.(0) and misses = delta.(1) in
    let busy_us =
      List.fold_left
        (fun a i -> a + Metrics.value (Metrics.counter metrics (Printf.sprintf "par.dom%d.busy_us" i)))
        0
        (List.init domains Fun.id)
    in
    (* (p50, p99) over the windows of a served sample; zeros off the
       served path *)
    let windows ws = Result.value ~default:(0., 0.) (Stats.Windows.summary ws) in
    let srv_p50, srv_p99 = windows ph.server_us and outside_p50, _ = windows ph.outside_ns in
    let self k = us_of_ns sum.Spans.self_ns.(k) /. float_of_int (max 1 commits) in
    let store_ns = sum.Spans.read_ns + sum.Spans.write_ns in
    let per_commit x = x /. float_of_int (max 1 commits) in
    let txn_ns = Array.fold_left ( + ) 0 sum.Spans.durs.(Spans.txn) in
    Printf.printf "trace: %s (%d sampled spans, %d unmatched frames)\n"
      (write_trace spec ~seed sum ph) (List.length sum.Spans.spans) sum.Spans.unmatched;
    [
      m "core.compile_ms" "ms" compile_ms;
      m "exec.us_per_action" "us" us_per_action;
      m "exec.minor_words_per_txn" "words" words_per_txn;
      m "exec.accesses_per_txn" "count" accesses_per_txn;
      m "lock.requests_per_txn" "count" (ratio e.t_lock_requests commits);
      m "lock.wait_frac" "ratio" (ratio e.t_lock_waits e.t_lock_requests);
      m "lock.wait_us_p50" "us" (hist_q metrics "lock.wait_steps" 0.5);
      m "lock.wait_us_p99" "us" (hist_q metrics "lock.wait_steps" 0.99);
      m "lock.deadlocks_per_1k" "count" (per_k e.t_deadlocks commits);
      m "par.commit_ratio" "ratio"
        (ratio e.t_commits (e.t_commits + e.t_aborts - ph.rollbacks));
      m "par.backoff_ms" "ms"
        (per_k (Metrics.sum (Metrics.histogram metrics "par.backoff_us")) commits /. 1e3);
      m "par.busy_frac" "ratio"
        (float_of_int busy_us /. (float_of_int domains *. us_of_ns ph.wall_ns));
      m "par.txn_us_p50" "us" (hist_q metrics "par.txn_us" 0.5);
      m "par.txn_us_p99" "us" (hist_q metrics "par.txn_us" 0.99);
      m "wire.encode_us" "us" enc_us;
      m "wire.decode_us" "us" dec_us;
      m "wire.bytes_per_txn" "B" wire_bytes;
      m "net.server_us_p50" "us" srv_p50;
      m "net.server_us_p99" "us" srv_p99;
      m "net.outside_us_p50" "us" (outside_p50 /. 1e3);
      m "net.rejected_frac" "ratio" (ratio ph.rejected ph.attempted);
      m "store.ops_per_txn" "count" (ratio (sum.Spans.reads + sum.Spans.writes) commits);
      m "store.read_us" "us" (us_of_ns sum.Spans.read_ns /. float_of_int (max 1 sum.Spans.reads));
      m "store.write_us" "us" (us_of_ns sum.Spans.write_ns /. float_of_int (max 1 sum.Spans.writes));
      m "storage.begin_us_p50" "us" (storage_us Spans.st_begin);
      m "storage.commit_us_p50" "us" (storage_us Spans.st_commit);
      m "storage.commit_us_p99" "us"
        (layer_tail "storage.commit_us_p99" (sorted Spans.st_commit) 0.99);
      m "storage.abort_us_p50" "us" (storage_us Spans.st_abort);
      m "storage.abort_us_p90" "us"
        (layer_tail "storage.abort_us_p90" (sorted Spans.st_abort) 0.9);
      m "storage.abort_growth_x" "x" abort_growth;
      m "storage.wal_bytes_per_commit" "B" (ratio delta.(3) commits);
      m "storage.wal_records_resident" "count"
        (Option.fold ~none:0. ~some:(fun d -> float_of_int d.wal_records) durable);
      m "storage.pool_hit_rate" "ratio" (ratio hits (hits + misses));
      m "storage.evictions_per_commit" "count" (ratio delta.(2) commits);
      m "storage.recovery_records" "count"
        (Option.fold ~none:0. ~some:(fun d -> float_of_int d.recovered_records) durable);
      m "storage.restart_s" "s" restart_s;
      m "storage.disk_bytes_per_commit" "B" disk_bytes_per_commit;
      m "gc.minor_per_1k_txn" "count" (per_k ph.gc_minor commits);
      m "gc.major_per_1k_txn" "count" (per_k ph.gc_major commits);
      m "trace.overhead_pct" "%" (100. *. (commit_tps -. ph.tps) /. commit_tps);
      m "error_frac" "ratio" error_frac;
      m "self.net_us" "us"
        (per_commit ((float_of_int ph.client_ns_sum /. 1e3) -. float_of_int ph.server_us_sum));
      m "self.server_us" "us"
        (if spec.served then per_commit (float_of_int ph.server_us_sum -. us_of_ns txn_ns)
         else 0.);
      m "self.par_us" "us" (self Spans.txn);
      m "self.exec_us" "us"
        (per_commit (us_of_ns (sum.Spans.self_ns.(Spans.meth) - store_ns)));
      m "self.store_us" "us" (per_commit (us_of_ns store_ns));
      m "self.storage_us" "us"
        (self Spans.st_begin +. self Spans.st_commit +. self Spans.st_abort);
    ]
  in
  print_table "per layer (traced half)" layer;
  let correct = violations = [] && base.b_correct in
  print_endline (result_line ~correct ~attempted ~failed layer);
  if correct then 0 else 1

let run spec ~seed ~seconds ~trace ~rev =
  (try Unix.mkdir work_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  if trace then traced spec ~seed ~seconds ~rev else measured spec ~seed ~seconds ~rev

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 and rev = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME slices-batch | serve-mixed | durable-serve");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced run with per-layer metrics");
      ("--rev", Arg.Set_string rev, "REV source revision to stamp on the result");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun s -> s.name = !workload) specs with
  | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  | Some _ when !seconds < 1 || (!trace <> 0 && !trace <> 1) ->
      prerr_endline "perfbench: --seconds must be >= 1 and --trace 0 or 1";
      exit 2
  | Some spec -> exit (run spec ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~rev:!rev)
