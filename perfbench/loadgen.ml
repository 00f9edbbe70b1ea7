(* The closed-loop client of the served workloads: one connection keeps
   up to [pipeline] requests in flight and sends the next only when a
   reply lands, the way callers that wait for their replies load a
   server.  Every request is timed on the monotonic clock from send to
   reply, and the server's own [latency_us] is kept beside it. *)

module Wire = Tavcc_net.Wire
module Client = Tavcc_net.Client

let k_run = 0
let k_begin = 1
let k_stmt = 2
let k_rollback = 3

type result = {
  mutable sent : int;
  mutable replies : int;
  mutable committed : int;
  mutable rollbacks : int;
  mutable aborted : int;
  mutable rejected : int;
  mutable failed : int;
  mutable protocol_errors : int;
  mutable units : int;  (** transactions sent, one-shot or interactive *)
  mutable sum_req_ns : int;  (** over every reply *)
  mutable sum_server_us : int;
  mutable measured_commits : int;  (** commits whose reply landed in the measured phase *)
  committed_txns : Oracle.t;
  mutable sampled : (int * int * int * int) list;  (** (rq, sent, client ns, server us) *)
}

let errors r = r.aborted + r.rejected + r.failed + r.protocol_errors + (r.sent - r.replies)

let create () =
  {
    sent = 0;
    replies = 0;
    committed = 0;
    rollbacks = 0;
    aborted = 0;
    rejected = 0;
    failed = 0;
    protocol_errors = 0;
    units = 0;
    sum_req_ns = 0;
    sum_server_us = 0;
    measured_commits = 0;
    committed_txns = Oracle.create ();
    sampled = [];
  }

(* Breaches of the request accounting, empty when every request sent got
   exactly one reply and no message broke the protocol. *)
let violations r =
  (if r.protocol_errors > 0 then [ Printf.sprintf "%d protocol errors" r.protocol_errors ]
   else [])
  @
  if r.sent <> r.replies then
    [ Printf.sprintf "%d requests sent, %d answered" r.sent r.replies ]
  else []

(* Sends [pool] transactions round-robin until [stop_ns], then drains.
   Every [interactive_every]-th transaction (0: none) goes as
   Begin / Stmt per action / Rollback instead of one [Run].  [txn_ns] gets
   the latency of each transaction begun in the measured phase: a [Run]'s
   send to its reply, or an interactive Begin's send to the Rollback's
   reply.  [server_us] gets the server's latency of each request sent in
   the measured phase, [outside_ns] the client's latency of it minus the
   server's. *)
let run ~client ~pool ~interactive_every ~pipeline ~work ~measure_from ~stop_ns ~txn_ns
    ~server_us:server_windows ~outside_ns =
  let r = create () in
  (* Per-request state lives in a ring: at most [pipeline] plus one
     interactive transaction's requests are ever in flight. *)
  let ring = 1024 in
  let kinds = Array.make ring 0 and txn_of = Array.make ring 0 and sent_at = Array.make ring 0 in
  let unit_at = Array.make ring 0 and answered = Array.make ring true in
  let next_rq = ref 0 in
  let outstanding = ref 0 and give_up = ref false in
  let send ~unit_start mk kind i =
    if not !give_up then begin
      let rq = !next_rq in
      let slot = rq mod ring in
      incr next_rq;
      kinds.(slot) <- kind;
      txn_of.(slot) <- i;
      answered.(slot) <- false;
      unit_at.(slot) <- unit_start;
      sent_at.(slot) <- Stats.now_ns ();
      match Client.send client (mk rq) with
      | Ok () ->
          r.sent <- r.sent + 1;
          incr outstanding
      | Error _ ->
          r.protocol_errors <- r.protocol_errors + 1;
          give_up := true
    end
  in
  let send_unit () =
    let i = r.units mod Array.length pool in
    let actions = pool.(i) in
    let send = send ~unit_start:(Stats.now_ns ()) in
    if interactive_every > 0 && r.units mod interactive_every = interactive_every - 1 then begin
      send (fun rq -> Wire.Begin { rq }) k_begin i;
      List.iter (fun action -> send (fun rq -> Wire.Stmt { rq; action }) k_stmt i) actions;
      send (fun rq -> Wire.Rollback { rq }) k_rollback i
    end
    else send (fun rq -> Wire.Run { rq; actions }) k_run i;
    r.units <- r.units + 1
  in
  let on_reply rq status server_us =
    let t = Stats.now_ns () in
    if rq < 0 || rq >= !next_rq || rq < !next_rq - ring || answered.(rq mod ring) then begin
      r.protocol_errors <- r.protocol_errors + 1;
      give_up := true
    end
    else begin
      let slot = rq mod ring in
      answered.(slot) <- true;
      decr outstanding;
      r.replies <- r.replies + 1;
      let t0 = sent_at.(slot) in
      r.sum_req_ns <- r.sum_req_ns + (t - t0);
      r.sum_server_us <- r.sum_server_us + server_us;
      if t0 >= measure_from && t0 < stop_ns then begin
        Stats.Windows.push server_windows server_us;
        Stats.Windows.push outside_ns (t - t0 - (1000 * server_us));
        if rq mod Spans.sample_every = 0 then
          r.sampled <- (rq, t0, t - t0, server_us) :: r.sampled
      end;
      let kind = kinds.(slot) in
      let u0 = unit_at.(slot) in
      if (kind = k_run || kind = k_rollback) && u0 >= measure_from && u0 < stop_ns then
        Stats.Windows.push txn_ns (t - u0);
      match status with
      | Wire.Committed _ when kind = k_run ->
          r.committed <- r.committed + 1;
          Oracle.add r.committed_txns ~work pool.(txn_of.(slot));
          if t >= measure_from && t < stop_ns then r.measured_commits <- r.measured_commits + 1
      | Wire.Done when kind <> k_run ->
          if kind = k_rollback then r.rollbacks <- r.rollbacks + 1
      | Wire.Aborted _ -> r.aborted <- r.aborted + 1
      | Wire.Rejected -> r.rejected <- r.rejected + 1
      | Wire.Committed _ | Wire.Done | Wire.Failed _ -> r.failed <- r.failed + 1
    end
  in
  while (not !give_up) && (!outstanding > 0 || Stats.now_ns () < stop_ns) do
    while (not !give_up) && !outstanding < pipeline && Stats.now_ns () < stop_ns do
      send_unit ()
    done;
    if (not !give_up) && !outstanding > 0 then
      match Client.recv client with
      | Ok (Wire.Reply { rq; status; latency_us }) -> on_reply rq status latency_us
      | Ok _ | Error _ ->
          r.protocol_errors <- r.protocol_errors + 1;
          give_up := true
  done;
  r
