(* Monotonic time and the order statistics every reported figure uses. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_of_ns ns = float_of_int ns *. 1e-9

(* Growable int vector for the traced run's span durations. *)
module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = [||]; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (max 1024 (2 * v.n)) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let to_array v = Array.sub v.a 0 v.n
end

let sorted_floats a =
  let b = Array.copy a in
  Array.sort Float.compare b;
  b

let sorted_of_ints a = sorted_floats (Array.map float_of_int a)

(* Linear interpolation between closest ranks over a sorted array. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  let pos = Float.max 0. (Float.min 1. q) *. float_of_int (n - 1) in
  let lo = truncate pos in
  let hi = min (n - 1) (lo + 1) in
  sorted.(lo) +. ((pos -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

let median a = if Array.length a = 0 then 0. else quantile (sorted_floats a) 0.5

(* A tail percentile rests on the samples beyond it; with fewer than
   [min_beyond] of them it is noise, so it is refused. *)
let min_beyond = 10

let beyond ~n q = n - int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9))

let tail sorted q =
  let n = Array.length sorted in
  let b = beyond ~n q in
  if b < min_beyond then
    Error
      (Printf.sprintf "p%g needs %d samples beyond it; %d samples leave %d" (q *. 100.)
         min_beyond n b)
  else Ok (quantile sorted q)

(* Latency samples summarised window by window.  A window is [size]
   consecutive samples, and a new one starts every [step] samples.  Each
   window's median and p99 are kept, and of the samples only the last
   [size], so memory does not grow with the samples (it would otherwise
   show in the heap figure) and a stall of the host moves a few windows,
   not the figure.  [size] is the least that gives each window's p99 the
   [min_beyond] samples beyond it that [tail] asks for.  The windows
   overlap so that the figure follows a latency that drifts through the
   phase (durable-serve's grows with its log) and does not jump when the
   phase holds one whole window more or less.  Pushes from several
   threads are serialised. *)
module Windows = struct
  let size = min_beyond * 100
  let step = size / 4

  type t = {
    mu : Mutex.t;
    last : int array;  (** the last [size] samples, a ring *)
    mutable samples : int;
    mutable p50s : float list;
    mutable p99s : float list;
  }

  let create () = { mu = Mutex.create (); last = Array.make size 0; samples = 0; p50s = []; p99s = [] }

  let push r x =
    Mutex.lock r.mu;
    r.last.(r.samples mod size) <- x;
    r.samples <- r.samples + 1;
    if r.samples >= size && (r.samples - size) mod step = 0 then begin
      let sorted = sorted_of_ints r.last in
      r.p50s <- quantile sorted 0.5 :: r.p50s;
      r.p99s <- Result.get_ok (tail sorted 0.99) :: r.p99s
    end;
    Mutex.unlock r.mu

  let samples r = r.samples
  let windows r = List.length r.p50s

  (* The medians over every window of the windows' p50 and p99; an
     error when there is no complete window. *)
  let summary r =
    if r.p50s = [] then
      Error (Printf.sprintf "fewer samples (%d) than one window of %d" r.samples size)
    else Ok (median (Array.of_list r.p50s), median (Array.of_list r.p99s))
end
