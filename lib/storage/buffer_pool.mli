(** Clock (second-chance) buffer pool over {!Page}s.

    Not thread-safe on its own — the storage engine serialises access
    under its mutex; tests that hammer it from two domains must wrap it
    the same way.  Invariants (all raising [Invalid_argument] /
    [Failure] on violation, and tested in [test_storage]):

    - the pin ledger never goes negative;
    - a dirty frame is never evicted without the [write_back] callback
      completing first (which is where the engine enforces
      WAL-before-data).  Write-back is batched: a dirty victim goes out
      in one call together with every other unpinned dirty frame, and
      {!flush_all} is one call; a pinned frame is never in an eviction
      batch and stays dirty;
    - the clock hand makes progress: at most two sweeps per eviction,
      then [Failure "Buffer_pool: all frames pinned"]. *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable write_backs : int;
}

type t

val create :
  pages:int -> load:(int -> Page.t) -> write_back:((int * Page.t) list -> unit) -> t
(** [write_back] receives a non-empty batch of [(pid, page)] in ascending
    pid order; the frames are marked clean once it returns.
    @raise Invalid_argument when [pages < 2] (relocation pins two). *)

val get : t -> int -> Page.t
(** Pins the page (loading and possibly evicting first).  Balance every
    [get] with exactly one {!unpin}. *)

val unpin : t -> int -> dirty:bool -> unit
val mark_dirty : t -> int -> unit

val flush_all : t -> unit
(** Writes every dirty resident page back in one batch (the checkpoint
    sweep). *)

val stats : t -> stats
val capacity : t -> int
val pinned : t -> int
(** Outstanding pins across all frames. *)

val dirty_count : t -> int

val drop_all : t -> unit
(** Empties the pool without writing anything — crash simulation. *)
