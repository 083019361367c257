(** Binary min-heap keyed by (time, insertion sequence).

    Equal-time events pop in insertion order, which keeps the simulator
    deterministic. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> time:float -> 'a -> unit

val top_time : 'a t -> float
(** Time of the earliest event.  @raise Invalid_argument when empty. *)

val take : 'a t -> 'a
(** Remove the earliest event and return its payload; with {!top_time}
    this pops without allocating.  @raise Invalid_argument when empty. *)
