(** A faulty duplex link between a device and a remote peer.

    Remote attestation only means something over an unreliable network:
    frames can be dropped, delayed, corrupted, duplicated or reordered,
    and the verifier must drive retries.  The link is deterministic
    (seeded PRNG), so protocol tests reproduce exactly.

    Time is measured in {e slices} — the co-simulation quantum
    ({!Cosim}).  A frame sent at slice [s] becomes deliverable at
    [s + delay] unless the loss lottery drops it; a reordered frame is
    additionally held back a few slices so later traffic overtakes it.

    Counter reconciliation: once both directions are fully drained,
    [delivered_count = sent_count - dropped_count + duplicated_count]
    (each duplication injects one extra copy; corruption and reordering
    alter frames but never add or remove them). *)

type side =
  | Device
  | Remote

(** The simulator's one seeded PRNG, shared by links, verifier sessions
    and fault plans: a 30-bit LCG (Numerical Recipes constants) whose
    exact draws every report digest and pin depends on.  Links and
    sessions keep a bare [int] state in their own record and call {!step}
    and {!below}; everyone else holds a {!t}. *)
module Prng : sig
  val step : int -> int
  (** [(s * 1664525 + 1013904223) land 0x3FFF_FFFF]: any [int] seeds it,
      and only its low 30 bits matter. *)

  val below : int -> int -> int
  (** [below s bound] is state [s]'s draw in [\[0, bound)]: [s mod bound]. *)

  type t

  val create : int -> t

  val next : t -> int
  (** Advance; the new 30-bit state. *)

  val int : t -> int -> int
  (** [below (next t) bound].  @raise Invalid_argument if [bound <= 0]. *)
end

type t

val create :
  ?seed:int ->
  ?loss_percent:int ->
  ?delay:int ->
  ?corrupt_percent:int ->
  ?duplicate_percent:int ->
  ?reorder_percent:int ->
  unit ->
  t
(** [loss_percent] (default 0) of frames are silently dropped; survivors
    arrive [delay] (default 1) slices after sending.  Of the survivors,
    [corrupt_percent] have one byte XORed with a random non-zero mask,
    [duplicate_percent] arrive twice, and [reorder_percent] are held back
    1–3 extra slices (all default 0, preserving the historical loss/delay
    behaviour). *)

val for_device :
  seed:int -> salt:int -> faults:bool -> loss_percent:int -> int -> t
(** Device [i]'s link in a fleet campaign, seeded
    [(seed * 7919 + i * 104729 + salt) land 0x3FFF_FFFF] (each engine has
    its own [salt]).  With [faults] it also corrupts 3%, duplicates 2%
    and reorders 2% of the frames that survive [loss_percent]. *)

val send : t -> from:side -> at:int -> bytes -> unit
(** Queue a frame sent at slice [at]. *)

val deliver : t -> to_:side -> at:int -> bytes list
(** Frames due for [to_] at slice [at] (oldest first); removes them. *)

val next_due : t -> int
(** The earliest slice at which a frame is due, in either direction;
    [max_int] when nothing is in flight.  While [next_due t > at],
    {!deliver} at slice [at] returns [[]] for both sides and changes
    nothing — the guarantee the fleet engines' wake-driven slice loops
    skip idle devices on. *)

val set_burst : t -> until:int -> unit
(** Open (or extend) a burst-loss window: every frame sent at a slice
    [< until] is dropped, in both directions, counted under
    [dropped_burst_count].  The loss lottery still draws for each send,
    so the PRNG stream — and every post-burst frame's fate — is
    unchanged by the burst.  Windows only ever extend ([max]), never
    shrink. *)

val burst_active : t -> at:int -> bool

val counters : t -> (string * int) list
(** Every counter below as [(name, value)] pairs, in a fixed order —
    convenient for dumping into a telemetry snapshot or a report. *)

val reset_counters : t -> unit
(** Zero every counter (in-flight frames are untouched) so a report can
    attribute traffic to one phase of a campaign precisely. *)

val sent_count : t -> int

val dropped_count : t -> int
(** Total drops.  Always exactly [dropped_loss_count +
    dropped_burst_count] — the total is derived from the per-reason
    counters, so attribution can neither double-count nor leak. *)

val dropped_loss_count : t -> int
(** Drops from the random loss lottery ([loss_percent]). *)

val dropped_burst_count : t -> int
(** Drops from an active {!set_burst} window. *)

val delivered_count : t -> int
val corrupted_count : t -> int
val duplicated_count : t -> int
val reordered_count : t -> int

(** The active set behind the fleet engines' wake-driven slice loops.

    A campaign's slice loop used to visit every device in every slice,
    although a device can only act when a frame on its link is due
    ({!next_due}) or its session's retry timer fires
    ({!Verifier.next_wake}, or a transfer session's own wake).  A
    [Wake_set.t] holds the indices of the devices that still can act,
    in ascending order, so a slice visits exactly the devices whose
    wake has come — in the same relative order the visit-everyone loop
    used — and reports the earliest wake of the rest, so the caller can
    jump straight to the next slice in which anything happens.

    A member whose wake is [max_int] (settled session, empty link) can
    never act again and is dropped by the next {!sweep}.  Storage is two
    preallocated arrays sized by the index universe: adding, sweeping
    and dropping allocate nothing. *)
module Wake_set : sig
  type t

  val create : universe:int -> t
  (** An empty set over indices [0, universe). *)

  val clear : t -> unit

  val add : t -> int -> unit
  (** Make an index a member; a no-op if it already is.  Adding out of
      order is allowed: the next {!sweep} or {!iter} restores ascending
      order first. *)

  val sweep : t -> at:int -> wake:(int -> int) -> visit:(int -> unit) -> int
  (** [sweep t ~at ~wake ~visit] calls [visit i], in ascending order, for
      every member with [wake i <= at]; then drops every member whose
      [wake] has become [max_int] and returns the earliest [wake] among
      the members kept ([max_int] when none is left).  [wake i] must not
      depend on any other member's state, and [visit i] must only change
      member [i]'s wake — the two facts that make skipping a member whose
      wake lies in the future a no-op.  [visit] must not {!add}. *)

  val iter : t -> (int -> unit) -> unit
  (** Every member, ascending. *)

  val next_slice : at:int -> cap:int -> settled:bool -> int -> int
  (** [next_slice ~at ~cap ~settled next] is the slice a loop bounded by
      [slice <= cap] moves to after slice [at], given the earliest wake
      [next] of the last {!sweep}: [at + 1] once every session has
      [settled], else [next] clamped to [at + 1 .. cap + 1].  Either way
      the loop ends on the slice a visit-everyone loop would end on. *)
end
