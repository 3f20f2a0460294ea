(** Deterministic fault plans.

    A plan is a schedule of fault events pinned to kernel ticks, plus the
    seed of the PRNG that generated (and parameterises) it.  The same
    seed always yields the same plan, and running the same plan against
    the same scenario yields the same trace — fault campaigns are
    reproducible bit for bit.

    A plan faults one device, at two layers:

    - {e machine}: RAM bit flips, glitched values on RAM writes,
      transient MMIO read garbage, spurious interrupt storms;
    - {e tasks}: killing or wedging a task at a chosen tick.

    The {e network} layer's faults (corruption, duplication, reordering,
    loss) live in {!Tytan_netsim.Link} and compose with a plan through
    the co-simulation.  Each fleet engine draws and applies its own
    fault kinds, which no plan carries: image tampers, kills and hangs
    in [Tytan_provision.Swarm], outages, stalls and late replies in
    [Tytan_serve.Gateway], truncated frames, counter resets and canary
    crashes in [Tytan_ota.Rollout]. *)

open Tytan_machine

(** The seeded PRNG every fault component shares — the simulator's one
    generator, {!Tytan_netsim.Link.Prng}. *)
module Prng = Tytan_netsim.Link.Prng

type kind =
  | Bit_flip of { addr : Word.t; bit : int }
      (** Flip one bit of one RAM byte — a single-event upset. *)
  | Write_glitch of { count : int; bit : int }
      (** The next [count] RAM byte-writes land with [bit] flipped
          (a glitched data bus), via the {!Memory} write-fault hook. *)
  | Mmio_glitch of { device : string; count : int }
      (** The named device's next [count] MMIO reads return garbage
          instead of the device's value. *)
  | Irq_storm of { irq : int; count : int }
      (** Assert a (typically unbound) IRQ line [count] times in a row —
          spurious interrupts that cost context switches. *)
  | Task_kill of { name : string }  (** Forcibly terminate the task. *)
  | Task_hang of { name : string }
      (** Suspend the task so it stops making progress — the stimulus a
          watchdog exists to catch. *)

type event = {
  at_tick : int;
  kind : kind;
}

type t = {
  seed : int;
  events : event list;  (** sorted by [at_tick], stable *)
}

val make : seed:int -> event list -> t
(** Sort the events by tick (stable) and attach the seed.
    @raise Invalid_argument on a negative tick. *)

val random_bit_flips :
  Prng.t ->
  count:int ->
  base:Word.t ->
  size:int ->
  first_tick:int ->
  last_tick:int ->
  event list
(** [count] single-bit flips at PRNG-chosen addresses within
    [\[base, base+size)] and PRNG-chosen ticks within
    [\[first_tick, last_tick\]]. *)

val describe : kind -> string
(** One-line human description for trace events. *)

(** {2 Campaign conventions}

    The three fleet engines (swarm, gateway, OTA rollout) name devices
    and stamp reports the same way; these are the one copy.  Their fault
    schedules carry device indices, never serials. *)

val serial_of : int -> string
(** Device [i]'s serial, ["dev-%05d"]: zero-padded to five digits, so
    serials from 100000 up have six or more. *)

val sha1_hex : string -> string
(** Lowercase hex SHA-1 of a string — the [verdicts=sha1:] lines. *)

val stamp : string -> string
(** [stamp body] is [body] followed by a [digest: sha1:<hex>] line over
    it: every engine report's last line. *)
