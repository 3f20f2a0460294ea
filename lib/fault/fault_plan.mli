(** Deterministic fault plans.

    A plan is a schedule of fault events pinned to kernel ticks, plus the
    seed of the PRNG that generated (and parameterises) it.  The same
    seed always yields the same plan, and running the same plan against
    the same scenario yields the same trace — fault campaigns are
    reproducible bit for bit.

    Faults span the three layers of the simulation:

    - {e machine}: RAM bit flips, glitched values on RAM writes,
      transient MMIO read garbage, spurious interrupt storms;
    - {e tasks}: killing or wedging a task at a chosen tick;
    - the {e network} layer's faults (corruption, duplication,
      reordering, loss) live in {!Tytan_netsim.Link} and compose with a
      plan through the co-simulation. *)

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
  | Burst_loss of { name : string; duration : int }
      (** Correlated outage: the named device's link drops every frame
          (both directions) for [duration] slices — the fade a verifier
          gateway's retransmit budget must ride out.  Network-layer:
          applied by {!Tytan_serve.Gateway} via
          {!Tytan_netsim.Link.set_burst}; the machine-level injector
          ignores it. *)
  | Device_stall of { name : string; duration : int }
      (** The named device stops answering challenges for [duration]
          slices (wedged firmware, deep sleep) — frames still flow, the
          prover just never replies.  Network-layer, gateway-applied. *)
  | Late_reply of { name : string; extra : int; duration : int }
      (** For [duration] slices the named device's replies leave [extra]
          slices late — late enough to cross a session deadline and
          arrive as a stale frame.  Network-layer, gateway-applied. *)
  | Frame_truncate of { name : string; count : int }
      (** The named device's next [count] inbound frames arrive cut
          short (a corrupted radio burst).  The defensive protocol
          decoder refuses them; the OTA sender's retransmission schedule
          recovers.  Network-layer: applied by {!Tytan_ota.Rollout}; the
          machine-level injector ignores it. *)
  | Counter_reset of { name : string }
      (** An attempt to wind the named device's monotonic counter back
          (the downgrade attacker's first move).  The counter hardware
          refuses and counts the attempt — the value never moves.
          OTA-layer, rollout-applied. *)
  | Canary_crash of { name : string }
      (** The named device loses power mid-swap during its next
          activation: the staged image is abandoned {e before} the
          counter advances and the device goes silent for the wave —
          the canary failure a staged rollout must turn into a
          fleet-wide abort.  OTA-layer, rollout-applied. *)

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

val kind_label : kind -> string
(** Short stable label for counters and reports (["bit-flip"], …). *)

val describe : kind -> string
(** One-line human description for trace events. *)

(** {2 Campaign conventions}

    The three fleet engines (swarm, gateway, OTA rollout) name devices
    and stamp reports the same way; these are the one copy. *)

val serial_of : int -> string
(** Device [i]'s serial, ["dev-%05d"]: zero-padded to five digits, so
    serials from 100000 up have six or more. *)

val device_of : devices:int -> string -> int option
(** The exact inverse of {!serial_of} over a fleet of [devices]:
    [Some i] iff [0 <= i < devices] and [serial_of i = name].  How a
    fault event that names a device by serial finds it. *)

val sha1_hex : string -> string
(** Lowercase hex SHA-1 of a string — the [verdicts=sha1:] lines. *)

val stamp : string -> string
(** [stamp body] is [body] followed by a [digest: sha1:<hex>] line over
    it: every engine report's last line. *)
