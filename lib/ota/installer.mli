(** The device-side OTA endpoint: admit → stage → vet → swap.

    An installer owns what the update protocol can observe of a device —
    its attestation key, its monotonic counter and the identity of what
    it runs — and drives the whole admission pipeline for one device:

    + {e admit}: an {!Tytan_netsim.Protocol.UpdateOffer} is accepted
      only if its MAC ({!Tytan_core.Attestation.update_mac} under Ka)
      verifies {e and} its authenticated version strictly beats the
      monotonic counter ({!Gate.version_ok}).  A stale version is a
      rollback: refused at the door, nothing staged, the refusal
      latency individually measurable;
    + {e stage}: chunks assemble go-back-N into a buffer committed to
      nothing — the cumulative ack names the next offset needed, so a
      lossy or truncating link costs retransmissions, not corruption;
    + {e vet}: once assembled, the image must match the authenticated
      digest and identity, decode as TELF, and clear the six-check
      {!Gate.vet};
    + {e swap}: only then does the device charge the atomic swap,
      advance the counter to the authenticated version (each NV tick
      charged), persist the counter snapshot, and adopt the identity.

    The installer also answers static and control-flow attestation
    challenges for whatever it currently runs, as the honest quiescent
    device of {!Tytan_netsim.Protocol.answer} (the genesis digest of its
    loaded identity is computed, uncharged, only for a matching
    control-flow challenge), so post-swap attestation needs no second
    agent.  All crypto is charged to the device clock by
    compression count; counter traffic at the
    {!Tytan_core.Cost_model.counter_read}/[counter_increment] rates.

    The TELF decode, the identity and the {!Gate.vet} verdict are
    functions of the staged bytes alone, so the host computes them once
    per distinct image per domain: each domain remembers its last
    analysis, keyed by a copy of the exact bytes (never by a digest).
    What a device pays and records stays per device — the charged
    digest check, [vet_cycles], the refusal counters, the crash window
    and the counter advance. *)

open Tytan_core
open Tytan_machine

type t

val create :
  serial:string ->
  ka:bytes ->
  clock:Cycles.t ->
  counter:Devices.Monotonic_counter.t ->
  loaded:Task_id.t ->
  ?persist:(bytes -> unit) ->
  unit ->
  t
(** [persist] receives the counter's {!Devices.Monotonic_counter.save}
    snapshot after every advance — the hook a device wires to its sealed
    storage. *)

val on_frame : t -> bytes -> Tytan_netsim.Protocol.message list
(** Feed one wire frame; returns the replies to send.  Malformed frames
    are dropped (defensive decode).  A crashed device returns nothing
    until {!clear_crash}.  The chunk that completes a transfer reuses
    this domain's last decode, identity and verdict when it staged the
    same bytes; replies, counters and device cycles are the same
    whether it does or not. *)

val loaded : t -> Task_id.t
val counter_value : t -> int
val activations : t -> int
val rollback_refusals : t -> int
val vet_refusals : t -> int
val auth_refusals : t -> int
val digest_refusals : t -> int
val staged_bytes : t -> int

val malformed : t -> int
(** Frames that died in the defensive decoder (truncated or corrupted)
    — dropped unanswered. *)

val update_cycles : t -> int
(** Device cycles spent inside OTA frame handling so far. *)

val last_refusal_cycles : t -> int
(** Device cycles the most recent rollback refusal cost (offer check +
    MAC verify + counter read) — the rollback-refusal latency. *)

val arm_crash : t -> unit
(** Arm a {!Rollout.Canary_crash} fault: the next activation
    dies inside the swap window — staged image abandoned, counter not
    advanced, device silent for the rest of the wave. *)

val crashed : t -> bool
val clear_crash : t -> unit

val attempt_counter_reset : t -> unit
(** A {!Rollout.Counter_reset} fault: an MMIO write to the
    counter's value register.  The hardware refuses and counts it. *)

val reset_attempts : t -> int
