(** Co-simulation of one TyTAN device with a remote verifier across a
    lossy link.

    Each slice advances the device by a fixed cycle budget, pumps due
    frames in both directions, lets the device's network agent answer
    challenges (through the Remote Attest component, charging its crypto
    cycles), and polls the verifier for retransmissions.  Everything is
    deterministic. *)

open Tytan_core

type t

val create :
  Platform.t ->
  link:Link.t ->
  ?advance:(cycles:int -> unit) ->
  unit ->
  t
(** Each slice advances the device by one tick period.  [advance]
    replaces the default device-advance function ([Platform.run]); the fault injector
    passes its own so scheduled faults keep firing while a co-simulation
    drives the device. *)

val attach_verifier : t -> Verifier.t -> unit
(** Multiple concurrent verifier sessions are supported. *)

type cfa_responder =
  id:Task_id.t -> nonce:bytes -> Attestation.cfa_report option

val set_cfa_responder : t -> cfa_responder -> unit
(** How the device answers [CfaChallenge] frames (usually
    [Tytan_cfa.Monitor.responder monitor]).  Without one — or when the
    responder returns [None] — the device refuses, exactly as for an
    unknown identity. *)

val run : t -> slices:int -> unit
(** Advance the co-simulation.  Stops early only if the device halts. *)

val run_until_settled : t -> max_slices:int -> int
(** Run until every attached verifier leaves [Pending] (or the bound is
    hit); returns the slices consumed. *)

val record_link_gauges : t -> unit
(** Snapshot the link's frame counters into the platform's telemetry
    registry as ["net"] gauges ([link_sent], [link_dropped], …).  Call
    after a run; gauges overwrite, so repeated calls are idempotent. *)

val slice : t -> int
val challenges_served : t -> int
(** Challenges the device agent answered (including refusals). *)

val malformed_frames : t -> int
(** Undecodable frames the device agent dropped. *)

val unknown_tag_frames : t -> int
(** Well-formed-looking frames with an unrecognized tag, dropped without
    being counted as malformed (forward compatibility). *)
