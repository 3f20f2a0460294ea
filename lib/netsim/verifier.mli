(** The remote verifier's retry state machine.

    Provisioned with the attestation key and the reference binary's
    identity, the verifier sends a fresh challenge, waits for the retry
    timeout, and retransmits (with the {e same} nonce and sequence —
    retransmissions are idempotent) up to [max_attempts] times.  A
    response only counts if its sequence matches an outstanding
    challenge, the nonce is the one we sent, the identity is the expected
    one and the MAC verifies.

    By default the retry timeout is the fixed [timeout_slices].  With
    [~backoff] the wait grows exponentially (base, 2·base, 4·base, …,
    capped at [cap_slices]) plus a deterministic per-attempt jitter in
    [0, jitter_slices] drawn from a PRNG seeded by the session — the
    classic congestion-friendly retry schedule for flaky links. *)

open Tytan_core

type outcome =
  | Pending
  | Attested  (** a genuine report arrived (and, in CFA mode, replayed) *)
  | Refused  (** the device says the task is not loaded *)
  | Gave_up  (** retries exhausted *)
  | Cfa_rejected
      (** an {e authentic} control-flow report whose path the replay
          rejects: the right binary is loaded but did something its CFG
          cannot — a runtime compromise.  Settled, never retried. *)

type backoff = {
  base_slices : int;  (** wait before the first retry *)
  cap_slices : int;  (** upper bound on the exponential wait *)
  jitter_slices : int;  (** deterministic jitter drawn from [0, jitter] *)
}

val default_backoff : backoff
(** base 4, cap 64, jitter 3. *)

type t

val create :
  ka:bytes ->
  expected:Task_id.t ->
  ?timeout_slices:int ->
  ?backoff:backoff ->
  ?max_attempts:int ->
  ?refusals_to_settle:int ->
  ?cfa:(Attestation.cfa_report -> (unit, string) result) ->
  ?check:(nonce:bytes -> Attestation.report -> bool) ->
  ?session:string ->
  unit ->
  t
(** Defaults: 8-slice fixed timeout (no backoff), 10 attempts, settle on
    the first refusal.

    Refusals are not authenticated, and on a corrupting link a flipped
    byte in the {e challenge}'s identity makes an honest device refuse —
    so a verifier facing a hostile link should demand
    [refusals_to_settle] consistent refusals (across retransmissions)
    before concluding [Refused].

    With [~cfa] the session runs in control-flow-attestation mode: it
    sends [CfaChallenge] frames and judges each authentic [CfaResponse]
    with the given replay (usually [Tytan_cfa.Replay.checker oracle]).
    A replay failure settles the session as {!Cfa_rejected}; plain
    static responses do not satisfy a CFA session.

    With [~check] the MAC verification of plain responses is delegated
    to the given closure (sequence matching stays with the session); a
    batching verifier uses this to route reports through its measurement
    cache.  The closure must enforce identity, nonce and MAC itself —
    returning [true] settles the session as {!Attested}.

    With [~session] the session's nonce, sequence number and jitter
    stream are all derived deterministically from the session label
    (SHA-1) instead of a process-global counter.  This scopes retry and
    refusal state per device: sessions labelled per device id occupy
    disjoint sequence spaces, so one flaky prover's refusals can never
    settle an honest prover's session, and re-running a campaign in the
    same process replays identical wire traffic.  Without [~session] the
    legacy counter behaviour is preserved. *)

val poll : t -> at:int -> bytes option
(** Called every slice; [Some frame] when a (re)transmission is due. *)

val next_wake : t -> int
(** The earliest slice at which {!poll} can act — (re)transmit or give
    up: the pending retry deadline while {!Pending}, [max_int] once the
    session has settled.  [poll ~at] with [at < next_wake t] returns
    [None] and changes nothing. *)

val settle_cap : backoff -> int
(** [16 + 10 * (cap_slices + jitter_slices)]: where a fleet engine's
    slice loop stops waiting for sessions retrying under this backoff. *)

val conclude : t -> cap:int -> unit
(** Drive a session still pending when its slice loop ended at [cap] to a
    verdict: poll unanswered at slices [2 * cap], [3 * cap], … until it
    gives up.  A settled session is left unchanged. *)

val quiescent :
  genesis:bytes -> Attestation.cfa_report -> (unit, string) result
(** The CFA replay for a device that should be idle: only the empty log
    anchored at [genesis] ({!Attestation.cf_genesis}) passes. *)

val on_frame : t -> bytes -> unit
(** Feed a received frame; malformed, stale and forged frames are
    counted and ignored. *)

val outcome : t -> outcome

val nonce : t -> bytes
(** The session's challenge nonce (a copy) — what a batching verifier
    caches the expected MAC against. *)

val seq : t -> int
(** The session's sequence number.  Derived from [~session] when given
    (disjoint per label), otherwise from the process-global counter. *)

val refusals : t -> int
(** Refusal frames accepted by {e this} session (sequence-matched). *)

val attempts : t -> int
val rejected_frames : t -> int

val ignored_frames : t -> int
(** Frames skipped because their tag is from an unknown (newer) protocol
    revision — dropped, not counted as hostile. *)

val cfa_failure : t -> string option
(** Why the replay rejected the path, once [outcome] is
    {!Cfa_rejected}. *)
