(** The fleet-side rollout engine: staged (canary-first) firmware
    campaigns over faulty links, with promotion gated on evidence.

    A campaign runs a list of {e waves} (signed images with strictly
    increasing versions) against a fleet of {!Installer}-backed devices,
    each behind its own seeded {!Tytan_netsim.Link}.  Every wave follows
    the canary state machine:

    {v admit → stage → vet → swap → promote | abort v}

    + the {e canary cohort} (the first [canary] non-quarantined devices)
      is offered the image first, streamed go-back-N in 128-byte chunks;
    + promotion is gated on {e every} canary clearing two bars: the
      device-side admission pipeline (MAC, anti-rollback counter,
      digest, six-check vet) ends in [Ota_applied], {e and} post-swap
      attestation — a static challenge plus an empty-log control-flow
      session — settles [Attested] for the new identity;
    + on success the wave is promoted fleet-wide; on any gate failure
      the wave aborts for the whole fleet and the circuit breaker
      quarantines the offending devices — no non-canary device ever
      stages a byte of an image a canary could not vouch for.  An empty
      cohort (every device quarantined) is no evidence: the wave aborts
      with [abort_reason = Some "no eligible device"].

    The breaker treats every offered-but-not-applied device the same
    way: one strike trips it into quarantine ([Q] in the verdict
    string), where it stays for the rest of the campaign — stale
    (rollback-refusing) presenters, leaky images' canaries and mid-swap
    crashers are all pulled from the rotation until an operator
    re-provisions them.

    Determinism: links, fault schedules, nonces and jitter all derive
    from [seed], so two same-seed runs render byte-identical reports
    ({!equal}); the report carries its own digest line. *)

module Telf = Tytan_telf.Telf

type wave_spec = {
  label : string;  (** human name in the report *)
  version : int;  (** monotonic target version; must be ≥ 1 *)
  image : Telf.t;
}

type wave_stats = {
  wave : int;
  label : string;
  version : int;
  offered : int;  (** devices sent an [UpdateOffer] this wave *)
  staged : int;  (** devices that acked the offer and buffered chunks *)
  applied : int;
  refused_rollback : int;
  refused_vet : int;
  refused_auth : int;
  refused_digest : int;
  crashed : int;
  gave_up : int;
  attest_ok : int;  (** canaries that passed post-swap attestation *)
  attest_failed : int;
  verdicts : string;
      (** one char per device: [A]pplied, [R]ollback-refused,
          [V]et-refused, [M]ac-refused, [D]igest-refused, crashed [X],
          [G]ave up, [Q]uarantined (skipped), [.] not offered *)
  promoted : bool;
  aborted : bool;
  abort_reason : string option;
  slices : int;
  newly_quarantined : string list;
}

type report = {
  devices : int;
  canary : int;
  seed : int;
  faults : bool;
  loss_percent : int;
  waves : wave_stats list;
  counters : int list;  (** final per-device monotonic counter values *)
  reset_attempts : int;  (** counter writes the hardware refused *)
  controller_cycles : int;
  device_cycles : int;
  update_cycles : int;  (** device cycles inside OTA frame handling *)
  rollback_refusal_cycles : int;
      (** what the most expensive rollback refusal cost the device:
          offer check + MAC verify + counter read, nothing staged *)
  frames_sent : int;
  frames_dropped : int;
  frames_delivered : int;
  truncated_frames : int;  (** frames bitten by [Frame_truncate] faults *)
  quarantined : string list;
  telemetry : (string * int) list;
      (** the [waves] tallies summed over the run as [ota.*] rows
          (offers, stages, verdicts, gate outcomes, quarantines), sorted
          by key, zero counts left out *)
  survived : bool;
      (** no device was lost to crash/unreachability on a fault-free
          run; legitimate refusals (rollback, vet) do not count
          against survival *)
}

val run :
  devices:int ->
  canary:int ->
  seed:int ->
  ?faults:bool ->
  ?loss_percent:int ->
  ?obs:Tytan_obs.Obs.Log.t ->
  platform_key_of:(serial:string -> bytes) ->
  incumbent:Telf.t ->
  wave_spec list ->
  report
(** Run a campaign.  [canary] must be in [1..devices] ([canary =
    devices] is a flat rollout — no gate, every device is a canary).
    [platform_key_of] supplies each device's platform key (normally
    [Registry.platform_key]); Ka is derived on both sides and the
    derivations charged to the respective clocks.  [incumbent] is the
    image every device boots running (counter 0).  With [?faults] the
    {!fault_events} schedule arms truncated update frames, counter-reset
    attempts and mid-swap canary crashes, and the links additionally
    corrupt, duplicate and reorder.

    With [?obs] every offer, stage, verdict, wave gate decision and
    quarantine is recorded in the flight recorder: wave correlation ids
    [ota/wave-N] parent per-device session ids [ota/<serial>/wN], with
    timestamps on the campaign's global slice axis.  Recording charges
    no cycles — an observed run is bit-identical to an unobserved
    one. *)

type fault =
  | Frame_truncate of { count : int }
      (** The device's next [count] inbound frames arrive cut short (a
          corrupted radio burst): the defensive decoder refuses them and
          the sender's retransmissions recover. *)
  | Counter_reset
      (** An attempt to wind the device's monotonic counter back (the
          downgrade attacker's first move): the counter hardware refuses
          and counts it ({!Installer.attempt_counter_reset}). *)
  | Canary_crash
      (** The device loses power mid-swap during its next activation
          ({!Installer.arm_crash}) — the canary failure a staged rollout
          must turn into a fleet-wide abort. *)

val fault_events :
  seed:int -> devices:int -> waves:int -> (int * int * fault) list
(** The deterministic OTA chaos schedule [?faults] arms: one
    [(wave, device index, fault)] per wave, in wave order — exposed for
    tests. *)

val to_string : report -> string
(** Deterministic rendering ending in a [digest: sha1:…] line over the
    rest ({!Tytan_fault.Fault_plan.stamp}). *)

val equal : report -> report -> bool
(** Rendering equality — the determinism check. *)

val verdicts : report -> string list
(** Per-wave verdict strings, campaign order. *)

val campaign_failed : report -> bool
(** True when any device verdict is still pending ([?]) — an engine
    invariant violation, distinct from honest refusals. *)
