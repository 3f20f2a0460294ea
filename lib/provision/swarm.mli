(** Fleet-scale swarm-attestation campaigns.

    A campaign provisions [devices] lightweight provers from the
    registry key hierarchy (each with its own seeded lossy {!Tytan_netsim.Link}
    and its own device-side attestation key), runs [epochs] fresh-nonce
    attestation rounds against the shared reference firmware
    ({!Fleet.reference_image}), then polls fleet health
    [queries_per_epoch] times per epoch.

    Two verifier engines drive {e identical wire traffic} — per-device
    {!Tytan_netsim.Verifier} retry sessions labelled [serial/eN], so the
    nonce, sequence and retransmission schedule of every session are the
    same in both modes — and differ only in how a response is judged and
    what survives between epochs:

    - {!Scalar}: the stateless baseline and the differential oracle.
      Every session re-derives the device's Ka from the registry and
      re-runs the HMAC check, and so does every health poll.
    - {!Incremental}: responses are routed through
      {!Tytan_netsim.Aggregator} — Ka cached per campaign, measurement
      cache per nonce epoch, health polls answered in O(1) — and the
      aggregator retains one leaf per device across epochs
      ({!Tytan_netsim.Aggregator.Retain}), recomputes only the
      root-paths of leaves that changed, and emits a sparse per-epoch
      delta.

    Because the wire schedules coincide, the modes must produce
    byte-identical per-device verdicts; the differential test locks this
    down, which in turn pins the cache logic (a cache that ever served a
    stale epoch would diverge).

    {2 Parallel verification}

    With [~domains:d > 1] host-side verification shards across [d]
    OCaml domains.  Devices are pinned to shards by contiguous index
    ranges ({!Domain_pool.ranges}) — a pure function of
    [(devices, domains)], never of scheduling — and each shard owns its
    aggregator state, so verdicts, roots, reports and digests are
    bit-identical to the sequential run ([to_string] does not mention
    [domains] at all).  Cycle charging uses per-domain compression
    counters merged by commutative sum at sequential sync points.

    {2 Steady state}

    With [~steady:true] (incremental mode only) epoch 0 challenges the
    whole fleet; afterwards a device is re-challenged only when its
    continuity breaks: its last verdict was not clean, its RTM measures
    a different identity than it last proved, it rebooted (churn), or
    its out-of-band keepalive stream lapsed this epoch.  Devices carried
    on liveness get verdict ['a'], cost {!Tytan_core.Cost_model.swarm_liveness}
    each, and keep answering health polls through their retained sealed
    leaf — the O(changed) epoch.  [~churn_permille] reboots that
    fraction of the fleet per epoch on a seed-determined schedule
    (identical in every mode; a reboot re-derives device keys and, in
    steady state, forces a re-challenge).

    With [~faults] a seeded schedule of the swarm's own faults tampers
    firmware images (the device then honestly refuses), kills devices
    outright, or hangs them for one epoch, and the links additionally
    corrupt, duplicate and reorder frames.  A prover that is not silent
    answers as {!Tytan_netsim.Protocol.answer} with no genesis: fleet
    provers run no CFA monitor, so a control-flow challenge goes
    unanswered.  Everything is seeded:
    the same [(mode, devices, epochs, seed, faults, domains, steady,
    churn)] tuple reproduces the same report bit for bit. *)

type mode =
  | Scalar
  | Incremental

val mode_label : mode -> string

type epoch_stats = {
  epoch : int;
  attested : int;
  refused : int;
  gave_up : int;
  verdicts : string;
      (** one char per device index: [A]ttested, [a] carried on
          liveness (steady state), [R]efused, [G]ave_up,
          [C]fa_rejected, [?] pending *)
  healthy_polls : int;  (** positive fleet-health poll answers *)
  slices : int;  (** discrete-event slices until the fleet settled *)
  batches : int;  (** Merkle batches sealed this epoch (0 in scalar) *)
  root_hex : string;  (** last sealed root, [""] in scalar mode *)
  cache_hits : int;
  cache_misses : int;
  challenged : int;  (** devices driven through the wire protocol *)
  carried : int;  (** devices carried on liveness without re-challenge *)
  delta_changed : int;
      (** incremental mode: leaves in this epoch's sparse delta *)
  verify_cycles : int;  (** verifier clock advance over this epoch *)
}

type rollout = {
  accepted : bool;
  refusal : string option;
      (** the first non-clean finding (a proven violation when there is
          one, else the first unknown) when the image was refused *)
  vet_cycles_per_device : int;
      (** what each device's loader charged for the six-check vet *)
}
(** Outcome of a firmware rollout pushed ahead of the campaign: every
    device vets the image under [Tycheck.flow_config] before measuring
    it, and adoption requires {!Tycheck.strict_ok} — an image the
    analysis cannot prove clean (a Maybe-level flow, an unbounded WCET)
    is refused alongside proven leaks.  The verdict is a pure function
    of the binary, so a refusal is platform-wide — the fleet stays on
    the incumbent firmware. *)

type report = {
  mode : mode;
  devices : int;
  epochs : int;
  seed : int;
  faults : bool;
  loss_percent : int;
  queries_per_epoch : int;
  steady : bool;
  churn_permille : int;
  rollout : rollout option;
  per_epoch : epoch_stats list;
  verifier_cycles : int;
  device_cycles : int;
  frames_sent : int;
  frames_dropped : int;
  frames_delivered : int;
  tampered : int;
  silenced : int;
  key_derivations : int;
  telemetry : (string * int) list;
      (** the aggregator's {!Tytan_netsim.Aggregator.counters}; empty in
          scalar mode *)
  survived : bool;
      (** every device that was honest in an epoch attested (or was
          carried) in it *)
}

val run :
  mode:mode ->
  devices:int ->
  epochs:int ->
  seed:int ->
  ?faults:bool ->
  ?loss_percent:int ->
  ?rollout:Tytan_telf.Telf.t ->
  ?obs:Tytan_obs.Obs.Log.t ->
  ?domains:int ->
  ?steady:bool ->
  ?churn_permille:int ->
  unit ->
  report
(** Defaults: no faults, 10% frame loss, 6 health polls per epoch, no
    rollout, [domains = 1], [steady = false], [churn_permille = 0].
    With [~rollout] the campaign first pushes that TELF to
    every device: an image that survives the six-check vet is adopted
    as the fleet firmware (and attested from then on); one that does
    not — a leaky image copying key material into an IPC payload, say —
    is refused by every device, and the campaign proceeds on the old
    firmware.  Vet cycles are charged to the device clock either way.

    With [?obs] every admission, settled verdict and sealed Merkle
    epoch is recorded in the flight recorder: epoch correlation ids
    [fleet/epoch-N] parent per-session ids [<serial>/eN], timestamps on
    the campaign's global slice axis.  Recording charges no cycles —
    an observed run is bit-identical to an unobserved one.

    [domains] is clamped to [devices]; [~steady:true] in {!Scalar} mode
    and out-of-range [churn_permille] raise [Invalid_argument]. *)

val verdicts : report -> string list
(** Per-epoch verdict strings — the value the differential test compares
    across modes byte for byte. *)

val to_string : report -> string
(** Deterministic rendering ending in a [digest: sha1:...] line over the
    whole body; two runs are bit-identical iff their renderings are.
    [domains] is deliberately absent — a parallel run must render
    byte-identically to its sequential twin. *)

val equal : report -> report -> bool
(** Rendering equality — the [--verify] comparison. *)

val semantic_digest : report -> string
(** SHA-256 hex over the mode-independent semantic content: per-epoch
    verdict strings with ['a'] normalised to ['A'] (a carried device is
    vouched-for exactly like an attested one), healthy-poll counts,
    settle slices, and survival.  Mode-specific shape (roots, batch and
    cache counts, cycle totals) is excluded, so scalar and incremental
    runs of the same identity-schedule campaign must agree. *)

val campaign_failed : report -> bool
(** True when any session verdict is ['?'] (pending): the campaign
    engine failed to drive a session to a conclusion.  Orthogonal to
    [survived] — a fault-injected campaign legitimately loses devices,
    but an unsettled session is always an infrastructure failure, and
    the CLI exits non-zero on it so CI can gate. *)
