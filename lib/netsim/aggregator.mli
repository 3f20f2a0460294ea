(** Batched fleet verifier: Merkle report aggregation plus a
    measurement cache — now incremental and shardable.

    The scalar {!Verifier} re-runs the full key derivation and HMAC per
    device per health query — fine for one prover, ruinous for a fleet
    polled continuously.  The aggregator sits verifier-side above the
    per-device retry sessions and changes the cost shape:

    - {b Key cache}: the per-device attestation key [Ka] is derived once
      per campaign and reused across epochs, and the HMAC key schedule
      (the two key-pad compressions) is precomputed alongside it, so an
      expected-MAC miss costs only the message compressions.
    - {b Measurement cache}: the first genuine report of a device in an
      epoch costs one HMAC; every later check of the same [(device, id,
      nonce-epoch)] key is a constant-time tag compare.  The cache is
      cleared on {!begin_epoch}: a cached verdict is only ever served
      within the nonce epoch that produced it, because the MAC binds the
      epoch's nonce — serving it across epochs would accept a replay
      (DESIGN.md §13).
    - {b Merkle batching} ([Rebuild], the default; the verifier
      gateway's aggregation): verified reports are admitted as SHA-256
      leaves and sealed into epoch-stamped {!Tytan_crypto.Merkle}
      roots, which {!batches} and the {!on_seal} observer report.  No
      fleet-health poll reads them: {!query} answers only under
      [Retain].
    - {b Incremental aggregation} ([Retain], the swarm's incremental
      engine): per-device leaves persist
      across epochs in a {!Tytan_crypto.Merkle.Inc} tree keyed by the
      measured identity (not the epoch nonce), so sealing an epoch
      recomputes only the root-paths of devices whose measurement
      changed, appeared, or went silent (tombstoned) — O(changed ·
      log n) instead of O(fleet) — and emits a sparse {!delta} per
      epoch.  Replay protection is unchanged: freshness lives in the
      per-epoch measurement cache (MACs bind the epoch nonce); the
      retained tree only vouches for {e which} measurement each live
      device last proved.
    - {b Sharding}: with [shards = D], report checks may run
      concurrently on up to [D] domains, one shard per contiguous
      device range.  Shards share nothing mutable: per-shard caches and
      clocks, with admissions queued per shard and applied by {!drain}
      from sequential code in shard order — which the engine's
      device-range pinning makes identical to sequential admission
      order, so batch boundaries, roots, counters and cycle totals are
      bit-identical to a one-shard run (DESIGN.md §18).

    All crypto is charged to the acting shard's clock by sampling the
    calling domain's compression counters (SHA-1 at
    [Cost_model.crypto_per_compression], SHA-256 at
    [Cost_model.sha256_per_compression]); cache probes charge
    [swarm_cache_lookup] / [swarm_root_check].  Hits, misses and sealed
    batches are counted once, in the aggregator's own ledger, and read
    back through {!cache_hits}, {!cache_misses}, {!batches} and
    {!counters}. *)

open Tytan_core
module Crypto = Tytan_crypto

type t

type kind =
  | Rebuild  (** rebuild the epoch tree from this epoch's reports *)
  | Retain  (** persist leaves across epochs; commit only dirty paths *)

type delta_entry = {
  serial : string;
  before : Task_id.t option;  (** [None] = was absent/tombstoned *)
  after : Task_id.t option;  (** [None] = went silent (tombstoned) *)
}

type delta = { at_epoch : int; new_root : bytes; changed : delta_entry list }
(** Sparse epoch summary under [Retain]: what changed, and the root the
    changes produced.  An all-healthy steady-state epoch has [changed =
    []] except for the epochs that sealed arrivals or departures. *)

val create :
  ka_of:(serial:string -> bytes) ->
  clock:Tytan_machine.Cycles.t ->
  ?kind:kind ->
  ?shards:int ->
  unit ->
  t
(** [ka_of] derives a device's attestation key (typically
    [Registry.attestation_key]); its cost is charged on first use per
    device.  Under [Rebuild] (default) a full batch of 256 genuine
    reports seals eagerly and {!flush} seals the remainder; under
    [Retain] the epoch seals once, at {!flush}/{!begin_epoch}.
    [shards] (default 1) sizes the concurrent-checking shard array;
    with one shard the aggregator is byte-for-byte the sequential
    engine. *)

val epoch : t -> int

val on_seal : t -> (epoch:int -> root:bytes -> leaves:int -> unit) -> unit
(** Install an observer called whenever a batch seals (eagerly at the
    batch limit, on {!flush}, or from {!begin_epoch}) with the sealed
    epoch, root and leaf count (under [Retain]: the delta size).
    Purely observational — the campaign engines use it to thread
    epoch-seal events into the flight recorder without the aggregator
    depending on it. *)

val begin_epoch : t -> epoch:int -> unit
(** Seal any pending work under the old epoch, then drop every cached
    measurement and root: nothing verified under a previous nonce may
    answer for the new one.  Retained leaves survive — only their
    freshness evidence resets. *)

val check_report :
  ?shard:int ->
  t ->
  serial:string ->
  expected:Task_id.t ->
  nonce:bytes ->
  Attestation.report ->
  bool
(** Full verification semantics of {!Attestation.verify} (identity,
    nonce, MAC — constant time), served from the shard's measurement
    cache when the device already verified this epoch.  A genuine first
    report is admitted to the current batch (immediately with one
    shard; at the next {!drain} otherwise); forged reports are never
    cached.  Plug directly into [Verifier.create ~check].  [shard]
    (default 0) must be the device's pinned shard; only that shard's
    state is touched, so calls on distinct shards are safe to run on
    distinct domains. *)

val drain : t -> unit
(** Sequential sync point after a parallel slice: apply queued
    admissions in shard order and merge shard clocks into the main
    clock.  No-op with one shard.  Must be called from sequential
    code. *)

val flush : t -> unit
(** Seal the in-progress batch / commit the retained tree (end of an
    epoch's collection phase).  Call {!drain} first when sharded. *)

val query : ?shard:int -> t -> serial:string -> epoch:int -> bool
(** O(1) fleet-health poll of a [Retain] aggregator, with a cache probe
    plus a single root check: is this device's measurement verified {e
    in this epoch} and sealed under a current-epoch root?  [false] for
    any other epoch, unsealed entries and unknown devices, and always
    under [Rebuild], whose seals stamp no cache entry. *)

val carry : t -> serial:string -> bool
(** [Retain] only: mark a live device's slot as still-alive this epoch
    without re-verification (the engine's liveness signal for devices
    it chose not to re-challenge).  Returns [false] for unknown or
    tombstoned devices — those must be re-challenged. *)

val carried_healthy : t -> serial:string -> bool
(** [Retain] health poll for a device carried (not re-challenged) this
    epoch: alive this epoch and a live leaf of the retained tree.
    Charges the same lookup + root-check costs as {!query}. *)

val membership_proof : t -> serial:string -> (bytes * Crypto.Merkle.proof) option
(** [Retain] only: the device's current leaf payload and its membership
    proof against the last committed root ([Merkle.verify] checks it).
    [None] for unknown or tombstoned devices. *)

val epoch_deltas : t -> delta list
(** [Retain] only: sparse per-epoch deltas, oldest first. *)

val live_leaves : t -> int
(** [Retain] only: non-tombstoned slots in the retained tree. *)

val batches : t -> (int * bytes * int) list
(** Sealed [(epoch, root, size)] triples, oldest first. *)

val cache_hits : t -> int
val cache_misses : t -> int

val key_derivations : t -> int
(** How many devices have had [Ka] derived (≤ fleet size, campaign
    lifetime). *)

val counters : t -> (string * int) list
(** The report rows of the ledger above: [swarm.batches_sealed],
    [swarm.cache_hits] and [swarm.cache_misses], in that (sorted)
    order, with zero counts left out. *)
