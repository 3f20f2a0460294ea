(** The device manufacturer's provisioning registry.

    The paper's model has three parties: the manufacturer M (provisions
    the hardware and the platform key Kp), the owner/operator O, and task
    providers P.  This module is M's side: per-device platform keys
    derived from a master secret and the device serial (so the registry
    keeps no per-device keys at rest: the key table below lives only as
    long as one campaign's registry), and the software manifest —
    the reference identities a healthy device must be able to attest.

    Key hierarchy: [Kp(serial) = HMAC(master, "device/" serial)];
    attestation keys derive from Kp as on the device, so a verifier
    provisioned with the registry can audit any device in the fleet while
    devices remain mutually isolated — one device's extracted key
    compromises no other device.

    {2 The key table}

    Kp and Ka are pure functions of the master and the serial, so each
    registry keeps a table of the keys it derived, one entry per serial:
    Ka, and the SHA-1/SHA-256 compressions each derivation step (Kp,
    then Ka) billed.  Every later request {e replays} those counts onto
    the calling domain's compression counters
    ([Cost_model.replay_hashing]) instead of hashing again, so an
    enclosing [Cost_model.charge_hashing] charges exactly what a fresh
    derivation charged, while the host hashes each serial's keys once.

    - Scope: one registry, which is one campaign ({!of_seed} inside
      [Swarm.run] and [Gateway.create]).  There is no process-global
      table: a registry reused across campaigns would hand every later
      campaign a warm table no real campaign has.
    - Domains: any domain may call {!provision}, {!device_key} and
      {!attestation_key} concurrently.  One mutex guards the table.  A
      hit holds it for one lookup; a miss holds it while it derives, so
      concurrent misses on one serial derive it once.  The engines
      provision every device before their pool's domains ask.
    - Shared bytes: every call for one serial returns the same Ka
      value, shared by the device and its verifiers.  Callers must not
      mutate it (none does). *)

open Tytan_core

type t

val create : master:bytes -> t
(** [master] is the manufacturer's root secret (any length).  Its HMAC
    key pads are absorbed here, once, billing the calling domain
    ([Hmac.prepare]). *)

val of_seed : name:string -> int -> t
(** A seeded campaign's registry: master secret
    ["<name>-master-%08x"] over the seed's low 32 bits.  The swarm runs
    under ["fleet"] (and so does the CLI's OTA campaign, which shares
    its fleet), the gateway under ["serve"]. *)

val platform_key : t -> serial:string -> bytes
(** The 20-byte Kp burned into device [serial] at manufacture.  Pure and
    outside the table: every call hashes the message half of the HMAC
    and replays the key pads absorbed at {!create}, so it bills what a
    one-shot [Hmac.mac] under the master bills. *)

val provision : t -> serial:string -> unit
(** The manufacturer's step: derive device [serial]'s keys and record
    them, unless they are recorded already.  Call it outside any
    [charge_hashing]: burning Kp in is charged to no simulated clock. *)

val device_key : t -> serial:string -> bytes
(** Ka as device [serial] derives it at boot from its burned-in Kp:
    bills the calling domain the Ka step only.  Raises
    [Invalid_argument] if no keys are recorded for [serial]: a device
    boots only after {!provision}. *)

val attestation_key : t -> serial:string -> bytes
(** Ka for that device, as its verifier needs it: bills the calling
    domain both steps, Kp and Ka, exactly as a fresh derivation does.
    On a miss it derives the keys (billing what it hashes) and records
    them, as {!provision} does. *)

(** {2 Software manifest} *)

val set_manifest : t -> (string * Task_id.t) list -> unit
(** [(component name, reference identity)] pairs every audited device
    must be running. *)

val manifest : t -> (string * Task_id.t) list
