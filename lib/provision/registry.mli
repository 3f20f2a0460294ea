(** The device manufacturer's provisioning registry.

    The paper's model has three parties: the manufacturer M (provisions
    the hardware and the platform key Kp), the owner/operator O, and task
    providers P.  This module is M's side: per-device platform keys
    derived from a master secret and the device serial (so the registry
    never stores per-device keys at rest), and the software manifest —
    the reference identities a healthy device must be able to attest.

    Key hierarchy: [Kp(serial) = HMAC(master, "device/" serial)];
    attestation keys derive from Kp as on the device, so a verifier
    provisioned with the registry can audit any device in the fleet while
    devices remain mutually isolated — one device's extracted key
    compromises no other device. *)

open Tytan_core

type t

val create : master:bytes -> t
(** [master] is the manufacturer's root secret (any length). *)

val of_seed : name:string -> int -> t
(** A seeded campaign's registry: master secret
    ["<name>-master-%08x"] over the seed's low 32 bits.  The swarm runs
    under ["fleet"] (and so does the CLI's OTA campaign, which shares
    its fleet), the gateway under ["serve"]. *)

val platform_key : t -> serial:string -> bytes
(** The 20-byte Kp burned into device [serial] at manufacture. *)

val attestation_key : t -> serial:string -> bytes
(** Ka for that device, as its verifier needs it. *)

(** {2 Software manifest} *)

val set_manifest : t -> (string * Task_id.t) list -> unit
(** [(component name, reference identity)] pairs every audited device
    must be running. *)

val manifest : t -> (string * Task_id.t) list
