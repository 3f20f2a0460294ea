(** SHA-256 (FIPS 180-4), implemented from scratch.

    The paper uses SHA-1 for task measurement "but other hash algorithms
    can also be used" (footnote 8).  SHA-256 shares the 64-byte block
    size, so the RTM's interruption granularity and the linear-in-blocks
    cost shape carry over unchanged; only the per-block compression cost
    differs (the benchmark's hash-algorithm ablation quantifies it). *)

type ctx

val digest_size : int
(** 32 bytes. *)

val block_size : int
(** 64 bytes — same interruption unit as SHA-1. *)

val init : unit -> ctx

val copy : ctx -> ctx
(** Independent snapshot of a streaming context (see {!Sha1.copy}). *)

val feed : ctx -> bytes -> unit
val feed_sub : ctx -> bytes -> pos:int -> len:int -> unit

val finalize : ctx -> bytes
(** The 32-byte digest; the context must not be reused. *)

val digest : bytes -> bytes
val digest_string : string -> bytes

val compression_count : ctx -> int
val to_hex : bytes -> string

val total_compressions : unit -> int
(** Process-global count of compression-function invocations performed
    across all contexts, mirroring {!Sha1.total_compressions}: a measure
    of host work, which a replayed result does not move.  Backed by an
    [Atomic.t]: exact even when several domains hash concurrently. *)

val domain_compressions : unit -> int
(** Compressions billed to the calling domain — performed, plus
    replayed by {!bill_domain} — mirroring {!Sha1.domain_compressions}:
    the delta source for charged-cycle samplers that may run inside
    worker domains. *)

val bill_domain : int -> unit
(** Mirrors {!Sha1.bill_domain}: add [n] to the calling domain's billed
    count only. *)
