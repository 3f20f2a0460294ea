(** SHA-1 (RFC 3174), implemented from scratch.

    The paper's RTM uses SHA-1 to compute task identities ("we use SHA-1
    but other hash algorithms can also be used").  The streaming interface
    matters for TyTAN: the RTM must be {e interruptible} during hash
    computation, so it feeds the task image to the hash one 64-byte block
    at a time, yielding to the scheduler in between (see Table 7: cost is
    linear in the number of blocks). *)

type ctx
(** Streaming hash context. *)

val digest_size : int
(** 20 bytes. *)

val block_size : int
(** 64 bytes — the unit of interruption for the RTM. *)

val init : unit -> ctx

val copy : ctx -> ctx
(** Independent snapshot of a streaming context: feeding the copy does
    not disturb the original.  HMAC uses this to cache the two key-pad
    compressions across MACs under the same key ({!Hmac.prepare}). *)

val feed : ctx -> bytes -> unit
(** Absorb data; may be called any number of times. *)

val feed_sub : ctx -> bytes -> pos:int -> len:int -> unit

val finalize : ctx -> bytes
(** Produce the 20-byte digest.  The context must not be used again. *)

val digest : bytes -> bytes
(** One-shot hash. *)

val digest_string : string -> bytes

val compression_count : ctx -> int
(** Number of 64-byte compression-function invocations so far (including
    none for buffered partial data).  The RTM charges cycles per
    compression, so this is the calibration hook for Table 7. *)

val to_hex : bytes -> string

val total_compressions : unit -> int
(** Process-global count of compression-function invocations performed
    across all contexts: a measure of host work.  Backed by an
    [Atomic.t]: exact even when several domains hash concurrently.  A
    replayed result ({!bill_domain}) does not move it. *)

val domain_compressions : unit -> int
(** Count of compressions {e billed} to the calling domain: those it
    performed, plus those {!bill_domain} replayed.  Charged-cycle
    samplers ([Cost_model.charge_hashing]) take deltas of this counter,
    not the global one — otherwise another domain's hashing would be
    billed to this worker's clock — so a result computed once and
    replayed is charged the cycles of a fresh computation. *)

val bill_domain : int -> unit
(** [bill_domain n] adds [n] to the calling domain's billed count
    without compressing anything; {!total_compressions} does not move.
    [Cost_model.replay_hashing] is the one caller. *)
