(** The Merkle–Damgård framing shared by {!Sha1} and {!Sha256}.

    Both hashes absorb their input in 64-byte blocks, pad it with
    [0x80], zeros and the 64-bit big-endian bit length, and render their
    32-bit chaining lanes big-endian as the digest.  [Make] owns all of
    that — the streaming buffer, the padding, the two compression
    tallies and the one-shot helpers — so a hash is only its initial
    lanes and its compression function.

    The block is also the RTM's unit of interruption: it feeds a task
    image one block at a time, yielding to the scheduler in between, so
    a measurement's cost is linear in its block count (the paper's
    Table 7). *)

(** What every hash built by {!Make} provides. *)
module type S = sig
  type ctx
  (** Streaming hash context. *)

  val digest_size : int
  (** Bytes in a digest: 4 per lane. *)

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
  (** Absorb [len] bytes of [data] from [pos].
      @raise Invalid_argument on a bad range or a finalized context. *)

  val finalize : ctx -> bytes
  (** Pad, compress the last block(s) and produce the digest.  The
      context must not be used again. *)

  val digest : bytes -> bytes
  (** One-shot hash. *)

  val digest_string : string -> bytes

  val compression_count : ctx -> int
  (** Number of 64-byte compression-function invocations so far (none
      for buffered partial data).  The RTM charges cycles per
      compression, so this is the calibration hook for Table 7. *)

  val to_hex : bytes -> string
  (** Lower-case hex of any bytes. *)

  val total_compressions : unit -> int
  (** Process-global count of compression-function invocations performed
      across all contexts of this hash: a measure of host work.  Backed
      by an [Atomic.t]: exact even when several domains hash
      concurrently.  A replayed result ({!bill_domain}) does not move
      it. *)

  val domain_compressions : unit -> int
  (** Count of compressions {e billed} to the calling domain: those it
      performed, plus those {!bill_domain} replayed.  Charged-cycle
      samplers ([Cost_model.charge_hashing]) take deltas of this
      counter, not the global one — otherwise another domain's hashing
      would be billed to this worker's clock — so a result computed once
      and replayed is charged the cycles of a fresh computation. *)

  val bill_domain : int -> unit
  (** [bill_domain n] adds [n] to the calling domain's billed count
      without compressing anything; {!total_compressions} does not move.
      [Cost_model.replay_hashing] is the one caller. *)
end

(** A hash's own part: its lanes and its compression function. *)
module type Compression = sig
  val name : string
  (** The module name, for error messages. *)

  val iv : int array
  (** The initial chaining lanes, 32 bits each; the digest is the final
      lanes, big-endian. *)

  val schedule_words : int
  (** Length of the message schedule [compress] expands into (at least
      16). *)

  val compress : int array -> int array -> unit
  (** [compress h w] folds one block into the lanes [h].  On entry
      [w.(0..15)] hold the block's sixteen big-endian words; the rest of
      [w] ([schedule_words] long, preallocated per context) is scratch
      for the schedule. *)
end

module Make (C : Compression) : S
