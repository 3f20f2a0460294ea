(** SHA-1 (RFC 3174), implemented from scratch.

    The paper's RTM uses SHA-1 to compute task identities ("we use SHA-1
    but other hash algorithms can also be used").  The streaming interface
    matters for TyTAN: the RTM must be {e interruptible} during hash
    computation, so it feeds the task image to the hash one 64-byte block
    at a time, yielding to the scheduler in between (see Table 7: cost is
    linear in the number of blocks).  {!Md} owns that framing and the
    compression tallies; this module is the five lanes and the
    compression function.  The digest is 20 bytes. *)

include Md.S
