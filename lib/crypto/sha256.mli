(** SHA-256 (FIPS 180-4), implemented from scratch.

    The paper uses SHA-1 for task measurement "but other hash algorithms
    can also be used" (footnote 8).  SHA-256 shares the 64-byte block
    size and the framing ({!Md}), so the RTM's interruption granularity
    and the linear-in-blocks cost shape carry over unchanged; only the
    per-block compression cost differs (the benchmark's hash-algorithm
    ablation quantifies it).  The digest is 32 bytes. *)

include Md.S
