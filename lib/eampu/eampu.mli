(** The Execution-Aware Memory Protection Unit.

    The EA-MPU (introduced by TrustLite, extended by TyTAN with dynamic
    reconfiguration) enforces memory access control based on {e which code}
    performs an access, not on a privilege mode:

    - an {!rule.Exec} rule makes a region executable; if it carries an
      entry point, control may enter the region {e only} at that address
      (internal jumps are free) — this blocks code-reuse attacks on tasks;
    - a {!rule.Grant} rule lets code executing inside [code] read/write
      [data] according to [perm].

    Policy (mirroring the hardware of the paper):
    - executing an address not covered by any [Exec] rule is denied
      (no code injection from stacks or data regions);
    - reads/writes touching a region covered by at least one [Grant] rule
      are denied unless some rule grants them to the current code region;
    - reads/writes to memory no rule covers are allowed — the EA-MPU
      protects regions by exception, everything else (e.g. plain OS heap)
      stays open, as in TrustLite.

    The unit has a fixed number of {e slots} (18 in the paper's deployment,
    Table 6).  Slot manipulation here is raw "hardware register" access;
    the find-free-slot / policy-check / write-rule protocol with its cycle
    costs is the job of the trusted EA-MPU {e driver} in the core library. *)

open Tytan_machine

type rule =
  | Exec of {
      region : Region.t;
      entry : Word.t option;  (** enforced entry point, if any *)
    }
  | Grant of {
      code : Region.t;
      data : Region.t;
      perm : Perm.t;
    }

type t

val default_slot_count : int
(** 18, as in the paper's evaluation platform. *)

val create : ?slots:int -> unit -> t
(** A fresh, disabled EA-MPU with all slots empty. *)

val slot_count : t -> int
val slot : t -> int -> rule option
val set_slot : t -> int -> rule option -> unit
(** Raw slot write — no policy checking (hardware behaviour; the driver
    checks policy first). *)

val clear_slot : t -> int -> unit

val enabled : t -> bool
val enable : t -> unit
(** Secure boot enables enforcement once the static rules are in place. *)

val iter_slots : t -> (int -> rule -> unit) -> unit
val used_slots : t -> int

val first_free_slot : t -> int option

val conflicts : t -> rule -> (int * rule) list
(** Rules already installed that the candidate must not coexist with:
    overlapping [Exec] regions (each executable region belongs to exactly
    one protection domain).  Grants never conflict — several principals
    legitimately hold grants over one task's memory (the task itself, the
    Int Mux, the IPC proxy, the RTM). *)

val check :
  t -> eip:Word.t -> addr:Word.t -> size:int -> kind:Access.kind -> unit
(** The hardware check consulted on every fetch/load/store.  No-op while
    the unit is disabled.  It reads a compiled int table that every slot
    write updates before returning, and allocates nothing unless it
    denies.  @raise Tytan_machine.Access.Violation on denial. *)

val pp : Format.formatter -> t -> unit
