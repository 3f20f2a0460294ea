(** Executes a {!Fault_plan} against a live platform.

    The injector owns the platform's fault hooks (the {!Memory} write and
    MMIO-read fault hooks) and a copy of the plan's schedule.  Driving
    the platform through {!advance} (or handing {!advance} to a
    co-simulation as its device-advance function) applies every event
    whose tick has come, emits an ["inject"] trace event for it, and
    counts applications per fault kind.

    Everything — including the garbage values returned by glitched MMIO
    reads — derives from the plan's seed, so a run is reproducible. *)

open Tytan_core

type t

val create : Platform.t -> plan:Fault_plan.t -> t
(** Installs the memory fault hooks (replacing any previous ones). *)

val advance : t -> cycles:int -> unit
(** Advance the platform, applying due fault events at tick boundaries.
    Suitable as a {!Tytan_netsim.Cosim.create} [~advance] function. *)

val run_ticks : t -> int -> unit

val injected : t -> (string * int) list
(** Applied faults per kind label (["bit-flip"], ["write-glitch"],
    ["mmio-glitch"], ["irq-storm"], ["task-kill"], ["task-hang"]),
    sorted by label.  Write- and MMIO-glitches count {e actual} glitched
    accesses, not scheduled events. *)

val pending : t -> int
(** Scheduled events not yet applied. *)

val missed_targets : t -> int
(** Task kill/hang events whose target task did not exist. *)
