(** The dynamic task loader (the paper's FreeRTOS ELF-loader extension).

    Loading a task t performs the paper's six steps: (1) allocate memory;
    (2) load the binary, performing relocation; (3) prepare the stack;
    (4) configure the EA-MPU to protect t's memory; (5) measure t; and
    (6) notify the OS to schedule t.

    Crucially for real-time behaviour, loading is {e interruptible}: the
    work is a state machine advanced by bounded {!step} calls — one copy
    chunk, one batch of relocations, one EA-MPU rule, one hash block at a
    time.  On a live platform the steps are driven by the loader service
    task, which higher-priority tasks preempt at every tick; Table 1's
    result (t0 and t1 hold their 1.5 kHz rates while t2 loads for
    ~27.8 ms) depends exactly on this property.  {!load_blocking} runs a
    whole job in one go — the benchmark path, and (driven through
    {!step_all_atomic}) the non-interruptible-loader ablation.

    Unloading deletes the task from the scheduler, clears its EA-MPU
    rules, removes it from the RTM directory and reclaims its memory. *)

open Tytan_machine
open Tytan_eampu
open Tytan_rtos
open Tytan_telf

type trusted_regions = {
  kernel_code : Region.t;
  int_mux : Region.t;
  ipc_proxy : Region.t;
  rtm : Region.t;
}
(** Code regions of the principals that receive grants over each loaded
    task's memory. *)

type request = {
  telf : Telf.t;
  name : string;
  priority : int;
  secure : bool;
  provider : string;
}

type t

val create :
  ?vet:Tytan_analysis.Tycheck.config ->
  kernel:Kernel.t ->
  rtm:Rtm.t ->
  mpu:Mpu_driver.t option ->
  heap:Heap.t ->
  code_eip:Word.t ->
  regions:trusted_regions ->
  unit ->
  t
(** [mpu = None] on the baseline platform: no protection is configured
    (and secure-task requests are rejected).

    [vet] enables load-time static verification: every submitted binary
    is run through {!Tytan_analysis.Tycheck.check} during the parse
    phase (with [r12_inbox] following the request's [secure] flag) and
    refused — before any memory is allocated — if the report carries a
    violation.  The verification cost is charged to the loading cycle
    budget ({!Cost_model.vet_cycles}, with [vet_flow] when the config
    checks flows). *)

val code_eip : t -> Word.t

(** {2 Asynchronous (service-task driven) loading} *)

val submit : t -> request -> unit
val pending : t -> int

val step : t -> [ `Idle | `Working | `Loaded of Tcb.t | `Failed of string ]
(** Perform one bounded unit of work on the front job. *)

val swi_step : int
(** SWI number (11) the loader service task raises; each call runs one
    {!step} and returns the status in the caller's r0 (0 idle, 1 working,
    2 loaded, 3 failed). *)

val handle_swi : t -> swi:int -> gprs:Word.t array -> bool

val on_loaded : t -> (Tcb.t -> unit) -> unit
(** Callback when an asynchronous load completes. *)

(** {2 Blocking loading (benchmarks, examples, boot-time setup)} *)

val load_blocking : t -> request -> (Tcb.t, string) result

(** {2 Lifecycle} *)

val unload : t -> Tcb.t -> unit
(** Kill the task and reclaim memory, protection rules and directory
    entry. *)

val reclaim : t -> Tcb.t -> unit
(** The kernel's on-exit hook: release resources of a task that already
    terminated. *)

val loads_completed : t -> int
val bytes_loaded : t -> int

val last_report : t -> (string * int) list
(** Cycles spent per phase (["parse"], ["alloc"], ["copy"],
    ["relocation"], ["stack-prep"], ["ea-mpu"], ["rtm"], ["register"]) of
    the most recently finished job — the decomposition printed by the
    Table 4 benchmark. *)

val max_step_cycles : t -> int
(** Largest single {!step} observed — the loader's contribution to
    worst-case preemption latency.  Real-time compliance requires this to
    stay below the tick period. *)

val reset_step_stats : t -> unit
