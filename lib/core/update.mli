(** Runtime task update (the paper's future work, Section 8).

    "Future work includes extending TyTAN with a mechanism to update tasks
    at runtime (i.e., without stopping and restarting them) to meet the
    high availability requirements of embedded applications."

    The implementation stages the new version {e while the old version
    keeps running} — loading is interruptible, so the old task continues
    to meet its deadlines throughout — and then performs an atomic swap:
    suspend old, optionally migrate the leading data words of the old
    task's data section into the new one, activate new, unload old.  The
    {e availability gap} is just the swap, a bounded operation measured in
    cycles (vs. a full stop-reload-restart, which leaves the function
    absent for the whole load time — the ablation benchmark reports
    both).

    State migration runs under trusted identities that already hold the
    necessary grants: the RTM (read access to every secure task) and the
    Int Mux (write access, as the context-switch agent).  The new
    version's identity differs from the old one's, so sealed storage does
    {e not} transfer — by design (see the secure-storage example).

    The update preserves the old task's scheduling parameters
    (priority). *)

open Tytan_rtos
open Tytan_telf

type report = {
  task : Tcb.t;  (** the new version's TCB *)
  old_id : Task_id.t;
  new_id : Task_id.t;
  downtime_cycles : int;
  (** cycles during which neither version was schedulable *)
  staging_cycles : int;  (** cycles spent loading the new version *)
}

val update_task :
  Platform.t ->
  old_task:Tcb.t ->
  ?migrate_words:int ->
  Telf.t ->
  (report, string) result
(** Blocking variant: stages the new binary, swaps, reclaims the old one.
    [migrate_words] (default 0) copies that many words from the head of
    the old data section to the new one. *)

val apply :
  Platform.t ->
  old_task:Tcb.t ->
  ?migrate_words:int ->
  ?expected:Task_id.t ->
  Telf.t ->
  (report, string) result
(** The OTA installer's gated variant of {!update_task} — measured
    activation end to end:

    + {e vet}: the six-check [Tycheck.flow_config] analysis must prove
      the image clean ({!Tytan_analysis.Tycheck.strict_ok}); the vet is
      charged to the platform clock at the loader's published rates; a
      refusal gives {!Tytan_analysis.Tycheck.strict_refusal}'s reason;
    + {e stage}: the new version loads suspended while the old one keeps
      running, exactly as {!update_task};
    + {e measure}: before the swap, the RTM measurement of the staged
      bytes must equal [expected] (default: the vetted binary's own
      identity; an OTA flow passes the identity from the signed offer).
      On mismatch — the staged image was bit-flipped or substituted
      between vet and activation — the staged copy is reclaimed, the old
      task never stops, and the result is an [Error].  An unmeasured
      image is never activated;
    + {e swap}: the same bounded atomic swap as {!update_task}. *)

val stop_and_reload :
  Platform.t -> old_task:Tcb.t -> Telf.t -> (report, string) result
(** The naive alternative (unload, then load): functionally equivalent but
    the function is absent for the whole load — the availability baseline
    the benchmark compares against. *)
