(** The admission gates every firmware image must clear — one code path
    shared by the OTA installer (device-side, at staging) and the
    rollout engine (canary promotion), the fleet's one firmware-push
    path, so a leaky image and a stale version are refused by the same
    logic wherever they are presented.  [tytan ota --leaky] shows the
    refusal at fleet scale. *)

open Tytan_telf

type verdict = {
  accepted : bool;  (** {!Tytan_analysis.Tycheck.strict_ok} *)
  refusal : string option;
      (** {!Tytan_analysis.Tycheck.strict_refusal}: the first violation,
          else the first unknown; [None] exactly when [accepted] *)
  vet_cycles : int;
      (** what a device's loader charges for the six-check vet of this
          image: [Cost_model.vet_cycles ~flow:true] over its text slots *)
}

val vet : Telf.t -> verdict
(** Run the six-check [Tycheck.flow_config] analysis.  Pure function of
    the binary — a refusal is platform-wide.  The caller charges
    [vet_cycles] to whichever clock did the work.  {!Installer} relies
    on this purity: it reuses one verdict for every device that stages
    the same bytes, so [vet] must stay free of hidden state. *)

val version_ok : counter:int -> version:int -> bool
(** The anti-rollback gate: an offer is fresh iff its authenticated
    version is {e strictly} above the device's monotonic counter. *)
