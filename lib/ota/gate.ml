open Tytan_core
module Telf = Tytan_telf.Telf
module Tycheck = Tytan_analysis.Tycheck
module Isa = Tytan_machine.Isa

type verdict = {
  accepted : bool;
  refusal : string option;
  vet_cycles : int;
}

let vet (telf : Telf.t) =
  (* Adoption demands the strict verdict: an image the analysis cannot
     prove clean (a Maybe-level flow, an unbounded WCET) is refused
     alongside proven leaks. *)
  let refusal =
    Tycheck.strict_refusal (Tycheck.check ~config:Tycheck.flow_config telf)
  in
  {
    accepted = refusal = None;
    refusal;
    vet_cycles =
      Cost_model.vet_cycles ~flow:true ~slots:(telf.Telf.text_size / Isa.width);
  }

let version_ok ~counter ~version = version > counter
