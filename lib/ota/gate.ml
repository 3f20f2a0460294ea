open Tytan_core
module Telf = Tytan_telf.Telf
module Tycheck = Tytan_analysis.Tycheck
module Finding = Tytan_analysis.Finding
module Isa = Tytan_machine.Isa

type verdict = {
  accepted : bool;
  refusal : string option;
  vet_cycles : int;
}

let vet (telf : Telf.t) =
  let rep = Tycheck.check ~config:Tycheck.flow_config telf in
  (* Adoption demands the strict verdict: an image the analysis cannot
     prove clean (a Maybe-level flow, an unbounded WCET) is refused
     alongside proven leaks. *)
  let refusal =
    match Tycheck.first_violation rep with
    | Some _ as v -> v
    | None ->
        List.find_opt
          (fun f -> f.Finding.severity <> Finding.Info)
          rep.Tycheck.findings
        |> Option.map (Format.asprintf "%a" Finding.pp)
  in
  {
    accepted = Tycheck.strict_ok rep;
    refusal;
    vet_cycles =
      Cost_model.vet_cycles ~flow:true ~slots:(telf.Telf.text_size / Isa.width);
  }

let version_ok ~counter ~version = version > counter
