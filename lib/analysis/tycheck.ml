open Tytan_machine
open Tytan_telf

type config = {
  windows : (int * int) list;
  loop_bounds : (int * int) list;
  inbox_bytes : int;
  r12_inbox : bool;
  context_frame_bytes : int;
  flow : Flowcheck.config option;
}

(* The inbox and frame sizes mirror Ipc.inbox_size and
   Context.frame_bytes; they are plain numbers here so the analysis
   library stays independent of the kernel.  Flow/topology vetting is
   opt-in ([flow = None] keeps the original four checks), so existing
   vetting deployments are unchanged until they declare a flow policy. *)
let default_config =
  {
    windows = [ (0xF000_0000, 0x1000_0000) ];
    loop_bounds = [];
    inbox_bytes = 64;
    r12_inbox = true;
    context_frame_bytes = 68;
    flow = None;
  }

let flow_config = { default_config with flow = Some Flowcheck.default_config }

type report = {
  findings : Finding.t list;
  instr_count : int;
  reachable_count : int;
  wcet : [ `Cycles of int | `Unbounded ];
  stack : [ `Bytes of int | `Unbounded ];
}

let degenerate findings =
  {
    findings;
    instr_count = 0;
    reachable_count = 0;
    wcet = `Unbounded;
    stack = `Unbounded;
  }

let analyse config (telf : Telf.t) =
  let format_findings = ref [] in
  if telf.text_size mod Isa.width <> 0 then
    format_findings :=
      Finding.v ~offset:(telf.text_size - (telf.text_size mod Isa.width))
        Finding.Format Finding.Violation
        (Printf.sprintf
           "text ends %d bytes past the last instruction boundary"
           (telf.text_size mod Isa.width))
      :: !format_findings;
  match Cfg.of_telf telf with
  | Error msg ->
      degenerate
        (Finding.v Finding.Format Finding.Violation msg :: !format_findings)
  | Ok cfg when cfg.Cfg.entry >= Cfg.instr_count cfg ->
      degenerate
        (Finding.v Finding.Format Finding.Violation
           "entry point lies beyond the decoded text"
        :: !format_findings)
  | Ok cfg ->
      let image_size = Bytes.length telf.image in
      let footprint =
        image_size + telf.bss_size + config.inbox_bytes + telf.stack_size
      in
      let reloc_imms = Hashtbl.create 16 in
      Array.iter
        (fun off -> Hashtbl.replace reloc_imms off ())
        telf.relocations;
      let relocated i =
        Hashtbl.mem reloc_imms (Cfg.offset i + Isa.imm_field_offset)
      in
      let init = Array.make Dataflow.reg_count Absval.top in
      if config.r12_inbox then
        init.(12) <- Absval.rel_const (image_size + telf.bss_size);
      init.(15) <- Absval.rel_const footprint;
      let fallback = Cfg.indirect_code_targets telf in
      let stack_region = (footprint - telf.stack_size, footprint) in
      let df = Dataflow.run ~init ~relocated ~fallback ~stack_region cfg in
      let reachable_count =
        Array.fold_left
          (fun acc s -> if s = None then acc else acc + 1)
          0 df.Dataflow.states
      in
      let unreachable = Cfg.instr_count cfg - reachable_count in
      let reach_findings =
        if unreachable > 0 then
          [
            Finding.v Finding.Format Finding.Info
              (Printf.sprintf "%d of %d text slots are unreachable"
                 unreachable (Cfg.instr_count cfg));
          ]
        else []
      in
      let mem_findings =
        Memcheck.check ~footprint ~text_size:telf.text_size
          ~windows:config.windows df
      in
      let cfi_findings = Cfi.check ~fallback df in
      let stack_findings, stack =
        Stackcheck.check ~stack_size:telf.stack_size
          ~context_frame_bytes:config.context_frame_bytes df
      in
      let wcet_findings, wcet = Wcet.check ~loop_bounds:config.loop_bounds df in
      let flow_findings =
        match config.flow with
        | None -> []
        | Some fc -> Flowcheck.run ~config:fc ~stack_region telf df
      in
      {
        findings =
          List.stable_sort Finding.compare
            (!format_findings @ reach_findings @ mem_findings @ cfi_findings
           @ stack_findings @ wcet_findings @ flow_findings);
        instr_count = Cfg.instr_count cfg;
        reachable_count;
        wcet;
        stack;
      }

let check ?(config = default_config) telf =
  (* The loader and the fuzz harness both rely on this never raising:
     an input strange enough to break the analysis is reported as a
     violation, not an exception. *)
  try analyse config telf
  with exn ->
    degenerate
      [
        Finding.v Finding.Format Finding.Violation
          ("analysis failed: " ^ Printexc.to_string exn);
      ]

let violations r =
  List.filter (fun f -> f.Finding.severity = Finding.Violation) r.findings

let ok r = violations r = []

let strict_ok r =
  List.for_all (fun f -> f.Finding.severity = Finding.Info) r.findings

let first_violation r =
  match violations r with
  | [] -> None
  | f :: _ -> Some (Format.asprintf "%a" Finding.pp f)

(* Findings are sorted most severe first, so the head decides: a
   violation if there is one, else an unknown, else nothing to refuse. *)
let strict_refusal r =
  match r.findings with
  | f :: _ when f.Finding.severity <> Finding.Info ->
      Some (Format.asprintf "%a" Finding.pp f)
  | _ -> None

let pp_wcet ppf = function
  | `Cycles n -> Format.fprintf ppf "%d cycles" n
  | `Unbounded -> Format.pp_print_string ppf "unbounded"

let pp_stack ppf = function
  | `Bytes n -> Format.fprintf ppf "%d bytes" n
  | `Unbounded -> Format.pp_print_string ppf "unbounded"

let pp_report ppf r =
  let count sev =
    List.length
      (List.filter (fun f -> f.Finding.severity = sev) r.findings)
  in
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf
    "instructions %d (%d reachable); wcet %a; stack %a; %d violation(s), %d \
     unknown(s)"
    r.instr_count r.reachable_count pp_wcet r.wcet pp_stack r.stack
    (count Finding.Violation) (count Finding.Unknown);
  List.iter (fun f -> Format.fprintf ppf "@,%a" Finding.pp f) r.findings;
  Format.fprintf ppf "@]"
