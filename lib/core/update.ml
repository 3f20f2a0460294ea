open Tytan_machine
open Tytan_rtos
open Tytan_telf
module Tycheck = Tytan_analysis.Tycheck
module Isa = Tytan_machine.Isa

type report = {
  task : Tcb.t;
  old_id : Task_id.t;
  new_id : Task_id.t;
  downtime_cycles : int;
  staging_cycles : int;
}

let entry_of p tcb =
  match Platform.rtm p with
  | None -> Error "runtime update requires the TyTAN platform"
  | Some rtm -> (
      match Rtm.find_by_tcb rtm tcb with
      | Some entry -> Ok entry
      | None -> Error "old task is not in the RTM directory")

let migrate p ~(old_entry : Rtm.entry) ~(new_entry : Rtm.entry) ~words =
  if words <= 0 then ()
  else begin
    let cpu = Platform.cpu p in
    let rtm = Option.get (Platform.rtm p) in
    let int_mux = Option.get (Platform.int_mux p) in
    let old_data =
      Word.add old_entry.Rtm.base old_entry.Rtm.telf.Telf.text_size
    in
    let new_data =
      Word.add new_entry.Rtm.base new_entry.Rtm.telf.Telf.text_size
    in
    for i = 0 to words - 1 do
      let v =
        Cpu.with_firmware cpu ~eip:(Rtm.code_eip rtm) (fun () ->
            Cpu.load32 cpu (Word.add old_data (4 * i)))
      in
      Cpu.with_firmware cpu ~eip:(Int_mux.code_eip int_mux) (fun () ->
          Cpu.store32 cpu (Word.add new_data (4 * i)) v)
    done
  end

(* Stage the new version while the old one keeps running, then swap.
   The new task must not be scheduled before the swap, so it is loaded
   blocking and suspended at once (the caller may equally submit + poll,
   as the cruise-control flow does).

   With [expected], the measured-activation gate runs between the two:
   the RTM's measurement of the bytes actually sitting in the staging
   region must reproduce that identity.  Checked {e before} the swap, so
   a mismatch — a bit-flip in the buffer, a substituted binary — costs
   nothing but the staging: the new copy is reclaimed and the old
   version never stops running. *)
let activate p ~(old_task : Tcb.t) ~migrate_words ?expected telf =
  match entry_of p old_task with
  | Error e -> Error e
  | Ok old_entry -> (
      let clock = Platform.clock p in
      let kernel = Platform.kernel p in
      let staging_start = Cycles.now clock in
      match
        Platform.load_blocking p ~name:(old_task.Tcb.name ^ "+new")
          ~priority:old_task.Tcb.priority telf
      with
      | Error e -> Error e
      | Ok new_task -> (
          Kernel.suspend_task kernel new_task;
          let staging_cycles = Cycles.now clock - staging_start in
          match entry_of p new_task with
          | Error e ->
              Platform.unload p new_task;
              Error e
          | Ok new_entry -> (
              match expected with
              | Some id when not (Task_id.equal new_entry.Rtm.id id) ->
                  Platform.unload p new_task;
                  Trace.emitf (Platform.trace p) ~source:"update"
                    "%s: staged image measures %s, expected %s — refused"
                    old_task.Tcb.name
                    (Task_id.to_hex new_entry.Rtm.id)
                    (Task_id.to_hex id);
                  Error "staged image does not match the vetted identity"
              | _ ->
                  (* The atomic swap: the availability gap is exactly
                     this window. *)
                  let swap_start = Cycles.now clock in
                  Cycles.charge clock
                    (Cost_model.update_swap_base
                    + (migrate_words * Cost_model.update_migrate_per_word));
                  Kernel.suspend_task kernel old_task;
                  migrate p ~old_entry ~new_entry ~words:migrate_words;
                  Kernel.resume_task kernel new_task;
                  let downtime_cycles = Cycles.now clock - swap_start in
                  Platform.unload p old_task;
                  Trace.emitf (Platform.trace p) ~source:"update"
                    "%s: %s -> %s%s (downtime %d cycles)" old_task.Tcb.name
                    (Task_id.to_hex old_entry.Rtm.id)
                    (Task_id.to_hex new_entry.Rtm.id)
                    (if Option.is_none expected then "" else " vetted+measured")
                    downtime_cycles;
                  Ok
                    {
                      task = new_task;
                      old_id = old_entry.Rtm.id;
                      new_id = new_entry.Rtm.id;
                      downtime_cycles;
                      staging_cycles;
                    })))

let update_task p ~old_task ?(migrate_words = 0) telf =
  activate p ~old_task ~migrate_words telf

(* The measured-activation discipline: vet the binary, pin the identity
   the vetted bytes hash to, and refuse the swap unless the RTM's
   measurement of what was actually staged reproduces that identity.
   Anything that changes the image between vet and activation — a
   bit-flip in the staging buffer, a substituted binary, an offer whose
   authenticated identity names different bytes — surfaces as a
   mismatch, the staged copy is reclaimed, and the old version keeps
   running.  An unmeasured image is never activated. *)
let apply p ~old_task ?(migrate_words = 0) ?expected telf =
  let rep = Tycheck.check ~config:Tycheck.flow_config telf in
  Cycles.charge (Platform.clock p)
    (Cost_model.vet_cycles ~flow:true ~slots:(telf.Telf.text_size / Isa.width));
  match Tycheck.strict_refusal rep with
  | Some reason -> Error ("vet refused: " ^ reason)
  | None ->
      let expected =
        match expected with
        | Some id -> id
        | None -> Rtm.identity_of_telf telf
      in
      activate p ~old_task ~migrate_words ~expected telf

let stop_and_reload p ~(old_task : Tcb.t) telf =
  match entry_of p old_task with
  | Error e -> Error e
  | Ok old_entry -> (
      let clock = Platform.clock p in
      let gap_start = Cycles.now clock in
      Platform.unload p old_task;
      match
        Platform.load_blocking p ~name:old_task.Tcb.name
          ~priority:old_task.Tcb.priority telf
      with
      | Error e -> Error e
      | Ok new_task -> (
          match entry_of p new_task with
          | Error e -> Error e
          | Ok new_entry ->
              let downtime_cycles = Cycles.now clock - gap_start in
              Ok
                {
                  task = new_task;
                  old_id = old_entry.Rtm.id;
                  new_id = new_entry.Rtm.id;
                  downtime_cycles;
                  staging_cycles = downtime_cycles;
                }))
