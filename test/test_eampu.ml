(* EA-MPU semantics: regions, permissions, slot management, overlap
   policy, execution-aware checks and entry-point enforcement, and a
   differential test of the compiled rule table against a slot scan. *)

open Tytan_machine
open Tytan_eampu

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let region base size = Region.make ~base ~size

let denied f =
  try
    f ();
    false
  with Access.Violation _ -> true

let region_tests =
  [
    Alcotest.test_case "contains boundaries" `Quick (fun () ->
        let r = region 100 10 in
        check_bool "first" true (Region.contains r 100);
        check_bool "last" true (Region.contains r 109);
        check_bool "past end" false (Region.contains r 110);
        check_bool "before" false (Region.contains r 99));
    Alcotest.test_case "contains_range" `Quick (fun () ->
        let r = region 100 10 in
        check_bool "whole" true (Region.contains_range r 100 10);
        check_bool "straddles end" false (Region.contains_range r 105 10);
        check_bool "empty range" false (Region.contains_range r 100 0));
    Alcotest.test_case "overlaps_range partial" `Quick (fun () ->
        let r = region 100 10 in
        check_bool "straddles start" true (Region.overlaps_range r 95 10);
        check_bool "disjoint" false (Region.overlaps_range r 110 10));
    Alcotest.test_case "region overlap symmetry" `Quick (fun () ->
        let a = region 100 10 and b = region 105 10 and c = region 110 10 in
        check_bool "a~b" true (Region.overlaps a b && Region.overlaps b a);
        check_bool "a!~c" false (Region.overlaps a c));
    Alcotest.test_case "invalid region rejected" `Quick (fun () ->
        check_bool "zero size" true
          (try
             ignore (region 0 0);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "perm allows" `Quick (fun () ->
        check_bool "r allows read" true (Perm.allows Perm.r Access.Read);
        check_bool "r denies write" false (Perm.allows Perm.r Access.Write);
        check_bool "rw allows write" true (Perm.allows Perm.rw Access.Write);
        check_bool "perm never allows execute" false
          (Perm.allows Perm.rw Access.Execute));
  ]

let slot_tests =
  [
    Alcotest.test_case "default slot count is 18" `Quick (fun () ->
        check_int "slots" 18 (Eampu.slot_count (Eampu.create ())));
    Alcotest.test_case "first_free_slot scans in order" `Quick (fun () ->
        let e = Eampu.create ~slots:4 () in
        Eampu.set_slot e 0 (Some (Exec { region = region 0x100 16; entry = None }));
        Eampu.set_slot e 1 (Some (Exec { region = region 0x200 16; entry = None }));
        check_bool "slot 2" true (Eampu.first_free_slot e = Some 2));
    Alcotest.test_case "full unit has no free slot" `Quick (fun () ->
        let e = Eampu.create ~slots:2 () in
        for i = 0 to 1 do
          Eampu.set_slot e i
            (Some (Exec { region = region (0x100 * (i + 1)) 16; entry = None }))
        done;
        check_bool "none" true (Eampu.first_free_slot e = None));
    Alcotest.test_case "clear frees the slot" `Quick (fun () ->
        let e = Eampu.create ~slots:2 () in
        Eampu.set_slot e 0 (Some (Exec { region = region 0x100 16; entry = None }));
        Eampu.clear_slot e 0;
        check_int "used" 0 (Eampu.used_slots e));
    Alcotest.test_case "exec regions must not overlap" `Quick (fun () ->
        let e = Eampu.create () in
        Eampu.set_slot e 0 (Some (Exec { region = region 0x100 0x100; entry = None }));
        let conflicting = Eampu.Exec { region = region 0x180 0x100; entry = None } in
        check_int "one conflict" 1 (List.length (Eampu.conflicts e conflicting));
        let disjoint = Eampu.Exec { region = region 0x300 0x100; entry = None } in
        check_int "no conflict" 0 (List.length (Eampu.conflicts e disjoint)));
    Alcotest.test_case "grants never conflict" `Quick (fun () ->
        let e = Eampu.create () in
        let code = region 0x100 0x100 in
        Eampu.set_slot e 0 (Some (Exec { region = code; entry = None }));
        Eampu.set_slot e 1
          (Some (Grant { code; data = region 0x400 0x100; perm = Perm.rw }));
        let another =
          Eampu.Grant { code = region 0x800 16; data = region 0x400 0x100; perm = Perm.r }
        in
        check_int "no conflict" 0 (List.length (Eampu.conflicts e another)));
    Alcotest.test_case "bad slot index rejected" `Quick (fun () ->
        let e = Eampu.create ~slots:2 () in
        check_bool "raises" true
          (try
             ignore (Eampu.slot e 5);
             false
           with Invalid_argument _ -> true));
  ]

(* A configured unit for check tests:
   - task A: code at 0x1000 (entry 0x1000), data at 0x2000
   - task B: code at 0x3000 (entry 0x3000), data at 0x4000
   - OS: code at 0x5000 with a grant over task A's data only. *)
let configured () =
  let e = Eampu.create () in
  let a_code = region 0x1000 0x100 in
  let a_data = region 0x2000 0x100 in
  let b_code = region 0x3000 0x100 in
  let b_data = region 0x4000 0x100 in
  let os_code = region 0x5000 0x100 in
  Eampu.set_slot e 0 (Some (Exec { region = a_code; entry = Some 0x1000 }));
  Eampu.set_slot e 1 (Some (Grant { code = a_code; data = a_data; perm = Perm.rw }));
  Eampu.set_slot e 2 (Some (Exec { region = b_code; entry = Some 0x3000 }));
  Eampu.set_slot e 3 (Some (Grant { code = b_code; data = b_data; perm = Perm.rw }));
  Eampu.set_slot e 4 (Some (Exec { region = os_code; entry = None }));
  Eampu.set_slot e 5 (Some (Grant { code = os_code; data = a_data; perm = Perm.r }));
  Eampu.enable e;
  e

let check_tests =
  [
    Alcotest.test_case "disabled unit allows everything" `Quick (fun () ->
        let e = Eampu.create () in
        Eampu.check e ~eip:0 ~addr:0x9999 ~size:4 ~kind:Access.Write);
    Alcotest.test_case "task reads own data" `Quick (fun () ->
        let e = configured () in
        Eampu.check e ~eip:0x1010 ~addr:0x2010 ~size:4 ~kind:Access.Read);
    Alcotest.test_case "task writes own data" `Quick (fun () ->
        let e = configured () in
        Eampu.check e ~eip:0x1010 ~addr:0x2010 ~size:4 ~kind:Access.Write);
    Alcotest.test_case "task cannot touch another task's data" `Quick
      (fun () ->
        let e = configured () in
        check_bool "read denied" true
          (denied (fun () ->
               Eampu.check e ~eip:0x1010 ~addr:0x4010 ~size:4 ~kind:Access.Read));
        check_bool "write denied" true
          (denied (fun () ->
               Eampu.check e ~eip:0x1010 ~addr:0x4010 ~size:4 ~kind:Access.Write)));
    Alcotest.test_case "os grant is read-only" `Quick (fun () ->
        let e = configured () in
        Eampu.check e ~eip:0x5010 ~addr:0x2010 ~size:4 ~kind:Access.Read;
        check_bool "write denied" true
          (denied (fun () ->
               Eampu.check e ~eip:0x5010 ~addr:0x2010 ~size:4 ~kind:Access.Write)));
    Alcotest.test_case "uncovered memory is open" `Quick (fun () ->
        let e = configured () in
        Eampu.check e ~eip:0x1010 ~addr:0x8000 ~size:4 ~kind:Access.Write);
    Alcotest.test_case "execute denied outside any exec region" `Quick
      (fun () ->
        let e = configured () in
        check_bool "stack execution denied" true
          (denied (fun () ->
               Eampu.check e ~eip:0x1010 ~addr:0x2010 ~size:8
                 ~kind:Access.Execute)));
    Alcotest.test_case "internal jumps are free" `Quick (fun () ->
        let e = configured () in
        Eampu.check e ~eip:0x1008 ~addr:0x1080 ~size:8 ~kind:Access.Execute);
    Alcotest.test_case "cross-region entry only at entry point" `Quick
      (fun () ->
        let e = configured () in
        Eampu.check e ~eip:0x5010 ~addr:0x1000 ~size:8 ~kind:Access.Execute;
        check_bool "mid-body entry denied" true
          (denied (fun () ->
               Eampu.check e ~eip:0x5010 ~addr:0x1050 ~size:8
                 ~kind:Access.Execute)));
    Alcotest.test_case "region without entry point is open to entry" `Quick
      (fun () ->
        let e = configured () in
        Eampu.check e ~eip:0x1010 ~addr:0x5040 ~size:8 ~kind:Access.Execute);
    Alcotest.test_case "code regions are not writable by anyone" `Quick
      (fun () ->
        let e = configured () in
        check_bool "self write denied" true
          (denied (fun () ->
               Eampu.check e ~eip:0x1010 ~addr:0x1050 ~size:4 ~kind:Access.Write));
        check_bool "foreign write denied" true
          (denied (fun () ->
               Eampu.check e ~eip:0x5010 ~addr:0x1050 ~size:4 ~kind:Access.Write)));
    Alcotest.test_case "code readable only by itself" `Quick (fun () ->
        let e = configured () in
        Eampu.check e ~eip:0x1010 ~addr:0x1050 ~size:4 ~kind:Access.Read;
        check_bool "foreign read denied" true
          (denied (fun () ->
               Eampu.check e ~eip:0x5010 ~addr:0x1050 ~size:4 ~kind:Access.Read)));
    Alcotest.test_case "access straddling a protected boundary denied" `Quick
      (fun () ->
        let e = configured () in
        (* 4-byte write starting 2 bytes before task A's data region ends
           inside it; the grant requires full containment. *)
        check_bool "straddle denied" true
          (denied (fun () ->
               Eampu.check e ~eip:0x1010 ~addr:0x1FFE ~size:4 ~kind:Access.Write)));
  ]

(* --- the slot-scan oracle ------------------------------------------------ *)

(* The check as it stood before the compiled rule table: a scan of the
   rule slots through [iter_slots].  [Eampu.check] must allow and deny
   exactly the same accesses, with identical violation records. *)
module Oracle = struct
  let exec_rule_covering t addr =
    let found = ref None in
    Eampu.iter_slots t (fun _ rule ->
        match rule with
        | Eampu.Exec { region; entry }
          when Region.contains region addr && !found = None ->
            found := Some (region, entry)
        | Eampu.Exec _ | Eampu.Grant _ -> ());
    !found

  let check_execute t ~eip ~addr ~size =
    match exec_rule_covering t addr with
    | None ->
        Access.violation ~eip ~addr ~size ~kind:Access.Execute
          "no executable region covers this address"
    | Some (region, entry) -> (
        if Region.contains region eip then
          (* Sequential flow or internal jump within the same region. *)
          ()
        else
          match entry with
          | None -> ()
          | Some entry ->
              if not (Word.equal addr entry) then
                Access.violation ~eip ~addr ~size ~kind:Access.Execute
                  (Format.asprintf
                     "region %a may only be entered at its entry point %a"
                     Region.pp region Word.pp entry))

  let check_data t ~eip ~addr ~size ~kind =
    let protected_ = ref false in
    let granted = ref false in
    Eampu.iter_slots t (fun _ rule ->
        match rule with
        | Eampu.Grant g when Region.overlaps_range g.data addr size ->
            protected_ := true;
            if
              Region.contains g.code eip
              && Region.contains_range g.data addr size
              && Perm.allows g.perm kind
            then granted := true
        | Eampu.Grant _ -> ()
        | Eampu.Exec e when Region.overlaps_range e.region addr size ->
            (* Code regions are never writable and only readable by
               themselves (the RTM gets an explicit Grant when measuring). *)
            protected_ := true;
            if kind = Access.Read && Region.contains e.region eip then
              granted := true
        | Eampu.Exec _ -> ());
    if !protected_ && not !granted then
      Access.violation ~eip ~addr ~size ~kind "no EA-MPU rule grants this access"

  let check t ~eip ~addr ~size ~kind =
    if Eampu.enabled t then
      match kind with
      | Access.Execute -> check_execute t ~eip ~addr ~size
      | Access.Read | Access.Write -> check_data t ~eip ~addr ~size ~kind
end

(* --- differential property ----------------------------------------------- *)

type step =
  | Write of int * Eampu.rule option  (** raw [set_slot]; [None] clears *)
  | Access of {
      eip : Word.t;
      addr : Word.t;
      size : int;
      kind : Access.kind;
    }

(* Addresses cluster in three windows — the bottom of the address space,
   the top, and a small middle window — so regions overlap each other
   often and accesses land on their edges. *)
let addr_gen =
  QCheck.Gen.(
    oneof
      [
        int_range 0 0x60;
        int_range (Word.max_value - 0x60) Word.max_value;
        int_range 0x1000 0x1080;
      ])

let region_gen =
  QCheck.Gen.(
    map2
      (fun base size ->
        Region.make ~base ~size:(min size (Word.max_value - base + 1)))
      addr_gen (int_range 1 0x40))

let perm_gen = QCheck.Gen.oneofl [ Perm.r; Perm.w; Perm.rw; Perm.none ]

let rule_gen =
  QCheck.Gen.(
    frequency
      [
        ( 1,
          map2
            (fun region entry ->
              (* Half the entry points lie inside their region. *)
              let entry =
                Option.map
                  (fun (inside, a) ->
                    if inside then
                      Region.base region + (a mod Region.size region)
                    else a)
                  entry
              in
              Eampu.Exec { region; entry })
            region_gen
            (opt (pair bool addr_gen)) );
        ( 1,
          map3
            (fun code data perm -> Eampu.Grant { code; data; perm })
            region_gen region_gen perm_gen );
      ])

let step_gen ~slots =
  QCheck.Gen.(
    frequency
      [
        ( 2,
          map2
            (fun i r -> Write (i, r))
            (int_bound (slots - 1))
            (opt ~ratio:0.85 rule_gen) );
        ( 5,
          map4
            (fun eip addr size kind -> Access { eip; addr; size; kind })
            addr_gen addr_gen (int_range 0 16)
            (oneofl [ Access.Read; Access.Write; Access.Execute ]) );
      ])

let pp_step = function
  | Write (i, None) -> Printf.sprintf "clear %d" i
  | Write (i, Some (Eampu.Exec { region; entry })) ->
      Format.asprintf "set %d exec %a%s" i Region.pp region
        (match entry with None -> "" | Some e -> Printf.sprintf " entry=0x%X" e)
  | Write (i, Some (Eampu.Grant { code; data; perm })) ->
      Format.asprintf "set %d %a by %a on %a" i Perm.pp perm Region.pp code
        Region.pp data
  | Access { eip; addr; size; kind } ->
      Format.asprintf "%a eip=0x%X addr=0x%X size=%d" Access.pp_kind kind eip
        addr size

let outcome check =
  match check () with
  | () -> Ok ()
  | exception Access.Violation v -> Error v

let pp_outcome = function
  | Ok () -> "allowed"
  | Error v -> Format.asprintf "%a" Access.pp_violation v

let differential_props =
  let slots = 6 in
  [
    QCheck.Test.make ~name:"compiled table agrees with the slot scan"
      ~count:1000
      (QCheck.make
         ~print:(fun steps -> String.concat "\n" (List.map pp_step steps))
         QCheck.Gen.(list_size (int_range 1 60) (step_gen ~slots)))
      (fun steps ->
        let e = Eampu.create ~slots () in
        Eampu.enable e;
        List.for_all
          (function
            | Write (i, rule) ->
                Eampu.set_slot e i rule;
                true
            | Access { eip; addr; size; kind } ->
                let got =
                  outcome (fun () -> Eampu.check e ~eip ~addr ~size ~kind)
                in
                let want =
                  outcome (fun () -> Oracle.check e ~eip ~addr ~size ~kind)
                in
                got = want
                || QCheck.Test.fail_reportf "compiled: %s@.slot scan: %s"
                     (pp_outcome got) (pp_outcome want))
          steps);
  ]

(* Overlapping executable regions can only be installed by raw slot
   writes; the first in slot order decides, as in the slot scan. *)
let oracle_tests =
  [
    Alcotest.test_case "overlapping exec regions: first slot decides" `Quick
      (fun () ->
        let e = Eampu.create ~slots:4 () in
        Eampu.set_slot e 1
          (Some (Exec { region = region 0x1000 0x100; entry = Some 0x1000 }));
        Eampu.set_slot e 2
          (Some (Exec { region = region 0x1080 0x100; entry = None }));
        Eampu.enable e;
        let both ~eip ~addr =
          ( outcome (fun () ->
                Eampu.check e ~eip ~addr ~size:8 ~kind:Access.Execute),
            outcome (fun () ->
                Oracle.check e ~eip ~addr ~size:8 ~kind:Access.Execute) )
        in
        let got, want = both ~eip:0x5000 ~addr:0x1090 in
        check_bool "denied by slot 1's entry point" true (Result.is_error got);
        check_bool "same record" true (got = want);
        let got, want = both ~eip:0x5000 ~addr:0x1100 in
        check_bool "slot 2 alone is open" true (got = Ok ());
        check_bool "same outcome" true (got = want);
        Eampu.clear_slot e 1;
        let got, want = both ~eip:0x5000 ~addr:0x1090 in
        check_bool "after clearing slot 1, slot 2 decides" true (got = Ok ());
        check_bool "same outcome" true (got = want));
    Alcotest.test_case "regions at both ends of the address space" `Quick
      (fun () ->
        let e = Eampu.create ~slots:2 () in
        let top = region (Word.max_value - 0xF) 0x10 in
        Eampu.set_slot e 0
          (Some (Grant { code = region 0 0x10; data = top; perm = Perm.rw }));
        Eampu.enable e;
        let agree ~eip ~addr ~size ~kind =
          let got = outcome (fun () -> Eampu.check e ~eip ~addr ~size ~kind) in
          check_bool "agrees with the slot scan" true
            (got = outcome (fun () -> Oracle.check e ~eip ~addr ~size ~kind));
          got
        in
        check_bool "last word writable from address 0" true
          (agree ~eip:0 ~addr:(Word.max_value - 3) ~size:4 ~kind:Access.Write
          = Ok ());
        check_bool "running off the top is denied" true
          (Result.is_error
             (agree ~eip:0 ~addr:(Word.max_value - 1) ~size:4
                ~kind:Access.Write));
        check_bool "foreign code denied" true
          (Result.is_error
             (agree ~eip:0x10 ~addr:(Word.max_value - 3) ~size:4
                ~kind:Access.Read));
        check_bool "empty access is open" true
          (agree ~eip:0x10 ~addr:Word.max_value ~size:0 ~kind:Access.Read
          = Ok ()));
  ]

(* --- reconfiguration through the driver ---------------------------------- *)

(* A grant removed by the driver must stop governing the very next
   instruction: a stale rule table must never grant. *)
let driver_tests =
  [
    Alcotest.test_case "removed grant denies the next instruction" `Quick
      (fun () ->
        let mem = Memory.create ~size:0x4000 in
        let clock = Cycles.create () in
        let engine = Exception_engine.create mem ~idt_base:0x100 in
        let cpu = Cpu.create mem clock engine in
        let e = Eampu.create () in
        let driver = Tytan_core.Mpu_driver.create e clock ~code_eip:0x3000 in
        let code = region 0x1000 0x100 and data = region 0x2000 0x100 in
        let install rule =
          match Tytan_core.Mpu_driver.install_rule driver rule with
          | Ok slot -> slot
          | Error msg -> Alcotest.fail msg
        in
        ignore (install (Exec { region = code; entry = None }));
        (* Another principal's grant keeps the data region protected once
           the task's own grant is gone. *)
        ignore
          (install (Grant { code = region 0x3000 0x100; data; perm = Perm.rw }));
        let grant = install (Grant { code; data; perm = Perm.r }) in
        Eampu.enable e;
        Cpu.set_check cpu (fun ~eip ~addr ~size ~kind ->
            Eampu.check e ~eip ~addr ~size ~kind);
        List.iteri
          (fun i instr ->
            Memory.blit_bytes mem (0x1000 + (i * Isa.width)) (Isa.encode instr))
          [ Isa.Movi (1, 0x2010); Isa.Ldw (2, 1, 0); Isa.Ldw (3, 1, 0); Isa.Halt ];
        Memory.write32 mem 0x2010 0xCAFE;
        Regfile.set_eip (Cpu.regs cpu) 0x1000;
        ignore (Cpu.step cpu);
        ignore (Cpu.step cpu);
        check_int "granted load" 0xCAFE (Regfile.get (Cpu.regs cpu) 2);
        Tytan_core.Mpu_driver.remove_slot driver grant;
        match Cpu.step cpu with
        | _ -> Alcotest.fail "load after the grant was removed succeeded"
        | exception Access.Violation v ->
            check_int "denied address" 0x2010 v.addr;
            Alcotest.(check string)
              "reason" "no EA-MPU rule grants this access" v.reason;
            check_int "nothing loaded" 0 (Regfile.get (Cpu.regs cpu) 3));
  ]

let () =
  Alcotest.run "eampu"
    [
      ("region+perm", region_tests);
      ("slots", slot_tests);
      ("checks", check_tests);
      ("scan-oracle", oracle_tests);
      ("driver", driver_tests);
      ("properties", List.map QCheck_alcotest.to_alcotest differential_props);
    ]
