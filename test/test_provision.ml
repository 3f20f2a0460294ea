(* Provisioning and fleet management: key hierarchy, device isolation,
   manifest audits, and compromise detection across a fleet. *)

open Tytan_core
open Tytan_provision
module Tasks = Tytan_tasks.Task_lib

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let master = Bytes.of_string "manufacturer-root-secret"

let registry_tests =
  [
    Alcotest.test_case "keys are deterministic per serial" `Quick (fun () ->
        let r = Registry.create ~master in
        check_bool "stable" true
          (Registry.platform_key r ~serial:"ecu-1"
          = Registry.platform_key r ~serial:"ecu-1"));
    Alcotest.test_case "different serials get different keys" `Quick
      (fun () ->
        let r = Registry.create ~master in
        check_bool "independent" false
          (Registry.platform_key r ~serial:"ecu-1"
          = Registry.platform_key r ~serial:"ecu-2"));
    Alcotest.test_case "different masters give different fleets" `Quick
      (fun () ->
        let r1 = Registry.create ~master in
        let r2 = Registry.create ~master:(Bytes.of_string "other") in
        check_bool "independent" false
          (Registry.platform_key r1 ~serial:"ecu-1"
          = Registry.platform_key r2 ~serial:"ecu-1"));
    Alcotest.test_case "platform keys are 20 bytes (Kp format)" `Quick
      (fun () ->
        let r = Registry.create ~master in
        check_int "size" 20
          (Bytes.length (Registry.platform_key r ~serial:"x")));
    Alcotest.test_case "attestation key matches the device derivation"
      `Quick (fun () ->
        let r = Registry.create ~master in
        let kp = Registry.platform_key r ~serial:"ecu-1" in
        check_bool "same Ka both sides" true
          (Registry.attestation_key r ~serial:"ecu-1"
          = Attestation.derive_ka ~platform_key:kp));
  ]

(* --- the key table against fresh derivations ----------------------------- *)

module Cycles = Tytan_machine.Cycles
module Sha1 = Tytan_crypto.Sha1

let pool = [| "ecu-0"; "ecu-1"; "ecu-2"; "ecu-3" |]

(* The oracle for one serial, derived fresh with [Hmac] and
   [Attestation.derive_ka]: Ka, the cycles each step charges, and the
   SHA-1 compressions a whole derivation performs. *)
type fresh = { ka : bytes; kp_cycles : int; ka_cycles : int; compressions : int }

let fresh serial =
  let kp_clock = Cycles.create () and ka_clock = Cycles.create () in
  let c0 = Sha1.total_compressions () in
  let kp =
    Cost_model.charge_hashing kp_clock (fun () ->
        Tytan_crypto.Hmac.mac_string ~key:master ("device/" ^ serial))
  in
  let ka =
    Cost_model.charge_hashing ka_clock (fun () ->
        Attestation.derive_ka ~platform_key:kp)
  in
  {
    ka;
    kp_cycles = Cycles.now kp_clock;
    ka_cycles = Cycles.now ka_clock;
    compressions = Sha1.total_compressions () - c0;
  }

type key_call = Provision of int | Device of int | Verifier of int

let show_call = function
  | Provision i -> "provision " ^ pool.(i)
  | Device i -> "device " ^ pool.(i)
  | Verifier i -> "verifier " ^ pool.(i)

let calls_arb =
  QCheck.make
    ~print:(fun calls -> String.concat "; " (List.map show_call calls))
    QCheck.Gen.(
      list_size (int_range 1 24)
        (map2
           (fun who i ->
             match who with
             | 0 -> Provision i
             | 1 -> Device i
             | _ -> Verifier i)
           (int_bound 2)
           (int_bound (Array.length pool - 1))))

(* Every device and verifier call returns the oracle's bytes and charges
   the oracle's cycles: the Ka step for a device, both steps for a
   verifier.  A device whose keys were never recorded is refused and
   charged nothing.  The host absorbs the master's key pads once, at
   [create], and hashes the rest of each recorded serial's derivation
   once. *)
let key_table_matches_fresh =
  let oracle = Array.map fresh pool in
  let pads =
    let c0 = Sha1.total_compressions () in
    ignore (Tytan_crypto.Hmac.prepare ~key:master);
    Sha1.total_compressions () - c0
  in
  QCheck.Test.make ~count:300
    ~name:"key table: fresh bytes and charges, one derivation per serial"
    calls_arb (fun calls ->
      let c0 = Sha1.total_compressions () in
      let r = Registry.create ~master in
      let recorded = Array.make (Array.length pool) false in
      let charged f =
        let clock = Cycles.create () in
        let v = Cost_model.charge_hashing clock f in
        (v, Cycles.now clock)
      in
      let call_ok = function
        | Provision i ->
            Registry.provision r ~serial:pool.(i);
            recorded.(i) <- true;
            true
        | Device i when recorded.(i) ->
            let o = oracle.(i) in
            charged (fun () -> Registry.device_key r ~serial:pool.(i))
            = (o.ka, o.ka_cycles)
        | Device i ->
            charged (fun () ->
                match Registry.device_key r ~serial:pool.(i) with
                | _ -> false
                | exception Invalid_argument _ -> true)
            = (true, 0)
        | Verifier i ->
            let o = oracle.(i) in
            recorded.(i) <- true;
            charged (fun () -> Registry.attestation_key r ~serial:pool.(i))
            = (o.ka, o.kp_cycles + o.ka_cycles)
      in
      List.for_all call_ok calls
      && Sha1.total_compressions () - c0
         = Array.fold_left ( + ) pads
             (Array.mapi
                (fun i o -> if recorded.(i) then o.compressions - pads else 0)
                oracle))

let key_table_tests =
  [
    QCheck_alcotest.to_alcotest key_table_matches_fresh;
    Alcotest.test_case "two domains replay onto their own clocks" `Quick
      (fun () ->
        (* Both domains hit one provisioned registry at once, each under
           its own clock: each is charged n fresh derivations, and the
           host hashes nothing. *)
        let r = Registry.create ~master in
        Array.iter (fun serial -> Registry.provision r ~serial) pool;
        let o = fresh pool.(0) in
        let n = 20_000 in
        let ready = Atomic.make 0 in
        let c0 = Sha1.total_compressions () in
        let worker () =
          Atomic.incr ready;
          while Atomic.get ready < 2 do
            Domain.cpu_relax ()
          done;
          let clock = Cycles.create () in
          Cost_model.charge_hashing clock (fun () ->
              for i = 1 to n do
                let serial = pool.(i land 3) in
                ignore (Registry.attestation_key r ~serial);
                ignore (Registry.device_key r ~serial)
              done);
          Cycles.now clock
        in
        let other = Domain.spawn worker in
        let mine = worker () in
        let theirs = Domain.join other in
        let each = n * (o.kp_cycles + (2 * o.ka_cycles)) in
        check_int "this domain's clock" each mine;
        check_int "the other domain's clock" each theirs;
        check_int "no compression performed" 0 (Sha1.total_compressions () - c0));
  ]

let firmware () = Tasks.counter ()

let fleet_tests =
  [
    Alcotest.test_case "device boots with its registry key" `Quick (fun () ->
        let r = Registry.create ~master in
        let d = Fleet.manufacture r ~serial:"ecu-1" () in
        check_bool "key matches" true
          ((Platform.config (Fleet.platform d)).Platform.platform_key
          = Registry.platform_key r ~serial:"ecu-1"));
    Alcotest.test_case "healthy fleet audits clean" `Quick (fun () ->
        let r = Registry.create ~master in
        let fw = firmware () in
        Registry.set_manifest r [ ("control-fw", Rtm.identity_of_telf fw) ];
        let devices =
          List.map
            (fun serial ->
              let d = Fleet.manufacture r ~serial () in
              ignore (Result.get_ok (Fleet.deploy d ~name:"control-fw" fw));
              d)
            [ "ecu-1"; "ecu-2"; "ecu-3" ]
        in
        let reports = Fleet.audit_fleet r devices () in
        check_int "three reports" 3 (List.length reports);
        List.iter
          (fun report -> check_bool report.Fleet.device_serial true (Fleet.healthy report))
          reports);
    Alcotest.test_case "the compromised device is singled out" `Quick
      (fun () ->
        let r = Registry.create ~master in
        let fw = firmware () in
        Registry.set_manifest r [ ("control-fw", Rtm.identity_of_telf fw) ];
        let good = Fleet.manufacture r ~serial:"ecu-good" () in
        ignore (Result.get_ok (Fleet.deploy good ~name:"control-fw" fw));
        let bad = Fleet.manufacture r ~serial:"ecu-bad" () in
        let backdoored =
          let image = Bytes.copy fw.Tytan_telf.Telf.image in
          Bytes.blit (Tytan_machine.Isa.encode Tytan_machine.Isa.Nop) 0 image 200 8;
          { fw with Tytan_telf.Telf.image }
        in
        ignore (Result.get_ok (Fleet.deploy bad ~name:"control-fw" backdoored));
        let reports = Fleet.audit_fleet r [ good; bad ] () in
        (match reports with
        | [ good_report; bad_report ] ->
            check_bool "good healthy" true (Fleet.healthy good_report);
            check_bool "bad flagged" false (Fleet.healthy bad_report);
            check_bool "as compromised" true
              (List.assoc "control-fw" bad_report.Fleet.components
              = Fleet.Compromised_or_missing)
        | _ -> Alcotest.fail "expected two reports"));
    Alcotest.test_case "one device's key cannot audit another" `Quick
      (fun () ->
        (* A verifier holding ecu-1's Ka must reject ecu-2's genuine
           reports: per-device keys isolate the fleet. *)
        let r = Registry.create ~master in
        let fw = firmware () in
        let d2 = Fleet.manufacture r ~serial:"ecu-2" () in
        ignore (Result.get_ok (Fleet.deploy d2 ~name:"fw" fw));
        let wrong_ka = Registry.attestation_key r ~serial:"ecu-1" in
        let v =
          Tytan_netsim.Verifier.create ~ka:wrong_ka
            ~expected:(Rtm.identity_of_telf fw) ~max_attempts:3
            ~timeout_slices:2 ()
        in
        (* drive d2's cosim manually with the wrong-keyed verifier *)
        let cosim =
          Tytan_netsim.Cosim.create (Fleet.platform d2)
            ~link:(Tytan_netsim.Link.create ()) ()
        in
        Tytan_netsim.Cosim.attach_verifier cosim v;
        ignore (Tytan_netsim.Cosim.run_until_settled cosim ~max_slices:100);
        check_bool "rejected" true
          (Tytan_netsim.Verifier.outcome v = Tytan_netsim.Verifier.Gave_up));
    Alcotest.test_case "multi-component manifest reports per component"
      `Quick (fun () ->
        let r = Registry.create ~master in
        let fw_a = Tasks.counter () in
        let fw_b = Tasks.counter ~stack_size:768 () in
        Registry.set_manifest r
          [
            ("engine-fw", Rtm.identity_of_telf fw_a);
            ("brake-fw", Rtm.identity_of_telf fw_b);
          ];
        let d = Fleet.manufacture r ~serial:"ecu-1" () in
        ignore (Result.get_ok (Fleet.deploy d ~name:"engine-fw" fw_a));
        (* brake firmware never installed *)
        let report = Fleet.audit r d () in
        check_bool "engine healthy" true
          (List.assoc "engine-fw" report.Fleet.components = Fleet.Healthy);
        check_bool "brake flagged" true
          (List.assoc "brake-fw" report.Fleet.components
          = Fleet.Compromised_or_missing);
        check_bool "overall unhealthy" false (Fleet.healthy report));
    Alcotest.test_case "audit succeeds across a lossy uplink" `Quick
      (fun () ->
        let r = Registry.create ~master in
        let fw = firmware () in
        Registry.set_manifest r [ ("fw", Rtm.identity_of_telf fw) ];
        let d = Fleet.manufacture r ~serial:"ecu-radio" ~loss_percent:50 ~link_seed:5 () in
        ignore (Result.get_ok (Fleet.deploy d ~name:"fw" fw));
        let report = Fleet.audit r d ~max_attempts:30 () in
        check_bool "healthy despite loss" true (Fleet.healthy report));
  ]

let () =
  Alcotest.run "provision"
    [ ("registry", registry_tests @ key_table_tests); ("fleet", fleet_tests) ]
