(* The fleet flight recorder: chain integrity (hash chain + seeded
   tamper detection), causal trails, SLO windows, Perfetto flow
   derivation, and the recorder's integration with the gateway,
   rollout and swarm engines — including the zero-cost contract (an
   observed run is bit-identical to an unobserved one). *)

module Obs = Tytan_obs.Obs
module Gateway = Tytan_serve.Gateway
module Rollout = Tytan_ota.Rollout
module Swarm = Tytan_provision.Swarm
module Registry = Tytan_provision.Registry
module Tasks = Tytan_tasks.Task_lib

let to_alcotest = QCheck_alcotest.to_alcotest

(* --- helpers --------------------------------------------------------------- *)

let sample_log ?(n = 10) () =
  let log = Obs.Log.create () in
  ignore (Obs.Log.mint log "epoch-0");
  for i = 0 to n - 1 do
    let corr = Printf.sprintf "dev-%02d/s" i in
    ignore (Obs.Log.mint log ~parent:"epoch-0" corr);
    Obs.Log.record log ~corr ~at:i
      (Obs.Event.Session_admitted
         { serial = Printf.sprintf "dev-%02d" i; kind = "static" });
    Obs.Log.record log ~corr ~at:(i + 1)
      (Obs.Event.Session_settled
         {
           serial = Printf.sprintf "dev-%02d" i;
           verdict = "attested";
           latency = 1;
         })
  done;
  log

let run_gateway ?obs () =
  Gateway.run ~devices:16 ~slices:96 ~arrival_permille:3000 ~seed:7
    ~faults:true ~loss_percent:10 ?obs ()

let run_rollout ?obs () =
  let master = Bytes.of_string "obs-test-master" in
  let registry = Registry.create ~master in
  Rollout.run ~devices:12 ~canary:3 ~seed:5 ~faults:false ~loss_percent:10
    ?obs
    ~platform_key_of:(fun ~serial -> Registry.platform_key registry ~serial)
    ~incumbent:(Tasks.counter ())
    [
      { Rollout.label = "clean-1"; version = 1; image = Tasks.yielder ~count:3 () };
      { Rollout.label = "stale"; version = 1; image = Tasks.yielder ~count:4 () };
    ]

let run_swarm ?obs () =
  Swarm.run ~mode:Swarm.Incremental ~devices:12 ~epochs:2 ~seed:3 ~faults:true
    ~loss_percent:10 ?obs ()

(* --- chain ----------------------------------------------------------------- *)

let test_chain_roundtrip () =
  let log = sample_log () in
  let trail = Obs.Log.export log in
  match Obs.Log.verify_chain ~expected_head:(Obs.Log.head_hex log) trail with
  | Ok s ->
      Alcotest.(check int) "records" (Obs.Log.length log) s.Obs.Log.total;
      Alcotest.(check string) "head" (Obs.Log.head_hex log) s.Obs.Log.head
  | Error e -> Alcotest.failf "clean trail rejected: %s" e

let test_chain_detects_tampers () =
  let log = sample_log () in
  let trail = Obs.Log.export log in
  List.iter
    (fun (name, kind) ->
      match Obs.Log.verify_chain (Obs.Log.tamper kind trail) with
      | Ok _ -> Alcotest.failf "%s not detected" name
      | Error _ -> ())
    [
      ("truncate", Obs.Log.Truncate);
      ("splice", Obs.Log.Splice);
      ("bitflip-17", Obs.Log.Bit_flip 17);
    ]

let test_expected_head_pin () =
  let log = sample_log () in
  let trail = Obs.Log.export log in
  (match Obs.Log.verify_chain ~expected_head:(String.make 64 '0') trail with
  | Ok _ -> Alcotest.fail "wrong pin accepted"
  | Error _ -> ());
  match Obs.Log.verify_chain trail with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "unpinned verify failed: %s" e

let test_garbage_rejected () =
  List.iter
    (fun b ->
      match Obs.Log.verify_chain b with
      | Ok _ -> Alcotest.fail "garbage verified"
      | Error _ -> ())
    [
      Bytes.empty;
      Bytes.of_string "TYOB2";
      Bytes.of_string "not a trail at all";
      Bytes.make 64 '\xff';
    ]

(* A trail under an older tag has another layout: the magic check must
   refuse it before any of it is parsed. *)
let test_old_tag_refused () =
  let trail = Obs.Log.export (sample_log ()) in
  Bytes.blit_string "TYOB1" 0 trail 0 5;
  match Obs.Log.verify_chain trail with
  | Ok _ -> Alcotest.fail "TYOB1 trail verified"
  | Error e ->
      Alcotest.(check string) "refused by the magic check"
        "bad magic: not an obs trail" e

let test_mint_idempotent () =
  let log = Obs.Log.create () in
  ignore (Obs.Log.mint log ~parent:"a" "x");
  ignore (Obs.Log.mint log ~parent:"b" "x");
  Alcotest.(check (option string)) "first parent wins" (Some "a")
    (Obs.Log.parent_of log "x")

(* --- qcheck properties ----------------------------------------------------- *)

let log_sizes = QCheck.Gen.oneofl [ 0; 1; 3; 4; 5; 8; 13 ]

let chain_props =
  [
    QCheck.Test.make ~name:"verify_chain never raises on mutated bytes"
      ~count:300
      QCheck.(
        pair (make log_sizes)
          (pair small_nat (make QCheck.Gen.(int_bound 255))))
      (fun (n, (pos, byte)) ->
        let trail = Obs.Log.export (sample_log ~n ()) in
        let mutated = Bytes.copy trail in
        if Bytes.length mutated > 0 then
          Bytes.set mutated
            (pos mod Bytes.length mutated)
            (Char.chr byte);
        (* Any result is fine; raising is the only failure. *)
        match Obs.Log.verify_chain mutated with Ok _ | Error _ -> true);
    QCheck.Test.make ~name:"single-record truncation always detected" ~count:50
      QCheck.(make log_sizes)
      (fun n ->
        QCheck.assume (n > 0);
        let trail = Obs.Log.export (sample_log ~n ()) in
        match Obs.Log.verify_chain (Obs.Log.tamper Obs.Log.Truncate trail) with
        | Ok _ -> false
        | Error _ -> true);
    QCheck.Test.make ~name:"adjacent-record splice always detected" ~count:50
      QCheck.(make log_sizes)
      (fun n ->
        QCheck.assume (n > 1);
        let trail = Obs.Log.export (sample_log ~n ()) in
        match Obs.Log.verify_chain (Obs.Log.tamper Obs.Log.Splice trail) with
        | Ok _ -> false
        | Error _ -> true);
    QCheck.Test.make ~name:"record-region bit flip always detected" ~count:100
      QCheck.(pair (make log_sizes) small_nat)
      (fun (n, bit) ->
        QCheck.assume (n > 0);
        let trail = Obs.Log.export (sample_log ~n ()) in
        match
          Obs.Log.verify_chain (Obs.Log.tamper (Obs.Log.Bit_flip bit) trail)
        with
        | Ok _ -> false
        | Error _ -> true);
    QCheck.Test.make ~name:"bit flip is caught by the chain, not the decoder"
      ~count:300
      QCheck.(pair (make log_sizes) int)
      (fun (n, bit) ->
        QCheck.assume (n > 0);
        let trail = Obs.Log.export (sample_log ~n ()) in
        match
          Obs.Log.verify_chain (Obs.Log.tamper (Obs.Log.Bit_flip bit) trail)
        with
        | Error "sequence numbering broken (splice?)"
        | Error "chain head mismatch: a record was altered or reordered" ->
            true
        | Ok _ | Error _ -> false);
  ]

(* --- trails ---------------------------------------------------------------- *)

let test_trail_members () =
  let log = sample_log ~n:3 () in
  Alcotest.(check (list string))
    "epoch family"
    [ "epoch-0"; "dev-00/s"; "dev-01/s"; "dev-02/s" ]
    (Obs.Trail.members log ~corr:"epoch-0");
  Alcotest.(check (list string))
    "session family is ancestors + self"
    [ "epoch-0"; "dev-01/s" ]
    (Obs.Trail.members log ~corr:"dev-01/s")

let test_trail_trace_in_log_order () =
  let log = sample_log ~n:4 () in
  let recs = Obs.Trail.trace log ~corr:"epoch-0" in
  Alcotest.(check int) "all records traced" (Obs.Log.length log)
    (List.length recs);
  let seqs = List.map (fun r -> r.Obs.seq) recs in
  Alcotest.(check (list int)) "log order" (List.sort compare seqs) seqs

(* --- SLO ------------------------------------------------------------------- *)

let test_slo_breach () =
  let log = Obs.Log.create () in
  (* 4 arrivals in window 0, 3 shed: 750 permille > the 500 default. *)
  Obs.Log.record log ~corr:"e" ~at:0
    (Obs.Event.Session_admitted { serial = "dev-0"; kind = "static" });
  for i = 1 to 3 do
    Obs.Log.record log ~corr:"e" ~at:i
      (Obs.Event.Session_shed
         { serial = Printf.sprintf "dev-%d" i; reason = "busy" })
  done;
  let before = Obs.Log.length log in
  let indicators = Obs.Slo.scan log in
  let breached = List.filter (fun i -> i.Obs.Slo.breached) indicators in
  Alcotest.(check bool) "shed-rate breached" true
    (List.exists (fun i -> i.Obs.Slo.name = "shed-rate") breached);
  Alcotest.(check int) "one breach record per breach"
    (before + List.length breached)
    (Obs.Log.length log)

let test_slo_quiet_run_clean () =
  let log = sample_log ~n:5 () in
  let indicators = Obs.Slo.evaluate log in
  Alcotest.(check bool) "no breach on a healthy log" false
    (List.exists (fun i -> i.Obs.Slo.breached) indicators)

(* --- Perfetto flows -------------------------------------------------------- *)

let test_flows_follow_parent_edges () =
  let log = sample_log ~n:3 () in
  (* epoch-0 itself never records, so edges only exist where both ends
     have events — none here. *)
  Alcotest.(check int) "no flow without parent events" 0
    (List.length (Obs.flows_of_log log));
  Obs.Log.record log ~corr:"epoch-0" ~at:0 (Obs.Event.Epoch_opened { epoch = 0 });
  let flows = Obs.flows_of_log log in
  Alcotest.(check int) "one arrow per child" 3 (List.length flows);
  List.iter
    (fun (f : Tytan_telemetry.Export.flow) ->
      Alcotest.(check bool) "arrow points forward in time" true
        (f.Tytan_telemetry.Export.src_ts <= f.Tytan_telemetry.Export.dst_ts))
    flows;
  Alcotest.(check int) "one mark per record" (Obs.Log.length log)
    (List.length (Obs.marks_of_log log))

(* --- engine integration ----------------------------------------------------- *)

let test_gateway_observation_zero_cost () =
  let log = Obs.Log.create () in
  let observed = run_gateway ~obs:log () in
  let unobserved = run_gateway () in
  Alcotest.(check bool) "reports bit-identical" true
    (Gateway.equal observed unobserved);
  Alcotest.(check bool) "events recorded" true (Obs.Log.length log > 0)

let test_gateway_events_match_report () =
  let log = Obs.Log.create () in
  let report = run_gateway ~obs:log () in
  let count p = List.length (List.filter p (Obs.Log.records log)) in
  let admitted =
    count (fun r ->
        match r.Obs.event with Obs.Event.Session_admitted _ -> true | _ -> false)
  in
  let settled =
    count (fun r ->
        match r.Obs.event with Obs.Event.Session_settled _ -> true | _ -> false)
  in
  let shed =
    count (fun r ->
        match r.Obs.event with Obs.Event.Session_shed _ -> true | _ -> false)
  in
  Alcotest.(check int) "admitted" report.Gateway.admitted admitted;
  Alcotest.(check int) "settled" (Gateway.settled report) settled;
  Alcotest.(check int) "shed" (Gateway.shed report) shed;
  (* Every session id parents back to a serve epoch. *)
  List.iter
    (fun r ->
      match r.Obs.event with
      | Obs.Event.Session_admitted _ -> (
          match Obs.Log.parent_of log r.Obs.corr with
          | Some p ->
              Alcotest.(check bool) "parented to an epoch" true
                (String.length p >= 12 && String.sub p 0 12 = "serve/epoch-")
          | None -> Alcotest.failf "session %s has no parent" r.Obs.corr)
      | _ -> ())
    (Obs.Log.records log)

let test_rollout_observation_zero_cost () =
  let log = Obs.Log.create () in
  let observed = run_rollout ~obs:log () in
  let unobserved = run_rollout () in
  Alcotest.(check bool) "reports bit-identical" true
    (Rollout.equal observed unobserved);
  let count p = List.length (List.filter p (Obs.Log.records log)) in
  let applied =
    count (fun r ->
        match r.Obs.event with Obs.Event.Swap_applied _ -> true | _ -> false)
  in
  let report_applied =
    List.fold_left (fun n w -> n + w.Rollout.applied) 0 observed.Rollout.waves
  in
  Alcotest.(check int) "swap-applied events match report" report_applied
    applied;
  let quarantines =
    count (fun r ->
        match r.Obs.event with Obs.Event.Quarantined _ -> true | _ -> false)
  in
  Alcotest.(check int) "quarantine events match report"
    (List.length observed.Rollout.quarantined)
    quarantines

let test_swarm_observation_zero_cost () =
  let log = Obs.Log.create () in
  let observed = run_swarm ~obs:log () in
  let unobserved = run_swarm () in
  Alcotest.(check bool) "reports bit-identical" true
    (Swarm.equal observed unobserved);
  let count p = List.length (List.filter p (Obs.Log.records log)) in
  Alcotest.(check int) "one verdict per device per epoch"
    (observed.Swarm.devices * observed.Swarm.epochs)
    (count (fun r ->
         match r.Obs.event with
         | Obs.Event.Verdict_settled _ -> true
         | _ -> false));
  Alcotest.(check bool) "merkle epochs sealed" true
    (count (fun r ->
         match r.Obs.event with Obs.Event.Epoch_sealed _ -> true | _ -> false)
    > 0)

let test_shared_log_deterministic () =
  let run () =
    let log = Obs.Log.create () in
    ignore (run_gateway ~obs:log ());
    ignore (run_rollout ~obs:log ());
    ignore (run_swarm ~obs:log ());
    ignore (Obs.Slo.scan log);
    (Obs.Log.export log, Obs.to_json log)
  in
  let t1, j1 = run () in
  let t2, j2 = run () in
  Alcotest.(check bool) "exported trails byte-identical" true
    (Bytes.equal t1 t2);
  Alcotest.(check string) "audit json byte-identical" j1 j2

let test_rollout_telemetry_snapshot () =
  let r = run_rollout () in
  let get k = List.assoc_opt ("ota." ^ k) r.Rollout.telemetry in
  let applied =
    List.fold_left (fun n w -> n + w.Rollout.applied) 0 r.Rollout.waves
  in
  Alcotest.(check (option int)) "applied tally" (Some applied) (get "applied");
  Alcotest.(check (option int)) "gate outcomes" (Some 1) (get "waves_promoted");
  Alcotest.(check (option int)) "abort tally" (Some 1) (get "waves_aborted")

(* --- run ------------------------------------------------------------------- *)

let () =
  Alcotest.run "obs"
    [
      ( "chain",
        [
          Alcotest.test_case "export/verify round trip" `Quick
            test_chain_roundtrip;
          Alcotest.test_case "tampers detected" `Quick
            test_chain_detects_tampers;
          Alcotest.test_case "expected-head pin" `Quick test_expected_head_pin;
          Alcotest.test_case "garbage rejected" `Quick test_garbage_rejected;
          Alcotest.test_case "old trail tag refused" `Quick test_old_tag_refused;
          Alcotest.test_case "mint is idempotent" `Quick test_mint_idempotent;
        ] );
      ("chain-properties", List.map to_alcotest chain_props);
      ( "trail",
        [
          Alcotest.test_case "members" `Quick test_trail_members;
          Alcotest.test_case "trace in log order" `Quick
            test_trail_trace_in_log_order;
        ] );
      ( "slo",
        [
          Alcotest.test_case "shed-rate breach recorded" `Quick
            test_slo_breach;
          Alcotest.test_case "healthy log stays clean" `Quick
            test_slo_quiet_run_clean;
        ] );
      ( "perfetto",
        [
          Alcotest.test_case "flow arrows per causal edge" `Quick
            test_flows_follow_parent_edges;
        ] );
      ( "engines",
        [
          Alcotest.test_case "gateway: observation is zero-cost" `Quick
            test_gateway_observation_zero_cost;
          Alcotest.test_case "gateway: events match report" `Quick
            test_gateway_events_match_report;
          Alcotest.test_case "rollout: observation is zero-cost" `Quick
            test_rollout_observation_zero_cost;
          Alcotest.test_case "swarm: observation is zero-cost" `Quick
            test_swarm_observation_zero_cost;
          Alcotest.test_case "shared log is deterministic" `Quick
            test_shared_log_deterministic;
          Alcotest.test_case "rollout telemetry snapshot" `Quick
            test_rollout_telemetry_snapshot;
        ] );
    ]
