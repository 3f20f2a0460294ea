(* Fleet-scale swarm attestation: the differential harness proving the
   incremental (aggregated, cached) verifier verdict-identical to N
   independent scalar sessions (including under injected faults), plus
   unit tests for the aggregator's measurement cache — epoch scoping,
   forgery rejection, Merkle batch membership — and the headline cycle
   ratio. *)

open Tytan_core
open Tytan_netsim
open Tytan_provision
module Crypto = Tytan_crypto
module Cycles = Tytan_machine.Cycles

(* --- Differential: incremental ≡ scalar ------------------------------------ *)

let check_differential ~devices ~epochs ~seed ~faults ~loss =
  let run mode =
    Swarm.run ~mode ~devices ~epochs ~seed ~faults ~loss_percent:loss ()
  in
  let s = run Swarm.Scalar in
  let i = run Swarm.Incremental in
  let ctx = Printf.sprintf "devices=%d seed=%d faults=%b" devices seed faults in
  Alcotest.(check (list string))
    (ctx ^ ": per-device verdicts byte-identical")
    (Swarm.verdicts s) (Swarm.verdicts i);
  List.iter2
    (fun (es : Swarm.epoch_stats) (ei : Swarm.epoch_stats) ->
      Alcotest.(check int)
        (ctx ^ ": health-poll answers identical")
        es.Swarm.healthy_polls ei.Swarm.healthy_polls;
      Alcotest.(check int)
        (ctx ^ ": settle slices identical (same wire schedule)")
        es.Swarm.slices ei.Swarm.slices)
    s.Swarm.per_epoch i.Swarm.per_epoch;
  Alcotest.(check bool)
    (ctx ^ ": survival verdict identical")
    s.Swarm.survived i.Swarm.survived

let differential_tests =
  [
    Alcotest.test_case "clean fleets: random seeds and sizes" `Quick (fun () ->
        List.iter
          (fun (devices, seed) ->
            check_differential ~devices ~epochs:3 ~seed ~faults:false ~loss:10)
          [ (3, 1); (17, 2); (64, 5); (9, 42) ]);
    Alcotest.test_case "faulty fleets: device faults + hostile links" `Quick
      (fun () ->
        List.iter
          (fun (devices, seed) ->
            check_differential ~devices ~epochs:3 ~seed ~faults:true ~loss:15)
          [ (12, 3); (48, 7); (30, 11) ]);
    Alcotest.test_case "faulty campaigns really break devices" `Quick (fun () ->
        (* Guard against the differential passing vacuously: at this size
           the fault schedule must actually tamper or silence someone. *)
        let r =
          Swarm.run ~mode:Swarm.Incremental ~devices:48 ~epochs:3 ~seed:7
            ~faults:true ~loss_percent:15 ()
        in
        Alcotest.(check bool)
          "some device was tampered or silenced" true
          (r.Swarm.tampered + r.Swarm.silenced > 0);
        let non_attested =
          List.fold_left
            (fun n (e : Swarm.epoch_stats) ->
              n + e.Swarm.refused + e.Swarm.gave_up)
            0 r.Swarm.per_epoch
        in
        Alcotest.(check bool) "some verdict is not Attested" true
          (non_attested > 0));
  ]

(* --- Two-mode soak: scalar == incremental ----------------------------------- *)

(* On an identity schedule (no --steady) both engines must agree:
   incremental is checked verdict-by-verdict against scalar, and the
   mode-independent semantic digest must match exactly.  20
   seeds, alternating fault injection and link loss, so the agreement is
   exercised across refusals, kills, hangs and hostile links — not just
   the happy path. *)
let soak_tests =
  [
    Alcotest.test_case "20-seed soak: all modes verdict- and digest-identical"
      `Quick (fun () ->
        List.iter
          (fun seed ->
            let faults = seed land 1 = 1 in
            let loss = if seed mod 3 = 0 then 12 else 0 in
            let run mode =
              Swarm.run ~mode ~devices:14 ~epochs:3 ~seed ~faults
                ~loss_percent:loss ()
            in
            let s = run Swarm.Scalar in
            let i = run Swarm.Incremental in
            let ctx =
              Printf.sprintf "seed=%d faults=%b loss=%d" seed faults loss
            in
            Alcotest.(check (list string))
              (ctx ^ ": scalar/incremental verdicts")
              (Swarm.verdicts s) (Swarm.verdicts i);
            Alcotest.(check string)
              (ctx ^ ": semantic digest scalar/incremental")
              (Swarm.semantic_digest s)
              (Swarm.semantic_digest i);
            Alcotest.(check bool)
              (ctx ^ ": survival verdict")
              s.Swarm.survived i.Swarm.survived)
          (List.init 20 (fun i -> i + 1)));
  ]

(* --- Domain-parallel bit identity ------------------------------------------- *)

(* The report deliberately never mentions the domain count, so
   [Swarm.to_string] equality IS the bit-identity claim: a sharded run
   must render byte-for-byte what the sequential run renders — verdicts,
   roots, cycle totals, telemetry, digest line, everything.  Skipped on
   single-core hosts where spawning domains proves nothing. *)
let parallel_tests =
  let multicore = Domain.recommended_domain_count () > 1 in
  let identical ?(devices = 16) ?(faults = false) ?(steady = false)
      ?(churn_permille = 0) ~mode ~seed () =
    let go domains =
      Swarm.to_string
        (Swarm.run ~mode ~devices ~epochs:3 ~seed ~faults ~domains ~steady
           ~churn_permille ())
    in
    let sequential = go 1 in
    List.iter
      (fun domains ->
        Alcotest.(check string)
          (Printf.sprintf "%s devices=%d seed=%d faults=%b steady=%b: %d domains"
             (Swarm.mode_label mode) devices seed faults steady domains)
          sequential (go domains))
      [ 2; 4 ]
  in
  let guarded f () = if multicore then f () in
  [
    Alcotest.test_case "incremental report bit-identical across 1/2/4 domains"
      `Quick
      (guarded (fun () ->
           List.iter
             (fun (seed, faults) ->
               identical ~mode:Swarm.Incremental ~seed ~faults ())
             [ (2, false); (7, true); (13, false) ]));
    Alcotest.test_case "batched and scalar engines shard identically too"
      `Quick
      (* The aggregated (incremental) engine on two more seeds, and the
         scalar baseline. *)
      (guarded (fun () ->
           identical ~mode:Swarm.Incremental ~seed:3 ();
           identical ~mode:Swarm.Incremental ~seed:7 ~faults:true ();
           identical ~mode:Swarm.Scalar ~seed:3 ()));
    Alcotest.test_case "steady-state churn campaigns shard identically" `Quick
      (guarded (fun () ->
           identical ~mode:Swarm.Incremental ~seed:5 ~steady:true
             ~churn_permille:80 ();
           identical ~mode:Swarm.Incremental ~seed:9 ~faults:true ~steady:true
             ~churn_permille:40 ()));
    Alcotest.test_case "faulted 1024-device campaign shards identically" `Quick
      (guarded (fun () ->
           (* Large enough that hung and killed devices hold every epoch
              open to the give-up cap, so the wake-driven loop really
              jumps between retry slices on every worker — and the jumps
              must agree with the sequential run's, slice for slice. *)
           let r =
             Swarm.run ~mode:Swarm.Incremental ~devices:1024 ~epochs:3 ~seed:4
               ~faults:true ()
           in
           Alcotest.(check bool) "some epoch ran to the give-up cap" true
             (List.exists (fun (e : Swarm.epoch_stats) -> e.Swarm.gave_up > 0)
                r.Swarm.per_epoch);
           identical ~devices:1024 ~mode:Swarm.Incremental ~seed:4 ~faults:true
             ()));
  ]

(* --- Steady state ------------------------------------------------------------ *)

let steady_run ?(devices = 24) ?(epochs = 5) ?(seed = 5) ?(faults = false)
    ?(churn_permille = 50) () =
  Swarm.run ~mode:Swarm.Incremental ~devices ~epochs ~seed ~faults ~steady:true
    ~churn_permille ()

let steady_tests =
  [
    Alcotest.test_case "epoch 0 sweeps everyone, then carries the healthy"
      `Quick (fun () ->
        let r = steady_run () in
        (match r.Swarm.per_epoch with
        | e0 :: rest ->
            Alcotest.(check int) "epoch 0 challenges the whole fleet" 24
              e0.Swarm.challenged;
            Alcotest.(check int) "epoch 0 carries no one" 0 e0.Swarm.carried;
            List.iter
              (fun (e : Swarm.epoch_stats) ->
                Alcotest.(check int)
                  (Printf.sprintf "epoch %d: challenged + carried = fleet"
                     e.Swarm.epoch)
                  24
                  (e.Swarm.challenged + e.Swarm.carried);
                Alcotest.(check bool)
                  (Printf.sprintf "epoch %d carries most of the fleet"
                     e.Swarm.epoch)
                  true
                  (e.Swarm.carried > e.Swarm.challenged))
              rest
        | [] -> Alcotest.fail "no epochs");
        Alcotest.(check bool) "fleet survived" true r.Swarm.survived);
    Alcotest.test_case "a device is carried only on the heels of a good verdict"
      `Quick (fun () ->
        (* 'a' at epoch e means the verifier vouched without a wire
           exchange — legitimate only if epoch e-1 ended Attested or
           carried.  Checked under faults, where the temptation to carry
           a broken device is real. *)
        List.iter
          (fun (seed, faults) ->
            let r = steady_run ~seed ~faults ~epochs:6 () in
            let v = Array.of_list (Swarm.verdicts r) in
            for e = 1 to Array.length v - 1 do
              String.iteri
                (fun d c ->
                  if c = 'a' then
                    let prev = v.(e - 1).[d] in
                    Alcotest.(check bool)
                      (Printf.sprintf
                         "seed=%d epoch %d device %d carried after '%c'" seed e
                         d prev)
                      true
                      (prev = 'A' || prev = 'a'))
                v.(e)
            done)
          [ (5, false); (7, true); (11, true) ]);
    Alcotest.test_case "quiet steady epochs have an empty delta" `Quick
      (fun () ->
        (* With no churn and no faults nothing changes identity after the
           sweep, so every post-sweep sparse delta must be empty — the
           O(changed) claim at changed = 0. *)
        let r = steady_run ~seed:3 ~churn_permille:0 () in
        List.iter
          (fun (e : Swarm.epoch_stats) ->
            if e.Swarm.epoch > 0 then
              Alcotest.(check int)
                (Printf.sprintf "epoch %d delta" e.Swarm.epoch)
                0 e.Swarm.delta_changed)
          r.Swarm.per_epoch);
    Alcotest.test_case "steady epochs are an order cheaper than the sweep"
      `Quick (fun () ->
        let r = steady_run ~devices:64 ~seed:1 ~churn_permille:10 () in
        match r.Swarm.per_epoch with
        | sweep :: rest when rest <> [] ->
            let worst_steady =
              List.fold_left
                (fun m (e : Swarm.epoch_stats) -> max m e.Swarm.verify_cycles)
                0 rest
            in
            if sweep.Swarm.verify_cycles < 10 * worst_steady then
              Alcotest.failf "sweep %d < 10x worst steady epoch %d"
                sweep.Swarm.verify_cycles worst_steady
        | _ -> Alcotest.fail "need a sweep and at least one steady epoch");
    Alcotest.test_case "steady mode requires the incremental engine" `Quick
      (fun () ->
        List.iter
          (fun mode ->
            Alcotest.(check bool)
              (Swarm.mode_label mode ^ " rejected") true
              (try
                 ignore
                   (Swarm.run ~mode ~devices:4 ~epochs:2 ~seed:1 ~steady:true ());
                 false
               with Invalid_argument _ -> true))
          [ Swarm.Scalar ]);
  ]

(* --- The headline ratio ----------------------------------------------------- *)

let ratio_tests =
  [
    Alcotest.test_case "batched verification is >= 5x cheaper (N=256)" `Quick
      (fun () ->
        let run mode =
          Swarm.run ~mode ~devices:256 ~epochs:4 ~seed:1 ()
        in
        let s = run Swarm.Scalar in
        let i = run Swarm.Incremental in
        Alcotest.(check (list string))
          "verdicts identical" (Swarm.verdicts s) (Swarm.verdicts i);
        let ratio =
          float_of_int s.Swarm.verifier_cycles
          /. float_of_int (max 1 i.Swarm.verifier_cycles)
        in
        if ratio < 5.0 then
          Alcotest.failf
            "expected >= 5x, got %.2fx (scalar %d, incremental %d)" ratio
            s.Swarm.verifier_cycles i.Swarm.verifier_cycles;
        (* The cache must actually be doing the work: one miss per
           device per epoch, hits on every health poll. *)
        let hits, misses =
          List.fold_left
            (fun (h, m) (e : Swarm.epoch_stats) ->
              (h + e.Swarm.cache_hits, m + e.Swarm.cache_misses))
            (0, 0) i.Swarm.per_epoch
        in
        Alcotest.(check int) "one miss per device per epoch" (256 * 4) misses;
        Alcotest.(check int) "every health poll served from cache"
          (256 * 4 * i.Swarm.queries_per_epoch)
          hits);
  ]

(* --- Aggregator unit tests -------------------------------------------------- *)

let fw_id = Task_id.of_image (Bytes.of_string "aggregator-unit-test-firmware")

let test_ka ~serial =
  Crypto.Hmac.mac_string ~key:(Bytes.of_string "unit-master") ("ka/" ^ serial)

let genuine_report ~serial ~nonce =
  {
    Attestation.id = fw_id;
    nonce;
    mac = Attestation.expected_mac ~ka:(test_ka ~serial) ~id:fw_id ~nonce;
  }

let make_aggregator () =
  Aggregator.create ~ka_of:test_ka ~clock:(Cycles.create ()) ()

let aggregator_tests =
  [
    Alcotest.test_case "cached verdict only served within its nonce epoch"
      `Quick (fun () ->
        let a = make_aggregator () in
        Aggregator.begin_epoch a ~epoch:0;
        let n0 = Bytes.of_string "nonce-epoch-0" in
        let r0 = genuine_report ~serial:"s1" ~nonce:n0 in
        Alcotest.(check bool) "first check verifies" true
          (Aggregator.check_report a ~serial:"s1" ~expected:fw_id ~nonce:n0 r0);
        Alcotest.(check int) "that was a miss" 1 (Aggregator.cache_misses a);
        Alcotest.(check bool) "re-check is served from the cache" true
          (Aggregator.check_report a ~serial:"s1" ~expected:fw_id ~nonce:n0 r0);
        Alcotest.(check int) "hit counted" 1 (Aggregator.cache_hits a);
        Alcotest.(check int) "no second miss" 1 (Aggregator.cache_misses a);
        Aggregator.flush a;
        Alcotest.(check bool) "query answers for the current epoch" true
          (Aggregator.query a ~serial:"s1" ~epoch:0);
        Alcotest.(check bool) "query refuses a different epoch" false
          (Aggregator.query a ~serial:"s1" ~epoch:1);
        Aggregator.begin_epoch a ~epoch:1;
        Alcotest.(check bool) "new epoch starts cold: nothing cached" false
          (Aggregator.query a ~serial:"s1" ~epoch:1);
        let n1 = Bytes.of_string "nonce-epoch-1" in
        Alcotest.(check bool) "replaying the old epoch's report fails" false
          (Aggregator.check_report a ~serial:"s1" ~expected:fw_id ~nonce:n1 r0);
        let r1 = genuine_report ~serial:"s1" ~nonce:n1 in
        Alcotest.(check bool) "fresh report for the new nonce verifies" true
          (Aggregator.check_report a ~serial:"s1" ~expected:fw_id ~nonce:n1 r1);
        Alcotest.(check int) "the key was only derived once" 1
          (Aggregator.key_derivations a));
    Alcotest.test_case "forged reports are rejected and never cached" `Quick
      (fun () ->
        let a = make_aggregator () in
        Aggregator.begin_epoch a ~epoch:0;
        let nonce = Bytes.of_string "nonce-x" in
        let forged =
          { (genuine_report ~serial:"s1" ~nonce) with
            mac = Bytes.make 20 '\x55'
          }
        in
        Alcotest.(check bool) "forged mac rejected" false
          (Aggregator.check_report a ~serial:"s1" ~expected:fw_id ~nonce forged);
        Alcotest.(check bool) "forgery re-checked, not served from cache" false
          (Aggregator.check_report a ~serial:"s1" ~expected:fw_id ~nonce forged);
        Alcotest.(check int) "both were misses" 2 (Aggregator.cache_misses a);
        Aggregator.flush a;
        Alcotest.(check bool) "forged device never answers healthy" false
          (Aggregator.query a ~serial:"s1" ~epoch:0);
        let genuine = genuine_report ~serial:"s1" ~nonce in
        Alcotest.(check bool) "the genuine report still verifies" true
          (Aggregator.check_report a ~serial:"s1" ~expected:fw_id ~nonce genuine));
    Alcotest.test_case "sealed batch membership proofs verify" `Quick (fun () ->
        let a = make_aggregator () in
        Aggregator.begin_epoch a ~epoch:0;
        let nonce = Bytes.of_string "batch-nonce" in
        for i = 0 to 12 do
          let serial = Printf.sprintf "s%02d" i in
          Alcotest.(check bool) "admitted" true
            (Aggregator.check_report a ~serial ~expected:fw_id ~nonce
               (genuine_report ~serial ~nonce))
        done;
        Aggregator.flush a;
        (match Aggregator.batches a with
        | [ (epoch, _, size) ] ->
            Alcotest.(check int) "stamped with the epoch" 0 epoch;
            Alcotest.(check int) "all 13 leaves sealed" 13 size
        | l -> Alcotest.failf "expected one batch, got %d" (List.length l));
        match Aggregator.last_tree a with
        | None -> Alcotest.fail "no sealed tree"
        | Some (tree, leaves) ->
            let root = Crypto.Merkle.root tree in
            Array.iteri
              (fun i leaf ->
                Alcotest.(check bool)
                  (Printf.sprintf "leaf %d membership proof" i)
                  true
                  (Crypto.Merkle.verify ~root ~leaf
                     (Crypto.Merkle.proof tree i)))
              leaves);
    Alcotest.test_case "Rebuild seals a full batch of 256, flush the rest"
      `Quick (fun () ->
        let a = make_aggregator () in
        Aggregator.begin_epoch a ~epoch:0;
        let nonce = Bytes.of_string "limit-nonce" in
        let check serial report =
          ignore (Aggregator.check_report a ~serial ~expected:fw_id ~nonce report)
        in
        let admit i =
          let serial = Printf.sprintf "s%03d" i in
          check serial (genuine_report ~serial ~nonce)
        in
        let sizes () = List.map (fun (_, _, n) -> n) (Aggregator.batches a) in
        for i = 0 to 254 do
          admit i
        done;
        check "s255"
          { (genuine_report ~serial:"s255" ~nonce) with mac = Bytes.make 20 'x' };
        Alcotest.(check (list int))
          "255 genuine admissions and a forgery: nothing sealed" [] (sizes ());
        admit 255;
        Alcotest.(check (list int)) "the 256th seals eagerly" [ 256 ] (sizes ());
        for i = 256 to 299 do
          admit i
        done;
        Alcotest.(check (list int)) "the rest waits for flush" [ 256 ] (sizes ());
        Aggregator.flush a;
        Alcotest.(check (list int)) "flush seals the remainder" [ 256; 44 ]
          (sizes ()));
    Alcotest.test_case "retained tree: carry, tombstone, membership, deltas"
      `Quick (fun () ->
        let a =
          Aggregator.create ~ka_of:test_ka ~clock:(Cycles.create ())
            ~kind:Aggregator.Retain ()
        in
        let attest ~serial ~nonce =
          Alcotest.(check bool) (serial ^ " admitted") true
            (Aggregator.check_report a ~serial ~expected:fw_id ~nonce
               (genuine_report ~serial ~nonce))
        in
        (* Epoch 0: the full sweep — everyone attests. *)
        Aggregator.begin_epoch a ~epoch:0;
        let n0 = Bytes.of_string "retain-nonce-0" in
        List.iter (fun serial -> attest ~serial ~nonce:n0) [ "s0"; "s1"; "s2" ];
        Aggregator.flush a;
        Alcotest.(check int) "three live leaves" 3 (Aggregator.live_leaves a);
        (match Aggregator.epoch_deltas a with
        | [ d ] ->
            Alcotest.(check int) "sweep delta at epoch 0" 0 d.Aggregator.at_epoch;
            Alcotest.(check int) "sweep delta covers the arrivals" 3
              (List.length d.Aggregator.changed);
            List.iter
              (fun (e : Aggregator.delta_entry) ->
                Alcotest.(check bool) (e.Aggregator.serial ^ " arrived") true
                  (e.Aggregator.before = None && e.Aggregator.after <> None))
              d.Aggregator.changed
        | l -> Alcotest.failf "expected one delta, got %d" (List.length l));
        (match Aggregator.membership_proof a ~serial:"s1" with
        | None -> Alcotest.fail "live device must have a membership proof"
        | Some (leaf, proof) ->
            let root =
              match Aggregator.batches a with
              | [ (0, root, 3) ] -> root
              | l -> Alcotest.failf "expected one 3-leaf batch, got %d"
                       (List.length l)
            in
            Alcotest.(check bool) "proof verifies against the sealed root" true
              (Crypto.Merkle.verify ~root ~leaf proof));
        (* Epoch 1: s0 re-attests (same identity — delta stays empty),
           s1 is carried on liveness, s2 goes silent. *)
        Aggregator.begin_epoch a ~epoch:1;
        let n1 = Bytes.of_string "retain-nonce-1" in
        attest ~serial:"s0" ~nonce:n1;
        Alcotest.(check bool) "live device can be carried" true
          (Aggregator.carry a ~serial:"s1");
        Alcotest.(check bool) "unknown device cannot be carried" false
          (Aggregator.carry a ~serial:"ghost");
        Aggregator.flush a;
        Alcotest.(check bool) "re-attested device healthy" true
          (Aggregator.query a ~serial:"s0" ~epoch:1);
        Alcotest.(check bool) "carried device polls healthy" true
          (Aggregator.carried_healthy a ~serial:"s1");
        Alcotest.(check bool) "silent device tombstoned" false
          (Aggregator.carried_healthy a ~serial:"s2");
        Alcotest.(check int) "tombstone shrinks the live set" 2
          (Aggregator.live_leaves a);
        Alcotest.(check bool) "tombstoned device loses its proof" true
          (Aggregator.membership_proof a ~serial:"s2" = None);
        Alcotest.(check bool) "tombstoned device cannot be carried back" false
          (Aggregator.carry a ~serial:"s2");
        (match Aggregator.epoch_deltas a with
        | [ _; d1 ] -> (
            Alcotest.(check int) "delta stamped epoch 1" 1 d1.Aggregator.at_epoch;
            (* only s2's departure is an identity change — s0's fresh
               report re-sealed the same firmware id, s1 was carried *)
            match d1.Aggregator.changed with
            | [ e ] ->
                Alcotest.(check string) "the departure is s2" "s2"
                  e.Aggregator.serial;
                Alcotest.(check bool) "recorded as a tombstone" true
                  (e.Aggregator.before <> None && e.Aggregator.after = None)
            | l ->
                Alcotest.failf "expected exactly the departure, got %d entries"
                  (List.length l))
        | l -> Alcotest.failf "expected two deltas, got %d" (List.length l)));
  ]

(* --- Firmware rollout: fleet-wide flow vet --------------------------------- *)

module Tasks = Tytan_tasks.Task_lib
module Task_id = Tytan_core.Task_id

let rollout_run image =
  Swarm.run ~mode:Swarm.Incremental ~devices:8 ~epochs:2 ~seed:3 ~rollout:image
    ()

let rollout_tests =
  [
    Alcotest.test_case "leaky image refused fleet-wide" `Quick (fun () ->
        let leaky =
          Tasks.key_leaker
            ~receiver:(Task_id.of_image (Bytes.of_string "exfil-sink"))
            ()
        in
        let r = rollout_run leaky in
        match r.Swarm.rollout with
        | Some { Swarm.accepted; refusal; vet_cycles_per_device } ->
            Alcotest.(check bool) "refused" false accepted;
            Alcotest.(check bool) "vet charged" true (vet_cycles_per_device > 0);
            let msg = Option.value refusal ~default:"" in
            Alcotest.(check bool)
              "refusal names the secret flow" true
              (let has sub =
                 let n = String.length sub in
                 let rec go i =
                   i + n <= String.length msg
                   && (String.sub msg i n = sub || go (i + 1))
                 in
                 go 0
               in
               has "flow" && has "IPC payload");
            (* the fleet stays on — and attests — the incumbent firmware *)
            let incumbent =
              Swarm.run ~mode:Swarm.Incremental ~devices:8 ~epochs:2 ~seed:3 ()
            in
            Alcotest.(check (list string))
              "campaign identical to one with no rollout at all"
              (Swarm.verdicts incumbent) (Swarm.verdicts r)
        | None -> Alcotest.fail "expected a rollout outcome in the report");
    Alcotest.test_case "clean image adopted fleet-wide" `Quick (fun () ->
        let clean = Tasks.counter () in
        let r = rollout_run clean in
        match r.Swarm.rollout with
        | Some { Swarm.accepted; refusal; _ } ->
            Alcotest.(check bool) "adopted" true accepted;
            Alcotest.(check bool) "no refusal" true (refusal = None);
            Alcotest.(check bool) "fleet survived on new firmware" true
              r.Swarm.survived;
            (* adopting new firmware changes what the fleet measures, so
               the sealed roots must differ from the incumbent campaign *)
            let incumbent =
              Swarm.run ~mode:Swarm.Incremental ~devices:8 ~epochs:2 ~seed:3 ()
            in
            Alcotest.(check bool) "different measurement roots" true
              (List.exists2
                 (fun (a : Swarm.epoch_stats) (b : Swarm.epoch_stats) ->
                   a.Swarm.root_hex <> b.Swarm.root_hex)
                 incumbent.Swarm.per_epoch r.Swarm.per_epoch)
        | None -> Alcotest.fail "expected a rollout outcome in the report");
    Alcotest.test_case "rollout verdict identical across engines" `Quick
      (fun () ->
        let leaky =
          Tasks.key_leaker
            ~receiver:(Task_id.of_image (Bytes.of_string "exfil-sink"))
            ()
        in
        let run mode =
          Swarm.run ~mode ~devices:5 ~epochs:2 ~seed:9 ~rollout:leaky ()
        in
        let s = run Swarm.Scalar and i = run Swarm.Incremental in
        Alcotest.(check bool) "same acceptance" true
          (match (s.Swarm.rollout, i.Swarm.rollout) with
          | Some a, Some b ->
              a.Swarm.accepted = b.Swarm.accepted
              && a.Swarm.refusal = b.Swarm.refusal
              && a.Swarm.vet_cycles_per_device = b.Swarm.vet_cycles_per_device
          | _ -> false);
        Alcotest.(check (list string))
          "verdicts still byte-identical" (Swarm.verdicts s)
          (Swarm.verdicts i));
  ]

let () =
  Alcotest.run "fleet"
    [
      ("differential", differential_tests);
      ("soak", soak_tests);
      ("parallel", parallel_tests);
      ("steady", steady_tests);
      ("ratio", ratio_tests);
      ("aggregator", aggregator_tests);
      ("rollout", rollout_tests);
    ]
