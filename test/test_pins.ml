(* Pinned report digests for the three fleet engines, and the pinned
   counters of one TyTAN platform running the paper's Table 1 use case.

   Each engine digest below is the last line of the engine's [to_string]
   report — a SHA-1 over verdicts, settle slices, sealed roots, both
   cycle clocks, link counters and telemetry — recorded from the engines
   as they stood before the wake-driven slice loops (DESIGN.md §18).
   Skipping a device only when its visit is a provable no-op must leave
   every one of them byte-identical; any drift means a skipped visit was
   not a no-op after all.  [rollout/faults-leaky-clean-alternate] was
   recorded from the installer as it stood before its per-domain
   analysis memo (DESIGN.md §16): reusing a decode and verdict must not
   move it either.  [gateway/small-store-churn] was recorded from the
   gateway's scanning device store, which folded every entry to find its
   eviction victim, before the store kept its entries on a ring in
   eviction order (DESIGN.md §14): evicting in O(1) must pick the same
   victims.  [swarm/incremental/faults/seed-758] was recorded from the
   engines as they stood before the registry's key table (DESIGN.md
   §13): replaying a derivation's charge must not move it.  The
   [rollout/observed/*] pins were recorded from [Rollout.run] as one
   closure, before it became one function per phase (DESIGN.md §16):
   the split must reproduce every report and every flight-recorder
   trail.

   The platform pin is the instruction, cycle and context-switch count
   and the per-task cycle attribution of the use case, recorded from the
   slot-scanning EA-MPU and copying fetch that preceded the compiled rule
   table (DESIGN.md §2).  A faster check or fetch must not move a single
   simulated cycle. *)

open Tytan_provision
module Gateway = Tytan_serve.Gateway
module Rollout = Tytan_ota.Rollout
module Obs = Tytan_obs.Obs
module Tasks = Tytan_tasks.Task_lib
module Task_id = Tytan_core.Task_id
module Sha1 = Tytan_crypto.Sha1
module Platform = Tytan_core.Platform
module Rtm = Tytan_core.Rtm
module Cpu = Tytan_machine.Cpu
module Cycles = Tytan_machine.Cycles
module Kernel = Tytan_rtos.Kernel

let digest_line report =
  match List.rev (String.split_on_char '\n' (String.trim report)) with
  | last :: _ -> last
  | [] -> ""

(* --- the campaigns ------------------------------------------------------- *)

let swarm_run ~mode ~seed ~faults ~steady ~churn_permille =
  digest_line
    (Swarm.to_string
       (Swarm.run ~mode ~devices:96 ~epochs:3 ~seed ~faults ~steady
          ~churn_permille ()))

let swarm_cases =
  List.concat_map
    (fun mode ->
      List.concat_map
        (fun seed ->
          let run = swarm_run ~mode ~seed in
          let name kind =
            Printf.sprintf "swarm/%s/%s/seed-%d" (Swarm.mode_label mode) kind seed
          in
          [
            ( name "faults",
              fun () -> run ~faults:true ~steady:false ~churn_permille:0 );
            (* Steady state needs the incremental engine; scalar runs the
               same churn schedule as full sweeps. *)
            ( name "steady-churn-10",
              fun () ->
                run ~faults:false ~steady:(mode = Swarm.Incremental)
                  ~churn_permille:10 );
          ])
        [ 1; 2; 3 ])
    [ Swarm.Scalar; Swarm.Incremental ]
  @ [
      (* Seed 758 is the first of 1..10000 whose faulted campaign in this
         shape corrupts a challenge's tag from 'C' to 'F' on the way to a
         prover.  The prover runs no CFA monitor, so it must leave that
         [CfaChallenge] unanswered (DESIGN.md §13). *)
      ( "swarm/incremental/faults/seed-758",
        fun () ->
          swarm_run ~mode:Swarm.Incremental ~seed:758 ~faults:true
            ~steady:false ~churn_permille:0 );
    ]

let gateway_cases =
  let run ?config ?arrival ?(faults = false) ?loss_percent ~devices ~slices
      ~rate ~seed () =
    digest_line
      (Gateway.to_string
         (Gateway.run ?config ?arrival ~faults ?loss_percent ~devices ~slices
            ~arrival_permille:rate ~seed ()))
  in
  [
    ( "gateway/open-loop",
      fun () -> run ~devices:64 ~slices:200 ~rate:6000 ~seed:1 () );
    ( "gateway/closed-loop",
      fun () ->
        run
          ~arrival:(Gateway.Closed_loop { think = 4 })
          ~devices:32 ~slices:160 ~rate:0 ~seed:2 () );
    ( "gateway/faults",
      fun () -> run ~faults:true ~devices:64 ~slices:200 ~rate:8000 ~seed:3 () );
    (* A store 512 deep under 600 devices at 30 arrivals per slice: LRU
       evictions, busy sheds, refusals and malformed and unknown frames
       in one report. *)
    ( "gateway/overload-evict",
      fun () ->
        run ~faults:true ~devices:600 ~slices:150 ~rate:30000 ~seed:5 () );
    (* 60% loss trips the breaker: quarantines and quarantine sheds. *)
    ( "gateway/breaker-loss-60",
      fun () ->
        run ~faults:true ~loss_percent:60 ~devices:32 ~slices:300 ~rate:16000
          ~seed:9 () );
    (* A 16-entry store under 24 devices: store hits, touches that move an
       entry and evictions that break same-slice ties by serial. *)
    ( "gateway/small-store-churn",
      fun () ->
        run
          ~config:{ Gateway.default_config with store_capacity = 16 }
          ~faults:true ~devices:24 ~slices:240 ~rate:6000 ~seed:11 () );
  ]

let platform_key_of ~serial =
  Sha1.digest (Bytes.of_string ("pin-platform-key:" ^ serial))

let clean_wave v =
  {
    Rollout.label = Printf.sprintf "clean-%d" v;
    version = v;
    image = Tasks.yielder ~count:(2 + v) ();
  }

let rollout_cases =
  let run ?(faults = false) ?(devices = 24) ?(canary = 4) ~seed waves () =
    digest_line
      (Rollout.to_string
         (Rollout.run ~devices ~canary ~seed ~faults ~platform_key_of
            ~incumbent:(Tasks.counter ()) waves))
  in
  let stale =
    { Rollout.label = "stale"; version = 1; image = Tasks.yielder ~count:3 () }
  in
  let leaky =
    {
      Rollout.label = "leaky";
      version = 3;
      image =
        Tasks.key_leaker
          ~receiver:(Task_id.of_image (Bytes.of_string "exfil-sink"))
          ();
    }
  in
  [
    ("rollout/clean", run ~seed:1 [ clean_wave 1; clean_wave 2 ]);
    ( "rollout/stale-leaky",
      run ~seed:2 [ clean_wave 1; clean_wave 2; stale; leaky ] );
    ( "rollout/faults",
      run ~faults:true ~seed:5 [ clean_wave 1; clean_wave 2; clean_wave 3 ] );
    (* Faults under a stale and a leaky wave: a give-up, a crash, all four
       refusal kinds and quarantines in one report. *)
    ( "rollout/faults-stale-leaky",
      run ~faults:true ~devices:16 ~canary:2 ~seed:7
        [ clean_wave 1; clean_wave 2; stale; leaky ] );
    (* Clean and leaky images alternate, so each wave's first finalize
       misses the installer's per-domain analysis memo and the rest hit
       it: vet, auth and digest refusals and quarantines in one report. *)
    ( "rollout/faults-leaky-clean-alternate",
      run ~faults:true ~seed:4
        [
          clean_wave 1; leaky; clean_wave 4; { leaky with Rollout.version = 5 };
          clean_wave 6;
        ] );
  ]

(* The use case as the benchmark's platform workload runs it at full
   size, seed 1: secure t0 (engine control) and t1 (pedal feeder) loaded
   at set-up, then 120 single ticks with t2 (radar feeder, padded to the
   paper's ~27.8 ms load) submitted for interruptible loading at a seeded
   tick in 36..44. *)
let platform_table1 () =
  let pedal_addr = 0xF100_0000
  and radar_addr = 0xF100_0010
  and actuator_addr = 0xF100_0020 in
  let rng = Random.State.make [| 1 |] in
  let submit_at = 36 + Random.State.int rng 9 in
  let pedal0 = 30 + Random.State.int rng 20 in
  let radar0 = 5 + Random.State.int rng 10 in
  let p = Platform.create () in
  ignore
    (Platform.attach_sensor p ~name:"pedal" ~base:pedal_addr
       ~sample:(fun ~cycles -> pedal0 + (cycles / 1_000_000 mod 20)));
  ignore
    (Platform.attach_sensor p ~name:"radar" ~base:radar_addr
       ~sample:(fun ~cycles -> radar0 + (cycles / 2_000_000 mod 10)));
  ignore (Platform.attach_console p ~base:actuator_addr);
  let load ~priority name telf =
    match Platform.load_blocking p ~name ~priority telf with
    | Ok tcb -> tcb
    | Error e -> Alcotest.failf "%s: %s" name e
  in
  let t0 = load ~priority:5 "t0-engine" (Tasks.cruise_controller ~actuator_addr) in
  let t0_id =
    (Option.get (Rtm.find_by_tcb (Option.get (Platform.rtm p)) t0)).Rtm.id
  in
  ignore
    (load ~priority:4 "t1-pedal"
       (Tasks.sensor_feeder ~sensor_addr:pedal_addr ~controller:t0_id ~tag:1 ()));
  let t2 =
    Tasks.sensor_feeder ~sensor_addr:radar_addr ~controller:t0_id ~tag:2
      ~pad_instructions:1385 ()
  in
  let cpu = Platform.cpu p and clock = Platform.clock p in
  let kernel = Platform.kernel p in
  let i0 = Cpu.instructions_retired cpu and c0 = Cycles.now clock in
  let s0 = Kernel.context_switches kernel in
  for tick = 1 to 120 do
    if tick = submit_at then Platform.submit_load p ~name:"t2-radar" t2;
    Platform.run_ticks p 1
  done;
  Printf.sprintf "instructions=%d cycles=%d context_switches=%d | %s"
    (Cpu.instructions_retired cpu - i0)
    (Cycles.now clock - c0)
    (Kernel.context_switches kernel - s0)
    (String.concat " "
       (List.map
          (fun (name, cycles) -> Printf.sprintf "%s=%d" name cycles)
          (Platform.cycle_attribution p)))

let platform_cases = [ ("platform/table1", platform_table1) ]

(* Observed rollouts pin the flight recorder's trail as well as the
   report: the record count and chain head move if one event is added,
   dropped, reordered or re-stamped, which the report digest does not
   see.  Between them the four campaigns show every verdict the rollout
   records (vet refusals, mid-swap crashes and give-ups included), a
   faulted wave that still promotes, and a flat rollout.  Each
   campaign's registry, incumbent and wave list are built once and
   shared by every run of it, as perfbench shares them across
   repetitions, so state left behind by one run would show up in the
   next. *)
let observed_rollout ~devices ~canary ~seed ~faults ~loss_percent waves =
  let registry = Registry.create ~master:(Bytes.of_string "pin-rollout-master") in
  let incumbent = Tasks.counter () in
  fun () ->
    let log = Obs.Log.create () in
    let r =
      Rollout.run ~devices ~canary ~seed ~faults ~loss_percent ~obs:log
        ~platform_key_of:(fun ~serial -> Registry.platform_key registry ~serial)
        ~incumbent waves
    in
    Printf.sprintf "%s records=%d head=%s"
      (digest_line (Rollout.to_string r))
      (Obs.Log.length log) (Obs.Log.head_hex log)

let observed_cases =
  let leaky =
    {
      Rollout.label = "leaky";
      version = 3;
      image =
        Tasks.key_leaker
          ~receiver:(Task_id.of_image (Bytes.of_string "exfil-sink"))
          ();
    }
  and stale =
    { Rollout.label = "stale"; version = 1; image = Tasks.yielder ~count:3 () }
  in
  [
    (* A mid-swap crash in a wave that promotes, then rollback, vet, auth
       and digest refusals. *)
    ( "rollout/observed/faults-stale-leaky",
      observed_rollout ~devices:24 ~canary:4 ~seed:5 ~faults:true
        ~loss_percent:10
        [ clean_wave 1; clean_wave 2; stale; leaky; clean_wave 4 ] );
    (* Every device a canary: the first wave promotes, a give-up aborts
       the second. *)
    ( "rollout/observed/flat-loss-40",
      observed_rollout ~devices:16 ~canary:16 ~seed:2 ~faults:false
        ~loss_percent:40 [ clean_wave 1; clean_wave 2 ] );
    ( "rollout/observed/faults-loss-60",
      observed_rollout ~devices:40 ~canary:4 ~seed:2 ~faults:true
        ~loss_percent:60 [ clean_wave 1; clean_wave 2 ] );
    ( "rollout/observed/stale-leaky",
      observed_rollout ~devices:24 ~canary:4 ~seed:1 ~faults:false
        ~loss_percent:10 [ clean_wave 1; clean_wave 2; stale; leaky ] );
  ]

let cases =
  swarm_cases @ gateway_cases @ rollout_cases @ observed_cases @ platform_cases

(* --- the pins ------------------------------------------------------------ *)

let pins =
  [
    ("swarm/scalar/faults/seed-1", "digest: sha1:3799d627a6eca17984f48412e66c838573215161");
    ("swarm/scalar/steady-churn-10/seed-1", "digest: sha1:2304fcaf5895687eb6f047cf55bb71b05ad70f19");
    ("swarm/scalar/faults/seed-2", "digest: sha1:002ae78ca8062e7cd70aafe1c6c2a48643cd1a92");
    ("swarm/scalar/steady-churn-10/seed-2", "digest: sha1:58525baba0b343ad5e8d89de6aa0b64355884411");
    ("swarm/scalar/faults/seed-3", "digest: sha1:abe5f01482d3d947123e702c4cd095728aecd3f7");
    ("swarm/scalar/steady-churn-10/seed-3", "digest: sha1:ab95b21720d31b273592915a507f776a5aac68a7");
    ("swarm/incremental/faults/seed-1", "digest: sha1:b66f52d70552cd37135926d6bfd576fb39f7233c");
    ("swarm/incremental/steady-churn-10/seed-1", "digest: sha1:42eef45b06681e9d49df594282104869e25d4a75");
    ("swarm/incremental/faults/seed-2", "digest: sha1:f868ecf1e646e892093f01b9239265d7bc159f87");
    ("swarm/incremental/steady-churn-10/seed-2", "digest: sha1:780cf4fdd7ec07ca6142d2689a848cee28bb8f7e");
    ("swarm/incremental/faults/seed-3", "digest: sha1:71ed4bd624b0ae3d1c82a13eaeb14d91cf65f4a7");
    ("swarm/incremental/steady-churn-10/seed-3", "digest: sha1:4d0f2cab54047148b54feddbe7425a137302634b");
    ("swarm/incremental/faults/seed-758", "digest: sha1:a449143912a267a1419953f42e52f787b54db3b0");
    ("gateway/open-loop", "digest: sha1:fa610d5bf0dc7c82565dd7824fba980e0a53edba");
    ("gateway/closed-loop", "digest: sha1:bfc46eca951a3433de1ee5bb7324df428d1e54e3");
    ("gateway/faults", "digest: sha1:c524877614a9b024e7f7c2e3de3bf8867c51d0d6");
    ("gateway/overload-evict", "digest: sha1:d1c6f301023b981021dc1bede83ec02234875a9d");
    ("gateway/breaker-loss-60", "digest: sha1:03bb67165808569c06a7e60e059829b99be18cea");
    ("gateway/small-store-churn", "digest: sha1:359cd3957586e9efd9fd6bdd431b35c974d3413f");
    ("rollout/clean", "digest: sha1:4a2f6e489890af62e552524ca1bb007766a253ab");
    ("rollout/stale-leaky", "digest: sha1:c8b5a20ee5fe10a91694d742c443830776584f18");
    ("rollout/faults", "digest: sha1:ba1c90e41d56e2c8a7b1a3aa523abb2a708b646f");
    ("rollout/faults-stale-leaky", "digest: sha1:cec7e2d770b34fb264923bbb0033e80d89ec618a");
    ("rollout/faults-leaky-clean-alternate", "digest: sha1:e7f61de13537d3467b9e4aee0541ad6a2da4d43d");
    ( "rollout/observed/faults-stale-leaky",
      "digest: sha1:3cdb3630ffcb6a91ca958e2a4e179963c7ef013e records=215 \
       head=02e0c6169a11bb14760fa9c217c1856b3d5055e56ac22001d17c83cde46c1226" );
    ( "rollout/observed/flat-loss-40",
      "digest: sha1:2f7b885dd9e3ba0ef3cfa711a05ca6ad4b501324 records=115 \
       head=2ea3aaa1f6caa673a55cb92000b1d473fb6feb8b48ca248d178fc0602e1e793f" );
    ( "rollout/observed/faults-loss-60",
      "digest: sha1:26a7ca2251eed34b8bc4faad6e7df08ea77857c7 records=132 \
       head=2cf8112fb0e2c50acf9b50585824906e2f60818727658b5d80f3cacdb5f8133d" );
    ( "rollout/observed/stale-leaky",
      "digest: sha1:418097c007fb043b30de0e016d19b7fb6adabb72 records=180 \
       head=26ff1a91fabe1c5bdec8a14fbd3bee4e289889d594b8109d4bf60fcdcdf5d796" );
    ( "platform/table1",
      "instructions=1135859 cycles=4119529 context_switches=982 | idle=2247202 \
       svc-loader=239370 t0-engine=52702 t1-pedal=98555 t2-radar=30155 \
       (os)=14826376" );
  ]

let pinned name =
  match List.assoc_opt name pins with
  | Some expected -> expected
  | None -> Alcotest.failf "%s: no pinned digest" name

let pinned_tests =
  List.map
    (fun (name, thunk) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check string)
            (name ^ " report digest") (pinned name) (thunk ())))
    cases

(* perfbench times repeated runs over shared inputs and requires each to
   reproduce the first; twenty runs of each observed campaign in one
   process must all reproduce its pin. *)
let rerun_tests =
  List.map
    (fun (name, thunk) ->
      Alcotest.test_case name `Quick (fun () ->
          let expected = pinned name in
          for i = 1 to 20 do
            Alcotest.(check string)
              (Printf.sprintf "%s run %d" name i)
              expected (thunk ())
          done))
    observed_cases

let () =
  Alcotest.run "pins"
    [ ("engine digests", pinned_tests); ("reruns", rerun_tests) ]
