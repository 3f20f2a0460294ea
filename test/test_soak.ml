(* Soak test: hundreds of random task lifecycle operations (load secure,
   load normal, unload, suspend, resume, run) against one platform,
   checking global invariants throughout — no kernel panic, EA-MPU slots
   and heap fully reclaimed, RTM directory consistent with live tasks —
   and that the platform still meets deadlines afterwards. *)

open Tytan_rtos
open Tytan_core
module Tasks = Tytan_tasks.Task_lib

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Deterministic PRNG so failures reproduce. *)
let rng = ref 0xC0FFEE

(* LCG low bits have tiny cycles (mod 2 alternates); draw from the high
   bits instead. *)
let rand bound =
  rng := ((!rng * 1103515245) + 12345) land 0x3FFF_FFFF;
  (!rng lsr 15) mod bound

type live = {
  tcb : Tcb.t;
  mutable suspended : bool;
}

let binary_pool =
  lazy
    [|
      Tasks.counter ();
      Tasks.counter ~stack_size:768 ();
      Tasks.busy_loop ~work:4 ();
      Toolchain.synthetic_secure ~image_size:1024 ~reloc_count:3 ~stack_size:256;
      Tasks.counter ~secure:false ();
      Tasks.yielder ~secure:false ~count:3 ();
    |]

let is_secure_binary i = i < 4

let soak_ops = 250

let soak_test =
  Alcotest.test_case "250 random lifecycle operations hold the invariants"
    `Slow (fun () ->
      let p = Platform.create () in
      let eampu = Option.get (Platform.eampu p) in
      let rtm = Option.get (Platform.rtm p) in
      let slots0 = Tytan_eampu.Eampu.used_slots eampu in
      let heap0 = Heap.allocated_bytes (Platform.heap p) in
      let live : live list ref = ref [] in
      let loads = ref 0 and unloads = ref 0 and suspends = ref 0 in
      let invariant () =
        (* Directory entries = live (non-terminated) loaded tasks. *)
        live :=
          List.filter (fun l -> l.tcb.Tcb.state <> Tcb.Terminated) !live;
        check_int "directory tracks live tasks"
          (List.length !live)
          (List.length (Rtm.all rtm))
      in
      for op = 1 to soak_ops do
        (match rand 6 with
        | 0 | 1 -> (
            (* load a random binary *)
            let i = rand (Array.length (Lazy.force binary_pool)) in
            let telf = (Lazy.force binary_pool).(i) in
            match
              Platform.load_blocking p
                ~name:(Printf.sprintf "soak-%d" op)
                ~secure:(is_secure_binary i) telf
            with
            | Ok tcb ->
                incr loads;
                live := { tcb; suspended = false } :: !live
            | Error _ ->
                (* slot or memory exhaustion is a legal outcome *)
                ())
        | 2 -> (
            (* unload a random live task *)
            match !live with
            | [] -> ()
            | tasks ->
                let victim = List.nth tasks (rand (List.length tasks)) in
                Platform.unload p victim.tcb;
                incr unloads;
                live :=
                  List.filter (fun l -> l.tcb.Tcb.id <> victim.tcb.Tcb.id) tasks)
        | 3 -> (
            (* toggle suspension *)
            match List.filter (fun l -> l.tcb.Tcb.state <> Tcb.Terminated) !live with
            | [] -> ()
            | tasks ->
                let t = List.nth tasks (rand (List.length tasks)) in
                if t.suspended then begin
                  Platform.resume p t.tcb;
                  t.suspended <- false
                end
                else if t.tcb.Tcb.state <> Tcb.Terminated then begin
                  Platform.suspend p t.tcb;
                  t.suspended <- true;
                  incr suspends
                end)
        | 4 | 5 -> Platform.run_ticks p (1 + rand 4)
        | _ -> assert false);
        if op mod 25 = 0 then invariant ()
      done;
      invariant ();
      (* Drain: unload everything and verify full reclamation. *)
      List.iter
        (fun l ->
          if l.tcb.Tcb.state <> Tcb.Terminated then Platform.unload p l.tcb)
        !live;
      Platform.run_ticks p 5;
      check_int "EA-MPU slots fully reclaimed" slots0
        (Tytan_eampu.Eampu.used_slots eampu);
      check_int "heap fully reclaimed" heap0
        (Heap.allocated_bytes (Platform.heap p));
      check_int "directory empty" 0 (List.length (Rtm.all rtm));
      check_bool
        (Printf.sprintf "plenty of churn happened (%d loads, %d unloads, %d suspends)"
           !loads !unloads !suspends)
        true
        (!loads >= 25 && !unloads >= 10 && !suspends >= 5);
      (* The platform is still healthy: a fresh task meets its deadlines. *)
      let telf = Tasks.counter () in
      let tcb = Result.get_ok (Platform.load_blocking p ~name:"after" telf) in
      Platform.run_ticks p 10;
      let rtm = Option.get (Platform.rtm p) in
      let count =
        Tytan_machine.Cpu.with_firmware (Platform.cpu p)
          ~eip:(Rtm.code_eip rtm) (fun () ->
            Tytan_machine.Cpu.load32 (Platform.cpu p)
              (tcb.Tcb.region_base + Tasks.data_cell_offset telf))
      in
      check_bool "deadlines still met after the soak" true (count >= 9))

let ipc_soak_test =
  Alcotest.test_case "IPC churn with receiver turnover stays consistent"
    `Slow (fun () ->
      let p = Platform.create () in
      let rtm = Option.get (Platform.rtm p) in
      let receiver = ref None in
      let spawn_receiver n =
        let telf = Tasks.ipc_receiver () in
        let tcb =
          Result.get_ok
            (Platform.load_blocking p ~name:(Printf.sprintf "recv-%d" n) telf)
        in
        receiver := Some ((Option.get (Rtm.find_by_tcb rtm tcb)).Rtm.id, tcb)
      in
      spawn_receiver 0;
      let senders = ref [] in
      for round = 1 to 10 do
        let rid, rtcb = Option.get !receiver in
        (* a fresh sender hammers the current receiver *)
        let stelf = Tasks.ipc_sender ~receiver:rid ~repeat:true () in
        let sender =
          Result.get_ok
            (Platform.load_blocking p
               ~name:(Printf.sprintf "send-%d" round)
               stelf)
        in
        senders := sender :: !senders;
        Platform.run_ticks p 5;
        (* kill the receiver mid-traffic every few rounds; senders must
           be killed or released, never left blocked forever *)
        if round mod 3 = 0 then begin
          Platform.unload p rtcb;
          Platform.run_ticks p 3;
          List.iter
            (fun (s : Tcb.t) ->
              check_bool "no sender stuck on a dead receiver" true
                (s.Tcb.state <> Tcb.Blocked Tcb.Ipc_reply_wait))
            !senders;
          (* dead senders (they sent to a ghost) are fine; drop them *)
          senders :=
            List.filter (fun (s : Tcb.t) -> s.Tcb.state <> Tcb.Terminated) !senders;
          spawn_receiver round
        end
      done;
      let ipc = Option.get (Platform.ipc p) in
      check_int "no leaked sync sessions" 0 (Ipc.sync_sessions_open ipc);
      check_bool "traffic flowed" true (Ipc.deliveries ipc > 20))

(* --- Fleet determinism soak ------------------------------------------------ *)

(* The swarm campaign's whole value as a test fixture is bit-exact
   reproducibility: same seed, same report, even with fault injection
   and even when the two runs share one process (the per-session
   verifier fix — a process-global counter would shift the second
   run's nonces). *)
let fleet_soak_test =
  Alcotest.test_case "fleet campaigns reproduce bit-identically" `Slow
    (fun () ->
      let module Swarm = Tytan_provision.Swarm in
      List.iter
        (fun (mode, faults, seed) ->
          let run () =
            Swarm.run ~mode ~devices:48 ~epochs:3 ~seed ~faults
              ~loss_percent:12 ()
          in
          let r1 = run () in
          let r2 = run () in
          check_bool
            (Printf.sprintf "%s/faults=%b/seed=%d reproduces"
               (Swarm.mode_label mode) faults seed)
            true
            (Swarm.equal r1 r2);
          check_bool "rendering is bit-identical" true
            (Swarm.to_string r1 = Swarm.to_string r2))
        [
          (Tytan_provision.Swarm.Incremental, false, 7);
          (Tytan_provision.Swarm.Incremental, true, 7);
          (Tytan_provision.Swarm.Scalar, true, 7);
          (Tytan_provision.Swarm.Incremental, true, 99);
        ])

(* Telemetry's core accounting contract must survive the swarm additions:
   on an instrumented platform every cycle is attributed somewhere and
   the rows still sum exactly to the clock. *)
let attribution_soak_test =
  Alcotest.test_case "cycle attribution still sums exactly to Cycles.now"
    `Slow (fun () ->
      let config =
        { Platform.default_config with telemetry_enabled = true }
      in
      let p = Platform.create ~config () in
      for i = 0 to 2 do
        ignore
          (Result.get_ok
             (Platform.load_blocking p
                ~name:(Printf.sprintf "soak-%d" i)
                (Tasks.counter ())))
      done;
      Platform.run_ticks p 40;
      let rows = Platform.cycle_attribution p in
      let total = List.fold_left (fun acc (_, c) -> acc + c) 0 rows in
      check_int "rows sum to Cycles.now"
        (Tytan_machine.Cycles.now (Platform.clock p))
        total)

let () =
  Alcotest.run "soak"
    [
      ("soak", [ soak_test; ipc_soak_test ]);
      ("fleet-soak", [ fleet_soak_test; attribution_soak_test ]);
    ]
