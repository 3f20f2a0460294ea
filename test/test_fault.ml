(* The fault-injection subsystem: plans, memory fault hooks, the watchdog
   device, link fault kinds, protocol fuzzing, verifier backoff, and the
   supervisor's attestation-gated recovery. *)

open Tytan_machine
open Tytan_rtos
open Tytan_core
open Tytan_netsim
open Tytan_fault

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Fault plans ------------------------------------------------------------ *)

let plan_tests =
  [
    Alcotest.test_case "events sorted by tick, stably" `Quick (fun () ->
        let ev tick kind = { Fault_plan.at_tick = tick; kind } in
        let plan =
          Fault_plan.make ~seed:3
            [
              ev 9 (Fault_plan.Task_kill { name = "b" });
              ev 2 (Fault_plan.Irq_storm { irq = 9; count = 1 });
              ev 9 (Fault_plan.Task_hang { name = "a" });
            ]
        in
        check_int "count" 3 (List.length plan.Fault_plan.events);
        match plan.Fault_plan.events with
        | [ a; b; c ] ->
            check_int "first" 2 a.Fault_plan.at_tick;
            check_bool "stable order at tick 9" true
              (match (b.Fault_plan.kind, c.Fault_plan.kind) with
              | Fault_plan.Task_kill _, Fault_plan.Task_hang _ -> true
              | _ -> false)
        | _ -> Alcotest.fail "wrong shape");
    Alcotest.test_case "same seed, same random flips" `Quick (fun () ->
        let gen () =
          Fault_plan.random_bit_flips (Fault_plan.Prng.create 77) ~count:10
            ~base:0x1000 ~size:256 ~first_tick:3 ~last_tick:9
        in
        check_bool "identical" true (gen () = gen ());
        List.iter
          (fun (e : Fault_plan.event) ->
            check_bool "tick window" true (e.at_tick >= 3 && e.at_tick <= 9);
            match e.kind with
            | Fault_plan.Bit_flip { addr; bit } ->
                check_bool "addr in region" true
                  (addr >= 0x1000 && addr < 0x1100);
                check_bool "bit in byte" true (bit >= 0 && bit < 8)
            | _ -> Alcotest.fail "not a bit flip")
          (gen ()));
    Alcotest.test_case "prng bound respected" `Quick (fun () ->
        let rng = Fault_plan.Prng.create 5 in
        for _ = 1 to 1000 do
          let v = Fault_plan.Prng.int rng 7 in
          check_bool "in range" true (v >= 0 && v < 7)
        done);
  ]

(* The generator as the engines each wrote it before [Link.Prng] owned
   it, kept here only as the oracle: the state update masks the
   increment, not the state, and every draw masks the output first.
   Fault plans masked their seed; links and verifier sessions did not. *)
let parent_step s = (s * 1664525) + 1013904223 land 0x3FFF_FFFF

let parent_draws ~seed ~n draw =
  let s = ref seed in
  List.init n (fun _ ->
      s := parent_step !s;
      draw (!s land 0x3FFF_FFFF))

let prng_props =
  [
    QCheck.Test.make ~name:"shared prng reproduces every engine's old draws"
      ~count:200
      QCheck.(pair int (int_range 1 10_000))
      (fun (seed, bound) ->
        let fault_plan =
          let t = Fault_plan.Prng.create seed in
          List.init 64 (fun _ -> Fault_plan.Prng.int t bound)
        in
        let unmasked draw =
          let s = ref seed in
          List.init 64 (fun _ ->
              s := Link.Prng.step !s;
              draw !s)
        in
        fault_plan
        = parent_draws ~seed:(seed land 0x3FFF_FFFF) ~n:64 (fun x -> x mod bound)
        && unmasked (fun s -> Link.Prng.below s bound)
           = parent_draws ~seed ~n:64 (fun x -> x mod bound)
        (* A verifier session's jitter draws in [0, bound]. *)
        && unmasked (fun s -> Link.Prng.below s (bound + 1))
           = parent_draws ~seed ~n:64 (fun x -> x mod (bound + 1))
        && unmasked Fun.id = parent_draws ~seed ~n:64 Fun.id);
  ]

(* --- Memory fault hooks ------------------------------------------------------ *)

let null_device ~name ~base value =
  {
    Memory.name;
    base;
    size = 8;
    read32 = (fun ~offset:_ -> value);
    write32 = (fun ~offset:_ _ -> ());
  }

let memory_tests =
  [
    Alcotest.test_case "write fault corrupts RAM stores" `Quick (fun () ->
        let mem = Memory.create ~size:4096 in
        Memory.set_write_fault mem
          (Some (fun ~addr:_ ~value -> value lxor 1));
        Memory.write32 mem 0x10 4;
        check_int "bit flipped" 5 (Memory.read32 mem 0x10);
        Memory.write8 mem 0x20 0x40;
        check_int "byte store too" 0x41 (Memory.read8 mem 0x20);
        Memory.set_write_fault mem None;
        Memory.write32 mem 0x10 4;
        check_int "hook removed" 4 (Memory.read32 mem 0x10));
    Alcotest.test_case "write fault does not touch MMIO or blit" `Quick
      (fun () ->
        let mem = Memory.create ~size:4096 in
        let seen = ref [] in
        Memory.set_write_fault mem
          (Some
             (fun ~addr ~value ->
               seen := addr :: !seen;
               value));
        Memory.map_device mem (null_device ~name:"sink" ~base:0xF000_0000 7);
        Memory.write32 mem 0xF000_0000 42;
        Memory.blit_bytes mem 0x100 (Bytes.make 8 'x');
        check_int "only RAM stores consulted the hook" 0 (List.length !seen));
    Alcotest.test_case "mmio read fault glitches one device" `Quick (fun () ->
        let mem = Memory.create ~size:4096 in
        Memory.map_device mem (null_device ~name:"good" ~base:0xF000_0000 7);
        Memory.map_device mem (null_device ~name:"bad" ~base:0xF000_1000 7);
        let left = ref 2 in
        Memory.set_mmio_read_fault mem
          (Some
             (fun ~device ~addr:_ ->
               if device = "bad" && !left > 0 then begin
                 decr left;
                 Some 0xBEEF
               end
               else None));
        check_int "glitched" 0xBEEF (Memory.read32 mem 0xF000_1000);
        check_int "other device clean" 7 (Memory.read32 mem 0xF000_0000);
        check_int "glitched again" 0xBEEF (Memory.read32 mem 0xF000_1000);
        check_int "transient: device recovers" 7 (Memory.read32 mem 0xF000_1000);
        check_int "ram unaffected" 0 (Memory.read32 mem 0x40));
  ]

(* --- Watchdog device --------------------------------------------------------- *)

let watchdog_fixture () =
  let mem = Memory.create ~size:4096 in
  let clock = Cycles.create () in
  let engine = Exception_engine.create mem ~idt_base:0x100 in
  let wd =
    Devices.Watchdog.create engine clock ~name:"wd" ~base:0xF000_0000 ~irq:5
      ~timeout:100
  in
  Memory.map_device mem (Devices.Watchdog.device wd);
  (mem, clock, engine, wd)

let watchdog_tests =
  [
    Alcotest.test_case "bites when starved, not when kicked" `Quick (fun () ->
        let _, clock, engine, wd = watchdog_fixture () in
        Cycles.charge clock 90;
        Devices.Watchdog.poll wd;
        check_int "not yet" 0 (Devices.Watchdog.fired wd);
        Devices.Watchdog.kick wd;
        Cycles.charge clock 90;
        Devices.Watchdog.poll wd;
        check_int "kick deferred the bite" 0 (Devices.Watchdog.fired wd);
        Cycles.charge clock 20;
        Devices.Watchdog.poll wd;
        check_int "bite" 1 (Devices.Watchdog.fired wd);
        check_bool "irq raised" true
          (Exception_engine.pending_irq engine = Some 5);
        (* Re-armed: another full interval passes before the next bite. *)
        Cycles.charge clock 99;
        Devices.Watchdog.poll wd;
        check_int "re-armed" 1 (Devices.Watchdog.fired wd);
        Cycles.charge clock 2;
        Devices.Watchdog.poll wd;
        check_int "second bite" 2 (Devices.Watchdog.fired wd));
    Alcotest.test_case "disabled watchdog never bites" `Quick (fun () ->
        let _, clock, _, wd = watchdog_fixture () in
        Devices.Watchdog.disable wd;
        Cycles.charge clock 1000;
        Devices.Watchdog.poll wd;
        check_int "silent" 0 (Devices.Watchdog.fired wd);
        check_int "remaining reads 0 when off" 0 (Devices.Watchdog.remaining wd));
    Alcotest.test_case "register map: kick, timeout, ctrl" `Quick (fun () ->
        let mem, clock, _, wd = watchdog_fixture () in
        let base = 0xF000_0000 in
        check_int "remaining at +0" 100 (Memory.read32 mem base);
        Cycles.charge clock 40;
        check_int "counts down" 60 (Memory.read32 mem base);
        Memory.write32 mem base 1 (* KICK *);
        check_int "kick resets" 100 (Memory.read32 mem base);
        Memory.write32 mem (base + 4) 250 (* TIMEOUT *);
        check_int "timeout readable" 250 (Memory.read32 mem (base + 4));
        check_int "new countdown" 250 (Memory.read32 mem base);
        Memory.write32 mem (base + 8) 0 (* CTRL: disable *);
        Cycles.charge clock 1000;
        Devices.Watchdog.poll wd;
        check_int "ctrl read = fired" 0 (Memory.read32 mem (base + 8));
        Memory.write32 mem (base + 8) 1 (* CTRL: enable *);
        Cycles.charge clock 251;
        Devices.Watchdog.poll wd;
        check_int "fired after re-enable" 1 (Memory.read32 mem (base + 8)));
  ]

(* --- Link fault kinds --------------------------------------------------------- *)

let drain link ~last =
  let n = ref 0 in
  for at = 0 to last do
    n := !n + List.length (Link.deliver link ~to_:Link.Device ~at);
    n := !n + List.length (Link.deliver link ~to_:Link.Remote ~at)
  done;
  !n

let link_tests =
  [
    Alcotest.test_case "counters reconcile under a mixed fault plan" `Quick
      (fun () ->
        let link =
          Link.create ~seed:11 ~loss_percent:20 ~corrupt_percent:25
            ~duplicate_percent:25 ~reorder_percent:25 ()
        in
        for i = 1 to 300 do
          Link.send link ~from:Link.Remote ~at:0
            (Bytes.of_string (Printf.sprintf "frame-%03d" i))
        done;
        let got = drain link ~last:10 in
        check_int "sent" 300 (Link.sent_count link);
        check_bool "all kinds occurred" true
          (Link.dropped_count link > 0
          && Link.corrupted_count link > 0
          && Link.duplicated_count link > 0
          && Link.reordered_count link > 0);
        check_int "delivered = sent - dropped + duplicated"
          (Link.sent_count link - Link.dropped_count link
         + Link.duplicated_count link)
          (Link.delivered_count link);
        check_int "drained everything" (Link.delivered_count link) got);
    Alcotest.test_case "fault kinds off by default" `Quick (fun () ->
        let link = Link.create ~seed:11 ~loss_percent:30 () in
        for _ = 1 to 100 do
          Link.send link ~from:Link.Device ~at:0 (Bytes.of_string "hello")
        done;
        ignore (drain link ~last:5);
        check_int "no corruption" 0 (Link.corrupted_count link);
        check_int "no duplication" 0 (Link.duplicated_count link);
        check_int "no reordering" 0 (Link.reordered_count link);
        check_int "reconciles"
          (100 - Link.dropped_count link)
          (Link.delivered_count link));
    Alcotest.test_case "corruption changes exactly one byte" `Quick (fun () ->
        let link = Link.create ~seed:2 ~corrupt_percent:100 ~delay:0 () in
        Link.send link ~from:Link.Remote ~at:0 (Bytes.of_string "payload");
        match Link.deliver link ~to_:Link.Device ~at:0 with
        | [ got ] ->
            let reference = Bytes.of_string "payload" in
            check_int "same length" (Bytes.length reference) (Bytes.length got);
            let diffs = ref 0 in
            Bytes.iteri
              (fun i c -> if Bytes.get reference i <> c then incr diffs)
              got;
            check_int "one byte differs" 1 !diffs
        | frames -> Alcotest.failf "expected 1 frame, got %d" (List.length frames));
  ]

(* --- Protocol decoder fuzzing ------------------------------------------------- *)

let fuzz_tests =
  [
    Alcotest.test_case "decode never raises on mutated frames" `Quick (fun () ->
        let rng = Fault_plan.Prng.create 0xF422 in
        let id = Task_id.of_image (Bytes.of_string "fuzz-target") in
        let originals =
          [
            Protocol.encode
              (Protocol.Challenge
                 { seq = 7; id; nonce = Bytes.of_string "twelve-bytes" });
            Protocol.encode
              (Protocol.Response
                 {
                   seq = 9;
                   report =
                     {
                       Attestation.id;
                       nonce = Bytes.of_string "n0";
                       mac = Bytes.make 20 '\x5A';
                     };
                 });
            Protocol.encode (Protocol.Refusal { seq = 3 });
          ]
        in
        let mutate frame =
          let frame = Bytes.copy frame in
          let n = Bytes.length frame in
          match Fault_plan.Prng.int rng 4 with
          | 0 -> Bytes.sub frame 0 (Fault_plan.Prng.int rng (n + 1)) (* truncate *)
          | 1 ->
              (* flip a random byte *)
              let pos = Fault_plan.Prng.int rng n in
              Bytes.set frame pos
                (Char.chr
                   (Char.code (Bytes.get frame pos)
                   lxor (1 + Fault_plan.Prng.int rng 255)));
              frame
          | 2 ->
              (* corrupt the nonce-length field (offset 13) when present *)
              if n > 13 then
                Bytes.set frame 13 (Char.chr (Fault_plan.Prng.int rng 256));
              frame
          | _ ->
              (* raw garbage of the same length *)
              Bytes.init n (fun _ -> Char.chr (Fault_plan.Prng.int rng 256))
        in
        let decoded_ok = ref 0 and rejected = ref 0 in
        for i = 0 to 1999 do
          let original = List.nth originals (i mod 3) in
          let mutated = mutate original in
          match Protocol.decode mutated with
          | Ok _ -> incr decoded_ok
          | Error _ -> incr rejected
          | exception e ->
              Alcotest.failf "decode raised %s on %S" (Printexc.to_string e)
                (Bytes.to_string mutated)
        done;
        (* Most mutants must be rejected; a byte flip inside the nonce
           still decodes (there is no checksum), so some survive. *)
        check_bool "mutants were rejected" true (!rejected > 1000);
        check_bool "some benign mutants decode" true (!decoded_ok > 0));
  ]

(* --- Verifier backoff ---------------------------------------------------------- *)

let send_slices v ~until =
  let sent = ref [] in
  for at = 0 to until do
    match Verifier.poll v ~at with
    | Some _ -> sent := at :: !sent
    | None -> ()
  done;
  List.rev !sent

let ka = Bytes.make 20 'k'
let some_id = Task_id.of_image (Bytes.of_string "backoff-target")

let backoff_tests =
  [
    Alcotest.test_case "default schedule is the fixed timeout" `Quick (fun () ->
        let v = Verifier.create ~ka ~expected:some_id ~max_attempts:4 () in
        check_bool "every 8 slices" true
          (send_slices v ~until:40 = [ 0; 8; 16; 24 ]));
    Alcotest.test_case "backoff doubles up to the cap" `Quick (fun () ->
        let v =
          Verifier.create ~ka ~expected:some_id ~max_attempts:5
            ~backoff:{ Verifier.base_slices = 2; cap_slices = 8; jitter_slices = 0 }
            ()
        in
        (* waits 2, 4, 8, 8 → sends at 0, 2, 6, 14, 22 *)
        check_bool "doubling, then capped" true
          (send_slices v ~until:60 = [ 0; 2; 6; 14; 22 ]));
    Alcotest.test_case "jitter is deterministic per session" `Quick (fun () ->
        let make () =
          Verifier.create ~ka ~expected:some_id ~max_attempts:6
            ~backoff:Verifier.default_backoff ()
        in
        let a = send_slices (make ()) ~until:300 in
        let b = send_slices (make ()) ~until:300 in
        check_bool "same schedule" true (a = b);
        check_int "all attempts made" 6 (List.length a));
    Alcotest.test_case "refusal threshold defers settling" `Quick (fun () ->
        let v =
          Verifier.create ~ka ~expected:some_id ~refusals_to_settle:2 ()
        in
        ignore (Verifier.poll v ~at:0);
        let refusal seq = Protocol.encode (Protocol.Refusal { seq }) in
        (* The verifier's seq comes from a global counter; recover it by
           probing: a mismatched seq is just counted as rejected. *)
        Verifier.on_frame v (refusal (-1));
        check_bool "still pending after stray refusal" true
          (Verifier.outcome v = Verifier.Pending);
        (* Feed refusals with every plausible seq until it settles. *)
        let rec feed seq =
          if seq < 10_000 && Verifier.outcome v = Verifier.Pending then begin
            Verifier.on_frame v (refusal seq);
            Verifier.on_frame v (refusal seq);
            feed (seq + 1)
          end
        in
        feed 0;
        check_bool "two matching refusals settle" true
          (Verifier.outcome v = Verifier.Refused));
  ]

(* --- Supervisor recovery -------------------------------------------------------- *)

let supervised_platform ?(policy = Supervisor.default_policy) ?watchdog_timeout
    () =
  let config = { Platform.default_config with trace_enabled = true } in
  let p = Platform.create ~config () in
  let tcb =
    Result.get_ok (Platform.load_blocking p ~name:"worker" (Chaos.steady_worker ()))
  in
  let sup = Supervisor.create p in
  let watchdog =
    Option.map
      (fun timeout ->
        Platform.attach_watchdog p ~name:"wd" ~base:0xF100_0000 ~irq:5 ~timeout)
      watchdog_timeout
  in
  Supervisor.supervise sup tcb ~policy ?watchdog ();
  (p, sup, tcb)

let supervisor_tests =
  [
    Alcotest.test_case "clean crash: re-measured, restarted, backoff" `Quick
      (fun () ->
        let p, sup, tcb = supervised_platform () in
        Platform.run_ticks p 3;
        Kernel.kill_task (Platform.kernel p) tcb;
        check_bool "waiting for backoff" true
          (Supervisor.state_of sup ~name:"worker"
          = Some Supervisor.Waiting_restart);
        Platform.run_ticks p 12;
        check_bool "running again" true
          (Supervisor.state_of sup ~name:"worker" = Some Supervisor.Running);
        check_int "one restart" 1 (Supervisor.restarts sup);
        let fresh = Option.get (Supervisor.tcb_of sup ~name:"worker") in
        check_bool "a new incarnation" true (fresh.Tcb.id <> tcb.Tcb.id);
        check_bool "trace recorded the decision" true
          (Trace.find (Platform.trace p) ~source:"supervisor"
             ~substring:"restarted and re-attested"
          <> None));
    Alcotest.test_case "bit-flipped image: quarantined, never restarted" `Quick
      (fun () ->
        let p, sup, tcb = supervised_platform () in
        Platform.run_ticks p 3;
        let mem = Platform.memory p in
        let addr = tcb.Tcb.code_base + 12 in
        Memory.write8 mem addr (Memory.read8 mem addr lxor 0x10);
        Kernel.kill_task (Platform.kernel p) tcb;
        check_bool "quarantined" true
          (Supervisor.state_of sup ~name:"worker" = Some Supervisor.Quarantined);
        Platform.run_ticks p 20;
        check_bool "still quarantined" true
          (Supervisor.state_of sup ~name:"worker" = Some Supervisor.Quarantined);
        check_int "no restart ever" 0 (Supervisor.restarts sup);
        (* The kernel's task table keeps terminated TCBs; "not reloaded"
           means no fresh incarnation ever appeared. *)
        check_bool "not reloaded" true
          (List.for_all
             (fun (t : Tcb.t) ->
               t.Tcb.name <> "worker"
               || (t.Tcb.id = tcb.Tcb.id && t.Tcb.state = Tcb.Terminated))
             (Kernel.all_tasks (Platform.kernel p)));
        check_bool "trace says why" true
          (Trace.find (Platform.trace p) ~source:"supervisor"
             ~substring:"quarantine worker"
          <> None));
    Alcotest.test_case "hung task: watchdog bite, restart" `Quick (fun () ->
        let tick = Platform.default_config.Platform.tick_period in
        let p, sup, tcb = supervised_platform ~watchdog_timeout:(4 * tick) () in
        Platform.run_ticks p 6;
        check_int "healthy: no bite" 0 (Supervisor.bites sup);
        Platform.suspend p tcb;
        Platform.run_ticks p 20;
        check_int "bite detected the hang" 1 (Supervisor.bites sup);
        check_bool "recovered" true
          (Supervisor.state_of sup ~name:"worker" = Some Supervisor.Running);
        check_int "restarted once" 1 (Supervisor.restarts sup);
        check_bool "watchdog trace event" true
          (Trace.find (Platform.trace p) ~source:"watchdog"
             ~substring:"missed its deadline"
          <> None));
    Alcotest.test_case "restart budget exhausts into gave-up" `Quick (fun () ->
        let policy =
          {
            Supervisor.max_restarts = 1;
            backoff_base_ticks = 1;
            backoff_cap_ticks = 2;
          }
        in
        let p, sup, tcb = supervised_platform ~policy () in
        Platform.run_ticks p 2;
        Kernel.kill_task (Platform.kernel p) tcb;
        Platform.run_ticks p 10;
        check_bool "restarted once" true
          (Supervisor.state_of sup ~name:"worker" = Some Supervisor.Running);
        let fresh = Option.get (Supervisor.tcb_of sup ~name:"worker") in
        Kernel.kill_task (Platform.kernel p) fresh;
        Platform.run_ticks p 10;
        check_bool "budget spent" true
          (Supervisor.state_of sup ~name:"worker" = Some Supervisor.Gave_up);
        check_int "gave-up counted" 1 (Supervisor.gave_up sup));
  ]

(* --- The bundled chaos campaign -------------------------------------------------- *)

let chaos_tests =
  [
    Alcotest.test_case "campaign: quarantine + restart + re-attestation" `Slow
      (fun () ->
        let r = Chaos.run ~seed:1 () in
        check_bool "survived" true r.Chaos.survived;
        check_int "one supervised restart" 1 r.Chaos.restarts;
        check_int "one quarantine" 1 r.Chaos.quarantined;
        check_int "one watchdog bite" 1 r.Chaos.bites;
        check_bool "restarted worker re-attested over the hostile link" true
          r.Chaos.reattested;
        check_bool "faults actually injected" true
          (List.assoc "bit-flip" r.Chaos.injected > 0
          && List.assoc "task-kill" r.Chaos.injected = 1);
        check_bool "report renders" true
          (String.length (Chaos.to_string r) > 0));
    Alcotest.test_case "campaign is bit-for-bit reproducible" `Slow (fun () ->
        let a = Chaos.run ~seed:23 () in
        let b = Chaos.run ~seed:23 () in
        check_bool "identical reports (incl. trace digest)" true (a = b);
        let c = Chaos.run ~seed:24 () in
        check_bool "different seed, different trace" true
          (c.Chaos.trace_digest <> a.Chaos.trace_digest));
  ]

(* --- Static-verifier fuzzing ------------------------------------------------- *)

(* Tycheck.check is the loader's vet gate: whatever bytes survive
   Telf.decode, the analysis must terminate with a report — degenerate
   inputs become Format violations, never exceptions. *)
let tycheck_fuzz_tests =
  let module Telf = Tytan_telf.Telf in
  let module Tycheck = Tytan_analysis.Tycheck in
  [
    Alcotest.test_case "tycheck never raises on random images" `Quick
      (fun () ->
        let rng = Fault_plan.Prng.create 0x7C4E in
        for _ = 1 to 500 do
          let n = 32 + Fault_plan.Prng.int rng 480 in
          let b =
            Bytes.init n (fun _ -> Char.chr (Fault_plan.Prng.int rng 256))
          in
          (* Most random buffers fail header validation; graft the real
             magic onto half of them so more reach the analysis. *)
          if Fault_plan.Prng.int rng 2 = 0 then
            Bytes.blit_string Telf.magic 0 b 0 (String.length Telf.magic);
          match Telf.decode b with
          | Error _ -> ()
          | Ok telf -> (
              match Tycheck.check telf with
              | report -> ignore (Tycheck.ok report)
              | exception e ->
                  Alcotest.failf "tycheck raised %s" (Printexc.to_string e))
        done);
    Alcotest.test_case "tycheck never raises on mutated binaries" `Quick
      (fun () ->
        let rng = Fault_plan.Prng.create 0x51A7 in
        let original = Telf.encode (Tytan_tasks.Task_lib.counter ()) in
        let decoded = ref 0 in
        for _ = 1 to 1000 do
          let b = Bytes.copy original in
          let n = Bytes.length b in
          (match Fault_plan.Prng.int rng 3 with
          | 0 ->
              (* flip bits somewhere, header included *)
              let pos = Fault_plan.Prng.int rng n in
              Bytes.set b pos
                (Char.chr
                   (Char.code (Bytes.get b pos)
                   lxor (1 + Fault_plan.Prng.int rng 255)))
          | 1 ->
              (* clobber a whole instruction slot with garbage *)
              let slot = Fault_plan.Prng.int rng (n / 8) in
              for k = 0 to 7 do
                if (slot * 8) + k < n then
                  Bytes.set b ((slot * 8) + k)
                    (Char.chr (Fault_plan.Prng.int rng 256))
              done
          | _ ->
              (* corrupt a header field *)
              let pos = Fault_plan.Prng.int rng (min n Telf.header_size) in
              Bytes.set b pos (Char.chr (Fault_plan.Prng.int rng 256)));
          match Telf.decode b with
          | Error _ -> ()
          | Ok telf -> (
              incr decoded;
              match Tycheck.check telf with
              | report ->
                  (* a mutated image may or may not verify, but the
                     report must always be well-formed *)
                  ignore (Tycheck.violations report)
              | exception e ->
                  Alcotest.failf "tycheck raised %s" (Printexc.to_string e))
        done;
        check_bool "some mutants reached the analysis" true (!decoded > 0));
  ]

let () =
  Alcotest.run "fault"
    [
      ("plan", plan_tests @ List.map QCheck_alcotest.to_alcotest prng_props);
      ("memory-hooks", memory_tests);
      ("watchdog", watchdog_tests);
      ("link-faults", link_tests);
      ("protocol-fuzz", fuzz_tests);
      ("tycheck-fuzz", tycheck_fuzz_tests);
      ("verifier-backoff", backoff_tests);
      ("supervisor", supervisor_tests);
      ("chaos", chaos_tests);
    ]
