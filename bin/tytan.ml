(* tytan — command-line front end for the simulated TyTAN platform.

     tytan boot [--baseline]         boot a device, print the memory map
     tytan run [--ticks N] [--tasks K]
                                     boot, load K secure tasks, run, report
     tytan attest                    run a remote-attestation exchange
     tytan inspect                   dump the EA-MPU rule set after boot
     tytan disasm                    disassemble the example secure task
     tytan stats [--json]            run the instrumented demo, dump metrics
     tytan trace [--out FILE]        event log, or a Perfetto-loadable trace
     tytan fleet [--steady]          swarm-attestation campaign
     tytan serve [--arrival A]       verifier gateway under seeded load
     tytan ota [--leaky] [--stale]   canary firmware rollout, the one push
     tytan audit [--trail CORR]      flight-recorder trails, SLOs, chain check
     tytan lint [--flow] [--strict]  tycheck static verification
     tytan chaos [--verify]          fault-injection campaign
     tytan cfa [--local] [--loss N]  control-flow attestation demonstration

   See also: dune exec bench/main.exe (tables) and examples/. *)

open Cmdliner
open Tytan_machine
open Tytan_rtos
open Tytan_core
module Tasks = Tytan_tasks.Task_lib
module Telemetry = Tytan_telemetry.Telemetry
module Export = Tytan_telemetry.Export

let make_platform baseline =
  if baseline then Platform.create ~config:Platform.baseline_config ()
  else Platform.create ()

let baseline_flag =
  Arg.(value & flag & info [ "baseline" ] ~doc:"Unmodified FreeRTOS (no TyTAN).")

(* An integer flag in [lo, hi]: a value the engine would reject is
   refused while parsing, so it exits 124 like any other bad argument. *)
let int_in ?(hi = max_int) lo =
  let parse s =
    Result.bind (Arg.conv_parser Arg.int s) (fun n ->
        if lo <= n && n <= hi then Ok n
        else if hi = max_int then
          Error (`Msg (Printf.sprintf "must be at least %d, got %d" lo n))
        else Error (`Msg (Printf.sprintf "must be in %d..%d, got %d" lo hi n)))
  in
  Arg.conv ~docv:"INT" (parse, Arg.conv_printer Arg.int)

let positive = int_in 1
let non_negative = int_in 0
let percent = int_in ~hi:100 0

(* --- boot ----------------------------------------------------------------- *)

let boot baseline =
  let p = make_platform baseline in
  Printf.printf "%s booted.\n"
    (if baseline then "Unmodified FreeRTOS" else "TyTAN");
  Printf.printf "OS memory: %d bytes\n" (Platform.os_memory_bytes p);
  Printf.printf "Tick: every %d cycles (%.2f kHz at %d MHz)\n"
    (Platform.config p).Platform.tick_period
    (float_of_int Cycles.clock_hz
    /. float_of_int (Platform.config p).Platform.tick_period
    /. 1000.0)
    (Cycles.clock_hz / 1_000_000);
  print_endline "Memory map:";
  List.iter
    (fun (name, region) ->
      Printf.printf "  %-16s %s (%d bytes)\n" name
        (Format.asprintf "%a" Tytan_eampu.Region.pp region)
        (Tytan_eampu.Region.size region))
    (Platform.memory_map p)

let boot_cmd =
  Cmd.v (Cmd.info "boot" ~doc:"Boot a device and print its memory map")
    Term.(const boot $ baseline_flag)

(* --- run ------------------------------------------------------------------- *)

let run baseline ticks task_count =
  let p = make_platform baseline in
  let secure = not baseline in
  let tasks =
    List.init task_count (fun i ->
        let telf = Tasks.counter ~secure () in
        let name = Printf.sprintf "task-%d" i in
        match Platform.load_blocking p ~name ~secure telf with
        | Ok tcb -> (tcb, telf)
        | Error e ->
            Printf.eprintf "tytan: cannot load %s: %s\n" name e;
            exit 2)
  in
  Printf.printf "Loaded %d %s task(s); running %d ticks...\n" task_count
    (if secure then "secure" else "normal")
    ticks;
  Platform.run_ticks p ticks;
  let kernel = Platform.kernel p in
  List.iter
    (fun ((tcb : Tcb.t), telf) ->
      let count =
        let eip =
          match Platform.rtm p with
          | Some rtm when tcb.secure -> Rtm.code_eip rtm
          | Some _ | None -> Kernel.code_eip kernel
        in
        Cpu.with_firmware (Platform.cpu p) ~eip (fun () ->
            Cpu.load32 (Platform.cpu p)
              (tcb.region_base + Tasks.data_cell_offset telf))
      in
      Printf.printf "  %-10s ran %d times (%d activations)\n" tcb.name count
        tcb.activations)
    tasks;
  Printf.printf "ticks=%d context switches=%d faults=%d cycles=%d (%.1f ms)\n"
    (Kernel.tick_count kernel)
    (Kernel.context_switches kernel)
    (Kernel.faults kernel)
    (Cycles.now (Platform.clock p))
    (Cycles.to_ms (Cycles.now (Platform.clock p)));
  print_endline "CPU usage:";
  List.iter
    (fun ((tcb : Tcb.t), share) ->
      if share > 0.0005 then
        Printf.printf "  %-12s %5.1f %%\n" tcb.name (100.0 *. share))
    (Kernel.cpu_usage kernel)

let run_cmd =
  let ticks =
    Arg.(value & opt non_negative 100 & info [ "ticks" ] ~doc:"Ticks to simulate.")
  in
  let tasks =
    Arg.(
      value & opt non_negative 3 & info [ "tasks" ] ~doc:"Periodic tasks to load.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Boot, load periodic tasks and run the scheduler")
    Term.(const run $ baseline_flag $ ticks $ tasks)

(* --- attest ---------------------------------------------------------------- *)

let attest () =
  let p = Platform.create () in
  let telf = Tasks.counter () in
  let task = Result.get_ok (Platform.load_blocking p ~name:"fw" telf) in
  Platform.run_ticks p 3;
  let rtm = Option.get (Platform.rtm p) in
  let id = (Option.get (Rtm.find_by_tcb rtm task)).Rtm.id in
  let att = Option.get (Platform.attestation p) in
  let nonce = Bytes.of_string "cli-nonce" in
  let report = Option.get (Attestation.remote_attest att ~id ~nonce) in
  let ka =
    Attestation.derive_ka ~platform_key:(Platform.config p).Platform.platform_key
  in
  Printf.printf "task identity:  %s\n" (Task_id.to_hex id);
  Printf.printf "report MAC:     %s\n"
    (Tytan_crypto.Sha1.to_hex report.Attestation.mac);
  Printf.printf "verifier check: %b\n"
    (Attestation.verify ~ka report ~expected:(Rtm.identity_of_telf telf) ~nonce)

let attest_cmd =
  Cmd.v (Cmd.info "attest" ~doc:"Run a remote-attestation exchange")
    Term.(const attest $ const ())

(* --- inspect --------------------------------------------------------------- *)

let inspect () =
  let p = Platform.create () in
  let telf = Tasks.counter () in
  ignore (Platform.load_blocking p ~name:"example-task" telf);
  Format.printf "%a@." Tytan_eampu.Eampu.pp (Option.get (Platform.eampu p))

let inspect_cmd =
  Cmd.v
    (Cmd.info "inspect"
       ~doc:"Dump the EA-MPU rule set of a booted device with one task")
    Term.(const inspect $ const ())

(* --- disasm --------------------------------------------------------------- *)

let disasm () =
  let telf = Tasks.counter () in
  Printf.printf "Disassembly of the example 'counter' secure task (%d bytes text):\n"
    telf.Tytan_telf.Telf.text_size;
  let lines =
    Disasm.of_bytes (Bytes.sub telf.Tytan_telf.Telf.image 0 telf.Tytan_telf.Telf.text_size)
  in
  Format.printf "%a@." Disasm.pp lines;
  Printf.printf "(+ %d bytes of data, %d relocation(s))\n"
    (Bytes.length telf.Tytan_telf.Telf.image - telf.Tytan_telf.Telf.text_size)
    (Tytan_telf.Telf.reloc_count telf)

let disasm_cmd =
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassemble the example secure task binary")
    Term.(const disasm $ const ())

(* --- telemetry demo workload (stats / trace --out) ------------------------- *)

let pmu_base = 0xF200_0000

(* The workload behind [stats] and [trace --out]: a fully instrumented
   device running secure-IPC traffic and a periodic worker, followed by a
   remote-attestation exchange over a mildly lossy link — so the span
   timeline carries kernel, ipc, rtm, loader and net regions.  Everything
   is seeded; the same invocation always produces the same registry and
   trace (the golden test depends on it). *)
let telemetry_demo ~ticks =
  let open Tytan_netsim in
  let config =
    { Platform.default_config with trace_enabled = true; telemetry_enabled = true }
  in
  let p = Platform.create ~config () in
  let pmu = Platform.attach_pmu p ~base:pmu_base in
  let rtm = Option.get (Platform.rtm p) in
  let load name telf =
    match Platform.load_blocking p ~name telf with
    | Ok tcb -> tcb
    | Error e -> failwith (Printf.sprintf "tytan: loading %s failed: %s" name e)
  in
  let rtelf = Tasks.ipc_receiver () in
  let receiver = load "echo" rtelf in
  let rid = (Option.get (Rtm.find_by_tcb rtm receiver)).Rtm.id in
  ignore
    (load "chatter" (Tasks.ipc_sender ~receiver:rid ~message0:9 ~repeat:true ()));
  ignore (load "worker" (Tasks.counter ()));
  Platform.run_ticks p ticks;
  let link = Link.create ~seed:11 ~loss_percent:15 ~duplicate_percent:5 () in
  let cosim = Cosim.create p ~link () in
  let ka =
    Attestation.derive_ka ~platform_key:(Platform.config p).Platform.platform_key
  in
  let verifier =
    Verifier.create ~ka ~expected:(Rtm.identity_of_telf rtelf) ~max_attempts:20 ()
  in
  Cosim.attach_verifier cosim verifier;
  ignore (Cosim.run_until_settled cosim ~max_slices:120);
  Cosim.record_link_gauges cosim;
  (p, pmu)

(* --- stats ----------------------------------------------------------------- *)

let stats json ticks =
  let p, pmu = telemetry_demo ~ticks in
  let tel = Platform.telemetry p in
  if json then
    print_string
      (Export.stats_json
         ~attribution:(Platform.cycle_attribution p)
         ~total_cycles:(Cycles.now (Platform.clock p))
         tel)
  else begin
    let total = Cycles.now (Platform.clock p) in
    Printf.printf "total cycles: %d (%.2f ms)\n" total (Cycles.to_ms total);
    print_endline "per-task cycle attribution:";
    List.iter
      (fun (name, cycles) -> Printf.printf "  %-12s %10d\n" name cycles)
      (Platform.cycle_attribution p);
    (* Read the PMU over MMIO so the register map (and its honest read
       cost) shows up in the report. *)
    let dev = Devices.Pmu.device pmu in
    let cycles_lo = dev.Memory.read32 ~offset:0 in
    let instret_lo = dev.Memory.read32 ~offset:8 in
    let ctxsw = dev.Memory.read32 ~offset:16 in
    Printf.printf
      "pmu @ 0x%08X: CYCLES_LO=%d INSTRET_LO=%d CTXSW=%d (reads served: %d)\n"
      pmu_base cycles_lo instret_lo ctxsw
      (Devices.Pmu.reads pmu);
    print_string (Export.summary tel);
    print_endline "span timeline (excerpt):";
    print_string (Export.text_timeline ~limit:20 tel)
  end

let stats_cmd =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable output.")
  in
  let ticks =
    Arg.(value & opt non_negative 10 & info [ "ticks" ] ~doc:"Ticks to simulate.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run the instrumented demo workload and dump the telemetry \
          registry: counters, gauges, cycle histograms, per-task cycle \
          attribution and the PMU registers")
    Term.(const stats $ json $ ticks)

(* --- trace ---------------------------------------------------------------- *)

let trace_run ticks out =
  match out with
  | None ->
      let config = { Platform.default_config with trace_enabled = true } in
      let p = Platform.create ~config () in
      let telf = Tasks.counter () in
      ignore (Platform.load_blocking p ~name:"traced" telf);
      Platform.run_ticks p ticks;
      Format.printf "%a@." Trace.pp (Platform.trace p)
  | Some path ->
      let p, _pmu = telemetry_demo ~ticks in
      let tel = Platform.telemetry p in
      let json = Export.chrome_trace tel (Platform.trace p) in
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc json);
      Printf.printf
        "wrote %s: %d spans + %d trace events (load in Perfetto / \
         chrome://tracing)\n"
        path
        (Telemetry.spans_recorded tel)
        (List.length (Trace.events (Platform.trace p)))

let trace_cmd =
  let ticks =
    Arg.(value & opt non_negative 5 & info [ "ticks" ] ~doc:"Ticks to trace.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome-trace-event JSON timeline of the instrumented \
             demo workload to $(docv) instead of dumping the text log.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run with event tracing and dump the event log, or export a \
          Perfetto-loadable span timeline with --out")
    Term.(const trace_run $ ticks $ out)

(* --- shared by the campaign commands --------------------------------------- *)

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Campaign PRNG seed.")

let loss =
  Arg.(
    value & opt percent 10 & info [ "loss" ] ~doc:"Uplink frame loss, percent.")

let verify =
  Arg.(
    value & flag
    & info [ "verify" ] ~doc:"Run the campaign twice and compare reports.")

(* [--verify]: run the campaign again and compare; exit 1 on divergence. *)
let reproduce ~verify ~equal ~run report =
  if verify then
    if equal report (run ()) then
      print_endline "reproducibility: second run identical (same digest)"
    else begin
      print_endline "reproducibility: RUNS DIVERGED";
      exit 1
    end

(* --- fleet ---------------------------------------------------------------- *)

let fleet devices epochs seed faults mode loss domains steady churn verify =
  let open Tytan_provision in
  if steady && mode <> Swarm.Incremental then begin
    prerr_endline "tytan: --steady requires --mode incremental";
    exit 124
  end;
  let run () =
    Swarm.run ~mode ~devices ~epochs ~seed ~faults ~loss_percent:loss ~domains
      ~steady ~churn_permille:churn ()
  in
  let report = run () in
  print_string (Swarm.to_string report);
  reproduce ~verify ~equal:Swarm.equal ~run report;
  (* A session that never settled is the campaign engine's own failure,
     faults or no faults — CI gates on it. *)
  if Swarm.campaign_failed report then begin
    prerr_endline "tytan: fleet campaign failed: unsettled session verdicts";
    exit 3
  end;
  (* Without injected faults every device is honest, so a lost device is
     an infrastructure failure worth a non-zero exit; with --faults a
     broken device is the experiment working as designed. *)
  if (not report.Swarm.survived) && not faults then exit 2

let fleet_cmd =
  let devices =
    Arg.(value & opt positive 64 & info [ "devices" ] ~doc:"Fleet size.")
  in
  let epochs =
    Arg.(
      value & opt positive 4
      & info [ "epochs" ] ~doc:"Fresh-nonce attestation rounds.")
  in
  let faults =
    Arg.(
      value & flag
      & info [ "faults" ]
          ~doc:
            "Inject a seeded device-fault schedule (firmware tampers, kills, \
             one-epoch hangs) and link corruption/duplication/reordering.")
  in
  let mode =
    let open Tytan_provision.Swarm in
    let modes = List.map (fun m -> (mode_label m, m)) [ Incremental; Scalar ] in
    Arg.(
      value & opt (enum modes) Incremental
      & info [ "mode" ]
          ~doc:
            "Verifier engine: $(b,incremental) (aggregator with persistent \
             Merkle leaves, dirty-path recompute, sparse epoch deltas) or \
             $(b,scalar) (stateless baseline).")
  in
  let domains =
    Arg.(
      value & opt positive 1
      & info [ "domains" ]
          ~doc:
            "Shard host-side verification across this many OCaml domains. \
             Devices are pinned to shards by contiguous index ranges, so the \
             report is bit-identical to --domains 1.")
  in
  let steady =
    Arg.(
      value & flag
      & info [ "steady" ]
          ~doc:
            "Steady-state verification (incremental mode only): after a full \
             epoch-0 sweep, only devices whose continuity broke are \
             re-challenged; the rest are carried on liveness (verdict 'a').")
  in
  let churn =
    Arg.(
      value & opt (int_in ~hi:1000 0) 0
      & info [ "churn" ]
          ~doc:
            "Reboot this permille of the fleet per epoch on a seeded \
             schedule (forces re-challenge in steady state).")
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Run a fleet-scale swarm-attestation campaign: N provers over lossy \
          links, K fresh-nonce epochs, incremental epoch-persistent Merkle \
          aggregation with a measurement cache (optionally --steady), or the \
          scalar baseline (--mode scalar); --domains D shards verification \
          bit-identically")
    Term.(
      const fleet $ devices $ epochs $ seed $ faults $ mode $ loss $ domains
      $ steady $ churn $ verify)

(* --- serve ----------------------------------------------------------------- *)

let serve devices slices rate seed faults loss arrival think verify =
  let open Tytan_serve in
  let arrival =
    match arrival with
    | `Open -> Gateway.Open_loop
    | `Closed -> Gateway.Closed_loop { think }
  in
  let run () =
    Gateway.run ~devices ~slices ~arrival_permille:rate ~seed ~faults
      ~loss_percent:loss ~arrival ()
  in
  let report = run () in
  print_string (Gateway.to_string report);
  reproduce ~verify ~equal:Gateway.equal ~run report;
  if Gateway.campaign_failed report then begin
    prerr_endline "tytan: serve campaign failed: gateway invariant violated";
    exit 3
  end

let serve_cmd =
  let devices =
    Arg.(value & opt positive 256 & info [ "devices" ] ~doc:"Fleet size.")
  in
  let slices =
    Arg.(
      value & opt positive 512
      & info [ "slices" ] ~doc:"Slices of offered load before the drain.")
  in
  let rate =
    Arg.(
      value & opt non_negative 4000
      & info [ "arrival-rate" ]
          ~doc:"Offered load: session arrivals per 1000 slices.")
  in
  let faults =
    Arg.(
      value & flag
      & info [ "faults" ]
          ~doc:
            "Inject a seeded network-fault schedule (burst loss, device \
             stalls, late replies) and link corruption/duplication/reordering.")
  in
  let arrival =
    Arg.(
      value
      & opt (enum [ ("open", `Open); ("closed", `Closed) ]) `Open
      & info [ "arrival" ]
          ~doc:
            "Load generator: $(b,open) (offered load ignores the gateway — \
             overload possible) or $(b,closed) (each device waits for its \
             previous session to settle, then thinks --think slices).")
  in
  let think =
    Arg.(
      value & opt non_negative 8
      & info [ "think" ]
          ~doc:"Closed-loop think time, slices between settle and next ask.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the verifier gateway under seeded load (open- or closed-loop): \
          admission control, per-device rate limits, deadlines, circuit \
          breakers and graceful load shedding over lossy links")
    Term.(
      const serve $ devices $ slices $ rate $ seed $ faults $ loss $ arrival
      $ think $ verify)

(* --- ota -------------------------------------------------------------------- *)

(* [clean] benign waves, versions 1..clean, then optionally a replay of
   version 1 and a key-exfiltrating wave. *)
let ota_waves ~clean ~stale ~leaky =
  let module Rollout = Tytan_ota.Rollout in
  let clean_wave k =
    (* Distinct code bytes per wave (the yield count is an immediate),
       so every promotion changes the fleet's attested identity. *)
    { Rollout.label = Printf.sprintf "clean-%d" k;
      version = k;
      image = Tasks.yielder ~count:(2 + k) () }
  in
  List.init clean (fun i -> clean_wave (i + 1))
  @ (if stale then
       [ { Rollout.label = "stale-replay";
           version = 1;
           image = Tasks.yielder ~count:3 () } ]
     else [])
  @
  if leaky then
    [ { Rollout.label = "leaky";
        version = clean + 1;
        image =
          Tasks.key_leaker
            ~receiver:(Task_id.of_image (Bytes.of_string "exfil-sink"))
            () } ]
  else []

(* The OTA fleet's platform keys come from the fleet registry. *)
let platform_key_of seed =
  let module Registry = Tytan_provision.Registry in
  let registry = Registry.of_seed ~name:"fleet" seed in
  fun ~serial -> Registry.platform_key registry ~serial

let ota devices epochs canary seed faults loss stale leaky verify =
  let module Rollout = Tytan_ota.Rollout in
  if canary > devices then begin
    prerr_endline "tytan: --canary must be in 1..devices";
    exit 124
  end;
  let incumbent = Tasks.counter () in
  let waves = ota_waves ~clean:epochs ~stale ~leaky in
  let run () =
    Rollout.run ~devices ~canary ~seed ~faults ~loss_percent:loss
      ~platform_key_of:(platform_key_of seed) ~incumbent waves
  in
  let report = run () in
  print_string (Rollout.to_string report);
  reproduce ~verify ~equal:Rollout.equal ~run report;
  (* A device verdict that never settled is the rollout engine's own
     failure, faults or no faults. *)
  if Rollout.campaign_failed report then begin
    prerr_endline "tytan: ota campaign failed: unsettled device verdicts";
    exit 3
  end;
  (* Without injected faults no device may be lost to a crash or an
     unreachable link; refusals (rollback, vet) are verdicts, not
     losses. *)
  if (not report.Rollout.survived) && not faults then exit 2

let ota_cmd =
  let devices =
    Arg.(value & opt positive 24 & info [ "devices" ] ~doc:"Fleet size.")
  in
  let epochs =
    Arg.(
      value & opt positive 3
      & info [ "epochs" ]
          ~doc:"Clean firmware waves, versions 1..K, each canaried.")
  in
  let canary =
    Arg.(
      value & opt positive 4
      & info [ "canary" ]
          ~doc:
            "Canary cohort size; promotion is gated on every canary applying \
             and re-attesting.  --canary equal to --devices is a flat \
             (ungated) rollout.")
  in
  let faults =
    Arg.(
      value & flag
      & info [ "faults" ]
          ~doc:
            "Inject a seeded OTA fault schedule (truncated update frames, \
             counter-reset attempts, canary crashes mid-swap) and link \
             corruption/duplication/reordering.")
  in
  let stale =
    Arg.(
      value & flag
      & info [ "stale" ]
          ~doc:
            "Append a rollback attempt: re-offer version 1 after the fleet \
             has advanced past it.  Every canary's monotonic counter refuses \
             it and each presenting device is quarantined.")
  in
  let leaky =
    Arg.(
      value & flag
      & info [ "leaky" ]
          ~doc:
            "Append a key-leaker wave.  The canaries' six-check vet refuses \
             it on-device and the wave aborts before any non-canary stages a \
             byte.")
  in
  Cmd.v
    (Cmd.info "ota"
       ~doc:
         "Run a staged fleet firmware campaign: signed update offers over \
          lossy links, go-back-N chunking, per-device monotonic anti-rollback \
          counters, canary cohorts gated on six-check vetting plus post-swap \
          attestation, and fleet-wide abort with quarantine on any gate \
          failure")
    Term.(
      const ota $ devices $ epochs $ canary $ seed $ faults $ loss $ stale
      $ leaky $ verify)

(* --- audit ----------------------------------------------------------------- *)

module Obs = Tytan_obs.Obs

let write_text path text =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc text)

let audit devices slices canary seed faults trail slo verify_chain tamper
    json_path perfetto_path =
  let module Gateway = Tytan_serve.Gateway in
  let module Swarm = Tytan_provision.Swarm in
  let module Rollout = Tytan_ota.Rollout in
  let tamper_kind =
    Option.map
      (function
        | `Truncate -> Obs.Log.Truncate
        | `Splice -> Obs.Log.Splice
        | `Bitflip -> Obs.Log.Bit_flip (seed land 0xFFFF))
      tamper
  in
  (* One flight recorder across all three fleet engines: a gateway
     campaign, a staged OTA campaign whose final stale wave aborts and
     quarantines its canaries (so the trail has a causal chain worth
     walking), and an incremental swarm epoch pair sealing Merkle roots. *)
  let log = Obs.Log.create () in
  let serve_report =
    Gateway.run ~devices ~slices ~arrival_permille:4000 ~seed ~faults
      ~loss_percent:10 ~obs:log ()
  in
  let ota_devices = min devices 24 in
  let ota_report =
    Rollout.run ~devices:ota_devices ~canary:(min canary ota_devices) ~seed
      ~faults ~loss_percent:10 ~obs:log ~platform_key_of:(platform_key_of seed)
      ~incumbent:(Tasks.counter ())
      (ota_waves ~clean:2 ~stale:true ~leaky:false)
  in
  let swarm_report =
    Swarm.run ~mode:Swarm.Incremental ~devices:(min devices 32) ~epochs:2 ~seed
      ~faults ~loss_percent:10 ~obs:log ()
  in
  (* Engine invariants first: an unsettled verdict or a broken gateway
     bound is an infrastructure failure, not an audit finding. *)
  if
    Gateway.campaign_failed serve_report
    || Rollout.campaign_failed ota_report
    || Swarm.campaign_failed swarm_report
  then begin
    prerr_endline "tytan: audit campaigns failed: engine invariant violated";
    exit 3
  end;
  (* SLO scan before export, so breach records are part of the chain. *)
  let indicators = Obs.Slo.scan log in
  let breached =
    List.length (List.filter (fun i -> i.Obs.Slo.breached) indicators)
  in
  Printf.printf "audit: records=%d corr_ids=%d head=sha256:%s\n"
    (Obs.Log.length log)
    (List.length (Obs.Log.corr_ids log))
    (Obs.Log.head_hex log);
  Printf.printf "  serve: arrivals=%d attested=%d shed=%d quarantine_trips=%d\n"
    serve_report.Gateway.arrivals serve_report.Gateway.attested
    (Gateway.shed serve_report) serve_report.Gateway.quarantine_trips;
  Printf.printf "  ota: waves=%d promoted=%d aborted=%d quarantined=%d\n"
    (List.length ota_report.Rollout.waves)
    (List.length
       (List.filter (fun w -> w.Rollout.promoted) ota_report.Rollout.waves))
    (List.length
       (List.filter (fun w -> w.Rollout.aborted) ota_report.Rollout.waves))
    (List.length ota_report.Rollout.quarantined);
  Printf.printf "  fleet: epochs=%d survived=%s\n"
    swarm_report.Swarm.epochs
    (if swarm_report.Swarm.survived then "yes" else "no");
  Printf.printf "  slo: indicators=%d breached=%d\n"
    (List.length indicators) breached;
  (match trail with
  | "" -> ()
  | corr ->
      if not (List.mem_assoc corr (Obs.Log.corr_ids log)) then begin
        Printf.eprintf "tytan: unknown correlation id %S\n" corr;
        exit 124
      end;
      let members = Obs.Trail.members log ~corr in
      let recs = Obs.Trail.trace log ~corr in
      Printf.printf "trail %s: %d members, %d records\n" corr
        (List.length members) (List.length recs);
      List.iter
        (fun (r : Obs.record) ->
          Printf.printf "  #%d at=%d %s%s %s %s\n" r.Obs.seq r.Obs.at
            r.Obs.corr
            (match r.Obs.parent with Some p -> " <- " ^ p | None -> "")
            (Obs.Event.label r.Obs.event)
            (Obs.Event.render r.Obs.event))
        recs);
  if slo then
    List.iter
      (fun (i : Obs.Slo.indicator) ->
        Printf.printf "slo %s window=%d value=%d threshold=%d %s\n"
          i.Obs.Slo.name i.Obs.Slo.window_start i.Obs.Slo.value
          i.Obs.Slo.threshold
          (if i.Obs.Slo.breached then "BREACH" else "ok"))
      indicators;
  (match json_path with
  | None -> ()
  | Some path ->
      write_text path (Obs.to_json ~slo:indicators log);
      Printf.printf "wrote %s: %d records + %d slo indicators\n" path
        (Obs.Log.length log) (List.length indicators));
  (match perfetto_path with
  | None -> ()
  | Some path ->
      let clock = Cycles.create () in
      let tel = Telemetry.create ~per_event_cost:0 ~per_span_cost:0 clock in
      let flows = Obs.flows_of_log log in
      let marks = Obs.marks_of_log log in
      let json = Export.chrome_trace ~flows ~marks tel (Trace.create clock) in
      write_text path json;
      Printf.printf
        "wrote %s: %d marks + %d flow arrows (load in Perfetto / \
         chrome://tracing)\n"
        path (List.length marks) (List.length flows));
  if verify_chain || tamper_kind <> None then begin
    let trail_bytes = Obs.Log.export log in
    let trail_bytes =
      match tamper_kind with
      | None -> trail_bytes
      | Some k -> Obs.Log.tamper k trail_bytes
    in
    match Obs.Log.verify_chain ~expected_head:(Obs.Log.head_hex log) trail_bytes with
    | Ok s ->
        if tamper_kind <> None then begin
          (* The whole point of the chain is that this cannot happen. *)
          prerr_endline "tytan: tampered trail verified clean";
          exit 3
        end;
        Printf.printf "chain ok: records=%d head=sha256:%s\n" s.Obs.Log.total
          s.Obs.Log.head
    | Error msg ->
        if tamper_kind = None then begin
          prerr_endline ("tytan: clean trail failed verification: " ^ msg);
          exit 3
        end;
        Printf.printf "tamper detected: %s\n" msg;
        exit 1
  end

let audit_cmd =
  let devices =
    Arg.(
      value & opt positive 64 & info [ "devices" ] ~doc:"Gateway fleet size.")
  in
  let slices =
    Arg.(
      value & opt positive 256
      & info [ "slices" ] ~doc:"Gateway slices of offered load.")
  in
  let canary =
    Arg.(
      value & opt positive 4
      & info [ "canary" ]
          ~doc:"OTA canary cohort size, capped at the audit's OTA fleet.")
  in
  let faults =
    Arg.(
      value & flag
      & info [ "faults" ]
          ~doc:"Inject the seeded fault schedules in all three campaigns.")
  in
  let trail =
    Arg.(
      value & opt string ""
      & info [ "trail" ] ~docv:"CORR"
          ~doc:
            "Reconstruct the causal trail of a correlation id (e.g. \
             $(b,serve/epoch-0), $(b,ota/wave-2), $(b,fleet/epoch-1) or a \
             per-session id): ancestors, the id itself, and every \
             descendant's records in log order.")
  in
  let slo =
    Arg.(
      value & flag
      & info [ "slo" ]
          ~doc:
            "Print every windowed SLO indicator (shed rate, p99 settle \
             latency, quarantine count, OTA abort rate), breached or not.")
  in
  let verify_chain =
    Arg.(
      value & flag
      & info [ "verify-chain" ]
          ~doc:
            "Export the trail and re-derive the hash chain and sequence \
             numbering; exit 1 on any divergence.")
  in
  let tamper =
    Arg.(
      value
      & opt
          (some
             (enum
                [
                  ("truncate", `Truncate); ("splice", `Splice);
                  ("bitflip", `Bitflip);
                ]))
          None
      & info [ "tamper" ] ~docv:"KIND"
          ~doc:
            "Inject a fault into the exported trail before verification: \
             $(b,truncate), $(b,splice) or $(b,bitflip).  The audit must \
             detect it (exit 1); a tampered trail verifying clean is an \
             engine failure (exit 3).")
  in
  let json_path =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the full audit payload (chain, records, SLOs) as JSON.")
  in
  let perfetto_path =
    Arg.(
      value & opt (some string) None
      & info [ "perfetto" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome-trace file with one mark per record and a flow \
             arrow per causal edge (load in Perfetto).")
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Run seeded serve + OTA + fleet campaigns under one flight \
          recorder, then answer for them: causal trails per correlation id, \
          windowed SLO indicators, and tamper-evident hash-chain \
          verification of the exported trail")
    Term.(
      const audit $ devices $ slices $ canary $ seed $ faults $ trail $ slo
      $ verify_chain $ tamper $ json_path $ perfetto_path)

(* --- lint ------------------------------------------------------------------ *)

module Tycheck = Tytan_analysis.Tycheck

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let n = in_channel_length ic in
      let b = Bytes.create n in
      really_input ic b 0 n;
      b)

let demo_tasklang =
  let open Tytan_lang.Ast in
  program
    ~globals:[ ("acc", 0) ]
    [
      While
        ( Int 1,
          [
            Repeat (8, [ Assign ("acc", Binop (Add, Var "acc", Int 1)) ]);
            Delay (Int 1);
          ] );
    ]

(* The --flow demo rows exercise the fifth/sixth checks: declared
   senders must stay clean, the key-leaker exploit must be refused. *)
let demo_secret_tasklang =
  let open Tytan_lang.Ast in
  program
    ~globals:[ ("key", 0) ]
    ~secrets:[ "key" ]
    [ Store (Int 0xF000_3000, Var "key"); Exit ]

let finding_json (f : Tytan_analysis.Finding.t) =
  Printf.sprintf "{\"check\":%s,\"severity\":%s,\"pc\":%s,\"message\":%s}"
    (Export.json_string (Tytan_analysis.Finding.check_name f.check))
    (Export.json_string
       (String.lowercase_ascii
          (Tytan_analysis.Finding.severity_name f.severity)))
    (match f.offset with Some pc -> string_of_int pc | None -> "null")
    (Export.json_string f.message)

let report_json name accepted (r : Tycheck.report) =
  Printf.sprintf
    "{\"name\":%s,\"accepted\":%b,\"violations\":%d,\"wcet\":%s,\"stack\":%s,\"findings\":[%s]}"
    (Export.json_string name) accepted
    (List.length (Tycheck.violations r))
    (match r.Tycheck.wcet with
    | `Cycles n -> string_of_int n
    | `Unbounded -> "null")
    (match r.Tycheck.stack with
    | `Bytes n -> string_of_int n
    | `Unbounded -> "null")
    (String.concat "," (List.map finding_json r.Tycheck.findings))

let lint strict flow json_path demo mmio files =
  let config =
    let base =
      if flow then Tycheck.flow_config else Tycheck.default_config
    in
    match mmio with [] -> base | ws -> { base with Tycheck.windows = ws }
  in
  let accepts r = if strict then Tycheck.strict_ok r else Tycheck.ok r in
  let failures = ref 0 and parse_failures = ref 0 in
  let results = ref [] in
  let record name report =
    results := report_json name (accepts report) report :: !results
  in
  let print_report label report =
    Format.printf "@[<v 2>%s:@,%a@]@.@." label Tycheck.pp_report report
  in
  if demo then begin
    let expect label verdict report =
      record label report;
      let passed = accepts report in
      let outcome_ok = match verdict with `Pass -> passed | `Flag -> not passed in
      if not outcome_ok then incr failures;
      Format.printf "[%s] "
        (if outcome_ok then
           match verdict with `Pass -> "PASS" | `Flag -> "FLAGGED"
         else "UNEXPECTED");
      print_report label report
    in
    let check telf = Tycheck.check ~config telf in
    print_endline "Benign binaries (expected to verify):";
    expect "counter" `Pass (check (Tasks.counter ()));
    expect "sensor-poller" `Pass
      (check (Tasks.sensor_poller ~sensor_addr:0xF400_0000 ()));
    expect "ipc-receiver" `Pass (check (Tasks.ipc_receiver ()));
    expect "yielder" `Pass (check (Tasks.yielder ()));
    expect "tasklang-repeat" `Pass
      (Tytan_lang.Compile.check ~config demo_tasklang);
    if flow then begin
      let peer = Task_id.of_image (Bytes.of_string "demo-peer") in
      expect "ipc-sender (declared peer)" `Pass
        (check (Tasks.ipc_sender ~receiver:peer ()));
      expect "sensor-feeder (declared controller)" `Pass
        (check
           (Tasks.sensor_feeder ~sensor_addr:0xF400_0000 ~controller:peer
              ~tag:1 ()));
      expect "tasklang-secret-to-mac" `Pass
        (Tytan_lang.Compile.check ~config demo_secret_tasklang)
    end;
    print_endline "Malicious / defective binaries (expected to be flagged):";
    expect "spy" `Flag (check (Tasks.spy ~victim_addr:0x0000_4000));
    expect "entry-bypass" `Flag
      (check (Tasks.entry_bypass ~victim_entry:0x0000_5000 ~offset:16));
    expect "idt-attacker" `Flag (check (Tasks.idt_attacker ~idt_addr:0x100));
    if flow then begin
      let peer = Task_id.of_image (Bytes.of_string "demo-peer") in
      let decoy = Task_id.of_image (Bytes.of_string "demo-decoy") in
      expect "key-leaker (decoy manifest)" `Flag
        (check (Tasks.key_leaker ~decoy ~receiver:peer ()));
      expect "key-leaker (no manifest)" `Flag
        (check (Tasks.key_leaker ~receiver:peer ()))
    end;
    let busy = Tycheck.check ~config (Tasks.busy_loop ()) in
    (* busy_loop is isolated but never yields: flagged only as an
       unbounded-WCET unknown, so it fails strict verification. *)
    record "busy-loop (strict only)" busy;
    let busy_ok = (not (Tycheck.strict_ok busy)) && Tycheck.ok busy in
    if not busy_ok then incr failures;
    Format.printf "[%s] " (if busy_ok then "FLAGGED" else "UNEXPECTED");
    print_report "busy-loop (strict only)" busy
  end;
  List.iter
    (fun path ->
      match read_file path with
      | exception Sys_error e ->
          incr parse_failures;
          Printf.printf "%s: cannot read: %s\n" path e
      | bytes -> (
          match Tytan_telf.Telf.decode bytes with
          | Error e ->
              incr parse_failures;
              Printf.printf "%s: not a valid TELF image: %s\n" path e
          | Ok telf ->
              let report = Tycheck.check ~config telf in
              record path report;
              if not (accepts report) then incr failures;
              print_report path report))
    files;
  if (not demo) && files = [] then begin
    prerr_endline "tytan: lint needs FILE arguments or --demo";
    exit 2
  end;
  (match json_path with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          Printf.fprintf oc
            "{\"strict\":%b,\"flow\":%b,\"failures\":%d,\"parse_failures\":%d,\"results\":[%s]}\n"
            strict flow !failures !parse_failures
            (String.concat "," (List.rev !results))));
  if !parse_failures > 0 then exit 3;
  if !failures > 0 then exit 1

let lint_cmd =
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Fail on unknowns (unverifiable accesses, unbounded WCET) as \
                well as proven violations.")
  in
  let flow =
    Arg.(
      value & flag
      & info [ "flow" ]
          ~doc:"Additionally run the secret-flow and IPC-topology checks: \
                secret material must only leave through the crypto windows, \
                and every statically addressed IPC peer must be declared in \
                the binary's manifest.")
  in
  let json_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write machine-readable findings (check, severity, pc, \
                message per finding) to $(docv).")
  in
  let demo =
    Arg.(
      value & flag
      & info [ "demo" ]
          ~doc:"Verify the built-in example binaries: benign tasks must pass, \
                the malicious ones must be flagged.")
  in
  let mmio =
    let window_conv =
      let parse s =
        match String.index_opt s ':' with
        | None -> Error (`Msg "expected BASE:SIZE")
        | Some i -> (
            try
              Ok
                ( int_of_string (String.sub s 0 i),
                  int_of_string
                    (String.sub s (i + 1) (String.length s - i - 1)) )
            with Failure _ -> Error (`Msg "expected BASE:SIZE (0x… accepted)"))
      in
      let print ppf (b, sz) = Format.fprintf ppf "0x%X:%d" b sz in
      Arg.conv (parse, print)
    in
    Arg.(
      value & opt_all window_conv []
      & info [ "mmio" ] ~docv:"BASE:SIZE"
          ~doc:"Declare an allowed MMIO/IPC window (repeatable); replaces the \
                default 0xF0000000:0x10000000 window.")
  in
  let files =
    Arg.(value & pos_all string [] & info [] ~docv:"FILE" ~doc:"TELF binaries.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically verify TELF task binaries (memory isolation, \
          control-flow integrity, stack bound, WCET, and with $(b,--flow) \
          secret-flow and IPC topology) without running them")
    Term.(const lint $ strict $ flow $ json_path $ demo $ mmio $ files)

(* --- chaos ----------------------------------------------------------------- *)

let chaos seed ticks verify =
  let run () = Tytan_fault.Chaos.run ~seed ~ticks () in
  let report = run () in
  print_string (Tytan_fault.Chaos.to_string report);
  reproduce ~verify ~equal:( = ) ~run report;
  if not report.Tytan_fault.Chaos.survived then exit 2

let chaos_cmd =
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Fault-plan PRNG seed.")
  in
  let ticks =
    Arg.(
      value & opt (int_in 30) 40
      & info [ "ticks" ] ~doc:"Fault-window length, ticks (at least 30).")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a seeded fault-injection campaign (bit flips, glitches, \
          interrupt storms, task kills and hangs over a hostile link) and \
          print the survival report")
    Term.(const chaos $ seed $ ticks $ verify)

(* --- cfa ------------------------------------------------------------------- *)

module Monitor = Tytan_cfa.Monitor
module Replay = Tytan_cfa.Replay

(* The control-flow attestation demonstration: an honest run of the
   dispatcher verifies, then a data-only exploit (function-pointer
   corruption) that static attestation cannot see is caught by replaying
   the device's control-flow log against the reference CFG. *)
let cfa honest_ticks attack_ticks loss local capacity =
  let open Tytan_netsim in
  let p = Platform.create () in
  let d = Tasks.gadget_dispatcher () in
  let tcb =
    match Platform.load_blocking p ~name:"dispatcher" d.Tasks.telf with
    | Ok tcb -> tcb
    | Error e ->
        Printf.eprintf "tytan: cannot load the dispatcher: %s\n" e;
        exit 2
  in
  let rtm = Option.get (Platform.rtm p) in
  let entry = Option.get (Rtm.find_by_tcb rtm tcb) in
  let monitor = Monitor.create p in
  let session =
    match Monitor.watch monitor ~tcb ~capacity () with
    | Ok s -> s
    | Error e ->
        Printf.eprintf "tytan: cannot watch the dispatcher: %s\n" e;
        exit 2
  in
  let oracle =
    match Replay.oracle_of_telf d.Tasks.telf with
    | Ok o -> o
    | Error e ->
        Printf.eprintf "tytan: cannot build the CFG oracle: %s\n" e;
        exit 2
  in
  let ka =
    Attestation.derive_ka
      ~platform_key:(Platform.config p).Platform.platform_key
  in
  let failures = ref 0 in
  let expect label ok =
    Printf.printf "  [%s] %s\n" (if ok then "ok" else "FAIL") label;
    if not ok then incr failures
  in
  (* Local mode: ask the monitor directly.  Link mode: a full verifier
     session (CfaChallenge/CfaResponse with retries) over a lossy link. *)
  let nonce_counter = ref 0 in
  let cfa_verdict () =
    if local then begin
      incr nonce_counter;
      let nonce = Bytes.of_string (Printf.sprintf "cli-nonce-%d" !nonce_counter) in
      match Monitor.attest monitor session ~nonce with
      | None -> Error "device produced no report"
      | Some r ->
          if not (Attestation.verify_cfa ~ka r ~expected:entry.Rtm.id ~nonce)
          then Error "report failed authentication"
          else Result.map (fun _ -> ()) (Replay.verify oracle r)
    end
    else begin
      let link = Link.create ~seed:7 ~loss_percent:loss () in
      let cosim = Cosim.create p ~link () in
      Cosim.set_cfa_responder cosim (Monitor.responder monitor);
      let v =
        Verifier.create ~ka ~expected:entry.Rtm.id ~max_attempts:30
          ~cfa:(Replay.checker oracle) ()
      in
      Cosim.attach_verifier cosim v;
      ignore (Cosim.run_until_settled cosim ~max_slices:1000);
      match Verifier.outcome v with
      | Verifier.Attested -> Ok ()
      | Verifier.Cfa_rejected ->
          Error (Option.value ~default:"path rejected" (Verifier.cfa_failure v))
      | outcome ->
          Error
            (match outcome with
            | Verifier.Refused -> "device refused"
            | Verifier.Gave_up -> "network: retries exhausted"
            | _ -> "session did not settle")
    end
  in
  let static_attests () =
    incr nonce_counter;
    let nonce = Bytes.of_string (Printf.sprintf "static-%d" !nonce_counter) in
    match
      Attestation.remote_attest
        (Option.get (Platform.attestation p))
        ~id:entry.Rtm.id ~nonce
    with
    | None -> false
    | Some r -> Attestation.verify ~ka r ~expected:entry.Rtm.id ~nonce
  in
  let handled () =
    Cpu.with_firmware (Platform.cpu p) ~eip:(Rtm.code_eip rtm) (fun () ->
        Cpu.load32 (Platform.cpu p) (entry.Rtm.base + d.Tasks.handler_cell + 8))
  in
  Printf.printf "dispatcher loaded; logging control flow (%s verification)\n"
    (if local then "local" else Printf.sprintf "%d%%-loss link" loss);
  Platform.run_ticks p honest_ticks;
  Printf.printf "honest phase: %d ticks, %d control-flow events, %d dispatches\n"
    honest_ticks
    (Monitor.events_logged monitor)
    (handled ());
  expect "honest run passes static attestation" (static_attests ());
  expect "honest run passes control-flow attestation" (cfa_verdict () = Ok ());
  print_endline
    "exploit: corrupting the dispatcher's function pointer (data-only write)";
  Memory.write32 (Platform.memory p)
    (entry.Rtm.base + d.Tasks.handler_cell)
    (entry.Rtm.base + d.Tasks.gadget);
  let handled_before = handled () in
  Platform.run_ticks p attack_ticks;
  expect "task keeps running, no EA-MPU fault" (tcb.Tcb.state <> Tcb.Terminated);
  expect "real handler no longer reached" (handled () = handled_before);
  expect "static attestation STILL passes (exploit invisible)"
    (static_attests ());
  (match cfa_verdict () with
  | Ok () -> expect "control-flow attestation rejects the run" false
  | Error why ->
      expect "control-flow attestation rejects the run" true;
      Printf.printf "    replay verdict: %s\n" why);
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end;
  print_endline "all checks passed: runtime compromise caught by CFA alone"

let cfa_cmd =
  let honest_ticks =
    Arg.(
      value & opt non_negative 8
      & info [ "honest-ticks" ] ~doc:"Honest warm-up ticks.")
  in
  let attack_ticks =
    Arg.(
      value & opt non_negative 8
      & info [ "attack-ticks" ] ~doc:"Ticks to run after the exploit.")
  in
  let loss =
    Arg.(
      value & opt percent 30
      & info [ "loss" ] ~doc:"Frame loss on the verification link, percent.")
  in
  let local =
    Arg.(
      value & flag
      & info [ "local" ]
          ~doc:"Verify on the device directly instead of over the network.")
  in
  let capacity =
    Arg.(
      value & opt positive 4096
      & info [ "capacity" ] ~doc:"Log ring capacity, edges.")
  in
  Cmd.v
    (Cmd.info "cfa"
       ~doc:
         "Demonstrate runtime control-flow attestation: a data-only exploit \
          that static measurement cannot see is caught by replaying the \
          device's control-flow log against the reference CFG")
    Term.(const cfa $ honest_ticks $ attack_ticks $ loss $ local $ capacity)

let () =
  let info =
    Cmd.info "tytan" ~version:"1.0.0"
      ~doc:"Simulated TyTAN trust anchor for tiny devices (DAC 2015)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            boot_cmd; run_cmd; attest_cmd; inspect_cmd; disasm_cmd; trace_cmd;
            stats_cmd; lint_cmd; fleet_cmd; serve_cmd; ota_cmd; audit_cmd;
            chaos_cmd; cfa_cmd;
          ]))
