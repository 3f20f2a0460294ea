(* The five workloads.

   Each one calls the libraries' public entry points directly.  A
   workload's [prepare size ~seed] does the set-up (timed as [setup_s])
   and returns the workload call (timed as [host_s]); the call returns
   an [outcome] holding the simulated statistics, the per-layer counts
   read off the report, and every output check that failed.

   Workload inputs come only from [seed].  Simulated statistics are
   deterministic, so every repetition of one seed must reproduce the same
   [fingerprint] (a report digest), and seed 1 at full size must
   reproduce the pinned one. *)

open Tytan_machine
open Tytan_rtos
open Tytan_core
module Tasks = Tytan_tasks.Task_lib
module Swarm = Tytan_provision.Swarm
module Registry = Tytan_provision.Registry
module Gateway = Tytan_serve.Gateway
module Rollout = Tytan_ota.Rollout
module Obs = Tytan_obs.Obs

type size = Full | Smoke

type outcome = {
  ops : int;
  sim_failed : int;  (** ops whose simulated outcome is a failure *)
  verifier_cycles : int;
  device_cycles : int;
  settle_slices : int;
  latency_cycles : (int * int) option;  (** p50, p99 *)
  fingerprint : string;
  problems : string list;
  counts : (string * float) list;
}

type t = {
  name : string;
  op : string;  (** what one op is *)
  prepare : size -> seed:int -> ?obs:Obs.Log.t -> unit -> outcome;
  extras :
    size ->
    seed:int ->
    untraced_host_s:float ->
    fingerprint:string ->
    (string * float) list * string list;
      (** traced-run-only metrics and the checks they failed *)
  pinned : string;  (** seed-1 full-size fingerprint *)
}

let failures checks =
  List.filter_map (fun (ok, what) -> if ok then None else Some what) checks

(* Run [f] under a span of this name; return its result and its wall
   seconds rescaled to nominal host speed (see Reference). *)
let timed name f =
  Spans.with_span name (fun () ->
      let (r, wall), scale =
        Reference.bracket (fun () ->
            let t0 = Spans.now_ns () in
            let r = f () in
            (r, Reference.seconds_since t0))
      in
      (r, wall *. scale))

let digest_line rendering =
  match List.rev (String.split_on_char '\n' (String.trim rendering)) with
  | last :: _ -> last
  | [] -> ""

let count_chars chars s =
  String.fold_left (fun n c -> if String.contains chars c then n + 1 else n) 0 s

let sum f l = List.fold_left (fun n x -> n + f x) 0 l
let per a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* --- platform-run: the paper's Table 1 use case ------------------------ *)

let pedal_addr = 0xF100_0000
let radar_addr = 0xF100_0010
let actuator_addr = 0xF100_0020

let load_exn p ?priority ?secure name telf =
  match Platform.load_blocking p ~name ?priority ?secure telf with
  | Ok tcb -> tcb
  | Error e -> failwith (name ^ ": " ^ e)

(* The use-case platform with seeded sensor streams. *)
let use_case_platform ?(pedal0 = 40) ?(radar0 = 10) () =
  let p = Platform.create () in
  ignore
    (Platform.attach_sensor p ~name:"pedal" ~base:pedal_addr
       ~sample:(fun ~cycles -> pedal0 + (cycles / 1_000_000 mod 20)));
  ignore
    (Platform.attach_sensor p ~name:"radar" ~base:radar_addr
       ~sample:(fun ~cycles -> radar0 + (cycles / 2_000_000 mod 10)));
  ignore (Platform.attach_console p ~base:actuator_addr);
  p

(* Secure t0 (engine control) and t1 (pedal) are loaded at set-up; the
   call runs 120 ticks, one at a time, and submits t2 (radar, padded so
   that loading it takes the paper's ~27.8 ms, about 42 ticks) for
   interruptible loading at a seeded tick in 36..44 — so the call spans
   the before, while and after phases of Table 1. *)
let platform_prepare size ~seed =
  let ticks, first_submit, pad =
    match size with Full -> (120, 36, 1385) | Smoke -> (60, 4, 0)
  in
  let rng = Random.State.make [| seed |] in
  let submit_at = first_submit + Random.State.int rng 9 in
  let pedal0 = 30 + Random.State.int rng 20 in
  let radar0 = 5 + Random.State.int rng 10 in
  let p = use_case_platform ~pedal0 ~radar0 () in
  let t0 = load_exn p ~priority:5 "t0-engine" (Tasks.cruise_controller ~actuator_addr) in
  let t0_id = (Option.get (Rtm.find_by_tcb (Option.get (Platform.rtm p)) t0)).Rtm.id in
  ignore
    (load_exn p ~priority:4 "t1-pedal"
       (Tasks.sensor_feeder ~sensor_addr:pedal_addr ~controller:t0_id ~tag:1 ()));
  let t2 =
    Tasks.sensor_feeder ~sensor_addr:radar_addr ~controller:t0_id ~tag:2
      ~pad_instructions:pad ()
  in
  fun ?obs:(_ : Obs.Log.t option) () ->
    let cpu = Platform.cpu p and clock = Platform.clock p in
    let kernel = Platform.kernel p in
    let i0 = Cpu.instructions_retired cpu and c0 = Cycles.now clock in
    let s0 = Kernel.context_switches kernel in
    for tick = 1 to ticks do
      if tick = submit_at then Platform.submit_load p ~name:"t2-radar" t2;
      Spans.with_span "platform.tick" (fun () -> Platform.run_ticks p 1)
    done;
    let instructions = Cpu.instructions_retired cpu - i0 in
    let cycles = Cycles.now clock - c0 in
    let switches = Kernel.context_switches kernel - s0 in
    let rows = Platform.cycle_attribution p in
    let total = Cycles.now clock in
    {
      ops = instructions;
      sim_failed = 0;
      verifier_cycles = 0;
      device_cycles = cycles;
      settle_slices = 0;
      latency_cycles = None;
      fingerprint =
        Printf.sprintf "instructions=%d cycles=%d context_switches=%d"
          instructions cycles switches;
      problems =
        failures
          [
            (instructions > 0, "no guest instruction retired");
            (Kernel.find_task_by_name kernel "t2-radar" <> None, "t2 never loaded");
            ( sum snd rows = total,
              "Platform.cycle_attribution does not sum to Cycles.now" );
          ];
      counts =
        [
          ("machine.instructions", float_of_int instructions);
          ("machine.cpi", per cycles instructions);
          ("rtos.context_switches", float_of_int switches);
          ( "core.os_cycle_share_permille",
            1000.0 *. per (List.assoc "(os)" rows) total );
        ];
    }

let no_extras _ ~seed:_ ~untraced_host_s:_ ~fingerprint:_ = ([], [])

(* --- fleet-sweep / fleet-steady: Swarm.run, incremental mode ------------ *)

(* Both run on one domain: on a shared 2-vCPU host, 2-domain timings
   spread 9-12% across runs, too wide to gate; the traced run measures
   the 2-domain twin instead (domain_pool.speedup_2).

   An epoch lasts until its slowest session settles, and every slice
   visits every device.  fleet-sweep's faults pin that length to the
   give-up cap; fleet-steady runs 1% link loss, because at the default
   10% the slowest of its devices' retries set epoch 0's length (133 to
   264 slices by seed) and with it the host time. *)
type swarm_cfg = {
  devices : int;
  epochs : int;
  faults : bool;
  loss : int;
  steady : bool;
  churn : int;
}

let sweep_cfg = function
  | Full -> { devices = 1024; epochs = 4; faults = true; loss = 10; steady = false; churn = 0 }
  | Smoke -> { devices = 64; epochs = 2; faults = true; loss = 10; steady = false; churn = 0 }

let steady_cfg = function
  | Full -> { devices = 4096; epochs = 8; faults = false; loss = 1; steady = true; churn = 10 }
  | Smoke -> { devices = 256; epochs = 3; faults = false; loss = 1; steady = true; churn = 10 }

let swarm_run c ~seed ?obs ?(domains = 1) ?(epochs = c.epochs) ?(devices = c.devices)
    ?(faults = c.faults) ?(loss = c.loss) () =
  Spans.with_span "swarm.run" (fun () ->
      Swarm.run ~mode:Swarm.Incremental ~devices ~epochs ~seed ~faults
        ~loss_percent:loss ?obs ~domains ~steady:c.steady ~churn_permille:c.churn ())

(* The verifier clock is charged for hash compressions, cache lookups
   (every report check and health poll), root checks (every healthy
   poll) and liveness (every carried device); its crypto cycles are what
   remains after the other three. *)
let swarm_outcome c (r : Swarm.report) =
  let epochs = r.per_epoch in
  let ops = c.devices * List.length epochs in
  let total f = sum f epochs in
  let carried = total (fun e -> e.Swarm.carried) in
  let hits = total (fun e -> e.Swarm.cache_hits) in
  let misses = total (fun e -> e.Swarm.cache_misses) in
  let healthy = total (fun e -> e.Swarm.healthy_polls) in
  let polls = r.queries_per_epoch * ops in
  let liveness = carried * Cost_model.swarm_liveness in
  let crypto_cycles =
    r.verifier_cycles - liveness
    - ((hits - healthy + misses + polls) * Cost_model.swarm_cache_lookup)
    - (healthy * Cost_model.swarm_root_check)
  in
  {
    ops;
    sim_failed = total (fun e -> count_chars "G?" e.Swarm.verdicts);
    verifier_cycles = r.verifier_cycles;
    device_cycles = r.device_cycles;
    settle_slices = total (fun e -> e.Swarm.slices);
    latency_cycles = None;
    fingerprint = digest_line (Swarm.to_string r);
    problems =
      failures
        [
          (not (Swarm.campaign_failed r), "campaign_failed: a session never settled");
          (c.faults || r.survived, "a fault-free campaign lost a device");
          (List.length epochs = c.epochs, "wrong number of epochs");
          ( List.for_all
              (fun (e : Swarm.epoch_stats) -> e.challenged + e.carried = c.devices)
              epochs,
            "challenged + carried <> devices in some epoch" );
        ];
    counts =
      [
        ("swarm.challenged", float_of_int (total (fun e -> e.Swarm.challenged)));
        ("swarm.carried", float_of_int carried);
        ("aggregator.cache_hits", float_of_int hits);
        ("aggregator.cache_misses", float_of_int misses);
        ("aggregator.batches", float_of_int (total (fun e -> e.Swarm.batches)));
        ("aggregator.polls", float_of_int polls);
        ("aggregator.healthy_polls", float_of_int healthy);
        ("registry.key_derivations", float_of_int r.key_derivations);
        ("link.frames_sent", float_of_int r.frames_sent);
        ("link.frames_dropped", float_of_int r.frames_dropped);
        ("link.frames_delivered", float_of_int r.frames_delivered);
        ( "swarm.sim_crypto_share_permille",
          1000.0 *. per crypto_cycles r.verifier_cycles );
        ( "swarm.sim_liveness_share_permille",
          1000.0 *. per (carried * Cost_model.swarm_liveness) r.verifier_cycles );
      ];
  }

(* Swarm.run provisions its fleet inside the call, so set-up is the
   campaign's fixed cost: one device on a clean link for one epoch. *)
let swarm_prepare cfg size ~seed =
  let c = cfg size in
  ignore (swarm_run c ~seed ~epochs:1 ~devices:1 ~faults:false ~loss:0 ());
  fun ?obs () -> swarm_outcome c (swarm_run c ~seed ?obs ())

let swarm_extras cfg size ~seed ~untraced_host_s ~fingerprint =
  let c = cfg size in
  let same r = digest_line (Swarm.to_string r) = fingerprint in
  let _, t_epoch0 = timed "one-epoch-run" (fun () -> swarm_run c ~seed ~epochs:1 ()) in
  let two, t_two = timed "two-domain-run" (fun () -> swarm_run c ~seed ~domains:2 ()) in
  ( [
      ("swarm.epoch0_host_s", t_epoch0);
      ( "swarm.steady_epoch_host_s",
        (untraced_host_s -. t_epoch0) /. float_of_int (max 1 (c.epochs - 1)) );
      ("domain_pool.speedup_2", untraced_host_s /. t_two);
    ],
    failures [ (same two, "1-domain and 2-domain reports differ") ] )

(* --- serve-overload: Gateway.run, open loop ----------------------------- *)

type serve_cfg = { s_devices : int; slices : int; rate : int }

let serve_cfg = function
  | Full -> { s_devices = 4096; slices = 256; rate = 24000 }
  | Smoke -> { s_devices = 512; slices = 64; rate = 24000 }

let serve_outcome (r : Gateway.report) =
  let link k = Option.value ~default:0 (List.assoc_opt k r.link) in
  let tele k = Option.value ~default:0 (List.assoc_opt k r.telemetry) in
  {
    ops = r.arrivals;
    sim_failed = Gateway.shed r + r.timed_out;
    verifier_cycles = r.verifier_cycles;
    device_cycles = r.device_cycles;
    settle_slices = r.total_slices;
    latency_cycles = Some (r.p50_cycles, r.p99_cycles);
    fingerprint = digest_line (Gateway.to_string r);
    problems =
      failures
        [
          (r.arrivals > 0, "no arrival offered");
          (Gateway.settled r = r.admitted, "settled <> admitted");
          (r.max_queue_depth <= r.queue_bound, "pending queue exceeded its bound");
        ];
    counts =
      [
        ("gateway.evictions", float_of_int r.evictions);
        ( "gateway.store_hit_permille",
          1000.0 *. per (max 0 (r.admitted - r.key_derivations)) r.admitted );
        ("gateway.stale_frames", float_of_int r.stale_frames);
        ("gateway.malformed_frames", float_of_int r.malformed_frames);
        ("registry.key_derivations", float_of_int r.key_derivations);
        ("link.frames_sent", float_of_int (link "sent"));
        ("link.frames_dropped", float_of_int (link "dropped"));
        ("link.frames_delivered", float_of_int (link "delivered"));
        ("aggregator.batches", float_of_int r.batches);
        ("aggregator.cache_hits", float_of_int (tele "swarm.cache_hits"));
        ("aggregator.cache_misses", float_of_int (tele "swarm.cache_misses"));
      ];
  }

let serve_run c ~seed ?obs () =
  Spans.with_span "gateway.run" (fun () ->
      Gateway.run ~faults:true ?obs ~devices:c.s_devices ~slices:c.slices
        ~arrival_permille:c.rate ~seed ())

let serve_prepare size ~seed =
  let c = serve_cfg size in
  ignore (Gateway.create ~faults:true ~fault_horizon:c.slices ~devices:c.s_devices ~seed ());
  fun ?obs () -> serve_outcome (serve_run c ~seed ?obs ())

(* Nearest-rank percentile of a non-empty list. *)
let percentile q l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

(* The gateway driven slice by slice through create/arrive/step by the
   benchmark's own seeded open-loop generator (same rate and fleet as
   Gateway.run, its own arrival stream), so every arrival and step gets
   a span, then drained like Gateway.run drains. *)
let serve_driven c ~seed =
  let g = Gateway.create ~faults:true ~fault_horizon:c.slices ~devices:c.s_devices ~seed () in
  let rng = Random.State.make [| seed; 0x5e4e |] in
  let depth = ref [] and inflight = ref [] in
  let step () = Spans.with_span "gateway.step" (fun () -> Gateway.step g) in
  for _ = 1 to c.slices do
    let n =
      (c.rate / 1000)
      + if Random.State.int rng 1000 < c.rate mod 1000 then 1 else 0
    in
    for _ = 1 to n do
      let device = Random.State.int rng c.s_devices in
      ignore (Spans.with_span "gateway.arrive" (fun () -> Gateway.arrive g ~device))
    done;
    depth := float_of_int (Gateway.pending_depth g) :: !depth;
    step ();
    inflight := float_of_int (Gateway.inflight_count g) :: !inflight
  done;
  let drained () = Gateway.pending_depth g = 0 && Gateway.inflight_count g = 0 in
  let budget = ref 10_000 in
  while (not (drained ())) && !budget > 0 do
    step ();
    decr budget
  done;
  let us name q = 1e6 *. percentile q (Spans.durations name) in
  ( [
      ("gateway.step_us.p50", us "gateway.step" 0.50);
      ("gateway.step_us.p99", us "gateway.step" 0.99);
      ("gateway.arrive_us.p50", us "gateway.arrive" 0.50);
      ("gateway.arrive_us.p99", us "gateway.arrive" 0.99);
      ("gateway.pending_depth.p50", percentile 0.50 !depth);
      ("gateway.pending_depth.max", percentile 1.0 !depth);
      ("gateway.inflight.p50", percentile 0.50 !inflight);
    ],
    failures [ (drained (), "driven gateway did not drain") ] )

let serve_extras size ~seed ~untraced_host_s:_ ~fingerprint:_ =
  Spans.with_span "gateway.driven" (fun () -> serve_driven (serve_cfg size) ~seed)

(* --- ota-rollout: Rollout.run, the waves `tytan ota --stale --leaky` builds *)

type ota_cfg = { o_devices : int; canary : int }

let ota_cfg = function
  | Full -> { o_devices = 1024; canary = 16 }
  | Smoke -> { o_devices = 64; canary = 16 }

(* Clean waves 1..4, a version-1 replay, then a key-leaking image: the
   first four promote, the last two abort at the canaries. *)
let ota_waves () =
  let clean k =
    { Rollout.label = Printf.sprintf "clean-%d" k; version = k; image = Tasks.yielder ~count:(2 + k) () }
  in
  List.init 4 (fun i -> clean (i + 1))
  @ [
      { Rollout.label = "stale-replay"; version = 1; image = Tasks.yielder ~count:3 () };
      {
        Rollout.label = "leaky";
        version = 5;
        image = Tasks.key_leaker ~receiver:(Task_id.of_image (Bytes.of_string "exfil-sink")) ();
      };
    ]

(* In an aborted wave only canaries — the first [canary] devices not
   already quarantined — may carry a verdict other than '.' or 'Q'. *)
let only_canaries_touched ~canary verdicts =
  let seen = ref 0 and ok = ref true in
  String.iter
    (fun v ->
      if v <> 'Q' then begin
        if !seen >= canary && v <> '.' then ok := false;
        incr seen
      end)
    verdicts;
  !ok

let ota_outcome c (r : Rollout.report) ~derivations =
  let waves = r.waves in
  let applied = sum (fun (w : Rollout.wave_stats) -> w.applied) waves in
  {
    ops = sum (fun (w : Rollout.wave_stats) -> w.offered) waves;
    sim_failed = sum (fun (w : Rollout.wave_stats) -> w.gave_up + w.crashed) waves;
    verifier_cycles = r.controller_cycles;
    device_cycles = r.device_cycles;
    settle_slices = sum (fun (w : Rollout.wave_stats) -> w.slices) waves;
    latency_cycles = None;
    fingerprint = digest_line (Rollout.to_string r);
    problems =
      failures
        [
          (not (Rollout.campaign_failed r), "campaign_failed: a verdict never settled");
          (r.survived, "a fault-free rollout lost a device");
          ( List.map (fun (w : Rollout.wave_stats) -> w.promoted) waves
            = [ true; true; true; true; false; false ],
            "clean waves must promote and the stale and leaky waves abort" );
          ( List.for_all
              (fun (w : Rollout.wave_stats) ->
                (not w.aborted) || only_canaries_touched ~canary:c.canary w.verdicts)
              waves,
            "an aborted wave reached a non-canary device" );
        ];
    counts =
      [
        ("ota.update_cycles_per_applied", per r.update_cycles applied);
        ("ota.rollback_refusal_cycles", float_of_int r.rollback_refusal_cycles);
        ("ota.frames_sent", float_of_int r.frames_sent);
        ("link.frames_sent", float_of_int r.frames_sent);
        ("link.frames_dropped", float_of_int r.frames_dropped);
        ("link.frames_delivered", float_of_int r.frames_delivered);
        ("registry.key_derivations", float_of_int derivations);
      ];
  }

let ota_run c ~seed ?obs ~registry ~incumbent waves () =
  let derivations = ref 0 in
  let platform_key_of ~serial =
    incr derivations;
    Registry.platform_key registry ~serial
  in
  let r =
    Spans.with_span "rollout.run" (fun () ->
        Rollout.run ~devices:c.o_devices ~canary:c.canary ~seed ?obs
          ~platform_key_of ~incumbent waves)
  in
  (r, !derivations)

(* The manufacturer registry, keyed as `tytan ota` keys it. *)
let ota_registry seed =
  Registry.create
    ~master:(Bytes.of_string (Printf.sprintf "fleet-master-%08x" (seed land 0xFFFF_FFFF)))

(* Set-up builds the inputs: the incumbent image, the six wave images
   and the manufacturer registry. *)
let ota_prepare size ~seed =
  let c = ota_cfg size in
  let incumbent = Tasks.counter () and waves = ota_waves () in
  let registry = ota_registry seed in
  fun ?obs () ->
    let r, derivations = ota_run c ~seed ?obs ~registry ~incumbent waves () in
    ota_outcome c r ~derivations

let all =
  [
    {
      name = "platform-run";
      op = "simulated instruction";
      prepare = platform_prepare;
      extras = no_extras;
      pinned = "instructions=1135859 cycles=4119529 context_switches=982";
    };
    {
      name = "fleet-sweep";
      op = "device-epoch verdict";
      prepare = swarm_prepare sweep_cfg;
      extras = swarm_extras sweep_cfg;
      pinned = "digest: sha1:77c8602ed92d8da07447dbc16d217e57bd15657d";
    };
    {
      name = "fleet-steady";
      op = "device-epoch verdict";
      prepare = swarm_prepare steady_cfg;
      extras = swarm_extras steady_cfg;
      pinned = "digest: sha1:917d11edbd9023b6a5b33e2ec5922d4a9b7b792a";
    };
    {
      name = "serve-overload";
      op = "arrival";
      prepare = serve_prepare;
      extras = serve_extras;
      pinned = "digest: sha1:1c99217ca5d69d0d13da240683f9935f6eb4dba9";
    };
    {
      name = "ota-rollout";
      op = "device-wave offer";
      prepare = ota_prepare;
      extras = no_extras;
      pinned = "digest: sha1:ce401752d31a96b0c1c64e05c2e233bec74bf5e0";
    };
  ]
