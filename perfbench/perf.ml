(* Two-clock benchmark of the TyTAN platform and the three fleet engines.

   Run one workload (the command BENCHMARK.json names):
     dune exec perfbench/perf.exe -- \
       --workload fleet-sweep --seed 1 --seconds 10 --trace 0
   Run every workload, each in a fresh child process, one at a time:
     dune exec perfbench/perf.exe -- --seed 1
   Reduced sizes, every output check, no timing assertion:
     dune build @perfbench/perf-smoke

   --trace 0 times the workload call (after one untimed warm-up) until
   --seconds have passed and reports the end-to-end metrics.  --trace 1
   adds the unit-cost probes, traced repetitions and the workload's
   extra runs, and reports the per-layer metrics.  The last line of
   standard output is one JSON object; see README.md. *)

module W = Workloads
module Obs = Tytan_obs.Obs

(* --- metric catalogue (mirrors BENCHMARK.json) ------------------------- *)

let end_to_end =
  [
    ("host_s", "s");
    ("host_cpu_s", "s");
    ("ops_per_host_s", "1/s");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("sim_cycles_per_op", "cycles");
  ]

let per_layer =
  [
    ("machine.instructions", "count");
    ("machine.cpi", "cycles");
    ("machine.host_ns_per_instruction", "ns");
    ("machine.interp_ns_per_instruction", "ns");
    ("rtos.tick_host_us.p50", "us");
    ("rtos.tick_host_us.p98", "us");
    ("rtos.context_switches", "count");
    ("core.os_cycle_share_permille", "permille");
    ("core.use_case_tick_ns", "ns");
    ("rtos.context_switch_ns", "ns");
    ("core.load_secure_task_ns", "ns");
    ("core.rtm_measure_ns", "ns");
    ("core.mpu_install_rule_ns", "ns");
    ("telf.relocate_ns", "ns");
    ("core.platform_create_ns", "ns");
    ("core.ipc_tick_ns", "ns");
    ("crypto.sha1.compressions", "count");
    ("crypto.sha256.compressions", "count");
    ("crypto.sha1.ns_per_compression", "ns");
    ("crypto.sha256.ns_per_compression", "ns");
    ("crypto.hmac.mac_with_ns", "ns");
    ("crypto.merkle.inc_commit_ns.all_dirty", "ns");
    ("crypto.merkle.inc_commit_ns.pct1_dirty", "ns");
    ("crypto.merkle.build_ns", "ns");
    ("registry.key_derivations", "count");
    ("registry.attestation_key_ns", "ns");
    ("link.frames_sent", "count");
    ("link.frames_dropped", "count");
    ("link.frames_delivered", "count");
    ("link.ns_per_frame", "ns");
    ("protocol.encode_ns", "ns");
    ("protocol.decode_ns", "ns");
    ("aggregator.cache_hits", "count");
    ("aggregator.cache_misses", "count");
    ("aggregator.batches", "count");
    ("aggregator.polls", "count");
    ("aggregator.healthy_polls", "count");
    ("aggregator.check_report_hit_ns", "ns");
    ("aggregator.check_report_miss_ns", "ns");
    ("aggregator.query_ns", "ns");
    ("swarm.challenged", "count");
    ("swarm.carried", "count");
    ("swarm.epoch0_host_s", "s");
    ("swarm.steady_epoch_host_s", "s");
    ("swarm.sim_crypto_share_permille", "permille");
    ("swarm.sim_liveness_share_permille", "permille");
    ("domain_pool.speedup_2", "ratio");
    ("gateway.step_us.p50", "us");
    ("gateway.step_us.p99", "us");
    ("gateway.arrive_us.p50", "us");
    ("gateway.arrive_us.p99", "us");
    ("gateway.pending_depth.p50", "count");
    ("gateway.pending_depth.max", "count");
    ("gateway.inflight.p50", "count");
    ("gateway.evictions", "count");
    ("gateway.store_hit_permille", "permille");
    ("gateway.stale_frames", "count");
    ("gateway.malformed_frames", "count");
    ("ota.installer.on_frame_ns", "ns");
    ("ota.gate.vet_ns.clean", "ns");
    ("ota.gate.vet_ns.leaky", "ns");
    ("ota.update_cycles_per_applied", "cycles");
    ("ota.rollback_refusal_cycles", "cycles");
    ("ota.frames_sent", "count");
    ("obs.events", "count");
    ("obs.record_overhead_pct", "%");
    ("obs.verify_chain_ns_per_record", "ns");
    ("sim_verifier_cycles_per_op", "cycles");
    ("sim_device_cycles_per_op", "cycles");
    ("p50_latency_cycles", "cycles");
    ("p99_latency_cycles", "cycles");
    ("settle_slices", "slices");
    ("failed_permille", "permille");
    ("host.reference_speed", "ratio");
    ("attribution.untraced_host_s", "s");
    ("attribution.traced_host_s", "s");
    ("attribution.traced_host_cpu_s", "s");
    ("attribution.tracing_overhead_pct", "%");
    ("machine.host_share", "ratio");
    ("crypto.host_share", "ratio");
    ("link.host_share", "ratio");
    ("protocol.host_share", "ratio");
    ("aggregator.host_share", "ratio");
    ("attribution.unattributed_host_share", "ratio");
  ]

(* --- measurement helpers ------------------------------------------------ *)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* VmHWM: the peak resident set of this process. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc/self/status"
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> scan ()
      in
      scan ())

type rep = {
  scale : float;  (** rescales this repetition's timings to nominal host speed *)
  setup : float;
  host : float;
  cpu : float;
  sha1 : int;
  sha256 : int;
  outcome : W.outcome;
}

let seconds_between a b = Int64.to_float (Int64.sub b a) /. 1e9

(* One repetition: set-up and call, each timed, bracketed by the host
   speed reference; the heap is compacted first so repetitions start
   alike. *)
let repetition (w : W.t) size ~seed =
  Gc.compact ();
  let (setup, host, cpu, sha1, sha256, outcome), scale =
    Reference.bracket (fun () ->
        let t0 = Spans.now_ns () in
        let call = w.prepare size ~seed in
        let t1 = Spans.now_ns () in
        let c0 = cpu_s () in
        let s1 = Tytan_crypto.Sha1.total_compressions ()
        and s2 = Tytan_crypto.Sha256.total_compressions () in
        let outcome = call () in
        let t2 = Spans.now_ns () in
        ( seconds_between t0 t1,
          seconds_between t1 t2,
          cpu_s () -. c0,
          Tytan_crypto.Sha1.total_compressions () - s1,
          Tytan_crypto.Sha256.total_compressions () - s2,
          outcome ))
  in
  { scale; setup; host; cpu; sha1; sha256; outcome }

(* Repetitions until [seconds] have passed and at least [min_reps] ran. *)
let repetitions w size ~seed ~seconds ~min_reps =
  let start = Spans.now_ns () in
  let rec go acc n =
    if n >= min_reps && Reference.seconds_since start >= seconds then List.rev acc
    else go (repetition w size ~seed :: acc) (n + 1)
  in
  go [] 0

(* Every repetition must reproduce the warm-up's simulated statistics,
   and seed 1 at full size the pinned ones. *)
let problems (w : W.t) size ~seed (warm : W.outcome) reps =
  warm.problems
  @ List.concat_map
      (fun r ->
        r.outcome.W.problems
        @
        if r.outcome.fingerprint = warm.fingerprint then []
        else [ "a repetition diverged: " ^ r.outcome.fingerprint ])
      reps
  @
  if size = W.Full && seed = 1 && warm.fingerprint <> w.pinned then
    [ Printf.sprintf "seed-1 fingerprint %S, pinned %S" warm.fingerprint w.pinned ]
  else []

(* --- output --------------------------------------------------------------- *)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_metrics catalogue values =
  catalogue
  |> List.map (fun (name, unit) ->
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Spans.json_string name)
           (json_number (Option.value ~default:0.0 (List.assoc_opt name values)))
           (Spans.json_string unit))
  |> String.concat ", "
  |> Printf.sprintf "{%s}"

let print_result ~correct ~attempted ~failed ~metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    correct attempted failed metrics

let report_problems = List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p)

let row name value unit n = Printf.printf "  %-34s %16.6g %-8s n=%d\n" name value unit n
let row_na name = Printf.printf "  %-34s %16s\n" name "n/a"

(* --- untraced run: end-to-end metrics ------------------------------------ *)

(* Timings are rescaled per repetition (Reference) and summarised by
   their first quartile: host interference only ever slows a run. *)
let run_untraced (w : W.t) size ~seed ~seconds ~min_reps =
  let o = (w.prepare size ~seed) () in
  let reps = repetitions w size ~seed ~seconds ~min_reps in
  let n = List.length reps in
  let q1 f = W.percentile 0.25 (List.map (fun r -> f r *. r.scale) reps) in
  let host_s = q1 (fun r -> r.host) in
  let values =
    [
      ("host_s", host_s);
      ("host_cpu_s", q1 (fun r -> r.cpu));
      ("ops_per_host_s", float_of_int o.ops /. host_s);
      ("setup_s", q1 (fun r -> r.setup));
      ("peak_rss_mb", peak_rss_mb ());
      ("sim_cycles_per_op", W.per (o.verifier_cycles + o.device_cycles) o.ops);
    ]
  in
  Printf.printf "%s seed=%d: %d repetitions; one op = one %s (%d per call)\n" w.name seed n
    w.op o.ops;
  List.iter
    (fun (name, unit) ->
      row name (List.assoc name values) unit
        (if name = "peak_rss_mb" || name = "sim_cycles_per_op" then 1 else n))
    end_to_end;
  let sim name v = row name v "cycles" 1 in
  if o.verifier_cycles > 0 then sim "sim_verifier_cycles_per_op" (W.per o.verifier_cycles o.ops)
  else row_na "sim_verifier_cycles_per_op";
  sim "sim_device_cycles_per_op" (W.per o.device_cycles o.ops);
  (match o.latency_cycles with
  | Some (p50, p99) ->
      sim "p50_latency_cycles" (float_of_int p50);
      sim "p99_latency_cycles" (float_of_int p99)
  | None ->
      row_na "p50_latency_cycles";
      row_na "p99_latency_cycles");
  if o.settle_slices > 0 then row "settle_slices" (float_of_int o.settle_slices) "slices" 1
  else row_na "settle_slices";
  row "failed_permille" (1000.0 *. W.per o.sim_failed o.ops) "permille" 1;
  let raw f = W.percentile 0.5 (List.map f reps) in
  row "(raw wall host_s, median)" (raw (fun r -> r.host)) "s" n;
  row "(reference speed, median)" (raw (fun r -> r.scale)) "x" n;
  Printf.printf "  fingerprint: %s\n" o.fingerprint;
  let problems = problems w size ~seed o reps in
  report_problems problems;
  let correct = problems = [] in
  print_result ~correct
    ~attempted:(n * o.ops)
    ~failed:(if correct then 0 else n * o.ops)
    ~metrics:(json_metrics end_to_end values);
  correct

(* --- traced run: per-layer metrics --------------------------------------- *)

let count counts name = Option.value ~default:0.0 (List.assoc_opt name counts)

(* Host CPU seconds split across layers as count × unit cost; the
   residual makes the rows sum exactly to the traced CPU time. *)
let attribution ~counts ~probes ~(traced : rep) =
  let c = count counts and u name = List.assoc name probes *. 1e-9 in
  let layers =
    [
      ("machine.host_share", c "machine.instructions" *. u "machine.interp_ns_per_instruction");
      ( "crypto.host_share",
        (float_of_int traced.sha1 *. u "crypto.sha1.ns_per_compression")
        +. (float_of_int traced.sha256 *. u "crypto.sha256.ns_per_compression") );
      ("link.host_share", c "link.frames_sent" *. u "link.ns_per_frame");
      ( "protocol.host_share",
        (c "link.frames_sent" *. u "protocol.encode_ns")
        +. (c "link.frames_delivered" *. u "protocol.decode_ns") );
      ( "aggregator.host_share",
        ((c "aggregator.cache_hits" -. c "aggregator.healthy_polls")
         *. u "aggregator.check_report_hit_ns")
        +. (c "aggregator.polls" *. u "aggregator.query_ns") );
    ]
  in
  let base = traced.cpu in
  let residual = List.fold_left (fun r (_, s) -> r -. s) base layers in
  let shares = layers @ [ ("attribution.unattributed_host_share", residual) ] in
  Printf.printf "  attribution of %.6f host CPU s:\n" base;
  List.iter (fun (k, s) -> Printf.printf "    %-38s %10.6f s\n" k s) shares;
  List.map (fun (k, s) -> (k, s /. base)) shares

(* The engines record into the flight recorder when given a log; an
   observed re-run must render the same report, and its trail must
   verify.  No metric when the workload records nothing. *)
let observed (w : W.t) size ~seed ~untraced_host_s ~fingerprint =
  let log = Obs.Log.create () in
  let call = w.prepare size ~seed in
  let o, t_obs = W.timed "observed-run" (fun () -> call ~obs:log ()) in
  let records = Obs.Log.length log in
  if records = 0 then ([], [])
  else
    let verified, t_verify =
      W.timed "obs.verify_chain" (fun () -> Obs.Log.verify_chain (Obs.Log.export log))
    in
    ( [
        ("obs.events", float_of_int records);
        ("obs.record_overhead_pct", 100.0 *. (t_obs -. untraced_host_s) /. untraced_host_s);
        ("obs.verify_chain_ns_per_record", t_verify *. 1e9 /. float_of_int records);
      ],
      W.failures
        [
          (Result.is_ok verified, "observed trail does not verify");
          (o.fingerprint = fingerprint, "observed run differs from the unobserved one");
        ] )

let run_traced (w : W.t) size ~seed ~seconds ~min_reps ~out ~quota ~leaves =
  let warm = (w.prepare size ~seed) () in
  let untraced = repetitions w size ~seed ~seconds:(seconds /. 2.0) ~min_reps in
  let untraced_host_s = W.percentile 0.5 (List.map (fun r -> r.host *. r.scale) untraced) in
  Spans.enabled := true;
  (* Probes first, on a compact heap the workload has not grown yet. *)
  Gc.compact ();
  let probes = Spans.with_span "probes" (fun () -> Probes.run ~quota ~leaves) in
  (* As many traced repetitions as untraced minimum; the median one is
     attributed. *)
  let traced_reps =
    List.init min_reps (fun _ -> Spans.with_span w.name (fun () -> repetition w size ~seed))
    |> List.sort (fun a b -> compare (a.host *. a.scale) (b.host *. b.scale))
  in
  let traced = List.nth traced_reps (List.length traced_reps / 2) in
  let o = traced.outcome in
  let traced_host_s = traced.host *. traced.scale in
  let extras, extra_problems =
    Spans.with_span (w.name ^ ".extras") (fun () ->
        let m1, p1 = observed w size ~seed ~untraced_host_s ~fingerprint:o.fingerprint in
        let m2, p2 = w.extras size ~seed ~untraced_host_s ~fingerprint:o.fingerprint in
        (m1 @ m2, p1 @ p2))
  in
  Spans.enabled := false;
  let counts = o.counts in
  let tick_us q = 1e6 *. W.percentile q (Spans.durations "platform.tick") in
  let machine =
    match List.assoc_opt "machine.instructions" counts with
    | Some i ->
        [
          ("machine.host_ns_per_instruction", traced_host_s *. 1e9 /. i);
          ("rtos.tick_host_us.p50", tick_us 0.50);
          ("rtos.tick_host_us.p98", tick_us 0.98);
        ]
    | None -> []
  in
  let p50, p99 = Option.value ~default:(0, 0) o.latency_cycles in
  let values =
    counts @ machine @ extras @ probes
    @ attribution ~counts ~probes ~traced
    @ [
        ("crypto.sha1.compressions", float_of_int traced.sha1);
        ("crypto.sha256.compressions", float_of_int traced.sha256);
        ("sim_verifier_cycles_per_op", W.per o.verifier_cycles o.ops);
        ("sim_device_cycles_per_op", W.per o.device_cycles o.ops);
        ("p50_latency_cycles", float_of_int p50);
        ("p99_latency_cycles", float_of_int p99);
        ("settle_slices", float_of_int o.settle_slices);
        ("failed_permille", 1000.0 *. W.per o.sim_failed o.ops);
        ("attribution.untraced_host_s", untraced_host_s);
        ("attribution.traced_host_s", traced_host_s);
        ("attribution.traced_host_cpu_s", traced.cpu);
        ( "attribution.tracing_overhead_pct",
          100.0 *. (traced_host_s -. untraced_host_s) /. untraced_host_s );
        ("host.reference_speed", W.percentile 0.5 (List.map (fun r -> r.scale) (traced_reps @ untraced)));
      ]
  in
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k per_layer) then failwith ("metric missing from catalogue: " ^ k))
    values;
  Printf.printf "%s seed=%d traced: %d untraced repetitions, %d traced, %d spans\n" w.name
    seed (List.length untraced) (List.length traced_reps) (List.length !Spans.recorded);
  List.iter
    (fun (name, unit) ->
      match List.assoc_opt name values with
      | Some v -> row name v unit 1
      | None -> row_na name)
    per_layer;
  let metrics = json_metrics per_layer values in
  if out <> "" then Spans.write_chrome_trace out ~extra:[ ("metrics", metrics) ];
  let problems =
    problems w size ~seed warm (traced_reps @ untraced) @ extra_problems
  in
  report_problems problems;
  let correct = problems = [] in
  let attempted = (List.length untraced + List.length traced_reps) * o.ops in
  print_result ~correct ~attempted ~failed:(if correct then 0 else attempted) ~metrics;
  correct

(* --- every workload, each in its own child process ----------------------- *)

let run_all ~seed ~seconds ~trace ~out ~smoke =
  let results =
    List.map
      (fun (w : W.t) ->
        let args =
          [ Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int seed;
            "--seconds"; Printf.sprintf "%g" seconds; "--trace"; string_of_int trace ]
          @ (if smoke then [ "--smoke" ] else [])
          @
          if out = "" then []
          else [ "--out"; Printf.sprintf "%s.%s.json" (Filename.remove_extension out) w.name ]
        in
        flush stdout;
        let pid =
          Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stdout
            Unix.stderr
        in
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> true
        | _ -> false)
      W.all
  in
  let passed = List.length (List.filter Fun.id results) in
  Printf.printf "%d of %d workloads passed every output check\n" passed (List.length results);
  passed = List.length results

let () =
  let workload = ref "all" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let out = ref "" and smoke = ref false in
  let usage =
    "perf.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--smoke]"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload,
       " one of " ^ String.concat ", " (List.map (fun (w : W.t) -> w.name) W.all) ^ ", or all");
      ("--seed", Arg.Set_int seed, " input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, " how long to measure (default 10)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: traced per-layer metrics");
      ("--out", Arg.Set_string out, " with --trace 1, write the spans as Chrome-trace JSON here");
      ("--smoke", Arg.Set smoke, " reduced sizes, a single repetition");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !trace <> 0 && !trace <> 1 then (prerr_endline "perf: --trace must be 0 or 1"; exit 2);
  if !seconds < 0.0 then (prerr_endline "perf: --seconds must be non-negative"; exit 2);
  let size = if !smoke then W.Smoke else W.Full in
  let min_reps = if !smoke then 1 else 3 in
  let ok =
    if !workload = "all" then
      run_all ~seed:!seed ~seconds:!seconds ~trace:!trace ~out:!out ~smoke:!smoke
    else
      match List.find_opt (fun (w : W.t) -> w.name = !workload) W.all with
      | None ->
          prerr_endline ("perf: unknown workload " ^ !workload);
          exit 2
      | Some w when !trace = 0 -> run_untraced w size ~seed:!seed ~seconds:!seconds ~min_reps
      | Some w ->
          let leaves = (W.sweep_cfg size).devices in
          run_traced w size ~seed:!seed ~seconds:!seconds ~min_reps ~out:!out
            ~quota:(if !smoke then 0.005 else 0.1) ~leaves
  in
  exit (if ok then 0 else 1)
