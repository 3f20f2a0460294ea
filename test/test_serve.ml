(* The verifier gateway: admission control, typed load shedding, token
   buckets, deadlines, the LRU device-state store and its eviction order,
   config bounds and the circuit breaker — plus the fuzz property that
   hostile frames land in typed counters, never exceptions, and the link
   counter reconciliation the gateway's reports lean on. *)

open Tytan_netsim
module Gateway = Tytan_serve.Gateway
module Swarm = Tytan_provision.Swarm
module Obs = Tytan_obs.Obs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Graceful degradation --------------------------------------------------- *)

let saturation_config =
  {
    Gateway.default_config with
    Gateway.max_pending = 8;
    bucket_capacity = 8;
    bucket_refill_slices = 2;
  }

let gateway_tests =
  [
    Alcotest.test_case "clean moderate load: everything attests" `Quick
      (fun () ->
        (* Load chosen below every limiter: ~1.5 arrivals/slice over 48
           devices stays well inside each token bucket's refill rate. *)
        let r =
          Gateway.run ~devices:48 ~slices:200 ~arrival_permille:1500 ~seed:11 ()
        in
        check_int "no sheds" 0 (Gateway.shed r);
        check_int "all arrivals admitted" r.Gateway.arrivals r.Gateway.admitted;
        check_int "all admitted attested" r.Gateway.admitted r.Gateway.attested;
        check_bool "batched sessions sealed Merkle batches" true
          (r.Gateway.batches > 0);
        check_bool "latency percentiles populated" true
          (r.Gateway.p50_slices >= 1 && r.Gateway.p99_slices >= r.Gateway.p50_slices));
    Alcotest.test_case
      "saturating load: queue bounded, Busy sheds, everything settles" `Quick
      (fun () ->
        let r =
          Gateway.run ~config:saturation_config ~devices:96 ~slices:200
            ~arrival_permille:12000 ~seed:7 ()
        in
        check_bool "queue depth never exceeds the bound" true
          (r.Gateway.max_queue_depth <= r.Gateway.queue_bound);
        check_bool "overload was real (queue hit the bound)" true
          (r.Gateway.max_queue_depth = r.Gateway.queue_bound);
        check_bool "load was shed with typed Busy refusals" true
          (r.Gateway.shed_busy > 0);
        check_int "every arrival accounted: admitted + shed" r.Gateway.arrivals
          (r.Gateway.admitted + Gateway.shed r);
        check_int "every admitted session settled" r.Gateway.admitted
          (Gateway.settled r));
    Alcotest.test_case "hammering device: token bucket refuses Rate_limited"
      `Quick (fun () ->
        (* Few devices, high rate: each device's bucket drains and the
           per-device limiter, not the global queue, does the shedding. *)
        let r =
          Gateway.run ~devices:8 ~slices:200 ~arrival_permille:8000 ~seed:3 ()
        in
        check_bool "rate-limited sheds dominate" true
          (r.Gateway.shed_rate_limited > 0);
        check_int "no Busy sheds (queue never filled)" 0 r.Gateway.shed_busy);
    Alcotest.test_case "dead links: breaker trips, device quarantined" `Quick
      (fun () ->
        let r =
          Gateway.run ~devices:4 ~slices:160 ~arrival_permille:2000 ~seed:5
            ~loss_percent:100 ()
        in
        check_int "nothing attests over a dead link" 0 r.Gateway.attested;
        check_bool "sessions time out" true (r.Gateway.timed_out > 0);
        check_bool "breaker tripped" true (r.Gateway.quarantine_trips > 0);
        check_bool "quarantined devices reported" true
          (List.length r.Gateway.quarantined > 0);
        check_bool "later arrivals refused Quarantined" true
          (r.Gateway.shed_quarantined > 0);
        check_int "still fully accounted" r.Gateway.arrivals
          (r.Gateway.admitted + Gateway.shed r));
    Alcotest.test_case "bounded store: LRU eviction forces re-derivation"
      `Quick (fun () ->
        let config =
          { Gateway.default_config with Gateway.store_capacity = 8 }
        in
        let r =
          Gateway.run ~config ~devices:32 ~slices:240 ~arrival_permille:4000
            ~seed:9 ()
        in
        check_bool "evictions happened" true (r.Gateway.evictions > 0);
        check_bool "evicted devices re-derived their keys on re-admission"
          true
          (r.Gateway.key_derivations > 32));
    Alcotest.test_case "faulted campaign survives and accounts" `Quick
      (fun () ->
        let r =
          Gateway.run ~devices:48 ~slices:240 ~arrival_permille:5000 ~seed:3
            ~faults:true ()
        in
        check_bool "fault schedule actually fired" true
          (List.length r.Gateway.fault_counts > 0);
        check_int "every arrival accounted under faults" r.Gateway.arrivals
          (r.Gateway.admitted + Gateway.shed r);
        check_int "every admitted session settled under faults"
          r.Gateway.admitted (Gateway.settled r);
        check_bool "queue stayed bounded under faults" true
          (r.Gateway.max_queue_depth <= r.Gateway.queue_bound));
  ]

(* --- The device store: eviction order and config bounds ------------------- *)

(* Every eviction a gateway recorded, as (slice, serial), in order. *)
let evictions log =
  List.filter_map
    (fun (r : Obs.record) ->
      match r.Obs.event with
      | Obs.Event.Evicted { serial } -> Some (r.Obs.at, serial)
      | _ -> None)
    (Obs.Log.records log)

(* Offer [slices] (each a list of device arrivals) to an observed gateway
   whose store holds [capacity] entries, stepping after each slice. *)
let gateway_evictions ~devices ~capacity slices =
  let obs = Obs.Log.create () in
  let g =
    Gateway.create
      ~config:{ Gateway.default_config with store_capacity = capacity }
      ~obs ~devices ~seed:1 ()
  in
  List.iter
    (fun arrivals ->
      List.iter (fun d -> ignore (Gateway.arrive g ~device:d)) arrivals;
      Gateway.step g)
    slices;
  evictions obs

(* The oracle: the scanning store the ring replaced.  It keeps serial ->
   last_used; a miss at capacity evicts the argmin of (last_used, serial),
   serials compared as strings; every arrival then stamps the slice. *)
let model_evictions ~capacity slices =
  let store = Hashtbl.create 16 in
  let evicted = ref [] in
  let older (s, lu) (s', lu') =
    lu < lu' || (lu = lu' && String.compare s s' < 0)
  in
  List.iteri
    (fun now arrivals ->
      List.iter
        (fun d ->
          let serial = Printf.sprintf "dev-%05d" d in
          if
            (not (Hashtbl.mem store serial))
            && Hashtbl.length store >= capacity
          then begin
            let victim =
              Hashtbl.fold
                (fun s lu acc ->
                  match acc with
                  | Some v when older v (s, lu) -> acc
                  | _ -> Some (s, lu))
                store None
            in
            Option.iter
              (fun (s, _) ->
                Hashtbl.remove store s;
                evicted := (now, s) :: !evicted)
              victim
          end;
          Hashtbl.replace store serial now)
        arrivals)
    slices;
  List.rev !evicted

let store_scenario_gen =
  QCheck.Gen.(
    let* devices = int_range 1 40 in
    let* capacity = int_range 1 12 in
    let* slices =
      list_size (int_range 1 30)
        (list_size (int_range 0 7) (int_bound (devices - 1)))
    in
    return (devices, capacity, slices))

let rejects_config field config =
  Alcotest.test_case ("rejects " ^ field ^ " below 1") `Quick (fun () ->
      Alcotest.check_raises field
        (Invalid_argument ("Gateway.create: " ^ field ^ " must be positive"))
        (fun () ->
          ignore
            (Gateway.run ~config ~devices:16 ~slices:40 ~arrival_permille:3000
               ~seed:1 ())))

let store_tests =
  [
    Alcotest.test_case "eviction breaks same-slice ties by serial, not order"
      `Quick (fun () ->
        (* Slice 0 stores dev-4 then dev-2: the tie goes to the smaller
           serial, so dev-2 is evicted first although it arrived last.
           Slice 2 re-touches dev-4, which leaves dev-9 the oldest. *)
        Alcotest.(check (list (pair int string)))
          "evicted (slice, serial)"
          [ (1, "dev-00002"); (2, "dev-00009") ]
          (gateway_evictions ~devices:10 ~capacity:2 [ [ 4; 2 ]; [ 9 ]; [ 4; 6 ] ]));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"evictions match a scan for the oldest (last_used, serial)"
         ~count:100
         (QCheck.make
            ~print:QCheck.Print.(triple int int (list (list int)))
            store_scenario_gen)
         (fun (devices, capacity, slices) ->
           gateway_evictions ~devices ~capacity slices
           = model_evictions ~capacity slices));
    rejects_config "store_capacity"
      { Gateway.default_config with Gateway.store_capacity = 0 };
    rejects_config "bucket_refill_slices"
      { Gateway.default_config with Gateway.bucket_refill_slices = 0 };
  ]

(* --- Determinism under load ------------------------------------------------- *)

let determinism_tests =
  [
    Alcotest.test_case "same seed, same load: bit-identical reports" `Quick
      (fun () ->
        let run () =
          Gateway.run ~devices:64 ~slices:160 ~arrival_permille:8000 ~seed:21 ()
        in
        check_bool "clean runs identical" true (Gateway.equal (run ()) (run ())));
    Alcotest.test_case "same seed under faults: bit-identical reports" `Quick
      (fun () ->
        let run () =
          Gateway.run ~devices:48 ~slices:160 ~arrival_permille:6000 ~seed:13
            ~faults:true ()
        in
        check_bool "faulted runs identical" true
          (Gateway.equal (run ()) (run ())));
    Alcotest.test_case "different seeds diverge" `Quick (fun () ->
        let run seed =
          Gateway.run ~devices:32 ~slices:120 ~arrival_permille:5000 ~seed ()
        in
        check_bool "reports differ" false (Gateway.equal (run 1) (run 2)));
    Alcotest.test_case "fault schedule is a pure function of its tuple" `Quick
      (fun () ->
        let f () = Gateway.network_faults ~seed:42 ~devices:24 ~horizon:200 in
        let plan = f () in
        check_bool "same plan twice" true (plan = f ());
        check_bool "plans fire within the horizon" true
          (List.for_all (fun (slice, _, _) -> slice < 200) plan);
        let rec ordered = function
          | (a, _, _) :: ((b, _, _) :: _ as rest) -> a <= b && ordered rest
          | _ -> true
        in
        check_bool "ordered by slice" true (ordered plan);
        check_bool "devices in range" true
          (List.for_all (fun (_, d, _) -> 0 <= d && d < 24) plan));
  ]

(* --- Fuzz: hostile frames land in counters, never exceptions ---------------- *)

(* A pool of plausible-looking wire garbage: valid frames mutated by bit
   flips, truncation and duplication, future-revision tags, and raw
   noise.  The property is the gateway's session demux contract — every
   byte string is classified (malformed / unknown / stale / routed) and
   nothing raises. *)
let hostile_frame_gen =
  QCheck.Gen.(
    let valid =
      let* seq = int_bound 0xFFFF in
      let* img = string_size (int_range 1 12) in
      let* nonce = string_size (int_range 0 24) in
      return
        (Protocol.encode
           (Protocol.Challenge
              {
                seq;
                id = Tytan_core.Task_id.of_image (Bytes.of_string img);
                nonce = Bytes.of_string nonce;
              }))
    in
    let* base = valid in
    let* flips =
      list_size (int_range 0 6) (pair small_nat (int_bound 255))
    in
    let* cut = small_nat in
    let* style = int_bound 3 in
    let frame = Bytes.copy base in
    List.iter
      (fun (pos, v) ->
        Bytes.set frame (pos mod Bytes.length frame) (Char.chr v))
      flips;
    match style with
    | 0 -> return frame
    | 1 -> return (Bytes.sub frame 0 (cut mod Bytes.length frame))
    | 2 -> return (Bytes.cat frame frame)  (* duplicated/concatenated *)
    | _ ->
        let* noise = string_size (int_range 0 40) in
        return (Bytes.of_string noise))

let fuzz_tests =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  [
    to_alcotest
      (QCheck.Test.make
         ~name:"gateway classifies hostile frames and never raises" ~count:150
         (QCheck.pair
            (QCheck.make QCheck.Gen.(int_range 1 1000))
            (QCheck.make QCheck.Gen.(list_size (int_range 1 12) hostile_frame_gen)))
         (fun (seed, frames) ->
           let g = Gateway.create ~devices:3 ~seed ~loss_percent:0 () in
           (* Put live sessions in flight so routed frames have someone
              to reach — the demux, not an empty table, is under test. *)
           for d = 0 to 2 do
             ignore (Gateway.arrive g ~device:d)
           done;
           Gateway.step g;
           List.iteri
             (fun i frame -> Gateway.inject_frame g ~device:(i mod 3) frame)
             frames;
           for _ = 1 to 4 do
             Gateway.step g
           done;
           (* Classified, not swallowed: an injected frame either reached
              a session or sits in exactly one typed counter. *)
           Gateway.malformed_frames g + Gateway.stale_frames g
           + Gateway.unknown_frames g
           <= List.length frames));
    to_alcotest
      (QCheck.Test.make ~name:"raw noise is malformed or stale, never fatal"
         ~count:150
         (QCheck.make
            QCheck.Gen.(
              pair (int_range 1 1000)
                (list_size (int_range 1 10) (string_size (int_range 0 64)))))
         (fun (seed, noise) ->
           let g = Gateway.create ~devices:2 ~seed ~loss_percent:0 () in
           List.iteri
             (fun i s ->
               Gateway.inject_frame g ~device:(i mod 2) (Bytes.of_string s))
             noise;
           (* No sessions exist, so every well-formed frame is stale and
              everything else malformed or unknown-revision: the three
              counters partition the injections exactly. *)
           Gateway.malformed_frames g + Gateway.stale_frames g
           + Gateway.unknown_frames g
           = List.length noise));
  ]

(* --- Link counters ----------------------------------------------------------- *)

let link_tests =
  [
    Alcotest.test_case "reset_counters zeroes counters, not in-flight frames"
      `Quick (fun () ->
        let link = Link.create ~delay:1 () in
        Link.send link ~from:Link.Remote ~at:0 (Bytes.of_string "a");
        Link.send link ~from:Link.Remote ~at:0 (Bytes.of_string "b");
        ignore (Link.deliver link ~to_:Link.Device ~at:1);
        Link.send link ~from:Link.Remote ~at:1 (Bytes.of_string "c");
        Link.reset_counters link;
        List.iter
          (fun (name, v) -> check_int ("zeroed " ^ name) 0 v)
          (Link.counters link);
        (* The frame sent before the reset is still in flight and its
           delivery counts against the fresh counters. *)
        check_int "in-flight frame survives the reset" 1
          (List.length (Link.deliver link ~to_:Link.Device ~at:2));
        check_int "post-reset delivery counted" 1 (Link.delivered_count link));
    Alcotest.test_case "burst drops attributed separately from lottery drops"
      `Quick (fun () ->
        let link = Link.create ~seed:5 ~loss_percent:50 () in
        Link.set_burst link ~until:10;
        for at = 0 to 9 do
          Link.send link ~from:Link.Remote ~at (Bytes.of_string "x")
        done;
        check_int "burst window drops every frame" 10
          (Link.dropped_burst_count link);
        for at = 10 to 29 do
          Link.send link ~from:Link.Remote ~at (Bytes.of_string "y")
        done;
        check_bool "post-burst lottery drops some" true
          (Link.dropped_loss_count link > 0);
        check_bool "and delivers some" true
          (Link.dropped_loss_count link < 20);
        check_int "total is the sum of the reasons — no double count"
          (Link.dropped_loss_count link + Link.dropped_burst_count link)
          (Link.dropped_count link));
    Alcotest.test_case "burst window only extends, never shrinks" `Quick
      (fun () ->
        let link = Link.create () in
        Link.set_burst link ~until:20;
        Link.set_burst link ~until:5;
        check_bool "still active at 15" true (Link.burst_active link ~at:15);
        check_bool "over at 20" false (Link.burst_active link ~at:20));
    Alcotest.test_case
      "drained link reconciles: delivered = sent - dropped + duplicated"
      `Quick (fun () ->
        let link =
          Link.create ~seed:9 ~loss_percent:20 ~corrupt_percent:10
            ~duplicate_percent:10 ~reorder_percent:10 ()
        in
        for at = 0 to 49 do
          Link.send link ~from:Link.Remote ~at (Bytes.make 8 'z')
        done;
        let delivered = ref 0 in
        for at = 0 to 80 do
          delivered :=
            !delivered + List.length (Link.deliver link ~to_:Link.Device ~at)
        done;
        check_int "accessor agrees with observed deliveries" !delivered
          (Link.delivered_count link);
        check_int "conservation holds"
          (Link.sent_count link - Link.dropped_count link
          + Link.duplicated_count link)
          (Link.delivered_count link));
  ]

(* --- Campaign-failure gating ------------------------------------------------- *)

let mk_swarm_report verdicts : Swarm.report =
  {
    Swarm.mode = Swarm.Incremental;
    devices = String.length verdicts;
    epochs = 1;
    seed = 1;
    faults = false;
    loss_percent = 10;
    queries_per_epoch = 0;
    steady = false;
    churn_permille = 0;
    per_epoch =
      [
        {
          Swarm.epoch = 0;
          attested = 0;
          refused = 0;
          gave_up = 0;
          verdicts;
          healthy_polls = 0;
          slices = 0;
          batches = 0;
          root_hex = "";
          cache_hits = 0;
          cache_misses = 0;
          challenged = 0;
          carried = 0;
          delta_changed = 0;
          verify_cycles = 0;
        };
      ];
    verifier_cycles = 0;
    device_cycles = 0;
    frames_sent = 0;
    frames_dropped = 0;
    frames_delivered = 0;
    tampered = 0;
    silenced = 0;
    key_derivations = 0;
    telemetry = [];
    survived = true;
  }

let gating_tests =
  [
    Alcotest.test_case "campaign_failed spots unsettled verdicts" `Quick
      (fun () ->
        check_bool "pending verdict fails the campaign" true
          (Swarm.campaign_failed (mk_swarm_report "AA?A"));
        check_bool "settled verdicts pass" false
          (Swarm.campaign_failed (mk_swarm_report "ARGC"));
        check_bool "gave_up is settled, not failed" false
          (Swarm.campaign_failed (mk_swarm_report "GGGG")));
    Alcotest.test_case "real campaigns never leave a session unsettled" `Quick
      (fun () ->
        let r =
          Swarm.run ~mode:Swarm.Incremental ~devices:16 ~epochs:2 ~seed:4
            ~faults:true ~loss_percent:25 ()
        in
        check_bool "no '?' even under heavy faults" false
          (Swarm.campaign_failed r));
    Alcotest.test_case "gateway campaign_failed: queue bound, settled = admitted"
      `Quick (fun () ->
        (* The six campaigns test_pins.ml pins. *)
        let run ?config ?arrival ?(faults = false) ?loss_percent ~devices
            ~slices ~rate ~seed () =
          Gateway.run ?config ?arrival ~faults ?loss_percent ~devices ~slices
            ~arrival_permille:rate ~seed ()
        in
        List.iter
          (fun (r : Gateway.report) ->
            check_bool "pinned campaign holds" false (Gateway.campaign_failed r);
            check_bool "queue past its bound" true
              (Gateway.campaign_failed
                 { r with max_queue_depth = r.queue_bound + 1 });
            check_bool "admitted session unsettled" true
              (Gateway.campaign_failed { r with admitted = r.admitted + 1 }))
          [
            run ~devices:64 ~slices:200 ~rate:6000 ~seed:1 ();
            run
              ~arrival:(Gateway.Closed_loop { think = 4 })
              ~devices:32 ~slices:160 ~rate:0 ~seed:2 ();
            run ~faults:true ~devices:64 ~slices:200 ~rate:8000 ~seed:3 ();
            run ~faults:true ~devices:600 ~slices:150 ~rate:30000 ~seed:5 ();
            run ~faults:true ~loss_percent:60 ~devices:32 ~slices:300
              ~rate:16000 ~seed:9 ();
            run
              ~config:{ Gateway.default_config with store_capacity = 16 }
              ~faults:true ~devices:24 ~slices:240 ~rate:6000 ~seed:11 ();
          ]);
    Alcotest.test_case "gateway reports render with a digest" `Quick (fun () ->
        let r =
          Gateway.run ~devices:8 ~slices:80 ~arrival_permille:2000 ~seed:2 ()
        in
        let s = Gateway.to_string r in
        check_bool "digest line present" true
          (String.length s > 0
          &&
          let lines = String.split_on_char '\n' s in
          List.exists
            (fun l -> String.length l > 12 && String.sub l 0 12 = "digest: sha1")
            lines));
  ]

let () =
  Alcotest.run "serve"
    [
      ("gateway", gateway_tests);
      ("store", store_tests);
      ("determinism", determinism_tests);
      ("fuzz", fuzz_tests);
      ("link", link_tests);
      ("gating", gating_tests);
    ]
