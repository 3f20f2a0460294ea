(* Networked attestation: the lossy link, the wire protocol, the
   verifier's retry machine and the whole co-simulation. *)

open Tytan_core
open Tytan_netsim
module Tasks = Tytan_tasks.Task_lib
module Cpu = Tytan_machine.Cpu
module Cycles = Tytan_machine.Cycles
module Word = Tytan_machine.Word
module Memory = Tytan_machine.Memory
module Monitor = Tytan_cfa.Monitor
module Replay = Tytan_cfa.Replay

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* --- Link ------------------------------------------------------------------ *)

let link_tests =
  [
    Alcotest.test_case "lossless delivery after the delay" `Quick (fun () ->
        let link = Link.create ~delay:2 () in
        Link.send link ~from:Link.Remote ~at:0 (Bytes.of_string "hello");
        check_int "not yet" 0 (List.length (Link.deliver link ~to_:Link.Device ~at:1));
        let due = Link.deliver link ~to_:Link.Device ~at:2 in
        check_int "delivered" 1 (List.length due);
        check_bool "payload" true (List.hd due = Bytes.of_string "hello"));
    Alcotest.test_case "direction separation" `Quick (fun () ->
        let link = Link.create ~delay:0 () in
        Link.send link ~from:Link.Remote ~at:0 (Bytes.of_string "to-device");
        check_int "nothing for remote" 0
          (List.length (Link.deliver link ~to_:Link.Remote ~at:0));
        check_int "one for device" 1
          (List.length (Link.deliver link ~to_:Link.Device ~at:0)));
    Alcotest.test_case "delivery consumes frames" `Quick (fun () ->
        let link = Link.create ~delay:0 () in
        Link.send link ~from:Link.Device ~at:0 (Bytes.of_string "x");
        ignore (Link.deliver link ~to_:Link.Remote ~at:0);
        check_int "gone" 0 (List.length (Link.deliver link ~to_:Link.Remote ~at:9)));
    Alcotest.test_case "loss drops roughly the configured share" `Quick
      (fun () ->
        let link = Link.create ~seed:7 ~loss_percent:50 ~delay:0 () in
        for i = 0 to 199 do
          Link.send link ~from:Link.Remote ~at:i (Bytes.of_string "f")
        done;
        let dropped = Link.dropped_count link in
        check_bool "lossy but not degenerate" true (dropped > 50 && dropped < 150));
    Alcotest.test_case "zero loss drops nothing" `Quick (fun () ->
        let link = Link.create ~loss_percent:0 ~delay:0 () in
        for i = 0 to 49 do
          Link.send link ~from:Link.Remote ~at:i (Bytes.of_string "f")
        done;
        check_int "none dropped" 0 (Link.dropped_count link));
    Alcotest.test_case "deterministic per seed" `Quick (fun () ->
        let run seed =
          let link = Link.create ~seed ~loss_percent:30 ~delay:0 () in
          for i = 0 to 99 do
            Link.send link ~from:Link.Remote ~at:i (Bytes.of_string "f")
          done;
          Link.dropped_count link
        in
        check_int "same seed same drops" (run 42) (run 42));
  ]

(* --- Protocol ---------------------------------------------------------------- *)

let protocol_tests =
  [
    Alcotest.test_case "challenge round trip" `Quick (fun () ->
        let id = Task_id.of_image (Bytes.of_string "task") in
        let m = Protocol.Challenge { seq = 7; id; nonce = Bytes.of_string "n123" } in
        check_bool "round trip" true (Protocol.decode (Protocol.encode m) = Ok m));
    Alcotest.test_case "response round trip" `Quick (fun () ->
        let report =
          {
            Attestation.id = Task_id.of_image (Bytes.of_string "t");
            nonce = Bytes.of_string "nonce-x";
            mac = Bytes.make 20 'm';
          }
        in
        let m = Protocol.Response { seq = 3; report } in
        check_bool "round trip" true (Protocol.decode (Protocol.encode m) = Ok m));
    Alcotest.test_case "refusal round trip" `Quick (fun () ->
        let m = Protocol.Refusal { seq = 11 } in
        check_bool "round trip" true (Protocol.decode (Protocol.encode m) = Ok m));
    Alcotest.test_case "truncation rejected" `Quick (fun () ->
        let id = Task_id.of_image (Bytes.of_string "task") in
        let b = Protocol.encode (Protocol.Challenge { seq = 1; id; nonce = Bytes.of_string "abc" }) in
        check_bool "error" true
          (Result.is_error (Protocol.decode (Bytes.sub b 0 (Bytes.length b - 1)))));
    Alcotest.test_case "unknown tag rejected" `Quick (fun () ->
        check_bool "error" true
          (Result.is_error (Protocol.decode (Bytes.of_string "Zxxxx"))));
    Alcotest.test_case "unknown tags are distinguishable from garbage" `Quick
      (fun () ->
        (match Protocol.decode (Bytes.of_string "Zxxxx") with
        | Error e -> check_bool "flagged as unknown tag" true (Protocol.is_unknown_tag e)
        | Ok _ -> Alcotest.fail "decoded an unknown tag");
        match Protocol.decode (Bytes.of_string "C") with
        | Error e ->
            check_bool "truncation is not an unknown tag" false
              (Protocol.is_unknown_tag e)
        | Ok _ -> Alcotest.fail "decoded a truncated challenge");
    Alcotest.test_case "cfa challenge round trip" `Quick (fun () ->
        let id = Task_id.of_image (Bytes.of_string "cfa-task") in
        let m = Protocol.CfaChallenge { seq = 5; id; nonce = Bytes.of_string "n5" } in
        check_bool "round trip" true (Protocol.decode (Protocol.encode m) = Ok m));
    Alcotest.test_case "cfa response round trip" `Quick (fun () ->
        let report =
          {
            Attestation.id = Task_id.of_image (Bytes.of_string "t");
            nonce = Bytes.of_string "nonce-cfa";
            cf_digest = Bytes.make 20 'd';
            base_digest = Bytes.make 20 'b';
            edge_count = 1234;
            edges =
              [|
                { Attestation.src = 8; dst = 16; kind = Cpu.Direct_jump };
                { Attestation.src = 24; dst = 2; kind = Cpu.Swi_entry };
              |];
            mac = Bytes.make 20 'm';
          }
        in
        let m = Protocol.CfaResponse { seq = 9; report } in
        check_bool "round trip" true (Protocol.decode (Protocol.encode m) = Ok m));
    Alcotest.test_case "cfa response at the edge-count wire limit" `Quick
      (fun () ->
        let edge i =
          { Attestation.src = i * 8; dst = (i * 8) + 8; kind = Cpu.Direct_call }
        in
        let report =
          {
            Attestation.id = Task_id.of_image (Bytes.of_string "big");
            nonce = Bytes.of_string "n";
            cf_digest = Bytes.make 20 'x';
            base_digest = Bytes.make 20 'y';
            edge_count = Protocol.max_edges;
            edges = Array.init Protocol.max_edges edge;
            mac = Bytes.make 20 'm';
          }
        in
        let m = Protocol.CfaResponse { seq = 1; report } in
        check_bool "round trip at 65535 edges" true
          (Protocol.decode (Protocol.encode m) = Ok m);
        let over =
          Protocol.CfaResponse
            {
              seq = 2;
              report =
                { report with Attestation.edges = Array.init (Protocol.max_edges + 1) edge };
            }
        in
        check_bool "one more refuses to encode" true
          (match Protocol.encode over with
          | _ -> false
          | exception Invalid_argument _ -> true));
  ]

(* --- Protocol properties ----------------------------------------------------- *)

let edge_gen =
  QCheck.Gen.(
    map3
      (fun s d k ->
        {
          Attestation.src = s land Word.max_value;
          dst = d land Word.max_value;
          kind = Option.get (Cpu.branch_kind_of_code k);
        })
      (int_bound max_int) (int_bound max_int) (int_bound 7))

let report_gen =
  QCheck.Gen.(
    map3
      (fun img nonce (edges, extra, tail) ->
        let sub pos = Bytes.of_string (String.sub tail pos 20) in
        {
          Attestation.id = Task_id.of_image (Bytes.of_string img);
          nonce = Bytes.of_string nonce;
          cf_digest = sub 0;
          base_digest = sub 20;
          edge_count = Array.length edges + extra;
          edges;
          mac = sub 40;
        })
      (string_size (int_range 1 12))
      (string_size (int_range 0 40))
      (triple
         (array_size (int_range 0 64) edge_gen)
         (int_bound 100_000)
         (string_size (return 60))))

let report_arb = QCheck.make report_gen

let protocol_property_tests =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  [
    to_alcotest
      (QCheck.Test.make ~name:"cfa report wire round trip" ~count:200
         (QCheck.pair (QCheck.make QCheck.Gen.(int_bound 0xFFFF)) report_arb)
         (fun (seq, report) ->
           let m = Protocol.CfaResponse { seq; report } in
           Protocol.decode (Protocol.encode m) = Ok m));
    to_alcotest
      (QCheck.Test.make ~name:"mutated cfa frames never crash decode or verifier"
         ~count:300
         (QCheck.triple report_arb
            (QCheck.list_of_size
               QCheck.Gen.(int_range 0 8)
               (QCheck.pair QCheck.small_nat (QCheck.make QCheck.Gen.(int_bound 255))))
            QCheck.small_nat)
         (fun (report, flips, cut) ->
           let frame = Protocol.encode (Protocol.CfaResponse { seq = 1; report }) in
           List.iter
             (fun (pos, v) ->
               Bytes.set frame (pos mod Bytes.length frame) (Char.chr v))
             flips;
           let frame =
             if cut mod 3 = 0 then Bytes.sub frame 0 (cut mod Bytes.length frame)
             else frame
           in
           ignore (Protocol.decode frame : (Protocol.message, string) result);
           let v =
             Verifier.create ~ka:(Bytes.make 20 'k')
               ~expected:report.Attestation.id
               ~cfa:(fun _ -> Ok ())
               ()
           in
           ignore (Verifier.poll v ~at:0);
           Verifier.on_frame v frame;
           true));
  ]

(* --- End-to-end co-simulation ------------------------------------------------ *)

let device_with_task () =
  let p = Platform.create () in
  let telf = Tasks.counter () in
  let tcb = Result.get_ok (Platform.load_blocking p ~name:"fw" telf) in
  let rtm = Option.get (Platform.rtm p) in
  let id = (Option.get (Rtm.find_by_tcb rtm tcb)).Rtm.id in
  let ka =
    Attestation.derive_ka ~platform_key:(Platform.config p).Platform.platform_key
  in
  (p, tcb, id, ka)

let cosim_tests =
  [
    Alcotest.test_case "attestation over a perfect link" `Quick (fun () ->
        let p, _, id, ka = device_with_task () in
        let link = Link.create () in
        let cosim = Cosim.create p ~link () in
        let v = Verifier.create ~ka ~expected:id () in
        Cosim.attach_verifier cosim v;
        let slices = Cosim.run_until_settled cosim ~max_slices:100 in
        check_bool "attested" true (Verifier.outcome v = Verifier.Attested);
        check_int "single attempt" 1 (Verifier.attempts v);
        check_bool "settled quickly" true (slices <= 5));
    Alcotest.test_case "attestation survives 60% frame loss via retries"
      `Quick (fun () ->
        let p, _, id, ka = device_with_task () in
        let link = Link.create ~seed:3 ~loss_percent:60 () in
        let cosim = Cosim.create p ~link () in
        let v = Verifier.create ~ka ~expected:id ~max_attempts:30 () in
        Cosim.attach_verifier cosim v;
        ignore (Cosim.run_until_settled cosim ~max_slices:500);
        check_bool "eventually attested" true (Verifier.outcome v = Verifier.Attested);
        check_bool "needed retries" true (Verifier.attempts v > 1));
    Alcotest.test_case "ghost identity is refused" `Quick (fun () ->
        let p, _, _, ka = device_with_task () in
        let link = Link.create () in
        let cosim = Cosim.create p ~link () in
        let ghost = Task_id.of_image (Bytes.of_string "not-there") in
        let v = Verifier.create ~ka ~expected:ghost () in
        Cosim.attach_verifier cosim v;
        ignore (Cosim.run_until_settled cosim ~max_slices:100);
        check_bool "refused" true (Verifier.outcome v = Verifier.Refused));
    Alcotest.test_case "total loss gives up after max attempts" `Quick
      (fun () ->
        let p, _, id, ka = device_with_task () in
        let link = Link.create ~loss_percent:100 () in
        let cosim = Cosim.create p ~link () in
        let v = Verifier.create ~ka ~expected:id ~max_attempts:4 ~timeout_slices:2 () in
        Cosim.attach_verifier cosim v;
        ignore (Cosim.run_until_settled cosim ~max_slices:200);
        check_bool "gave up" true (Verifier.outcome v = Verifier.Gave_up);
        check_int "all attempts used" 4 (Verifier.attempts v));
    Alcotest.test_case "wrong verifier key rejects genuine reports" `Quick
      (fun () ->
        let p, _, id, _ = device_with_task () in
        let link = Link.create () in
        let cosim = Cosim.create p ~link () in
        let bad_ka = Attestation.derive_ka ~platform_key:(Bytes.make 20 'Z') in
        let v = Verifier.create ~ka:bad_ka ~expected:id ~max_attempts:3 ~timeout_slices:2 () in
        Cosim.attach_verifier cosim v;
        ignore (Cosim.run_until_settled cosim ~max_slices:100);
        check_bool "never attested" true (Verifier.outcome v = Verifier.Gave_up);
        check_bool "reports were rejected" true (Verifier.rejected_frames v >= 1));
    Alcotest.test_case "device keeps its deadlines while attesting" `Quick
      (fun () ->
        let p, tcb, id, ka = device_with_task () in
        let rtm = Option.get (Platform.rtm p) in
        let base = (Option.get (Rtm.find_by_tcb rtm tcb)).Rtm.base in
        let count () =
          Tytan_machine.Cpu.with_firmware (Platform.cpu p)
            ~eip:(Rtm.code_eip rtm) (fun () ->
              Tytan_machine.Cpu.load32 (Platform.cpu p)
                (base + Tasks.data_cell_offset (Tasks.counter ())))
        in
        let link = Link.create ~loss_percent:20 ~seed:3 () in
        let cosim = Cosim.create p ~link () in
        (* Several concurrent sessions hammer the device. *)
        for _ = 1 to 5 do
          Cosim.attach_verifier cosim (Verifier.create ~ka ~expected:id ())
        done;
        let before = count () in
        Cosim.run cosim ~slices:30;
        check_bool "task held ~1 activation per tick" true
          (count () - before >= 28));
    Alcotest.test_case "concurrent sessions all settle" `Quick (fun () ->
        let p, _, id, ka = device_with_task () in
        let link = Link.create ~loss_percent:30 ~seed:17 () in
        let cosim = Cosim.create p ~link () in
        let sessions =
          List.init 4 (fun _ -> Verifier.create ~ka ~expected:id ~max_attempts:20 ())
        in
        List.iter (Cosim.attach_verifier cosim) sessions;
        ignore (Cosim.run_until_settled cosim ~max_slices:1000);
        List.iter
          (fun v ->
            check_bool "attested" true (Verifier.outcome v = Verifier.Attested))
          sessions;
        check_bool "device served many challenges" true
          (Cosim.challenges_served cosim >= 4));
  ]

(* --- Control-flow attestation across the network ------------------------------ *)

let device_with_watched_dispatcher () =
  let p = Platform.create () in
  let d = Tasks.gadget_dispatcher () in
  let tcb = Result.get_ok (Platform.load_blocking p ~name:"disp" d.Tasks.telf) in
  let rtm = Option.get (Platform.rtm p) in
  let entry = Option.get (Rtm.find_by_tcb rtm tcb) in
  let mon = Monitor.create p in
  (match Monitor.watch mon ~tcb () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let ka =
    Attestation.derive_ka ~platform_key:(Platform.config p).Platform.platform_key
  in
  let oracle = Result.get_ok (Replay.oracle_of_telf d.Tasks.telf) in
  (p, d, entry, mon, ka, oracle)

(* One full audit of a device whose dispatcher is gadget-hijacked after an
   honest warm-up: a static session and a CFA session run concurrently
   over the same lossy link. *)
let audit_compromised_device () =
  let p, d, entry, mon, ka, oracle = device_with_watched_dispatcher () in
  Platform.run_ticks p 6;
  let base = entry.Rtm.base in
  Memory.write32 (Platform.memory p)
    (base + d.Tasks.handler_cell)
    (base + d.Tasks.gadget);
  Platform.run_ticks p 4;
  let link = Link.create ~seed:9 ~loss_percent:30 () in
  let cosim = Cosim.create p ~link () in
  Cosim.set_cfa_responder cosim (Monitor.responder mon);
  let vs = Verifier.create ~ka ~expected:entry.Rtm.id ~max_attempts:30 () in
  let vc =
    Verifier.create ~ka ~expected:entry.Rtm.id ~max_attempts:30
      ~cfa:(Replay.checker oracle) ()
  in
  Cosim.attach_verifier cosim vs;
  Cosim.attach_verifier cosim vc;
  ignore (Cosim.run_until_settled cosim ~max_slices:1000);
  (Verifier.outcome vs, Verifier.outcome vc, Verifier.cfa_failure vc)

let cfa_cosim_tests =
  [
    Alcotest.test_case "verifier drops unknown-tag frames" `Quick (fun () ->
        let v =
          Verifier.create ~ka:(Bytes.make 20 'k')
            ~expected:(Task_id.of_image (Bytes.of_string "x"))
            ()
        in
        ignore (Verifier.poll v ~at:0);
        Verifier.on_frame v (Bytes.of_string "Qframe-from-a-newer-revision");
        check_int "dropped" 1 (Verifier.ignored_frames v);
        check_int "not counted hostile" 0 (Verifier.rejected_frames v);
        check_bool "still pending" true (Verifier.outcome v = Verifier.Pending));
    Alcotest.test_case "device agent drops unknown tags, attestation unharmed"
      `Quick (fun () ->
        let p, _, id, ka = device_with_task () in
        let link = Link.create () in
        let cosim = Cosim.create p ~link () in
        Link.send link ~from:Link.Remote ~at:0
          (Bytes.of_string "Qframe-from-the-future");
        Link.send link ~from:Link.Remote ~at:0 (Bytes.of_string "C");
        let v = Verifier.create ~ka ~expected:id () in
        Cosim.attach_verifier cosim v;
        ignore (Cosim.run_until_settled cosim ~max_slices:50);
        check_int "unknown tag dropped" 1 (Cosim.unknown_tag_frames cosim);
        check_int "truncated frame malformed" 1 (Cosim.malformed_frames cosim);
        check_bool "attestation unaffected" true
          (Verifier.outcome v = Verifier.Attested));
    Alcotest.test_case "honest device passes CFA over a lossy link" `Quick
      (fun () ->
        let p, _, entry, mon, ka, oracle = device_with_watched_dispatcher () in
        Platform.run_ticks p 6;
        let link = Link.create ~seed:3 ~loss_percent:50 () in
        let cosim = Cosim.create p ~link () in
        Cosim.set_cfa_responder cosim (Monitor.responder mon);
        let v =
          Verifier.create ~ka ~expected:entry.Rtm.id ~max_attempts:30
            ~cfa:(Replay.checker oracle) ()
        in
        Cosim.attach_verifier cosim v;
        ignore (Cosim.run_until_settled cosim ~max_slices:1000);
        check_bool "attested" true (Verifier.outcome v = Verifier.Attested));
    Alcotest.test_case "without a CFA responder the device refuses" `Quick
      (fun () ->
        let p, _, entry, _, ka, oracle = device_with_watched_dispatcher () in
        let link = Link.create () in
        let cosim = Cosim.create p ~link () in
        let v =
          Verifier.create ~ka ~expected:entry.Rtm.id
            ~cfa:(Replay.checker oracle) ()
        in
        Cosim.attach_verifier cosim v;
        ignore (Cosim.run_until_settled cosim ~max_slices:100);
        check_bool "refused" true (Verifier.outcome v = Verifier.Refused));
    Alcotest.test_case
      "gadget-hijacked device: static attests, CFA rejects, deterministically"
      `Quick (fun () ->
        let s1, c1, why1 = audit_compromised_device () in
        check_bool "static attestation still passes" true (s1 = Verifier.Attested);
        check_bool "CFA rejects the same device" true (c1 = Verifier.Cfa_rejected);
        check_bool "the replay names the gadget" true
          (contains ~sub:"gadget" (Option.value ~default:"" why1));
        let s2, c2, why2 = audit_compromised_device () in
        check_bool "identical verdicts on a re-run" true
          ((s1, c1, why1) = (s2, c2, why2)));
  ]

(* --- Per-session verifier scoping ------------------------------------------ *)

(* Regression tests for the global-counter bug: verifier retry/refusal
   state used to be drawn from one process-wide counter, so sessions
   shared a sequence space and one flaky prover's refusals could land on
   (and settle) an honest prover's session. *)
let session_tests =
  let fw = Task_id.of_image (Bytes.of_string "session-test-firmware") in
  let ka = Attestation.derive_ka ~platform_key:(Bytes.make 20 'K') in
  [
    Alcotest.test_case "conclude gives up an unanswered session only" `Quick
      (fun () ->
        let backoff = Verifier.default_backoff in
        let cap = Verifier.settle_cap backoff in
        let silent =
          Verifier.create ~ka ~expected:fw ~backoff ~max_attempts:6
            ~session:"dev-s/e0" ()
        in
        Verifier.conclude silent ~cap;
        check_bool "unanswered session gave up" true
          (Verifier.outcome silent = Verifier.Gave_up);
        check_int "every attempt spent" 6 (Verifier.attempts silent);
        let refused = Verifier.create ~ka ~expected:fw ~session:"dev-r/e0" () in
        ignore (Verifier.poll refused ~at:0);
        Verifier.on_frame refused
          (Protocol.encode (Protocol.Refusal { seq = Verifier.seq refused }));
        Verifier.conclude refused ~cap;
        check_bool "settled session keeps its verdict" true
          (Verifier.outcome refused = Verifier.Refused);
        check_int "and sends nothing more" 1 (Verifier.attempts refused));
    Alcotest.test_case
      "a flaky prover's refusals cannot push an honest session to Refused"
      `Quick (fun () ->
        let honest = Verifier.create ~ka ~expected:fw ~session:"dev-a/e0" () in
        let flaky = Verifier.create ~ka ~expected:fw ~session:"dev-b/e0" () in
        ignore (Verifier.poll honest ~at:0);
        ignore (Verifier.poll flaky ~at:0);
        (* A shared medium broadcasts the flaky device's refusal to every
           listening session — exactly what Cosim does with remote-bound
           frames. *)
        let refusal =
          Protocol.encode (Protocol.Refusal { seq = Verifier.seq flaky })
        in
        Verifier.on_frame honest refusal;
        Verifier.on_frame flaky refusal;
        check_bool "flaky session settled Refused" true
          (Verifier.outcome flaky = Verifier.Refused);
        check_bool "honest session still pending" true
          (Verifier.outcome honest = Verifier.Pending);
        check_int "honest session counted no refusal" 0
          (Verifier.refusals honest);
        (* And the honest device can still attest. *)
        let nonce = Verifier.nonce honest in
        let report =
          {
            Attestation.id = fw;
            nonce;
            mac = Attestation.expected_mac ~ka ~id:fw ~nonce;
          }
        in
        Verifier.on_frame honest
          (Protocol.encode
             (Protocol.Response { seq = Verifier.seq honest; report }));
        check_bool "honest session attested" true
          (Verifier.outcome honest = Verifier.Attested));
    Alcotest.test_case "named sessions occupy disjoint sequence spaces" `Quick
      (fun () ->
        let seqs =
          List.map
            (fun d ->
              Verifier.seq
                (Verifier.create ~ka ~expected:fw
                   ~session:(Printf.sprintf "dev-%03d/e0" d)
                   ()))
            [ 0; 1; 2; 3; 4; 5; 6; 7 ]
        in
        check_int "all distinct" (List.length seqs)
          (List.length (List.sort_uniq compare seqs)));
    Alcotest.test_case
      "session identity is a pure function of the label, not creation order"
      `Quick (fun () ->
        let v1 = Verifier.create ~ka ~expected:fw ~session:"dev-a/e3" () in
        (* Interleave unrelated sessions — with the global counter these
           would have shifted the next nonce/seq. *)
        for i = 0 to 9 do
          ignore (Verifier.create ~ka ~expected:fw ());
          ignore
            (Verifier.create ~ka ~expected:fw
               ~session:(Printf.sprintf "other-%d" i)
               ())
        done;
        let v2 = Verifier.create ~ka ~expected:fw ~session:"dev-a/e3" () in
        check_bool "same nonce" true (Verifier.nonce v1 = Verifier.nonce v2);
        check_int "same seq" (Verifier.seq v1) (Verifier.seq v2);
        let other = Verifier.create ~ka ~expected:fw ~session:"dev-a/e4" () in
        check_bool "a different epoch label gets a different nonce" true
          (Verifier.nonce v1 <> Verifier.nonce other));
  ]

(* --- Wake-driven skipping: the no-op predicate is sound --------------------- *)

(* The fleet engines skip a device in slice [at] when [Link.next_due] and
   its session's [Verifier.next_wake] both lie after [at].  These
   properties pin both halves of that predicate on random programs: a
   probe the predicate calls idle must change nothing, and the wake
   times must be tight — at the reported slice something does happen —
   so skipping to them never delays an action. *)

type link_op =
  | Send of Link.side * int  (* payload length *)
  | Deliver of Link.side
  | Burst of int  (* window length from now *)

let link_program_gen =
  QCheck.Gen.(
    let side = oneofl [ Link.Device; Link.Remote ] in
    let op =
      frequency
        [
          (5, map2 (fun s n -> Send (s, n)) side (int_range 0 12));
          (3, map (fun s -> Deliver s) side);
          (1, map (fun n -> Burst n) (int_range 1 6));
        ]
    in
    pair
      (quad (int_bound 10_000) (int_range 0 40) (int_range 0 3) (int_range 0 20))
      (list_size (int_range 1 60) (pair (int_range 0 3) op)))

let print_link_program ((seed, loss, delay, faults), ops) =
  Printf.sprintf "seed=%d loss=%d delay=%d faults=%d ops=[%s]" seed loss delay
    faults
    (String.concat "; "
       (List.map
          (fun (dt, op) ->
            let side = function Link.Device -> "D" | Link.Remote -> "R" in
            match op with
            | Send (s, n) -> Printf.sprintf "+%d send %s %d" dt (side s) n
            | Deliver s -> Printf.sprintf "+%d deliver %s" dt (side s)
            | Burst n -> Printf.sprintf "+%d burst %d" dt n)
          ops))

type session_op =
  | Poll
  | Refuse  (* a refusal carrying the session's own sequence *)
  | Junk

let session_program_gen =
  QCheck.Gen.(
    pair
      (quad (int_range 1 6) bool (int_range 1 10) (int_range 1 2))
      (list_size (int_range 1 40)
         (pair (int_range 0 20)
            (frequency
               [ (6, return Poll); (1, return Refuse); (1, return Junk) ]))))

let print_session_program ((attempts, backoff, timeout, refusals), ops) =
  Printf.sprintf "attempts=%d backoff=%b timeout=%d refusals=%d ops=[%s]"
    attempts backoff timeout refusals
    (String.concat "; "
       (List.map
          (fun (dt, op) ->
            Printf.sprintf "+%d %s" dt
              (match op with
              | Poll -> "poll"
              | Refuse -> "refuse"
              | Junk -> "junk"))
          ops))

(* A slice-loop model for [Link.Wake_set.settle]: member [m] acts at
   slice [first], then after each gap in turn; its session settles at
   its [k]-th action ([None], or [k] past the last action: never, so the
   loop runs to its cap). *)
let settle_program_gen =
  QCheck.Gen.(
    pair (int_bound 60)
      (list_size (int_bound 10)
         (triple (int_bound 30)
            (list_size (int_bound 6) (int_range 1 15))
            (opt (int_range 1 7)))))

let print_settle_program (cap, members) =
  Printf.sprintf "cap=%d members=[%s]" cap
    (String.concat "; "
       (List.map
          (fun (first, gaps, k) ->
            Printf.sprintf "%d+[%s] settle@%s" first
              (String.concat "," (List.map string_of_int gaps))
              (match k with Some k -> string_of_int k | None -> "never"))
          members))

(* Runs the model through [loop ~n ~wake ~act] and returns every
   (slice, member) action in order, plus the slice the loop stopped at.
   [act m ~at] performs member [m]'s due action and says whether its
   session settled. *)
let run_settle_model members loop =
  let members = Array.of_list members in
  let due =
    Array.map
      (fun (first, gaps, _) ->
        List.rev
          (List.fold_left (fun acc g -> (List.hd acc + g) :: acc) [ first ] gaps))
      members
  in
  let acted = Array.make (Array.length members) 0 in
  let log = ref [] in
  let wake m = match due.(m) with t :: _ -> t | [] -> max_int in
  let act m ~at =
    log := (at, m) :: !log;
    due.(m) <- List.tl due.(m);
    acted.(m) <- acted.(m) + 1;
    let _, _, k = members.(m) in
    k = Some acted.(m)
  in
  let stop = loop ~n:(Array.length members) ~wake ~act in
  (List.rev !log, stop)

(* The loop [settle] replaces: every member in every slice. *)
let visit_everyone ~cap ~n ~wake ~act =
  let pending = ref n in
  let slice = ref 0 in
  while !pending > 0 && !slice <= cap do
    let at = !slice in
    for m = 0 to n - 1 do
      if wake m <= at && act m ~at then decr pending
    done;
    incr slice
  done;
  !slice

(* [idle] counts the slices after slice 0 in which [settle] ran a step
   that found nothing due: the jumps must land only on slices where
   something happens. *)
let settle_driven ~idle ~cap ~n ~wake ~act =
  let set = Link.Wake_set.create ~universe:n in
  for m = 0 to n - 1 do
    Link.Wake_set.add set m
  done;
  Link.Wake_set.settle ~cap ~pending:n (fun ~at ->
      let settled = ref 0 and acted = ref false in
      let next =
        Link.Wake_set.sweep set ~at ~wake ~visit:(fun m ->
            acted := true;
            if act m ~at then incr settled)
      in
      if at > 0 && not !acted then incr idle;
      (!settled, next))

let wake_property_tests =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  let fw = Task_id.of_image (Bytes.of_string "wake-test-firmware") in
  let ka = Attestation.derive_ka ~platform_key:(Bytes.make 20 'W') in
  [
    to_alcotest
      (QCheck.Test.make
         ~name:"wake set: sweeps due members in index order, drops the done"
         ~count:300
         QCheck.(
           triple
             (list_of_size Gen.(int_range 0 40) (int_bound 31))
             (array_of_size (Gen.return 32)
                (make
                   Gen.(frequency [ (4, int_bound 10); (1, return max_int) ])))
             (int_bound 10))
         (fun (adds, wakes, at) ->
           let set = Link.Wake_set.create ~universe:32 in
           List.iter (Link.Wake_set.add set) adds;
           let members = List.sort_uniq compare adds in
           let visited = ref [] in
           let next =
             Link.Wake_set.sweep set ~at
               ~wake:(fun i -> wakes.(i))
               ~visit:(fun i -> visited := i :: !visited)
           in
           let kept = List.filter (fun i -> wakes.(i) < max_int) members in
           let left = ref [] in
           Link.Wake_set.iter set (fun i -> left := i :: !left);
           List.rev !visited = List.filter (fun i -> wakes.(i) <= at) members
           && List.rev !left = kept
           && next = List.fold_left (fun m i -> min m wakes.(i)) max_int kept));
    to_alcotest
      (QCheck.Test.make
         ~name:"settle: acts and stops like visiting everyone, skips idle slices"
         ~count:500
         (QCheck.make ~print:print_settle_program settle_program_gen)
         (fun (cap, members) ->
           let idle = ref 0 in
           run_settle_model members (settle_driven ~idle ~cap)
           = run_settle_model members (visit_everyone ~cap)
           && !idle = 0));
    Alcotest.test_case "settle: a capped loop stops at cap + 1" `Quick
      (fun () ->
        (* Member 1 never settles, so the loop runs out of slices with a
           session pending; member 0 settles first and still acts. *)
        let members = [ (2, [ 3; 40 ], Some 1); (0, [ 5 ], None) ] in
        let expected = ([ (0, 1); (2, 0); (5, 0); (5, 1) ], 21) in
        Alcotest.(check (pair (list (pair int int)) int))
          "reference" expected
          (run_settle_model members (visit_everyone ~cap:20));
        Alcotest.(check (pair (list (pair int int)) int))
          "settle" expected
          (run_settle_model members (settle_driven ~idle:(ref 0) ~cap:20)));
    to_alcotest
      (QCheck.Test.make ~name:"link: nothing due means delivery is a no-op"
         ~count:300
         (QCheck.make ~print:print_link_program link_program_gen)
         (fun ((seed, loss_percent, delay, faults), ops) ->
           let link =
             Link.create ~seed ~loss_percent ~delay ~corrupt_percent:faults
               ~duplicate_percent:faults ~reorder_percent:faults ()
           in
           let at = ref 0 in
           let idle_probe_ok () =
             let due = Link.next_due link in
             due <= !at
             ||
             let before = Link.counters link in
             let to_device = Link.deliver link ~to_:Link.Device ~at:!at in
             let to_remote = Link.deliver link ~to_:Link.Remote ~at:!at in
             to_device = [] && to_remote = []
             && Link.counters link = before
             && Link.next_due link = due
           in
           let program_ok =
             List.for_all
               (fun (dt, op) ->
                 at := !at + dt;
                 let ok = idle_probe_ok () in
                 (match op with
                 | Send (from, n) ->
                     Link.send link ~from ~at:!at (Bytes.make n 'x')
                 | Deliver to_ -> ignore (Link.deliver link ~to_ ~at:!at)
                 | Burst n -> Link.set_burst link ~until:(!at + n));
                 ok)
               ops
           in
           (* Tightness: draining slice by slice at [next_due] always
              finds a frame, and the link empties to [max_int]. *)
           let rec drain steps =
             let due = Link.next_due link in
             if due = max_int then true
             else if steps = 0 then false
             else
               let frames =
                 Link.deliver link ~to_:Link.Device ~at:due
                 @ Link.deliver link ~to_:Link.Remote ~at:due
               in
               frames <> [] && drain (steps - 1)
           in
           program_ok && drain 1000));
    to_alcotest
      (QCheck.Test.make
         ~name:"verifier: polls before next_wake are no-ops; settled never wakes"
         ~count:300
         (QCheck.make ~print:print_session_program session_program_gen)
         (fun ((max_attempts, backoff, timeout_slices, refusals_to_settle), ops)
         ->
           let v =
             Verifier.create ~ka ~expected:fw ~timeout_slices
               ?backoff:(if backoff then Some Verifier.default_backoff else None)
               ~max_attempts ~refusals_to_settle ~session:"wake-prop" ()
           in
           let settled_ok () =
             Verifier.outcome v = Verifier.Pending
             || Verifier.next_wake v = max_int
           in
           let at = ref 0 in
           List.for_all
             (fun (dt, op) ->
               at := !at + dt;
               let ok =
                 match op with
                 | Poll ->
                     let wake = Verifier.next_wake v in
                     let outcome = Verifier.outcome v in
                     let attempts = Verifier.attempts v in
                     let sent = Verifier.poll v ~at:!at in
                     if !at < wake then
                       sent = None
                       && Verifier.outcome v = outcome
                       && Verifier.attempts v = attempts
                       && Verifier.next_wake v = wake
                     else
                       (* Tight: a due poll either transmits or gives up. *)
                       sent <> None || Verifier.outcome v = Verifier.Gave_up
                 | Refuse ->
                     Verifier.on_frame v
                       (Protocol.encode
                          (Protocol.Refusal { seq = Verifier.seq v }));
                     true
                 | Junk ->
                     Verifier.on_frame v (Bytes.of_string "\xff junk");
                     true
               in
               ok && settled_ok ())
             ops));
  ]

(* --- The honest device's answer ---------------------------------------------- *)

(* [Protocol.answer] is the one honest prover the swarm, the gateway and
   the OTA installer share.  The genesis is handed over lazily so that
   forcing it where it should not be forced fails the test. *)
let answer_tests =
  let loaded = Task_id.of_image (Bytes.of_string "answer-test-firmware") in
  let other = Task_id.of_image (Bytes.of_string "answer-other-firmware") in
  let ka = Attestation.derive_ka ~platform_key:(Bytes.make 20 'A') in
  let nonce = Bytes.of_string "answer-nonce" in
  let genesis = Attestation.cf_genesis ~id:loaded in
  let unforced = lazy (Alcotest.fail "genesis forced") in
  let answer ?genesis msg =
    Protocol.answer ~clock:(Cycles.create ()) ~ka ~loaded ?genesis msg
  in
  let challenge id = Protocol.Challenge { seq = 7; id; nonce } in
  let cfa_challenge id = Protocol.CfaChallenge { seq = 7; id; nonce } in
  [
    Alcotest.test_case "a challenge for the loaded identity gets a response"
      `Quick (fun () ->
        match answer ~genesis:unforced (challenge loaded) with
        | Some (Protocol.Response { seq; report }) ->
            check_int "seq echoed" 7 seq;
            check_bool "verifies" true
              (Attestation.verify ~ka report ~expected:loaded ~nonce)
        | _ -> Alcotest.fail "no response");
    Alcotest.test_case "a challenge for any other identity is refused" `Quick
      (fun () ->
        List.iter
          (fun msg ->
            check_bool "refusal" true
              (answer ~genesis:unforced msg = Some (Protocol.Refusal { seq = 7 })))
          [ challenge other; cfa_challenge other ]);
    Alcotest.test_case "a cfa challenge with a genesis gets the empty log"
      `Quick (fun () ->
        match answer ~genesis:(lazy genesis) (cfa_challenge loaded) with
        | Some (Protocol.CfaResponse { seq; report }) ->
            check_int "seq echoed" 7 seq;
            check_bool "authentic" true
              (Attestation.verify_cfa ~ka report ~expected:loaded ~nonce);
            check_bool "quiescent" true
              (Verifier.quiescent ~genesis report = Ok ())
        | _ -> Alcotest.fail "no cfa response");
    Alcotest.test_case "without a genesis a cfa challenge goes unanswered"
      `Quick (fun () ->
        check_bool "loaded identity" true (answer (cfa_challenge loaded) = None);
        check_bool "other identity" true (answer (cfa_challenge other) = None));
    Alcotest.test_case "only challenges are answered" `Quick (fun () ->
        let mac = Bytes.make 20 'm' in
        List.iter
          (fun msg ->
            check_bool "no answer" true (answer ~genesis:unforced msg = None))
          [
            Protocol.Response
              { seq = 1; report = { Attestation.id = loaded; nonce; mac } };
            Protocol.Refusal { seq = 1 };
            Protocol.CfaResponse
              {
                seq = 1;
                report =
                  {
                    Attestation.id = loaded;
                    nonce;
                    cf_digest = genesis;
                    base_digest = genesis;
                    edge_count = 0;
                    edges = [||];
                    mac;
                  };
              };
            Protocol.UpdateOffer
              { seq = 1; id = loaded; version = 2; size = 4; digest = mac; mac };
            Protocol.UpdateChunk { seq = 1; offset = 0; data = nonce };
            Protocol.UpdateAck { seq = 1; status = Protocol.Ota_ready; arg = 0 };
          ]);
    Alcotest.test_case "only the MACs are charged" `Quick (fun () ->
        let charged msg =
          let clock = Cycles.create () in
          ignore
            (Protocol.answer ~clock ~ka ~loaded
               ~genesis:(lazy (Attestation.cf_genesis ~id:loaded))
               msg);
          Cycles.now clock
        in
        let reference f =
          let clock = Cycles.create () in
          ignore (Cost_model.charge_hashing clock f);
          Cycles.now clock
        in
        check_int "challenge"
          (reference (fun () -> Attestation.expected_mac ~ka ~id:loaded ~nonce))
          (charged (challenge loaded));
        check_int "cfa challenge"
          (reference (fun () ->
               Attestation.expected_cfa_mac ~ka ~id:loaded ~nonce
                 ~cf_digest:genesis ~base_digest:genesis ~edge_count:0))
          (charged (cfa_challenge loaded));
        check_int "refusal" 0 (charged (challenge other)));
    Alcotest.test_case "a challenge with byte 0 xor 0x05 is a cfa challenge"
      `Quick (fun () ->
        (* 'C' xor 0x05 = 'F': the one corruption of a plain challenge
           that reaches a prover as a control-flow challenge. *)
        let frame = Protocol.encode (challenge loaded) in
        Bytes.set frame 0 (Char.chr (Char.code (Bytes.get frame 0) lxor 0x05));
        match Protocol.decode frame with
        | Ok (Protocol.CfaChallenge { seq; id; nonce = n }) ->
            check_int "seq" 7 seq;
            check_bool "id" true (Task_id.equal id loaded);
            check_bool "nonce" true (Bytes.equal n nonce)
        | _ -> Alcotest.fail "not a cfa challenge");
  ]

let () =
  Alcotest.run "netsim"
    [
      ("link", link_tests);
      ("protocol", protocol_tests);
      ("protocol-properties", protocol_property_tests);
      ("answer", answer_tests);
      ("cosim", cosim_tests);
      ("cfa-cosim", cfa_cosim_tests);
      ("verifier-session", session_tests);
      ("wake-properties", wake_property_tests);
    ]
