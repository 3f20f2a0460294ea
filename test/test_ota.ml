(* The OTA subsystem: the monotonic anti-rollback counter, the signed
   update wire format and its defensive decoder, the device-side
   installer (admit → stage → vet → swap), measured activation under
   fault injection, and the canary rollout engine's acceptance
   scenarios. *)

open Tytan_machine
open Tytan_rtos
open Tytan_core
open Tytan_netsim
open Tytan_ota
module Tasks = Tytan_tasks.Task_lib
module Sha1 = Tytan_crypto.Sha1
module Telf = Tytan_telf.Telf
module Chaos = Tytan_fault.Chaos
module Gateway = Tytan_serve.Gateway

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* --- Monotonic counter device --------------------------------------------- *)

let fresh_counter ?initial () =
  let clock = Cycles.create () in
  let c =
    Devices.Monotonic_counter.create clock ~name:"ctr" ~base:0xF000_6000
      ~read_cost:Cost_model.counter_read
      ~increment_cost:Cost_model.counter_increment ?initial ()
  in
  (clock, c)

let counter_tests =
  let module M = Devices.Monotonic_counter in
  [
    Alcotest.test_case "counts up and only up" `Quick (fun () ->
        let _, c = fresh_counter () in
        check_int "fresh" 0 (M.value c);
        check_int "increment" 1 (M.increment c);
        check_int "advance_to" 5 (M.advance_to c 5);
        check_int "advance_to lower is a no-op" 5 (M.advance_to c 3);
        check_int "value" 5 (M.value c));
    Alcotest.test_case "MMIO value writes are refused and counted" `Quick
      (fun () ->
        let _, c = fresh_counter () in
        ignore (M.advance_to c 4);
        let d = M.device c in
        d.Memory.write32 ~offset:0 0;
        d.Memory.write32 ~offset:0 99;
        check_int "value never moved" 4 (M.value c);
        check_int "both attempts counted" 2 (M.reset_attempts c);
        check_int "tamper register agrees" 2 (d.Memory.read32 ~offset:8));
    Alcotest.test_case "MMIO increment register works" `Quick (fun () ->
        let _, c = fresh_counter () in
        let d = M.device c in
        d.Memory.write32 ~offset:4 1;
        d.Memory.write32 ~offset:4 0xdead;
        check_int "two increments" 2 (M.value c);
        check_int "served count readable" 2 (d.Memory.read32 ~offset:4));
    Alcotest.test_case "NV work is charged to the device clock" `Quick
      (fun () ->
        let clock, c = fresh_counter () in
        ignore (M.increment c);
        check_int "increment cost" Cost_model.counter_increment
          (Cycles.now clock);
        let d = M.device c in
        ignore (d.Memory.read32 ~offset:0);
        check_int "read cost on top"
          (Cost_model.counter_increment + Cost_model.counter_read)
          (Cycles.now clock));
    Alcotest.test_case "snapshots restore forward-only" `Quick (fun () ->
        let _, c = fresh_counter () in
        ignore (M.advance_to c 3);
        let snap = M.save c in
        (* A fresh part provisioned from the snapshot comes up at 3. *)
        let _, fresh = fresh_counter () in
        check_bool "restore ok" true (Result.is_ok (M.restore fresh snap));
        check_int "provisioned" 3 (M.value fresh);
        (* A stale snapshot can never roll a live part back. *)
        ignore (M.advance_to c 7);
        check_bool "stale restore tolerated" true
          (Result.is_ok (M.restore c snap));
        check_int "value kept" 7 (M.value c);
        check_int "rollback attempt counted" 1 (M.reset_attempts c);
        check_bool "garbage refused" true
          (Result.is_error (M.restore c (Bytes.of_string "xx"))));
  ]

(* --- OTA wire format -------------------------------------------------------- *)

let sample_offer ?(seq = 7) ?(version = 2) () =
  Protocol.UpdateOffer
    {
      seq;
      id = Task_id.of_image (Bytes.of_string "image-bytes");
      version;
      size = 640;
      digest = Bytes.make 20 'd';
      mac = Bytes.make 20 'm';
    }

let wire_tests =
  [
    Alcotest.test_case "offer round trip" `Quick (fun () ->
        let m = sample_offer () in
        check_bool "round trip" true (Protocol.decode (Protocol.encode m) = Ok m));
    Alcotest.test_case "chunk round trip" `Quick (fun () ->
        let m =
          Protocol.UpdateChunk
            { seq = 3; offset = 512; data = Bytes.of_string "payload-bytes" }
        in
        check_bool "round trip" true (Protocol.decode (Protocol.encode m) = Ok m));
    Alcotest.test_case "every ack status round trips" `Quick (fun () ->
        List.iter
          (fun status ->
            let m = Protocol.UpdateAck { seq = 9; status; arg = 41 } in
            check_bool
              (Protocol.ack_status_label status)
              true
              (Protocol.decode (Protocol.encode m) = Ok m))
          [
            Protocol.Ota_ready; Protocol.Ota_need; Protocol.Ota_applied;
            Protocol.Ota_refused_auth; Protocol.Ota_refused_rollback;
            Protocol.Ota_refused_digest; Protocol.Ota_refused_vet;
            Protocol.Ota_refused_crash;
          ]);
    Alcotest.test_case "every truncation of an offer is refused" `Quick
      (fun () ->
        let frame = Protocol.encode (sample_offer ()) in
        for len = 1 to Bytes.length frame - 1 do
          check_bool
            (Printf.sprintf "len %d" len)
            true
            (Result.is_error (Protocol.decode (Bytes.sub frame 0 len)))
        done);
    Alcotest.test_case "oversized and empty chunks cannot be encoded" `Quick
      (fun () ->
        let enc data =
          match
            Protocol.encode (Protocol.UpdateChunk { seq = 1; offset = 0; data })
          with
          | _ -> false
          | exception Invalid_argument _ -> true
        in
        check_bool "empty refused" true (enc Bytes.empty);
        check_bool "oversized refused" true
          (enc (Bytes.create (Protocol.max_chunk + 1)));
        check_bool "max ok" false (enc (Bytes.create Protocol.max_chunk)));
  ]

let wire_property_tests =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  [
    to_alcotest
      (QCheck.Test.make ~name:"mutated ota frames never crash the decoder"
         ~count:400
         (QCheck.triple
            (QCheck.make QCheck.Gen.(int_bound 2))
            (QCheck.list_of_size
               QCheck.Gen.(int_range 0 8)
               (QCheck.pair QCheck.small_nat
                  (QCheck.make QCheck.Gen.(int_bound 255))))
            QCheck.small_nat)
         (fun (pick, flips, cut) ->
           let frame =
             Protocol.encode
               (match pick with
               | 0 -> sample_offer ()
               | 1 ->
                   Protocol.UpdateChunk
                     { seq = 1; offset = 64; data = Bytes.make 32 'x' }
               | _ ->
                   Protocol.UpdateAck
                     { seq = 1; status = Protocol.Ota_applied; arg = 3 })
           in
           List.iter
             (fun (pos, v) ->
               Bytes.set frame (pos mod Bytes.length frame) (Char.chr v))
             flips;
           let frame =
             if cut mod 3 = 0 then Bytes.sub frame 0 (cut mod Bytes.length frame)
             else frame
           in
           ignore (Protocol.decode frame : (Protocol.message, string) result);
           (* The device endpoint survives the same hostility. *)
           let _, counter = fresh_counter () in
           let inst =
             Installer.create ~serial:"fuzz" ~ka:(Bytes.make 20 'k')
               ~clock:(Cycles.create ()) ~counter
               ~loaded:(Task_id.of_image (Bytes.of_string "fw"))
               ()
           in
           ignore (Installer.on_frame inst frame : Protocol.message list);
           true));
  ]

(* --- Installer: admit, stage, vet, swap ------------------------------------- *)

let ka = Bytes.make 20 'K'

let make_installer ?persist ?initial () =
  let clock = Cycles.create () in
  let _, counter = fresh_counter ?initial () in
  let inst =
    Installer.create ~serial:"dev-0" ~ka ~clock ~counter
      ~loaded:(Task_id.of_image (Bytes.of_string "incumbent"))
      ?persist ()
  in
  (clock, inst)

(* A genuine offer for [id] whose digest covers [payload], whatever the
   bytes are. *)
let signed_offer ~seq ~version ~id payload =
  let size = Bytes.length payload in
  let digest = Sha1.digest payload in
  Protocol.UpdateOffer
    {
      seq;
      id;
      version;
      size;
      digest;
      mac = Attestation.update_mac ~ka ~id ~version ~size ~digest;
    }

let offer_of ?(seq = 1) ~version telf =
  let payload = Telf.encode telf in
  let id = Task_id.of_image telf.Telf.image in
  (signed_offer ~seq ~version ~id payload, payload, id)

let feed inst m = Installer.on_frame inst (Protocol.encode m)

(* Stream the payload in order, 128 bytes at a time; return the last ack. *)
let stream ?(seq = 1) ?(corrupt_at = -1) inst payload =
  let n = Bytes.length payload in
  let last = ref None in
  let off = ref 0 in
  while !off < n do
    let len = min 128 (n - !off) in
    let data = Bytes.sub payload !off len in
    if corrupt_at >= !off && corrupt_at < !off + len then
      Bytes.set data (corrupt_at - !off)
        (Char.chr (Char.code (Bytes.get data (corrupt_at - !off)) lxor 1));
    (match feed inst (Protocol.UpdateChunk { seq; offset = !off; data }) with
    | [ ack ] -> last := Some ack
    | _ -> ());
    off := !off + len
  done;
  !last

let status_of = function
  | Some (Protocol.UpdateAck { status; _ }) -> Some status
  | _ -> None

let installer_tests =
  [
    Alcotest.test_case "clean image: admitted, vetted, swapped" `Quick
      (fun () ->
        let saved = ref None in
        let _, inst = make_installer ~persist:(fun b -> saved := Some b) () in
        let offer, payload, id = offer_of ~version:1 (Tasks.yielder ~count:4 ()) in
        check_bool "ready" true
          (status_of (Some (List.hd (feed inst offer))) = Some Protocol.Ota_ready);
        check_bool "applied" true
          (status_of (stream inst payload) = Some Protocol.Ota_applied);
        check_bool "identity adopted" true
          (Task_id.equal (Installer.loaded inst) id);
        check_int "counter advanced to the version" 1
          (Installer.counter_value inst);
        check_int "one activation" 1 (Installer.activations inst);
        (* The persisted snapshot provisions a replacement part. *)
        let _, spare = fresh_counter () in
        check_bool "snapshot restores" true
          (Result.is_ok
             (Devices.Monotonic_counter.restore spare (Option.get !saved)));
        check_int "replacement at the same version" 1
          (Devices.Monotonic_counter.value spare));
    Alcotest.test_case "stale version: refused at the door, nothing staged"
      `Quick (fun () ->
        let clock, inst = make_installer ~initial:3 () in
        let offer, _, _ = offer_of ~version:3 (Tasks.yielder ~count:4 ()) in
        let before = Cycles.now clock in
        (match feed inst offer with
        | [ Protocol.UpdateAck { status = Protocol.Ota_refused_rollback; arg; _ } ]
          ->
            check_int "refusal names the counter" 3 arg
        | _ -> Alcotest.fail "expected a rollback refusal");
        check_int "counted" 1 (Installer.rollback_refusals inst);
        check_int "nothing staged" 0 (Installer.staged_bytes inst);
        check_bool "refusal latency measured" true
          (Installer.last_refusal_cycles inst > 0
          && Installer.last_refusal_cycles inst <= Cycles.now clock - before));
    Alcotest.test_case "forged mac: refused" `Quick (fun () ->
        let _, inst = make_installer () in
        let offer, _, _ = offer_of ~version:1 (Tasks.yielder ~count:4 ()) in
        let forged =
          match offer with
          | Protocol.UpdateOffer o ->
              Protocol.UpdateOffer { o with version = 9 }  (* mac now stale *)
          | m -> m
        in
        check_bool "auth refusal" true
          (status_of (Some (List.hd (feed inst forged)))
          = Some Protocol.Ota_refused_auth);
        check_int "counted" 1 (Installer.auth_refusals inst));
    Alcotest.test_case "leaky image: staged fully, refused by the vet" `Quick
      (fun () ->
        let _, inst = make_installer () in
        let leaky =
          Tasks.key_leaker
            ~receiver:(Task_id.of_image (Bytes.of_string "exfil-sink"))
            ()
        in
        let offer, payload, _ = offer_of ~version:1 leaky in
        ignore (feed inst offer);
        check_bool "vet refusal" true
          (status_of (stream inst payload) = Some Protocol.Ota_refused_vet);
        check_int "counter never advanced" 0 (Installer.counter_value inst);
        check_bool "incumbent keeps running" true
          (Task_id.equal (Installer.loaded inst)
             (Task_id.of_image (Bytes.of_string "incumbent"))));
    Alcotest.test_case "corrupted chunk: digest refusal, not activation" `Quick
      (fun () ->
        let _, inst = make_installer () in
        let offer, payload, _ = offer_of ~version:1 (Tasks.yielder ~count:4 ()) in
        ignore (feed inst offer);
        check_bool "digest refusal" true
          (status_of (stream ~corrupt_at:40 inst payload)
          = Some Protocol.Ota_refused_digest);
        check_int "counter untouched" 0 (Installer.counter_value inst));
    Alcotest.test_case "truncated frames die in the decoder" `Quick (fun () ->
        let _, inst = make_installer () in
        let offer, _, _ = offer_of ~version:1 (Tasks.yielder ~count:4 ()) in
        let frame = Protocol.encode offer in
        List.iter
          (fun len ->
            check_bool "no reply" true
              (Installer.on_frame inst (Bytes.sub frame 0 len) = []))
          [ 1; 4; 12; Bytes.length frame / 2; Bytes.length frame - 1 ];
        check_int "all counted malformed" 5 (Installer.malformed inst);
        check_int "nothing admitted" 0 (Installer.staged_bytes inst));
    Alcotest.test_case "lost final ack: the conclusion is replayed" `Quick
      (fun () ->
        let _, inst = make_installer () in
        let offer, payload, _ = offer_of ~version:1 (Tasks.yielder ~count:4 ()) in
        ignore (feed inst offer);
        ignore (stream inst payload);
        check_int "applied once" 1 (Installer.activations inst);
        (* The sender never heard Ota_applied and retransmits: the
           installer must answer with the same conclusion, not a
           rollback refusal, and must not re-apply. *)
        check_bool "offer retransmission gets the verdict" true
          (status_of (Some (List.hd (feed inst offer)))
          = Some Protocol.Ota_applied);
        let tail_off = ((Bytes.length payload - 1) / 128) * 128 in
        let tail =
          Bytes.sub payload tail_off (Bytes.length payload - tail_off)
        in
        check_bool "chunk retransmission too" true
          (status_of
             (Some
                (List.hd
                   (feed inst
                      (Protocol.UpdateChunk
                         { seq = 1; offset = tail_off; data = tail }))))
          = Some Protocol.Ota_applied);
        check_int "still applied exactly once" 1 (Installer.activations inst);
        check_int "no rollback miscount" 0 (Installer.rollback_refusals inst));
    Alcotest.test_case "out-of-order chunk: cumulative nack" `Quick (fun () ->
        let _, inst = make_installer () in
        let offer, payload, _ = offer_of ~version:1 (Tasks.yielder ~count:4 ()) in
        ignore (feed inst offer);
        match
          feed inst
            (Protocol.UpdateChunk
               { seq = 1; offset = 128; data = Bytes.sub payload 128 64 })
        with
        | [ Protocol.UpdateAck { status = Protocol.Ota_need; arg; _ } ] ->
            check_int "resume from zero" 0 arg
        | _ -> Alcotest.fail "expected a cumulative nack");
    Alcotest.test_case "crash mid-swap: no activation, then silence" `Quick
      (fun () ->
        let _, inst = make_installer () in
        Installer.arm_crash inst;
        let offer, payload, _ = offer_of ~version:1 (Tasks.yielder ~count:4 ()) in
        ignore (feed inst offer);
        check_bool "reboot report" true
          (status_of (stream inst payload) = Some Protocol.Ota_refused_crash);
        check_bool "crashed" true (Installer.crashed inst);
        check_int "counter never advanced" 0 (Installer.counter_value inst);
        check_bool "incumbent identity kept" true
          (Task_id.equal (Installer.loaded inst)
             (Task_id.of_image (Bytes.of_string "incumbent")));
        check_bool "silent until re-admitted" true (feed inst offer = []);
        Installer.clear_crash inst;
        check_bool "answers again after reboot" true (feed inst offer <> []));
    Alcotest.test_case "counter reset attempt bounces off the hardware" `Quick
      (fun () ->
        let _, inst = make_installer ~initial:5 () in
        Installer.attempt_counter_reset inst;
        check_int "value kept" 5 (Installer.counter_value inst);
        check_int "tamper counted" 1 (Installer.reset_attempts inst));
    Alcotest.test_case "answers attestation for what it runs" `Quick (fun () ->
        let _, inst = make_installer () in
        let id = Installer.loaded inst in
        let nonce = Bytes.make 20 'n' in
        (match feed inst (Protocol.Challenge { seq = 11; id; nonce }) with
        | [ Protocol.Response { report; _ } ] ->
            check_bool "genuine mac" true
              (Bytes.equal report.Attestation.mac
                 (Attestation.expected_mac ~ka ~id ~nonce))
        | _ -> Alcotest.fail "expected a static response");
        match
          feed inst
            (Protocol.Challenge
               {
                 seq = 12;
                 id = Task_id.of_image (Bytes.of_string "something-else");
                 nonce;
               })
        with
        | [ Protocol.Refusal _ ] -> ()
        | _ -> Alcotest.fail "expected a refusal for a foreign identity");
  ]

(* --- The per-domain analysis memo behind finalize ---------------------------- *)

let leaky_image () =
  Tasks.key_leaker ~receiver:(Task_id.of_image (Bytes.of_string "exfil-sink")) ()

(* One staging: a genuine offer naming [id], then [payload] streamed. *)
type staging = { offer : Protocol.message; id : Task_id.t; payload : bytes }

let staging_pool =
  let of_telf telf =
    let offer, payload, id = offer_of ~version:1 telf in
    { offer; id; payload }
  in
  let signed ~id payload =
    { offer = signed_offer ~seq:1 ~version:1 ~id payload; id; payload }
  in
  let a = Tasks.yielder ~count:2 () and b = Tasks.yielder ~count:5 () in
  let junk = Bytes.of_string "signed for, but no TELF binary" in
  [|
    of_telf a;
    of_telf (Tasks.yielder ~count:3 ());
    of_telf b;
    of_telf (leaky_image ());
    (* a genuine digest over bytes that do not decode *)
    signed ~id:(Task_id.of_image junk) junk;
    (* signed for [a]'s identity, streams [b]'s image *)
    signed ~id:(Task_id.of_image a.Telf.image) (Telf.encode b);
  |]

(* The oracle: the checks finalize made before it kept a memo, run fresh
   on every staging — decode, then identity, then the vet. *)
let fresh_status s =
  match Telf.decode s.payload with
  | Error _ -> Protocol.Ota_refused_digest
  | Ok telf ->
      if not (Task_id.equal (Task_id.of_image telf.Telf.image) s.id) then
        Protocol.Ota_refused_auth
      else if (Gate.vet telf).Gate.accepted then Protocol.Ota_applied
      else Protocol.Ota_refused_vet

let memo_tests =
  (* Device-clock cycles of the first installer to stage each pool entry,
     across every generated sequence: a memo hit must bill exactly what
     the miss did. *)
  let cycles_of = Hashtbl.create 8 in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"memoized finalize agrees with a fresh decode, identity and vet"
         ~count:100
         QCheck.(
           list_of_size
             Gen.(int_range 1 12)
             (int_bound (Array.length staging_pool - 1)))
         (fun picks ->
           List.iter
             (fun i ->
               let s = staging_pool.(i) in
               let clock, inst = make_installer () in
               ignore (feed inst s.offer);
               let status = status_of (stream inst s.payload) in
               let expected = fresh_status s in
               if status <> Some expected then
                 QCheck.Test.fail_reportf "entry %d: status %s, oracle %s" i
                   (Option.fold ~none:"none" ~some:Protocol.ack_status_label
                      status)
                   (Protocol.ack_status_label expected);
               let counts =
                 Installer.
                   [
                     rollback_refusals inst; auth_refusals inst;
                     vet_refusals inst; digest_refusals inst;
                   ]
               in
               let one st = Bool.to_int (expected = st) in
               if
                 counts
                 <> [
                      0; one Protocol.Ota_refused_auth;
                      one Protocol.Ota_refused_vet;
                      one Protocol.Ota_refused_digest;
                    ]
               then QCheck.Test.fail_reportf "entry %d: refusal counters" i;
               let cycles = Cycles.now clock in
               match Hashtbl.find_opt cycles_of i with
               | None -> Hashtbl.add cycles_of i cycles
               | Some first when first = cycles -> ()
               | Some first ->
                   QCheck.Test.fail_reportf "entry %d: %d cycles, first run %d"
                     i cycles first)
             picks;
           true));
  ]

(* --- Sealed counter persistence across reboot -------------------------------- *)

let persistence_tests =
  [
    Alcotest.test_case "counter snapshot survives reboot via sealed storage"
      `Quick (fun () ->
        (* The device seals its counter snapshot under the firmware's
           identity; after a reboot (fresh platform, imported NVM) the
           restored counter still refuses the rollback. *)
        let owner = Task_id.of_image (Bytes.of_string "updater-fw") in
        let saved = ref Bytes.empty in
        let _, inst = make_installer ~persist:(fun b -> saved := b) () in
        let offer, payload, _ = offer_of ~version:4 (Tasks.yielder ~count:4 ()) in
        ignore (feed inst offer);
        ignore (stream inst payload);
        check_int "at version 4" 4 (Installer.counter_value inst);
        let p = Platform.create () in
        let storage = Option.get (Platform.storage p) in
        Secure_storage.seal storage ~owner ~slot:0 !saved;
        let nvm = Secure_storage.export storage in
        (* Reboot: a new platform imports the NVM image. *)
        let p2 = Platform.create () in
        let storage2 = Option.get (Platform.storage p2) in
        check_bool "import ok" true
          (Result.is_ok (Secure_storage.import storage2 nvm));
        let snap = Option.get (Secure_storage.unseal storage2 ~owner ~slot:0) in
        let _, c2 = fresh_counter () in
        check_bool "restored" true
          (Result.is_ok (Devices.Monotonic_counter.restore c2 snap));
        check_int "version survives the reboot" 4
          (Devices.Monotonic_counter.value c2);
        check_bool "stale offer still refused after reboot" true
          (not (Gate.version_ok ~counter:(Devices.Monotonic_counter.value c2)
                  ~version:4)));
  ]

(* --- Update.apply: measured activation under fault injection ----------------- *)

let load p ?priority ?secure name telf =
  Result.get_ok (Platform.load_blocking p ~name ?priority ?secure telf)

let apply_tests =
  [
    Alcotest.test_case "clean image: vetted, measured, swapped" `Quick
      (fun () ->
        let p = Platform.create () in
        let old_task = load p "svc" (Tasks.counter ()) in
        Platform.run_ticks p 3;
        let report =
          Result.get_ok (Update.apply p ~old_task (Tasks.yielder ~count:6 ()))
        in
        check_bool "old gone" true (old_task.Tcb.state = Tcb.Terminated);
        check_bool "new alive" true
          (report.Update.task.Tcb.state <> Tcb.Terminated);
        check_bool "swap stays bounded" true
          (report.Update.downtime_cycles * 10 < report.Update.staging_cycles));
    Alcotest.test_case "leaky image: vet refuses, old keeps running" `Quick
      (fun () ->
        let p = Platform.create () in
        let old_task = load p "svc" (Tasks.counter ()) in
        let leaky =
          Tasks.key_leaker
            ~receiver:(Task_id.of_image (Bytes.of_string "exfil-sink"))
            ()
        in
        (match Update.apply p ~old_task leaky with
        | Error e -> check_bool "names the vet" true (contains ~sub:"vet" e)
        | Ok _ -> Alcotest.fail "a leaky image was activated");
        check_bool "old keeps running" true
          (old_task.Tcb.state <> Tcb.Terminated));
    Alcotest.test_case
      "bit flip between vet and activation: never activate unmeasured" `Quick
      (fun () ->
        let p = Platform.create () in
        let old_task = load p "svc" (Tasks.counter ()) in
        let clean = Tasks.yielder ~count:6 () in
        let signed_for = Rtm.identity_of_telf clean in
        (* The image is tampered after the authority signed it: flip a
           data byte (the code still vets clean, so only the measurement
           can catch it). *)
        let image = Bytes.copy clean.Telf.image in
        Bytes.set image clean.Telf.text_size
          (Char.chr (Char.code (Bytes.get image clean.Telf.text_size) lxor 0x40));
        let tampered = { clean with Telf.image = image } in
        let alive () =
          List.length
            (List.filter
               (fun (t : Tcb.t) -> t.Tcb.state <> Tcb.Terminated)
               (Kernel.all_tasks (Platform.kernel p)))
        in
        let before = alive () in
        (match Update.apply p ~old_task ~expected:signed_for tampered with
        | Error e ->
            check_bool "measurement mismatch reported" true
              (contains ~sub:"vetted identity" e)
        | Ok _ -> Alcotest.fail "an unmeasured image was activated");
        check_bool "old keeps running" true
          (old_task.Tcb.state <> Tcb.Terminated);
        check_int "staged copy reclaimed" before (alive ()));
    Alcotest.test_case "watchdog bite during the update is survivable" `Quick
      (fun () ->
        let tick = Platform.default_config.Platform.tick_period in
        let config = { Platform.default_config with trace_enabled = true } in
        let p = Platform.create ~config () in
        let old_task = load p "svc" (Tasks.counter ()) in
        let worker = load p "worker" (Chaos.steady_worker ()) in
        let sup = Supervisor.create p in
        let watchdog =
          Platform.attach_watchdog p ~name:"wd" ~base:0xF100_0000 ~irq:5
            ~timeout:(4 * tick)
        in
        Supervisor.supervise sup worker ~policy:Supervisor.default_policy
          ~watchdog ();
        Platform.run_ticks p 3;
        (* Hang the supervised task, then update the service while the
           watchdog is counting down: the bite and the supervisor's
           restart land around the staging window and must not corrupt
           the swap. *)
        Platform.suspend p worker;
        Platform.run_ticks p 2;
        (* The replacement must keep running after the bite settles, so
           it is a counter (runs forever), not a finite yielder. *)
        let report =
          Result.get_ok (Update.apply p ~old_task (Tasks.counter ()))
        in
        Platform.run_ticks p 20;
        check_bool "update completed" true
          (report.Update.task.Tcb.state <> Tcb.Terminated);
        check_bool "old version gone" true (old_task.Tcb.state = Tcb.Terminated);
        check_bool "watchdog bit" true (Supervisor.bites sup >= 1);
        check_bool "worker recovered" true
          (Supervisor.state_of sup ~name:"worker" = Some Supervisor.Running));
  ]

(* --- Canary rollout: the acceptance scenarios -------------------------------- *)

let platform_key_of ~serial =
  Sha1.digest (Bytes.of_string ("test-platform-key:" ^ serial))

let wave label version image = { Rollout.label; version; image }

let clean_wave v = wave (Printf.sprintf "clean-%d" v) v (Tasks.yielder ~count:(2 + v) ())

let run_waves ?(devices = 8) ?(canary = 2) ?(seed = 3) ?(faults = false) waves =
  Rollout.run ~devices ~canary ~seed ~faults ~platform_key_of
    ~incumbent:(Tasks.counter ()) waves

let rollout_tests =
  [
    Alcotest.test_case "clean waves canary then promote fleet-wide" `Quick
      (fun () ->
        let r = run_waves [ clean_wave 1; clean_wave 2 ] in
        check_int "two waves" 2 (List.length r.Rollout.waves);
        List.iter
          (fun (w : Rollout.wave_stats) ->
            check_bool "promoted" true w.Rollout.promoted;
            check_int "whole fleet applied" 8 w.Rollout.applied;
            check_int "every canary re-attested" 2 w.Rollout.attest_ok;
            check_int "no attest failures" 0 w.Rollout.attest_failed)
          r.Rollout.waves;
        check_bool "all counters advanced to the last version" true
          (List.for_all (fun c -> c = 2) r.Rollout.counters);
        check_bool "survived" true r.Rollout.survived;
        check_bool "nobody quarantined" true (r.Rollout.quarantined = []);
        check_bool "engine settled everything" false
          (Rollout.campaign_failed r));
    Alcotest.test_case "stale version: refused, presenter quarantined" `Quick
      (fun () ->
        let r =
          run_waves
            [ clean_wave 1; clean_wave 2;
              wave "stale" 1 (Tasks.yielder ~count:3 ()) ]
        in
        let stale = List.nth r.Rollout.waves 2 in
        check_bool "aborted" true stale.Rollout.aborted;
        check_int "only the canaries were ever offered" 2 stale.Rollout.offered;
        check_int "every canary refused the rollback" 2
          stale.Rollout.refused_rollback;
        check_int "nothing staged" 0 stale.Rollout.staged;
        check_bool "abort names the rollback" true
          (contains ~sub:"rollback"
             (Option.value ~default:"" stale.Rollout.abort_reason));
        check_bool "presenting devices quarantined" true
          (stale.Rollout.newly_quarantined
          = [ "dev-00000"; "dev-00001" ]);
        (* The refusal is cheap: offer check + MAC + counter read. *)
        check_bool "refusal latency measured" true
          (r.Rollout.rollback_refusal_cycles > 0
          && r.Rollout.rollback_refusal_cycles < 100_000);
        check_bool "fleet counters unharmed" true
          (List.for_all (fun c -> c = 2) r.Rollout.counters));
    Alcotest.test_case "leaky image: canary vet aborts before the fleet stages"
      `Quick (fun () ->
        let leaky =
          Tasks.key_leaker
            ~receiver:(Task_id.of_image (Bytes.of_string "exfil-sink"))
            ()
        in
        let r = run_waves [ clean_wave 1; wave "leaky" 2 leaky ] in
        let w = List.nth r.Rollout.waves 1 in
        check_bool "aborted" true w.Rollout.aborted;
        check_int "offered to canaries only" 2 w.Rollout.offered;
        check_int "refused by the on-device vet" 2 w.Rollout.refused_vet;
        check_int "no activations" 0 w.Rollout.applied;
        check_bool "abort names the vet" true
          (contains ~sub:"vet"
             (Option.value ~default:"" w.Rollout.abort_reason));
        check_bool "canaries pulled" true
          (w.Rollout.newly_quarantined = [ "dev-00000"; "dev-00001" ]);
        (* The fleet still runs wave 1: no counter moved past 1. *)
        check_bool "no device adopted the leaky version" true
          (List.for_all (fun c -> c = 1) r.Rollout.counters));
    Alcotest.test_case "fault campaign is deterministic" `Quick (fun () ->
        let waves = [ clean_wave 1; clean_wave 2; clean_wave 3 ] in
        let a = run_waves ~devices:10 ~canary:3 ~seed:11 ~faults:true waves in
        let b = run_waves ~devices:10 ~canary:3 ~seed:11 ~faults:true waves in
        check_bool "identical reports" true (Rollout.equal a b);
        check_bool "verdict strings identical" true
          (Rollout.verdicts a = Rollout.verdicts b);
        let c = run_waves ~devices:10 ~canary:3 ~seed:12 ~faults:true waves in
        check_bool "different seed, different campaign" false
          (Rollout.to_string a = Rollout.to_string c));
    Alcotest.test_case "fault schedule is seeded and ota-flavoured" `Quick
      (fun () ->
        let a = Rollout.fault_events ~seed:5 ~devices:8 ~waves:6 in
        let b = Rollout.fault_events ~seed:5 ~devices:8 ~waves:6 in
        check_bool "deterministic" true (a = b);
        Alcotest.(check (list int))
          "one entry per wave, in order" [ 0; 1; 2; 3; 4; 5 ]
          (List.map (fun (wave, _, _) -> wave) a);
        check_bool "devices in range" true
          (List.for_all (fun (_, d, _) -> 0 <= d && d < 8) a));
    Alcotest.test_case "flat rollout (canary = fleet) has no gate" `Quick
      (fun () ->
        let r = run_waves ~devices:6 ~canary:6 [ clean_wave 1 ] in
        let w = List.hd r.Rollout.waves in
        check_bool "promoted" true w.Rollout.promoted;
        check_int "everyone canaried" 6 w.Rollout.offered;
        check_int "everyone re-attested" 6 w.Rollout.attest_ok);
    Alcotest.test_case "a wave with no eligible device aborts" `Quick
      (fun () ->
        (* Two leaky waves quarantine all four devices, two at a time:
           the last wave's canary cohort is empty. *)
        let r =
          run_waves ~devices:4 ~canary:2 ~seed:1
            [
              clean_wave 1; wave "leaky" 2 (leaky_image ());
              wave "leaky" 3 (leaky_image ()); clean_wave 4;
            ]
        in
        let w = List.nth r.Rollout.waves 3 in
        check_int "nobody offered" 0 w.Rollout.offered;
        check_bool "aborted, not promoted" true
          (w.Rollout.aborted && not w.Rollout.promoted);
        check_bool "abort names the empty cohort" true
          (w.Rollout.abort_reason = Some "no eligible device");
        check_int "counted as aborted" 3
          (List.assoc "ota.waves_aborted" r.Rollout.telemetry);
        check_int "only the first wave promoted" 1
          (List.assoc "ota.waves_promoted" r.Rollout.telemetry));
    Alcotest.test_case "campaigns on two domains match their sequential runs"
      `Quick (fun () ->
        (* Each domain's memo sees its own image sequence: clean, leaky,
           clean, leaky, clean on the spawned domain, leaky, clean,
           clean, leaky on this one. *)
        let leaky v = wave "leaky" v (leaky_image ()) in
        let spawned_waves =
          [ clean_wave 1; leaky 3; clean_wave 4; leaky 5; clean_wave 6 ]
        and main_waves = [ leaky 2; clean_wave 3; clean_wave 4; leaky 5 ] in
        let spawned () =
          Rollout.to_string
            (run_waves ~devices:24 ~canary:4 ~seed:4 ~faults:true spawned_waves)
        and main () = Rollout.to_string (run_waves main_waves) in
        let want_spawned = spawned () and want_main = main () in
        for _ = 1 to 5 do
          let other = Domain.spawn spawned in
          let mine = main () in
          let theirs = Domain.join other in
          Alcotest.(check string) "this domain" want_main mine;
          Alcotest.(check string) "spawned domain" want_spawned theirs
        done);
  ]

(* --- One strict-vet refusal for the gate and Update.apply ------------------- *)

let gate_tests =
  [
    Alcotest.test_case "the gate refuses the key leaker by its flow" `Quick
      (fun () ->
        let v = Gate.vet (leaky_image ()) in
        check_bool "refused" false v.Gate.accepted;
        check_bool "vet charged" true (v.Gate.vet_cycles > 0);
        let msg = Option.value v.Gate.refusal ~default:"" in
        check_bool "refusal names the secret flow" true
          (contains ~sub:"flow" msg && contains ~sub:"IPC payload" msg);
        let clean = Gate.vet (Tasks.counter ()) in
        check_bool "clean accepted with no refusal" true
          (clean.Gate.accepted && clean.Gate.refusal = None));
    Alcotest.test_case "an unknown refuses with the gate's reason" `Quick
      (fun () ->
        (* busy_loop is isolated, so its only non-Info finding is the
           unbounded-WCET unknown: both paths must name it. *)
        let busy = Tasks.busy_loop () in
        let v = Gate.vet busy in
        check_bool "gate refuses" false v.Gate.accepted;
        let reason = Option.value v.Gate.refusal ~default:"" in
        check_bool "the gate names the WCET finding" true
          (contains ~sub:"wcet" reason);
        let p = Platform.create () in
        let old_task = load p "svc" (Tasks.counter ()) in
        (match Update.apply p ~old_task busy with
        | Error e ->
            Alcotest.(check string) "Update.apply gives the same reason"
              ("vet refused: " ^ reason) e
        | Ok _ -> Alcotest.fail "an unproven image was activated");
        check_bool "old keeps running" true
          (old_task.Tcb.state <> Tcb.Terminated));
  ]

(* --- Closed-loop serve arrivals ---------------------------------------------- *)

let serve_tests =
  [
    Alcotest.test_case "closed loop self-limits where open loop sheds" `Quick
      (fun () ->
        let closed =
          Gateway.run ~devices:16 ~slices:120 ~arrival_permille:12_000 ~seed:2
            ~arrival:(Gateway.Closed_loop { think = 6 })
            ()
        in
        check_bool "recorded as closed loop" true
          (closed.Gateway.think = Some 6);
        check_int "every admission settled" closed.Gateway.admitted
          (Gateway.settled closed);
        check_bool "at most one outstanding per device" true
          (closed.Gateway.max_queue_depth <= 16);
        check_int "never shed on queue pressure" 0 closed.Gateway.shed_busy;
        let open_loop =
          Gateway.run ~devices:16 ~slices:120 ~arrival_permille:12_000 ~seed:2
            ()
        in
        check_bool "open loop floods where closed cannot" true
          (Gateway.shed open_loop > Gateway.shed closed);
        let again =
          Gateway.run ~devices:16 ~slices:120 ~arrival_permille:12_000 ~seed:2
            ~arrival:(Gateway.Closed_loop { think = 6 })
            ()
        in
        check_bool "closed loop deterministic" true
          (Gateway.equal closed again));
  ]

let () =
  Alcotest.run "ota"
    [
      ("monotonic counter", counter_tests);
      ("wire format", wire_tests);
      ("wire properties", wire_property_tests);
      ("installer", installer_tests);
      ("installer memo", memo_tests);
      ("persistence", persistence_tests);
      ("measured activation", apply_tests);
      ("canary rollout", rollout_tests);
      ("gate unification", gate_tests);
      ("closed loop", serve_tests);
    ]
