(* Unit-cost probes: Bechamel timings of single public functions, on
   inputs shaped like the workloads'.

   The first eight are the per-table microbenchmarks `bench/main.exe
   --wall` prints (one per paper table, plus the IPC round trip); here
   their estimates are recorded as platform-layer metrics.  The rest
   time the crypto, registry, netsim, aggregator and OTA entry points
   the fleet engines spend their host time in.  The traced run
   multiplies these unit costs by the counts a workload reports to
   estimate each layer's share of host time. *)

open Tytan_machine
open Tytan_rtos
open Tytan_telf
open Tytan_core
open Tytan_netsim
module Tasks = Tytan_tasks.Task_lib
module Crypto = Tytan_crypto
module Registry = Tytan_provision.Registry
module Installer = Tytan_ota.Installer
module Gate = Tytan_ota.Gate

(* A probe builds its state, then returns the per-run divisor (how many
   units one run performs) and the staged function Bechamel times. *)
type probe = { name : string; make : unit -> float * (unit -> unit) }

let estimate_ns ~quota ~name f =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage f) in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second quota) ~kde:None () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun _ r acc ->
      match Analyze.OLS.estimates r with Some [ e ] -> e | Some _ | None -> acc)
    results Float.nan

let once f = (1.0, f)

(* --- the per-table platform probes ------------------------------------- *)

let run_until_current p (tcb : Tcb.t) =
  let kernel = Platform.kernel p in
  let rec go guard =
    if guard = 0 then failwith "task never became current"
    else if Kernel.current kernel = Some tcb && tcb.Tcb.state = Tcb.Running then ()
    else begin
      ignore (Platform.run p ~cycles:200);
      go (guard - 1)
    end
  in
  go 10_000

let bare_rtm () =
  let mem = Memory.create ~size:0x40000 in
  let clock = Cycles.create () in
  let engine = Exception_engine.create mem ~idt_base:0x100 in
  let cpu = Cpu.create mem clock engine in
  (mem, Rtm.create cpu ~code_eip:0x500)

let use_case_tick () =
  let p = Workloads.use_case_platform () in
  ignore (Workloads.load_exn p "c" (Tasks.counter ()));
  once (fun () -> Platform.run_ticks p 1)

let context_switch () =
  let p = Platform.create () in
  let tcb = Workloads.load_exn p "b" (Tasks.busy_loop ()) in
  run_until_current p tcb;
  let cpu = Platform.cpu p in
  let ops = Kernel.context_ops (Platform.kernel p) in
  let sp0 = Regfile.get (Cpu.regs cpu) Regfile.sp in
  once (fun () ->
      (* keep the stack depth steady across iterations *)
      Regfile.set (Cpu.regs cpu) Regfile.sp sp0;
      ops.Context.save tcb (Regfile.all_gprs (Cpu.regs cpu));
      ops.Context.restore tcb)

let load_secure_task () =
  let p = Platform.create () in
  let counter = ref 0 in
  once (fun () ->
      incr counter;
      let telf = Toolchain.synthetic_secure ~image_size:3768 ~reloc_count:9 ~stack_size:128 in
      Platform.unload p (Workloads.load_exn p (Printf.sprintf "t%d" !counter) telf))

let relocate () =
  let telf = Builder.synthetic ~image_size:1024 ~reloc_count:4 ~stack_size:128 () in
  once (fun () ->
      let image = Bytes.copy telf.Telf.image in
      Relocate.apply ~base:0x4000 ~image ~relocations:telf.Telf.relocations;
      Relocate.revert ~base:0x4000 ~image ~relocations:telf.Telf.relocations)

let mpu_install_rule () =
  let mpu =
    Mpu_driver.create (Tytan_eampu.Eampu.create ~slots:18 ()) (Cycles.create ()) ~code_eip:0x100
  in
  let rule =
    Tytan_eampu.Eampu.Exec
      { region = Tytan_eampu.Region.make ~base:0x90000 ~size:0x100; entry = None }
  in
  once (fun () ->
      match Mpu_driver.install_rule mpu rule with
      | Ok slot -> Mpu_driver.remove_slot mpu slot
      | Error e -> failwith e)

let rtm_measure () =
  let mem, rtm = bare_rtm () in
  let telf = Builder.synthetic ~image_size:512 ~reloc_count:4 ~stack_size:128 () in
  let image = Bytes.copy telf.Telf.image in
  Relocate.apply ~base:0x2000 ~image ~relocations:telf.Telf.relocations;
  Memory.blit_bytes mem 0x2000 image;
  once (fun () -> ignore (Rtm.measure rtm ~base:0x2000 ~telf))

let platform_create () =
  once (fun () -> ignore (Platform.os_memory_bytes (Platform.create ())))

let ipc_tick () =
  let p = Platform.create () in
  let receiver = Workloads.load_exn p "recv" (Tasks.ipc_receiver ()) in
  let rid = (Option.get (Rtm.find_by_tcb (Option.get (Platform.rtm p)) receiver)).Rtm.id in
  ignore (Workloads.load_exn p "send" (Tasks.ipc_sender ~receiver:rid ~repeat:true ()));
  once (fun () -> Platform.run_ticks p 1)

(* Guest code only: a secure busy loop owns the CPU, so a tick is almost
   entirely interpreted instructions. *)
let interp_instruction () =
  let p = Platform.create () in
  run_until_current p (Workloads.load_exn p "spin" (Tasks.busy_loop ()));
  let cpu = Platform.cpu p in
  let i0 = Cpu.instructions_retired cpu in
  Platform.run_ticks p 4;
  (float_of_int (Cpu.instructions_retired cpu - i0) /. 4.0, fun () -> Platform.run_ticks p 1)

(* --- fleet-layer probes -------------------------------------------------- *)

let compressions counter f =
  let c0 = counter () in
  f ();
  float_of_int (counter () - c0)

(* 1 KiB messages: 16 data blocks plus padding. *)
let hash_compression digest counter () =
  let msg = Bytes.make 1024 'm' in
  let f () = ignore (digest msg) in
  (compressions counter f, f)

let hmac_mac_with () =
  let st = Crypto.Hmac.prepare ~key:(Bytes.make 20 'k') in
  let msg = Bytes.make 24 'n' in
  once (fun () -> ignore (Crypto.Hmac.mac_with st msg))

(* A retained tree as wide as the fleet-sweep fleet; each run rewrites
   [dirty] leaves (alternating between two payload sets) and commits. *)
let merkle_inc ~leaves ~dirty () =
  let tree = Crypto.Merkle.Inc.create () in
  let payload gen i = Bytes.of_string (Printf.sprintf "leaf-%d-%08d-%032d" gen i 0) in
  let sets = [| Array.init dirty (payload 0); Array.init dirty (payload 1) |] in
  for i = 0 to leaves - 1 do
    ignore (Crypto.Merkle.Inc.append tree (payload 0 i))
  done;
  ignore (Crypto.Merkle.Inc.commit tree);
  let gen = ref 0 in
  once (fun () ->
      gen := 1 - !gen;
      Array.iteri (fun i p -> Crypto.Merkle.Inc.set tree i p) sets.(!gen);
      ignore (Crypto.Merkle.Inc.commit tree))

let merkle_build ~leaves () =
  let payloads = Array.init leaves (fun i -> Bytes.of_string (Printf.sprintf "leaf-%08d" i)) in
  once (fun () -> ignore (Crypto.Merkle.build payloads))

let serials = Array.init 256 (Printf.sprintf "dev-%05d")

let attestation_key () =
  let registry = Registry.create ~master:(Bytes.of_string "probe-master") in
  let i = ref 0 in
  once (fun () ->
      i := (!i + 1) land 255;
      ignore (Registry.attestation_key registry ~serial:serials.(!i)))

let firmware = Task_id.of_image (Bytes.of_string "probe-firmware")
let nonce = Bytes.make 16 'n'
let probe_ka = Bytes.make 20 'K'

let response =
  Protocol.Response
    {
      seq = 7;
      report =
        { Attestation.id = firmware; nonce; mac = Attestation.expected_mac ~ka:probe_ka ~id:firmware ~nonce };
    }

(* One frame sent verifier→device and delivered a slice later, at the
   workloads' 10% loss. *)
let link_frame () =
  let link = Link.create ~seed:7 ~loss_percent:10 () in
  let frame = Protocol.encode response in
  let t = ref 0 in
  once (fun () ->
      Link.send link ~from:Link.Remote ~at:!t frame;
      ignore (Link.deliver link ~to_:Link.Device ~at:(!t + 1));
      incr t)

let protocol_encode () = once (fun () -> ignore (Protocol.encode response))

let protocol_decode () =
  let frame = Protocol.encode response in
  once (fun () -> ignore (Protocol.decode frame))

(* One device verified in epoch 0 of a retained aggregator. *)
let aggregator () =
  let a =
    Aggregator.create ~ka_of:(fun ~serial:_ -> probe_ka) ~clock:(Cycles.create ())
      ~kind:Aggregator.Retain ()
  in
  let report =
    { Attestation.id = firmware; nonce; mac = Attestation.expected_mac ~ka:probe_ka ~id:firmware ~nonce }
  in
  let check () = Aggregator.check_report a ~serial:"dev-00000" ~expected:firmware ~nonce report in
  Aggregator.begin_epoch a ~epoch:0;
  if not (check ()) then failwith "probe report did not verify";
  (a, check)

let check_report_hit () =
  let _, check = aggregator () in
  once (fun () -> ignore (check ()))

(* A fresh epoch per run, so every check misses the measurement cache
   and pays the HMAC (the epoch roll is included). *)
let check_report_miss () =
  let a, check = aggregator () in
  let epoch = ref 0 in
  once (fun () ->
      incr epoch;
      Aggregator.begin_epoch a ~epoch:!epoch;
      ignore (check ()))

let query () =
  let a, _ = aggregator () in
  Aggregator.flush a;
  if not (Aggregator.query a ~serial:"dev-00000" ~epoch:0) then failwith "probe query missed";
  once (fun () -> ignore (Aggregator.query a ~serial:"dev-00000" ~epoch:0))

(* The stale-offer path: decode, offer check, MAC verify and counter
   read, refused as a rollback every time, so each run does the same
   work. *)
let installer_on_frame () =
  let clock = Cycles.create () in
  let counter =
    Devices.Monotonic_counter.create clock ~name:"ctr" ~base:0xF000_6000
      ~read_cost:Cost_model.counter_read ~increment_cost:Cost_model.counter_increment
      ~initial:4 ()
  in
  let inst =
    Installer.create ~serial:"dev-00000" ~ka:probe_ka ~clock ~counter
      ~loaded:(Task_id.of_image (Bytes.of_string "incumbent")) ()
  in
  let telf = Tasks.yielder ~count:3 () in
  let payload = Telf.encode telf in
  let size = Bytes.length payload and digest = Crypto.Sha1.digest payload in
  let id = Task_id.of_image telf.Telf.image in
  let frame =
    Protocol.encode
      (Protocol.UpdateOffer
         { seq = 1; id; version = 1; size; digest;
           mac = Attestation.update_mac ~ka:probe_ka ~id ~version:1 ~size ~digest })
  in
  (match Installer.on_frame inst frame with
  | [ Protocol.UpdateAck { status = Protocol.Ota_refused_rollback; _ } ] -> ()
  | _ -> failwith "probe offer was not refused as a rollback");
  once (fun () -> ignore (Installer.on_frame inst frame))

let vet telf () = once (fun () -> ignore (Gate.vet telf))

(* [leaves]: the fleet-sweep fleet size, so Merkle probes match its tree. *)
let all ~leaves =
  [
    { name = "core.use_case_tick_ns"; make = use_case_tick };
    { name = "rtos.context_switch_ns"; make = context_switch };
    { name = "core.load_secure_task_ns"; make = load_secure_task };
    { name = "telf.relocate_ns"; make = relocate };
    { name = "core.mpu_install_rule_ns"; make = mpu_install_rule };
    { name = "core.rtm_measure_ns"; make = rtm_measure };
    { name = "core.platform_create_ns"; make = platform_create };
    { name = "core.ipc_tick_ns"; make = ipc_tick };
    { name = "machine.interp_ns_per_instruction"; make = interp_instruction };
    { name = "crypto.sha1.ns_per_compression";
      make = hash_compression Crypto.Sha1.digest Crypto.Sha1.total_compressions };
    { name = "crypto.sha256.ns_per_compression";
      make = hash_compression Crypto.Sha256.digest Crypto.Sha256.total_compressions };
    { name = "crypto.hmac.mac_with_ns"; make = hmac_mac_with };
    { name = "crypto.merkle.inc_commit_ns.all_dirty"; make = merkle_inc ~leaves ~dirty:leaves };
    { name = "crypto.merkle.inc_commit_ns.pct1_dirty";
      make = merkle_inc ~leaves ~dirty:(max 1 (leaves / 100)) };
    { name = "crypto.merkle.build_ns"; make = merkle_build ~leaves };
    { name = "registry.attestation_key_ns"; make = attestation_key };
    { name = "link.ns_per_frame"; make = link_frame };
    { name = "protocol.encode_ns"; make = protocol_encode };
    { name = "protocol.decode_ns"; make = protocol_decode };
    { name = "aggregator.check_report_hit_ns"; make = check_report_hit };
    { name = "aggregator.check_report_miss_ns"; make = check_report_miss };
    { name = "aggregator.query_ns"; make = query };
    { name = "ota.installer.on_frame_ns"; make = installer_on_frame };
    { name = "ota.gate.vet_ns.clean"; make = vet (Tasks.yielder ~count:3 ()) };
    { name = "ota.gate.vet_ns.leaky";
      make = vet (Tasks.key_leaker ~receiver:(Task_id.of_image (Bytes.of_string "exfil-sink")) ()) };
  ]

(* Time every probe (each under its own span); ns per unit. *)
let run ~quota ~leaves =
  List.map
    (fun p ->
      Spans.with_span ("probe." ^ p.name) (fun () ->
          let units, f = p.make () in
          (p.name, estimate_ns ~quota ~name:p.name f /. units)))
    (all ~leaves)
