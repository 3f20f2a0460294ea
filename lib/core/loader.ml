open Tytan_machine
open Tytan_eampu
open Tytan_rtos
open Tytan_telf
open Tytan_telemetry

type trusted_regions = {
  kernel_code : Region.t;
  int_mux : Region.t;
  ipc_proxy : Region.t;
  rtm : Region.t;
}

type request = {
  telf : Telf.t;
  name : string;
  priority : int;
  secure : bool;
  provider : string;
}

let swi_step = 11

type phase =
  | Parse
  | Alloc
  | Copy of int  (** next image offset *)
  | Reloc of int  (** next relocation index *)
  | Stack_prep
  | Mpu_config of Eampu.rule list  (** rules left to install *)
  | Measure_start
  | Measure of Rtm.job
  | Register of Task_id.t

type job = {
  request : request;
  mutable phase : phase;
  mutable base : Word.t;
  mutable slots : int list;
  mutable initial_sp : Word.t;
  mutable phase_cycles : (string * int) list;  (* accumulated per phase *)
  mutable span : int;  (* telemetry span covering the whole load; 0 = none *)
}

type t = {
  kernel : Kernel.t;
  rtm : Rtm.t;
  mpu : Mpu_driver.t option;
  heap : Heap.t;
  code_eip : Word.t;
  regions : trusted_regions;
  vet : Tytan_analysis.Tycheck.config option;
  mutable queue : job list;
  mutable on_loaded : Tcb.t -> unit;
  mutable loads_completed : int;
  mutable bytes_loaded : int;
  mutable last_report : (string * int) list;
  mutable max_step_cycles : int;
}

let create ?vet ~kernel ~rtm ~mpu ~heap ~code_eip ~regions () =
  {
    kernel;
    rtm;
    mpu;
    heap;
    code_eip;
    regions;
    vet;
    queue = [];
    on_loaded = (fun _ -> ());
    loads_completed = 0;
    bytes_loaded = 0;
    last_report = [];
    max_step_cycles = 0;
  }

let code_eip t = t.code_eip
let on_loaded t f = t.on_loaded <- f
let loads_completed t = t.loads_completed
let bytes_loaded t = t.bytes_loaded
let pending t = List.length t.queue

let fresh_job request =
  { request; phase = Parse; base = 0; slots = []; initial_sp = 0;
    phase_cycles = []; span = 0 }

let submit t request = t.queue <- t.queue @ [ fresh_job request ]

let last_report t = t.last_report
let max_step_cycles t = t.max_step_cycles
let reset_step_stats t = t.max_step_cycles <- 0

let cpu t = Kernel.cpu t.kernel
let clock t = Cpu.clock (cpu t)
let charge t n = Cycles.charge (clock t) n
let as_loader t f = Cpu.with_firmware (cpu t) ~eip:t.code_eip f

(* Layout of a task allocation: image | bss | inbox | stack. *)
let footprint (telf : Telf.t) =
  Bytes.length telf.image + telf.bss_size + Ipc.inbox_size + telf.stack_size

let layout job =
  let telf = job.request.telf in
  let image_size = Bytes.length telf.image in
  let bss_base = Word.add job.base image_size in
  let inbox_base = Word.add bss_base telf.bss_size in
  let stack_base = Word.add inbox_base Ipc.inbox_size in
  (image_size, bss_base, inbox_base, stack_base)

let task_rules t job =
  let telf = job.request.telf in
  let _image_size, _, inbox_base, _ = layout job in
  (* Executable region = the text prefix; everything after (initialised
     data, bss, inbox, stack) is the task's writable data region. *)
  let code = Region.make ~base:job.base ~size:(max 1 telf.text_size) in
  let whole = Region.make ~base:job.base ~size:(footprint telf) in
  let data_size = footprint telf - telf.text_size in
  let data =
    Region.make ~base:(Word.add job.base telf.text_size) ~size:(max 1 data_size)
  in
  let inbox = Region.make ~base:inbox_base ~size:Ipc.inbox_size in
  let entry = Word.add job.base telf.entry in
  if job.request.secure then
    [
      Eampu.Exec { region = code; entry = Some entry };
      Eampu.Grant { code; data; perm = Perm.rw };
      Eampu.Grant { code = t.regions.int_mux; data = whole; perm = Perm.rw };
      Eampu.Grant { code = t.regions.ipc_proxy; data = inbox; perm = Perm.rw };
      Eampu.Grant { code = t.regions.rtm; data = whole; perm = Perm.r };
    ]
  else
    [
      Eampu.Exec { region = code; entry = None };
      Eampu.Grant { code; data; perm = Perm.rw };
      Eampu.Grant { code = t.regions.kernel_code; data = whole; perm = Perm.rw };
      Eampu.Grant { code = t.regions.ipc_proxy; data = inbox; perm = Perm.rw };
    ]

let fail t job message =
  (* Roll back whatever the job acquired. *)
  (match t.mpu with
  | Some mpu -> Mpu_driver.remove_slots mpu job.slots
  | None -> ());
  if job.base <> 0 then Heap.free t.heap job.base;
  Trace.emitf (Kernel.trace t.kernel) ~source:"loader" "load %s failed: %s"
    job.request.name message;
  `Failed message

let register_task t job id =
  let telf = job.request.telf in
  let image_size, _, inbox_base, stack_base = layout job in
  charge t Cost_model.loader_register;
  ignore image_size;
  let tcb =
    Kernel.create_task t.kernel ~name:job.request.name
      ~priority:job.request.priority ~secure:job.request.secure
      ~region_base:job.base ~region_size:(footprint telf)
      ~code_base:job.base ~code_size:(max 1 telf.text_size)
      ~entry:(Word.add job.base telf.entry) ~stack_base
      ~stack_size:telf.stack_size ~inbox_base ~build_frame:false
      ~initial_sp:job.initial_sp ()
  in
  Rtm.register t.rtm
    { Rtm.id; tcb; base = job.base; telf; slots = job.slots;
      provider = job.request.provider };
  t.loads_completed <- t.loads_completed + 1;
  t.bytes_loaded <- t.bytes_loaded + footprint telf;
  tcb

let phase_label = function
  | Parse -> "parse"
  | Alloc -> "alloc"
  | Copy _ -> "copy"
  | Reloc _ -> "relocation"
  | Stack_prep -> "stack-prep"
  | Mpu_config _ -> "ea-mpu"
  | Measure_start | Measure _ -> "rtm"
  | Register _ -> "register"

(* One bounded unit of work.  Each arm charges its cost and advances the
   phase; no arm's charge exceeds a few thousand cycles, which is what
   keeps loading preemptible at tick granularity. *)
let step_job_inner t job =
  let telf = job.request.telf in
  match job.phase with
  | Parse -> (
      charge t Cost_model.loader_parse_header;
      if job.request.secure && t.mpu = None then
        fail t job "secure tasks are not supported without an EA-MPU"
      else
        match t.vet with
        | None ->
            job.phase <- Alloc;
            `Working
        | Some base_config ->
            (* Static verification before any memory is committed: a
               binary tycheck cannot prove isolated never reaches the
               measured-and-registered state. *)
            let open Tytan_analysis in
            charge t
              (Cost_model.vet_cycles
                 ~flow:(Option.is_some base_config.Tycheck.flow)
                 ~slots:(telf.text_size / Isa.width));
            let config =
              { base_config with Tycheck.r12_inbox = job.request.secure }
            in
            let report = Tycheck.check ~config telf in
            if Tycheck.ok report then begin
              job.phase <- Alloc;
              `Working
            end
            else
              fail t job
                ("vet rejected: "
                ^ Option.value
                    (Tycheck.first_violation report)
                    ~default:"violation"))
  | Alloc -> (
      charge t Cost_model.loader_alloc;
      match Heap.alloc t.heap ~size:(footprint telf) with
      | None -> fail t job "out of task memory"
      | Some base ->
          job.base <- base;
          job.phase <- Copy 0;
          `Working)
  | Copy offset ->
      let len =
        min Cost_model.loader_copy_chunk (Bytes.length telf.image - offset)
      in
      if len > 0 then begin
        charge t (len * Cost_model.loader_copy_per_byte);
        as_loader t (fun () ->
            Cpu.store_bytes (cpu t)
              (Word.add job.base offset)
              (Bytes.sub telf.image offset len))
      end;
      if offset + len >= Bytes.length telf.image then job.phase <- Reloc 0
      else job.phase <- Copy (offset + len);
      `Working
  | Reloc index ->
      if index = 0 then charge t Cost_model.reloc_base;
      (* Patch up to eight addresses per step. *)
      let total = Array.length telf.relocations in
      let batch = min 8 (total - index) in
      as_loader t (fun () ->
          for i = index to index + batch - 1 do
            let off = telf.relocations.(i) in
            let addr = Word.add job.base off in
            let v = Cpu.load32 (cpu t) addr in
            Cpu.store32 (cpu t) addr (Word.add v job.base);
            charge t Cost_model.reloc_per_address
          done);
      if index + batch >= total then job.phase <- Stack_prep
      else job.phase <- Reloc (index + batch);
      `Working
  | Stack_prep ->
      charge t Cost_model.loader_stack_prep;
      let image_size, bss_base, _, stack_base = layout job in
      ignore image_size;
      as_loader t (fun () ->
          let mem = Cpu.mem (cpu t) in
          let tail = footprint telf - Bytes.length telf.image in
          Memory.fill mem bss_base tail 0;
          job.initial_sp <-
            Context.build_initial_frame_raw (cpu t)
              ~stack_top:(Word.add stack_base telf.stack_size)
              ~entry:(Word.add job.base telf.entry));
      job.phase <-
        (match t.mpu with
        | Some _ -> Mpu_config (task_rules t job)
        | None -> Register (Rtm.identity_of_telf telf));
      `Working
  | Mpu_config [] ->
      job.phase <-
        (if job.request.secure then Measure_start
         else Register (Rtm.identity_of_telf telf));
      `Working
  | Measure_start ->
      job.phase <- Measure (Rtm.start_measure t.rtm ~base:job.base ~telf);
      `Working
  | Mpu_config (rule :: rest) -> (
      match t.mpu with
      | None -> fail t job "no EA-MPU driver"
      | Some mpu -> (
          match Mpu_driver.install_rule mpu rule with
          | Error e -> fail t job e
          | Ok slot ->
              job.slots <- slot :: job.slots;
              job.phase <- Mpu_config rest;
              `Working))
  | Measure rtm_job -> (
      match Rtm.step_measure t.rtm rtm_job with
      | `More -> `Working
      | `Done id -> (
          (* A measured identity must match the binary the provider
             shipped; a mismatch means the loaded image was corrupted. *)
          match Task_id.equal id (Rtm.identity_of_telf telf) with
          | true ->
              job.phase <- Register id;
              `Working
          | false -> fail t job "measurement mismatch"))
  | Register id -> `Loaded (register_task t job id)

(* Account the cycles of each step to the phase it started in (the bench
   harness reads the per-phase decomposition for Table 4). *)
let step_job t job =
  let tel = Kernel.telemetry t.kernel in
  if job.span = 0 then
    job.span <-
      Telemetry.begin_span tel ~task:job.request.name ~component:"loader" "load";
  let label = phase_label job.phase in
  let result, cost = Cycles.measure (clock t) (fun () -> step_job_inner t job) in
  if cost > t.max_step_cycles then t.max_step_cycles <- cost;
  (match List.assoc_opt label job.phase_cycles with
  | Some acc ->
      job.phase_cycles <-
        (label, acc + cost) :: List.remove_assoc label job.phase_cycles
  | None -> job.phase_cycles <- (label, cost) :: job.phase_cycles);
  (match result with
  | `Loaded _ ->
      t.last_report <- List.rev job.phase_cycles;
      Telemetry.end_span tel job.span;
      Telemetry.incr tel ~component:"loader" "loads"
  | `Failed _ ->
      t.last_report <- List.rev job.phase_cycles;
      Telemetry.end_span tel job.span;
      Telemetry.incr tel ~component:"loader" "load_failures"
  | `Working -> ());
  result

let step t =
  match t.queue with
  | [] -> `Idle
  | job :: rest -> (
      match step_job t job with
      | `Working -> `Working
      | `Loaded tcb ->
          t.queue <- rest;
          t.on_loaded tcb;
          `Loaded tcb
      | `Failed e ->
          t.queue <- rest;
          `Failed e)

let load_blocking t request =
  let job = fresh_job request in
  let rec go () =
    match step_job t job with
    | `Working -> go ()
    | `Loaded tcb -> Ok tcb
    | `Failed e -> Error e
  in
  go ()

let handle_swi t ~swi ~gprs:_ =
  if swi <> swi_step then false
  else begin
    (match Kernel.current t.kernel with
    | Some caller ->
        let status =
          match step t with
          | `Idle -> 0
          | `Working -> 1
          | `Loaded _ -> 2
          | `Failed _ -> 3
        in
        as_loader t (fun () ->
            Kernel.set_frame_reg t.kernel caller ~reg:0 ~value:status)
    | None -> ());
    Kernel.dispatch t.kernel;
    true
  end

let reclaim t (tcb : Tcb.t) =
  match Rtm.find_by_tcb t.rtm tcb with
  | None -> ()
  | Some entry ->
      (match t.mpu with
      | Some mpu -> Mpu_driver.remove_slots mpu entry.Rtm.slots
      | None -> ());
      Heap.free t.heap entry.Rtm.base;
      Rtm.unregister_tcb t.rtm tcb;
      Trace.emitf (Kernel.trace t.kernel) ~source:"loader" "reclaimed %s"
        tcb.name

let unload t tcb =
  (* kill_task triggers the kernel's on-exit hook, which the platform
     wires to {!reclaim}. *)
  Kernel.kill_task t.kernel tcb
