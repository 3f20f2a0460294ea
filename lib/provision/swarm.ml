open Tytan_core
open Tytan_netsim
module Crypto = Tytan_crypto
module Cycles = Tytan_machine.Cycles
module Isa = Tytan_machine.Isa
module Telf = Tytan_telf.Telf
module Tycheck = Tytan_analysis.Tycheck
module Finding = Tytan_analysis.Finding
module Fault_plan = Tytan_fault.Fault_plan
module Obs = Tytan_obs.Obs

type mode =
  | Scalar
  | Incremental

let mode_label = function
  | Scalar -> "scalar"
  | Incremental -> "incremental"

(* A fleet prover is deliberately lighter than a full [Fleet.device]:
   at 2 048 devices a [Platform.t] each would dominate memory for no
   modelling gain.  What the protocol can observe of a device is its
   uplink, its attestation key and the identity of what it runs — so
   that is what we keep.  The firmware image itself is shared across
   the fleet and only copied on tamper. *)
type prover = {
  serial : string;
  link : Link.t;
  mutable ka : bytes;  (* re-derived on reboot (same value, real cost) *)
  mutable loaded : Task_id.t;
  mutable tampered : bool;
  mutable silenced : bool;  (* permanent: Kill *)
  mutable hung_epoch : int;  (* silent during this one epoch; -1 = none *)
}

type epoch_stats = {
  epoch : int;
  attested : int;
  refused : int;
  gave_up : int;
  verdicts : string;  (* one char per device: A/a/R/G/C/? *)
  healthy_polls : int;
  slices : int;
  batches : int;  (* sealed this epoch (0 in scalar mode) *)
  root_hex : string;  (* last sealed root, "" in scalar mode *)
  cache_hits : int;  (* this epoch *)
  cache_misses : int;
  challenged : int;  (* devices driven through the wire protocol *)
  carried : int;  (* devices carried on liveness without re-challenge *)
  delta_changed : int;  (* incremental: size of this epoch's sparse delta *)
  verify_cycles : int;  (* verifier clock delta over this epoch *)
}

(* A firmware rollout pushed ahead of the campaign.  Every device vets
   the image with the six-check flow configuration before measurement
   and adoption requires the strict verdict (no violations and no
   unknowns); the verdict is a pure function of the binary, so a leaky
   image is refused platform-wide — the whole fleet stays on the
   incumbent firmware and attests it as before. *)
type rollout = {
  accepted : bool;
  refusal : string option;  (* first non-clean finding, when refused *)
  vet_cycles_per_device : int;
}

type report = {
  mode : mode;
  devices : int;
  epochs : int;
  seed : int;
  faults : bool;
  loss_percent : int;
  queries_per_epoch : int;
  steady : bool;
  churn_permille : int;
  rollout : rollout option;
  per_epoch : epoch_stats list;
  verifier_cycles : int;
  device_cycles : int;
  frames_sent : int;
  frames_dropped : int;
  frames_delivered : int;
  tampered : int;
  silenced : int;
  key_derivations : int;
  telemetry : (string * int) list;
  survived : bool;
}

(* The device-fault schedule, as [(epoch, fault)] pairs: image tampers
   (a flipped firmware bit — the device then honestly refuses the
   reference identity), permanent kills and one-epoch hangs.  The
   campaign applies an epoch's faults in schedule order when the epoch
   opens, so the schedule needs no sorting. *)
type fault =
  | Tamper of {
      device : int;
      bit : int;
    }
  | Kill of int
  | Hang of int

let fault_events ~seed ~devices ~epochs =
  let prng = Fault_plan.Prng.create (seed lxor 0x5EED) in
  List.init (max 1 (devices / 6)) (fun _ ->
      let epoch = Fault_plan.Prng.int prng epochs in
      let device = Fault_plan.Prng.int prng devices in
      let fault =
        match Fault_plan.Prng.int prng 3 with
        | 0 -> Tamper { device; bit = Fault_plan.Prng.int prng 8 }
        | 1 -> Kill device
        | _ -> Hang device
      in
      (epoch, fault))

(* Reboot churn: per epoch, [churn_permille]/1000 of the fleet power-
   cycles.  A reboot re-derives the device's boot keys (real device
   cycles, same key value) and, in steady state, forces the verifier to
   re-challenge the device — continuity of its liveness stream is
   broken.  A pure function of the seed, so every mode sees the same
   schedule. *)
let churn_events ~seed ~devices ~epochs ~churn_permille =
  if churn_permille = 0 then Array.make epochs []
  else begin
    let prng = Fault_plan.Prng.create (seed lxor 0xC4A1) in
    Array.init epochs (fun _ ->
        let n = max 1 (devices * churn_permille / 1000) in
        List.init n (fun _ -> Fault_plan.Prng.int prng devices))
  end

(* Fleet-health polls per epoch, rendered in every report header. *)
let queries_per_epoch = 6

let run ~mode ~devices ~epochs ~seed ?(faults = false) ?(loss_percent = 10)
    ?rollout:rollout_image ?obs ?(domains = 1) ?(steady = false)
    ?(churn_permille = 0) () =
  if devices <= 0 then invalid_arg "Swarm.run: devices must be positive";
  if epochs <= 0 then invalid_arg "Swarm.run: epochs must be positive";
  if domains < 1 then invalid_arg "Swarm.run: domains must be positive";
  if steady && mode <> Incremental then
    invalid_arg "Swarm.run: steady requires incremental mode";
  if churn_permille < 0 || churn_permille > 1000 then
    invalid_arg "Swarm.run: churn_permille out of range";
  let domains = max 1 (min domains devices) in
  let registry = Registry.of_seed ~name:"fleet" seed in
  let rollout =
    Option.map
      (fun (telf : Telf.t) ->
        (* One admission gate for the whole platform: the swarm's
           pre-campaign rollout vets through the same [Tytan_ota.Gate]
           the OTA installer runs device-side, so fleet-wide adoption
           and per-device staging can never disagree on an image. *)
        let v = Tytan_ota.Gate.vet telf in
        {
          accepted = v.Tytan_ota.Gate.accepted;
          refusal = v.Tytan_ota.Gate.refusal;
          vet_cycles_per_device = v.Tytan_ota.Gate.vet_cycles;
        })
      rollout_image
  in
  let image =
    (* An accepted rollout replaces the incumbent firmware fleet-wide;
       a refused one leaves every device attesting the old image. *)
    match (rollout, rollout_image) with
    | Some { accepted = true; _ }, Some telf -> Bytes.copy telf.Telf.image
    | _ -> Fleet.reference_image ~seed ~size:512
  in
  let fw_id = Task_id.of_image image in
  let verifier_clock = Cycles.create () in
  let device_clock = Cycles.create () in
  (match rollout with
  | Some r ->
      (* Each device's loader vets the pushed binary before measuring
         it, whatever the verdict turns out to be. *)
      Cycles.charge device_clock (r.vet_cycles_per_device * devices)
  | None -> ());
  (* Flight-recorder plumbing: epoch loops restart their local slice
     clock at 0, so recorded timestamps add this global base.  Recording
     charges nothing. *)
  let obs_at = ref 0 in
  let observe ~corr ~at event =
    match obs with
    | None -> ()
    | Some log -> Obs.Log.record log ~corr ~at event
  in
  let provers =
    Array.init devices (fun i ->
        let serial = Fault_plan.serial_of i in
        let link = Link.for_device ~seed ~salt:13 ~faults ~loss_percent i in
        let platform_key = Registry.platform_key registry ~serial in
        (* Device-side boot-time key derivation, same in every mode. *)
        let ka =
          Cost_model.charge_hashing device_clock (fun () ->
              Attestation.derive_ka ~platform_key)
        in
        {
          serial;
          link;
          ka;
          loaded = fw_id;
          tampered = false;
          silenced = false;
          hung_epoch = -1;
        })
  in
  let plan = if faults then fault_events ~seed ~devices ~epochs else [] in
  let churn = churn_events ~seed ~devices ~epochs ~churn_permille in
  (* The parallel harness.  Each worker domain owns one contiguous
     device range — chosen by index arithmetic, never by scheduling —
     plus private verifier/device clocks merged into the main clocks by
     commutative sum at sequential sync points.  With one domain the
     pool runs inline and the "worker" clocks ARE the main clocks, so
     the sequential path is byte-for-byte the legacy engine. *)
  let pool = Domain_pool.create ~domains in
  let ranges = Domain_pool.ranges ~count:devices ~domains in
  let shard_of = Array.make devices 0 in
  Array.iteri
    (fun w (lo, hi) ->
      for d = lo to hi - 1 do
        shard_of.(d) <- w
      done)
    ranges;
  let wver =
    Array.init domains (fun w ->
        if domains = 1 && w = 0 then verifier_clock else Cycles.create ())
  in
  let wdev =
    Array.init domains (fun w ->
        if domains = 1 && w = 0 then device_clock else Cycles.create ())
  in
  let wver_merged = Array.make domains 0 in
  let wdev_merged = Array.make domains 0 in
  (* Per-worker wake-driven slice state: the worker's devices that can
     still act, how many of its sessions settled in the last slice, and
     the earliest wake among the rest. *)
  let active =
    Array.init domains (fun _ -> Link.Wake_set.create ~universe:devices)
  in
  let wsettled = Array.make domains 0 in
  let wnext = Array.make domains max_int in
  let merge_worker_clocks () =
    if domains > 1 then
      for w = 0 to domains - 1 do
        let v = Cycles.now wver.(w) in
        if v > wver_merged.(w) then begin
          Cycles.charge verifier_clock (v - wver_merged.(w));
          wver_merged.(w) <- v
        end;
        let dv = Cycles.now wdev.(w) in
        if dv > wdev_merged.(w) then begin
          Cycles.charge device_clock (dv - wdev_merged.(w));
          wdev_merged.(w) <- dv
        end
      done
  in
  let aggregator =
    match mode with
    | Scalar -> None
    | Incremental ->
        Some
          (Aggregator.create
             ~ka_of:(fun ~serial -> Registry.attestation_key registry ~serial)
             ~clock:verifier_clock ~kind:Aggregator.Retain ~shards:domains ())
  in
  (match aggregator with
  | Some a when obs <> None ->
      Aggregator.on_seal a (fun ~epoch ~root ~leaves ->
          observe
            ~corr:(Printf.sprintf "fleet/epoch-%d" epoch)
            ~at:!obs_at
            (Obs.Event.Epoch_sealed
               { epoch; root_hex = Crypto.Sha256.to_hex root; leaves }))
  | _ -> ());
  let apply_faults epoch =
    List.iter
      (fun (at, fault) ->
        if at = epoch then
          match fault with
          | Tamper { device; bit } ->
              let p = provers.(device) in
              if not p.tampered then begin
                let copy = Bytes.copy image in
                let pos = (device * 7) mod Bytes.length copy in
                Bytes.set copy pos
                  (Char.chr (Char.code (Bytes.get copy pos) lxor (1 lsl bit)));
                p.loaded <- Task_id.of_image copy;
                p.tampered <- true
              end
          | Kill device -> provers.(device).silenced <- true
          | Hang device -> provers.(device).hung_epoch <- epoch)
      plan
  in
  let silent (p : prover) ~epoch = p.silenced || p.hung_epoch = epoch in
  (* Fleet provers run no CFA monitor: they pass no genesis, so a
     [CfaChallenge] goes unanswered. *)
  let prover_step (p : prover) ~epoch ~at ~clock =
    List.iter
      (fun frame ->
        match Protocol.decode frame with
        | Ok msg when not (silent p ~epoch) ->
            Option.iter
              (fun reply ->
                Link.send p.link ~from:Link.Device ~at (Protocol.encode reply))
              (Protocol.answer ~clock ~ka:p.ka ~loaded:p.loaded msg)
        | Ok _ | Error _ -> ())
      (Link.deliver p.link ~to_:Link.Device ~at)
  in
  let backoff = Verifier.default_backoff in
  let slice_cap = Verifier.settle_cap backoff in
  let survived = ref true in
  let stats = ref [] in
  (* Steady-state bookkeeping: the verdict and proven identity each
     device settled on last epoch.  A device is carried (not
     re-challenged) only while all of: it attested cleanly last epoch,
     its RTM still measures the identity it proved (an honest RTM pushes
     measurement changes), it did not reboot, and its out-of-band
     keepalive stream is intact this epoch.  Everything else re-enters
     the wire protocol — so tampers, kills, hangs, reboots and fresh
     devices always face a real challenge. *)
  let last_ok = Array.make devices false in
  let verified_id : Task_id.t option array = Array.make devices None in
  let rebooted = Array.make devices false in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) @@ fun () ->
  for e = 0 to epochs - 1 do
    apply_faults e;
    Array.fill rebooted 0 devices false;
    List.iter
      (fun d ->
        if not rebooted.(d) then begin
          rebooted.(d) <- true;
          let p = provers.(d) in
          let platform_key = Registry.platform_key registry ~serial:p.serial in
          p.ka <-
            Cost_model.charge_hashing device_clock (fun () ->
                Attestation.derive_ka ~platform_key)
        end)
      churn.(e);
    let base = !obs_at in
    let epoch_corr = Printf.sprintf "fleet/epoch-%d" e in
    (match obs with
    | Some log -> ignore (Obs.Log.mint log epoch_corr)
    | None -> ());
    observe ~corr:epoch_corr ~at:base (Obs.Event.Epoch_opened { epoch = e });
    (match aggregator with
    | Some a -> Aggregator.begin_epoch a ~epoch:e
    | None -> ());
    let hits0, misses0 =
      match aggregator with
      | Some a -> (Aggregator.cache_hits a, Aggregator.cache_misses a)
      | None -> (0, 0)
    in
    let cycles0 = Cycles.now verifier_clock in
    let challenge = Array.make devices true in
    if steady && e > 0 then
      for d = 0 to devices - 1 do
        let p = provers.(d) in
        challenge.(d) <-
          (not last_ok.(d))
          || (match verified_id.(d) with
             | Some id -> not (Task_id.equal id p.loaded)
             | None -> true)
          || rebooted.(d)
          || silent p ~epoch:e
      done;
    let challenged_n =
      Array.fold_left (fun n c -> if c then n + 1 else n) 0 challenge
    in
    let sessions : Verifier.t option array = Array.make devices None in
    (* Correlation ids and admission events are recorded sequentially,
       in device order, before any parallel work touches the epoch. *)
    Array.iteri
      (fun d (p : prover) ->
        let session = Printf.sprintf "%s/e%d" p.serial e in
        (match obs with
        | Some log -> ignore (Obs.Log.mint log ~parent:epoch_corr session)
        | None -> ());
        if challenge.(d) then
          observe ~corr:session ~at:base
            (Obs.Event.Session_admitted
               { serial = p.serial; kind = mode_label mode }))
      provers;
    (* Session creation fans out: the scalar baseline re-derives Ka per
       session (the dominant cost), charged to the worker's clock. *)
    Domain_pool.run pool (fun w ->
        let lo, hi = ranges.(w) in
        Link.Wake_set.clear active.(w);
        for d = lo to hi - 1 do
          if challenge.(d) then begin
            let p = provers.(d) in
            let session = Printf.sprintf "%s/e%d" p.serial e in
            let v =
              match aggregator with
              | None ->
                  (* The scalar baseline is a stateless verifier: every
                     session re-derives the device's Ka from the
                     registry and re-runs the HMAC check itself. *)
                  let ka =
                    Cost_model.charge_hashing wver.(w) (fun () ->
                        Registry.attestation_key registry ~serial:p.serial)
                  in
                  Verifier.create ~ka ~expected:fw_id ~backoff
                    ~refusals_to_settle:2 ~session ()
              | Some a ->
                  (* Verification is delegated to the aggregator's
                     measurement cache; the session's own key is
                     unused.  The device's shard is its worker index —
                     fixed, so the check always runs on the shard's
                     owning domain. *)
                  Verifier.create ~ka:Bytes.empty ~expected:fw_id ~backoff
                    ~refusals_to_settle:2
                    ~check:(fun ~nonce report ->
                      Aggregator.check_report ~shard:shard_of.(d) a
                        ~serial:p.serial ~expected:fw_id ~nonce report)
                    ~session ()
            in
            sessions.(d) <- Some v;
            Link.Wake_set.add active.(w) d
          end
        done);
    let stash = Array.make devices None in
    (* Wake-driven slices (DESIGN.md §18).  A challenged device can act
       in slice [at] only if a frame on its link is due or its session's
       retry timer fires; any other visit is a no-op.  So each worker
       sweeps its active set, visiting in device order just the devices
       whose wake has come, and the loop jumps to the earliest wake left
       — the visits, sync points and final slice of visiting everyone
       every slice, minus the no-ops.  Carried devices (no session) are
       never members: they have no wire traffic this epoch. *)
    let wake d =
      match sessions.(d) with
      | None -> max_int
      | Some v -> min (Link.next_due provers.(d).link) (Verifier.next_wake v)
    in
    let visit w ~at d =
      let v = Option.get sessions.(d) in
      let p = provers.(d) in
      let was_pending = Verifier.outcome v = Verifier.Pending in
      prover_step p ~epoch:e ~at ~clock:wdev.(w);
      List.iter
        (fun frame ->
          let before = Verifier.outcome v in
          (* Scalar sessions verify inline, so the frame handler is where
             their crypto burns; the aggregator's check charges itself
             internally — wrapping it here would double-count. *)
          (match aggregator with
          | None ->
              Cost_model.charge_hashing wver.(w) (fun () ->
                  Verifier.on_frame v frame)
          | Some _ -> Verifier.on_frame v frame);
          if before = Verifier.Pending && Verifier.outcome v = Verifier.Attested
          then
            match Protocol.decode frame with
            | Ok (Protocol.Response { report; _ }) -> stash.(d) <- Some report
            | _ -> ())
        (Link.deliver p.link ~to_:Link.Remote ~at);
      (match Verifier.poll v ~at with
      | Some frame -> Link.send p.link ~from:Link.Remote ~at frame
      | None -> ());
      if was_pending && Verifier.outcome v <> Verifier.Pending then
        wsettled.(w) <- wsettled.(w) + 1
    in
    let pending = ref challenged_n in
    let slice = ref 0 in
    while !pending > 0 && !slice <= slice_cap do
      let at = !slice in
      Domain_pool.run pool (fun w ->
          wsettled.(w) <- 0;
          wnext.(w) <-
            Link.Wake_set.sweep active.(w) ~at ~wake ~visit:(visit w ~at));
      (* Sequential sync point: queued admissions land in shard (=
         device) order, exactly where the sequential engine admitted
         them inline. *)
      (match aggregator with Some a -> Aggregator.drain a | None -> ());
      pending := !pending - Array.fold_left ( + ) 0 wsettled;
      slice :=
        Link.Wake_set.next_slice ~at ~cap:slice_cap ~settled:(!pending = 0)
          (Array.fold_left min max_int wnext)
    done;
    (* A pending session's device is always still active. *)
    Array.iter
      (fun set ->
        Link.Wake_set.iter set (fun d ->
            Verifier.conclude (Option.get sessions.(d)) ~cap:slice_cap))
      active;
    obs_at := base + !slice;
    (* Devices carried on liveness: charge the keepalive processing and
       stamp their retained slots alive before the epoch seals. *)
    (match aggregator with
    | Some a when steady ->
        for d = 0 to devices - 1 do
          if not challenge.(d) then begin
            Cycles.charge verifier_clock Cost_model.swarm_liveness;
            ignore (Aggregator.carry a ~serial:provers.(d).serial)
          end
        done
    | _ -> ());
    (match aggregator with Some a -> Aggregator.flush a | None -> ());
    let verdicts =
      String.init devices (fun d ->
          match sessions.(d) with
          | None -> 'a'  (* carried forward on liveness *)
          | Some v -> (
              match Verifier.outcome v with
              | Verifier.Attested -> 'A'
              | Verifier.Refused -> 'R'
              | Verifier.Gave_up -> 'G'
              | Verifier.Cfa_rejected -> 'C'
              | Verifier.Pending -> '?'))
    in
    String.iteri
      (fun d c ->
        match c with
        | 'A' ->
            last_ok.(d) <- true;
            verified_id.(d) <- Some fw_id
        | 'a' -> ()
        | _ -> last_ok.(d) <- false)
      verdicts;
    if obs <> None then
      String.iteri
        (fun d c ->
          let verdict =
            match c with
            | 'A' -> "attested"
            | 'a' -> "carried"
            | 'R' -> "refused"
            | 'G' -> "gave-up"
            | 'C' -> "cfa-rejected"
            | _ -> "pending"
          in
          observe
            ~corr:(Printf.sprintf "%s/e%d" provers.(d).serial e)
            ~at:!obs_at
            (Obs.Event.Verdict_settled
               { serial = provers.(d).serial; verdict }))
        verdicts;
    let healthy_polls = ref 0 in
    (match aggregator with
    | Some a ->
        for _q = 1 to queries_per_epoch do
          for d = 0 to devices - 1 do
            let serial = provers.(d).serial in
            let healthy =
              if challenge.(d) then
                Aggregator.query ~shard:shard_of.(d) a ~serial ~epoch:e
              else Aggregator.carried_healthy a ~serial
            in
            if healthy then incr healthy_polls
          done
        done
    | None ->
        (* Scalar polls are the expensive path (full KDF + HMAC per
           poll) and are embarrassingly parallel: per-device counts
           summed sequentially — the same total in any interleaving. *)
        let per_device = Array.make devices 0 in
        Domain_pool.run pool (fun w ->
            let lo, hi = ranges.(w) in
            for d = lo to hi - 1 do
              let v = Option.get sessions.(d) in
              match stash.(d) with
              | Some report when Verifier.outcome v = Verifier.Attested ->
                  let n = ref 0 in
                  for _q = 1 to queries_per_epoch do
                    if
                      Cost_model.charge_hashing wver.(w) (fun () ->
                          let ka =
                            Registry.attestation_key registry
                              ~serial:provers.(d).serial
                          in
                          Attestation.verify ~ka report ~expected:fw_id
                            ~nonce:(Verifier.nonce v))
                    then incr n
                  done;
                  per_device.(d) <- !n
              | _ -> ()
            done);
        healthy_polls := Array.fold_left ( + ) 0 per_device);
    String.iteri
      (fun d c ->
        if (not (silent provers.(d) ~epoch:e)) && not provers.(d).tampered then
          if c <> 'A' && c <> 'a' then survived := false)
      verdicts;
    let hits1, misses1, batch_list =
      match aggregator with
      | Some a ->
          (Aggregator.cache_hits a, Aggregator.cache_misses a, Aggregator.batches a)
      | None -> (0, 0, [])
    in
    let epoch_batches =
      List.filter (fun (be, _, _) -> be = e) batch_list
    in
    let root_hex =
      match List.rev epoch_batches with
      | (_, root, _) :: _ -> Crypto.Sha256.to_hex root
      | [] -> ""
    in
    let delta_changed =
      match aggregator with
      | Some a -> (
          match
            List.find_opt
              (fun (d : Aggregator.delta) -> d.Aggregator.at_epoch = e)
              (Aggregator.epoch_deltas a)
          with
          | Some d -> List.length d.Aggregator.changed
          | None -> 0)
      | None -> 0
    in
    merge_worker_clocks ();
    let verify_cycles = Cycles.now verifier_clock - cycles0 in
    let count c = String.fold_left (fun n ch -> if ch = c then n + 1 else n) 0 in
    stats :=
      {
        epoch = e;
        attested = count 'A' verdicts;
        refused = count 'R' verdicts;
        gave_up = count 'G' verdicts;
        verdicts;
        healthy_polls = !healthy_polls;
        slices = !slice;
        batches = List.length epoch_batches;
        root_hex;
        cache_hits = hits1 - hits0;
        cache_misses = misses1 - misses0;
        challenged = challenged_n;
        carried = devices - challenged_n;
        delta_changed;
        verify_cycles;
      }
      :: !stats
  done;
  merge_worker_clocks ();
  let frames_sent = Array.fold_left (fun n p -> n + Link.sent_count p.link) 0 provers in
  let frames_dropped =
    Array.fold_left (fun n p -> n + Link.dropped_count p.link) 0 provers
  in
  let frames_delivered =
    Array.fold_left (fun n p -> n + Link.delivered_count p.link) 0 provers
  in
  {
    mode;
    devices;
    epochs;
    seed;
    faults;
    loss_percent;
    queries_per_epoch;
    steady;
    churn_permille;
    rollout;
    per_epoch = List.rev !stats;
    verifier_cycles = Cycles.now verifier_clock;
    device_cycles = Cycles.now device_clock;
    frames_sent;
    frames_dropped;
    frames_delivered;
    tampered =
      Array.fold_left
        (fun n (p : prover) -> if p.tampered then n + 1 else n)
        0 provers;
    silenced =
      Array.fold_left
        (fun n (p : prover) -> if p.silenced || p.hung_epoch >= 0 then n + 1 else n)
        0 provers;
    key_derivations =
      (match aggregator with Some a -> Aggregator.key_derivations a | None -> 0);
    telemetry =
      (match aggregator with Some a -> Aggregator.counters a | None -> []);
    survived = !survived;
  }

let body r =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add
    "swarm campaign: mode=%s devices=%d epochs=%d seed=%d faults=%s loss=%d%% queries/epoch=%d steady=%s churn=%d\n"
    (mode_label r.mode) r.devices r.epochs r.seed
    (if r.faults then "on" else "off")
    r.loss_percent r.queries_per_epoch
    (if r.steady then "on" else "off")
    r.churn_permille;
  (match r.rollout with
  | None -> ()
  | Some { accepted = true; vet_cycles_per_device; _ } ->
      add "rollout: adopted fleet-wide (vet %d cycles/device)\n"
        vet_cycles_per_device
  | Some { accepted = false; refusal; vet_cycles_per_device } ->
      add "rollout: refused fleet-wide (vet %d cycles/device): %s\n"
        vet_cycles_per_device
        (Option.value refusal ~default:"unspecified violation"));
  List.iter
    (fun s ->
      add
        "epoch %d: attested=%d refused=%d gave_up=%d healthy_polls=%d slices=%d batches=%d cache=%dh/%dm challenged=%d carried=%d delta=%d verify_cycles=%d\n"
        s.epoch s.attested s.refused s.gave_up s.healthy_polls s.slices
        s.batches s.cache_hits s.cache_misses s.challenged s.carried
        s.delta_changed s.verify_cycles;
      if s.root_hex <> "" then add "  root=%s\n" s.root_hex;
      add "  verdicts=sha1:%s\n" (Fault_plan.sha1_hex s.verdicts))
    r.per_epoch;
  add "verifier_cycles=%d device_cycles=%d\n" r.verifier_cycles r.device_cycles;
  add "frames: sent=%d dropped=%d delivered=%d\n" r.frames_sent r.frames_dropped
    r.frames_delivered;
  add "faults: tampered=%d silenced=%d\n" r.tampered r.silenced;
  add "key_derivations=%d\n" r.key_derivations;
  List.iter (fun (k, v) -> add "  %s=%d\n" k v) r.telemetry;
  add "survived: %s\n" (if r.survived then "yes" else "no");
  Buffer.contents b

let to_string r = Fault_plan.stamp (body r)

let equal a b = to_string a = to_string b

let verdicts r = List.map (fun s -> s.verdicts) r.per_epoch

let normalize_verdicts s =
  String.map (fun c -> if c = 'a' then 'A' else c) s

(* Mode-independent semantic content: what the verifier concluded about
   each device ('a' carried folds into 'A' — both vouch for health),
   how many health polls answered positive, how long settling took, and
   whether the honest fleet survived.  Everything mode-specific (roots,
   cache shape, batch count, cycle totals) is excluded, so scalar,
   incremental and any domain count must all agree byte for byte on
   identity-schedule campaigns. *)
let semantic_digest r =
  let b = Buffer.create 256 in
  List.iter
    (fun s ->
      Printf.ksprintf (Buffer.add_string b) "%s|%d|%d\n"
        (normalize_verdicts s.verdicts)
        s.healthy_polls s.slices)
    r.per_epoch;
  Buffer.add_string b (if r.survived then "survived" else "lost");
  Crypto.Sha256.to_hex (Crypto.Sha256.digest_string (Buffer.contents b))

(* A '?' verdict means a session never settled — the campaign engine
   itself failed to drive the protocol to a conclusion, which is an
   infrastructure bug regardless of fault injection.  Distinct from
   [survived] (device health), this is the engine's own health. *)
let campaign_failed r =
  List.exists (fun s -> String.contains s.verdicts '?') r.per_epoch
