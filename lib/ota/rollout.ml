open Tytan_core
open Tytan_netsim
module Crypto = Tytan_crypto
module Cycles = Tytan_machine.Cycles
module Devices = Tytan_machine.Devices
module Telf = Tytan_telf.Telf
module Fault_plan = Tytan_fault.Fault_plan
module Obs = Tytan_obs.Obs

type wave_spec = {
  label : string;
  version : int;
  image : Telf.t;
}

type wave_stats = {
  wave : int;
  label : string;
  version : int;
  offered : int;
  staged : int;  (* devices that accepted the offer and buffered chunks *)
  applied : int;
  refused_rollback : int;
  refused_vet : int;
  refused_auth : int;
  refused_digest : int;
  crashed : int;
  gave_up : int;
  attest_ok : int;
  attest_failed : int;
  verdicts : string;
      (* one char per device: [A]pplied, [R]ollback-refused, [V]et-refused,
         [M]ac-refused, [D]igest-refused, crashed [X], [G]ave up,
         [Q]uarantined (skipped), [.] not offered, [?] pending *)
  promoted : bool;
  aborted : bool;
  abort_reason : string option;
  slices : int;
  newly_quarantined : string list;
}

type report = {
  devices : int;
  canary : int;
  seed : int;
  faults : bool;
  loss_percent : int;
  waves : wave_stats list;
  counters : int list;  (* final per-device monotonic counter values *)
  reset_attempts : int;
  controller_cycles : int;
  device_cycles : int;
  update_cycles : int;  (* device cycles spent in OTA frame handling *)
  rollback_refusal_cycles : int;  (* cost of the last rollback refusal *)
  frames_sent : int;
  frames_dropped : int;
  frames_delivered : int;
  truncated_frames : int;
  quarantined : string list;
  telemetry : (string * int) list;
  survived : bool;
}

(* The OTA chaos schedule, one [(wave, device, fault)] per wave in wave
   order: truncated update frames (the decoder refuses, the sender's
   retransmissions recover), counter-reset attempts (the hardware
   refuses and counts), and canaries crashing mid-swap (the gate failure
   a staged rollout must turn into an abort), seeded like every other
   campaign. *)
type fault =
  | Frame_truncate of { count : int }
  | Counter_reset
  | Canary_crash

let fault_events ~seed ~devices ~waves =
  let prng = Fault_plan.Prng.create (seed lxor 0x07A7) in
  List.init waves (fun wave ->
      let device = Fault_plan.Prng.int prng devices in
      let fault =
        match Fault_plan.Prng.int prng 5 with
        | 0 | 1 -> Frame_truncate { count = 1 + Fault_plan.Prng.int prng 2 }
        | 2 | 3 -> Counter_reset
        | _ -> Canary_crash
      in
      (wave, device, fault))

(* ---- devices ---------------------------------------------------------- *)

type dev = {
  index : int;
  serial : string;
  installer : Installer.t;
  link : Link.t;
  ka : bytes;  (* controller-side copy of the device's Ka *)
  mutable quarantined : bool;
  mutable truncate_left : int;
}

(* One campaign, built afresh by each [run]: nothing in it outlives the
   call. *)
type campaign = {
  fleet : dev array;
  controller_clock : Cycles.t;
  device_clock : Cycles.t;
  obs : Obs.Log.t option;
  mutable obs_at : int;
      (* the global slice offset: each phase's loop restarts its local
         clock at 0, so flight-recorder timestamps add this base *)
  mutable truncated : int;  (* frames bitten by [Frame_truncate] faults *)
}

let wave_corr wave = Printf.sprintf "ota/wave-%d" wave
let dev_corr ~wave serial = Printf.sprintf "ota/%s/w%d" serial wave

(* The flight recorder charges nothing. *)
let observe c ~corr ~at event =
  match c.obs with
  | None -> ()
  | Some log -> Obs.Log.record log ~corr ~at event

(* The refusal verdicts: each one's flight-recorder reason, and the text
   a refusing canary aborts its wave with. *)
let refusal = function
  | 'R' -> ("rollback", "rollback-refused")
  | 'V' -> ("vet", "vet-refused")
  | 'M' -> ("auth", "auth-refused")
  | 'D' -> ("digest", "digest-refused")
  | 'X' -> ("crash", "crashed mid-swap")
  | 'G' -> ("unreachable", "unreachable")
  | _ -> invalid_arg "Rollout.refusal: not a refusal"

(* ---- one OTA transfer session (controller side) ----------------------- *)

let retry_timeout = 6
let session_attempts = 8
let window = 4
let chunk_size = 128

type sess = {
  dev : dev;
  seq : int;
  offer : bytes;  (* encoded UpdateOffer, ready to (re)send *)
  payload : bytes;  (* encoded TELF *)
  mutable state : [ `Offer | `Stream | `Done of char ];
  mutable opened : bool;  (* the device acked the offer: transfer staged *)
  mutable next_needed : int;
  mutable cursor : int;
  mutable dup_acks : int;
  mutable attempts : int;
  mutable last_sent : int;
  mutable counter_after : int;
}

let is_done s = match s.state with `Done _ -> true | `Offer | `Stream -> false
let applied s = s.state = `Done 'A'
let letter s = match s.state with `Done v -> v | `Offer | `Stream -> '?'

(* A session's terminal verdict on its device's trail: the swap and the
   counter it reached, or the refusal's reason. *)
let record_verdict c ~wave ~at s =
  match (c.obs, s.state) with
  | Some log, `Done v ->
      let serial = s.dev.serial in
      Obs.Log.record log ~corr:(dev_corr ~wave serial) ~at
        (if v = 'A' then
           Obs.Event.Swap_applied { serial; counter = s.counter_after }
         else Obs.Event.Update_refused { serial; reason = fst (refusal v) })
  | _ -> ()

(* End of the go-back-N window: chunks before it may be in flight. *)
let window_limit s =
  min (Bytes.length s.payload) (s.next_needed + (window * chunk_size))

let send_chunks s ~at =
  let size = Bytes.length s.payload in
  let limit = window_limit s in
  while s.cursor < limit do
    let len = min chunk_size (size - s.cursor) in
    Link.send s.dev.link ~from:Link.Remote ~at
      (Protocol.encode
         (Protocol.UpdateChunk
            {
              seq = s.seq;
              offset = s.cursor;
              data = Bytes.sub s.payload s.cursor len;
            }));
    s.cursor <- s.cursor + len;
    s.last_sent <- at
  done

let controller_poll s ~at =
  match s.state with
  | `Done _ -> ()
  | `Offer ->
      if s.last_sent < 0 || at - s.last_sent >= retry_timeout then begin
        if s.attempts >= session_attempts then s.state <- `Done '?'
        else begin
          s.attempts <- s.attempts + 1;
          Link.send s.dev.link ~from:Link.Remote ~at s.offer;
          s.last_sent <- at
        end
      end
  | `Stream ->
      if at - s.last_sent >= retry_timeout then begin
        (* Stalled: go back to the last cumulative ack and resend. *)
        if s.attempts >= session_attempts then s.state <- `Done '?'
        else begin
          s.attempts <- s.attempts + 1;
          s.cursor <- s.next_needed;
          send_chunks s ~at
        end
      end
      else send_chunks s ~at

(* The earliest slice at which [controller_poll] can act: at once while
   a streaming window still has room, otherwise when the retry timer
   fires; never once the session is done.  Before the first send
   [last_sent] is far negative, so a fresh offer is due at once too. *)
let session_wake s =
  match s.state with
  | `Done _ -> max_int
  | `Stream when s.cursor < window_limit s -> min_int
  | `Offer | `Stream -> s.last_sent + retry_timeout

let controller_on_frame s ~at frame =
  match Protocol.decode frame with
  | Error _ -> ()
  | Ok (Protocol.UpdateAck { seq; status; arg }) when seq = s.seq -> (
      match status with
      | Protocol.Ota_ready ->
          s.opened <- true;
          if s.state = `Offer then begin
            s.state <- `Stream;
            s.next_needed <- arg;
            s.cursor <- arg;
            s.attempts <- 0;
            s.last_sent <- at
          end
      | Protocol.Ota_need ->
          if arg > s.next_needed then begin
            s.next_needed <- arg;
            s.dup_acks <- 0;
            s.attempts <- 0;
            s.last_sent <- at
          end
          else begin
            (* Go-back-N duplicate ack: a hole at [arg].  Two in a row
               rewind the cursor without waiting for the stall timer. *)
            s.dup_acks <- s.dup_acks + 1;
            if s.dup_acks >= 2 then begin
              s.cursor <- arg;
              s.dup_acks <- 0
            end
          end
      | Protocol.Ota_applied ->
          s.counter_after <- arg;
          s.state <- `Done 'A'
      | Protocol.Ota_refused_rollback ->
          s.counter_after <- arg;
          s.state <- `Done 'R'
      | Protocol.Ota_refused_vet -> s.state <- `Done 'V'
      | Protocol.Ota_refused_auth -> s.state <- `Done 'M'
      | Protocol.Ota_refused_digest -> s.state <- `Done 'D'
      | Protocol.Ota_refused_crash -> s.state <- `Done 'X')
  | Ok _ -> ()

(* Device side of a slice: deliver inbound frames (after any armed
   truncation fault bites them), let the installer answer. *)
let device_step c (d : dev) ~at =
  List.iter
    (fun frame ->
      let frame =
        if d.truncate_left > 0 && Bytes.length frame > 1 then begin
          d.truncate_left <- d.truncate_left - 1;
          c.truncated <- c.truncated + 1;
          Bytes.sub frame 0 (Bytes.length frame / 2)
        end
        else frame
      in
      List.iter
        (fun reply ->
          Link.send d.link ~from:Link.Device ~at (Protocol.encode reply))
        (Installer.on_frame d.installer frame))
    (Link.deliver d.link ~to_:Link.Device ~at)

(* ---- post-swap attestation (static + CFA) ----------------------------- *)

let attest_gate c ~wave (cohort : dev list) ~expected =
  let backoff = Verifier.default_backoff in
  let slice_cap = Verifier.settle_cap backoff in
  let genesis = Attestation.cf_genesis ~id:expected in
  let sessions =
    List.map
      (fun d ->
        let static =
          Verifier.create ~ka:d.ka ~expected ~backoff ~refusals_to_settle:2
            ~session:(Printf.sprintf "%s/w%d/s" d.serial wave)
            ()
        in
        let cfa =
          Verifier.create ~ka:d.ka ~expected ~backoff ~refusals_to_settle:2
            ~cfa:(Verifier.quiescent ~genesis)
            ~session:(Printf.sprintf "%s/w%d/c" d.serial wave)
            ()
        in
        (d, [ static; cfa ]))
      cohort
  in
  (* Wake-driven slices, as in [Swarm.run]: a device is visited only
     when a frame on its link is due or one of its sessions' retry timer
     fires, and [settle] jumps to the earliest such slice.  One visit
     runs the device side, then both sessions. *)
  let gate = Array.of_list sessions in
  let active = Link.Wake_set.create ~universe:(Array.length gate) in
  Array.iteri (fun i _ -> Link.Wake_set.add active i) gate;
  let wake i =
    let d, vs = gate.(i) in
    List.fold_left
      (fun w v -> min w (Verifier.next_wake v))
      (Link.next_due d.link) vs
  in
  ignore
    (Link.Wake_set.settle ~cap:slice_cap ~pending:(2 * Array.length gate)
       (fun ~at ->
         let settled = ref 0 in
         let next =
           Link.Wake_set.sweep active ~at ~wake ~visit:(fun i ->
               let d, vs = gate.(i) in
               device_step c d ~at;
               (* Both sessions share the device's link: drain once, fan
                  every frame out to both (each ignores the other's
                  sequences). *)
               let frames = Link.deliver d.link ~to_:Link.Remote ~at in
               List.iter
                 (fun v ->
                   let was_pending = Verifier.outcome v = Verifier.Pending in
                   List.iter
                     (fun frame ->
                       Cost_model.charge_hashing c.controller_clock (fun () ->
                           Verifier.on_frame v frame))
                     frames;
                   (match Verifier.poll v ~at with
                   | Some frame -> Link.send d.link ~from:Link.Remote ~at frame
                   | None -> ());
                   if was_pending && Verifier.outcome v <> Verifier.Pending
                   then incr settled)
                 vs)
         in
         (!settled, next)));
  List.iter
    (fun (_, vs) -> List.iter (Verifier.conclude ~cap:slice_cap) vs)
    sessions;
  (* A device passes iff both its sessions attested. *)
  List.map
    (fun (d, vs) ->
      (d, List.for_all (fun v -> Verifier.outcome v = Verifier.Attested) vs))
    sessions

(* ---- the campaign ----------------------------------------------------- *)

(* Offer the image to [cohort], one session per device in cohort order,
   and run wake-driven slices until every session settles or the cap
   runs out; returns the sessions and the slices used.  A session in
   [`Done '?'] (its controller gave up) can still turn [A] on a late ack
   while the loop runs, so only after it are the unsettled sessions
   finished: [X] if the device crashed, else [G]. *)
let transfer c ~wave ~version ~id ~payload ~digest cohort =
  let base = c.obs_at in
  let size = Bytes.length payload in
  let sessions =
    List.map
      (fun d ->
        let seq = (wave * 10_000) + d.index in
        let mac =
          Cost_model.charge_hashing c.controller_clock (fun () ->
              Attestation.update_mac ~ka:d.ka ~id ~version ~size ~digest)
        in
        (match c.obs with
        | Some log ->
            let corr =
              Obs.Log.mint log ~parent:(wave_corr wave)
                (dev_corr ~wave d.serial)
            in
            Obs.Log.record log ~corr ~at:base
              (Obs.Event.Offer_sent { serial = d.serial; version })
        | None -> ());
        {
          dev = d;
          seq;
          offer =
            Protocol.encode
              (Protocol.UpdateOffer { seq; id; version; size; digest; mac });
          payload;
          state = `Offer;
          opened = false;
          next_needed = 0;
          cursor = 0;
          dup_acks = 0;
          attempts = 0;
          last_sent = -1000;
          counter_after = -1;
        })
      cohort
  in
  let cap =
    64
    + (8 * ((size / chunk_size) + 1))
    + (retry_timeout * session_attempts * 2)
  in
  (* Wake-driven slices, as in [attest_gate]: each slice visits, in
     session order, only the sessions whose link has a frame due or
     whose controller can send — device side, then controller — and
     [settle] jumps to the next slice in which any of them can act. *)
  let live = Array.of_list sessions in
  let active = Link.Wake_set.create ~universe:(Array.length live) in
  Array.iteri (fun i _ -> Link.Wake_set.add active i) live;
  let wake i =
    let s = live.(i) in
    min (Link.next_due s.dev.link) (session_wake s)
  in
  let slices =
    Link.Wake_set.settle ~cap ~pending:(Array.length live) (fun ~at ->
        let settled = ref 0 in
        let next =
          Link.Wake_set.sweep active ~at ~wake ~visit:(fun i ->
              let s = live.(i) in
              device_step c s.dev ~at;
              let was_done = is_done s in
              List.iter
                (fun frame ->
                  let was_opened = s.opened in
                  let before = s.state in
                  controller_on_frame s ~at frame;
                  if c.obs <> None then begin
                    if (not was_opened) && s.opened then
                      observe c ~corr:(dev_corr ~wave s.dev.serial)
                        ~at:(base + at)
                        (Obs.Event.Transfer_staged { serial = s.dev.serial });
                    if before <> s.state then
                      record_verdict c ~wave ~at:(base + at) s
                  end)
                (Link.deliver s.dev.link ~to_:Link.Remote ~at);
              controller_poll s ~at;
              if (not was_done) && is_done s then incr settled)
        in
        (!settled, next))
  in
  List.iter
    (fun s ->
      match s.state with
      | `Done '?' | `Offer | `Stream ->
          s.state <-
            `Done (if Installer.crashed s.dev.installer then 'X' else 'G');
          record_verdict c ~wave ~at:(base + slices) s
      | `Done _ -> ())
    sessions;
  c.obs_at <- base + slices;
  (sessions, slices)

(* One wave: arm its faults, offer it to the canary cohort, gate on every
   canary applying it and passing post-swap attestation, then promote it
   to the rest of the fleet or abort. *)
let run_wave c ~canary ~plan wave (w : wave_spec) =
  let corr = wave_corr wave in
  observe c ~corr ~at:c.obs_at
    (Obs.Event.Wave_opened { wave; label = w.label; version = w.version });
  (* Re-admit last wave's crash victims (they rebooted into the
     incumbent); quarantine decisions stand. *)
  Array.iter (fun d -> Installer.clear_crash d.installer) c.fleet;
  List.iter
    (fun (at_wave, device, fault) ->
      if at_wave = wave then
        let d = c.fleet.(device) in
        match fault with
        | Frame_truncate { count } -> d.truncate_left <- d.truncate_left + count
        | Counter_reset -> Installer.attempt_counter_reset d.installer
        | Canary_crash -> Installer.arm_crash d.installer)
    plan;
  let payload = Telf.encode w.image in
  let digest = Crypto.Sha1.digest payload in
  let id = Task_id.of_image w.image.Telf.image in
  let verdict =
    Array.map (fun d -> if d.quarantined then 'Q' else '.') c.fleet
  in
  let eligible =
    Array.to_list c.fleet |> List.filter (fun d -> not d.quarantined)
  in
  let canaries = List.filteri (fun i _ -> i < canary) eligible in
  let rest = List.filteri (fun i _ -> i >= canary) eligible in
  let transfer = transfer c ~wave ~version:w.version ~id ~payload ~digest in
  (* Phase A: the canary cohort. *)
  let canary_sessions, canary_slices = transfer canaries in
  let attest_results =
    if List.for_all applied canary_sessions then
      attest_gate c ~wave canaries ~expected:id
    else []
  in
  (* An empty cohort (every device quarantined) is no evidence: the wave
     aborts rather than promote on a vacuous gate. *)
  let abort_reason =
    let canary_failed (d : dev) why =
      Some (Printf.sprintf "canary %s: %s" d.serial why)
    in
    if canaries = [] then Some "no eligible device"
    else
      match List.find_opt (fun s -> not (applied s)) canary_sessions with
      | Some s -> canary_failed s.dev (snd (refusal (letter s)))
      | None -> (
          match List.find_opt (fun (_, ok) -> not ok) attest_results with
          | Some (d, _) -> canary_failed d "post-swap attestation failed"
          | None -> None)
  in
  let promoted = abort_reason = None in
  (* Phase B: promotion — or fleet-wide abort. *)
  let fleet_sessions, fleet_slices =
    if promoted then transfer rest else ([], 0)
  in
  let sessions = canary_sessions @ fleet_sessions in
  (* The circuit breaker: one strike quarantines.  Every device that was
     offered this wave and did not end it running the offered image is
     out of the fleet until an operator re-provisions it, and so are
     canaries that applied a wave the gate then failed: they run an
     image the fleet aborted. *)
  let struck = List.filter (fun s -> not (promoted && applied s)) sessions in
  List.iter (fun s -> s.dev.quarantined <- true) struck;
  let newly_quarantined =
    List.sort compare (List.map (fun s -> s.dev.serial) struck)
  in
  List.iter (fun s -> verdict.(s.dev.index) <- letter s) sessions;
  let verdicts = String.init (Array.length verdict) (Array.get verdict) in
  let count v =
    Array.fold_left (fun n ch -> if ch = v then n + 1 else n) 0 verdict
  in
  (match abort_reason with
  | None -> observe c ~corr ~at:c.obs_at (Obs.Event.Wave_promoted { wave })
  | Some reason ->
      observe c ~corr ~at:c.obs_at (Obs.Event.Wave_aborted { wave; reason }));
  List.iter
    (fun serial ->
      observe c ~corr:(dev_corr ~wave serial) ~at:c.obs_at
        (Obs.Event.Quarantined { serial }))
    newly_quarantined;
  let attest_ok = List.length (List.filter snd attest_results) in
  {
    wave;
    label = w.label;
    version = w.version;
    offered = List.length sessions;
    staged = List.length (List.filter (fun s -> s.opened) sessions);
    applied = count 'A';
    refused_rollback = count 'R';
    refused_vet = count 'V';
    refused_auth = count 'M';
    refused_digest = count 'D';
    crashed = count 'X';
    gave_up = count 'G';
    attest_ok;
    attest_failed = List.length attest_results - attest_ok;
    verdicts;
    promoted;
    aborted = not promoted;
    abort_reason;
    slices = canary_slices + fleet_slices;
    newly_quarantined;
  }

let run ~devices ~canary ~seed ?(faults = false) ?(loss_percent = 10) ?obs
    ~platform_key_of ~incumbent (waves : wave_spec list) =
  if devices <= 0 then invalid_arg "Rollout.run: devices must be positive";
  if canary <= 0 || canary > devices then
    invalid_arg "Rollout.run: canary must be in 1..devices";
  if waves = [] then invalid_arg "Rollout.run: no waves";
  List.iter
    (fun (w : wave_spec) ->
      if w.version <= 0 then invalid_arg "Rollout.run: versions start at 1")
    waves;
  let controller_clock = Cycles.create () in
  let device_clock = Cycles.create () in
  let incumbent_id = Task_id.of_image incumbent.Telf.image in
  let fleet =
    Array.init devices (fun i ->
        let serial = Fault_plan.serial_of i in
        let link = Link.for_device ~seed ~salt:29 ~faults ~loss_percent i in
        let platform_key = platform_key_of ~serial in
        (* Device-side boot-time key derivation, charged to the device.
           The controller's copy is the same bytes: its derivation is
           billed to the controller by replay, not hashed again. *)
        let mark = Cost_model.hashing_mark () in
        let ka =
          Cost_model.charge_hashing device_clock (fun () ->
              Attestation.derive_ka ~platform_key)
        in
        let ka_bill = Cost_model.hashing_since mark in
        Cost_model.charge_hashing controller_clock (fun () ->
            Cost_model.replay_hashing ka_bill);
        let counter =
          Devices.Monotonic_counter.create device_clock
            ~name:(serial ^ "/ctr") ~base:0xF000_6000
            ~read_cost:Cost_model.counter_read
            ~increment_cost:Cost_model.counter_increment ()
        in
        let installer =
          Installer.create ~serial ~ka ~clock:device_clock ~counter
            ~loaded:incumbent_id ()
        in
        {
          index = i;
          serial;
          installer;
          link;
          ka;
          quarantined = false;
          truncate_left = 0;
        })
  in
  let c =
    { fleet; controller_clock; device_clock; obs; obs_at = 0; truncated = 0 }
  in
  let plan =
    if faults then fault_events ~seed ~devices ~waves:(List.length waves)
    else []
  in
  let waves = List.mapi (run_wave c ~canary ~plan) waves in
  let sum f = Array.fold_left (fun n d -> n + f d) 0 fleet in
  let tally f = List.fold_left (fun n w -> n + f w) 0 waves in
  {
    devices;
    canary;
    seed;
    faults;
    loss_percent;
    waves;
    counters =
      Array.to_list (Array.map (fun d -> Installer.counter_value d.installer) fleet);
    reset_attempts = sum (fun d -> Installer.reset_attempts d.installer);
    controller_cycles = Cycles.now controller_clock;
    device_cycles = Cycles.now device_clock;
    update_cycles = sum (fun d -> Installer.update_cycles d.installer);
    rollback_refusal_cycles =
      Array.fold_left
        (fun acc d -> max acc (Installer.last_refusal_cycles d.installer))
        0 fleet;
    frames_sent = sum (fun d -> Link.sent_count d.link);
    frames_dropped = sum (fun d -> Link.dropped_count d.link);
    frames_delivered = sum (fun d -> Link.delivered_count d.link);
    truncated_frames = c.truncated;
    quarantined =
      Array.to_list fleet
      |> List.filter (fun d -> d.quarantined)
      |> List.map (fun d -> d.serial)
      |> List.sort compare;
    telemetry =
      List.filter
        (fun (_, n) -> n > 0)
        [
          ("ota.applied", tally (fun w -> w.applied));
          ("ota.crashed", tally (fun w -> w.crashed));
          ("ota.gave_up", tally (fun w -> w.gave_up));
          ("ota.offered", tally (fun w -> w.offered));
          ("ota.quarantines", tally (fun w -> List.length w.newly_quarantined));
          ("ota.refused_auth", tally (fun w -> w.refused_auth));
          ("ota.refused_digest", tally (fun w -> w.refused_digest));
          ("ota.refused_rollback", tally (fun w -> w.refused_rollback));
          ("ota.refused_vet", tally (fun w -> w.refused_vet));
          ("ota.staged", tally (fun w -> w.staged));
          ("ota.waves_aborted", tally (fun w -> Bool.to_int w.aborted));
          ("ota.waves_promoted", tally (fun w -> Bool.to_int w.promoted));
        ];
    (* A device lost to a crash or to its link on a fault-free run. *)
    survived =
      faults || List.for_all (fun w -> w.gave_up + w.crashed = 0) waves;
  }

(* ---- rendering -------------------------------------------------------- *)

let body r =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add
    "ota campaign: devices=%d canary=%d waves=%d seed=%d faults=%s loss=%d%%\n"
    r.devices r.canary (List.length r.waves) r.seed
    (if r.faults then "on" else "off")
    r.loss_percent;
  List.iter
    (fun w ->
      add
        "wave %d [%s v%d]: %s offered=%d staged=%d applied=%d rollback=%d vet=%d auth=%d digest=%d crashed=%d gave_up=%d attest=%d/%d slices=%d\n"
        w.wave w.label w.version
        (if w.promoted then "PROMOTED" else "ABORTED")
        w.offered w.staged w.applied w.refused_rollback w.refused_vet
        w.refused_auth w.refused_digest w.crashed w.gave_up w.attest_ok
        (w.attest_ok + w.attest_failed)
        w.slices;
      (match w.abort_reason with
      | Some reason -> add "  abort: %s\n" reason
      | None -> ());
      if w.newly_quarantined <> [] then
        add "  quarantined: %s\n" (String.concat " " w.newly_quarantined);
      add "  verdicts=sha1:%s\n" (Fault_plan.sha1_hex w.verdicts))
    r.waves;
  let cmin = List.fold_left min max_int r.counters in
  let cmax = List.fold_left max 0 r.counters in
  add "counters: min=%d max=%d advanced=%d/%d reset_attempts=%d\n" cmin cmax
    (List.length (List.filter (fun c -> c > 0) r.counters))
    r.devices r.reset_attempts;
  add "controller_cycles=%d device_cycles=%d update_cycles=%d\n"
    r.controller_cycles r.device_cycles r.update_cycles;
  add "rollback_refusal_cycles=%d\n" r.rollback_refusal_cycles;
  add "frames: sent=%d dropped=%d delivered=%d truncated=%d\n" r.frames_sent
    r.frames_dropped r.frames_delivered r.truncated_frames;
  add "quarantined: [%s]\n" (String.concat " " r.quarantined);
  List.iter (fun (k, v) -> add "  %s=%d\n" k v) r.telemetry;
  add "survived: %s\n" (if r.survived then "yes" else "no");
  Buffer.contents b

let to_string r = Fault_plan.stamp (body r)

let equal a b = to_string a = to_string b

let verdicts r = List.map (fun w -> w.verdicts) r.waves

let campaign_failed r =
  List.exists (fun w -> String.contains w.verdicts '?') r.waves
