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
  mutable strikes : int;
  mutable truncate_left : int;
  nvm : bytes option ref;  (* sealed counter snapshot (persistence) *)
}

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
let device_step (d : dev) ~at ~truncated =
  List.iter
    (fun frame ->
      let frame =
        if d.truncate_left > 0 && Bytes.length frame > 1 then begin
          d.truncate_left <- d.truncate_left - 1;
          incr truncated;
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

let attest_gate ~controller_clock ~wave (cohort : dev list) ~expected ~truncated
    =
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
     fires, and the loop jumps to the earliest such slice. *)
  let gate = Array.of_list sessions in
  let active = Link.Wake_set.create ~universe:(Array.length gate) in
  Array.iteri (fun i _ -> Link.Wake_set.add active i) gate;
  let wake i =
    let d, vs = gate.(i) in
    List.fold_left
      (fun w v -> min w (Verifier.next_wake v))
      (Link.next_due d.link) vs
  in
  let pending = ref (2 * Array.length gate) in
  let slice = ref 0 in
  while !pending > 0 && !slice <= slice_cap do
    let at = !slice in
    ignore
      (Link.Wake_set.sweep active ~at ~wake ~visit:(fun i ->
           device_step (fst gate.(i)) ~at ~truncated));
    let next =
      Link.Wake_set.sweep active ~at ~wake ~visit:(fun i ->
          let d, vs = gate.(i) in
          (* Both sessions share the device's link: drain once, fan every
             frame out to both (each ignores the other's sequences). *)
          let frames = Link.deliver d.link ~to_:Link.Remote ~at in
          List.iter
            (fun v ->
              let was_pending = Verifier.outcome v = Verifier.Pending in
              List.iter
                (fun frame ->
                  Cost_model.charge_hashing controller_clock (fun () ->
                      Verifier.on_frame v frame))
                frames;
              (match Verifier.poll v ~at with
              | Some frame -> Link.send d.link ~from:Link.Remote ~at frame
              | None -> ());
              if was_pending && Verifier.outcome v <> Verifier.Pending then
                decr pending)
            vs)
    in
    slice :=
      Link.Wake_set.next_slice ~at ~cap:slice_cap ~settled:(!pending = 0) next
  done;
  List.iter
    (fun (_, vs) -> List.iter (Verifier.conclude ~cap:slice_cap) vs)
    sessions;
  (* A device passes iff both its sessions attested. *)
  List.map
    (fun (d, vs) ->
      (d, List.for_all (fun v -> Verifier.outcome v = Verifier.Attested) vs))
    sessions

(* ---- the campaign ----------------------------------------------------- *)

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
  (* The campaign's global slice offset: per-phase loops restart their
     local clock at 0, so flight-recorder timestamps add this base.  The
     flight recorder charges nothing. *)
  let obs_at = ref 0 in
  let observe ~corr ~at event =
    match obs with
    | None -> ()
    | Some log -> Obs.Log.record log ~corr ~at event
  in
  let terminal_event ~serial ~counter = function
    | 'A' -> Some (Obs.Event.Swap_applied { serial; counter })
    | 'R' -> Some (Obs.Event.Update_refused { serial; reason = "rollback" })
    | 'V' -> Some (Obs.Event.Update_refused { serial; reason = "vet" })
    | 'M' -> Some (Obs.Event.Update_refused { serial; reason = "auth" })
    | 'D' -> Some (Obs.Event.Update_refused { serial; reason = "digest" })
    | 'X' -> Some (Obs.Event.Update_refused { serial; reason = "crash" })
    | 'G' -> Some (Obs.Event.Update_refused { serial; reason = "unreachable" })
    | _ -> None
  in
  let incumbent_id = Task_id.of_image incumbent.Telf.image in
  let fleet =
    Array.init devices (fun i ->
        let serial = Fault_plan.serial_of i in
        let link = Link.for_device ~seed ~salt:29 ~faults ~loss_percent i in
        let platform_key = platform_key_of ~serial in
        (* Device-side boot-time key derivation, charged to the device;
           the controller derives its copy from the registry side. *)
        let device_ka =
          Cost_model.charge_hashing device_clock (fun () ->
              Attestation.derive_ka ~platform_key)
        in
        let ka =
          Cost_model.charge_hashing controller_clock (fun () ->
              Attestation.derive_ka ~platform_key)
        in
        let counter =
          Devices.Monotonic_counter.create device_clock
            ~name:(serial ^ "/ctr") ~base:0xF000_6000
            ~read_cost:Cost_model.counter_read
            ~increment_cost:Cost_model.counter_increment ()
        in
        let nvm = ref None in
        let installer =
          Installer.create ~serial ~ka:device_ka ~clock:device_clock ~counter
            ~loaded:incumbent_id
            ~persist:(fun blob -> nvm := Some blob)
            ()
        in
        {
          index = i;
          serial;
          installer;
          link;
          ka;
          quarantined = false;
          strikes = 0;
          truncate_left = 0;
          nvm;
        })
  in
  let plan =
    if faults then fault_events ~seed ~devices ~waves:(List.length waves)
    else []
  in
  let truncated = ref 0 in
  let breaker_threshold = 1 in
  let strike d =
    d.strikes <- d.strikes + 1;
    if d.strikes >= breaker_threshold then begin
      d.strikes <- 0;
      d.quarantined <- true
    end
  in
  let survived = ref true in
  let stats = ref [] in
  List.iteri
    (fun wave_idx (w : wave_spec) ->
      let wave_corr = Printf.sprintf "ota/wave-%d" wave_idx in
      let dev_corr serial = Printf.sprintf "ota/%s/w%d" serial wave_idx in
      (match obs with
      | Some log -> ignore (Obs.Log.mint log wave_corr)
      | None -> ());
      observe ~corr:wave_corr ~at:!obs_at
        (Obs.Event.Wave_opened
           { wave = wave_idx; label = w.label; version = w.version });
      (* Re-admit last wave's crash victims (they rebooted into the
         incumbent); quarantine decisions stand. *)
      Array.iter (fun d -> Installer.clear_crash d.installer) fleet;
      List.iter
        (fun (wave, device, fault) ->
          if wave = wave_idx then
            let d = fleet.(device) in
            match fault with
            | Frame_truncate { count } ->
                d.truncate_left <- d.truncate_left + count
            | Counter_reset -> Installer.attempt_counter_reset d.installer
            | Canary_crash -> Installer.arm_crash d.installer)
        plan;
      let payload = Telf.encode w.image in
      let size = Bytes.length payload in
      let digest = Crypto.Sha1.digest payload in
      let id = Task_id.of_image w.image.Telf.image in
      let eligible =
        Array.to_list fleet |> List.filter (fun d -> not d.quarantined)
      in
      let canaries = List.filteri (fun i _ -> i < canary) eligible in
      let rest = List.filteri (fun i _ -> i >= canary) eligible in
      let verdict = Array.make devices '.' in
      Array.iter
        (fun d -> if d.quarantined then verdict.(d.index) <- 'Q')
        fleet;
      let slices = ref 0 in
      let run_phase cohort =
        let base = !obs_at in
        let sessions =
          List.map
            (fun d ->
              let seq = (wave_idx * 10_000) + d.index in
              let mac =
                Cost_model.charge_hashing controller_clock (fun () ->
                    Attestation.update_mac ~ka:d.ka ~id ~version:w.version
                      ~size ~digest)
              in
              let offer =
                Protocol.encode
                  (Protocol.UpdateOffer
                     { seq; id; version = w.version; size; digest; mac })
              in
              (match obs with
              | Some log ->
                  ignore (Obs.Log.mint log ~parent:wave_corr (dev_corr d.serial))
              | None -> ());
              observe ~corr:(dev_corr d.serial) ~at:base
                (Obs.Event.Offer_sent
                   { serial = d.serial; version = w.version });
              {
                dev = d;
                seq;
                offer;
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
          64 + (8 * ((size / chunk_size) + 1))
          + (retry_timeout * session_attempts * 2)
        in
        (* Wake-driven slices, as in [attest_gate]: each pass visits, in
           session order, only the sessions whose link has a frame due
           or whose controller can send; the loop jumps to the next
           slice in which any of them can act. *)
        let live = Array.of_list sessions in
        let active = Link.Wake_set.create ~universe:(Array.length live) in
        Array.iteri (fun i _ -> Link.Wake_set.add active i) live;
        let wake i =
          let s = live.(i) in
          min (Link.next_due s.dev.link) (session_wake s)
        in
        let is_done s = match s.state with `Done _ -> true | _ -> false in
        let pending = ref (Array.length live) in
        let tracking_done s f =
          let was_done = is_done s in
          f ();
          if (not was_done) && is_done s then decr pending
        in
        let slice = ref 0 in
        while !pending > 0 && !slice <= cap do
          let at = !slice in
          ignore
            (Link.Wake_set.sweep active ~at ~wake ~visit:(fun i ->
                 device_step live.(i).dev ~at ~truncated));
          ignore
            (Link.Wake_set.sweep active ~at ~wake ~visit:(fun i ->
                 let s = live.(i) in
                 tracking_done s (fun () ->
                     List.iter
                       (fun frame ->
                         let was_opened = s.opened in
                         let before = s.state in
                         controller_on_frame s ~at frame;
                         if obs <> None then begin
                           let corr = dev_corr s.dev.serial in
                           if (not was_opened) && s.opened then
                             observe ~corr ~at:(base + at)
                               (Obs.Event.Transfer_staged
                                  { serial = s.dev.serial });
                           match s.state with
                           | `Done c when before <> s.state -> (
                               match
                                 terminal_event ~serial:s.dev.serial
                                   ~counter:s.counter_after c
                               with
                               | Some e -> observe ~corr ~at:(base + at) e
                               | None -> ())
                           | _ -> ()
                         end)
                       (Link.deliver s.dev.link ~to_:Link.Remote ~at))));
          let next =
            Link.Wake_set.sweep active ~at ~wake ~visit:(fun i ->
                let s = live.(i) in
                tracking_done s (fun () -> controller_poll s ~at))
          in
          slice :=
            Link.Wake_set.next_slice ~at ~cap ~settled:(!pending = 0) next
        done;
        slices := !slices + !slice;
        (* Anything still unsettled has exhausted its schedule. *)
        List.iter
          (fun s ->
            match s.state with
            | `Done '?' | `Offer | `Stream ->
                s.state <-
                  (if Installer.crashed s.dev.installer then `Done 'X'
                   else `Done 'G');
                (match s.state with
                | `Done c -> (
                    match
                      terminal_event ~serial:s.dev.serial
                        ~counter:s.counter_after c
                    with
                    | Some e ->
                        observe ~corr:(dev_corr s.dev.serial)
                          ~at:(base + !slice) e
                    | None -> ())
                | _ -> ())
            | `Done _ -> ())
          sessions;
        obs_at := base + !slice;
        List.iter
          (fun s ->
            match s.state with
            | `Done c -> verdict.(s.dev.index) <- c
            | _ -> verdict.(s.dev.index) <- '?')
          sessions;
        sessions
      in
      (* Phase A: the canary cohort. *)
      let canary_sessions = run_phase canaries in
      let canary_applied =
        List.for_all (fun s -> s.state = `Done 'A') canary_sessions
      in
      let attest_results =
        if canary_applied then
          attest_gate ~controller_clock ~wave:wave_idx canaries ~expected:id
            ~truncated
        else []
      in
      let attest_ok_canaries =
        List.length (List.filter snd attest_results)
      in
      (* An empty cohort (every device quarantined) is no evidence: the
         wave aborts rather than promote on a vacuous gate. *)
      let gate_passed =
        canaries <> [] && canary_applied && List.for_all snd attest_results
      in
      let abort_reason =
        if gate_passed then None
        else if canaries = [] then Some "no eligible device"
        else if not canary_applied then
          List.find_opt (fun s -> s.state <> `Done 'A') canary_sessions
          |> Option.map (fun s ->
                 Printf.sprintf "canary %s: %s" s.dev.serial
                   (match s.state with
                   | `Done 'R' -> "rollback-refused"
                   | `Done 'V' -> "vet-refused"
                   | `Done 'M' -> "auth-refused"
                   | `Done 'D' -> "digest-refused"
                   | `Done 'X' -> "crashed mid-swap"
                   | `Done 'G' -> "unreachable"
                   | _ -> "pending"))
        else
          List.find_opt (fun (_, ok) -> not ok) attest_results
          |> Option.map (fun ((d : dev), _) ->
                 Printf.sprintf "canary %s: post-swap attestation failed"
                   d.serial)
      in
      (* Phase B: promotion — or fleet-wide abort. *)
      let fleet_sessions = if gate_passed then run_phase rest else [] in
      let all_sessions = canary_sessions @ fleet_sessions in
      (* The circuit breaker: every device that was offered this wave
         and did not end it running the offered image takes a strike.
         At the threshold it is quarantined — out of the fleet until an
         operator re-provisions it. *)
      let newly_quarantined = ref [] in
      List.iter
        (fun s ->
          if s.state <> `Done 'A' then begin
            let was = s.dev.quarantined in
            strike s.dev;
            if s.dev.quarantined && not was then
              newly_quarantined := s.dev.serial :: !newly_quarantined
          end)
        all_sessions;
      (* Canaries that applied a wave the gate then failed are pulled
         too: they run an image the fleet aborted. *)
      if not gate_passed then
        List.iter
          (fun s ->
            if not s.dev.quarantined then begin
              strike s.dev;
              if s.dev.quarantined then
                newly_quarantined := s.dev.serial :: !newly_quarantined
            end)
          canary_sessions;
      let count c =
        Array.fold_left (fun n ch -> if ch = c then n + 1 else n) 0 verdict
      in
      let verdicts = String.init devices (Array.get verdict) in
      if
        (not faults)
        && (count 'G' > 0 || count 'X' > 0 || String.contains verdicts '?')
      then survived := false;
      if gate_passed then
        observe ~corr:wave_corr ~at:!obs_at
          (Obs.Event.Wave_promoted { wave = wave_idx })
      else
        observe ~corr:wave_corr ~at:!obs_at
          (Obs.Event.Wave_aborted
             {
               wave = wave_idx;
               reason = Option.value abort_reason ~default:"canary gate failed";
             });
      List.iter
        (fun serial ->
          observe ~corr:(dev_corr serial) ~at:!obs_at
            (Obs.Event.Quarantined { serial }))
        (List.sort compare !newly_quarantined);
      stats :=
        {
          wave = wave_idx;
          label = w.label;
          version = w.version;
          offered = List.length all_sessions;
          staged = List.length (List.filter (fun s -> s.opened) all_sessions);
          applied = count 'A';
          refused_rollback = count 'R';
          refused_vet = count 'V';
          refused_auth = count 'M';
          refused_digest = count 'D';
          crashed = count 'X';
          gave_up = count 'G';
          attest_ok = attest_ok_canaries;
          attest_failed =
            (if canary_applied then
               List.length attest_results - attest_ok_canaries
             else 0);
          verdicts;
          promoted = gate_passed;
          aborted = not gate_passed;
          abort_reason;
          slices = !slices;
          newly_quarantined = List.sort compare !newly_quarantined;
        }
        :: !stats)
    waves;
  let sum f = Array.fold_left (fun n d -> n + f d) 0 fleet in
  let waves = List.rev !stats in
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
    truncated_frames = !truncated;
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
    survived = !survived;
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
