open Tytan_core
open Tytan_telemetry

type cfa_responder =
  id:Task_id.t -> nonce:bytes -> Attestation.cfa_report option

(* Per-session telemetry: one "net/attest" span from the first challenge
   transmission until the verifier settles. *)
type session = {
  verifier : Verifier.t;
  mutable span : int;
  mutable settled : bool;
}

type t = {
  platform : Platform.t;
  link : Link.t;
  slice_cycles : int;
  advance : cycles:int -> unit;
  mutable verifiers : session list;
  mutable cfa_responder : cfa_responder option;
  mutable slice : int;
  mutable served : int;
  mutable malformed : int;
  mutable unknown : int;
}

let create platform ~link ?advance () =
  let advance =
    match advance with
    | Some f -> f
    | None -> fun ~cycles -> ignore (Platform.run platform ~cycles)
  in
  {
    platform;
    link;
    slice_cycles = (Platform.config platform).Platform.tick_period;
    advance;
    verifiers = [];
    cfa_responder = None;
    slice = 0;
    served = 0;
    malformed = 0;
    unknown = 0;
  }

let attach_verifier t v =
  t.verifiers <- { verifier = v; span = 0; settled = false } :: t.verifiers

let set_cfa_responder t f = t.cfa_responder <- Some f
let tel t = Platform.telemetry t.platform

(* The device's network agent: an OS-level driver that hands attestation
   challenges to the Remote Attest component and transmits its reports.
   Malformed frames are dropped (and counted); frames with an unknown
   tag are dropped separately — a newer protocol revision is not an
   attack. *)
let device_agent t frame =
  match Platform.attestation t.platform with
  | None -> ()
  | Some attestation -> (
      let send reply =
        Link.send t.link ~from:Link.Device ~at:t.slice (Protocol.encode reply)
      in
      match Protocol.decode frame with
      | Error e ->
          if Protocol.is_unknown_tag e then begin
            t.unknown <- t.unknown + 1;
            Telemetry.incr (tel t) ~component:"net" "unknown_frames"
          end
          else begin
            t.malformed <- t.malformed + 1;
            Telemetry.incr (tel t) ~component:"net" "malformed_frames"
          end
      | Ok
          ( Protocol.Response _ | Protocol.Refusal _ | Protocol.CfaResponse _
          | Protocol.UpdateOffer _ | Protocol.UpdateChunk _
          | Protocol.UpdateAck _ ) ->
          (* Verifier-side frames echoed back, or OTA traffic this plain
             attestation agent does not speak — dropped, not answered. *)
          ()
      | Ok (Protocol.Challenge { seq; id; nonce }) ->
          t.served <- t.served + 1;
          Telemetry.incr (tel t) ~component:"net" "challenges_served";
          Telemetry.with_span (tel t) ~component:"net" "serve" (fun () ->
              send
                (match Attestation.remote_attest attestation ~id ~nonce with
                | Some report -> Protocol.Response { seq; report }
                | None -> Protocol.Refusal { seq }))
      | Ok (Protocol.CfaChallenge { seq; id; nonce }) ->
          t.served <- t.served + 1;
          Telemetry.incr (tel t) ~component:"net" "challenges_served";
          Telemetry.with_span (tel t) ~component:"net" "serve" (fun () ->
              send
                (match t.cfa_responder with
                | None -> Protocol.Refusal { seq }
                | Some respond -> (
                    match respond ~id ~nonce with
                    | Some report -> Protocol.CfaResponse { seq; report }
                    | None -> Protocol.Refusal { seq }))))

let step t =
  (* 1. The device computes for one slice. *)
  t.advance ~cycles:t.slice_cycles;
  (* 2. Device-bound frames arrive and are served. *)
  List.iter (device_agent t) (Link.deliver t.link ~to_:Link.Device ~at:t.slice);
  (* 3. Remote-bound frames reach the verifiers. *)
  let for_remote = Link.deliver t.link ~to_:Link.Remote ~at:t.slice in
  List.iter
    (fun frame ->
      List.iter (fun s -> Verifier.on_frame s.verifier frame) t.verifiers)
    for_remote;
  (* 4. Verifiers may (re)transmit. *)
  List.iter
    (fun s ->
      match Verifier.poll s.verifier ~at:t.slice with
      | Some frame ->
          if s.span = 0 && not s.settled then
            s.span <-
              Telemetry.begin_span (tel t) ~component:"net" "attest";
          Link.send t.link ~from:Link.Remote ~at:t.slice frame
      | None -> ())
    t.verifiers;
  (* 5. Close the round-trip span of any session that just settled. *)
  List.iter
    (fun s ->
      if (not s.settled) && Verifier.outcome s.verifier <> Verifier.Pending
      then begin
        s.settled <- true;
        Telemetry.end_span (tel t) s.span;
        Telemetry.incr (tel t) ~component:"net" "sessions_settled"
      end)
    t.verifiers;
  t.slice <- t.slice + 1

let run t ~slices =
  for _ = 1 to slices do
    step t
  done

let run_until_settled t ~max_slices =
  let settled () =
    List.for_all
      (fun s -> Verifier.outcome s.verifier <> Verifier.Pending)
      t.verifiers
  in
  let start = t.slice in
  let rec go () =
    if settled () || t.slice - start >= max_slices then t.slice - start
    else begin
      step t;
      go ()
    end
  in
  go ()

let record_link_gauges t =
  List.iter
    (fun (name, v) ->
      Telemetry.set_gauge (tel t) ~component:"net" ("link_" ^ name) v)
    (Link.counters t.link)

let slice t = t.slice
let challenges_served t = t.served
let malformed_frames t = t.malformed
let unknown_tag_frames t = t.unknown
