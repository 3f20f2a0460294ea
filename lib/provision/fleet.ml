open Tytan_core
open Tytan_netsim

type device = {
  serial : string;
  platform : Platform.t;
  link : Link.t;
  cosim : Cosim.t;
}

let serial d = d.serial
let platform d = d.platform

(* The deterministic firmware image a whole fleet runs: byte content is
   a fixed mix of the campaign seed and the offset, so every campaign
   with the same seed audits the same reference identity.  Shared with
   the swarm campaign ({!Swarm}), whose scalar and incremental engines
   attest the very same binary. *)
let reference_image ~seed ~size =
  Bytes.init size (fun i ->
      Char.chr ((seed * 31 + (i * 131) + (i lsr 3)) land 0xff))

let manufacture registry ~serial ?(loss_percent = 0) ?(link_seed = 1) () =
  let config =
    {
      Platform.default_config with
      platform_key = Registry.platform_key registry ~serial;
    }
  in
  let platform = Platform.create ~config () in
  let link = Link.create ~seed:link_seed ~loss_percent () in
  let cosim = Cosim.create platform ~link () in
  { serial; platform; link; cosim }

let deploy d ~name ?provider telf =
  Platform.load_blocking d.platform ~name ?provider telf

type component_status =
  | Healthy
  | Compromised_or_missing
  | Unreachable

type audit_report = {
  device_serial : string;
  components : (string * component_status) list;
  slices_taken : int;
}

let audit registry d ?(max_attempts = 20) () =
  let ka = Registry.attestation_key registry ~serial:d.serial in
  let sessions =
    List.map
      (fun (component, reference) ->
        let v = Verifier.create ~ka ~expected:reference ~max_attempts () in
        Cosim.attach_verifier d.cosim v;
        (component, v))
      (Registry.manifest registry)
  in
  let slices_taken =
    Cosim.run_until_settled d.cosim ~max_slices:(max_attempts * 20)
  in
  let components =
    List.map
      (fun (component, v) ->
        let status =
          match Verifier.outcome v with
          | Verifier.Attested -> Healthy
          | Verifier.Refused | Verifier.Cfa_rejected -> Compromised_or_missing
          | Verifier.Pending | Verifier.Gave_up -> Unreachable
        in
        (component, status))
      sessions
  in
  { device_serial = d.serial; components; slices_taken }

let audit_fleet registry devices ?max_attempts () =
  List.map (fun d -> audit registry d ?max_attempts ()) devices

let healthy report =
  List.for_all (fun (_, status) -> status = Healthy) report.components

let pp_status ppf = function
  | Healthy -> Format.pp_print_string ppf "healthy"
  | Compromised_or_missing -> Format.pp_print_string ppf "COMPROMISED/MISSING"
  | Unreachable -> Format.pp_print_string ppf "unreachable"

let pp_report ppf report =
  Format.fprintf ppf "@[<v>device %s (%d slices):" report.device_serial
    report.slices_taken;
  List.iter
    (fun (component, status) ->
      Format.fprintf ppf "@   %-20s %a" component pp_status status)
    report.components;
  Format.fprintf ppf "@]"
