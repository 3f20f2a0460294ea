open Tytan_machine

module Prng = Tytan_netsim.Link.Prng

type kind =
  | Bit_flip of {
      addr : Word.t;
      bit : int;
    }
  | Write_glitch of {
      count : int;
      bit : int;
    }
  | Mmio_glitch of {
      device : string;
      count : int;
    }
  | Irq_storm of {
      irq : int;
      count : int;
    }
  | Task_kill of { name : string }
  | Task_hang of { name : string }
  | Burst_loss of {
      name : string;
      duration : int;
    }
  | Device_stall of {
      name : string;
      duration : int;
    }
  | Late_reply of {
      name : string;
      extra : int;
      duration : int;
    }
  | Frame_truncate of {
      name : string;
      count : int;
    }
  | Counter_reset of { name : string }
  | Canary_crash of { name : string }

type event = {
  at_tick : int;
  kind : kind;
}

type t = {
  seed : int;
  events : event list;
}

let make ~seed events =
  List.iter
    (fun e ->
      if e.at_tick < 0 then invalid_arg "Fault_plan.make: negative tick")
    events;
  {
    seed;
    events = List.stable_sort (fun a b -> compare a.at_tick b.at_tick) events;
  }

let random_bit_flips rng ~count ~base ~size ~first_tick ~last_tick =
  if size <= 0 then invalid_arg "Fault_plan.random_bit_flips: empty region";
  if last_tick < first_tick then
    invalid_arg "Fault_plan.random_bit_flips: empty tick window";
  List.init count (fun _ ->
      let at_tick = first_tick + Prng.int rng (last_tick - first_tick + 1) in
      let addr = base + Prng.int rng size in
      let bit = Prng.int rng 8 in
      { at_tick; kind = Bit_flip { addr; bit } })

let kind_label = function
  | Bit_flip _ -> "bit-flip"
  | Write_glitch _ -> "write-glitch"
  | Mmio_glitch _ -> "mmio-glitch"
  | Irq_storm _ -> "irq-storm"
  | Task_kill _ -> "task-kill"
  | Task_hang _ -> "task-hang"
  | Burst_loss _ -> "burst-loss"
  | Device_stall _ -> "device-stall"
  | Late_reply _ -> "late-reply"
  | Frame_truncate _ -> "frame-truncate"
  | Counter_reset _ -> "counter-reset"
  | Canary_crash _ -> "canary-crash"

let describe = function
  | Bit_flip { addr; bit } ->
      Printf.sprintf "flip bit %d of byte 0x%05x" bit addr
  | Write_glitch { count; bit } ->
      Printf.sprintf "next %d RAM writes land with bit %d flipped" count bit
  | Mmio_glitch { device; count } ->
      Printf.sprintf "next %d MMIO reads of %s return garbage" count device
  | Irq_storm { irq; count } ->
      Printf.sprintf "%d spurious interrupts on line %d" count irq
  | Task_kill { name } -> Printf.sprintf "kill task %s" name
  | Task_hang { name } -> Printf.sprintf "hang task %s" name
  | Burst_loss { name; duration } ->
      Printf.sprintf "drop every frame on %s's link for %d slices" name duration
  | Device_stall { name; duration } ->
      Printf.sprintf "%s ignores all challenges for %d slices" name duration
  | Late_reply { name; extra; duration } ->
      Printf.sprintf "%s replies %d slices late for %d slices" name extra
        duration
  | Frame_truncate { name; count } ->
      Printf.sprintf "next %d frames to %s arrive truncated" count name
  | Counter_reset { name } ->
      Printf.sprintf "attempt to reset %s's monotonic counter" name
  | Canary_crash { name } ->
      Printf.sprintf "%s crashes mid-swap during its next activation" name

let serial_of i = Printf.sprintf "dev-%05d" i

(* [int_of_string] also reads signs, radix prefixes and underscores;
   the round trip through [serial_of] rejects every such spelling. *)
let device_of ~devices name =
  if not (String.starts_with ~prefix:"dev-" name) then None
  else
    match int_of_string_opt (String.sub name 4 (String.length name - 4)) with
    | Some i when 0 <= i && i < devices && String.equal (serial_of i) name ->
        Some i
    | _ -> None

let sha1_hex s =
  Tytan_crypto.Sha1.to_hex (Tytan_crypto.Sha1.digest_string s)

let stamp body = body ^ Printf.sprintf "digest: sha1:%s\n" (sha1_hex body)
