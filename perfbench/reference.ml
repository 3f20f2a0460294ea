(* Host-speed reference.

   A shared host changes speed by tens of percent within minutes
   (neighbouring load on the same cores), which is more than any
   regression worth catching.  So every timed repetition is bracketed by
   a fixed piece of host work that no change to the repository can
   touch — stdlib only: integer mixing, small allocations and hash-table
   traffic — and its timings are rescaled to the host speed at which
   that work takes [nominal_s].  The interference is one-sided (it only
   ever slows a run down), which is why the end-to-end timings report
   the first quartile of the rescaled repetitions. *)

let work () =
  let table = Hashtbl.create 4096 in
  let acc = ref 0 in
  for i = 1 to 400_000 do
    let key = i * 7919 land 0x3FFF in
    (match Hashtbl.find_opt table key with
    | Some b -> acc := !acc + Char.code (Bytes.get b 3)
    | None -> Hashtbl.replace table key (Bytes.make 24 (Char.chr (i land 0xFF))));
    acc := (!acc lsl 5) lxor (!acc lsr 3) lxor i
  done;
  !acc

(* [work]'s time on the 2-vCPU Intel Xeon (2.0 GHz) VM the bounds were
   fixed on, when that host was quiet. *)
let nominal_s = 0.022

let seconds_since t0 = Int64.to_float (Int64.sub (Spans.now_ns ()) t0) /. 1e9

(* The faster of two runs of [work]. *)
let seconds () =
  let once () =
    let t0 = Spans.now_ns () in
    ignore (Sys.opaque_identity (work ()));
    seconds_since t0
  in
  let a = once () in
  Float.min a (once ())

(* Run [f] between two reference measurements; return its result and
   the factor that rescales its timings to nominal host speed. *)
let bracket f =
  let before = seconds () in
  let r = f () in
  let after = seconds () in
  (r, nominal_s /. ((before +. after) /. 2.0))
