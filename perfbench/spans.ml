(* In-memory span recorder for the traced run.

   Spans are recorded only around calls made from this benchmark's own
   files (a tick, an arrival, a campaign, a probe); nothing inside lib/
   is instrumented.  Recording is off by default, so the untraced runs
   pay one branch per call site and no clock reads. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  start_ns : int64;
  stop_ns : int64;
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 1
let current = ref 0

let now_ns () = Monotonic_clock.now ()

let with_span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let start_ns = now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let stop_ns = now_ns () in
        current := parent;
        recorded := { id; parent; name; start_ns; stop_ns } :: !recorded)
      f
  end

let duration_s s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) /. 1e9

(* Durations in seconds of every span with this name. *)
let durations name =
  List.rev !recorded
  |> List.filter (fun s -> s.name = name)
  |> List.map duration_s

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome-trace JSON (loadable in Perfetto / chrome://tracing): one
   complete event per span, parent ids in [args], timestamps relative to
   the first span.  [extra] is appended as further top-level members. *)
let write_chrome_trace path ~extra =
  let spans = List.rev !recorded in
  let t0 =
    List.fold_left (fun m s -> if s.start_ns < m then s.start_ns else m)
      Int64.max_int spans
  in
  let us t = Int64.to_float (Int64.sub t t0) /. 1e3 in
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \
         \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d}}"
        (if i = 0 then "" else ",\n")
        (json_string s.name) (us s.start_ns)
        (us s.stop_ns -. us s.start_ns)
        s.id s.parent)
    spans;
  output_string oc "\n],\n\"displayTimeUnit\": \"ns\"";
  List.iter (fun (k, v) -> Printf.fprintf oc ",\n%s: %s" (json_string k) v) extra;
  output_string oc "}\n";
  close_out oc
