module Crypto = Tytan_crypto
module Export = Tytan_telemetry.Export

(* No tab or newline may survive into a rendered field: the record
   encoding is tab-separated and the chain hashes the encoding, so a
   hostile string must not be able to forge field boundaries. *)
let sanitize s =
  String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s

module Event = struct
  type t =
    | Session_admitted of { serial : string; kind : string }
    | Session_shed of { serial : string; reason : string }
    | Session_settled of { serial : string; verdict : string; latency : int }
    | Frame_sent of { kind : string }
    | Frame_received of { kind : string }
    | Breaker_tripped of { serial : string }
    | Quarantined of { serial : string }
    | Evicted of { serial : string }
    | Epoch_opened of { epoch : int }
    | Epoch_sealed of { epoch : int; root_hex : string; leaves : int }
    | Wave_opened of { wave : int; label : string; version : int }
    | Wave_promoted of { wave : int }
    | Wave_aborted of { wave : int; reason : string }
    | Offer_sent of { serial : string; version : int }
    | Transfer_staged of { serial : string }
    | Swap_applied of { serial : string; counter : int }
    | Update_refused of { serial : string; reason : string }
    | Verdict_settled of { serial : string; verdict : string }
    | Slo_breach of {
        indicator : string;
        window : int;
        value : int;
        threshold : int;
      }
    | Note of { label : string }

  let label = function
    | Session_admitted _ -> "session-admitted"
    | Session_shed _ -> "session-shed"
    | Session_settled _ -> "session-settled"
    | Frame_sent _ -> "frame-sent"
    | Frame_received _ -> "frame-received"
    | Breaker_tripped _ -> "breaker-tripped"
    | Quarantined _ -> "quarantined"
    | Evicted _ -> "evicted"
    | Epoch_opened _ -> "epoch-opened"
    | Epoch_sealed _ -> "epoch-sealed"
    | Wave_opened _ -> "wave-opened"
    | Wave_promoted _ -> "wave-promoted"
    | Wave_aborted _ -> "wave-aborted"
    | Offer_sent _ -> "offer-sent"
    | Transfer_staged _ -> "transfer-staged"
    | Swap_applied _ -> "swap-applied"
    | Update_refused _ -> "update-refused"
    | Verdict_settled _ -> "verdict-settled"
    | Slo_breach _ -> "slo-breach"
    | Note _ -> "note"

  let render e =
    sanitize
      (match e with
      | Session_admitted { serial; kind } ->
          Printf.sprintf "serial=%s kind=%s" serial kind
      | Session_shed { serial; reason } ->
          Printf.sprintf "serial=%s reason=%s" serial reason
      | Session_settled { serial; verdict; latency } ->
          Printf.sprintf "serial=%s verdict=%s latency=%d" serial verdict
            latency
      | Frame_sent { kind } -> Printf.sprintf "kind=%s" kind
      | Frame_received { kind } -> Printf.sprintf "kind=%s" kind
      | Breaker_tripped { serial } -> Printf.sprintf "serial=%s" serial
      | Quarantined { serial } -> Printf.sprintf "serial=%s" serial
      | Evicted { serial } -> Printf.sprintf "serial=%s" serial
      | Epoch_opened { epoch } -> Printf.sprintf "epoch=%d" epoch
      | Epoch_sealed { epoch; root_hex; leaves } ->
          Printf.sprintf "epoch=%d root=%s leaves=%d" epoch root_hex leaves
      | Wave_opened { wave; label; version } ->
          Printf.sprintf "wave=%d label=%s version=%d" wave label version
      | Wave_promoted { wave } -> Printf.sprintf "wave=%d" wave
      | Wave_aborted { wave; reason } ->
          Printf.sprintf "wave=%d reason=%s" wave reason
      | Offer_sent { serial; version } ->
          Printf.sprintf "serial=%s version=%d" serial version
      | Transfer_staged { serial } -> Printf.sprintf "serial=%s" serial
      | Swap_applied { serial; counter } ->
          Printf.sprintf "serial=%s counter=%d" serial counter
      | Update_refused { serial; reason } ->
          Printf.sprintf "serial=%s reason=%s" serial reason
      | Verdict_settled { serial; verdict } ->
          Printf.sprintf "serial=%s verdict=%s" serial verdict
      | Slo_breach { indicator; window; value; threshold } ->
          Printf.sprintf "indicator=%s window=%d value=%d threshold=%d"
            indicator window value threshold
      | Note { label } -> Printf.sprintf "label=%s" label)

  let serial_of = function
    | Session_admitted { serial; _ }
    | Session_shed { serial; _ }
    | Session_settled { serial; _ }
    | Breaker_tripped { serial }
    | Quarantined { serial }
    | Evicted { serial }
    | Offer_sent { serial; _ }
    | Transfer_staged { serial }
    | Swap_applied { serial; _ }
    | Update_refused { serial; _ }
    | Verdict_settled { serial; _ } ->
        Some serial
    | Frame_sent _ | Frame_received _ | Epoch_opened _ | Epoch_sealed _
    | Wave_opened _ | Wave_promoted _ | Wave_aborted _ | Slo_breach _ | Note _
      ->
        None
end

type record = {
  seq : int;
  at : int;
  corr : string;
  parent : string option;
  event : Event.t;
}

(* The canonical record encoding — what the chain hashes and what
   [export] frames.  Tab-separated; every string field is sanitized, so
   the six fields are unambiguous. *)
let encode_record (r : record) =
  Printf.sprintf "%d\t%d\t%s\t%s\t%s\t%s" r.seq r.at (sanitize r.corr)
    (match r.parent with None -> "-" | Some p -> sanitize p)
    (Event.label r.event) (Event.render r.event)

let genesis = Crypto.Sha256.digest_string "tytan-obs-genesis"

let chain_step head line =
  let ctx = Crypto.Sha256.init () in
  Crypto.Sha256.feed ctx head;
  Crypto.Sha256.feed ctx (Bytes.of_string line);
  Crypto.Sha256.finalize ctx

module Log = struct
  type t = {
    mutable rev_records : record list;
    mutable count : int;
    mutable head : bytes;
    parents : (string, string option) Hashtbl.t;
    mutable rev_minted : string list;
  }

  let create () =
    {
      rev_records = [];
      count = 0;
      head = genesis;
      parents = Hashtbl.create 64;
      rev_minted = [];
    }

  let mint t ?parent corr =
    if not (Hashtbl.mem t.parents corr) then begin
      Hashtbl.replace t.parents corr parent;
      t.rev_minted <- corr :: t.rev_minted
    end;
    corr

  let parent_of t corr =
    match Hashtbl.find_opt t.parents corr with
    | Some p -> p
    | None -> None

  let record t ~corr ~at event =
    ignore (mint t corr);
    let r =
      { seq = t.count; at; corr; parent = parent_of t corr; event }
    in
    t.rev_records <- r :: t.rev_records;
    t.count <- t.count + 1;
    t.head <- chain_step t.head (encode_record r)

  let length t = t.count
  let records t = List.rev t.rev_records
  let head_hex t = Crypto.Sha256.to_hex t.head

  let corr_ids t =
    List.rev_map (fun c -> (c, parent_of t c)) t.rev_minted

  (* ---- binary trail --------------------------------------------------- *)

  let magic = "TYOB2"

  let put_u32 buf n =
    Buffer.add_char buf (Char.chr ((n lsr 24) land 0xFF));
    Buffer.add_char buf (Char.chr ((n lsr 16) land 0xFF));
    Buffer.add_char buf (Char.chr ((n lsr 8) land 0xFF));
    Buffer.add_char buf (Char.chr (n land 0xFF))

  (* Magic, record count, length-prefixed record encodings, chain head. *)
  let frame lines head =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf magic;
    put_u32 buf (List.length lines);
    List.iter
      (fun line ->
        put_u32 buf (String.length line);
        Buffer.add_string buf line)
      lines;
    Buffer.add_bytes buf head;
    Buffer.to_bytes buf

  let export t = frame (List.rev_map encode_record t.rev_records) t.head

  type chain_summary = { total : int; head : string }

  (* Defensive structural decode into the record encodings, in log
     order, and the stored head: cursor with explicit bounds checks,
     result-typed — feeding [verify_chain] arbitrary bytes must end in
     [Error], never an exception. *)
  let decode blob =
    let len = Bytes.length blob in
    let pos = ref 0 in
    let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
    let take n label =
      if n < 0 || !pos + n > len then
        Error (Printf.sprintf "truncated: %s at byte %d" label !pos)
      else begin
        let s = Bytes.sub_string blob !pos n in
        pos := !pos + n;
        Ok s
      end
    in
    let u32 label =
      let* s = take 4 label in
      Ok
        ((Char.code s.[0] lsl 24)
        lor (Char.code s.[1] lsl 16)
        lor (Char.code s.[2] lsl 8)
        lor Char.code s.[3])
    in
    let* m = take (String.length magic) "magic" in
    if m <> magic then Error "bad magic: not an obs trail"
    else
      let* count = u32 "record count" in
      if count > len then Error "record count exceeds trail size"
      else
        let rec read_records i acc =
          if i = count then Ok (List.rev acc)
          else
            let* n = u32 (Printf.sprintf "record %d length" i) in
            let* line = take n (Printf.sprintf "record %d" i) in
            read_records (i + 1) (line :: acc)
        in
        let* lines = read_records 0 [] in
        let* head = take 32 "chain head" in
        if !pos <> len then Error "trailing garbage after chain head"
        else Ok (lines, Bytes.of_string head)

  let verify_chain ?expected_head blob =
    match decode blob with
    | Error e -> Error e
    | Ok (lines, stored_head) -> (
        (* Sequence numbers must be dense from zero: a spliced-out
           record shows up here even before the chain disagrees. *)
        let seq_ok =
          List.for_all2
            (fun i line ->
              match String.index_opt line '\t' with
              | None -> false
              | Some t -> (
                  match int_of_string_opt (String.sub line 0 t) with
                  | Some seq -> seq = i
                  | None -> false))
            (List.init (List.length lines) Fun.id)
            lines
        in
        if not seq_ok then Error "sequence numbering broken (splice?)"
        else
          let head = List.fold_left chain_step genesis lines in
          if not (Bytes.equal head stored_head) then
            Error "chain head mismatch: a record was altered or reordered"
          else
            let head_hex = Crypto.Sha256.to_hex head in
            match expected_head with
            | Some h when h <> head_hex ->
                Error "chain head does not match the pinned head"
            | _ -> Ok { total = List.length lines; head = head_hex })

  type tamper =
    | Truncate
    | Splice
    | Bit_flip of int

  let tamper kind blob =
    let lines, head =
      match decode blob with
      | Ok d -> d
      | Error e -> invalid_arg ("Obs.Log.tamper: " ^ e)
    in
    let n = List.length lines in
    match kind with
    | Truncate ->
        if n < 1 then invalid_arg "Obs.Log.tamper: nothing to truncate";
        frame (List.filteri (fun i _ -> i < n - 1) lines) head
    | Splice ->
        if n < 2 then invalid_arg "Obs.Log.tamper: too short to splice";
        let i = n / 2 in
        let arr = Array.of_list lines in
        let tmp = arr.(i - 1) in
        arr.(i - 1) <- arr.(i);
        arr.(i) <- tmp;
        frame (Array.to_list arr) head
    | Bit_flip i ->
        if n < 1 then invalid_arg "Obs.Log.tamper: no records to flip";
        (* Flip a bit of some record's payload, never of its length
           prefix, so the blob still parses: the chain, not the parser,
           must catch it. *)
        let bits =
          8 * List.fold_left (fun a l -> a + String.length l) 0 lines
        in
        let bit = ((i mod bits) + bits) mod bits in
        let rec flip off = function
          | [] -> []
          | line :: rest when off >= String.length line ->
              line :: flip (off - String.length line) rest
          | line :: rest ->
              let b = Bytes.of_string line in
              Bytes.set_uint8 b off
                (Bytes.get_uint8 b off lxor (1 lsl (bit mod 8)));
              Bytes.to_string b :: rest
        in
        frame (flip (bit / 8) lines) head
end

module Slo = struct
  let window = 64
  let shed_permille_max = 500
  let p99_settle_max = 64
  let quarantine_max = 2
  let abort_permille_max = 350

  type indicator = {
    name : string;
    window_start : int;
    value : int;
    threshold : int;
    breached : bool;
  }

  type bucket = {
    mutable arrivals : int;
    mutable sheds : int;
    mutable latencies : int list;
    mutable quarantines : int;
  }

  let percentile sorted p =
    let n = Array.length sorted in
    if n = 0 then 0 else sorted.(max 0 (((p * n) + 99) / 100 - 1))

  let evaluate log =
    let buckets : (int, bucket) Hashtbl.t = Hashtbl.create 16 in
    let bucket at =
      let w = at / window in
      match Hashtbl.find_opt buckets w with
      | Some b -> b
      | None ->
          let b =
            { arrivals = 0; sheds = 0; latencies = []; quarantines = 0 }
          in
          Hashtbl.replace buckets w b;
          b
    in
    let promoted = ref 0 and aborted = ref 0 in
    List.iter
      (fun (r : record) ->
        match r.event with
        | Event.Session_admitted _ ->
            let b = bucket r.at in
            b.arrivals <- b.arrivals + 1
        | Event.Session_shed _ ->
            let b = bucket r.at in
            b.arrivals <- b.arrivals + 1;
            b.sheds <- b.sheds + 1
        | Event.Session_settled { latency; _ } ->
            let b = bucket r.at in
            b.latencies <- latency :: b.latencies
        | Event.Quarantined _ ->
            let b = bucket r.at in
            b.quarantines <- b.quarantines + 1
        | Event.Wave_promoted _ -> incr promoted
        | Event.Wave_aborted _ -> incr aborted
        | _ -> ())
      (Log.records log);
    let windows =
      Hashtbl.fold (fun w _ acc -> w :: acc) buckets [] |> List.sort compare
    in
    let per_window =
      List.concat_map
        (fun w ->
          let b = Hashtbl.find buckets w in
          let start = w * window in
          let shed_permille =
            if b.arrivals = 0 then 0 else b.sheds * 1000 / b.arrivals
          in
          let sorted = Array.of_list b.latencies in
          Array.sort compare sorted;
          let p99 = percentile sorted 99 in
          [
            {
              name = "p99-settle";
              window_start = start;
              value = p99;
              threshold = p99_settle_max;
              breached = p99 > p99_settle_max;
            };
            {
              name = "quarantines";
              window_start = start;
              value = b.quarantines;
              threshold = quarantine_max;
              breached = b.quarantines > quarantine_max;
            };
            {
              name = "shed-rate";
              window_start = start;
              value = shed_permille;
              threshold = shed_permille_max;
              breached = shed_permille > shed_permille_max;
            };
          ])
        windows
    in
    let run_level =
      let offered = !promoted + !aborted in
      if offered = 0 then []
      else
        let permille = !aborted * 1000 / offered in
        [
          {
            name = "ota-abort-rate";
            window_start = 0;
            value = permille;
            threshold = abort_permille_max;
            breached = permille > abort_permille_max;
          };
        ]
    in
    per_window @ run_level

  let scan log =
    let indicators = evaluate log in
    let last_at =
      List.fold_left (fun a (r : record) -> max a r.at) 0 (Log.records log)
    in
    List.iter
      (fun i ->
        if i.breached then
          Log.record log ~corr:"slo"
            ~at:(max last_at (i.window_start + window - 1))
            (Event.Slo_breach
               {
                 indicator = i.name;
                 window = i.window_start;
                 value = i.value;
                 threshold = i.threshold;
               }))
      indicators;
    indicators
end

module Trail = struct
  let ancestors log ~corr =
    (* Walk up the parent chain; a registry cycle cannot happen (mint
       is first-wins) but cap the walk anyway. *)
    let rec up acc c n =
      if n > 1000 then acc
      else
        match Log.parent_of log c with
        | Some p -> up (p :: acc) p (n + 1)
        | None -> acc
    in
    up [] corr 0

  let members log ~corr =
    let is_descendant c =
      let rec up c n =
        if n > 1000 then false
        else
          match Log.parent_of log c with
          | Some p -> p = corr || up p (n + 1)
          | None -> false
      in
      c <> corr && up c 0
    in
    let descendants =
      List.filter_map
        (fun (c, _) -> if is_descendant c then Some c else None)
        (Log.corr_ids log)
    in
    ancestors log ~corr @ [ corr ] @ descendants

  let trace log ~corr =
    let family = members log ~corr in
    List.filter (fun (r : record) -> List.mem r.corr family) (Log.records log)

  let record_json (r : record) =
    Printf.sprintf
      "{\"seq\":%d,\"at\":%d,\"corr\":%s,\"parent\":%s,\"event\":%s,\"detail\":%s}"
      r.seq r.at
      (Export.json_string r.corr)
      (match r.parent with
      | None -> "null"
      | Some p -> Export.json_string p)
      (Export.json_string (Event.label r.event))
      (Export.json_string (Event.render r.event))
end

let first_at log =
  let table = Hashtbl.create 64 in
  List.iter
    (fun (r : record) ->
      if not (Hashtbl.mem table r.corr) then Hashtbl.replace table r.corr r.at)
    (Log.records log);
  table

let flows_of_log log =
  let firsts = first_at log in
  let id = ref 0 in
  List.filter_map
    (fun (corr, parent) ->
      match parent with
      | None -> None
      | Some p -> (
          match (Hashtbl.find_opt firsts p, Hashtbl.find_opt firsts corr) with
          | Some src_ts, Some dst_ts ->
              incr id;
              Some
                {
                  Export.flow_id = !id;
                  flow_name = corr;
                  src_ts;
                  dst_ts;
                }
          | _ -> None))
    (Log.corr_ids log)

let marks_of_log log =
  List.map
    (fun (r : record) ->
      {
        Export.mark_ts = r.at;
        mark_name = Event.label r.event ^ ": " ^ r.corr;
        mark_cat = "obs";
      })
    (Log.records log)

let to_json ?(slo = []) log =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"records\": %d,\n" (Log.length log));
  Buffer.add_string buf
    (Printf.sprintf "  \"head\": %s,\n" (Export.json_string (Log.head_hex log)));
  Buffer.add_string buf "  \"corr_ids\": [\n";
  let ids = Log.corr_ids log in
  let n = List.length ids in
  List.iteri
    (fun i (c, p) ->
      Buffer.add_string buf
        (Printf.sprintf "    {\"id\": %s, \"parent\": %s}%s\n"
           (Export.json_string c)
           (match p with None -> "null" | Some p -> Export.json_string p)
           (if i < n - 1 then "," else "")))
    ids;
  Buffer.add_string buf "  ],\n  \"events\": [\n";
  let rs = Log.records log in
  let n = List.length rs in
  List.iteri
    (fun i r ->
      Buffer.add_string buf ("    " ^ Trail.record_json r);
      if i < n - 1 then Buffer.add_string buf ",";
      Buffer.add_string buf "\n")
    rs;
  Buffer.add_string buf "  ],\n  \"slo\": [\n";
  let n = List.length slo in
  List.iteri
    (fun i (ind : Slo.indicator) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": %s, \"window\": %d, \"value\": %d, \"threshold\": \
            %d, \"breached\": %b}%s\n"
           (Export.json_string ind.name)
           ind.window_start ind.value ind.threshold ind.breached
           (if i < n - 1 then "," else "")))
    slo;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf
