type side =
  | Device
  | Remote

type frame = {
  dest : side;
  due : int;
  payload : bytes;
}

type t = {
  mutable in_flight : frame list;  (* kept sorted by due *)
  mutable rng : int;
  loss_percent : int;
  delay : int;
  corrupt_percent : int;
  duplicate_percent : int;
  reorder_percent : int;
  mutable burst_until : int;  (* frames sent before this slice all drop *)
  mutable sent : int;
  (* [dropped] is never written directly: it is the sum of the
     per-reason counters below, so a drop can never be double-counted
     (or lost) across attribution buckets. *)
  mutable dropped_loss : int;
  mutable dropped_burst : int;
  mutable delivered : int;
  mutable corrupted : int;
  mutable duplicated : int;
  mutable reordered : int;
}

(* Nested rather than a unit of its own, like [Wake_set] below.  The low
   30 bits of [s * a + c] depend only on those of [s], so masking the
   state changes no draw. *)
module Prng = struct
  let step s = ((s * 1664525) + 1013904223) land 0x3FFF_FFFF
  let below s bound = s mod bound

  type t = { mutable state : int }

  let create seed = { state = seed land 0x3FFF_FFFF }

  let next t =
    t.state <- step t.state;
    t.state

  let int t bound =
    if bound <= 0 then invalid_arg "Link.Prng.int: bound must be positive";
    below (next t) bound
end

let check_percent name p =
  if p < 0 || p > 100 then
    invalid_arg (Printf.sprintf "Link.create: %s out of range" name)

let create ?(seed = 0x5EED) ?(loss_percent = 0) ?(delay = 1)
    ?(corrupt_percent = 0) ?(duplicate_percent = 0) ?(reorder_percent = 0) () =
  check_percent "loss_percent" loss_percent;
  check_percent "corrupt_percent" corrupt_percent;
  check_percent "duplicate_percent" duplicate_percent;
  check_percent "reorder_percent" reorder_percent;
  if delay < 0 then invalid_arg "Link.create: negative delay";
  {
    in_flight = [];
    rng = seed;
    loss_percent;
    delay;
    corrupt_percent;
    duplicate_percent;
    reorder_percent;
    burst_until = 0;
    sent = 0;
    dropped_loss = 0;
    dropped_burst = 0;
    delivered = 0;
    corrupted = 0;
    duplicated = 0;
    reordered = 0;
  }

let for_device ~seed ~salt ~faults ~loss_percent i =
  let hostile p = if faults then p else 0 in
  create
    ~seed:(((seed * 7919) + (i * 104729) + salt) land 0x3FFF_FFFF)
    ~loss_percent ~corrupt_percent:(hostile 3) ~duplicate_percent:(hostile 2)
    ~reorder_percent:(hostile 2) ()

let set_burst t ~until = t.burst_until <- max t.burst_until until
let burst_active t ~at = at < t.burst_until

let next_rand t =
  t.rng <- Prng.step t.rng;
  t.rng

let lottery t percent = percent > 0 && Prng.below (next_rand t) 100 < percent
let other = function Device -> Remote | Remote -> Device

let enqueue t frame =
  let earlier, later = List.partition (fun f -> f.due <= frame.due) t.in_flight in
  t.in_flight <- earlier @ (frame :: later)

(* One byte XORed with a non-zero mask — the smallest corruption a
   checksumless codec must still survive decoding. *)
let corrupt_payload t payload =
  let payload = Bytes.copy payload in
  if Bytes.length payload > 0 then begin
    let pos = Prng.below (next_rand t) (Bytes.length payload) in
    let mask = 1 + Prng.below (next_rand t) 255 in
    Bytes.set payload pos
      (Char.chr (Char.code (Bytes.get payload pos) lxor mask))
  end;
  payload

let send t ~from ~at payload =
  t.sent <- t.sent + 1;
  (* The burst window wins over the loss lottery so a burst-dropped
     frame is attributed to exactly one reason — but the lottery still
     draws, keeping the PRNG stream (and so every later frame's fate)
     identical whether or not a burst covered this send. *)
  let lost = lottery t t.loss_percent in
  if burst_active t ~at then t.dropped_burst <- t.dropped_burst + 1
  else if lost then t.dropped_loss <- t.dropped_loss + 1
  else begin
    let payload =
      if lottery t t.corrupt_percent then begin
        t.corrupted <- t.corrupted + 1;
        corrupt_payload t payload
      end
      else payload
    in
    let extra =
      if lottery t t.reorder_percent then begin
        t.reordered <- t.reordered + 1;
        1 + Prng.below (next_rand t) 3
      end
      else 0
    in
    let dest = other from in
    enqueue t { dest; due = at + t.delay + extra; payload };
    if lottery t t.duplicate_percent then begin
      t.duplicated <- t.duplicated + 1;
      enqueue t
        { dest; due = at + t.delay + extra + Prng.below (next_rand t) 2;
          payload = Bytes.copy payload }
    end
  end

let deliver t ~to_ ~at =
  let due, remaining =
    List.partition (fun f -> f.dest = to_ && f.due <= at) t.in_flight
  in
  t.in_flight <- remaining;
  t.delivered <- t.delivered + List.length due;
  List.map (fun f -> f.payload) due

let next_due t = match t.in_flight with f :: _ -> f.due | [] -> max_int

let dropped_total t = t.dropped_loss + t.dropped_burst

let counters t =
  [
    ("sent", t.sent);
    ("dropped", dropped_total t);
    ("dropped_loss", t.dropped_loss);
    ("dropped_burst", t.dropped_burst);
    ("delivered", t.delivered);
    ("corrupted", t.corrupted);
    ("duplicated", t.duplicated);
    ("reordered", t.reordered);
  ]

let reset_counters t =
  t.sent <- 0;
  t.dropped_loss <- 0;
  t.dropped_burst <- 0;
  t.delivered <- 0;
  t.corrupted <- 0;
  t.duplicated <- 0;
  t.reordered <- 0

let sent_count t = t.sent
let dropped_count t = dropped_total t
let dropped_loss_count t = t.dropped_loss
let dropped_burst_count t = t.dropped_burst
let delivered_count t = t.delivered
let corrupted_count t = t.corrupted
let duplicated_count t = t.duplicated
let reordered_count t = t.reordered

(* The wake set lives inside [Link] rather than in a compilation unit of
   its own: on a 2-vCPU Xeon VM, linking one more unit into perfbench
   slowed the unrelated platform-run interpreter workload by 12-18% in
   most code layouts tried, while the same code nested here did not. *)
module Wake_set = struct
  type t = {
    ids : int array;  (* members in [0, len); ascending unless [unsorted] *)
    member : Bytes.t;  (* '\001' at a member's index *)
    mutable len : int;
    mutable unsorted : bool;
  }

  let create ~universe =
    if universe < 0 then invalid_arg "Link.Wake_set.create: negative universe";
    {
      ids = Array.make universe 0;
      member = Bytes.make universe '\000';
      len = 0;
      unsorted = false;
    }

  let mem t i = Bytes.unsafe_get t.member i <> '\000'

  let clear t =
    for k = 0 to t.len - 1 do
      Bytes.unsafe_set t.member t.ids.(k) '\000'
    done;
    t.len <- 0;
    t.unsorted <- false

  let add t i =
    if i < 0 || i >= Bytes.length t.member then invalid_arg "Link.Wake_set.add";
    if not (mem t i) then begin
      Bytes.unsafe_set t.member i '\001';
      if t.len > 0 && t.ids.(t.len - 1) > i then t.unsorted <- true;
      t.ids.(t.len) <- i;
      t.len <- t.len + 1
    end

  (* Out-of-order additions are few and the prefix is already sorted, so
     an in-place insertion sort is both allocation-free and near-linear. *)
  let restore_order t =
    if t.unsorted then begin
      for k = 1 to t.len - 1 do
        let i = t.ids.(k) in
        let j = ref (k - 1) in
        while !j >= 0 && t.ids.(!j) > i do
          t.ids.(!j + 1) <- t.ids.(!j);
          decr j
        done;
        t.ids.(!j + 1) <- i
      done;
      t.unsorted <- false
    end

  let sweep t ~at ~wake ~visit =
    restore_order t;
    let kept = ref 0 in
    let next = ref max_int in
    for k = 0 to t.len - 1 do
      let i = t.ids.(k) in
      if wake i <= at then visit i;
      let w = wake i in
      if w = max_int then Bytes.unsafe_set t.member i '\000'
      else begin
        t.ids.(!kept) <- i;
        incr kept;
        if w < !next then next := w
      end
    done;
    t.len <- !kept;
    !next

  let iter t f =
    restore_order t;
    for k = 0 to t.len - 1 do
      f t.ids.(k)
    done

  let next_slice ~at ~cap ~settled next =
    if settled then at + 1 else max (at + 1) (min next (cap + 1))
end
