open Tytan_core
open Tytan_netsim
module Crypto = Tytan_crypto
module Cycles = Tytan_machine.Cycles
module Fault_plan = Tytan_fault.Fault_plan
module Registry = Tytan_provision.Registry
module Fleet = Tytan_provision.Fleet
module Obs = Tytan_obs.Obs

type config = {
  max_pending : int;
  bucket_capacity : int;
  bucket_refill_slices : int;
  store_capacity : int;
}

let default_config =
  {
    max_pending = 64;
    bucket_capacity = 4;
    bucket_refill_slices = 16;
    store_capacity = 512;
  }

(* The service's fixed regime: concurrent sessions, the per-session
   deadline and retransmit schedule, the circuit breaker, the nonce
   epoch, and the nominal cycles per slice behind the latency rows. *)
let max_inflight = 128
let deadline_slices = 96
let max_attempts = 6
let backoff = Verifier.default_backoff
let breaker_threshold = 3
let quarantine_slices = 256
let epoch_slices = 64
let slice_cycles = 32_000

type refusal =
  | Busy
  | Rate_limited
  | Quarantined

let refusal_label = function
  | Busy -> "busy"
  | Rate_limited -> "rate-limited"
  | Quarantined -> "quarantined"

type admission =
  | Admitted
  | Shed of refusal

type session_kind =
  | Static
  | Batched
  | Cfa

(* What the settle sweep records; Gave_up and a crossed deadline both
   land in [Timed_out] — from the service's point of view the session
   consumed its budget without an answer either way. *)
type verdict =
  | V_attested
  | V_refused
  | V_timed_out
  | V_cfa_rejected

type fault =
  | Burst_loss of { duration : int }
  | Device_stall of { duration : int }
  | Late_reply of {
      extra : int;
      duration : int;
    }

(* Same lightweight prover as [Swarm]: the protocol can only observe a
   device's uplink, key and loaded identity, so that is all we model —
   plus the stall/late windows the gateway's faults drive. *)
type prover = {
  serial : string;
  link : Link.t;
  ka : bytes;
  id : Task_id.t;
  mutable stall_until : int;
  mutable late_until : int;
  mutable late_extra : int;
}

(* Gateway-side per-device state, LRU-bounded: the cached Ka, the token
   bucket and the circuit breaker.  Evicting an entry forgets all three
   — re-admission re-derives the key (and re-charges it).  [older] and
   [newer] thread the entries on a ring closed by [t.lru], a sentinel:
   following [newer] from it visits every stored entry once, in
   ascending [(last_used, serial)]. *)
type dev_state = {
  serial : string;
  mutable ka : bytes;
  mutable tokens : int;
  mutable refill_at : int;
  mutable streak : int;
  mutable quarantined_until : int;
  mutable last_used : int;
  mutable older : dev_state;
  mutable newer : dev_state;
}

type session = {
  s_serial : string;
  s_device : int;
  s_kind : session_kind;
  s_corr : string;  (* correlation id in the flight recorder *)
  verifier : Verifier.t;
  admitted_at : int;
  mutable started_at : int;  (* -1 while still queued *)
}

(* The closed-loop request calendar: a binary min-heap of
   [due * stride + device] keys, so the root is the earliest request and
   equal dues pop in device order.  A device is scheduled only while it
   has no request outstanding, so it holds at most one entry and
   [stride] (= the fleet size) slots always suffice. *)
type calendar = {
  keys : int array;
  mutable size : int;
  stride : int;
  think : int;  (* slices a client waits after a verdict before asking again *)
  ready : Link.Wake_set.t;  (* reused per slice: the due devices, ascending *)
}

type t = {
  cfg : config;
  seed : int;
  faults : bool;
  loss_percent : int;
  registry : Registry.t;
  fw_id : Task_id.t;
  genesis : bytes;  (* empty CFA log head for fw_id *)
  provers : prover array;
  wired : Link.Wake_set.t;  (* devices with frames in flight on their link *)
  store : (string, dev_state) Hashtbl.t;  (* serial -> its entry on [lru] *)
  lru : dev_state;  (* the store ring's sentinel: [newer] is the oldest *)
  by_seq : (string * int, session) Hashtbl.t;  (* live-session demux *)
  clock : Cycles.t;  (* verifier side *)
  device_clock : Cycles.t;
  aggregator : Aggregator.t;
  obs : Obs.Log.t option;
  mutable obs_epoch : int;  (* last epoch an Epoch_opened was recorded for *)
  arrival_prng : Fault_plan.Prng.t;
  pending_q : session Queue.t;
  mutable inflight : session list;
  mutable inflight_n : int;
  mutable now : int;
  mutable fault_queue : (int * int * fault) list;  (* by slice *)
  mutable fault_counts : (string * int) list;
  mutable arrivals : int;
  mutable admitted : int;
  mutable attested : int;
  mutable refused : int;
  mutable timed_out : int;
  mutable cfa_rejected : int;
  mutable shed_busy : int;
  mutable shed_rate_limited : int;
  mutable shed_quarantined : int;
  mutable max_queue_depth : int;
  mutable quarantine_trips : int;
  mutable quarantined_serials : string list;
  mutable evictions : int;
  mutable key_derivations : int;
  mutable malformed : int;
  mutable stale : int;
  mutable unknown : int;
  mutable latencies : int list;  (* settled sessions, newest first *)
  mutable closed : calendar option;
      (* closed-loop mode only.  A device with a session in flight is
         off the calendar until {!settle} reschedules it. *)
}

(* The gateway-layer chaos schedule, as [(slice, device, fault)]
   triples sorted by slice (stable): correlated outages, wedged devices
   and deadline-crossing replies, seeded like every campaign schedule so
   the whole campaign stays a pure function of its tuple. *)
let network_faults ~seed ~devices ~horizon =
  let prng = Fault_plan.Prng.create (seed lxor 0x6A7E) in
  let span = max 1 (horizon * 3 / 4) in
  List.init (max 2 (devices / 4)) (fun _ ->
      let at = Fault_plan.Prng.int prng span in
      let device = Fault_plan.Prng.int prng devices in
      let fault =
        match Fault_plan.Prng.int prng 3 with
        | 0 -> Burst_loss { duration = 6 + Fault_plan.Prng.int prng 20 }
        | 1 -> Device_stall { duration = 8 + Fault_plan.Prng.int prng 24 }
        | _ ->
            (* One record expression: its fields are evaluated right to
               left in declaration order, so [duration] draws first. *)
            Late_reply
              {
                extra = 4 + Fault_plan.Prng.int prng 10;
                duration = 8 + Fault_plan.Prng.int prng 16;
              }
      in
      (at, device, fault))
  |> List.stable_sort (fun (a, _, _) (b, _, _) -> Int.compare a b)

let create ?(config = default_config) ?(faults = false) ?(fault_horizon = 256)
    ?(loss_percent = 10) ?obs ~devices ~seed () =
  if devices <= 0 then invalid_arg "Gateway.create: devices must be positive";
  List.iter
    (fun (field, v) ->
      if v < 1 then invalid_arg ("Gateway.create: " ^ field ^ " must be positive"))
    [
      ("store_capacity", config.store_capacity);
      ("bucket_refill_slices", config.bucket_refill_slices);
    ];
  let registry = Registry.of_seed ~name:"serve" seed in
  let image = Fleet.reference_image ~seed ~size:512 in
  let fw_id = Task_id.of_image image in
  let clock = Cycles.create () in
  let device_clock = Cycles.create () in
  let genesis =
    Cost_model.charge_hashing device_clock (fun () ->
        Attestation.cf_genesis ~id:fw_id)
  in
  let provers =
    Array.init devices (fun i ->
        let serial = Fault_plan.serial_of i in
        let link = Link.for_device ~seed ~salt:31 ~faults ~loss_percent i in
        let platform_key = Registry.platform_key registry ~serial in
        let ka =
          Cost_model.charge_hashing device_clock (fun () ->
              Attestation.derive_ka ~platform_key)
        in
        {
          serial;
          link;
          ka;
          id = fw_id;
          stall_until = 0;
          late_until = 0;
          late_extra = 0;
        })
  in
  let aggregator =
    Aggregator.create
      ~ka_of:(fun ~serial -> Registry.attestation_key registry ~serial)
      ~clock ()
  in
  (* Epoch-seal events ride the aggregator's observer hook: the sealed
     batch lands under the corr id of the epoch that collected it. *)
  (match obs with
  | Some log ->
      Aggregator.on_seal aggregator (fun ~epoch ~root ~leaves ->
          Obs.Log.record log
            ~corr:(Printf.sprintf "serve/epoch-%d" epoch)
            ~at:(epoch * epoch_slices)
            (Obs.Event.Epoch_sealed
               { epoch; root_hex = Crypto.Sha256.to_hex root; leaves }))
  | None -> ());
  {
    cfg = config;
    seed;
    faults;
    loss_percent;
    registry;
    fw_id;
    genesis;
    provers;
    wired = Link.Wake_set.create ~universe:devices;
    store = Hashtbl.create (config.store_capacity * 2);
    lru =
      (let rec sentinel =
         {
           serial = "";
           ka = Bytes.empty;
           tokens = 0;
           refill_at = 0;
           streak = 0;
           quarantined_until = 0;
           last_used = min_int;
           older = sentinel;
           newer = sentinel;
         }
       in
       sentinel);
    by_seq = Hashtbl.create 1024;
    clock;
    device_clock;
    aggregator;
    obs;
    obs_epoch = -1;
    arrival_prng = Fault_plan.Prng.create (seed lxor 0xA2211);
    pending_q = Queue.create ();
    inflight = [];
    inflight_n = 0;
    now = 0;
    fault_queue =
      (if faults then network_faults ~seed ~devices ~horizon:fault_horizon
       else []);
    fault_counts = [];
    arrivals = 0;
    admitted = 0;
    attested = 0;
    refused = 0;
    timed_out = 0;
    cfa_rejected = 0;
    shed_busy = 0;
    shed_rate_limited = 0;
    shed_quarantined = 0;
    max_queue_depth = 0;
    quarantine_trips = 0;
    quarantined_serials = [];
    evictions = 0;
    key_derivations = 0;
    malformed = 0;
    stale = 0;
    unknown = 0;
    latencies = [];
    closed = None;
  }

(* ---- closed-loop calendar --------------------------------------------- *)

let schedule c ~due d =
  let key = (due * c.stride) + d in
  let i = ref c.size in
  c.size <- c.size + 1;
  while !i > 0 && c.keys.((!i - 1) / 2) > key do
    c.keys.(!i) <- c.keys.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  c.keys.(!i) <- key

let next_due_device c =
  let top = c.keys.(0) in
  c.size <- c.size - 1;
  let last = c.keys.(c.size) in
  let i = ref 0 in
  let sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    let m = if l + 1 < c.size && c.keys.(l + 1) < c.keys.(l) then l + 1 else l in
    if m < c.size && c.keys.(m) < last then begin
      c.keys.(!i) <- c.keys.(m);
      i := m
    end
    else sifting := false
  done;
  c.keys.(!i) <- last;
  top mod c.stride

(* Every device whose request is due by [now], in ascending device
   order — what a scan of the whole population would find, at the cost
   of the requests actually due. *)
let due_requests c ~now f =
  while c.size > 0 && c.keys.(0) / c.stride <= now do
    Link.Wake_set.add c.ready (next_due_device c)
  done;
  Link.Wake_set.iter c.ready f;
  Link.Wake_set.clear c.ready

(* ---- flight recorder -------------------------------------------------- *)

let kind_label = function
  | Static -> "static"
  | Batched -> "batched"
  | Cfa -> "cfa"

let verdict_label = function
  | V_attested -> "attested"
  | V_refused -> "refused"
  | V_timed_out -> "timed-out"
  | V_cfa_rejected -> "cfa-rejected"

let frame_kind = function
  | Protocol.Challenge _ -> "challenge"
  | Protocol.Response _ -> "response"
  | Protocol.Refusal _ -> "refusal"
  | Protocol.CfaChallenge _ -> "cfa-challenge"
  | Protocol.CfaResponse _ -> "cfa-response"
  | Protocol.UpdateOffer _ -> "update-offer"
  | Protocol.UpdateChunk _ -> "update-chunk"
  | Protocol.UpdateAck _ -> "update-ack"

let observe t ~corr event =
  match t.obs with
  | None -> ()
  | Some log -> Obs.Log.record log ~corr ~at:t.now event

(* The epoch correlation id is minted lazily on first use — arrivals in
   a slice precede the service step, so the first event of an epoch can
   be an admission. *)
let epoch_corr t =
  let e = t.now / epoch_slices in
  let corr = Printf.sprintf "serve/epoch-%d" e in
  (match t.obs with
  | Some log when t.obs_epoch <> e ->
      t.obs_epoch <- e;
      ignore (Obs.Log.mint log corr);
      Obs.Log.record log ~corr ~at:t.now (Obs.Event.Epoch_opened { epoch = e })
  | _ -> ());
  corr

let pending_depth t = Queue.length t.pending_q
let inflight_count t = t.inflight_n
let malformed_frames t = t.malformed
let stale_frames t = t.stale
let unknown_frames t = t.unknown

let bump t label =
  t.fault_counts <-
    (match List.assoc_opt label t.fault_counts with
    | Some n -> (label, n + 1) :: List.remove_assoc label t.fault_counts
    | None -> (label, 1) :: t.fault_counts)

let apply_due_faults t =
  let at = t.now in
  let rec go () =
    match t.fault_queue with
    | (slice, device, fault) :: rest when slice <= at ->
        t.fault_queue <- rest;
        let p = t.provers.(device) in
        (match fault with
        | Burst_loss { duration } ->
            Link.set_burst p.link ~until:(at + duration);
            bump t "burst-loss"
        | Device_stall { duration } ->
            p.stall_until <- max p.stall_until (at + duration);
            bump t "device-stall"
        | Late_reply { extra; duration } ->
            p.late_until <- max p.late_until (at + duration);
            p.late_extra <- extra;
            bump t "late-reply");
        go ()
    | _ -> ()
  in
  go ()

(* ---- device-state store (LRU, bounded) -------------------------------- *)

(* Deterministic LRU: the oldest [last_used] goes first, and among equal
   stamps the smallest serial, compared as a string — never as a device
   index, whose order [dev-%05d] keeps only below 100000.  The ring holds
   the entries in that order, so the victim is the sentinel's [newer].
   Only the three writes below move an entry or its stamp. *)

let unlink st =
  st.older.newer <- st.newer;
  st.newer.older <- st.older

(* Link [st], just stamped [t.now], at its place in the order.  Every
   other entry was stamped no later, so the place is at the newest end,
   behind only this slice's entries with a greater serial. *)
let link_newest t st =
  let p = ref t.lru.older in
  while
    !p != t.lru
    && !p.last_used = st.last_used
    && String.compare !p.serial st.serial > 0
  do
    p := !p.older
  done;
  let p = !p in
  st.older <- p;
  st.newer <- p.newer;
  p.newer.older <- st;
  p.newer <- st

(* Called only on a full store, so the ring holds at least one entry. *)
let evict_lru t =
  let victim = t.lru.newer in
  unlink victim;
  Hashtbl.remove t.store victim.serial;
  t.evictions <- t.evictions + 1;
  if t.obs <> None then
    observe t ~corr:(epoch_corr t) (Obs.Event.Evicted { serial = victim.serial })

let lookup_store t ~serial =
  match Hashtbl.find_opt t.store serial with
  | Some st -> st
  | None ->
      if Hashtbl.length t.store >= t.cfg.store_capacity then evict_lru t;
      let ka =
        Cost_model.charge_hashing t.clock (fun () ->
            Registry.attestation_key t.registry ~serial)
      in
      t.key_derivations <- t.key_derivations + 1;
      let st =
        {
          serial;
          ka;
          tokens = t.cfg.bucket_capacity;
          refill_at = t.now;
          streak = 0;
          quarantined_until = 0;
          last_used = t.now;
          older = t.lru;
          newer = t.lru;
        }
      in
      link_newest t st;
      Hashtbl.replace t.store serial st;
      st

(* A device's arrival stamps its entry; one already stamped this slice
   keeps its place. *)
let touch t st =
  if st.last_used <> t.now then begin
    unlink st;
    st.last_used <- t.now;
    link_newest t st
  end

let refill t (st : dev_state) =
  let elapsed = t.now - st.refill_at in
  if elapsed >= t.cfg.bucket_refill_slices then begin
    let n = elapsed / t.cfg.bucket_refill_slices in
    st.tokens <- min t.cfg.bucket_capacity (st.tokens + n);
    st.refill_at <- st.refill_at + (n * t.cfg.bucket_refill_slices)
  end

(* ---- sessions --------------------------------------------------------- *)

let make_verifier t (st : dev_state) ~serial ~kind ~label =
  match kind with
  | Static ->
      Verifier.create ~ka:st.ka ~expected:t.fw_id ~backoff ~max_attempts
        ~refusals_to_settle:2 ~session:label ()
  | Batched ->
      (* Verification delegated to the aggregator's measurement cache;
         the session's own key is unused. *)
      Verifier.create ~ka:Bytes.empty ~expected:t.fw_id ~backoff ~max_attempts
        ~refusals_to_settle:2
        ~check:(fun ~nonce report ->
          Aggregator.check_report t.aggregator ~serial ~expected:t.fw_id ~nonce
            report)
        ~session:label ()
  | Cfa ->
      Verifier.create ~ka:st.ka ~expected:t.fw_id ~backoff ~max_attempts
        ~refusals_to_settle:2
        ~cfa:(Verifier.quiescent ~genesis:t.genesis)
        ~session:label ()

let draw_kind t =
  match Fault_plan.Prng.int t.arrival_prng 10 with
  | 0 | 1 | 2 | 3 | 4 -> Static
  | 5 | 6 | 7 -> Batched
  | _ -> Cfa

let shed_arrival t ~serial refusal =
  (match refusal with
  | Busy -> t.shed_busy <- t.shed_busy + 1
  | Rate_limited -> t.shed_rate_limited <- t.shed_rate_limited + 1
  | Quarantined -> t.shed_quarantined <- t.shed_quarantined + 1);
  if t.obs <> None then
    observe t ~corr:(epoch_corr t)
      (Obs.Event.Session_shed { serial; reason = refusal_label refusal });
  Shed refusal

let arrive t ~device =
  if device < 0 || device >= Array.length t.provers then
    invalid_arg "Gateway.arrive: no such device";
  t.arrivals <- t.arrivals + 1;
  let serial = t.provers.(device).serial in
  let st = lookup_store t ~serial in
  touch t st;
  if t.now < st.quarantined_until then shed_arrival t ~serial Quarantined
  else begin
    refill t st;
    if st.tokens <= 0 then shed_arrival t ~serial Rate_limited
    else if Queue.length t.pending_q >= t.cfg.max_pending then
      shed_arrival t ~serial Busy
    else begin
      st.tokens <- st.tokens - 1;
      t.admitted <- t.admitted + 1;
      let kind = draw_kind t in
      let label = Printf.sprintf "%s/a%06d" serial t.admitted in
      let verifier = make_verifier t st ~serial ~kind ~label in
      (match t.obs with
      | Some log ->
          ignore (Obs.Log.mint log ~parent:(epoch_corr t) label);
          observe t ~corr:label
            (Obs.Event.Session_admitted { serial; kind = kind_label kind })
      | None -> ());
      Queue.push
        {
          s_serial = serial;
          s_device = device;
          s_kind = kind;
          s_corr = label;
          verifier;
          admitted_at = t.now;
          started_at = -1;
        }
        t.pending_q;
      let depth = Queue.length t.pending_q in
      if depth > t.max_queue_depth then t.max_queue_depth <- depth;
      Admitted
    end
  end

let verdict_of = function
  | Verifier.Attested -> V_attested
  | Verifier.Refused -> V_refused
  | Verifier.Gave_up -> V_timed_out
  | Verifier.Cfa_rejected -> V_cfa_rejected
  | Verifier.Pending -> assert false

let settle t (s : session) ~verdict =
  Hashtbl.remove t.by_seq (s.s_serial, Verifier.seq s.verifier);
  let latency = t.now - s.admitted_at in
  t.latencies <- latency :: t.latencies;
  observe t ~corr:s.s_corr
    (Obs.Event.Session_settled
       { serial = s.s_serial; verdict = verdict_label verdict; latency });
  (* Closed loop: the device's client thinks for [think] slices after its
     session concludes, then asks again. *)
  (match t.closed with
  | Some c -> schedule c ~due:(t.now + c.think) s.s_device
  | None -> ());
  (match verdict with
  | V_attested -> t.attested <- t.attested + 1
  | V_refused -> t.refused <- t.refused + 1
  | V_timed_out -> t.timed_out <- t.timed_out + 1
  | V_cfa_rejected -> t.cfa_rejected <- t.cfa_rejected + 1);
  match Hashtbl.find_opt t.store s.s_serial with
  | None -> ()  (* evicted mid-session; the breaker state went with it *)
  | Some st ->
      let mac_suspect =
        Verifier.rejected_frames s.verifier > 0 && verdict <> V_attested
      in
      let failed =
        verdict = V_timed_out || verdict = V_cfa_rejected || mac_suspect
      in
      if verdict = V_attested then st.streak <- 0
      else if failed then begin
        st.streak <- st.streak + 1;
        if st.streak >= breaker_threshold then begin
          st.streak <- 0;
          st.quarantined_until <- t.now + quarantine_slices;
          t.quarantine_trips <- t.quarantine_trips + 1;
          if not (List.mem s.s_serial t.quarantined_serials) then
            t.quarantined_serials <- s.s_serial :: t.quarantined_serials;
          observe t ~corr:s.s_corr
            (Obs.Event.Breaker_tripped { serial = s.s_serial });
          observe t ~corr:s.s_corr
            (Obs.Event.Quarantined { serial = s.s_serial })
        end
      end

(* ---- frame plumbing --------------------------------------------------- *)

let seq_of = function
  | Protocol.Challenge { seq; _ }
  | Protocol.Response { seq; _ }
  | Protocol.Refusal { seq }
  | Protocol.CfaChallenge { seq; _ }
  | Protocol.CfaResponse { seq; _ }
  | Protocol.UpdateOffer { seq; _ }
  | Protocol.UpdateChunk { seq; _ }
  | Protocol.UpdateAck { seq; _ } ->
      seq

(* The gateway's session demux.  Every inbound frame is classified —
   malformed, unknown revision, stale, or routed to the live session
   whose sequence it carries — and none of the paths can raise: garbage
   ends in a counter, never an exception. *)
let route t (p : prover) frame =
  match Protocol.decode frame with
  | Error e ->
      if Protocol.is_unknown_tag e then t.unknown <- t.unknown + 1
      else t.malformed <- t.malformed + 1
  | Ok msg -> (
      match Hashtbl.find_opt t.by_seq (p.serial, seq_of msg) with
      | None -> t.stale <- t.stale + 1
      | Some s ->
          observe t ~corr:s.s_corr
            (Obs.Event.Frame_received { kind = frame_kind msg });
          (* Static and CFA sessions verify inline, so the frame handler
             is where their crypto burns; the aggregator's check charges
             itself internally — wrapping it would double-count. *)
          (match s.s_kind with
          | Batched -> Verifier.on_frame s.verifier frame
          | Static | Cfa ->
              Cost_model.charge_hashing t.clock (fun () ->
                  Verifier.on_frame s.verifier frame)))

let inject_frame t ~device frame =
  if device < 0 || device >= Array.length t.provers then
    invalid_arg "Gateway.inject_frame: no such device";
  route t t.provers.(device) frame

let prover_step t (p : prover) =
  let at = t.now in
  let frames = Link.deliver p.link ~to_:Link.Device ~at in
  (* A stalled device still drains its inbox — the frames just die
     there, exactly like wedged firmware. *)
  if at >= p.stall_until then begin
    let reply_at = if at < p.late_until then at + p.late_extra else at in
    let genesis = Lazy.from_val t.genesis in
    List.iter
      (fun frame ->
        match Protocol.decode frame with
        | Error _ -> ()
        | Ok msg ->
            Option.iter
              (fun reply ->
                Link.send p.link ~from:Link.Device ~at:reply_at
                  (Protocol.encode reply))
              (Protocol.answer ~clock:t.device_clock ~ka:p.ka ~loaded:p.id
                 ~genesis msg))
      frames
  end

(* ---- the service loop ------------------------------------------------- *)

let step t =
  let at = t.now in
  apply_due_faults t;
  if at mod epoch_slices = 0 then begin
    (* Seals the outgoing batch and clears the measurement cache: a
       verdict cached under one nonce epoch must not answer the next. *)
    Aggregator.begin_epoch t.aggregator ~epoch:(at / epoch_slices);
    if t.obs <> None then ignore (epoch_corr t)
  end;
  (* Start queued sessions up to the in-flight cap. *)
  while t.inflight_n < max_inflight && not (Queue.is_empty t.pending_q) do
    let s = Queue.pop t.pending_q in
    s.started_at <- at;
    Hashtbl.replace t.by_seq (s.s_serial, Verifier.seq s.verifier) s;
    t.inflight <- s :: t.inflight;
    t.inflight_n <- t.inflight_n + 1
  done;
  (* Only a device with a frame due on its link can do anything in the
     two passes below, so each sweeps the [wired] set in device order and
     skips the rest (DESIGN.md §18, "Wake-driven slices"). *)
  let due d = Link.next_due t.provers.(d).link in
  (* Device side: provers answer what reached them. *)
  ignore
    (Link.Wake_set.sweep t.wired ~at ~wake:due ~visit:(fun d ->
         prover_step t t.provers.(d)));
  (* Remote side: route every arrived frame to its session. *)
  ignore
    (Link.Wake_set.sweep t.wired ~at ~wake:due ~visit:(fun d ->
         let p = t.provers.(d) in
         List.iter (route t p) (Link.deliver p.link ~to_:Link.Remote ~at)));
  (* Poll, enforce deadlines, settle. *)
  let still = ref [] in
  List.iter
    (fun s ->
      if
        Verifier.outcome s.verifier = Verifier.Pending
        && at - s.started_at >= deadline_slices
      then settle t s ~verdict:V_timed_out
      else begin
        (match Verifier.poll s.verifier ~at with
        | Some frame ->
            (match t.obs with
            | Some _ -> (
                match Protocol.decode frame with
                | Ok msg ->
                    observe t ~corr:s.s_corr
                      (Obs.Event.Frame_sent { kind = frame_kind msg })
                | Error _ -> ())
            | None -> ());
            Link.send t.provers.(s.s_device).link ~from:Link.Remote ~at frame;
            Link.Wake_set.add t.wired s.s_device
        | None -> ());
        match Verifier.outcome s.verifier with
        | Verifier.Pending -> still := s :: !still
        | outcome -> settle t s ~verdict:(verdict_of outcome)
      end)
    t.inflight;
  t.inflight <- List.rev !still;
  t.inflight_n <- List.length t.inflight;
  t.now <- at + 1

(* ---- reports ---------------------------------------------------------- *)

type arrival_mode =
  | Open_loop
  | Closed_loop of { think : int }

type report = {
  devices : int;
  load_slices : int;
  total_slices : int;
  arrival_permille : int;
  think : int option;  (* Some t in closed-loop mode *)
  seed : int;
  faults : bool;
  loss_percent : int;
  arrivals : int;
  admitted : int;
  attested : int;
  refused : int;
  timed_out : int;
  cfa_rejected : int;
  shed_busy : int;
  shed_rate_limited : int;
  shed_quarantined : int;
  max_queue_depth : int;
  queue_bound : int;
  p50_slices : int;
  p99_slices : int;
  p50_cycles : int;
  p99_cycles : int;
  throughput_per_kslice : int;
  quarantined : string list;
  quarantine_trips : int;
  evictions : int;
  key_derivations : int;
  batches : int;
  malformed_frames : int;
  stale_frames : int;
  unknown_frames : int;
  verifier_cycles : int;
  device_cycles : int;
  link : (string * int) list;
  fault_counts : (string * int) list;
  telemetry : (string * int) list;
}

let shed r = r.shed_busy + r.shed_rate_limited + r.shed_quarantined
let settled r = r.attested + r.refused + r.timed_out + r.cfa_rejected

let campaign_failed r =
  r.max_queue_depth > r.queue_bound || settled r <> r.admitted

(* Nearest-rank percentile over the exact latency population, so the
   p99 row in the bench table is sharp. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(max 0 (((p * n) + 99) / 100 - 1))

let sum_links provers =
  Array.fold_left
    (fun acc (p : prover) ->
      let counters = Link.counters p.link in
      match acc with
      | [] -> counters
      | _ ->
          List.map2 (fun (k, a) (k', b) ->
              assert (k = k');
              (k, a + b))
            acc counters)
    [] provers

let report_of t ~load_slices ~arrival_permille ~think =
  let sorted = Array.of_list t.latencies in
  Array.sort compare sorted;
  let total = max 1 t.now in
  {
    devices = Array.length t.provers;
    load_slices;
    total_slices = t.now;
    arrival_permille;
    think;
    seed = t.seed;
    faults = t.faults;
    loss_percent = t.loss_percent;
    arrivals = t.arrivals;
    admitted = t.admitted;
    attested = t.attested;
    refused = t.refused;
    timed_out = t.timed_out;
    cfa_rejected = t.cfa_rejected;
    shed_busy = t.shed_busy;
    shed_rate_limited = t.shed_rate_limited;
    shed_quarantined = t.shed_quarantined;
    max_queue_depth = t.max_queue_depth;
    queue_bound = t.cfg.max_pending;
    p50_slices = percentile sorted 50;
    p99_slices = percentile sorted 99;
    p50_cycles = percentile sorted 50 * slice_cycles;
    p99_cycles = percentile sorted 99 * slice_cycles;
    throughput_per_kslice =
      (t.attested + t.refused + t.timed_out + t.cfa_rejected) * 1000 / total;
    quarantined = List.sort compare t.quarantined_serials;
    quarantine_trips = t.quarantine_trips;
    evictions = t.evictions;
    key_derivations = t.key_derivations;
    batches = List.length (Aggregator.batches t.aggregator);
    malformed_frames = t.malformed;
    stale_frames = t.stale;
    unknown_frames = t.unknown;
    verifier_cycles = Cycles.now t.clock;
    device_cycles = Cycles.now t.device_clock;
    link = sum_links t.provers;
    fault_counts = List.sort compare t.fault_counts;
    telemetry =
      List.filter
        (fun (_, n) -> n > 0)
        [
          ("serve.attested", t.attested);
          ("serve.cfa_rejected", t.cfa_rejected);
          ("serve.evictions", t.evictions);
          ("serve.malformed_frames", t.malformed);
          ("serve.quarantines", t.quarantine_trips);
          ("serve.refused", t.refused);
          ("serve.shed_busy", t.shed_busy);
          ("serve.shed_quarantined", t.shed_quarantined);
          ("serve.shed_rate-limited", t.shed_rate_limited);
          ("serve.stale_frames", t.stale);
          ("serve.timed_out", t.timed_out);
          ("serve.unknown_frames", t.unknown);
        ]
      @ Aggregator.counters t.aggregator;
  }

let run ?(config = default_config) ?(faults = false) ?(loss_percent = 10)
    ?(arrival = Open_loop) ?obs ~devices ~slices ~arrival_permille ~seed () =
  if slices <= 0 then invalid_arg "Gateway.run: slices must be positive";
  if arrival_permille < 0 then
    invalid_arg "Gateway.run: arrival_permille must be non-negative";
  (match arrival with
  | Closed_loop { think } when think < 0 ->
      invalid_arg "Gateway.run: think must be non-negative"
  | _ -> ());
  let t =
    create ~config ~faults ~fault_horizon:slices ~loss_percent ?obs ~devices
      ~seed ()
  in
  (match arrival with
  | Open_loop -> ()
  | Closed_loop { think } ->
      (* Stagger first requests so the whole population does not slam
         the gateway at slice 0. *)
      let c =
        {
          keys = Array.make devices 0;
          size = 0;
          stride = devices;
          think;
          ready = Link.Wake_set.create ~universe:devices;
        }
      in
      for d = 0 to devices - 1 do
        schedule c ~due:(d mod (think + 1)) d
      done;
      t.closed <- Some c);
  for _ = 1 to slices do
    (match t.closed with
    | None ->
        (* Open-loop offered load: arrival_permille / 1000 arrivals per
           slice in expectation, device chosen uniformly.  The generator
           does not wait for the gateway — that is what makes overload
           possible. *)
        let n =
          (arrival_permille / 1000)
          + (if
               Fault_plan.Prng.int t.arrival_prng 1000
               < arrival_permille mod 1000
             then 1
             else 0)
        in
        for _ = 1 to n do
          ignore (arrive t ~device:(Fault_plan.Prng.int t.arrival_prng devices))
        done
    | Some c ->
        (* Closed-loop load: each device has one outstanding request at
           most; the next is issued [think] slices after the previous
           one settles (or is shed).  The generator waits for the
           gateway — load self-limits, which is what changes the shed
           profile versus the open-loop generator. *)
        due_requests c ~now:t.now (fun d ->
            match arrive t ~device:d with
            | Admitted -> ()
            | Shed _ -> schedule c ~due:(t.now + c.think + 1) d));
    step t
  done;
  (* Drain: no new arrivals; the deadline bounds every started session,
     so the queue empties in bounded time.  The cap is a backstop. *)
  let drain_cap =
    t.now
    + (((config.max_pending / max_inflight) + 3) * deadline_slices)
    + backoff.Verifier.cap_slices
  in
  while
    (t.inflight_n > 0 || not (Queue.is_empty t.pending_q)) && t.now < drain_cap
  do
    step t
  done;
  (* Backstop only: anything past the cap is forced to a conclusion so
     [settled = admitted] is an invariant of every report. *)
  Queue.iter (fun s -> settle t s ~verdict:V_timed_out) t.pending_q;
  Queue.clear t.pending_q;
  List.iter (fun s -> settle t s ~verdict:V_timed_out) t.inflight;
  t.inflight <- [];
  t.inflight_n <- 0;
  Aggregator.flush t.aggregator;
  report_of t ~load_slices:slices ~arrival_permille
    ~think:
      (match arrival with
      | Open_loop -> None
      | Closed_loop { think } -> Some think)

let body r =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add
    "serve campaign: devices=%d slices=%d(+%d drain) rate=%d/1000 seed=%d faults=%s loss=%d%%\n"
    r.devices r.load_slices
    (r.total_slices - r.load_slices)
    r.arrival_permille r.seed
    (if r.faults then "on" else "off")
    r.loss_percent;
  (match r.think with
  | Some think -> add "arrival=closed think=%d\n" think
  | None -> ());
  add "arrivals=%d admitted=%d shed=%d (busy=%d rate=%d quarantine=%d)\n"
    r.arrivals r.admitted (shed r) r.shed_busy r.shed_rate_limited
    r.shed_quarantined;
  add "verdicts: attested=%d refused=%d timed_out=%d cfa_rejected=%d\n"
    r.attested r.refused r.timed_out r.cfa_rejected;
  add "queue: max_depth=%d bound=%d\n" r.max_queue_depth r.queue_bound;
  add "latency: p50=%d p99=%d slices (p50=%d p99=%d cycles)\n" r.p50_slices
    r.p99_slices r.p50_cycles r.p99_cycles;
  add "throughput=%d settled/kslice\n" r.throughput_per_kslice;
  add "quarantine: trips=%d devices=[%s]\n" r.quarantine_trips
    (String.concat " " r.quarantined);
  add "store: evictions=%d key_derivations=%d\n" r.evictions r.key_derivations;
  add "batches=%d\n" r.batches;
  add "frames: malformed=%d stale=%d unknown=%d\n" r.malformed_frames
    r.stale_frames r.unknown_frames;
  add "verifier_cycles=%d device_cycles=%d\n" r.verifier_cycles r.device_cycles;
  List.iter (fun (k, v) -> add "  link.%s=%d\n" k v) r.link;
  List.iter (fun (k, v) -> add "  fault.%s=%d\n" k v) r.fault_counts;
  List.iter (fun (k, v) -> add "  %s=%d\n" k v) r.telemetry;
  Buffer.contents b

let to_string r = Fault_plan.stamp (body r)

let equal a b = to_string a = to_string b
