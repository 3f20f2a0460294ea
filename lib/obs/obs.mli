(** The fleet flight recorder: a typed, append-only event log with
    causal correlation ids, a tamper-evident SHA-256 hash chain,
    windowed SLO indicators, and causal trail reconstruction.

    Every fleet engine (gateway sessions, OTA waves, swarm epochs)
    records what happened to whom under a {e correlation id}; ids are
    minted with an optional parent, so any outcome — a quarantined
    device, an aborted wave — traces back through its ancestor chain
    (epoch → session → frames → verdict).  Recording is passive: no
    cycles are charged, so an observed campaign is bit-identical to an
    unobserved one.

    Integrity mirrors the attestation story: each appended record
    extends [head = SHA-256(head ∥ record)], so the head commits to
    every record and its order.  {!Log.export} emits a self-contained
    binary trail; {!Log.verify_chain} re-derives the chain and rejects
    truncation, splicing, reordering and bit flips — and never raises,
    whatever bytes it is fed. *)

module Event : sig
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

  val label : t -> string
  (** The event's kind tag, e.g. ["session-settled"]. *)

  val render : t -> string
  (** Deterministic one-line field rendering (no tabs or newlines). *)

  val serial_of : t -> string option
  (** The device serial the event is about, when it names one. *)
end

type record = {
  seq : int;  (** position in the log, 0-based, dense *)
  at : int;  (** event time in campaign slices *)
  corr : string;  (** correlation id *)
  parent : string option;  (** the corr id's parent at mint time *)
  event : Event.t;
}

module Log : sig
  type t

  val create : unit -> t
  (** A fresh log, its chain head at the fixed genesis digest. *)

  val mint : t -> ?parent:string -> string -> string
  (** Register a correlation id (idempotent — re-minting keeps the
      first parent) and return it. *)

  val record : t -> corr:string -> at:int -> Event.t -> unit
  (** Append a record.  An unminted [corr] is auto-registered with no
      parent. *)

  val length : t -> int
  val records : t -> record list  (** append order *)

  val head_hex : t -> string
  (** The current chain head, hex. *)

  val corr_ids : t -> (string * string option) list
  (** Every minted id with its parent, mint order. *)

  val parent_of : t -> string -> string option

  val export : t -> bytes
  (** Self-contained binary trail: the [TYOB2] magic, the record
      count, length-prefixed records, chain head. *)

  type chain_summary = {
    total : int;  (** records verified *)
    head : string;  (** recomputed chain head, hex *)
  }

  val verify_chain :
    ?expected_head:string -> bytes -> (chain_summary, string) result
  (** Structurally decode an exported trail, check the sequence
      numbering, then re-derive the hash chain; [Error] names the first
      divergence.  Never raises.  With
      [?expected_head] the recomputed head must also match the
      operator's out-of-band copy (an attacker who re-hashes a forged
      trail end to end is only caught by this pin). *)

  type tamper =
    | Truncate  (** drop the last record, keeping trailer intact *)
    | Splice  (** swap two adjacent records mid-log *)
    | Bit_flip of int
        (** flip the record-payload bit the argument picks (modulo the
            payload bits); length prefixes stay intact, so the trail
            still decodes and the sequence or head check, not the
            decoder, must catch the flip *)

  val tamper : tamper -> bytes -> bytes
  (** Inject a seeded fault into an exported trail (for tests and
      [tytan audit --tamper]).  Raises [Invalid_argument] if the trail
      is too short to host the fault or does not decode. *)
end

module Slo : sig
  type indicator = {
    name : string;
    window_start : int;  (** slice the window opens at; 0 for run-level *)
    value : int;
    threshold : int;
    breached : bool;
  }

  val evaluate : Log.t -> indicator list
  (** Fold the event stream into indicators, sorted by (window, name).
      Per window of 64 slices: p99 settle latency (breached above 64
      slices), quarantine count (above 2) and shed rate, shed over
      arrivals (above 500 permille).  Over the whole run: the OTA abort
      rate, aborted over offered waves (above 350 permille).  Pure —
      the log is not modified. *)

  val scan : Log.t -> indicator list
  (** {!evaluate}, then append an {!Event.Slo_breach} record (corr
      ["slo"]) for every breached indicator, in order. *)
end

module Trail : sig
  val members : Log.t -> corr:string -> string list
  (** The causal family of [corr]: ancestors outermost-first, then
      [corr], then descendants in mint order. *)

  val trace : Log.t -> corr:string -> record list
  (** Every record belonging to {!members}, in log order — the full
      causal chain behind an outcome. *)

  val to_json : Log.t -> corr:string -> string
  (** Deterministic JSON rendering of the trail: the ancestor chain
      and the traced records. *)
end

val flows_of_log : Log.t -> Tytan_telemetry.Export.flow list
(** One Perfetto flow arrow per parent→child correlation edge where
    both ends recorded at least one event: from the parent's first
    record to the child's first record. *)

val marks_of_log : Log.t -> Tytan_telemetry.Export.mark list
(** Every record as a Chrome-trace mark (anchor slices for the flow
    arrows), named [label: corr]. *)

val to_json : ?slo:Slo.indicator list -> Log.t -> string
(** The [tytan audit --json] payload: chain metadata (record count,
    head), the correlation registry, every record, and the SLO
    verdicts.  Byte-deterministic for a given log. *)
